//! Materialized execution of a rule body — the `MP` dimension.
//!
//! §4 of the paper distinguishes square (materialized) from triangle
//! (pipelined) nodes: a materialized subtree is computed bottom-up in
//! full before its ancestor starts, with no sideways information
//! passing. [`crate::rule_eval`] is the pipelined executor; this module
//! is its materialized counterpart, built from the relational operators
//! of [`crate::ops`]: each body atom becomes a full relation, joined
//! left-to-right on shared variables with an exchangeable join method,
//! builtins applied as filters (or column computations for `=`) once
//! their variables are available.
//!
//! Both executors return identical relations (the MP transformation is
//! equivalence-preserving); the `join_methods` bench and the MP ablation
//! compare their costs.

use crate::builtins::eval_builtin;
use crate::ops::{join, ColPredicate, JoinMethod};
use crate::rule_eval::RelSource;
use ldl_core::unify::Subst;
use ldl_core::{BuiltinPred, LdlError, Literal, Result, Rule, Symbol, Term};
use ldl_storage::{Relation, Tuple};

/// Intermediate result: a relation whose columns are named by variables.
struct Intermediate {
    rel: Relation,
    schema: Vec<Symbol>,
}

impl Intermediate {
    fn col_of(&self, v: Symbol) -> Option<usize> {
        self.schema.iter().position(|&s| s == v)
    }
}

/// Materializes one atom occurrence into an [`Intermediate`]: constant
/// arguments and repeated variables are resolved by per-row unification
/// (which also handles compound-term patterns), and each distinct
/// variable becomes one column.
fn materialize_atom(atom: &ldl_core::Atom, rel: &Relation) -> Intermediate {
    let vars = atom.vars();
    let mut out = Relation::new(vars.len());
    for row in rel.iter() {
        let mut s = Subst::new();
        if atom
            .args
            .iter()
            .zip(&row.0)
            .all(|(pat, val)| s.unify(pat, val))
        {
            let tuple: Vec<Term> = vars.iter().map(|&v| s.apply(&Term::Var(v))).collect();
            out.insert(Tuple::new(tuple));
        }
    }
    Intermediate {
        rel: out,
        schema: vars,
    }
}

/// A builtin comparison that can run as a relational selection: one
/// side a variable already materialized as a column, the other a plain
/// constant (no arithmetic to evaluate).
fn pushdown_predicate(b: &BuiltinPred, acc: &Intermediate) -> Option<ColPredicate> {
    let (v, value, op) = match (&b.lhs, &b.rhs) {
        (Term::Var(v), c @ Term::Const(_)) => (*v, c.clone(), b.op),
        (c @ Term::Const(_), Term::Var(v)) => (*v, c.clone(), b.op.flipped()),
        _ => return None,
    };
    acc.col_of(v).map(|col| ColPredicate { col, op, value })
}

/// Executes `rule`'s body fully materialized, in the order `order`, with
/// the given join method, returning the deduplicated head relation.
///
/// Errors mirror the pipelined executor: non-EC builtins, unbound
/// negation, or unbound head variables mean the order is unsafe.
///
/// Column-vs-constant comparison filters run through the *lenient*
/// [`crate::ops::select`] unless `strict` is set: an ordering
/// comparison over unordered values silently drops the row, where the
/// pipelined executor's per-row builtin raises a typed error. With
/// `strict` those filters go through [`crate::ops::select_strict`],
/// restoring agreement on ill-typed data.
pub fn eval_rule_materialized(
    rule: &Rule,
    order: &[usize],
    method: JoinMethod,
    source: &dyn RelSource,
    strict: bool,
) -> Result<Relation> {
    debug_assert_eq!(order.len(), rule.body.len());
    // Start from a unit relation (one empty tuple): joins extend it.
    let mut acc = Intermediate {
        rel: Relation::from_tuples(0, [Tuple::new(vec![])]),
        schema: vec![],
    };
    for &li in order {
        match &rule.body[li] {
            Literal::Atom(a) if !a.negated => {
                let base = source
                    .relation(li, a.pred)
                    .cloned()
                    .unwrap_or_else(|| Relation::new(a.pred.arity));
                let right = materialize_atom(a, &base);
                // Shared variables become equi-join columns.
                let on: Vec<(usize, usize)> = right
                    .schema
                    .iter()
                    .enumerate()
                    .filter_map(|(rc, &v)| acc.col_of(v).map(|lc| (lc, rc)))
                    .collect();
                let joined = join(&acc.rel, &right.rel, &on, method);
                // New schema: left columns then right's new variables;
                // project away duplicated join columns from the right.
                let mut keep: Vec<usize> = (0..acc.schema.len()).collect();
                let mut schema = acc.schema.clone();
                for (rc, &v) in right.schema.iter().enumerate() {
                    if acc.col_of(v).is_none() {
                        keep.push(acc.schema.len() + rc);
                        schema.push(v);
                    }
                }
                let projected = crate::ops::project(&joined, &keep);
                acc = Intermediate {
                    rel: projected,
                    schema,
                };
            }
            Literal::Atom(a) => {
                // Negation: anti-join on the (fully bound) argument tuple.
                let vars = a.vars();
                if !vars.iter().all(|v| acc.col_of(*v).is_some()) {
                    return Err(LdlError::Eval(format!(
                        "negated literal ~{a} not bound under materialized order {order:?}"
                    )));
                }
                let neg_rel = source
                    .relation(li, a.pred)
                    .cloned()
                    .unwrap_or_else(|| Relation::new(a.pred.arity));
                let mut out = Relation::new(acc.rel.arity());
                for row in acc.rel.iter() {
                    let mut s = Subst::new();
                    for (c, &v) in acc.schema.iter().enumerate() {
                        if !s.unify(&Term::Var(v), row.get(c)) {
                            unreachable!("schema binding cannot fail");
                        }
                    }
                    let ground = s.apply_atom(a);
                    if !neg_rel.contains(&Tuple::new(ground.args)) {
                        out.insert(row.clone());
                    }
                }
                acc = Intermediate {
                    rel: out,
                    schema: acc.schema,
                };
            }
            Literal::Builtin(b) => {
                // Column-vs-constant comparisons are relational
                // selections; the strict flag picks which select runs.
                if let Some(pred) = pushdown_predicate(b, &acc) {
                    let preds = std::slice::from_ref(&pred);
                    let selected = if strict {
                        crate::ops::select_strict(&acc.rel, preds)?
                    } else {
                        crate::ops::select(&acc.rel, preds)
                    };
                    acc = Intermediate {
                        rel: selected,
                        schema: acc.schema,
                    };
                    continue;
                }
                // Apply per row: filters drop rows, `=` may add a column.
                let new_vars: Vec<Symbol> = b
                    .vars()
                    .into_iter()
                    .filter(|v| acc.col_of(*v).is_none())
                    .collect();
                let mut out_schema = acc.schema.clone();
                out_schema.extend(new_vars.iter().copied());
                let mut out = Relation::new(out_schema.len());
                for row in acc.rel.iter() {
                    let mut s = Subst::new();
                    for (c, &v) in acc.schema.iter().enumerate() {
                        let ok = s.unify(&Term::Var(v), row.get(c));
                        debug_assert!(ok);
                    }
                    if let Some(s2) = eval_builtin(b, &s)? {
                        let mut tuple = row.0.clone();
                        for &v in &new_vars {
                            let t = s2.apply(&Term::Var(v));
                            if !t.is_ground() {
                                return Err(LdlError::Eval(format!(
                                    "builtin {b} left {v} unbound"
                                )));
                            }
                            tuple.push(t);
                        }
                        out.insert(Tuple::new(tuple));
                    }
                }
                acc = Intermediate {
                    rel: out,
                    schema: out_schema,
                };
            }
        }
    }
    // Project to the head.
    let head_vars = rule.head.vars();
    let mut out = Relation::new(rule.head.args.len());
    for row in acc.rel.iter() {
        let mut s = Subst::new();
        for (c, &v) in acc.schema.iter().enumerate() {
            let ok = s.unify(&Term::Var(v), row.get(c));
            debug_assert!(ok);
        }
        let head = s.apply_atom(&rule.head);
        if !head.is_ground() {
            return Err(LdlError::Eval(format!(
                "unbound head variable(s) {:?} under materialized order {order:?}",
                head_vars
                    .iter()
                    .filter(|v| acc.col_of(**v).is_none())
                    .map(|v| v.as_str())
                    .collect::<Vec<_>>()
            )));
        }
        out.insert(Tuple::new(head.args));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule_eval::{eval_rule_with, AccessPlan, OverlaySource};
    use ldl_core::parser::parse_program;
    use ldl_core::Pred;
    use ldl_storage::Database;

    fn both_executors(text: &str, rule_idx: usize, order: &[usize]) -> (Relation, Relation) {
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let rule = &program.rules[rule_idx];
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let mat = eval_rule_materialized(rule, order, JoinMethod::Hash, &source, false).unwrap();
        let mut pipe = Relation::new(rule.head.args.len());
        let plan = AccessPlan::HashOnDemand;
        eval_rule_with(rule, order, &Subst::new(), &source, plan, &mut |t| {
            pipe.insert(t);
        })
        .unwrap();
        (mat, pipe)
    }

    #[test]
    fn matches_pipelined_on_joins() {
        let (mat, pipe) = both_executors(
            r#"
            e(1, 2). e(2, 3). e(3, 4). e(2, 5).
            p(X, Z) <- e(X, Y), e(Y, Z).
            "#,
            0,
            &[0, 1],
        );
        assert_eq!(mat, pipe);
        assert_eq!(mat.len(), 3);
    }

    #[test]
    fn matches_pipelined_with_builtins() {
        let (mat, pipe) = both_executors(
            r#"
            n(1). n(2). n(3). n(4).
            big(X, Y) <- n(X), X > 2, Y = X * 10.
            "#,
            0,
            &[0, 1, 2],
        );
        assert_eq!(mat, pipe);
        assert_eq!(mat.len(), 2);
    }

    #[test]
    fn matches_pipelined_with_negation() {
        let (mat, pipe) = both_executors(
            r#"
            node(1). node(2). node(3).
            bad(2).
            ok(X) <- node(X), ~bad(X).
            "#,
            0,
            &[0, 1],
        );
        assert_eq!(mat, pipe);
        assert_eq!(mat.len(), 2);
    }

    #[test]
    fn matches_pipelined_on_complex_terms() {
        let (mat, pipe) = both_executors(
            r#"
            part(bike, wheel(front, 32)). part(bike, wheel(rear, 36)). part(bike, frame(x)).
            spokes(B, N) <- part(B, wheel(S, N)).
            "#,
            0,
            &[0],
        );
        assert_eq!(mat, pipe);
        assert_eq!(mat.len(), 2);
    }

    #[test]
    fn all_join_methods_agree_materialized() {
        let text = r#"
            e(1, 2). e(2, 3). e(3, 4). e(2, 5).
            p(X, Z) <- e(X, Y), e(Y, Z).
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let rule = &program.rules[0];
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let results: Vec<Relation> = JoinMethod::ALL
            .iter()
            .map(|&m| eval_rule_materialized(rule, &[0, 1], m, &source, false).unwrap())
            .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn repeated_variables_within_atom() {
        let (mat, pipe) = both_executors(
            r#"
            e(1, 1). e(1, 2). e(3, 3).
            loop2(X) <- e(X, X).
            "#,
            0,
            &[0],
        );
        assert_eq!(mat, pipe);
        assert_eq!(mat.len(), 2);
    }

    #[test]
    fn order_independence_of_results() {
        let text = r#"
            a(1, 2). a(2, 3).
            b(2, 10). b(3, 20).
            c(10). c(20).
            q(X, Z) <- a(X, Y), b(Y, Z), c(Z).
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let rule = &program.rules[0];
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let r1 =
            eval_rule_materialized(rule, &[0, 1, 2], JoinMethod::Hash, &source, false).unwrap();
        let r2 =
            eval_rule_materialized(rule, &[2, 1, 0], JoinMethod::Hash, &source, false).unwrap();
        let r3 =
            eval_rule_materialized(rule, &[1, 2, 0], JoinMethod::Index, &source, false).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        assert_eq!(r1.len(), 2);
    }

    #[test]
    fn unsafe_order_detected() {
        let text = r#"
            n(1).
            big(X, Y) <- n(X), Y = X * 10.
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let rule = &program.rules[0];
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        assert!(eval_rule_materialized(rule, &[1, 0], JoinMethod::Hash, &source, false).is_err());
    }

    /// On ill-typed data the lenient selection drops the row the
    /// pipelined executor would have raised on; `strict` raises too.
    #[test]
    fn strict_selection_errors_where_lenient_drops() {
        let program = parse_program("n(1). n(tom).\nbig(X) <- n(X), X > 0.").unwrap();
        let db = Database::from_program(&program);
        let rule = &program.rules[0];
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let run = |strict| eval_rule_materialized(rule, &[0, 1], JoinMethod::Hash, &source, strict);
        assert_eq!(run(false).unwrap().len(), 1);
        assert!(run(true).is_err());
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let (mat, pipe) = both_executors(
            r#"
            a(1). a(2).
            b(10). b(20). b(30).
            pair(X, Y) <- a(X), b(Y).
            "#,
            0,
            &[0, 1],
        );
        assert_eq!(mat, pipe);
        assert_eq!(mat.len(), 6);
    }
}
