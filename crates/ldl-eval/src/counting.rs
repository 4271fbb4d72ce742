//! The generalized counting rewriting [SZ 86].
//!
//! For *linear* recursive cliques, counting refines magic sets by
//! remembering the derivation depth: the binding-passing predicate
//! carries a counter (`cnt_p_a(I, bound args)`), and answers are produced
//! level by level on the way back down (`p_a'(I, t̄)`), so tuples for
//! different recursion depths never mix. On acyclic data this avoids the
//! joins magic sets must perform to reconnect answers with bindings,
//! which is why the paper lists counting among "the most efficient"
//! methods for bound recursive queries.
//!
//! The rewriting below produces an ordinary Horn program with integer
//! arithmetic (`I1 = I + 1`), evaluated by the same semi-naive engine:
//!
//! ```text
//! exit rule   h.a(t̄) <- body                 (no clique literal)
//!   =>        ans_h_a(I, t̄) <- cnt_h_a(I, b(t̄)), body'.
//! rec rule    h.a(t̄) <- pre, r.b(s̄), post    (one clique literal)
//!   =>        cnt_r_b(I1, b(s̄)) <- cnt_h_a(I, b(t̄)), pre', I1 = I + 1.
//!             ans_h_a(I, t̄) <- cnt_h_a(I, b(t̄)), pre', I1 = I + 1,
//!                              ans_r_b(I1, s̄), post'.
//! seed        cnt_q_a(0, query constants).
//! answers     ans_q_a(0, t̄) projected onto t̄.
//! ```
//!
//! Counting's known limitation is inherited faithfully: on *cyclic* data
//! the counter grows without bound and the evaluation aborts at the
//! fixpoint iteration limit (the classic counting-method divergence).

use ldl_core::adorn::{AdornedPred, AdornedProgram};
use ldl_core::{Atom, LdlError, Literal, Pred, Program, Query, Result, Rule, Span, Symbol, Term};
use ldl_storage::{Database, Tuple};
use std::collections::BTreeSet;

/// An upper bound on the recursion depth the counting method can reach
/// on *acyclic* data: every level of the counter consumes at least one
/// fresh piece of the stored data, so the depth can never exceed the
/// total structural size of the active domain. We charge one unit per
/// term node of every stored tuple (so a list of length n contributes
/// ~2n, covering list-walking recursions), plus one per rule and a
/// small constant for the rewriting's seed/projection rounds. A
/// semi-naive evaluation of the counting program that runs past this
/// bound can only be the counter spinning on a data cycle.
pub fn active_domain_iteration_bound(program: &Program, db: &Database) -> usize {
    let domain: usize = db
        .preds()
        .iter()
        .filter_map(|&p| db.relation(p))
        .map(|r| {
            r.rows()
                .iter()
                .map(|t| t.0.iter().map(Term::size).sum::<usize>())
                .sum::<usize>()
        })
        .sum();
    domain + program.rules.len() + 8
}

/// Rewrites the fixpoint-bound error ([`LdlError::Diverged`]) of a
/// counting program spinning past the active-domain bound into a
/// dedicated diagnostic naming the counting method's cyclic-data
/// limitation and the way out (magic sets terminates on cycles because
/// its binding-passing predicate carries no counter). Still
/// `Diverged`; any other error passes through unchanged.
pub fn map_divergence_error(e: LdlError, query: &Query, bound: usize) -> LdlError {
    match e {
        LdlError::Diverged(_) => LdlError::Diverged(format!(
            "counting method diverged on query {}: the derivation counter passed the \
             active-domain bound of {bound} iterations, so the data reachable from the \
             query is cyclic and the counting rewriting [SZ 86] cannot terminate on it; \
             re-run this query with the magic-sets method, which handles cyclic data",
            query.goal
        )),
        e => e,
    }
}

/// Result of the counting rewriting.
#[derive(Clone, Debug)]
pub struct CountingProgram {
    /// The rewritten rules.
    pub program: Program,
    /// Seed predicate `cnt_q_a` (arity = 1 + #bound).
    pub seed_pred: Pred,
    /// Seed tuple `(0, constants...)`.
    pub seed: Tuple,
    /// Answer predicate `ans_q_a` (arity = 1 + original arity).
    pub answer_pred: Pred,
    /// Original arity of the query predicate.
    pub query_arity: usize,
}

fn cnt_pred(ap: &AdornedPred) -> Pred {
    Pred {
        name: Symbol::intern(&format!("cnt_{}", ap.renamed().name)),
        arity: 1 + ap.adornment.bound_count(),
    }
}

fn ans_pred(ap: &AdornedPred) -> Pred {
    Pred {
        name: Symbol::intern(&format!("ans_{}", ap.renamed().name)),
        arity: 1 + ap.pred.arity,
    }
}

/// Rewrites an adorned program into a counting program.
///
/// Requirements (checked): *linearity* — every rule has at most one
/// positive derived literal in its body; with two or more, the recursion
/// depth would have to fork into independent counters (the non-linear
/// case [SZ 86]'s generalized counting does not cover either). Negated
/// derived literals are handled through stratification, like
/// [`crate::magic::magic_rewrite`].
pub fn counting_rewrite(
    adorned: &AdornedProgram,
    program: &Program,
    query: &Query,
) -> Result<CountingProgram> {
    if query.pred() != adorned.query.pred || query.adornment() != adorned.query.adornment {
        return Err(LdlError::Validation(format!(
            "query {query} does not match adorned program for {}",
            adorned.query
        )));
    }

    // Linearity requirement: at most one positive derived literal per
    // rule. (With two or more, the recursion depth would have to fork
    // into independent counters — the non-linear case the generalized
    // counting method of [SZ 86] does not cover either.) The set of
    // derived predicates is exactly the set of adorned heads.
    let derived: BTreeSet<Pred> = adorned.adorned_preds.iter().map(|ap| ap.pred).collect();

    let counter = || Term::var("CNT_I");
    let counter1 = || Term::var("CNT_I1");
    let mut out = Program::new();

    for ar in &adorned.rules {
        if ar.head_atom.args.iter().any(|a| a.as_group().is_some()) {
            return Err(LdlError::Validation(format!(
                "counting rewriting does not support grouping heads ({})",
                ar.head_atom
            )));
        }
        let head_ap = AdornedPred::new(ar.head.pred, ar.head.adornment);
        let bound = ar.head.adornment.bound_positions();
        // cnt_h_a(I, bound args of head)
        let cnt_head_args: Vec<Term> = std::iter::once(counter())
            .chain(bound.iter().map(|&i| ar.head_atom.args[i].clone()))
            .collect();
        let cnt_head_lit = Literal::Atom(Atom {
            pred: cnt_pred(&head_ap),
            args: cnt_head_args,
            negated: false,
            span: Span::NONE,
        });

        // Find the (single) derived literal, if any.
        let mut clique_pos: Option<(usize, &Atom, ldl_core::Adornment)> = None;
        for (j, (lit, ad)) in ar.body.iter().enumerate() {
            if let (Literal::Atom(a), Some(ad)) = (lit, ad) {
                debug_assert!(!a.negated, "negated atoms are never adorned");
                if derived.contains(&a.pred) {
                    if clique_pos.is_some() {
                        return Err(LdlError::Validation(format!(
                            "counting requires linear recursion; rule {ar} has two derived literals"
                        )));
                    }
                    clique_pos = Some((j, a, *ad));
                }
            }
        }

        // ans head: ans_h_a(I, t̄)
        let ans_head_args: Vec<Term> = std::iter::once(counter())
            .chain(ar.head_atom.args.iter().cloned())
            .collect();
        let ans_head = Atom {
            pred: ans_pred(&head_ap),
            args: ans_head_args,
            negated: false,
            span: Span::NONE,
        };

        match clique_pos {
            None => {
                // Exit rule: ans_h_a(I, t̄) <- cnt_h_a(I, b(t̄)), body.
                let mut body = vec![cnt_head_lit];
                body.extend(ar.body.iter().map(|(l, _)| l.clone()));
                out.push(Rule::new(ans_head, body));
            }
            Some((j, ratom, rad)) => {
                let rec_ap = AdornedPred::new(ratom.pred, rad);
                let rbound = rad.bound_positions();
                let incr = Literal::Builtin(ldl_core::BuiltinPred::new(
                    ldl_core::CmpOp::Eq,
                    counter1(),
                    Term::compound("+", vec![counter(), Term::int(1)]),
                ));
                // cnt rule: cnt_r_b(I1, b(s̄)) <- cnt_h_a(I, b(t̄)), pre, I1 = I + 1.
                let cnt_rec_args: Vec<Term> = std::iter::once(counter1())
                    .chain(rbound.iter().map(|&i| ratom.args[i].clone()))
                    .collect();
                let cnt_rec_head = Atom {
                    pred: cnt_pred(&rec_ap),
                    args: cnt_rec_args,
                    negated: false,
                    span: Span::NONE,
                };
                let mut cbody = vec![cnt_head_lit.clone()];
                cbody.extend(ar.body[..j].iter().map(|(l, _)| l.clone()));
                cbody.push(incr.clone());
                out.push(Rule::new(cnt_rec_head, cbody));

                // ans rule: ans_h_a(I, t̄) <- cnt_h_a(I, b(t̄)), pre,
                //            I1 = I + 1, ans_r_b(I1, s̄), post.
                let ans_rec_args: Vec<Term> = std::iter::once(counter1())
                    .chain(ratom.args.iter().cloned())
                    .collect();
                let ans_rec_lit = Literal::Atom(Atom {
                    pred: ans_pred(&rec_ap),
                    args: ans_rec_args,
                    negated: false,
                    span: Span::NONE,
                });
                let mut abody = vec![cnt_head_lit];
                abody.extend(ar.body[..j].iter().map(|(l, _)| l.clone()));
                abody.push(incr);
                abody.push(ans_rec_lit);
                abody.extend(ar.body[j + 1..].iter().map(|(l, _)| l.clone()));
                out.push(Rule::new(ans_head, abody));
            }
        }
    }

    // Fact-import rules (facts asserted directly on derived predicates;
    // see the matching comment in `magic`):
    //   ans_p_a(I, x̄) <- cnt_p_a(I, x̄_bound), p(x̄).
    for ap in &adorned.adorned_preds {
        let vars: Vec<Term> = (0..ap.pred.arity)
            .map(|i| Term::var(&format!("FI_{i}")))
            .collect();
        let bound = ap.adornment.bound_positions();
        let cargs: Vec<Term> = std::iter::once(counter())
            .chain(bound.iter().map(|&i| vars[i].clone()))
            .collect();
        let guard = Atom {
            pred: cnt_pred(ap),
            args: cargs,
            negated: false,
            span: Span::NONE,
        };
        let orig = Atom {
            pred: ap.pred,
            args: vars.clone(),
            negated: false,
            span: Span::NONE,
        };
        let hargs: Vec<Term> = std::iter::once(counter()).chain(vars).collect();
        let head = Atom {
            pred: ans_pred(ap),
            args: hargs,
            negated: false,
            span: Span::NONE,
        };
        out.push(Rule::new(
            head,
            vec![Literal::Atom(guard), Literal::Atom(orig)],
        ));
    }

    // Stratified negation: negated predicates' full rules, unrenamed.
    for r in crate::magic::negated_derived_closure(adorned, program) {
        out.push(r);
    }

    let qap = AdornedPred::new(adorned.query.pred, adorned.query.adornment);
    let bound = adorned.query.adornment.bound_positions();
    let consts: Vec<Term> = std::iter::once(Term::int(0))
        .chain(bound.iter().map(|&i| query.goal.args[i].clone()))
        .collect();

    Ok(CountingProgram {
        program: out,
        seed_pred: cnt_pred(&qap),
        seed: Tuple::new(consts),
        answer_pred: ans_pred(&qap),
        query_arity: qap.pred.arity,
    })
}

/// Extracts the query answers from the `ans_q_a` relation: rows with
/// counter 0, counter column dropped.
pub fn extract_answers(
    ans_rel: &ldl_storage::Relation,
    query_arity: usize,
) -> ldl_storage::Relation {
    let mut out = ldl_storage::Relation::new(query_arity);
    for row in ans_rel.iter() {
        if row.get(0) == &Term::int(0) {
            out.insert(row.project(&(1..=query_arity).collect::<Vec<_>>()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::FixpointConfig;
    use crate::seminaive::eval_program_seminaive;
    use ldl_core::adorn::{adorn_program, GreedySip};
    use ldl_core::parser::{parse_program, parse_query};
    use ldl_storage::{Database, Relation};

    fn run_counting(text: &str, qtext: &str) -> Result<(Relation, crate::Metrics)> {
        let program = parse_program(text).unwrap();
        let query = parse_query(qtext).unwrap();
        let adorned = adorn_program(&program, query.pred(), query.adornment(), &GreedySip);
        let counting = counting_rewrite(&adorned, &program, &query)?;
        let mut db = Database::from_program(&program);
        db.relation_mut(counting.seed_pred)
            .insert(counting.seed.clone());
        let (derived, metrics) = eval_program_seminaive(
            &counting.program,
            &db,
            &FixpointConfig::with_max_iterations(500),
        )?;
        let ans = extract_answers(&derived[&counting.answer_pred], counting.query_arity);
        Ok((ans, metrics))
    }

    const TC: &str = r#"
        e(1, 2). e(2, 3). e(3, 4). e(10, 11).
        tc(X, Y) <- e(X, Y).
        tc(X, Y) <- e(X, Z), tc(Z, Y).
    "#;

    #[test]
    fn counting_tc_bound_query() {
        let (ans, _) = run_counting(TC, "tc(1, Y)?").unwrap();
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&Tuple::ints(&[1, 2])));
        assert!(ans.contains(&Tuple::ints(&[1, 3])));
        assert!(ans.contains(&Tuple::ints(&[1, 4])));
    }

    #[test]
    fn counting_sg_paper_clique() {
        let text = r#"
            up(1, 10). up(2, 10). up(3, 20).
            flat(10, 10). flat(20, 20).
            dn(10, 1). dn(10, 2). dn(20, 3).
            sg(X, Y) <- flat(X, Y).
            sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
        "#;
        let (ans, _) = run_counting(text, "sg(1, Y)?").unwrap();
        assert!(ans.contains(&Tuple::ints(&[1, 1])));
        assert!(ans.contains(&Tuple::ints(&[1, 2])));
        assert!(!ans.iter().any(|t| t.get(0) != &Term::int(1)));
    }

    #[test]
    fn nonlinear_clique_rejected() {
        let text = r#"
            e(1, 2).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- tc(X, Z), tc(Z, Y).
        "#;
        let err = run_counting(text, "tc(1, Y)?");
        assert!(err.is_err());
    }

    #[test]
    fn cyclic_data_diverges_at_iteration_bound() {
        let text = r#"
            e(1, 2). e(2, 1).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- e(X, Z), tc(Z, Y).
        "#;
        // The counting method's classic failure mode: counter grows
        // without bound on cycles and the evaluation aborts.
        let r = run_counting(text, "tc(1, Y)?");
        assert!(r.is_err());
    }

    #[test]
    fn counting_matches_magic_on_dag() {
        let text = r#"
            e(1, 2). e(1, 3). e(2, 4). e(3, 4). e(4, 5).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- e(X, Z), tc(Z, Y).
        "#;
        let (ans, _) = run_counting(text, "tc(1, Y)?").unwrap();
        assert_eq!(ans.len(), 4); // 2,3,4,5
    }

    #[test]
    fn bb_query_membership() {
        let (ans, _) = run_counting(TC, "tc(1, 4)?").unwrap();
        assert!(ans.contains(&Tuple::ints(&[1, 4])));
    }

    #[test]
    fn facts_on_derived_predicates_survive_rewriting() {
        let text = r#"
            edge(1, 2). edge(2, 3).
            reach(1).
            reach(Y) <- reach(X), edge(X, Y).
        "#;
        let (ans, _) = run_counting(text, "reach(3)?").unwrap();
        assert!(ans.contains(&Tuple::ints(&[3])), "got {ans:?}");
    }

    #[test]
    fn list_length_via_counting() {
        let text = "len([], 0).\nlen([H | T], N) <- len(T, M), N = M + 1.";
        let (ans, _) = run_counting(text, "len([10, 20, 30, 40], N)?").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.rows()[0].get(1), &Term::int(4));
    }

    #[test]
    fn list_append_via_counting() {
        let text = "app([], L, L).\napp([H | T], L, [H | R]) <- app(T, L, R).";
        let (ans, _) = run_counting(text, "app([1, 2], [3], Z)?").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.rows()[0].get(2).to_string(), "[1, 2, 3]");
    }

    #[test]
    fn seed_shape() {
        let program = parse_program(TC).unwrap();
        let query = parse_query("tc(1, Y)?").unwrap();
        let adorned = adorn_program(&program, query.pred(), query.adornment(), &GreedySip);
        let c = counting_rewrite(&adorned, &program, &query).unwrap();
        assert_eq!(c.seed, Tuple::ints(&[0, 1]));
        assert_eq!(c.seed_pred.name.as_str(), "cnt_tc_bf");
        assert_eq!(c.answer_pred.name.as_str(), "ans_tc_bf");
        assert_eq!(c.answer_pred.arity, 3);
    }
}
