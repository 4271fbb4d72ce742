//! The tuple-at-a-time rule evaluator.
//!
//! Evaluates one rule body in an explicit literal order — the SIP chosen
//! by the optimizer — by backtracking over substitutions. Each positive
//! atom is solved against its relation, probing an ordered index led by
//! the argument positions that are already ground (the pipelined index
//! join of §4); remaining argument patterns unify tuple-by-tuple, which
//! is what makes complex terms work. Builtins execute via [`crate::builtins`];
//! negated atoms test set membership against a completed relation
//! (stratified semantics).

use crate::builtins::{eval_builtin, eval_cmp_operand};
use ldl_core::unify::Subst;
use ldl_core::{CmpOp, LdlError, Literal, Pred, Result, Rule, Symbol, Term, Value};
use ldl_index::IndexCatalog;
use ldl_storage::{note_rows_enumerated, ColClass, Relation, Tuple};
use std::ops::Bound;

/// How positive-atom probe sites pick their access path.
///
/// The two modes produce identical solution streams (ordered probes
/// return row ids ascending, the order a scan enumerates), so answers
/// and [`crate::Metrics`] are bit-for-bit equal across modes — only the
/// index work differs.
#[derive(Clone, Copy, Debug)]
pub enum AccessPlan<'a> {
    /// Probe ordered indexes: a bound-column set served by one of the
    /// catalog's lexicographic orders probes that shared index; any
    /// other set probes an order on exactly its columns, built on first
    /// use per relation version. An empty catalog makes every probe
    /// build its own order.
    Selected(&'a IndexCatalog),
    /// Never probe — always scan. The determinism baseline.
    ForceScan,
}

/// Supplies the relation to read for each body atom. Implementations
/// distinguish base relations, completed derived relations, and — for
/// semi-naive evaluation — the *delta* of one designated occurrence.
pub trait RelSource {
    /// Relation for the atom at original body position `lit_index` with
    /// predicate `pred`. `None` means empty.
    fn relation(&self, lit_index: usize, pred: Pred) -> Option<&Relation>;
}

/// The one [`RelSource`]: a per-predicate lookup plus positional
/// overrides, each saying "the atom at this body position reads that
/// relation". A semi-naive delta, the old state a maintenance firing
/// differences against, and the row chunk the round executor cuts for a
/// worker are all overrides. The first entry naming a position wins, so
/// whoever layers a chunk over a delta lists the chunk first.
pub struct OverlaySource<'s, 'a, F>
where
    F: Fn(Pred) -> Option<&'a Relation>,
{
    /// General lookup.
    pub base: F,
    /// `(literal index, relation)` overrides, earliest match first.
    pub overrides: &'s [(usize, &'a Relation)],
}

impl<'s, 'a, F> RelSource for OverlaySource<'s, 'a, F>
where
    F: Fn(Pred) -> Option<&'a Relation>,
{
    fn relation(&self, lit_index: usize, pred: Pred) -> Option<&Relation> {
        match self.overrides.iter().find(|(i, _)| *i == lit_index) {
            Some((_, rel)) => Some(rel),
            None => (self.base)(pred),
        }
    }
}

/// Result counters for one rule evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct FiringStats {
    /// Substitutions that reached the head (tuples produced, pre-dedup).
    pub produced: usize,
}

/// Evaluates `rule` with body literal order `order` (a permutation of
/// `0..body.len()`), starting from `seed` (bindings implied by the
/// pipeline, e.g. magic constants), probing through `plan`. Emits one
/// ground head tuple per solution via `emit`.
pub fn eval_rule_with(
    rule: &Rule,
    order: &[usize],
    seed: &Subst,
    source: &dyn RelSource,
    plan: AccessPlan<'_>,
    emit: &mut dyn FnMut(Tuple),
) -> Result<FiringStats> {
    debug_assert_eq!(order.len(), rule.body.len());
    let mut stats = FiringStats::default();
    solve(
        rule,
        order,
        0,
        0,
        seed.clone(),
        source,
        plan,
        emit,
        &mut stats,
    )?;
    Ok(stats)
}

/// One bound comparison eligible for folding into a range probe,
/// normalized so the probe variable sits on the left of `op`.
struct FoldedCmp {
    op: CmpOp,
    /// The evaluated ground side: always a `Const` scalar.
    val: Term,
    /// `1 << j` for its index `j` into the evaluation order.
    bit: u64,
}

/// Collects the contiguous run of bound `<,<=,>,>=` comparisons directly
/// after `order[k]` that constrain a single unbound top-level variable
/// of the instantiated atom `inst`. Returns the constrained argument
/// position and the normalized comparisons.
///
/// Stopping at the first non-consumable literal — a binding builtin, a
/// comparison on a second variable, a ground side that fails to reduce
/// to a scalar — keeps every residual literal at its original place in
/// the per-row evaluation, so error behavior matches scan-and-filter
/// exactly.
fn collect_foldable(
    body: &[Literal],
    order: &[usize],
    k: usize,
    subst: &Subst,
    inst: &[Term],
) -> Option<(usize, Vec<FoldedCmp>)> {
    let mut var: Option<Symbol> = None;
    let mut col = 0usize;
    let mut cmps = Vec::new();
    for (j, &pos) in order.iter().enumerate().skip(k + 1) {
        let b = match &body[pos] {
            Literal::Builtin(b) => b,
            _ => break,
        };
        if !matches!(b.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
            break;
        }
        let lhs = subst.apply(&b.lhs);
        let rhs = subst.apply(&b.rhs);
        let (v, op, ground) = match (&lhs, &rhs) {
            (Term::Var(v), g) if g.is_ground() => (*v, b.op, g),
            (g, Term::Var(v)) if g.is_ground() => (*v, b.op.flipped(), g),
            _ => break,
        };
        if var.is_some_and(|u| u != v) {
            break;
        }
        // The bound must reduce to a scalar here and now; an erroring or
        // structured ground side stays residual so it surfaces (or not)
        // per enumerated row, exactly as on a scan.
        let val = match eval_cmp_operand(ground) {
            Ok(t @ Term::Const(_)) => t,
            _ => break,
        };
        if var.is_none() {
            match inst
                .iter()
                .position(|t| matches!(t, Term::Var(u) if *u == v))
            {
                Some(p) => {
                    var = Some(v);
                    col = p;
                }
                None => break,
            }
        }
        cmps.push(FoldedCmp {
            op,
            val,
            bit: 1u64 << j,
        });
    }
    if cmps.is_empty() {
        None
    } else {
        Some((col, cmps))
    }
}

/// Replaces `cur` with `cand` when `cand` is the tighter *lower* bound
/// (strict beats inclusive at equal values). Only called with bounds of
/// one value class, where `Term`'s ordering agrees with the builtin
/// comparison semantics.
fn tighten_lo(cur: &mut Bound<Term>, cand: Bound<Term>) {
    let (cv, strict) = match &cand {
        Bound::Included(t) => (t, false),
        Bound::Excluded(t) => (t, true),
        Bound::Unbounded => return,
    };
    let replace = match &*cur {
        Bound::Unbounded => true,
        Bound::Included(t) => cv > t || (cv == t && strict),
        Bound::Excluded(t) => cv > t,
    };
    if replace {
        *cur = cand;
    }
}

/// Like [`tighten_lo`] for the *upper* bound.
fn tighten_hi(cur: &mut Bound<Term>, cand: Bound<Term>) {
    let (cv, strict) = match &cand {
        Bound::Included(t) => (t, false),
        Bound::Excluded(t) => (t, true),
        Bound::Unbounded => return,
    };
    let replace = match &*cur {
        Bound::Unbounded => true,
        Bound::Included(t) => cv < t || (cv == t && strict),
        Bound::Excluded(t) => cv < t,
    };
    if replace {
        *cur = cand;
    }
}

#[allow(clippy::too_many_arguments)]
fn solve(
    rule: &Rule,
    order: &[usize],
    k: usize,
    consumed: u64,
    subst: Subst,
    source: &dyn RelSource,
    plan: AccessPlan<'_>,
    emit: &mut dyn FnMut(Tuple),
    stats: &mut FiringStats,
) -> Result<()> {
    if k == order.len() {
        let head = subst.apply_atom(&rule.head);
        if !head.is_ground() {
            return Err(LdlError::Eval(format!(
                "non-ground head {head} produced by rule {rule}; the ordering is unsafe"
            )));
        }
        stats.produced += 1;
        emit(Tuple::new(head.args));
        return Ok(());
    }
    let li = order[k];
    match &rule.body[li] {
        Literal::Builtin(b) => {
            // A comparison folded into an upstream range probe already
            // held for every enumerated row: skip it.
            if consumed & (1u64 << k) != 0 {
                return solve(
                    rule,
                    order,
                    k + 1,
                    consumed,
                    subst,
                    source,
                    plan,
                    emit,
                    stats,
                );
            }
            if let Some(next) = eval_builtin(b, &subst)? {
                solve(
                    rule,
                    order,
                    k + 1,
                    consumed,
                    next,
                    source,
                    plan,
                    emit,
                    stats,
                )?;
            }
            Ok(())
        }
        Literal::Atom(a) if a.negated => {
            let ga = subst.apply_atom(a);
            if !ga.is_ground() {
                return Err(LdlError::Eval(format!(
                    "negated literal ~{} not ground at evaluation time",
                    ga
                )));
            }
            let present = source
                .relation(li, a.pred)
                .map(|r| r.contains(&Tuple::new(ga.args)))
                .unwrap_or(false);
            if !present {
                solve(
                    rule,
                    order,
                    k + 1,
                    consumed,
                    subst,
                    source,
                    plan,
                    emit,
                    stats,
                )?;
            }
            Ok(())
        }
        Literal::Atom(a) => {
            // member(X, S): the reserved set predicate — enumerates (or
            // tests) the elements of a bound set term.
            if a.pred == Pred::new("member", 2) {
                let set_term = subst.apply(&a.args[1]);
                if !set_term.is_ground() {
                    return Err(LdlError::Eval(format!(
                        "member/2 reached with unbound set argument in {a}"
                    )));
                }
                if let Some(items) = set_term.as_set() {
                    for item in items {
                        let mut s = subst.clone();
                        if s.unify(&a.args[0], item) {
                            solve(rule, order, k + 1, consumed, s, source, plan, emit, stats)?;
                        }
                    }
                }
                return Ok(()); // non-set ground term: no elements
            }
            let Some(rel) = source.relation(li, a.pred) else {
                return Ok(()); // empty relation: no solutions from here
            };
            // Ground argument positions (after substitution) become index
            // key columns; the rest unify per row.
            let inst: Vec<Term> = a.args.iter().map(|t| subst.apply(t)).collect();
            let mut key_cols = Vec::new();
            let mut key_vals = Vec::new();
            for (i, t) in inst.iter().enumerate() {
                if t.is_ground() {
                    key_cols.push(i);
                    key_vals.push(t.clone());
                }
            }
            let try_row = |row: &Tuple,
                           consumed: u64,
                           subst: &Subst,
                           source: &dyn RelSource,
                           emit: &mut dyn FnMut(Tuple),
                           stats: &mut FiringStats|
             -> Result<()> {
                let mut s = subst.clone();
                let ok = inst.iter().zip(&row.0).all(|(pat, val)| s.unify(pat, val));
                if ok {
                    solve(rule, order, k + 1, consumed, s, source, plan, emit, stats)?;
                }
                Ok(())
            };
            // Range fold (Selected only): bound comparisons directly
            // after this atom become an ordered range probe when the
            // catalog has an order with `key_cols` as prefix and the
            // constrained column next, and the column population is
            // homogeneous in the bounds' type (so no skipped row could
            // have errored — or survived — the residual filter). Checked
            // before the scan guard so empty-prefix ranges fold too.
            if let AccessPlan::Selected(cat) = plan {
                if order.len() <= 64 {
                    if let Some((col, cmps)) = collect_foldable(&rule.body, order, k, &subst, &inst)
                    {
                        if let Some(order_cols) = cat.lookup_range(a.pred, &key_cols, col) {
                            let oi = rel.ordered_index_on(order_cols);
                            let class = oi.col_class(key_cols.len());
                            let class_ok = |t: &Term| {
                                matches!(
                                    (class, t),
                                    (ColClass::Empty, _)
                                        | (ColClass::Ints, Term::Const(Value::Int(_)))
                                        | (ColClass::Syms, Term::Const(Value::Sym(_)))
                                )
                            };
                            // Only the class-matched prefix of the run
                            // folds; the rest stays residual, preserving
                            // per-row error order.
                            let n = cmps.iter().take_while(|c| class_ok(&c.val)).count();
                            if n > 0 {
                                let mut lo = Bound::Unbounded;
                                let mut hi = Bound::Unbounded;
                                let mut bits = 0u64;
                                for c in &cmps[..n] {
                                    match c.op {
                                        CmpOp::Gt => {
                                            tighten_lo(&mut lo, Bound::Excluded(c.val.clone()))
                                        }
                                        CmpOp::Ge => {
                                            tighten_lo(&mut lo, Bound::Included(c.val.clone()))
                                        }
                                        CmpOp::Lt => {
                                            tighten_hi(&mut hi, Bound::Excluded(c.val.clone()))
                                        }
                                        CmpOp::Le => {
                                            tighten_hi(&mut hi, Bound::Included(c.val.clone()))
                                        }
                                        _ => unreachable!(),
                                    }
                                    bits |= c.bit;
                                }
                                let key: Vec<Term> = order_cols[..key_cols.len()]
                                    .iter()
                                    .map(|c| {
                                        key_vals[key_cols.binary_search(c).expect("prefix column")]
                                            .clone()
                                    })
                                    .collect();
                                let rids = oi.probe_range_bounds(
                                    rel.rows(),
                                    &key,
                                    lo.as_ref(),
                                    hi.as_ref(),
                                );
                                note_rows_enumerated(rids.len() as u64);
                                for rid in rids {
                                    try_row(
                                        rel.row(rid),
                                        consumed | bits,
                                        &subst,
                                        source,
                                        emit,
                                        stats,
                                    )?;
                                }
                                return Ok(());
                            }
                        }
                    }
                }
            }
            let scan = key_cols.is_empty()
                || key_cols.len() == inst.len() && rel.len() <= 8
                || matches!(plan, AccessPlan::ForceScan);
            if scan {
                // Full scan (no usable key, trivial relation, or forced).
                note_rows_enumerated(rel.len() as u64);
                for row in rel.iter() {
                    try_row(row, consumed, &subst, source, emit, stats)?;
                }
            } else {
                // A catalog order serving `key_cols` as a prefix probes
                // the shared ordered index; a miss probes the order on
                // exactly `key_cols`, cached per relation version. Row
                // ids come back ascending either way, so the solution
                // stream is the scan's.
                let selected = match plan {
                    AccessPlan::Selected(cat) => cat.lookup(a.pred, &key_cols),
                    AccessPlan::ForceScan => None,
                };
                let order_cols = selected.unwrap_or(&key_cols);
                let oi = rel.ordered_index_on(order_cols);
                let key: Vec<Term> = order_cols[..key_cols.len()]
                    .iter()
                    .map(|c| key_vals[key_cols.binary_search(c).expect("prefix column")].clone())
                    .collect();
                let rids = oi.probe_prefix(rel.rows(), &key);
                note_rows_enumerated(rids.len() as u64);
                for rid in rids {
                    try_row(rel.row(rid), consumed, &subst, source, emit, stats)?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::{parse_program, parse_query};
    use ldl_storage::Database;
    use std::collections::HashMap;

    fn run(
        text: &str,
        rule_idx: usize,
        order: Vec<usize>,
        derived: &HashMap<Pred, Relation>,
    ) -> Vec<Tuple> {
        let src = parse_program(text).unwrap();
        let db = Database::from_program(&src);
        let rule = &src.rules[rule_idx];
        let source = OverlaySource {
            base: |p: Pred| derived.get(&p).or_else(|| db.relation(p)),
            overrides: &[],
        };
        let mut out = Vec::new();
        eval_rule_with(
            rule,
            &order,
            &Subst::new(),
            &source,
            AccessPlan::Selected(&IndexCatalog::default()),
            &mut |t| out.push(t),
        )
        .unwrap();
        out
    }

    #[test]
    fn single_join_produces_pairs() {
        let out = run(
            r#"
            e(1, 2). e(2, 3).
            p(X, Z) <- e(X, Y), e(Y, Z).
            "#,
            0,
            vec![0, 1],
            &HashMap::new(),
        );
        assert_eq!(out, vec![Tuple::ints(&[1, 3])]);
    }

    #[test]
    fn order_does_not_change_result() {
        let text = r#"
            a(1). a(2). a(3).
            b(2). b(3). b(4).
            both(X) <- a(X), b(X).
        "#;
        let fwd = run(text, 0, vec![0, 1], &HashMap::new());
        let mut rev = run(text, 0, vec![1, 0], &HashMap::new());
        rev.sort_by_key(|t| format!("{t}"));
        let mut fwd = fwd;
        fwd.sort_by_key(|t| format!("{t}"));
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 2);
    }

    #[test]
    fn builtins_execute_in_order() {
        let out = run(
            r#"
            n(1). n(2). n(3).
            big(X, Y) <- n(X), X > 1, Y = X * 10.
            "#,
            0,
            vec![0, 1, 2],
            &HashMap::new(),
        );
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Tuple::ints(&[2, 20])));
        assert!(out.contains(&Tuple::ints(&[3, 30])));
    }

    #[test]
    fn bad_order_is_runtime_error() {
        // Evaluating Y = X * 10 before n(X) is not EC.
        let src = parse_program(
            r#"
            n(1).
            big(X, Y) <- n(X), Y = X * 10.
            "#,
        )
        .unwrap();
        let db = Database::from_program(&src);
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let mut out = Vec::new();
        let r = eval_rule_with(
            &src.rules[0],
            &[1, 0],
            &Subst::new(),
            &source,
            AccessPlan::Selected(&IndexCatalog::default()),
            &mut |t| out.push(t),
        );
        assert!(r.is_err());
    }

    #[test]
    fn negation_filters() {
        let out = run(
            r#"
            node(1). node(2). node(3).
            broken(2).
            ok(X) <- node(X), ~broken(X).
            "#,
            0,
            vec![0, 1],
            &HashMap::new(),
        );
        assert_eq!(out.len(), 2);
        assert!(!out.contains(&Tuple::ints(&[2])));
    }

    #[test]
    fn complex_terms_unify_in_rules() {
        let out = run(
            r#"
            part(bike, wheel(front, 32)). part(bike, frame(steel)).
            spokes(B, N) <- part(B, wheel(P, N)).
            "#,
            0,
            vec![0],
            &HashMap::new(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(1), &Term::int(32));
    }

    #[test]
    fn overlay_replaces_one_occurrence() {
        let src = parse_program(
            r#"
            e(1, 2).
            p(X, Z) <- e(X, Y), e(Y, Z).
            "#,
        )
        .unwrap();
        let db = Database::from_program(&src);
        // Override the SECOND occurrence with {(2,9)}.
        let delta = Relation::from_tuples(2, [Tuple::ints(&[2, 9])]);
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[(1, &delta)],
        };
        let mut out = Vec::new();
        eval_rule_with(
            &src.rules[0],
            &[0, 1],
            &Subst::new(),
            &source,
            AccessPlan::Selected(&IndexCatalog::default()),
            &mut |t| out.push(t),
        )
        .unwrap();
        assert_eq!(out, vec![Tuple::ints(&[1, 9])]);
    }

    /// Overrides are per position and the first listed wins: a chunk
    /// listed ahead of a delta (or old state) at the same position
    /// shadows it, an override at another position is untouched, and a
    /// position nobody names falls through to the base lookup.
    #[test]
    fn override_precedence_is_chunk_over_delta_over_base() {
        let src = parse_program("e(1, 2).\np(X, Z) <- e(X, Y), e(Y, Z), e(Z, X).").unwrap();
        let db = Database::from_program(&src);
        let e = Pred::new("e", 2);
        let chunk = Relation::from_tuples(2, [Tuple::ints(&[7, 7])]);
        let delta = Relation::from_tuples(2, [Tuple::ints(&[8, 8])]);
        let old = Relation::from_tuples(2, [Tuple::ints(&[9, 9])]);
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[(0, &chunk), (0, &delta), (1, &old)],
        };
        assert_eq!(source.relation(0, e), Some(&chunk));
        assert_eq!(source.relation(1, e), Some(&old));
        assert_eq!(source.relation(2, e), db.relation(e));
        assert_eq!(source.relation(2, Pred::new("missing", 1)), None);
    }

    #[test]
    fn seed_binds_variables_like_a_pipeline() {
        let src = parse_program(
            r#"
            e(1, 2). e(2, 3).
            p(X, Y) <- e(X, Y).
            "#,
        )
        .unwrap();
        let db = Database::from_program(&src);
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let mut seed = Subst::new();
        seed.bind(ldl_core::Symbol::intern("X"), Term::int(2));
        let mut out = Vec::new();
        eval_rule_with(
            &src.rules[0],
            &[0],
            &seed,
            &source,
            AccessPlan::Selected(&IndexCatalog::default()),
            &mut |t| out.push(t),
        )
        .unwrap();
        assert_eq!(out, vec![Tuple::ints(&[2, 3])]);
    }

    #[test]
    fn query_constants_via_seed() {
        // Equivalent of answering p(1, Y)? by seeding X=1.
        let q = parse_query("p(1, Y)?").unwrap();
        assert_eq!(q.adornment().to_string(), "bf");
    }

    /// Evaluates rule 0 of `text` under the given plan (catalog built
    /// from the program itself for `Selected`), returning the emitted
    /// stream or the error.
    fn run_plan(text: &str, order: &[usize], selected: bool) -> Result<Vec<Tuple>> {
        let src = parse_program(text).unwrap();
        let db = Database::from_program(&src);
        let cat = IndexCatalog::build(&src);
        let plan = if selected {
            AccessPlan::Selected(&cat)
        } else {
            AccessPlan::ForceScan
        };
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let mut out = Vec::new();
        eval_rule_with(
            &src.rules[0],
            order,
            &Subst::new(),
            &source,
            plan,
            &mut |t| out.push(t),
        )?;
        Ok(out)
    }

    #[test]
    fn range_fold_is_bit_identical_to_scan() {
        use ldl_storage::IndexCounters;
        let text = "n(4). n(9). n(1). n(7). n(2). n(8). n(3). n(6). n(5).\n\
                    big(X) <- n(X), X > 2, X <= 7.";
        let before = IndexCounters::snapshot();
        let folded = run_plan(text, &[0, 1, 2], true).unwrap();
        let d = before.delta_since();
        assert!(d.range_probes >= 1, "fold must issue a range probe");
        let scanned = run_plan(text, &[0, 1, 2], false).unwrap();
        // Same tuples in the same emission order (insertion order of n).
        assert_eq!(folded, scanned);
        assert_eq!(folded.len(), 5); // 3..=7 in fact order: 4,7,3,6,5
        assert_eq!(folded[0], Tuple::ints(&[4]));
    }

    #[test]
    fn range_fold_with_equality_prefix() {
        let text = "m(1). m(2).\n\
                    f(1, 10). f(1, 20). f(2, 30). f(1, 15). f(2, 40).\n\
                    hit(K, V) <- m(K), f(K, V), V >= 15, V < 35.";
        let folded = run_plan(text, &[0, 1, 2, 3], true).unwrap();
        let scanned = run_plan(text, &[0, 1, 2, 3], false).unwrap();
        assert_eq!(folded, scanned);
        assert_eq!(folded.len(), 3); // (1,20), (1,15), (2,30)
    }

    #[test]
    fn empty_range_folds_to_nothing() {
        let text = "n(1). n(2). n(3).\nq(X) <- n(X), X > 5, X < 3.";
        let folded = run_plan(text, &[0, 1, 2], true).unwrap();
        let scanned = run_plan(text, &[0, 1, 2], false).unwrap();
        assert!(folded.is_empty());
        assert_eq!(folded, scanned);
    }

    #[test]
    fn mixed_type_column_never_folds_and_errors_like_a_scan() {
        // A symbol in an otherwise-integer column makes the class Other:
        // the fold must decline so the undefined comparison surfaces
        // exactly as a scan would surface it.
        let text = "n(1). n(tom).\nbig(X) <- n(X), X > 5.";
        let folded = run_plan(text, &[0, 1], true);
        let scanned = run_plan(text, &[0, 1], false);
        assert!(folded.is_err());
        assert!(scanned.is_err());
    }

    #[test]
    fn binding_builtin_stops_the_foldable_run() {
        // Only X > 2 folds; Y = X + 1 blocks the run and X < 9 stays a
        // residual filter. Answers still match the scan bit-for-bit.
        let text = "n(1). n(3). n(10). n(5).\n\
                    q(X, Y) <- n(X), X > 2, Y = X + 1, X < 9.";
        let folded = run_plan(text, &[0, 1, 2, 3], true).unwrap();
        let scanned = run_plan(text, &[0, 1, 2, 3], false).unwrap();
        assert_eq!(folded, scanned);
        assert_eq!(folded.len(), 2);
        assert!(folded.contains(&Tuple::ints(&[3, 4])));
        assert!(folded.contains(&Tuple::ints(&[5, 6])));
    }

    #[test]
    fn symbol_ranges_fold_lexicographically() {
        let text = "w(cherry). w(apple). w(fig). w(banana). w(date).\n\
                    mid(X) <- w(X), X >= banana, X < fig.";
        let folded = run_plan(text, &[0, 1, 2], true).unwrap();
        let scanned = run_plan(text, &[0, 1, 2], false).unwrap();
        assert_eq!(folded, scanned);
        assert_eq!(folded.len(), 3); // cherry, banana, date in fact order
    }
}
