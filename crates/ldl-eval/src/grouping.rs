//! Set grouping (`<X>` heads) and the `member/2` set predicate.
//!
//! §1 of the paper lists LDL's "set operators and predicates [TZ 86,
//! BN 87]" among the constructs its compilation handles. The grouping
//! construct `p(K, <V>) <- body` collects, per binding of the plain head
//! arguments, all values of the grouped term into one set term; it is
//! stratified like negation (the dependency graph marks grouping-rule
//! edges negative), so a predicate can never collect a set of itself.
//! `member(X, S)` enumerates or tests elements of a bound set.

use crate::rule_eval::{eval_rule_with, AccessPlan, FiringStats, RelSource};
use ldl_core::unify::Subst;
use ldl_core::{Atom, Result, Rule, Span, Term};
use ldl_storage::Tuple;
use std::collections::{BTreeMap, BTreeSet};

/// Does the rule's head contain a grouping marker?
pub fn has_grouping(rule: &Rule) -> bool {
    rule.head.args.iter().any(|a| a.as_group().is_some())
}

/// Evaluates a grouping rule: the body runs like any conjunct (same
/// executor, same order), and the solutions are grouped by the plain
/// head arguments, every grouped position collecting its values into a
/// set term. Keys with no solutions produce no tuple (no empty sets —
/// LDL's grouping is over a non-empty extension).
pub fn eval_grouping_rule_with(
    rule: &Rule,
    order: &[usize],
    source: &dyn RelSource,
    plan: AccessPlan<'_>,
) -> Result<(Vec<Tuple>, FiringStats)> {
    debug_assert!(has_grouping(rule));
    // Inner rule: grouping markers unwrapped, head otherwise unchanged.
    let inner_args: Vec<Term> = rule
        .head
        .args
        .iter()
        .map(|a| a.as_group().cloned().unwrap_or_else(|| a.clone()))
        .collect();
    let inner_head = Atom {
        pred: rule.head.pred,
        args: inner_args,
        negated: false,
        span: Span::NONE,
    };
    let inner = Rule::new(inner_head, rule.body.clone());

    let group_positions: Vec<usize> = rule
        .head
        .args
        .iter()
        .enumerate()
        .filter(|(_, a)| a.as_group().is_some())
        .map(|(i, _)| i)
        .collect();
    let key_positions: Vec<usize> = (0..rule.head.args.len())
        .filter(|i| !group_positions.contains(i))
        .collect();

    let mut rows: Vec<Tuple> = Vec::new();
    let stats = eval_rule_with(&inner, order, &Subst::new(), source, plan, &mut |t| {
        rows.push(t)
    })?;

    // Group. Keys are kept sorted so the output tuple order is a
    // function of the solution set alone — not of a hash seed — keeping
    // grouping rounds deterministic like every other firing.
    let mut groups: BTreeMap<Vec<Term>, Vec<BTreeSet<Term>>> = BTreeMap::new();
    for row in rows {
        let key: Vec<Term> = key_positions.iter().map(|&i| row.get(i).clone()).collect();
        let entry = groups
            .entry(key)
            .or_insert_with(|| vec![BTreeSet::new(); group_positions.len()]);
        for (gi, &pos) in group_positions.iter().enumerate() {
            entry[gi].insert(row.get(pos).clone());
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    debug_assert!(
        groups.keys().zip(groups.keys().skip(1)).all(|(a, b)| a < b),
        "group keys must emit in strictly ascending order"
    );
    for (key, sets) in groups {
        let mut args = vec![Term::int(0); rule.head.args.len()];
        for (ki, &pos) in key_positions.iter().enumerate() {
            args[pos] = key[ki].clone();
        }
        for (gi, &pos) in group_positions.iter().enumerate() {
            args[pos] = Term::set(sets[gi].iter().cloned().collect());
        }
        out.push(Tuple::new(args));
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule_eval::OverlaySource;
    use ldl_core::parser::parse_program;
    use ldl_core::Pred;
    use ldl_index::IndexCatalog;
    use ldl_storage::Database;

    fn run_grouping(text: &str, rule_idx: usize) -> Vec<Tuple> {
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let rule = &program.rules[rule_idx];
        let order: Vec<usize> = (0..rule.body.len()).collect();
        let empty = IndexCatalog::default();
        let source = OverlaySource {
            base: |p: Pred| db.relation(p),
            overrides: &[],
        };
        let (mut out, _) =
            eval_grouping_rule_with(rule, &order, &source, AccessPlan::Selected(&empty)).unwrap();
        out.sort_by_key(|t| t.to_string());
        out
    }

    #[test]
    fn groups_values_per_key() {
        let out = run_grouping(
            r#"
            contains(bike, wheel). contains(bike, frame).
            contains(car, wheel). contains(car, engine).
            parts(A, <P>) <- contains(A, P).
            "#,
            0,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to_string(), "(bike, {frame, wheel})");
        assert_eq!(out[1].to_string(), "(car, {engine, wheel})");
    }

    #[test]
    fn grouping_deduplicates() {
        let out = run_grouping(
            r#"
            e(a, 1). e(a, 1). e(a, 2).
            vals(K, <V>) <- e(K, V).
            "#,
            0,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(1).as_set().unwrap().len(), 2);
    }

    #[test]
    fn all_grouped_no_key() {
        let out = run_grouping(
            r#"
            n(3). n(1). n(2).
            allnums(<X>) <- n(X).
            "#,
            0,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_string(), "({1, 2, 3})");
    }

    #[test]
    fn no_solutions_no_tuples() {
        let out = run_grouping("vals(K, <V>) <- missing(K, V).", 0);
        assert!(out.is_empty(), "no empty sets");
    }

    #[test]
    fn multiple_group_positions() {
        let out = run_grouping(
            r#"
            t(k, 1, a). t(k, 2, b). t(k, 1, b).
            agg(K, <N>, <S>) <- t(K, N, S).
            "#,
            0,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_string(), "(k, {1, 2}, {a, b})");
    }
}
