//! Semi-naive (differential) fixpoint evaluation.
//!
//! The standard improvement over naive iteration: after initializing a
//! clique from its exit rules, each round fires every recursive rule once
//! per occurrence of a clique predicate, with that occurrence restricted
//! to the previous round's *delta*. A derivation is attempted only if it
//! uses at least one new tuple, so work per round is proportional to
//! growth instead of to the whole relation.

use crate::metrics::Metrics;
use crate::naive::{evaluation_groups, FixpointConfig};
use crate::parallel::{run_round, Firing};
use ldl_core::depgraph::DependencyGraph;
use ldl_core::{LdlError, Pred, Program, Result};
use ldl_storage::{Database, Relation};
use std::collections::HashMap;

/// Evaluates every derived predicate of `program` semi-naively.
pub fn eval_program_seminaive(
    program: &Program,
    db: &Database,
    cfg: &FixpointConfig,
) -> Result<(HashMap<Pred, Relation>, Metrics)> {
    let graph = DependencyGraph::build(program);
    graph.check_stratified()?;
    // Seed derived relations with any facts asserted for them (see the
    // matching comment in `naive`); those facts also enter the first delta.
    let mut derived: HashMap<Pred, Relation> = program
        .derived_preds()
        .into_iter()
        .map(|p| {
            let rel = db
                .relation(p)
                .cloned()
                .unwrap_or_else(|| Relation::new(p.arity));
            (p, rel)
        })
        .collect();
    let mut metrics = Metrics::default();
    // One chain-cover solve per evaluation; every round borrows it.
    let catalog = cfg.catalog(program);

    for group in evaluation_groups(&graph) {
        let in_group = |p: Pred| group.contains(&p);
        let recursive = group.iter().any(|&p| graph.is_recursive(p));
        let group_rules: Vec<usize> = program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| in_group(r.head.pred))
            .map(|(i, _)| i)
            .collect();

        if !recursive {
            // Single pass; bodies only reference completed strata, so
            // the group's rules are independent and run as one round.
            let (out, round_metrics) = {
                let firings: Vec<Firing> = group_rules
                    .iter()
                    .map(|&ri| Firing {
                        rule_index: ri,
                        overlay: None,
                    })
                    .collect();
                let base = |p: Pred| derived.get(&p).or_else(|| db.relation(p));
                run_round(program, &firings, &base, cfg.threads, cfg.plan(&catalog))?
            };
            metrics.absorb(round_metrics);
            for (p, t) in out {
                if derived.get_mut(&p).expect("relation").insert(t) {
                    metrics.tuples_derived += 1;
                }
            }
            metrics.iterations += 1;
            continue;
        }

        // Split into exit rules (no clique atom in body) and recursive ones.
        for &ri in &group_rules {
            if crate::grouping::has_grouping(&program.rules[ri]) {
                return Err(LdlError::Eval(format!(
                    "grouping head {} inside a recursive clique is not stratifiable",
                    program.rules[ri].head
                )));
            }
        }
        let (exit, rec): (Vec<usize>, Vec<usize>) = group_rules
            .iter()
            .partition(|&&ri| !program.rules[ri].body_atoms().any(|a| in_group(a.pred)));

        // Round 0: asserted facts for the clique's predicates plus the
        // exit rules, both evaluated against completed strata.
        let mut delta: HashMap<Pred, Relation> =
            group.iter().map(|&p| (p, derived[&p].clone())).collect();
        let (out, round_metrics) = {
            let firings: Vec<Firing> = exit
                .iter()
                .map(|&ri| Firing {
                    rule_index: ri,
                    overlay: None,
                })
                .collect();
            let base = |p: Pred| derived.get(&p).or_else(|| db.relation(p));
            run_round(program, &firings, &base, cfg.threads, cfg.plan(&catalog))?
        };
        metrics.absorb(round_metrics);
        for (p, t) in out {
            if derived.get_mut(&p).expect("relation").insert(t.clone()) {
                metrics.tuples_derived += 1;
                delta.get_mut(&p).expect("delta relation").insert(t);
            }
        }
        metrics.iterations += 1;

        // Differential rounds.
        let mut iters = 0usize;
        while delta.values().any(|r| !r.is_empty()) {
            iters += 1;
            if iters > cfg.max_iterations {
                return Err(LdlError::Eval(format!(
                    "semi-naive fixpoint for {:?} exceeded {} iterations (divergent / unsafe)",
                    group.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
                    cfg.max_iterations
                )));
            }
            metrics.iterations += 1;
            // One firing per clique-predicate occurrence of each
            // recursive rule, that occurrence reading the delta. The
            // firings are independent (they read the frozen `derived` +
            // `delta` state), so the round fans out over workers and
            // merges in (rule, occurrence) order — the serial order.
            let (produced, round_metrics) = {
                let mut firings: Vec<Firing> = Vec::new();
                for &ri in &rec {
                    let rule = &program.rules[ri];
                    for (j, l) in rule.body.iter().enumerate() {
                        let delta_occ = l
                            .as_atom()
                            .filter(|a| !a.negated && in_group(a.pred))
                            .map(|a| &delta[&a.pred]);
                        match delta_occ {
                            Some(drel) if !drel.is_empty() => {
                                firings.push(Firing {
                                    rule_index: ri,
                                    overlay: Some((j, drel)),
                                });
                            }
                            _ => {}
                        }
                    }
                }
                let base = |p: Pred| derived.get(&p).or_else(|| db.relation(p));
                run_round(program, &firings, &base, cfg.threads, cfg.plan(&catalog))?
            };
            metrics.absorb(round_metrics);
            let mut next_delta: HashMap<Pred, Relation> =
                group.iter().map(|&p| (p, Relation::new(p.arity))).collect();
            for (p, t) in produced {
                if derived.get_mut(&p).expect("relation").insert(t.clone()) {
                    metrics.tuples_derived += 1;
                    next_delta.get_mut(&p).expect("delta").insert(t);
                }
            }
            delta = next_delta;
        }
    }
    Ok((derived, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::eval_program_naive;
    use ldl_core::parser::parse_program;

    fn both(
        text: &str,
    ) -> (
        HashMap<Pred, Relation>,
        HashMap<Pred, Relation>,
        Metrics,
        Metrics,
    ) {
        let p = parse_program(text).unwrap();
        let db = Database::from_program(&p);
        let (n, nm) = eval_program_naive(&p, &db, &FixpointConfig::default()).unwrap();
        let (s, sm) = eval_program_seminaive(&p, &db, &FixpointConfig::default()).unwrap();
        (n, s, nm, sm)
    }

    #[test]
    fn agrees_with_naive_on_tc() {
        let (n, s, nm, sm) = both(
            r#"
            e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(2, 5).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- tc(X, Z), e(Z, Y).
            "#,
        );
        let p = Pred::new("tc", 2);
        assert_eq!(n[&p], s[&p]);
        // Semi-naive must not produce more raw tuples than naive.
        assert!(sm.tuples_produced <= nm.tuples_produced, "{sm} vs {nm}");
    }

    #[test]
    fn agrees_on_same_generation() {
        let (n, s, _, _) = both(
            r#"
            up(1, 10). up(2, 10). up(10, 100). up(20, 100).
            flat(100, 100). flat(10, 20).
            dn(100, 10). dn(100, 20). dn(10, 1). dn(20, 3).
            sg(X, Y) <- flat(X, Y).
            sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
            "#,
        );
        let p = Pred::new("sg", 2);
        assert_eq!(n[&p], s[&p]);
    }

    #[test]
    fn agrees_on_mutual_recursion() {
        let (n, s, _, _) = both(
            r#"
            zero(0).
            succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4). succ(4, 5).
            even(X) <- zero(X).
            even(X) <- succ(Y, X), odd(Y).
            odd(X) <- succ(Y, X), even(Y).
            "#,
        );
        assert_eq!(n[&Pred::new("even", 1)], s[&Pred::new("even", 1)]);
        assert_eq!(n[&Pred::new("odd", 1)], s[&Pred::new("odd", 1)]);
    }

    #[test]
    fn agrees_on_nonlinear_tc() {
        let (n, s, _, _) = both(
            r#"
            e(1, 2). e(2, 3). e(3, 4). e(4, 1).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- tc(X, Z), tc(Z, Y).
            "#,
        );
        let p = Pred::new("tc", 2);
        assert_eq!(n[&p], s[&p]);
        assert_eq!(s[&p].len(), 16); // full cycle: all pairs
    }

    #[test]
    fn seminaive_does_less_work_on_chains() {
        let mut text = String::new();
        for i in 0..60 {
            text.push_str(&format!("e({}, {}).\n", i, i + 1));
        }
        text.push_str("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- tc(X, Z), e(Z, Y).\n");
        let (_, _, nm, sm) = both(&text);
        assert!(
            sm.tuples_produced < nm.tuples_produced / 2,
            "expected big win: semi {} vs naive {}",
            sm.tuples_produced,
            nm.tuples_produced
        );
    }

    #[test]
    fn unbound_head_var_is_a_runtime_error_in_both() {
        // helper([H|T],N) <- helper(T,M), ... evaluated bottom-up leaves H
        // unbound: both methods must report the unsafe execution rather
        // than emit garbage. (The optimizer catches this at compile time;
        // see ldl-optimizer::safety.)
        let text = r#"
            seed([]).
            helper(L, 0) <- seed(L).
            helper(W, N) <- W = [H | T], helper(T, M), N = M + 1.
        "#;
        // That variant is unsafe too (W,H unbound at W = [H|T]).
        let p = parse_program(text).unwrap();
        let db = Database::from_program(&p);
        assert!(eval_program_naive(&p, &db, &FixpointConfig::default()).is_err());
        assert!(eval_program_seminaive(&p, &db, &FixpointConfig::default()).is_err());
    }

    #[test]
    fn empty_delta_terminates_immediately() {
        let (_, s, _, sm) = both("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- tc(X, Z), e(Z, Y).");
        assert!(s[&Pred::new("tc", 2)].is_empty());
        assert!(sm.iterations <= 2);
    }
}
