//! Semi-naive (differential) fixpoint evaluation.
//!
//! The standard improvement over naive iteration: after initializing a
//! clique from its exit rules, each round fires every recursive rule once
//! per occurrence of a clique predicate, with that occurrence restricted
//! to the previous round's *delta*. A derivation is attempted only if it
//! uses at least one new tuple, so work per round is proportional to
//! growth instead of to the whole relation.

use crate::driver::{eval_program, Mode};
use crate::metrics::Metrics;
use crate::naive::FixpointConfig;
use ldl_core::{Pred, Program, Result};
use ldl_storage::{Database, Relation};
use std::collections::HashMap;

/// Evaluates every derived predicate of `program` semi-naively.
pub fn eval_program_seminaive(
    program: &Program,
    db: &Database,
    cfg: &FixpointConfig,
) -> Result<(HashMap<Pred, Relation>, Metrics)> {
    eval_program(program, db, cfg, Mode::SemiNaive)
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
