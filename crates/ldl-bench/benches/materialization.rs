//! Bench for the `MP` dimension: the pipelined executor (index nested
//! loops with sideways information passing) vs the materialized
//! executor (full intermediate relations) on the same rule bodies,
//! selective and non-selective.
//!
//! Run: `cargo bench -p ldl-bench --bench materialization`

use ldl_core::parser::parse_program;
use ldl_core::unify::Subst;
use ldl_core::{Pred, Program};
use ldl_eval::materialized::eval_rule_materialized;
use ldl_eval::ops::JoinMethod;
use ldl_eval::rule_eval::{eval_rule_with, AccessPlan, OverlaySource};
use ldl_storage::{Database, Relation};
use ldl_support::bench::Harness;
use std::fmt::Write as _;

fn chain_program(n_edges: usize) -> Program {
    let mut text = String::new();
    for i in 0..n_edges {
        writeln!(text, "e({}, {}).", i, i + 1).unwrap();
        writeln!(text, "f({}, {}).", i + 1, i + 2).unwrap();
    }
    // Selective: the constant pins the pipeline's start.
    writeln!(text, "sel(Z) <- e(0, Y), f(Y, Z).").unwrap();
    // Non-selective: full join.
    writeln!(text, "all(X, Z) <- e(X, Y), f(Y, Z).").unwrap();
    parse_program(&text).unwrap()
}

fn main() {
    let mut h = Harness::new("materialization");
    h.set_iters(2, 10);
    for n in [1000usize, 5000] {
        let program = chain_program(n);
        let db = Database::from_program(&program);
        for (label, rule_idx) in [("selective", 0usize), ("full-join", 1usize)] {
            let rule = program.rules[rule_idx].clone();
            let order: Vec<usize> = (0..rule.body.len()).collect();
            h.bench(
                "pipeline-vs-materialize",
                &format!("pipelined-{label}/{n}"),
                || {
                    let source = OverlaySource {
                        base: |p: Pred| db.relation(p),
                        overrides: &[],
                    };
                    let mut out = Relation::new(rule.head.args.len());
                    let plan = AccessPlan::HashOnDemand;
                    eval_rule_with(&rule, &order, &Subst::new(), &source, plan, &mut |t| {
                        out.insert(t);
                    })
                    .unwrap();
                    out
                },
            );
            h.bench(
                "pipeline-vs-materialize",
                &format!("materialized-{label}/{n}"),
                || {
                    let source = OverlaySource {
                        base: |p: Pred| db.relation(p),
                        overrides: &[],
                    };
                    eval_rule_materialized(&rule, &order, JoinMethod::Hash, &source, false).unwrap()
                },
            );
        }
    }
    h.finish();
}
