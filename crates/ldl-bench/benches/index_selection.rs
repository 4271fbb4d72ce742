//! Index selection before/after on the recursive workloads.
//!
//! Runs the full semi-naive evaluation of the benchmark workloads
//! (same-generation trees, transitive-closure chains) under the two
//! access-path policies — ordered indexes (selected, or built on demand
//! for a catalog miss) and forced scans — and records the timings to
//! `BENCH_index_selection.json`. Every label embeds a digest of the
//! complete result (relations in insertion order plus metrics), so any
//! divergence across policies is visible in the JSON and asserted here:
//! whatever the probes cost, the answers are bit-for-bit identical.
//!
//! The `indexes` labels record the selection itself — how many orders
//! the chain cover emits versus the number of distinct search
//! signatures — and the `work` labels record builds/probes counted by
//! `ldl_storage::relation::counters` during one evaluation.
//!
//! Knobs: `LDL_IDXSEL_SCALE=full` for the larger workloads,
//! `LDL_BENCH_ITERS`, `LDL_BENCH_JSON_DIR` as usual.

use ldl_bench::workload::{same_generation, transitive_closure_chains};
use ldl_core::{Pred, Program};
use ldl_eval::seminaive::eval_program_seminaive;
use ldl_eval::{AccessPaths, FixpointConfig};
use ldl_index::IndexCatalog;
use ldl_storage::{Database, IndexCounters};
use ldl_support::bench::Harness;

/// FNV-1a over the evaluation result: relations (predicates sorted for
/// a canonical traversal, rows in insertion order) and metrics.
fn digest(program: &Program, db: &Database, cfg: &FixpointConfig) -> u64 {
    let (derived, metrics) = eval_program_seminaive(program, db, cfg).unwrap();
    let mut preds: Vec<Pred> = derived.keys().copied().collect();
    preds.sort_by_key(|p| (p.to_string(), p.arity));
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for p in preds {
        eat(&format!("{p}:"));
        for row in derived[&p].rows() {
            eat(&format!("{row};"));
        }
    }
    eat(&format!("{metrics}"));
    h
}

fn policy_name(paths: AccessPaths) -> &'static str {
    match paths {
        AccessPaths::Selected => "selected",
        AccessPaths::ForceScan => "scan",
    }
}

fn main() {
    let full = std::env::var("LDL_IDXSEL_SCALE").as_deref() == Ok("full");
    let (tc_len, tc_comps, sg_depth) = if full { (160, 10, 10) } else { (64, 6, 8) };

    let mut h = Harness::new("index_selection");
    h.set_iters(1, 5);

    let workloads = [
        (
            format!("tc/{tc_comps}x{tc_len}"),
            transitive_closure_chains(tc_len, tc_comps).0,
        ),
        (format!("sg/2^{sg_depth}"), same_generation(2, sg_depth).0),
    ];
    for (name, program) in &workloads {
        let db = Database::from_program(program);
        // Record the selection itself: orders vs raw signatures.
        let catalog = IndexCatalog::build(program);
        h.bench(
            name,
            &format!(
                "indexes orders={} signatures={}",
                catalog.total_orders(),
                catalog.total_signatures()
            ),
            || catalog.total_orders(),
        );

        let mut digests: Vec<(&'static str, u64)> = Vec::new();
        for paths in [AccessPaths::Selected, AccessPaths::ForceScan] {
            let cfg = FixpointConfig::serial().with_access_paths(paths);
            let d = digest(program, &db, &cfg);
            digests.push((policy_name(paths), d));
            // One counted evaluation: builds + probes under this policy.
            let before = IndexCounters::snapshot();
            eval_program_seminaive(program, &db, &cfg).unwrap();
            let w = before.delta_since();
            h.bench(
                name,
                &format!(
                    "work paths={} obuild={} oprobe={}",
                    policy_name(paths),
                    w.ordered_builds,
                    w.ordered_probes
                ),
                IndexCounters::snapshot,
            );
            h.bench(
                name,
                &format!("paths={} digest={d:016x}", policy_name(paths)),
                || eval_program_seminaive(program, &db, &cfg).unwrap(),
            );
        }
        let reference = digests[0].1;
        for (which, d) in &digests {
            assert_eq!(
                *d, reference,
                "{name}: digest under {which} differs from selected"
            );
        }
    }
    h.finish();
}
