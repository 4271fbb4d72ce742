//! Range probes before/after on the selective-range workload.
//!
//! Runs the full semi-naive evaluation of the P3 workload — an
//! equality-prefix range rule and an empty-prefix range rule over a
//! `groups × per_group` table — under both access-path policies and
//! records timings to `BENCH_range_probes.json`. Every label embeds
//! a digest of the complete result (relations in insertion order plus
//! metrics), so any divergence across policies is visible in the JSON
//! and asserted here: whatever the probes cost, the answers are
//! bit-for-bit identical.
//!
//! The `work` labels record range probes and enumerated rows counted by
//! `ldl_storage::relation::counters` during one evaluation — the
//! selected policy's row count is the range-probe win.
//!
//! Knobs: `LDL_RANGE_SCALE=full` for the larger workload,
//! `LDL_BENCH_ITERS`, `LDL_BENCH_JSON_DIR` as usual.

use ldl_bench::workload::range_scan;
use ldl_core::{Pred, Program};
use ldl_eval::seminaive::eval_program_seminaive;
use ldl_eval::{AccessPaths, FixpointConfig};
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
    let full = std::env::var("LDL_RANGE_SCALE").as_deref() == Ok("full");
    let (groups, per_group) = if full { (16, 2000) } else { (8, 400) };

    let mut h = Harness::new("range_probes");
    h.set_iters(1, 5);

    let name = format!("range/{groups}x{per_group}");
    let program = range_scan(groups, per_group);
    let db = Database::from_program(&program);

    let mut digests: Vec<(&'static str, u64)> = Vec::new();
    let mut rows: Vec<(&'static str, u64)> = Vec::new();
    for paths in [AccessPaths::Selected, AccessPaths::ForceScan] {
        let cfg = FixpointConfig::serial().with_access_paths(paths);
        let d = digest(&program, &db, &cfg);
        digests.push((policy_name(paths), d));
        // One counted evaluation: range probes + enumerated rows.
        let before = IndexCounters::snapshot();
        eval_program_seminaive(&program, &db, &cfg).unwrap();
        let w = before.delta_since();
        rows.push((policy_name(paths), w.rows_enumerated));
        h.bench(
            &name,
            &format!(
                "work paths={} rprobe={} rows={} oprobe={}",
                policy_name(paths),
                w.range_probes,
                w.rows_enumerated,
                w.ordered_probes
            ),
            IndexCounters::snapshot,
        );
        h.bench(
            &name,
            &format!("paths={} digest={d:016x}", policy_name(paths)),
            || eval_program_seminaive(&program, &db, &cfg).unwrap(),
        );
    }
    let reference = digests[0].1;
    for (which, d) in &digests {
        assert_eq!(
            *d, reference,
            "{name}: digest under {which} differs from selected"
        );
    }
    let selected_rows = rows[0].1;
    let scan_rows = rows[1].1;
    assert!(
        selected_rows < scan_rows,
        "{name}: range probes must enumerate fewer rows \
         (selected {selected_rows} vs scan {scan_rows})"
    );
    h.finish();
}
