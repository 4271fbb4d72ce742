//! Acceptance test for end-to-end range probes.
//!
//! Counter deltas are read through [`IndexCounters::scoped`], which
//! tracks only the work of the enclosed evaluation (workers re-enter
//! the caller's scope), so this test coexists with any other test in
//! the same process.
//!
//! Checks, on the P3 selective-range workload:
//!
//! 1. `Selected` mode issues at least one ordered range probe and
//!    enumerates *strictly fewer* rows than `ForceScan` pays for the
//!    same answers;
//! 2. answers and [`ldl_eval::Metrics`] are bit-for-bit identical
//!    across both access-path policies at 1 and 4 worker threads;
//! 3. the magic-rewritten bound query folds too, with the answers of a
//!    forced scan.

use ldl_bench::workload::range_scan;
use ldl_core::parser::parse_query;
use ldl_eval::seminaive::eval_program_seminaive;
use ldl_eval::{evaluate_query, AccessPaths, FixpointConfig, Method};
use ldl_storage::{Database, IndexCounters};

fn serial(paths: AccessPaths) -> FixpointConfig {
    FixpointConfig::serial().with_access_paths(paths)
}

#[test]
fn range_probes_acceptance() {
    let program = range_scan(8, 200);
    let db = Database::from_program(&program);

    // --- 1. Range probes fire, and they enumerate fewer rows. ---
    let ((sel_rel, sel_m), sel_work) = IndexCounters::scoped(|| {
        eval_program_seminaive(&program, &db, &serial(AccessPaths::Selected)).unwrap()
    });
    assert!(
        sel_work.range_probes >= 1,
        "selected mode must issue range probes: {sel_work:?}"
    );
    let ((scan_rel, scan_m), scan_work) = IndexCounters::scoped(|| {
        eval_program_seminaive(&program, &db, &serial(AccessPaths::ForceScan)).unwrap()
    });
    assert_eq!(scan_work.range_probes, 0, "scans never range-probe");
    assert!(
        sel_work.rows_enumerated < scan_work.rows_enumerated,
        "range probes must enumerate strictly fewer rows: selected {} vs scan {}",
        sel_work.rows_enumerated,
        scan_work.rows_enumerated
    );

    // --- 2. Bit-identical answers and Metrics, all policies × threads. ---
    assert_eq!(sel_m, scan_m, "metrics diverge across access modes");
    for (pred, rel) in &scan_rel {
        assert_eq!(
            sel_rel[pred].rows(),
            rel.rows(),
            "{pred}: rows diverge across modes"
        );
    }
    for paths in [AccessPaths::Selected, AccessPaths::ForceScan] {
        for threads in [1, 4] {
            let cfg = FixpointConfig::default()
                .with_threads(threads)
                .with_access_paths(paths);
            let (rel, m) = eval_program_seminaive(&program, &db, &cfg).unwrap();
            assert_eq!(m, scan_m, "{paths:?} metrics diverge at {threads} threads");
            for (pred, r) in &scan_rel {
                assert_eq!(
                    rel[pred].rows(),
                    r.rows(),
                    "{paths:?}/{pred}: rows diverge at {threads} threads"
                );
            }
        }
    }

    // --- 3. Magic engine: the rewritten bound query still folds. ---
    let query = parse_query("hit(0, V)?").unwrap();
    let reference = evaluate_query(
        &program,
        &db,
        &query,
        Method::Magic,
        &serial(AccessPaths::ForceScan),
    )
    .unwrap();
    assert!(!reference.tuples.is_empty());
    let (got, magic_work) = IndexCounters::scoped(|| {
        let selected = serial(AccessPaths::Selected);
        evaluate_query(&program, &db, &query, Method::Magic, &selected).unwrap()
    });
    assert_eq!(
        got.tuples.rows(),
        reference.tuples.rows(),
        "answers diverge under Selected"
    );
    assert_eq!(
        got.metrics, reference.metrics,
        "metrics diverge under Selected"
    );
    assert!(
        magic_work.range_probes >= 1,
        "magic + Selected must range-probe the rewritten rule: {magic_work:?}"
    );
}
