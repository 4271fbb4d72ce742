//! Acceptance test for the automatic index-selection subsystem.
//!
//! Counter deltas are read through [`IndexCounters::scoped`], which
//! tracks only the work of the enclosed evaluation (workers re-enter
//! the caller's scope), so this test coexists with any other test in
//! the same process.
//!
//! Checks, on the recursive benchmark workloads (A2 same-generation,
//! E5-style transitive closure) and a nested-signature program:
//!
//! 1. the chain-cover selection emits *fewer* indexes than the ad-hoc
//!    per-signature count whenever signatures nest, and never more;
//! 2. selected mode builds one ordered index per (relation version,
//!    selected order) — strictly fewer builds than a catalog without
//!    the cover pays for the same probes, one on-demand order per
//!    signature, when signatures share a chain;
//! 3. answers and [`Metrics`] are bit-for-bit identical across both
//!    access-path policies, through the raw fixpoint and through the
//!    engine's magic rewriting;
//! 4. a probe the catalog misses builds one order per relation version
//!    and serves every later probe of that version from it.

use ldl_bench::workload::{same_generation, transitive_closure_chains};
use ldl_core::parser::{parse_program, parse_query};
use ldl_core::Pred;
use ldl_eval::seminaive::eval_program_seminaive;
use ldl_eval::{evaluate_query, AccessPaths, FixpointConfig, Method};
use ldl_index::{IndexCatalog, SignatureMap};
use ldl_storage::{Database, IndexCounters};
use std::sync::Arc;

fn fixpoint_cfg(paths: AccessPaths) -> FixpointConfig {
    FixpointConfig::serial().with_access_paths(paths)
}

/// `Selected` with a catalog that selects no order for `pred`, so every
/// probe of `pred` misses and builds an order on its bound columns.
fn no_orders_for(pred: Pred) -> FixpointConfig {
    let map = SignatureMap::from([(pred, Default::default())]);
    let catalog = IndexCatalog::from_signatures(&map);
    assert!(catalog.orders(pred).is_empty());
    fixpoint_cfg(AccessPaths::Selected).with_index_catalog(Arc::new(catalog))
}

#[test]
fn index_selection_acceptance() {
    // --- 1. Chain-cover minimality on a nested-signature program. ---
    // p is probed on {0} (first rule) and on {0,1} (second rule): two
    // signatures, one chain, ONE selected order [0, 1].
    let mut nested = String::new();
    for i in 0..12i64 {
        nested.push_str(&format!("a({i}).\nb({i}).\n"));
        nested.push_str(&format!("p({i}, {}).\np({i}, {}).\n", i + 1, i + 2));
    }
    nested.push_str("q1(X, Z) <- a(X), p(X, Z).\nq2(X, Y) <- a(X), b(Y), p(X, Y).\n");
    let nested_prog = parse_program(&nested).unwrap();
    let catalog = IndexCatalog::build(&nested_prog);
    let p = Pred::new("p", 2);
    assert_eq!(
        catalog.orders(p),
        &[vec![0, 1]],
        "one lex order serves both signatures"
    );
    assert!(
        catalog.total_orders() < catalog.total_signatures(),
        "selection ({}) must beat per-signature indexing ({})",
        catalog.total_orders(),
        catalog.total_signatures()
    );

    // --- 2. Build counts: the chain cover shares one order, a catalog
    //        without it builds one per signature. ---
    // Each run gets its own database: cached orders live on the
    // relations, and the miss run's order on {0, 1} is the cover's.
    let ((miss_rel, miss_m), miss_work) = IndexCounters::scoped(|| {
        let db = Database::from_program(&nested_prog);
        eval_program_seminaive(&nested_prog, &db, &no_orders_for(p)).unwrap()
    });
    let ((sel_rel, sel_m), sel_work) = IndexCounters::scoped(|| {
        let db = Database::from_program(&nested_prog);
        eval_program_seminaive(&nested_prog, &db, &fixpoint_cfg(AccessPaths::Selected)).unwrap()
    });
    assert_eq!(sel_rel.len(), miss_rel.len());
    for (pred, rel) in &miss_rel {
        assert_eq!(
            sel_rel[pred].rows(),
            rel.rows(),
            "{pred}: rows diverge across catalogs"
        );
    }
    assert_eq!(sel_m, miss_m, "metrics diverge across catalogs");
    assert_eq!(
        sel_work.ordered_builds, 1,
        "both signatures must share one ordered build, got {sel_work:?}"
    );
    assert_eq!(
        miss_work.ordered_builds, 2,
        "without the cover each key set builds its own order, got {miss_work:?}"
    );
    assert_eq!(sel_work.ordered_probes, miss_work.ordered_probes);
    assert!(
        sel_work.ordered_probes > 0,
        "selected mode must actually probe: {sel_work:?}"
    );

    // --- 3. Recursive workloads: distinct builds per relation version,
    //        identical answers and metrics across both policies. ---
    let (sg, _) = same_generation(2, 8);
    let (tc, _) = transitive_closure_chains(64, 4);
    for (program, what) in [(&sg, "sg"), (&tc, "tc")] {
        let db = Database::from_program(program);
        let ((ref_rel, ref_m), sel_work) = IndexCounters::scoped(|| {
            eval_program_seminaive(program, &db, &fixpoint_cfg(AccessPaths::Selected)).unwrap()
        });
        assert!(
            sel_work.ordered_builds > 0,
            "{what}: no ordered builds: {sel_work:?}"
        );
        assert!(
            sel_work.ordered_probes > 0,
            "{what}: no ordered probes: {sel_work:?}"
        );
        let selected_orders = IndexCatalog::build(program).total_orders() as u64;
        assert!(
            sel_work.ordered_builds >= selected_orders,
            "{what}: recursion must rebuild per relation version \
             ({} builds for {selected_orders} selected orders)",
            sel_work.ordered_builds
        );
        let scan = fixpoint_cfg(AccessPaths::ForceScan);
        let (rel, m) = eval_program_seminaive(program, &db, &scan).unwrap();
        assert_eq!(m, ref_m, "{what}: metrics diverge under ForceScan");
        for (pred, r) in &ref_rel {
            assert_eq!(
                rel[pred].rows(),
                r.rows(),
                "{what}/{pred}: rows diverge vs ForceScan"
            );
        }
    }

    // --- 4. Engine-level: magic-rewritten bound query, both policies. ---
    let (sg, leaf) = same_generation(2, 8);
    let db = Database::from_program(&sg);
    let query = parse_query(&format!("sg({leaf}, Y)?")).unwrap();
    let reference = evaluate_query(
        &sg,
        &db,
        &query,
        Method::Magic,
        &fixpoint_cfg(AccessPaths::ForceScan),
    )
    .unwrap();
    assert!(!reference.tuples.is_empty());
    let selected = fixpoint_cfg(AccessPaths::Selected);
    let got = evaluate_query(&sg, &db, &query, Method::Magic, &selected).unwrap();
    assert_eq!(
        got.tuples.rows(),
        reference.tuples.rows(),
        "answers diverge under Selected"
    );
    assert_eq!(
        got.metrics, reference.metrics,
        "metrics diverge under Selected"
    );
}

/// A probe the catalog does not serve builds one order on its bound
/// columns for the relation version and answers every later probe of
/// that version from it: N probes cost 1 build and N prefix probes,
/// with the rows and [`Metrics`] of a forced scan.
#[test]
fn catalog_miss_builds_one_order_per_relation_version() {
    const N: i64 = 20;
    let mut text = String::new();
    for i in 0..N {
        text.push_str(&format!(
            "a({i}).\ne({i}, {}).\ne({i}, {}).\n",
            i + 1,
            i + 2
        ));
    }
    text.push_str("hit(X, Y) <- a(X), e(X, Y).\n");
    let program = parse_program(&text).unwrap();
    let db = Database::from_program(&program);
    let e = Pred::new("e", 2);
    assert!(IndexCatalog::build(&program).lookup(e, &[0]).is_some());
    let ((miss_rel, miss_m), work) =
        IndexCounters::scoped(|| eval_program_seminaive(&program, &db, &no_orders_for(e)).unwrap());
    assert_eq!(work.ordered_builds, 1, "one order per version: {work:?}");
    assert_eq!(
        work.ordered_probes, N as u64,
        "one probe per a-row: {work:?}"
    );
    let scan = fixpoint_cfg(AccessPaths::ForceScan);
    let (scan_rel, scan_m) = eval_program_seminaive(&program, &db, &scan).unwrap();
    assert_eq!(miss_m, scan_m, "metrics diverge from the scan");
    let hit = Pred::new("hit", 2);
    assert_eq!(miss_rel[&hit].len(), 2 * N as usize);
    for (pred, r) in &scan_rel {
        assert_eq!(miss_rel[pred].rows(), r.rows(), "{pred}: rows diverge");
    }
}
