//! Differential soundness of the co-optimized index catalog override.
//!
//! The catalog [`co_optimize`] hands the executor via
//! [`FixpointConfig::with_index_catalog`] is a pure performance knob:
//! for generated programs mixing joins, recursion, negation,
//! comparisons, and arithmetic, answers *and* [`Metrics`] with the
//! co-optimized catalog installed are bit-identical (canonical order)
//! to runs without it, across {naive, semi-naive, magic} × {1, 4}
//! threads × {Selected, ForceScan} access paths. Runs on
//! `ldl_support::prop`; replay failures with the `LDL_PROP_SEED` value
//! printed in the panic message.

use ldl_core::parser::{parse_program, parse_query};
use ldl_eval::naive::AnalysisPolicy;
use ldl_eval::{evaluate_query, AccessPaths, FixpointConfig, Method};
use ldl_optimizer::{co_optimize, OptConfig};
use ldl_storage::Database;
use ldl_support::prop::{check, pairs, triples, usizes, vecs, Config};

/// Rule blocks that each put different demands on the index catalog,
/// with all-free and (where interesting) bound query forms.
struct Block {
    rules: &'static str,
    queries: &'static [&'static str],
}

const BLOCKS: &[Block] = &[
    // Plain join: probes e on column 0 or 1 depending on the order.
    Block {
        rules: "j0(X, Z) <- e(X, Y), e(Y, Z).\n",
        queries: &["j0(A, B)?", "j0(1, B)?"],
    },
    // Join against a unary filter — the big/small flip candidate.
    Block {
        rules: "j1(X) <- e(X, Y), n(Y).\n",
        queries: &["j1(A)?"],
    },
    // Range demand: the comparison folds into an indexed scan.
    Block {
        rules: "j2(X, Y) <- e(X, Y), Y > 2.\n",
        queries: &["j2(A, B)?", "j2(1, B)?"],
    },
    // Recursion: magic-renamed predicates get their own demands.
    Block {
        rules: "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n",
        queries: &["tc(A, B)?", "tc(1, B)?"],
    },
    // Stratified negation over a join.
    Block {
        rules: "j4(X) <- n(X), ~e(X, X).\n",
        queries: &["j4(A)?"],
    },
    // Arithmetic head computed from a join.
    Block {
        rules: "j5(Z) <- e(X, Y), Z = X + Y.\n",
        queries: &["j5(A)?"],
    },
];

fn program_text(picks: &[usize], ns: &[usize], edges: &[(usize, usize)]) -> (String, Vec<usize>) {
    let mut chosen: Vec<usize> = picks.to_vec();
    chosen.sort_unstable();
    chosen.dedup();
    let mut text = String::new();
    for n in ns {
        text.push_str(&format!("n({n}).\n"));
    }
    for (a, b) in edges {
        text.push_str(&format!("e({a}, {b}).\n"));
    }
    for &i in &chosen {
        text.push_str(BLOCKS[i].rules);
    }
    (text, chosen)
}

#[test]
fn co_optimized_catalog_preserves_answers_and_metrics() {
    let gen = triples(
        vecs(usizes(0..BLOCKS.len()), 1..4),
        vecs(usizes(0..6), 1..5),
        vecs(pairs(usizes(0..6), usizes(0..6)), 1..7),
    );
    check(
        "co_optimized_catalog_preserves_answers_and_metrics",
        &Config::with_cases(16),
        &gen,
        |(picks, ns, edges)| {
            let (text, chosen) = program_text(picks, ns, edges);
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            for &i in &chosen {
                for qtext in BLOCKS[i].queries {
                    let q = parse_query(qtext).unwrap();
                    let co = co_optimize(&program, &db, &OptConfig::default(), &q, None)
                        .unwrap_or_else(|e| panic!("co_optimize failed for {qtext}: {e}\n{text}"));
                    let catalog = co.catalog.clone();
                    for method in [Method::Naive, Method::SemiNaive, Method::Magic] {
                        for threads in [1, 4] {
                            for access in [AccessPaths::Selected, AccessPaths::ForceScan] {
                                let base = FixpointConfig::default()
                                    .with_analysis(AnalysisPolicy::Off)
                                    .with_threads(threads)
                                    .with_access_paths(access);
                                let with = base.clone().with_index_catalog(catalog.clone());
                                let mut plain = evaluate_query(&program, &db, &q, method, &base)
                                    .unwrap_or_else(|e| {
                                        panic!("baseline failed for {qtext}: {e}\n{text}")
                                    });
                                let mut co_run = evaluate_query(&program, &db, &q, method, &with)
                                    .unwrap_or_else(|e| {
                                        panic!("override failed for {qtext}: {e}\n{text}")
                                    });
                                plain.tuples.canonicalize();
                                co_run.tuples.canonicalize();
                                assert_eq!(
                                    co_run.tuples,
                                    plain.tuples,
                                    "catalog override changed answers: {} / {threads} \
                                     thread(s) / {access:?} / {qtext}\nprogram:\n{text}",
                                    method.name()
                                );
                                assert_eq!(
                                    co_run.metrics,
                                    plain.metrics,
                                    "catalog override changed metrics: {} / {threads} \
                                     thread(s) / {access:?} / {qtext}\nprogram:\n{text}",
                                    method.name()
                                );
                            }
                        }
                    }
                }
            }
        },
    );
}
