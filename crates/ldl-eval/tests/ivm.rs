//! Differential update-stream harness for incremental view
//! maintenance.
//!
//! Random update streams run against maintained [`Engine`]s at
//! {1, 4 threads} × {Selected, ForceScan} access paths; after every
//! step each maintained state is compared bit-for-bit — rows *and* row
//! order — against a from-scratch `Engine::evaluate` over the same EDB,
//! and periodically against the one-shot semi-naive and magic-set query
//! paths. Runs on `ldl_support::prop` with greedy shrinking; replay any
//! failure with the `LDL_PROP_SEED` value printed in the panic message.
//!
//! The program under maintenance exercises every maintenance strategy
//! at once: a recursive transitive closure (DRed), a join and a
//! stratified negation over it (counting), and a grouping head over the
//! closure (recompute).

use ldl_core::parser::{parse_program, parse_query};
use ldl_core::{Pred, Term};
use ldl_eval::engine::{evaluate_query, Method};
use ldl_eval::naive::AccessPaths;
use ldl_eval::{EdbDelta, Engine, FixpointConfig};
use ldl_storage::Tuple;
use ldl_support::prop::{check, pairs, triples, usizes, vecs, Config};
use ldl_support::SplitMix64;

/// One stream step: `kind` picks the operation, `a`/`b` the tuple.
type Op = (usize, usize, usize);

const RULES: &str = "tc(X, Y) <- e(X, Y).\n\
                     tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                     q(X, Z) <- e(X, Y), tc(Y, Z).\n\
                     unr(X) <- n(X), ~tc(X, X).\n\
                     grp(X, <Y>) <- tc(X, Y).\n";

/// Predicates compared after every step: every derived predicate plus
/// the base relations themselves.
const COMPARED: &[(&str, usize)] = &[
    ("tc", 2),
    ("q", 2),
    ("unr", 1),
    ("grp", 2),
    ("e", 2),
    ("n", 1),
];

fn program_text(edges: &[(usize, usize)], nodes: &[usize]) -> String {
    let mut text = String::new();
    for (a, b) in edges {
        text.push_str(&format!("e({a}, {b}).\n"));
    }
    for x in nodes {
        text.push_str(&format!("n({x}).\n"));
    }
    // Keep both base relations present even when the random prefix is
    // empty, so every engine sees the same schema.
    text.push_str("e(0, 0).\nn(0).\n");
    text.push_str(RULES);
    text
}

fn op_delta(op: &Op) -> EdbDelta {
    let (kind, a, b) = *op;
    let e = Pred::new("e", 2);
    let n = Pred::new("n", 1);
    let et = Tuple(vec![Term::int(a as i64), Term::int(b as i64)]);
    let nt = Tuple(vec![Term::int(a as i64)]);
    let mut d = EdbDelta::new();
    match kind % 6 {
        0 | 1 => d.insert(e, et),
        2 => d.retract(e, et),
        3 => d.insert(n, nt),
        4 => d.retract(n, nt),
        // Churn batch: retract + insert of the same edge in one batch
        // (a no-op) alongside a real node insert.
        _ => d.retract(e, et.clone()).insert(e, et).insert(n, nt),
    };
    d
}

fn maintained_engines(text: &str) -> Vec<(String, Engine)> {
    let program = parse_program(text).unwrap();
    let db = ldl_storage::Database::from_program(&program);
    let mut engines = Vec::new();
    for threads in [1usize, 4] {
        for paths in [AccessPaths::Selected, AccessPaths::ForceScan] {
            let cfg = FixpointConfig::serial()
                .with_threads(threads)
                .with_access_paths(paths);
            let label = format!("threads={threads} paths={paths:?}");
            engines.push((label, Engine::evaluate(&program, &db, &cfg).unwrap()));
        }
    }
    engines
}

/// Applies `delta` everywhere and checks every maintained state against
/// a from-scratch evaluation of the same EDB.
fn step_and_compare(engines: &mut [(String, Engine)], delta: &EdbDelta, step: usize) {
    for (label, engine) in engines.iter_mut() {
        engine
            .apply_delta(delta)
            .unwrap_or_else(|err| panic!("step {step} [{label}]: {err}"));
    }
    let reference = Engine::evaluate(
        engines[0].1.program(),
        engines[0].1.database(),
        &FixpointConfig::serial(),
    )
    .unwrap();
    for (label, engine) in engines.iter() {
        for &(name, arity) in COMPARED {
            let p = Pred::new(name, arity);
            let got = engine.relation(p);
            let want = reference.relation(p);
            assert_eq!(
                got.map(|r| r.rows()),
                want.map(|r| r.rows()),
                "step {step} [{label}]: {name} diverged from from-scratch"
            );
        }
    }
}

/// Compares maintained query answers against the one-shot semi-naive
/// and magic-set evaluators (canonicalized on both sides — magic's
/// insertion order is its own).
fn compare_query_paths(engines: &[(String, Engine)], step: usize) {
    let engine = &engines[0].1;
    for goal in ["tc(1, Y)?", "q(X, 2)?", "unr(X)?"] {
        let query = parse_query(goal).unwrap();
        let maintained = engine.answers(&query);
        for method in [Method::SemiNaive, Method::Magic] {
            let mut got = evaluate_query(
                engine.program(),
                engine.database(),
                &query,
                method,
                &FixpointConfig::serial(),
            )
            .unwrap()
            .tuples;
            got.canonicalize();
            assert_eq!(
                got,
                maintained,
                "step {step}: {} disagrees with maintained answers on {goal}",
                method.name()
            );
        }
    }
}

/// Random programs × random update streams: maintained relations stay
/// bit-for-bit identical to from-scratch evaluation after every step.
#[test]
fn ivm_differential_random_streams() {
    let node = || usizes(0..6);
    let gen = triples(
        vecs(pairs(node(), node()), 0..8),
        vecs(node(), 0..5),
        vecs(triples(usizes(0..6), node(), node()), 1..14),
    );
    check(
        "ivm_differential_random_streams",
        &Config::with_cases(24),
        &gen,
        |(edges, nodes, ops)| {
            let text = program_text(edges, nodes);
            let mut engines = maintained_engines(&text);
            for (step, op) in ops.iter().enumerate() {
                step_and_compare(&mut engines, &op_delta(op), step);
            }
            compare_query_paths(&engines, ops.len());
        },
    );
}

/// The acceptance-criteria stream: ≥50 steps of mixed single-op and
/// multi-op batches over one program, every step differentially checked
/// and the query paths re-checked every tenth step.
#[test]
fn ivm_sixty_step_stream() {
    let mut rng = SplitMix64::seed_from_u64(0x1d1_1988);
    let text = program_text(&[(0, 1), (1, 2), (2, 3), (3, 4)], &[0, 1, 2, 3]);
    let mut engines = maintained_engines(&text);
    for step in 0..60 {
        // Batch 1–3 random ops so batch normalization (retract-before-
        // insert, in-batch cancellation) sees sustained use.
        let mut delta = EdbDelta::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let op: Op = (
                rng.gen_range(0..6usize),
                rng.gen_range(0..6usize),
                rng.gen_range(0..6usize),
            );
            delta = merge(delta, op_delta(&op));
        }
        step_and_compare(&mut engines, &delta, step);
        if step % 10 == 9 {
            compare_query_paths(&engines, step);
        }
    }
}

/// The magic-rewritten query path sees committed deltas: answering a
/// goal through `Method::Magic`, then committing a batch through the
/// maintenance engine and re-asking the *same* goal, must agree with a
/// from-scratch evaluation of the updated EDB. The magic path carries
/// no state between calls — it re-runs its rewriting against the
/// engine's current database — so a stale answer here would mean the
/// maintenance commit failed to publish the updated EDB. This pins the
/// contract the `ldl-serve` commit/query cycle relies on.
#[test]
fn magic_query_after_delta_agrees_with_scratch() {
    let text = program_text(&[(1, 2), (2, 3)], &[1, 2, 3]);
    let program = parse_program(&text).unwrap();
    let db = ldl_storage::Database::from_program(&program);
    let cfg = FixpointConfig::serial();
    let mut engine = Engine::evaluate(&program, &db, &cfg).unwrap();
    let query = parse_query("tc(1, Y)?").unwrap();

    let ask_magic = |engine: &Engine| {
        let mut t = evaluate_query(
            engine.program(),
            engine.database(),
            &query,
            Method::Magic,
            &cfg,
        )
        .unwrap()
        .tuples;
        t.canonicalize();
        t
    };
    let before = ask_magic(&engine);
    assert_eq!(before, engine.answers(&query));
    assert_eq!(before.len(), 2);

    // Commit a batch extending the chain and retracting a node.
    let mut delta = EdbDelta::new();
    delta
        .insert(Pred::new("e", 2), Tuple(vec![Term::int(3), Term::int(4)]))
        .retract(Pred::new("n", 1), Tuple(vec![Term::int(2)]));
    engine.apply_delta(&delta).unwrap();

    // The re-asked magic query reflects the commit...
    let after = ask_magic(&engine);
    assert_eq!(after.len(), 3);
    assert_eq!(after, engine.answers(&query));
    // ...and agrees bit-for-bit with a from-scratch evaluation of the
    // same EDB, on this goal and on every compared relation.
    let scratch = Engine::evaluate(engine.program(), engine.database(), &cfg).unwrap();
    assert_eq!(after, scratch.answers(&query));
    for &(name, arity) in COMPARED {
        let p = Pred::new(name, arity);
        assert_eq!(
            engine.relation(p).map(|r| r.rows()),
            scratch.relation(p).map(|r| r.rows()),
            "{name}/{arity} diverged after the post-query delta"
        );
    }
}

/// Maintenance firings the round executor really cuts into row chunks
/// at 4 threads. The partitioning rule needs the firing's first
/// enumerating atom to read ≥ 32 rows and no override under 16 rows, so
/// the one-edge base deltas run whole; but over a 42-edge graph the
/// `tc` deltas they cause run to hundreds of rows, and those sit at
/// position 1 of `tc(X, Y) <- e(X, Z), tc(Z, Y)` behind the 43-row `e`
/// (DRed's over-deletion and insertion rounds), of the counting stratum
/// `q(X, Z) <- e(X, Y), tc(Y, Z)`, and — flipped positive — of
/// `unr(X) <- n(X), ~tc(X, X)` behind the 40-row `n`. Retracting the
/// edge that closes the big cycle and putting it back drives all of
/// them in both directions. Relations, support counts and the reported
/// work must be identical at 1 and 4 threads, under both access-path
/// policies, and — state only — to a from-scratch engine.
#[test]
fn ivm_partitioned_delta_firings_match_serial_and_scratch() {
    let edges: Vec<(usize, usize)> = (0..40)
        .map(|i| (i, i + 1))
        .chain([(5, 20), (30, 3)])
        .collect();
    let nodes: Vec<usize> = (0..40).collect();
    let mut engines = maintained_engines(&program_text(&edges, &nodes));
    let e = Pred::new("e", 2);
    let edge = |a: i64, b: i64| Tuple(vec![Term::int(a), Term::int(b)]);
    let mut steps = [EdbDelta::new(), EdbDelta::new(), EdbDelta::new()];
    steps[0].retract(e, edge(30, 3));
    steps[1].insert(e, edge(30, 3));
    steps[2].retract(e, edge(10, 11)).insert(e, edge(10, 12));
    for (step, delta) in steps.iter().enumerate() {
        let reports: Vec<_> = engines
            .iter_mut()
            .map(|(_, engine)| engine.apply_delta(delta).unwrap())
            .collect();
        assert!(reports[0].derived_retracted + reports[0].derived_inserted > 100);
        let scratch = Engine::evaluate(
            engines[0].1.program(),
            engines[0].1.database(),
            &FixpointConfig::serial(),
        )
        .unwrap();
        for ((label, engine), report) in engines.iter().zip(&reports) {
            assert_eq!(
                report.metrics, reports[0].metrics,
                "step {step} [{label}]: maintenance work differs from serial"
            );
            assert_eq!(report.changes, reports[0].changes, "step {step} [{label}]");
            for &(name, arity) in COMPARED {
                let p = Pred::new(name, arity);
                let want = scratch.relation(p).unwrap();
                assert_eq!(
                    engine.relation(p).unwrap().rows(),
                    want.rows(),
                    "step {step} [{label}]: {name} diverged from from-scratch"
                );
                for row in want.rows() {
                    assert_eq!(
                        engine.support_count(p, row),
                        scratch.support_count(p, row),
                        "step {step} [{label}]: support of {name}{row}"
                    );
                }
            }
        }
    }
}

/// Folds two staged batches into one (retracts of both apply before
/// inserts of both — the same batch semantics `apply_delta` defines).
fn merge(mut a: EdbDelta, b: EdbDelta) -> EdbDelta {
    // EdbDelta exposes only staging; replay b's ops onto a.
    for (p, ts) in b.staged_retracts() {
        for t in ts {
            a.retract(p, t.clone());
        }
    }
    for (p, ts) in b.staged_inserts() {
        for t in ts {
            a.insert(p, t.clone());
        }
    }
    a
}
