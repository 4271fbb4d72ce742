//! Differential: the session path ≡ the engine path ≡ the served path.
//!
//! Random insert/retract streams run against three holders of the same
//! program + EDB: an [`ldl::Session`] (what `ldl-shell` drives: gate →
//! per-form `co_optimize` plan → fixpoint), a maintained
//! [`Engine`], and a durable [`Service`] (what `ldl-serve` drives).
//! After every committed step, for every predicate and every query form
//! of it, `Session::query`, `Session::query` again with a different
//! constant, `Engine::answers` and the service's published
//! `StateView::answers` must return the same canonicalized relation.
//! The plan cache is checked against an exact model: a form compiles
//! iff it was not compiled since the cache was last emptied, which a
//! commit does when the base sizes drift by `ldl::session::DRIFT_FACTOR`
//! from those at the last emptying — so both fresh and stale plans are
//! compared.
//!
//! The program is the one `crates/ldl-eval/tests/ivm.rs` maintains: a
//! recursive closure, a join and a stratified negation over it, and a
//! grouping head. Runs on `ldl_support::prop` with shrinking; replay a
//! failure with the `LDL_PROP_SEED` value printed in the panic message.

use ldl::core::parser::parse_query;
use ldl::eval::{EdbDelta, Engine, FixpointConfig};
use ldl::serve::Service;
use ldl::session::DRIFT_FACTOR;
use ldl::storage::{Database, Relation, Tuple};
use ldl::{Pred, Session};
use ldl_support::prop::{check, pairs, triples, usizes, vecs, Config};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One stream step: `kind` picks the operation, `a`/`b` the tuple.
type Op = (usize, usize, usize);

const NODES: usize = 6;

const RULES: &str = "tc(X, Y) <- e(X, Y).\n\
                     tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                     q(X, Z) <- e(X, Y), tc(Y, Z).\n\
                     unr(X) <- n(X), ~tc(X, X).\n\
                     grp(X, <Y>) <- tc(X, Y).\n";

/// Every query form compared: `#` marks a bound position, filled with a
/// constant drawn from the node domain. (`grp`'s second column holds
/// sets, so it is only asked free.)
const FORMS: &[&str] = &[
    "tc(A, B)?",
    "tc(#, B)?",
    "tc(A, #)?",
    "tc(#, #)?",
    "q(A, B)?",
    "q(#, B)?",
    "q(A, #)?",
    "q(#, #)?",
    "unr(A)?",
    "unr(#)?",
    "grp(A, S)?",
    "grp(#, S)?",
    "e(A, B)?",
    "e(#, B)?",
    "e(A, #)?",
    "e(#, #)?",
    "n(A)?",
    "n(#)?",
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
    // empty, so every holder sees the same schema.
    text.push_str("e(0, 0).\nn(0).\n");
    text.push_str(RULES);
    text
}

/// The batch for one step, as `(insert?, pred, tuple)` in staging order.
fn batch(op: &Op) -> Vec<(bool, Pred, Tuple)> {
    let (kind, a, b) = *op;
    let e = (Pred::new("e", 2), Tuple::ints(&[a as i64, b as i64]));
    let n = (Pred::new("n", 1), Tuple::ints(&[a as i64]));
    match kind % 6 {
        0 | 1 => vec![(true, e.0, e.1)],
        2 => vec![(false, e.0, e.1)],
        3 => vec![(true, n.0, n.1)],
        4 => vec![(false, n.0, n.1)],
        // Churn: retract + insert of one edge (a no-op) beside a real
        // node insert.
        _ => vec![
            (false, e.0, e.1.clone()),
            (true, e.0, e.1),
            (true, n.0, n.1),
        ],
    }
}

/// Row count per base relation.
fn base_sizes(db: &Database) -> BTreeMap<Pred, usize> {
    db.preds()
        .into_iter()
        .map(|p| (p, db.relation(p).map_or(0, Relation::len)))
        .collect()
}

/// The session's invalidation rule, restated: a relation appeared or
/// went, or its row count moved by `DRIFT_FACTOR` either way.
fn drifted(old: &BTreeMap<Pred, usize>, new: &BTreeMap<Pred, usize>) -> bool {
    old.keys().ne(new.keys())
        || old.iter().any(|(p, &a)| {
            let b = new[p];
            let (lo, hi) = (a.min(b), a.max(b));
            if lo == 0 {
                hi > 0
            } else {
                hi >= DRIFT_FACTOR * lo
            }
        })
}

fn canonical(mut rel: Relation) -> Relation {
    rel.canonicalize();
    rel
}

/// A scratch data directory per case (cases of one process run in
/// sequence, test binaries in parallel).
fn scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ldl-session-differential-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn session_engine_and_served_answers_agree_after_every_commit() {
    let node = || usizes(0..NODES);
    let gen = triples(
        vecs(pairs(node(), node()), 0..8),
        vecs(node(), 0..5),
        vecs(triples(usizes(0..6), node(), node()), 1..10),
    );
    check(
        "session_engine_and_served_answers_agree_after_every_commit",
        &Config::with_cases(24),
        &gen,
        |(edges, nodes, ops)| {
            let text = program_text(edges, nodes);
            let mut session = Session::new();
            session.load(&text).unwrap();
            let mut engine = Engine::evaluate(
                session.program(),
                &Database::from_program(session.program()),
                &FixpointConfig::serial(),
            )
            .unwrap();
            let dir = scratch_dir();
            let service = Service::open(&dir, &FixpointConfig::serial(), 0).unwrap();
            service.load_rules(&text).unwrap();

            // No form asked yet: an empty cache, sizes as loaded.
            let mut cached = HashSet::new();
            let mut sizes = base_sizes(session.database());
            for (step, op) in ops.iter().enumerate() {
                let mut delta = EdbDelta::new();
                for (insert, pred, tuple) in batch(op) {
                    if insert {
                        session.stage_insert(pred, tuple.clone());
                        delta.insert(pred, tuple);
                    } else {
                        session.stage_retract(pred, tuple.clone());
                        delta.retract(pred, tuple);
                    }
                }
                session.commit().unwrap();
                engine.apply_delta(&delta).unwrap();
                let (view, _) = service.commit(&delta).unwrap();

                // The cache model: a commit empties it iff the base
                // sizes drifted from the snapshot of the last emptying.
                let now = base_sizes(engine.database());
                if drifted(&sizes, &now) {
                    cached.clear();
                    sizes = now;
                }
                for (i, form) in FORMS.iter().enumerate() {
                    let goal = |c: usize| {
                        let c = ((step + i + c) % NODES).to_string();
                        parse_query(&form.replace('#', &c)).unwrap()
                    };
                    // The first goal of a form compiles it iff the model
                    // has no plan for it; the second (another constant)
                    // never does.
                    let compiled = session.compilations() + usize::from(cached.insert(form));
                    for (query, first) in [(goal(0), true), (goal(1), false)] {
                        let got = canonical(session.query(&query).unwrap().answer.tuples);
                        assert_eq!(
                            session.compilations(),
                            compiled,
                            "step {step}: {form} first={first} plan-cache use"
                        );
                        let what = format!("step {step}: {} (first of form: {first})", query.goal);
                        assert_eq!(got, canonical(engine.answers(&query)), "{what} vs engine");
                        assert_eq!(got, canonical(view.answers(&query)), "{what} vs served");
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}
