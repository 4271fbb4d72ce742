//! Served reads under a committing writer: reader threads pin one
//! `StateView` and ask partially and fully bound goals — the probe and
//! membership paths, sharing the view's lazily built ordered indexes —
//! while commits publish newer views. Every answer must equal a scan of
//! the same view, in the same row order, and a reader that moves to the
//! latest view must see the latest commit.

use ldl_core::parser::parse_query;
use ldl_core::{Pred, Query};
use ldl_eval::engine::filter_answers;
use ldl_serve::{EdbDelta, FixpointConfig, Service, StateView};
use ldl_storage::Tuple;
use std::sync::atomic::{AtomicBool, Ordering};

const RULES: &str = "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).";
const READERS: usize = 4;
const COMMITS: i64 = 12;

fn edge(delta: &mut EdbDelta, a: i64, b: i64) {
    delta.insert(Pred::new("e", 2), Tuple::ints(&[a, b]));
}

/// Goals of every tier: bound first or second column, fully bound
/// present and absent, and a repeated variable.
fn goals() -> Vec<Query> {
    let mut texts = Vec::new();
    for k in [0, 3, 7, 12, 19] {
        texts.push(format!("tc({k}, Y)?"));
        texts.push(format!("tc(X, {k})?"));
        texts.push(format!("tc({k}, {})?", k + 2));
        texts.push(format!("tc({}, {k})?", k + 2));
    }
    texts.push("tc(X, X)?".to_string());
    texts.iter().map(|t| parse_query(t).unwrap()).collect()
}

/// The rows `view` answers for `query`, checked against a scan of the
/// same relation (rows and order).
fn answer(view: &StateView, query: &Query) -> Vec<Tuple> {
    let got = view.answers(query);
    let scan = filter_answers(view.relation(query.pred()).unwrap(), &query.goal);
    assert_eq!(
        got.rows(),
        scan.rows(),
        "{query} at version {}",
        view.version
    );
    got.rows().to_vec()
}

#[test]
fn pinned_readers_probe_exactly_while_a_writer_commits() {
    let dir = std::env::temp_dir().join(format!("ldl-concurrent-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::open(&dir, &FixpointConfig::serial(), 0).unwrap();
    svc.load_rules(RULES).unwrap();
    // Two chains, 0 → … → 20 and 100 → … → 110, plus a cycle 5 → 0.
    let mut d = EdbDelta::new();
    for i in 0..20 {
        edge(&mut d, i, i + 1);
    }
    for i in 100..110 {
        edge(&mut d, i, i + 1);
    }
    edge(&mut d, 5, 0);
    svc.commit(&d).unwrap();

    let pinned = svc.current();
    let goals = goals();
    let first: Vec<Vec<Tuple>> = goals.iter().map(|q| answer(&pinned, q)).collect();
    let writing = AtomicBool::new(true);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (pinned, goals, first, writing) = (&pinned, &goals, &first, &writing);
            scope.spawn(move || {
                let mut rounds = 0;
                while rounds < 3 || writing.load(Ordering::Acquire) {
                    // Readers start at different goals so index builds race.
                    for i in 0..goals.len() {
                        let i = (i + reader * 5) % goals.len();
                        assert_eq!(answer(pinned, &goals[i]), first[i], "{}", goals[i]);
                    }
                    rounds += 1;
                }
            });
        }
        scope.spawn(|| {
            // Each commit hangs a new edge off the long chain's tail
            // region and retracts the previous one.
            for c in 0..COMMITS {
                let mut d = EdbDelta::new();
                edge(&mut d, 20, 200 + c);
                if c > 0 {
                    d.retract(Pred::new("e", 2), Tuple::ints(&[20, 199 + c]));
                }
                svc.commit(&d).unwrap();
            }
            writing.store(false, Ordering::Release);
        });
    });

    // After the commits, a reader that refreshes sees the last one.
    let last = 200 + COMMITS - 1;
    let fresh = svc.current();
    assert!(fresh.version > pinned.version);
    let reach = parse_query(&format!("tc(X, {last})?")).unwrap();
    assert_eq!(answer(&fresh, &reach).len(), 21, "0..=20 reach {last}");
    assert!(answer(&pinned, &reach).is_empty());
    let hit = parse_query(&format!("tc(3, {last})?")).unwrap();
    assert_eq!(answer(&fresh, &hit), vec![Tuple::ints(&[3, last])]);
    let gone = parse_query(&format!("tc(3, {})?", last - 1)).unwrap();
    assert!(answer(&fresh, &gone).is_empty());
    for q in &goals {
        answer(&fresh, q);
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
