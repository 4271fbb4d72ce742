//! Differential test of the served-read path: `answer_goal` (membership
//! lookup, ordered-index prefix probe, or scan, by which goal arguments
//! are ground) against `filter_answers` (unify every row), on the rows
//! *and* their order, over random relations that are mutated between
//! goals so that an index cached at an older version can never answer.
//!
//! Runs on `ldl_support::prop`; replay any failure with the
//! `LDL_PROP_SEED` value printed in the panic message.

use ldl_core::{Atom, Query, Term};
use ldl_eval::engine::{answer_goal, filter_answers};
use ldl_storage::{IndexCounters, Relation, Tuple};
use ldl_support::prop::{check, Config, Gen};
use ldl_support::SplitMix64;

/// One random relation, the goals asked of it, and the mutations made
/// between rounds of goals.
#[derive(Clone, Debug)]
struct Case {
    arity: usize,
    rows: Vec<Tuple>,
    goals: Vec<Vec<Term>>,
    steps: Vec<Step>,
}

#[derive(Clone, Debug)]
enum Step {
    Insert(Vec<Tuple>),
    /// Removes the rows at these positions (mod the current length).
    Remove(Vec<usize>),
    Canonicalize,
}

/// A ground value: integers, symbols, and compound terms (a functor
/// application, a list) mixed in one column.
fn value(rng: &mut SplitMix64) -> Term {
    match rng.gen_range(0..6usize) {
        0 | 1 => Term::int(rng.gen_range(0..4i64)),
        2 => Term::sym(["a", "b", "c"][rng.gen_range(0..3usize)]),
        3 => Term::compound("f", vec![Term::int(rng.gen_range(0..2i64))]),
        4 => Term::compound("f", vec![Term::sym("a")]),
        _ => Term::list(vec![Term::int(1), Term::int(rng.gen_range(1..3i64))]),
    }
}

fn row(rng: &mut SplitMix64, arity: usize) -> Tuple {
    Tuple::new((0..arity).map(|_| value(rng)).collect())
}

/// A goal argument: a variable from a pool of two (so repeats happen),
/// a ground value, or a compound pattern with a variable inside.
fn pattern(rng: &mut SplitMix64) -> Term {
    match rng.gen_range(0..7usize) {
        0..=2 => Term::var(["X", "Y"][rng.gen_range(0..2usize)]),
        3 | 4 => value(rng),
        5 => Term::compound("f", vec![Term::var("Z")]),
        _ => Term::list_with_tail(vec![Term::int(1)], Term::var("T")),
    }
}

fn cases() -> Gen<Case> {
    Gen::new(|rng| {
        let arity = rng.gen_range(1..4usize);
        let rows: Vec<Tuple> = (0..rng.gen_range(0..40usize))
            .map(|_| row(rng, arity))
            .collect();
        let mut goals: Vec<Vec<Term>> = (0..8)
            .map(|_| (0..arity).map(|_| pattern(rng)).collect())
            .collect();
        // Fully ground goals, present (a stored row) and likely absent.
        for _ in 0..3 {
            if !rows.is_empty() {
                goals.push(rows[rng.gen_range(0..rows.len())].0.clone());
            }
            goals.push(row(rng, arity).0);
        }
        let steps = (0..rng.gen_range(1..5usize))
            .map(|_| match rng.gen_range(0..3usize) {
                0 => Step::Insert(
                    (0..rng.gen_range(1..8usize))
                        .map(|_| row(rng, arity))
                        .collect(),
                ),
                1 => Step::Remove(
                    (0..rng.gen_range(1..6usize))
                        .map(|_| rng.gen_range(0..64usize))
                        .collect(),
                ),
                _ => Step::Canonicalize,
            })
            .collect();
        Case {
            arity,
            rows,
            goals,
            steps,
        }
    })
}

/// Every goal answers the same rows in the same order on both paths,
/// asked twice so the second ask runs on the cached index; the counted
/// enumeration covers the answers and never exceeds the relation.
fn agree(rel: &Relation, goals: &[Vec<Term>]) {
    for args in goals {
        let query = Query::new(Atom::new("p", args.clone()));
        let expected = filter_answers(rel, &query.goal);
        for _ in 0..2 {
            let (got, work) = IndexCounters::scoped(|| answer_goal(Some(rel), &query));
            assert_eq!(got.rows(), expected.rows(), "goal {query} on {rel:?}");
            let counted = work.rows_enumerated as usize;
            assert!(
                got.len() <= counted && counted <= rel.len().max(1),
                "goal {query}: {} answers, {counted} rows counted, {} rows",
                got.len(),
                rel.len()
            );
        }
    }
}

#[test]
fn answer_goal_matches_filter_answers_across_mutations() {
    check(
        "answer_goal_matches_filter_answers_across_mutations",
        &Config::with_cases(64),
        &cases(),
        |case| {
            let mut rel = Relation::from_tuples(case.arity, case.rows.iter().cloned());
            agree(&rel, &case.goals);
            for step in &case.steps {
                match step {
                    Step::Insert(rows) => {
                        rel.extend(rows.iter().cloned());
                    }
                    Step::Remove(picks) => {
                        let doomed: Vec<Tuple> = picks
                            .iter()
                            .filter(|_| !rel.is_empty())
                            .map(|&i| rel.row((i % rel.len()) as u32).clone())
                            .collect();
                        rel.remove_batch(&doomed);
                    }
                    Step::Canonicalize => rel.canonicalize(),
                }
                agree(&rel, &case.goals);
            }
        },
    );
}

#[test]
fn missing_relation_answers_empty_at_goal_arity() {
    let query = Query::new(Atom::new("p", vec![Term::int(1), Term::var("Y")]));
    let got = answer_goal(None, &query);
    assert!(got.is_empty());
    assert_eq!(got.arity(), 2);
}
