//! The round executor: every rule firing in the crate runs here.
//!
//! The stratum driver (`crate::driver`) and the maintenance engine
//! (`crate::maintain`) both reduce a round to a list of *firings* — rule
//! evaluations against relations that are frozen for the duration of
//! the round (naive: every clique rule against the full relations;
//! semi-naive: every recursive-rule/delta-occurrence pair; maintenance:
//! every rule/changed-occurrence pair, the other occurrences of changed
//! predicates reading old state). Firings within a round are therefore
//! independent, and [`run_round`] fans them out over scoped workers
//! ([`ldl_support::par`]), each writing into a private tuple buffer that
//! is merged in deterministic (firing, chunk) order.
//!
//! A clique with few rules (transitive closure has one recursive rule
//! with one delta occurrence) would get nothing from firing-level
//! parallelism alone, so each firing is additionally *partitioned*: the
//! first positive body atom's relation is split into contiguous row
//! chunks, one job per chunk, installed as one more positional override
//! ahead of the firing's own. Builtins and negated literals ahead of
//! that atom are filters (at most one continuation each), so
//! partitioning the first *enumerating* literal partitions the firing's
//! solutions into contiguous runs — concatenating the chunk buffers in
//! chunk order reproduces the serial emission order exactly. The merged
//! tuple stream and the merged [`Metrics`] are bit-for-bit identical to
//! serial execution at any thread count.
//!
//! `member/2` also enumerates (the elements of a set term, not a
//! relation), so a firing whose first enumerating literal is `member`
//! falls back to a single job, as do grouping rules (their aggregation
//! must see every solution).

use crate::grouping::{eval_grouping_rule_with, has_grouping};
use crate::metrics::Metrics;
use crate::rule_eval::{eval_rule_with, AccessPlan, OverlaySource};
use ldl_core::unify::Subst;
use ldl_core::{Literal, Pred, Result, Rule};
use ldl_storage::{Relation, Tuple};
use ldl_support::par::scoped_map;
use std::borrow::Cow;

/// One schedulable rule evaluation: a rule — borrowed from the program,
/// or owned when maintenance flips a negated delta occurrence positive —
/// and the body positions that read something other than the
/// predicate's current relation (a delta, an old state).
pub(crate) struct Firing<'a> {
    pub rule: Cow<'a, Rule>,
    pub overrides: Vec<(usize, &'a Relation)>,
}

impl<'a> Firing<'a> {
    /// `rule` against the current relations, no overrides.
    pub fn plain(rule: &'a Rule) -> Firing<'a> {
        Firing {
            rule: Cow::Borrowed(rule),
            overrides: Vec::new(),
        }
    }
}

/// Don't bother cutting chunks smaller than this: the per-chunk
/// relation build (tuple clones + dedup map) must stay negligible next
/// to the join work it parallelizes.
const MIN_CHUNK_ROWS: usize = 16;

/// One worker job: a firing, optionally restricted to a row chunk.
struct JobSpec {
    /// Index into the firing list.
    firing: usize,
    /// `(body position, chunk-store index)`: that occurrence reads the
    /// chunk instead of whatever the firing had there.
    chunk: Option<(usize, usize)>,
    /// True on the first chunk of each firing: exactly one job per
    /// firing contributes the `rule_firings` count, matching serial.
    count_firing: bool,
}

/// Executes every firing of one round on up to `threads` workers and
/// returns the produced `(head predicate, tuple)` stream in serial
/// emission order plus the round's metrics contribution. `base` is the
/// frozen per-predicate lookup (completed strata + current clique
/// relations); the caller inserts the merged stream afterwards, so
/// workers never write shared state.
pub(crate) fn run_round<'a>(
    firings: &[Firing<'a>],
    base: &(dyn Fn(Pred) -> Option<&'a Relation> + Sync),
    threads: usize,
    plan: AccessPlan<'_>,
) -> Result<(Vec<(Pred, Tuple)>, Metrics)> {
    // Plan jobs: cut row chunks up front so workers share them by
    // reference. Chunk relations live in `chunks`, specs index into it.
    let mut chunks: Vec<Relation> = Vec::new();
    let mut specs: Vec<JobSpec> = Vec::new();
    for (fi, firing) in firings.iter().enumerate() {
        match chunk_axis(firing, base, threads) {
            Some((pos, rel)) => {
                let n = rel.len();
                let per = n.div_ceil(threads.min(n / MIN_CHUNK_ROWS));
                for lo in (0..n).step_by(per) {
                    let hi = (lo + per).min(n);
                    specs.push(JobSpec {
                        firing: fi,
                        chunk: Some((pos, chunks.len())),
                        count_firing: lo == 0,
                    });
                    chunks.push(Relation::from_tuples(
                        rel.arity(),
                        rel.rows()[lo..hi].iter().cloned(),
                    ));
                }
            }
            None => specs.push(JobSpec {
                firing: fi,
                chunk: None,
                count_firing: true,
            }),
        }
    }

    // Workers re-enter the caller's counter scopes so scoped index-work
    // measurements (IndexCounters::scoped) see parallel rounds too.
    let scope = ldl_storage::scope_handle();
    let chunks = &chunks;
    let results = scoped_map(
        threads,
        specs.len(),
        |i| -> Result<(Vec<(Pred, Tuple)>, Metrics)> {
            let _counters = scope.enter();
            let spec = &specs[i];
            let firing = &firings[spec.firing];
            let rule = firing.rule.as_ref();
            let order: Vec<usize> = (0..rule.body.len()).collect();
            let chunked: Vec<(usize, &Relation)>;
            let overrides = match spec.chunk {
                Some((pos, ci)) => {
                    chunked = std::iter::once((pos, &chunks[ci]))
                        .chain(firing.overrides.iter().copied())
                        .collect();
                    chunked.as_slice()
                }
                None => firing.overrides.as_slice(),
            };
            let source = OverlaySource {
                base: |p: Pred| base(p),
                overrides,
            };
            let head_pred = rule.head.pred;
            let mut out: Vec<(Pred, Tuple)> = Vec::new();
            let produced = if has_grouping(rule) {
                let (tuples, st) = eval_grouping_rule_with(rule, &order, &source, plan)?;
                out.extend(tuples.into_iter().map(|t| (head_pred, t)));
                st.produced
            } else {
                eval_rule_with(rule, &order, &Subst::new(), &source, plan, &mut |t| {
                    out.push((head_pred, t));
                })?
                .produced
            };
            let m = Metrics {
                tuples_produced: produced,
                rule_firings: spec.count_firing as usize,
                ..Metrics::default()
            };
            Ok((out, m))
        },
    );

    // Ordered merge: job order == (firing, chunk) order == serial order.
    let mut merged: Vec<(Pred, Tuple)> = Vec::new();
    let mut metrics = Metrics::default();
    for res in results {
        let (tuples, m) = res?;
        metrics.absorb(m);
        merged.extend(tuples);
    }
    Ok((merged, metrics))
}

/// Picks the body occurrence to partition and the relation it reads —
/// the one partitioning rule, decided from the firing alone: more than
/// one worker, no grouping head (its aggregation must see every
/// solution), no override smaller than a chunk, and the first literal
/// that *enumerates* (a positive, non-`member` atom) reads a relation
/// big enough to cut twice.
/// Builtins and negated literals are filters and may safely precede the
/// partition point; anything that multiplies solutions before it would
/// break the serial emission order, so `member/2` first means "do not
/// partition".
fn chunk_axis<'a>(
    firing: &Firing<'a>,
    base: &(dyn Fn(Pred) -> Option<&'a Relation> + Sync),
    threads: usize,
) -> Option<(usize, &'a Relation)> {
    if threads <= 1 || has_grouping(&firing.rule) {
        return None;
    }
    // A firing that reads a small delta does work bounded by that delta:
    // cloning the outer relation into chunks cannot pay for itself.
    if firing
        .overrides
        .iter()
        .any(|(_, r)| r.len() < MIN_CHUNK_ROWS)
    {
        return None;
    }
    let (pos, atom) = firing
        .rule
        .body
        .iter()
        .enumerate()
        .find_map(|(i, lit)| match lit {
            Literal::Atom(a) if !a.negated => Some((i, a)),
            _ => None,
        })?;
    if atom.pred == Pred::new("member", 2) {
        return None;
    }
    let rel = match firing.overrides.iter().find(|(j, _)| *j == pos) {
        Some((_, rel)) => Some(*rel),
        None => base(atom.pred),
    };
    rel.filter(|r| r.len() >= 2 * MIN_CHUNK_ROWS)
        .map(|r| (pos, r))
}
