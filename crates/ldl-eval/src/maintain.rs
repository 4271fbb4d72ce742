//! Incremental view maintenance on EDB deltas.
//!
//! Semi-naive evaluation already computes *with* deltas; this module
//! generalizes that differential machinery into *maintenance*: an
//! [`Engine`] holds an evaluated program and repairs every derived
//! relation in place when an [`EdbDelta`] batch (inserts + retracts per
//! base relation) arrives, doing work proportional to the change rather
//! than to the database.
//!
//! Evaluation and repair share one fixpoint driver (`crate::driver`)
//! and one round executor (`crate::parallel`): the from-scratch pass,
//! the grouping recompute and DRed's insertion propagation are callers
//! of the driver, and every delta firing below is an ordinary firing
//! with positional overrides. Strata are dispatched off the driver's
//! stratification, one of three ways:
//!
//! * **Counting** (non-recursive strata): a [`SupportCounts`] table
//!   tracks how many distinct derivations each tuple has. A delta batch
//!   is translated into *delta rules* by finite differencing — for each
//!   rule and each body occurrence `k` of a changed predicate, fire the
//!   rule with occurrence `k` restricted to the delta, occurrences
//!   before `k` reading the *new* state and occurrences after `k` the
//!   *old* state. That factorization partitions the changed derivations
//!   exactly (each lost or gained derivation is counted once), so the
//!   new count is `old + gained - lost` and a tuple leaves the relation
//!   exactly when its count reaches zero. Negated subgoals participate
//!   with inverted polarity: tuples *entering* a negated predicate
//!   destroy derivations, tuples *leaving* it create them, and the
//!   delta occurrence is evaluated as a positive match against the
//!   delta relation.
//! * **DRed** (recursive cliques): counting does not terminate under
//!   recursion (a cycle supports itself), so deletions run
//!   delete-rederive: over-delete the deletion fixpoint evaluated over
//!   the pre-update state, re-derive over-deleted tuples that still
//!   have an immediate derivation from the surviving state, then
//!   propagate re-derivations and the insertion delta semi-naively.
//! * **Recompute** (grouping strata): an aggregate can change without
//!   its inputs identifying which group key is affected cheaply; the
//!   grouping rule's output is recomputed wholesale — work bounded by
//!   the rule's input, and groups re-emit in sorted group-key order
//!   exactly as from scratch.
//!
//! **Determinism contract.** Derivation order is inherently
//! path-dependent: a retraction can change which derivation of an
//! unchanged tuple comes first, so no delta-proportional algorithm can
//! reproduce from-scratch *insertion* order. The engine therefore keeps
//! every derived relation in *canonical* order (ascending by `Term`'s
//! total order — [`Relation::canonicalize`]) after initial evaluation
//! and after every `apply_delta`. Under that contract the guarantee is
//! exact: any sequence of updates arriving at the same EDB state yields
//! bit-for-bit identical derived relations — rows *and* row order —
//! across maintenance vs. from-scratch construction, any thread count,
//! and any access-path policy.

use crate::driver::{
    eval_stratum, insert_round, propagate, seed_derived, seed_relation, strata, EvalCtx, Mode,
    Stratum,
};
use crate::metrics::Metrics;
use crate::naive::FixpointConfig;
use crate::parallel::Firing;
use crate::rule_eval::{eval_rule_with, OverlaySource};
use ldl_core::unify::Subst;
use ldl_core::{LdlError, Literal, Pred, Program, Result};
use ldl_index::IndexCatalog;
use ldl_storage::{Database, Relation, SupportCounts, Tuple};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A batch of base-relation updates: inserts and retracts per
/// predicate. Within one batch retracts apply before inserts; a tuple
/// both retracted and inserted is a no-op. Retracting an absent tuple
/// and inserting a present one are no-ops too (set semantics), dropped
/// during normalization so they cost nothing downstream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdbDelta {
    inserts: BTreeMap<Pred, Vec<Tuple>>,
    retracts: BTreeMap<Pred, Vec<Tuple>>,
}

impl EdbDelta {
    /// Empty batch.
    pub fn new() -> EdbDelta {
        EdbDelta::default()
    }

    /// Stages an insert.
    pub fn insert(&mut self, pred: Pred, t: Tuple) -> &mut EdbDelta {
        self.inserts.entry(pred).or_default().push(t);
        self
    }

    /// Stages a retract.
    pub fn retract(&mut self, pred: Pred, t: Tuple) -> &mut EdbDelta {
        self.retracts.entry(pred).or_default().push(t);
        self
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }

    /// Number of staged operations (inserts + retracts).
    pub fn len(&self) -> usize {
        self.inserts.values().map(Vec::len).sum::<usize>()
            + self.retracts.values().map(Vec::len).sum::<usize>()
    }

    /// Every predicate the batch mentions.
    pub fn preds(&self) -> BTreeSet<Pred> {
        self.inserts
            .keys()
            .chain(self.retracts.keys())
            .copied()
            .collect()
    }

    /// Staged inserts, per predicate.
    pub fn staged_inserts(&self) -> impl Iterator<Item = (Pred, &[Tuple])> {
        self.inserts.iter().map(|(&p, ts)| (p, ts.as_slice()))
    }

    /// Staged retracts, per predicate.
    pub fn staged_retracts(&self) -> impl Iterator<Item = (Pred, &[Tuple])> {
        self.retracts.iter().map(|(&p, ts)| (p, ts.as_slice()))
    }
}

/// What one [`Engine::apply_delta`] call did.
#[derive(Clone, Debug, Default)]
pub struct MaintenanceReport {
    /// Base tuples actually inserted (after no-op normalization).
    pub base_inserted: usize,
    /// Base tuples actually retracted.
    pub base_retracted: usize,
    /// Net derived tuples inserted across all strata.
    pub derived_inserted: usize,
    /// Net derived tuples retracted across all strata.
    pub derived_retracted: usize,
    /// Strata whose inputs changed (they did work).
    pub groups_touched: usize,
    /// Strata skipped because no input of theirs changed.
    pub groups_skipped: usize,
    /// Net per-predicate derived changes, in stratum order:
    /// `(predicate, inserted, retracted)`.
    pub changes: Vec<(Pred, usize, usize)>,
    /// Work metrics of the delta rules that ran.
    pub metrics: Metrics,
}

/// What flows through the strata during one `apply_delta`: normalized
/// per-predicate deltas (entries are always non-empty relations) and
/// the pre-update relation of every predicate changed so far — base
/// pre-images first, each repaired stratum adding its own.
#[derive(Default)]
struct DeltaState {
    minus: HashMap<Pred, Relation>,
    plus: HashMap<Pred, Relation>,
    old: HashMap<Pred, Relation>,
}

impl DeltaState {
    fn touches(&self, p: Pred) -> bool {
        self.minus.contains_key(&p) || self.plus.contains_key(&p)
    }
}

/// An evaluated program whose derived relations can be repaired
/// incrementally as base relations change. Build one with
/// [`Engine::evaluate`], then feed it [`EdbDelta`] batches through
/// [`Engine::apply_delta`].
pub struct Engine {
    program: Program,
    db: Database,
    cfg: FixpointConfig,
    strata: Vec<Stratum>,
    /// The program never changes, so its selected-index catalog is
    /// solved once and borrowed by every evaluation and repair.
    catalog: Option<IndexCatalog>,
    derived: HashMap<Pred, Relation>,
    support: HashMap<Pred, SupportCounts>,
    eval_metrics: Metrics,
}

impl Engine {
    /// Evaluates `program` against `db` from scratch and returns the
    /// maintainable engine. Derived relations come out in canonical
    /// order (see the module docs); non-recursive strata additionally
    /// get their [`SupportCounts`] populated.
    pub fn evaluate(program: &Program, db: &Database, cfg: &FixpointConfig) -> Result<Engine> {
        let mut engine = Engine {
            program: program.clone(),
            db: db.clone(),
            cfg: cfg.clone(),
            strata: strata(program)?,
            catalog: cfg.catalog(program),
            derived: HashMap::new(),
            support: HashMap::new(),
            eval_metrics: Metrics::default(),
        };
        engine.full_eval()?;
        Ok(engine)
    }

    /// The engine's program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The engine's base relations (current EDB state).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Gives the base relations back, dropping the maintained state.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// The relation backing `p`: derived if `p` has rules, else base.
    pub fn relation(&self, p: Pred) -> Option<&Relation> {
        self.derived.get(&p).or_else(|| self.db.relation(p))
    }

    /// All maintained derived relations.
    pub fn derived(&self) -> &HashMap<Pred, Relation> {
        &self.derived
    }

    /// The derivation count of `t` in `p`'s support table, when `p`
    /// belongs to a counting (non-recursive, non-grouping) stratum.
    pub fn support_count(&self, p: Pred, t: &Tuple) -> Option<u64> {
        self.support.get(&p).map(|s| s.get(t))
    }

    /// Metrics of the initial from-scratch evaluation.
    pub fn eval_metrics(&self) -> Metrics {
        self.eval_metrics
    }

    /// Query answers against the maintained state: the goal's relation
    /// filtered by the goal's ground arguments, by membership lookup or
    /// index probe where they allow ([`crate::engine::answer_goal`]).
    pub fn answers(&self, query: &ldl_core::Query) -> Relation {
        crate::engine::answer_goal(self.relation(query.pred()), query)
    }

    /// From-scratch evaluation of every stratum, populating `derived`
    /// and, for counting strata, `support`.
    fn full_eval(&mut self) -> Result<()> {
        let Engine {
            program,
            db,
            cfg,
            strata,
            catalog,
            derived,
            support,
            eval_metrics,
        } = self;
        let ctx = EvalCtx::new(program, db, cfg, catalog);
        let mut metrics = Metrics::default();
        *derived = seed_derived(program, db);
        for stratum in strata.iter() {
            if !stratum.recursive && !stratum.grouping {
                for &p in &stratum.preds {
                    // Asserted facts are axioms: one derivation each.
                    let mut sup = SupportCounts::new();
                    for t in derived[&p].rows() {
                        sup.add(t, 1);
                    }
                    support.insert(p, sup);
                }
            }
            // Every produced tuple is one derivation of it.
            let mut count = |p: Pred, t: &Tuple, _new: bool| {
                if let Some(sup) = support.get_mut(&p) {
                    sup.add(t, 1);
                }
            };
            eval_stratum(
                &ctx,
                stratum,
                Mode::SemiNaive,
                derived,
                &mut metrics,
                &mut count,
            )?;
        }
        for rel in derived.values_mut() {
            rel.canonicalize();
        }
        for (p, sup) in support.iter_mut() {
            sup.set_synced(derived[p].version());
        }
        *eval_metrics = metrics;
        Ok(())
    }

    /// Checks that a staged batch is applicable without mutating
    /// anything: no derived or reserved predicates, arities match.
    /// `apply_delta` runs the same checks first; services can call this
    /// on stage so a bad fact is rejected before it reaches a commit.
    pub fn validate_delta(&self, delta: &EdbDelta) -> Result<()> {
        let derived_preds = self.program.derived_preds();
        let member = Pred::new("member", 2);
        for (p, ts) in delta.retracts.iter().chain(delta.inserts.iter()) {
            if derived_preds.contains(p) {
                return Err(LdlError::Eval(format!(
                    "cannot apply an EDB delta to derived predicate {p}"
                )));
            }
            if *p == member {
                return Err(LdlError::Eval(
                    "member/2 is a reserved set predicate".into(),
                ));
            }
            for t in ts {
                if t.arity() != p.arity {
                    return Err(LdlError::Eval(format!(
                        "delta tuple {t} has arity {} but {p} expects {}",
                        t.arity(),
                        p.arity
                    )));
                }
            }
        }
        Ok(())
    }

    /// Applies one update batch: mutates the base relations, then
    /// repairs every affected stratum bottom-up. Untouched strata cost
    /// nothing. Derived relations come out canonical, bit-for-bit
    /// identical to a fresh [`Engine::evaluate`] over the updated EDB.
    ///
    /// **Atomicity:** on `Err` the engine is exactly as it was — the
    /// batch is validated before any mutation, and if a maintenance
    /// stratum fails mid-repair the touched base relations are restored
    /// and the derived state rebuilt by a deterministic from-scratch
    /// pass over the restored EDB, which reproduces the pre-delta state
    /// bit-for-bit (the canonical-order contract).
    pub fn apply_delta(&mut self, delta: &EdbDelta) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        self.validate_delta(delta)?;

        // Normalize to net per-predicate deltas against the current EDB:
        // retracts of present tuples (unless re-inserted in the same
        // batch), inserts of absent tuples.
        let mut deltas = DeltaState::default();
        for (&p, ts) in &delta.retracts {
            let Some(rel) = self.db.relation(p) else {
                continue;
            };
            let reinserted = delta.inserts.get(&p);
            let mut d = Relation::new(p.arity);
            for t in ts {
                if rel.contains(t) && !reinserted.is_some_and(|ins| ins.contains(t)) {
                    d.insert(t.clone());
                }
            }
            if !d.is_empty() {
                deltas.minus.insert(p, d);
            }
        }
        for (&p, ts) in &delta.inserts {
            let cur = self.db.relation(p);
            let mut d = Relation::new(p.arity);
            for t in ts {
                if !cur.is_some_and(|r| r.contains(t)) {
                    d.insert(t.clone());
                }
            }
            if !d.is_empty() {
                deltas.plus.insert(p, d);
            }
        }
        let touched: BTreeSet<Pred> = deltas
            .minus
            .keys()
            .chain(deltas.plus.keys())
            .copied()
            .collect();
        if touched.is_empty() {
            report.groups_skipped = self.strata.len();
            return Ok(report);
        }

        // Snapshot old states, then commit to the base relations.
        for &p in &touched {
            let rel = self.db.relation_mut(p);
            deltas.old.insert(p, rel.clone());
            if let Some(d) = deltas.minus.get(&p) {
                report.base_retracted += rel.remove_batch(d.rows());
            }
            if let Some(d) = deltas.plus.get(&p) {
                report.base_inserted += rel.extend(d.rows().iter().cloned());
            }
        }

        match self.repair_strata(&mut deltas, &mut report) {
            Ok(()) => Ok(report),
            Err(e) => {
                // Roll back: take the base pre-images back out of the
                // old-state map (repairs only ever add derived
                // predicates to it), then rebuild derived relations and
                // support counts from scratch over the restored EDB.
                // Evaluation is deterministic, so this reproduces the
                // pre-delta state bit-for-bit.
                for p in touched {
                    let rel = deltas.old.remove(&p).expect("base pre-image");
                    self.db.set_relation(p, rel);
                }
                self.full_eval().map_err(|re| {
                    LdlError::Eval(format!(
                        "rollback re-evaluation failed after maintenance error ({e}): {re}"
                    ))
                })?;
                Err(e)
            }
        }
    }

    /// The repair loop of [`Engine::apply_delta`]: walks strata
    /// bottom-up, skipping any whose body predicates are untouched.
    /// Recursive cliques run DRed, grouping strata recompute, every
    /// other stratum counts derivations.
    fn repair_strata(
        &mut self,
        deltas: &mut DeltaState,
        report: &mut MaintenanceReport,
    ) -> Result<()> {
        let Engine {
            program,
            db,
            cfg,
            strata,
            catalog,
            derived,
            support,
            ..
        } = self;
        let ctx = EvalCtx::new(program, db, cfg, catalog);
        for stratum in strata.iter() {
            let touched = stratum.rules.iter().any(|&ri| {
                ctx.program.rules[ri]
                    .body
                    .iter()
                    .filter_map(Literal::as_atom)
                    .any(|a| deltas.touches(a.pred))
            });
            if !touched {
                report.groups_skipped += 1;
                continue;
            }
            report.groups_touched += 1;
            if stratum.recursive {
                maintain_dred(&ctx, stratum, derived, deltas, report)?;
            } else if stratum.grouping {
                maintain_recompute(&ctx, stratum, derived, deltas, report)?;
            } else {
                maintain_counting(&ctx, stratum, derived, support, deltas, report)?;
            }
        }
        Ok(())
    }
}

/// Which side of the change a delta round computes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Derivations lost: positive occurrences read the retract delta,
    /// negated occurrences the insert delta.
    Destructive,
    /// Derivations gained: the mirror image.
    Constructive,
}

/// Which non-delta occurrences of changed predicates read the *old*
/// state in a delta firing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OldSpan {
    /// Occurrences after the delta position — the exact finite
    /// differencing used by counting maintenance.
    Suffix,
    /// Every other occurrence — DRed's over-deletion, evaluated
    /// entirely over the pre-update state.
    All,
    /// None: everything else reads the current state (insertion
    /// propagation, where over-enumeration is harmless).
    None,
}

/// Builds the delta firings of `stratum`'s rules for one direction: one
/// firing per body occurrence of a predicate with a relevant delta in
/// `minus`/`plus`, the occurrence reading the delta relation (a negated
/// one flipped positive so the delta enumerates) and other
/// changed-predicate occurrences reading `old` state per `old_span`.
fn delta_firings<'a>(
    program: &'a Program,
    stratum: &Stratum,
    minus: &'a HashMap<Pred, Relation>,
    plus: &'a HashMap<Pred, Relation>,
    old: &'a HashMap<Pred, Relation>,
    dir: Dir,
    old_span: OldSpan,
) -> Vec<Firing<'a>> {
    let member = Pred::new("member", 2);
    let mut firings = Vec::new();
    for &ri in &stratum.rules {
        let rule = &program.rules[ri];
        for (k, lit) in rule.body.iter().enumerate() {
            let Some(a) = lit.as_atom() else { continue };
            if a.pred == member {
                continue;
            }
            let drel = match (dir, a.negated) {
                (Dir::Destructive, false) | (Dir::Constructive, true) => minus.get(&a.pred),
                (Dir::Destructive, true) | (Dir::Constructive, false) => plus.get(&a.pred),
            };
            let Some(drel) = drel.filter(|r| !r.is_empty()) else {
                continue;
            };
            let mut frule = Cow::Borrowed(rule);
            if a.negated {
                if let Literal::Atom(fa) = &mut frule.to_mut().body[k] {
                    fa.negated = false;
                }
            }
            let mut overrides = vec![(k, drel)];
            if old_span != OldSpan::None {
                for (j, l2) in rule.body.iter().enumerate() {
                    if j == k || (old_span == OldSpan::Suffix && j < k) {
                        continue;
                    }
                    if let Some(o) = l2.as_atom().and_then(|a2| old.get(&a2.pred)) {
                        overrides.push((j, o));
                    }
                }
            }
            firings.push(Firing {
                rule: frule,
                overrides,
            });
        }
    }
    firings
}

/// Runs one round of maintenance firings, adding its work to `metrics`.
fn run_firings(
    ctx: &EvalCtx<'_>,
    firings: &[Firing<'_>],
    derived: &HashMap<Pred, Relation>,
    metrics: &mut Metrics,
) -> Result<Vec<(Pred, Tuple)>> {
    let (out, m) = ctx.round(firings, derived)?;
    metrics.absorb(m);
    Ok(out)
}

/// Maintenance reports count rule work only: rounds and first-time
/// derivations are properties of a from-scratch evaluation.
fn work_only(m: Metrics) -> Metrics {
    Metrics {
        tuples_produced: m.tuples_produced,
        rule_firings: m.rule_firings,
        ..Metrics::default()
    }
}

/// Records a stratum's net changes into the flowing delta state and the
/// report.
fn commit_stratum_delta(
    p: Pred,
    out_minus: Relation,
    out_plus: Relation,
    deltas: &mut DeltaState,
    report: &mut MaintenanceReport,
) {
    if out_minus.is_empty() && out_plus.is_empty() {
        return;
    }
    report.derived_inserted += out_plus.len();
    report.derived_retracted += out_minus.len();
    report.changes.push((p, out_plus.len(), out_minus.len()));
    if !out_minus.is_empty() {
        deltas.minus.insert(p, out_minus);
    }
    if !out_plus.is_empty() {
        deltas.plus.insert(p, out_plus);
    }
}

/// Counting maintenance of one non-recursive stratum: exact lost/gained
/// derivation multisets via finite differencing, committed as
/// `new count = old + gained - lost`.
fn maintain_counting(
    ctx: &EvalCtx<'_>,
    stratum: &Stratum,
    derived: &mut HashMap<Pred, Relation>,
    support: &mut HashMap<Pred, SupportCounts>,
    deltas: &mut DeltaState,
    report: &mut MaintenanceReport,
) -> Result<()> {
    debug_assert_eq!(
        stratum.preds.len(),
        1,
        "non-recursive strata are singletons"
    );
    let p = stratum.preds[0];
    let mut side = |dir: Dir| {
        let DeltaState { minus, plus, old } = &*deltas;
        let firings = delta_firings(ctx.program, stratum, minus, plus, old, dir, OldSpan::Suffix);
        run_firings(ctx, &firings, derived, &mut report.metrics)
    };
    let lost = side(Dir::Destructive)?;
    let gained = side(Dir::Constructive)?;
    if lost.is_empty() && gained.is_empty() {
        return Ok(());
    }
    let mut loss: HashMap<&Tuple, u64> = HashMap::new();
    for (_, t) in &lost {
        *loss.entry(t).or_insert(0) += 1;
    }
    let mut gain: HashMap<&Tuple, u64> = HashMap::new();
    for (_, t) in &gained {
        *gain.entry(t).or_insert(0) += 1;
    }
    let rel = derived.get_mut(&p).expect("derived relation");
    let sup = support.get_mut(&p).expect("support counts");
    debug_assert_eq!(
        sup.synced_version(),
        rel.version(),
        "support counts out of sync with {p}"
    );
    let before_rel = rel.clone();
    let mut out_minus = Relation::new(p.arity);
    let mut out_plus = Relation::new(p.arity);
    let mut handled: HashSet<&Tuple> = HashSet::new();
    for (_, t) in lost.iter().chain(gained.iter()) {
        if !handled.insert(t) {
            continue;
        }
        let l = loss.get(t).copied().unwrap_or(0);
        let g = gain.get(t).copied().unwrap_or(0);
        let before = sup.get(t);
        debug_assert!(
            before + g >= l,
            "support underflow for {t}: {before} + {g} < {l}"
        );
        let after = (before + g).saturating_sub(l);
        sup.set(t, after);
        if before > 0 && after == 0 {
            out_minus.insert(t.clone());
        } else if before == 0 && after > 0 {
            rel.insert(t.clone());
            out_plus.insert(t.clone());
        }
    }
    // One batched pass: per-tuple `remove` would repack the row store
    // (and bump the version) once per departure.
    rel.remove_batch(out_minus.rows());
    rel.canonicalize();
    sup.set_synced(rel.version());
    if !out_minus.is_empty() || !out_plus.is_empty() {
        deltas.old.insert(p, before_rel);
    }
    commit_stratum_delta(p, out_minus, out_plus, deltas, report);
    Ok(())
}

/// Recompute maintenance of one grouping stratum: re-run its rules
/// against the updated inputs (work bounded by the rule input, not the
/// database) and diff against the previous output. Groups re-emit in
/// sorted group-key order because the replacement is canonicalized like
/// every maintained relation.
fn maintain_recompute(
    ctx: &EvalCtx<'_>,
    stratum: &Stratum,
    derived: &mut HashMap<Pred, Relation>,
    deltas: &mut DeltaState,
    report: &mut MaintenanceReport,
) -> Result<()> {
    // The stratum's rules never read its own predicates, so swapping the
    // seed relations in and running the driver's single pass recomputes
    // them in place; the previous output is held aside for the diff.
    let mut previous: HashMap<Pred, Relation> = HashMap::new();
    for &p in &stratum.preds {
        let out = derived.insert(p, seed_relation(ctx.db, p));
        previous.insert(p, out.expect("derived relation"));
    }
    let mut metrics = Metrics::default();
    eval_stratum(
        ctx,
        stratum,
        Mode::SemiNaive,
        derived,
        &mut metrics,
        &mut |_, _, _| {},
    )?;
    report.metrics.absorb(work_only(metrics));
    for &p in &stratum.preds {
        let old_rel = previous.remove(&p).expect("stratum relation");
        let new_rel = derived.get_mut(&p).expect("derived relation");
        new_rel.canonicalize();
        let mut out_minus = Relation::new(p.arity);
        for t in old_rel.rows() {
            if !new_rel.contains(t) {
                out_minus.insert(t.clone());
            }
        }
        let mut out_plus = Relation::new(p.arity);
        for t in new_rel.rows() {
            if !old_rel.contains(t) {
                out_plus.insert(t.clone());
            }
        }
        if out_minus.is_empty() && out_plus.is_empty() {
            *new_rel = old_rel; // same set: keep the existing canonical relation
            continue;
        }
        deltas.old.insert(p, old_rel);
        commit_stratum_delta(p, out_minus, out_plus, deltas, report);
    }
    Ok(())
}

/// DRed maintenance of one recursive clique: over-delete the deletion
/// fixpoint (evaluated over the pre-update state), re-derive
/// over-deleted tuples that still have an immediate derivation from the
/// surviving state, then propagate re-derivations and the insertion
/// delta semi-naively over the current state.
fn maintain_dred(
    ctx: &EvalCtx<'_>,
    stratum: &Stratum,
    derived: &mut HashMap<Pred, Relation>,
    deltas: &mut DeltaState,
    report: &mut MaintenanceReport,
) -> Result<()> {
    let empty: HashMap<Pred, Relation> = HashMap::new();
    // Pre-update snapshot: phase A's evaluation state, the downstream
    // strata's old state, and the baseline the net delta is diffed from.
    for &p in &stratum.preds {
        deltas.old.insert(p, derived[&p].clone());
    }
    let DeltaState { minus, plus, old } = &*deltas;

    // --- Phase A: over-deletion fixpoint over the old state. ---
    let mut overdeleted = stratum.empty_relations();
    let firings = delta_firings(
        ctx.program,
        stratum,
        minus,
        plus,
        old,
        Dir::Destructive,
        OldSpan::All,
    );
    let mut pending = run_firings(ctx, &firings, derived, &mut report.metrics)?;
    let mut iters = 0usize;
    loop {
        let mut round_del = stratum.empty_relations();
        for (p, t) in pending {
            // Phase A evaluates entirely over the `old` overrides, so
            // `derived` stays untouched until the fixpoint settles —
            // "already over-deleted" is tracked in `overdeleted`.
            if overdeleted[&p].contains(&t) {
                continue;
            }
            if !derived.get(&p).expect("clique relation").contains(&t) {
                continue;
            }
            // Asserted facts are axioms, never over-deleted.
            if ctx.db.relation(p).is_some_and(|r| r.contains(&t)) {
                continue;
            }
            overdeleted.get_mut(&p).expect("clique").insert(t.clone());
            round_del.get_mut(&p).expect("clique").insert(t);
        }
        if round_del.values().all(|r| r.is_empty()) {
            break;
        }
        iters += 1;
        ctx.check_bound(iters, "DRed over-deletion", &stratum.preds)?;
        let firings = delta_firings(
            ctx.program,
            stratum,
            &round_del,
            &empty,
            old,
            Dir::Destructive,
            OldSpan::All,
        );
        pending = run_firings(ctx, &firings, derived, &mut report.metrics)?;
    }

    // Apply the over-deletion in one batched pass per predicate: the
    // fixpoint above never reads `derived` for clique predicates (every
    // occurrence reads `old`), so deferring the removal changes nothing
    // except the number of row-store repacks (one instead of one per
    // over-deleted tuple).
    for (&p, dels) in &overdeleted {
        if !dels.is_empty() {
            derived
                .get_mut(&p)
                .expect("clique relation")
                .remove_batch(dels.rows());
        }
    }

    // --- Phase B: re-derive survivors from the post-deletion state. ---
    let mut round_ins = stratum.empty_relations();
    for &p in &stratum.preds {
        for t in overdeleted[&p].rows() {
            if has_immediate_derivation(ctx, stratum, p, t, derived)? {
                round_ins.get_mut(&p).expect("clique").insert(t.clone());
            }
        }
    }
    for (p, rederived) in &round_ins {
        let rel = derived.get_mut(p).expect("clique relation");
        rel.extend(rederived.rows().iter().cloned());
    }

    // --- Phase C: seed new derivations from the incoming constructive
    // deltas, then propagate everything semi-naively — the driver's
    // differential loop, started from this delta instead of an exit
    // round. ---
    let firings = delta_firings(
        ctx.program,
        stratum,
        minus,
        plus,
        old,
        Dir::Constructive,
        OldSpan::None,
    );
    let seeded = run_firings(ctx, &firings, derived, &mut report.metrics)?;
    let mut out_plus = stratum.empty_relations();
    let mut note_new = |p: Pred, t: &Tuple, new: bool| {
        if new && !old[&p].contains(t) {
            out_plus.get_mut(&p).expect("clique").insert(t.clone());
        }
    };
    let mut metrics = Metrics::default();
    insert_round(
        seeded,
        derived,
        &mut metrics,
        &mut note_new,
        Some(&mut round_ins),
    );
    propagate(
        ctx,
        stratum,
        "DRed insertion propagation",
        derived,
        round_ins,
        &mut metrics,
        &mut note_new,
    )?;
    report.metrics.absorb(work_only(metrics));

    // --- Net deltas and canonical order. ---
    for &p in &stratum.preds {
        let rel = derived.get_mut(&p).expect("clique relation");
        let mut out_minus = Relation::new(p.arity);
        for t in overdeleted[&p].rows() {
            if !rel.contains(t) {
                out_minus.insert(t.clone());
            }
        }
        rel.canonicalize();
        let plus = out_plus.remove(&p).expect("clique");
        commit_stratum_delta(p, out_minus, plus, deltas, report);
    }
    Ok(())
}

/// Does `t` have an immediate derivation through any of the stratum's
/// rules for head predicate `p`, evaluated against the current state?
/// Unifies the rule head with `t` and runs the body from that seed —
/// the selective, index-probed backward check DRed's re-derivation
/// phase needs (one seeded probe per tuple, not a round of firings).
fn has_immediate_derivation(
    ctx: &EvalCtx<'_>,
    stratum: &Stratum,
    p: Pred,
    t: &Tuple,
    derived: &HashMap<Pred, Relation>,
) -> Result<bool> {
    let source = OverlaySource {
        base: |q: Pred| derived.get(&q).or_else(|| ctx.db.relation(q)),
        overrides: &[],
    };
    for &ri in &stratum.rules {
        let rule = &ctx.program.rules[ri];
        if rule.head.pred != p {
            continue;
        }
        let mut seed = Subst::new();
        if !rule
            .head
            .args
            .iter()
            .zip(&t.0)
            .all(|(pat, val)| seed.unify(pat, val))
        {
            continue;
        }
        let order: Vec<usize> = (0..rule.body.len()).collect();
        let mut found = false;
        eval_rule_with(rule, &order, &seed, &source, ctx.plan, &mut |_| {
            found = true;
        })?;
        if found {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::{parse_program, parse_query};
    use ldl_core::Term;

    fn t(vals: &[i64]) -> Tuple {
        Tuple(vals.iter().map(|&v| Term::int(v)).collect())
    }

    fn engine(text: &str, cfg: &FixpointConfig) -> Engine {
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        Engine::evaluate(&program, &db, cfg).unwrap()
    }

    fn scratch_rows(engine: &Engine, p: &str, arity: usize) -> Vec<Tuple> {
        // From-scratch reference over the engine's current EDB.
        let fresh = Engine::evaluate(
            engine.program(),
            engine.database(),
            &FixpointConfig::serial(),
        )
        .unwrap();
        fresh
            .relation(Pred::new(p, arity))
            .map(|r| r.rows().to_vec())
            .unwrap_or_default()
    }

    /// Retracting one of two derivations decrements the count but keeps
    /// the tuple; retracting the second removes it.
    #[test]
    fn retract_with_surviving_derivation_keeps_tuple() {
        let mut e = engine(
            "a(1, 2).\nb(1, 2).\np(X, Y) <- a(X, Y).\np(X, Y) <- b(X, Y).",
            &FixpointConfig::serial(),
        );
        let p = Pred::new("p", 2);
        assert_eq!(e.support_count(p, &t(&[1, 2])), Some(2));

        let mut d = EdbDelta::new();
        d.retract(Pred::new("a", 2), t(&[1, 2]));
        let report = e.apply_delta(&d).unwrap();
        assert_eq!(report.base_retracted, 1);
        assert_eq!(report.derived_retracted, 0, "tuple must survive");
        assert_eq!(e.support_count(p, &t(&[1, 2])), Some(1));
        assert_eq!(e.relation(p).unwrap().rows(), &[t(&[1, 2])]);

        let mut d = EdbDelta::new();
        d.retract(Pred::new("b", 2), t(&[1, 2]));
        let report = e.apply_delta(&d).unwrap();
        assert_eq!(report.derived_retracted, 1);
        assert_eq!(e.support_count(p, &t(&[1, 2])), Some(0));
        assert!(e.relation(p).unwrap().is_empty());
    }

    /// Deleting an edge inside a recursive clique keeps closure tuples
    /// that an alternate path re-derives (DRed phase B).
    #[test]
    fn dred_rederives_alternate_path() {
        let text = "e(1, 2).\ne(2, 3).\ne(1, 3).\n\
                    tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).";
        let mut e = engine(text, &FixpointConfig::serial());
        let tc = Pred::new("tc", 2);
        assert_eq!(e.relation(tc).unwrap().len(), 3);

        // tc(1,3) is over-deleted with tc(2,3) but survives via e(1,3).
        let mut d = EdbDelta::new();
        d.retract(Pred::new("e", 2), t(&[2, 3]));
        let report = e.apply_delta(&d).unwrap();
        assert_eq!(report.derived_retracted, 1, "only tc(2,3) goes");
        assert_eq!(e.relation(tc).unwrap().rows(), &[t(&[1, 2]), t(&[1, 3])]);
        assert_eq!(e.relation(tc).unwrap().rows(), scratch_rows(&e, "tc", 2));
    }

    /// Retracting an absent tuple is a no-op: no underflow, no stratum
    /// work, relations untouched.
    #[test]
    fn retract_absent_is_noop() {
        let mut e = engine("e(1, 2).\np(X, Y) <- e(X, Y).", &FixpointConfig::serial());
        let before = e.relation(Pred::new("p", 2)).unwrap().clone();
        let mut d = EdbDelta::new();
        d.retract(Pred::new("e", 2), t(&[9, 9]));
        let report = e.apply_delta(&d).unwrap();
        assert_eq!(report.base_retracted, 0);
        assert_eq!(report.groups_touched, 0);
        assert_eq!(report.groups_skipped, 1);
        assert_eq!(e.relation(Pred::new("p", 2)).unwrap(), &before);
        assert_eq!(e.support_count(Pred::new("p", 2), &t(&[1, 2])), Some(1));
    }

    /// Duplicate inserts in one batch and re-inserts of present tuples
    /// collapse under set semantics: counts stay capped.
    #[test]
    fn duplicate_insert_is_capped() {
        let mut e = engine("e(1, 2).\np(X, Y) <- e(X, Y).", &FixpointConfig::serial());
        let p = Pred::new("p", 2);
        let mut d = EdbDelta::new();
        d.insert(Pred::new("e", 2), t(&[3, 4]));
        d.insert(Pred::new("e", 2), t(&[3, 4])); // duplicate in-batch
        d.insert(Pred::new("e", 2), t(&[1, 2])); // already present
        let report = e.apply_delta(&d).unwrap();
        assert_eq!(report.base_inserted, 1);
        assert_eq!(report.derived_inserted, 1);
        assert_eq!(e.support_count(p, &t(&[3, 4])), Some(1));
        assert_eq!(e.support_count(p, &t(&[1, 2])), Some(1));
        assert_eq!(e.database().relation(Pred::new("e", 2)).unwrap().len(), 2);
    }

    /// An update flipping a stratified-negation subgoal retracts and
    /// later re-derives the dependent tuple.
    #[test]
    fn negation_subgoal_flip() {
        let text = "e(1, 2).\nbad(9).\np(X) <- e(X, Y), ~bad(Y).";
        let mut e = engine(text, &FixpointConfig::serial());
        let p = Pred::new("p", 1);
        assert_eq!(e.relation(p).unwrap().rows(), &[t(&[1])]);

        // bad(2) arrives: the negated subgoal now fails.
        let mut d = EdbDelta::new();
        d.insert(Pred::new("bad", 1), t(&[2]));
        let report = e.apply_delta(&d).unwrap();
        assert_eq!(report.derived_retracted, 1);
        assert!(e.relation(p).unwrap().is_empty());
        assert_eq!(e.relation(p).unwrap().rows(), scratch_rows(&e, "p", 1));

        // bad(2) leaves: the derivation comes back.
        let mut d = EdbDelta::new();
        d.retract(Pred::new("bad", 1), t(&[2]));
        let report = e.apply_delta(&d).unwrap();
        assert_eq!(report.derived_inserted, 1);
        assert_eq!(e.relation(p).unwrap().rows(), &[t(&[1])]);
        assert_eq!(e.support_count(p, &t(&[1])), Some(1));
    }

    /// A retraction that changes a group's aggregate re-emits the
    /// grouping stratum in sorted group-key order.
    #[test]
    fn grouping_reemits_sorted_after_retract() {
        let text = "s(2, 20).\ns(1, 10).\ns(1, 30).\ng(X, <Y>) <- s(X, Y).";
        let mut e = engine(text, &FixpointConfig::serial());
        let g = Pred::new("g", 2);
        assert_eq!(e.relation(g).unwrap().len(), 2);

        let mut d = EdbDelta::new();
        d.retract(Pred::new("s", 2), t(&[1, 30]));
        let report = e.apply_delta(&d).unwrap();
        // The key-1 set changed: old aggregate out, new aggregate in.
        assert_eq!(report.derived_retracted, 1);
        assert_eq!(report.derived_inserted, 1);
        let rows = e.relation(g).unwrap().rows().to_vec();
        assert_eq!(rows, scratch_rows(&e, "g", 2), "canonical order restored");
        assert!(
            rows.windows(2).all(|w| w[0].0 <= w[1].0),
            "sorted group keys"
        );

        // Retracting a group's last member drops the group entirely.
        let mut d = EdbDelta::new();
        d.retract(Pred::new("s", 2), t(&[1, 10]));
        e.apply_delta(&d).unwrap();
        assert_eq!(e.relation(g).unwrap().len(), 1);
        assert_eq!(e.relation(g).unwrap().rows(), scratch_rows(&e, "g", 2));
    }

    /// Deltas aimed at derived predicates or with wrong arity are
    /// rejected before any state changes.
    #[test]
    fn invalid_deltas_rejected() {
        let mut e = engine("e(1, 2).\np(X, Y) <- e(X, Y).", &FixpointConfig::serial());
        let mut d = EdbDelta::new();
        d.insert(Pred::new("p", 2), t(&[3, 4]));
        assert!(e.apply_delta(&d).is_err(), "derived predicate");
        let mut d = EdbDelta::new();
        d.insert(Pred::new("e", 2), t(&[3]));
        assert!(e.apply_delta(&d).is_err(), "arity mismatch");
        assert_eq!(e.database().relation(Pred::new("e", 2)).unwrap().len(), 1);
    }

    /// The same update stream maintained at 1 and 4 threads, under both
    /// Selected and ForceScan access paths, stays bit-for-bit identical
    /// to from-scratch evaluation.
    #[test]
    fn maintained_matches_scratch_across_threads_and_plans() {
        use crate::naive::AccessPaths;
        let text = "e(0, 1).\ne(1, 2).\ne(2, 3).\ne(3, 0).\ne(1, 4).\n\
                    tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                    q(X) <- tc(X, 4), ~tc(4, X).";
        let cfgs = [
            FixpointConfig::serial(),
            FixpointConfig::serial().with_threads(4),
            FixpointConfig::serial().with_access_paths(AccessPaths::ForceScan),
            FixpointConfig::serial()
                .with_threads(4)
                .with_access_paths(AccessPaths::ForceScan),
        ];
        let mut engines: Vec<Engine> = cfgs.iter().map(|c| engine(text, c)).collect();
        let ops: Vec<(bool, i64, i64)> = vec![
            (true, 4, 0),
            (false, 1, 2),
            (true, 2, 1),
            (false, 3, 0),
            (true, 0, 3),
            (false, 1, 4),
            (true, 1, 2),
        ];
        let ep = Pred::new("e", 2);
        for (ins, a, b) in ops {
            let mut d = EdbDelta::new();
            if ins {
                d.insert(ep, t(&[a, b]));
            } else {
                d.retract(ep, t(&[a, b]));
            }
            for e in engines.iter_mut() {
                e.apply_delta(&d).unwrap();
            }
            let reference = Engine::evaluate(
                engines[0].program(),
                engines[0].database(),
                &FixpointConfig::serial(),
            )
            .unwrap();
            for (i, e) in engines.iter().enumerate() {
                for pname in [("tc", 2), ("q", 1)] {
                    let p = Pred::new(pname.0, pname.1);
                    assert_eq!(
                        e.relation(p).unwrap(),
                        reference.relation(p).unwrap(),
                        "cfg {i} diverged on {}",
                        pname.0
                    );
                }
            }
            // Query answers agree with the one-shot evaluator too.
            let q = parse_query("tc(1, Y)?").unwrap();
            let via_engine = engines[0].answers(&q);
            let mut via_eval = crate::engine::evaluate_query(
                engines[0].program(),
                engines[0].database(),
                &q,
                crate::engine::Method::SemiNaive,
                &FixpointConfig::serial(),
            )
            .unwrap()
            .tuples;
            via_eval.canonicalize();
            assert_eq!(via_engine, via_eval);
        }
    }

    /// A batch that fails validation leaves engine, database, and the
    /// caller's staged delta untouched (nothing was consumed).
    #[test]
    fn failed_validation_mutates_nothing() {
        let mut e = engine(
            "e(1, 2). e(2, 3).\ntc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).",
            &FixpointConfig::serial(),
        );
        let tc = Pred::new("tc", 2);
        let ep = Pred::new("e", 2);
        let base_before = e.database().relation(ep).unwrap().rows().to_vec();
        let derived_before = e.relation(tc).unwrap().rows().to_vec();

        // Valid insert + invalid write to a derived predicate, staged in
        // one batch: validation must reject the whole batch up front.
        let mut d = EdbDelta::new();
        d.insert(ep, t(&[3, 4]));
        d.insert(tc, t(&[9, 9]));
        let err = e.apply_delta(&d).unwrap_err();
        assert!(err.to_string().contains("derived predicate"), "{err}");

        assert_eq!(e.database().relation(ep).unwrap().rows(), &base_before[..]);
        assert_eq!(e.relation(tc).unwrap().rows(), &derived_before[..]);
        // The staged batch still holds both facts; nothing was drained.
        assert_eq!(d.len(), 2);
    }

    /// A maintenance failure *mid-apply* — after an earlier stratum has
    /// already been repaired — rolls the engine back bit-for-bit: base
    /// relations, derived relations, and support counts all match the
    /// pre-delta state, and a later valid commit behaves normally.
    #[test]
    fn mid_apply_failure_rolls_back_bit_for_bit() {
        // Stratum 1 (counting): a <- e. Stratum 2 (DRed): p over g,
        // gated on a so it is repaired strictly after the counting
        // stratum. A tight iteration budget lets the initial chain
        // evaluate but makes the delta's much longer chain diverge in
        // DRed insertion propagation — after `a` was already mutated.
        let cfg = FixpointConfig::with_max_iterations(8);
        let mut e = engine(
            "e(1). e(2). e(3).\n\
             g(1, 2). g(2, 3).\n\
             a(X) <- e(X).\n\
             p(X, Y) <- g(X, Y), a(X).\n\
             p(X, Y) <- g(X, Z), p(Z, Y).",
            &cfg,
        );
        let (ep, gp) = (Pred::new("e", 1), Pred::new("g", 2));
        let (ap, pp) = (Pred::new("a", 1), Pred::new("p", 2));
        let base_e = e.database().relation(ep).unwrap().rows().to_vec();
        let base_g = e.database().relation(gp).unwrap().rows().to_vec();
        let derived_a = e.relation(ap).unwrap().rows().to_vec();
        let derived_p = e.relation(pp).unwrap().rows().to_vec();
        let support_a: Vec<_> = derived_a
            .iter()
            .map(|row| e.support_count(ap, row))
            .collect();

        let mut d = EdbDelta::new();
        for i in 4..40 {
            d.insert(ep, t(&[i]));
            d.insert(gp, t(&[i - 1, i]));
        }
        let err = e.apply_delta(&d).unwrap_err();
        assert!(err.to_string().contains("exceeded"), "{err}");

        assert_eq!(e.database().relation(ep).unwrap().rows(), &base_e[..]);
        assert_eq!(e.database().relation(gp).unwrap().rows(), &base_g[..]);
        assert_eq!(e.relation(ap).unwrap().rows(), &derived_a[..]);
        assert_eq!(e.relation(pp).unwrap().rows(), &derived_p[..]);
        let support_after: Vec<_> = derived_a
            .iter()
            .map(|row| e.support_count(ap, row))
            .collect();
        assert_eq!(support_after, support_a);

        // The engine is fully usable: a small valid commit still agrees
        // with from-scratch evaluation.
        let mut ok = EdbDelta::new();
        ok.insert(ep, t(&[4]));
        ok.insert(gp, t(&[3, 4]));
        e.apply_delta(&ok).unwrap();
        assert_eq!(
            e.relation(pp).unwrap().rows().to_vec(),
            scratch_rows(&e, "p", 2)
        );
        assert_eq!(
            e.relation(ap).unwrap().rows().to_vec(),
            scratch_rows(&e, "a", 1)
        );
    }

    /// `validate_delta` is the same gate `apply_delta` runs, usable
    /// without an `&mut` engine.
    #[test]
    fn validate_delta_rejects_without_mutating() {
        let e = engine("e(1, 2).\nq(X) <- e(X, _).", &FixpointConfig::serial());
        let mut bad = EdbDelta::new();
        bad.insert(Pred::new("e", 2), Tuple::ints(&[1]));
        let err = e.validate_delta(&bad).unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
        let mut reserved = EdbDelta::new();
        reserved.insert(Pred::new("member", 2), t(&[1, 2]));
        assert!(e.validate_delta(&reserved).is_err());
        let mut good = EdbDelta::new();
        good.insert(Pred::new("e", 2), t(&[5, 6]));
        assert!(e.validate_delta(&good).is_ok());
    }
}
