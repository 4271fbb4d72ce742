//! The stratum driver: the one bottom-up fixpoint loop.
//!
//! §4 of the paper contracts a recursive clique into a CC node denoting
//! one atomic fixpoint operation; §7.3's methods differ only in the
//! program they hand to it. This module is that operation. A program is
//! cut into [`strata`] (each recursive clique one stratum, every other
//! derived predicate a singleton), and [`eval_stratum`] brings one
//! stratum to its fixpoint: a single pass when it is not recursive, the
//! naive re-fire loop or the semi-naive exit round plus [`propagate`]
//! when it is. Naive, semi-naive, magic and counting evaluation
//! ([`eval_program`]) and the maintenance engine's from-scratch pass,
//! grouping recompute and DRed insertion propagation
//! (`crate::maintain`) are all callers; every round they run goes
//! through `crate::parallel::run_round`.

use crate::grouping::has_grouping;
use crate::metrics::Metrics;
use crate::naive::FixpointConfig;
use crate::parallel::{run_round, Firing};
use crate::rule_eval::AccessPlan;
use ldl_core::depgraph::DependencyGraph;
use ldl_core::{LdlError, Pred, Program, Result};
use ldl_index::IndexCatalog;
use ldl_storage::{Database, Relation, Tuple};
use std::collections::HashMap;

/// One evaluation unit of a program, bottom-up.
#[derive(Clone, Debug)]
pub(crate) struct Stratum {
    /// The predicates defined here (more than one only in a clique).
    pub preds: Vec<Pred>,
    /// Indexes into `program.rules` of the rules defining them.
    pub rules: Vec<usize>,
    /// A recursive clique (needs a fixpoint) or a single pass.
    pub recursive: bool,
    /// Some rule has a grouping head (never in a recursive stratum).
    pub grouping: bool,
}

impl Stratum {
    /// An empty relation per predicate: a delta nothing is in yet.
    pub fn empty_relations(&self) -> HashMap<Pred, Relation> {
        let preds = self.preds.iter();
        preds.map(|&p| (p, Relation::new(p.arity))).collect()
    }
}

/// Cuts `program` into strata in bottom-up order, rejecting programs
/// that are not stratified or that group inside a recursive clique.
pub(crate) fn strata(program: &Program) -> Result<Vec<Stratum>> {
    let graph = DependencyGraph::build(program);
    graph.check_stratified()?;
    let mut groups: Vec<(Option<usize>, Vec<Pred>)> = Vec::new();
    for &p in graph.bottom_up_order() {
        let clique = graph.clique_id_of(p);
        match groups.last_mut() {
            Some((last, preds)) if clique.is_some() && *last == clique => preds.push(p),
            _ => groups.push((clique, vec![p])),
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for (_, preds) in groups {
        let rules: Vec<usize> = (0..program.rules.len())
            .filter(|&ri| preds.contains(&program.rules[ri].head.pred))
            .collect();
        let recursive = preds.iter().any(|&p| graph.is_recursive(p));
        let grouped = rules
            .iter()
            .copied()
            .find(|&ri| has_grouping(&program.rules[ri]));
        if let (true, Some(ri)) = (recursive, grouped) {
            return Err(LdlError::Eval(format!(
                "grouping head {} inside a recursive clique is not stratifiable",
                program.rules[ri].head
            )));
        }
        out.push(Stratum {
            preds,
            rules,
            recursive,
            grouping: grouped.is_some(),
        });
    }
    Ok(out)
}

/// A derived predicate's relation before any rule has fired: facts may
/// be asserted for derived predicates too (`reach(1).` next to
/// recursive `reach` rules), so it starts as a copy of the stored
/// relation — which also puts those facts into a clique's first delta.
pub(crate) fn seed_relation(db: &Database, p: Pred) -> Relation {
    db.relation(p)
        .cloned()
        .unwrap_or_else(|| Relation::new(p.arity))
}

/// Every derived relation of `program`, seeded.
pub(crate) fn seed_derived(program: &Program, db: &Database) -> HashMap<Pred, Relation> {
    let preds = program.derived_preds().into_iter();
    preds.map(|p| (p, seed_relation(db, p))).collect()
}

/// What every round of one evaluation shares, borrowed.
#[derive(Clone, Copy)]
pub(crate) struct EvalCtx<'a> {
    pub program: &'a Program,
    pub db: &'a Database,
    pub cfg: &'a FixpointConfig,
    pub plan: AccessPlan<'a>,
}

impl<'a> EvalCtx<'a> {
    /// The context of evaluating `program` over `db` under `cfg`, probing
    /// through the catalog [`FixpointConfig::catalog`] built for it
    /// (`None` exactly under `ForceScan`).
    pub fn new(
        program: &'a Program,
        db: &'a Database,
        cfg: &'a FixpointConfig,
        catalog: &'a Option<IndexCatalog>,
    ) -> EvalCtx<'a> {
        EvalCtx {
            program,
            db,
            cfg,
            plan: match catalog {
                Some(cat) => AccessPlan::Selected(cat),
                None => AccessPlan::ForceScan,
            },
        }
    }

    /// Runs one round of `firings` against `derived` over the database,
    /// both frozen for the round.
    pub fn round(
        &self,
        firings: &[Firing<'_>],
        derived: &HashMap<Pred, Relation>,
    ) -> Result<(Vec<(Pred, Tuple)>, Metrics)> {
        let base = |p: Pred| derived.get(&p).or_else(|| self.db.relation(p));
        run_round(firings, &base, self.cfg.threads, self.plan)
    }

    /// The iteration guard of every fixpoint loop: round number `iters`
    /// of `what` over `preds` may start only within the bound.
    pub fn check_bound(&self, iters: usize, what: &str, preds: &[Pred]) -> Result<()> {
        if iters <= self.cfg.max_iterations {
            return Ok(());
        }
        Err(LdlError::Diverged(format!(
            "{what} for {:?} exceeded {} iterations (divergent / unsafe)",
            preds.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
            self.cfg.max_iterations
        )))
    }
}

/// Called with every tuple a round produced for `pred`, duplicates
/// included; the flag says whether the tuple is new to its relation.
pub(crate) type Hook<'h> = &'h mut dyn FnMut(Pred, &Tuple, bool);

/// Which loop a recursive stratum runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Re-fire every rule against the full relations until nothing new.
    Naive,
    /// Exit rules once, then differential rounds.
    SemiNaive,
}

/// Inserts a round's output into `derived` in emission order, telling
/// `hook` about every tuple. Returns how many were new; with `delta`
/// given they are also appended to it, per predicate — the next round's
/// delta.
pub(crate) fn insert_round(
    out: Vec<(Pred, Tuple)>,
    derived: &mut HashMap<Pred, Relation>,
    metrics: &mut Metrics,
    hook: Hook<'_>,
    mut delta: Option<&mut HashMap<Pred, Relation>>,
) -> usize {
    let before = metrics.tuples_derived;
    for (p, t) in out {
        let rel = derived.get_mut(&p).expect("stratum relation");
        let new = !rel.contains(&t);
        hook(p, &t, new);
        if new {
            metrics.tuples_derived += 1;
            if let Some(delta) = delta.as_deref_mut() {
                delta.get_mut(&p).expect("stratum delta").insert(t.clone());
            }
            rel.insert(t);
        }
    }
    metrics.tuples_derived - before
}

/// Runs one round of `firings` and inserts its output
/// ([`insert_round`]).
fn fire(
    ctx: &EvalCtx<'_>,
    firings: &[Firing<'_>],
    derived: &mut HashMap<Pred, Relation>,
    metrics: &mut Metrics,
    hook: Hook<'_>,
    delta: Option<&mut HashMap<Pred, Relation>>,
) -> Result<usize> {
    let (out, round_metrics) = ctx.round(firings, derived)?;
    metrics.absorb(round_metrics);
    metrics.iterations += 1;
    Ok(insert_round(out, derived, metrics, hook, delta))
}

/// Brings one stratum to its fixpoint over `derived`, which already
/// holds every lower stratum and this one's seed relations.
pub(crate) fn eval_stratum(
    ctx: &EvalCtx<'_>,
    stratum: &Stratum,
    mode: Mode,
    derived: &mut HashMap<Pred, Relation>,
    metrics: &mut Metrics,
    hook: Hook<'_>,
) -> Result<()> {
    let rules = stratum.rules.iter().map(|&ri| &ctx.program.rules[ri]);
    if stratum.recursive && mode == Mode::SemiNaive {
        // Round 0: the exit rules (no clique atom in the body) against
        // completed strata; their output joins the asserted facts of the
        // clique's predicates in the first delta.
        let in_stratum = |p: Pred| stratum.preds.contains(&p);
        let exit: Vec<Firing> = rules
            .filter(|r| !r.body_atoms().any(|a| in_stratum(a.pred)))
            .map(Firing::plain)
            .collect();
        let seeds = stratum.preds.iter().map(|&p| (p, derived[&p].clone()));
        let mut delta: HashMap<Pred, Relation> = seeds.collect();
        fire(ctx, &exit, derived, metrics, hook, Some(&mut delta))?;
        return propagate(
            ctx,
            stratum,
            "semi-naive fixpoint",
            derived,
            delta,
            metrics,
            hook,
        );
    }
    // Every rule against the full relations: once when the stratum is
    // not recursive (its bodies only read completed strata), else until
    // a round derives nothing new.
    let firings: Vec<Firing> = rules.map(Firing::plain).collect();
    let mut iters = 0usize;
    loop {
        iters += 1;
        if stratum.recursive {
            ctx.check_bound(iters, "naive fixpoint", &stratum.preds)?;
        }
        let grew = fire(ctx, &firings, derived, metrics, hook, None)? > 0;
        if !(stratum.recursive && grew) {
            return Ok(());
        }
    }
}

/// The differential loop: while the last round's `delta` is non-empty,
/// fire each rule once per positive occurrence of a stratum predicate,
/// that occurrence reading the delta, and insert what is new. Firings
/// are listed in (rule, occurrence) order — the serial order.
pub(crate) fn propagate(
    ctx: &EvalCtx<'_>,
    stratum: &Stratum,
    what: &str,
    derived: &mut HashMap<Pred, Relation>,
    mut delta: HashMap<Pred, Relation>,
    metrics: &mut Metrics,
    hook: Hook<'_>,
) -> Result<()> {
    let mut iters = 0usize;
    while delta.values().any(|r| !r.is_empty()) {
        iters += 1;
        ctx.check_bound(iters, what, &stratum.preds)?;
        let mut firings: Vec<Firing> = Vec::new();
        for &ri in &stratum.rules {
            let rule = &ctx.program.rules[ri];
            for (j, lit) in rule.body.iter().enumerate() {
                let occurrence = lit
                    .as_atom()
                    .filter(|a| !a.negated)
                    .and_then(|a| delta.get(&a.pred))
                    .filter(|d| !d.is_empty());
                if let Some(d) = occurrence {
                    firings.push(Firing {
                        overrides: vec![(j, d)],
                        ..Firing::plain(rule)
                    });
                }
            }
        }
        let mut next = stratum.empty_relations();
        fire(ctx, &firings, derived, metrics, hook, Some(&mut next))?;
        delta = next;
    }
    Ok(())
}

/// Evaluates every derived predicate of `program`, stratum by stratum.
pub(crate) fn eval_program(
    program: &Program,
    db: &Database,
    cfg: &FixpointConfig,
    mode: Mode,
) -> Result<(HashMap<Pred, Relation>, Metrics)> {
    let strata = strata(program)?;
    // One chain-cover solve per evaluation; every round borrows it.
    let catalog = cfg.catalog(program);
    let ctx = EvalCtx::new(program, db, cfg, &catalog);
    let mut derived = seed_derived(program, db);
    let mut metrics = Metrics::default();
    for stratum in &strata {
        eval_stratum(
            &ctx,
            stratum,
            mode,
            &mut derived,
            &mut metrics,
            &mut |_, _, _| {},
        )?;
    }
    Ok((derived, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::Engine;
    use ldl_core::parser::parse_program;

    fn m(derived: usize, produced: usize, iterations: usize, firings: usize) -> Metrics {
        Metrics {
            tuples_derived: derived,
            tuples_produced: produced,
            iterations,
            rule_firings: firings,
        }
    }

    /// The driver's accounting, pinned to the values the four separate
    /// loops reported before they were folded into it (copied from the
    /// parent commit, not recomputed): per program, the naive metrics
    /// and the semi-naive ones, which `Engine::evaluate` shares.
    #[test]
    fn metrics_match_the_pre_driver_evaluators() {
        let cases = [
            (
                "e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(2, 5).\n\
                 tc(X, Y) <- e(X, Y).\n\
                 tc(X, Y) <- tc(X, Z), e(Z, Y).",
                m(10, 37, 4, 8),
                m(10, 12, 4, 4),
            ),
            (
                "up(1, 10). up(2, 10). up(10, 100). up(20, 100).\n\
                 flat(100, 100). flat(10, 20).\n\
                 dn(100, 10). dn(100, 20). dn(10, 1). dn(20, 3).\n\
                 sg(X, Y) <- flat(X, Y).\n\
                 sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).",
                m(9, 28, 4, 8),
                m(9, 10, 4, 4),
            ),
            (
                "zero(0).\n\
                 succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4). succ(4, 5).\n\
                 even(X) <- zero(X).\n\
                 even(X) <- succ(Y, X), odd(Y).\n\
                 odd(X) <- succ(Y, X), even(Y).",
                m(6, 27, 7, 21),
                m(6, 6, 7, 7),
            ),
            (
                "e(1, 2). e(2, 3). e(1, 3).\n\
                 tc(X, Y) <- e(X, Y).\n\
                 tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                 grp(X, <Y>) <- tc(X, Y).\n\
                 big(X) <- grp(X, S), member(3, S).",
                m(7, 12, 4, 6),
                m(7, 9, 4, 4),
            ),
        ];
        for (text, naive, semi) in cases {
            let program = parse_program(text).unwrap();
            let db = Database::from_program(&program);
            for threads in [1, 4] {
                let cfg = FixpointConfig::serial().with_threads(threads);
                let run = |mode| eval_program(&program, &db, &cfg, mode).unwrap().1;
                assert_eq!(
                    run(Mode::Naive),
                    naive,
                    "naive, {threads} thread(s):\n{text}"
                );
                assert_eq!(
                    run(Mode::SemiNaive),
                    semi,
                    "semi-naive, {threads} thread(s):\n{text}"
                );
                let engine = Engine::evaluate(&program, &db, &cfg).unwrap();
                assert_eq!(
                    engine.eval_metrics(),
                    semi,
                    "engine, {threads} thread(s):\n{text}"
                );
            }
        }
    }
}
