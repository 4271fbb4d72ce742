//! Join-order × index-set co-optimization (DESIGN.md §17).
//!
//! Index selection on its own runs the chain cover over the *source*
//! program's rule bodies, so the optimizer prices candidate orders
//! against indexes chosen for orders it may never pick — the interplay
//! "Optimal On The Fly Index Selection in Polynomial Time"
//! (Jordan/Scholz/Subotić) identifies. [`co_optimize`] closes the loop
//! as one fixpoint:
//!
//! 1. **Price** the query under the current catalog (iteration 0: the
//!    source-program chain cover — the status quo ante).
//! 2. **Re-collect** search signatures (equality prefixes *and* range
//!    demands) from the candidate the optimizer chose: the permuted
//!    program the semi-naive executor would run, plus — for the
//!    binding-propagating methods — the adorned program the
//!    magic/counting rewritings start from, so adornment-renamed
//!    predicates (`sg_bf`, …) contribute their own demands.
//! 3. **Re-solve** the minimum chain cover over those demands and go
//!    back to 1 with the new catalog.
//!
//! **Termination (proved bound).** The loop stops when (a) the demand
//! maps reproduce themselves — a stable (order, index-set) pair; (b)
//! re-pricing fails to *strictly* improve the incumbent's cost — the
//! accepted-cost trajectory is therefore strictly decreasing after the
//! first iteration, and since each iteration's demand map is drawn from
//! a finite set (subsets of column sets per predicate), a
//! non-improving or repeating step must occur; or (c) the hard cap
//! [`MAX_CO_ITERATIONS`] is hit. So the fixpoint runs at most
//! `min(MAX_CO_ITERATIONS, #distinct demand maps)` pricings and the
//! cost trajectory never increases between accepted iterations.
//!
//! The returned catalog is the one *implied by the winning plan's
//! orders* (equal to the priced catalog at a stable fixpoint), and
//! [`CoOptimized::execute`] hands it to the executor via
//! [`FixpointConfig::with_index_catalog`] — the executor then builds
//! exactly the indexes the optimizer priced.

use crate::estimates::EstimateCatalog;
use crate::opt::{OptConfig, OptimizedQuery, Optimizer};
use ldl_core::adorn::adorn_program;
use ldl_core::{Program, Query, Result, Rule};
use ldl_eval::engine::{permute_program, QueryAnswer};
use ldl_eval::naive::FixpointConfig;
use ldl_eval::Method;
use ldl_index::{
    collect_range_signatures, collect_signatures, collect_signatures_in_orders, IndexCatalog,
    RangeSignatureMap, SignatureMap,
};
use ldl_storage::Database;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Hard cap on co-optimization iterations (each = one full `optimize`
/// plus one signature re-collection). The strict-improvement acceptance
/// rule makes the loop terminate on its own; the cap bounds the worst
/// case absolutely.
pub const MAX_CO_ITERATIONS: usize = 6;

/// Counters and trajectory of one co-optimization run.
#[derive(Clone, Debug, PartialEq)]
pub struct CoOptStats {
    /// Pricings performed (≥ 1, ≤ [`MAX_CO_ITERATIONS`]).
    pub iterations: usize,
    /// True when the loop reached a stable (order, index-set) pair —
    /// the winning plan's demands reproduce the catalog it was priced
    /// under — rather than stopping on a non-improving step or the cap.
    pub stable: bool,
    /// Estimated cost of each *accepted* iteration, in order. Strictly
    /// decreasing after the first entry by construction (the
    /// monotonicity tests pin this).
    pub cost_trajectory: Vec<f64>,
}

/// A plan and the index set it was co-optimized with.
#[derive(Clone, Debug)]
pub struct CoOptimized {
    /// The winning plan.
    pub plan: OptimizedQuery,
    /// The catalog implied by the winning plan's orders — what the
    /// executor should build. Shared, so a run hands it to the executor
    /// without copying it.
    pub catalog: Arc<IndexCatalog>,
    /// Fixpoint counters.
    pub stats: CoOptStats,
}

impl CoOptimized {
    /// Executes the plan with the co-optimized catalog overriding the
    /// executor's per-predicate index choices (see
    /// [`FixpointConfig::index_catalog`]).
    pub fn execute(
        &self,
        program: &Program,
        db: &Database,
        cfg: &FixpointConfig,
    ) -> Result<QueryAnswer> {
        self.execute_goal(&self.plan.query, program, db, cfg)
    }

    /// [`CoOptimized::execute`] for another goal of the plan's query
    /// form (see [`OptimizedQuery::execute_goal`]) — how a cached plan
    /// answers a goal with new constants without being copied.
    pub fn execute_goal(
        &self,
        query: &Query,
        program: &Program,
        db: &Database,
        cfg: &FixpointConfig,
    ) -> Result<QueryAnswer> {
        let cfg = cfg.clone().with_index_catalog(self.catalog.clone());
        self.plan.execute_goal(query, program, db, &cfg)
    }
}

/// The demand maps of one candidate plan: signatures of the permuted
/// program the plan's SIP implies (what naive/semi-naive run), merged —
/// for binding-propagating methods — with those of the adorned program
/// (what the magic/counting rewritings start from), whose renamed
/// predicates get their own entries.
pub fn collect_plan_signatures(
    program: &Program,
    plan: &OptimizedQuery,
) -> (SignatureMap, RangeSignatureMap) {
    let sip = plan.sip();
    let mut identity = |_: usize, r: &Rule| (0..r.body.len()).collect::<Vec<usize>>();
    let permuted = permute_program(program, &sip);
    let (mut eq, mut ranges) = collect_signatures_in_orders(&permuted, &mut identity);
    if matches!(plan.method, Method::Magic | Method::Counting) {
        let adorned = adorn_program(program, plan.query.pred(), plan.query.adornment(), &sip);
        let (aeq, aranges) = collect_signatures_in_orders(&adorned.to_program(), &mut identity);
        for (p, sigs) in aeq {
            eq.entry(p).or_default().extend(sigs);
        }
        for (p, demands) in aranges {
            ranges.entry(p).or_default().extend(demands);
        }
    }
    (eq, ranges)
}

/// Runs the join-order × index-set fixpoint for one query. `estimates`
/// plugs the abstract interpreter's cardinality bounds into every
/// pricing iteration (pass `None` to price from database statistics).
pub fn co_optimize(
    program: &Program,
    db: &Database,
    cfg: &OptConfig,
    query: &Query,
    estimates: Option<&EstimateCatalog>,
) -> Result<CoOptimized> {
    let mut maps = (
        collect_signatures(program),
        collect_range_signatures(program),
    );
    let mut seen: BTreeSet<(SignatureMap, RangeSignatureMap)> = BTreeSet::new();
    seen.insert(maps.clone());
    let mut best: Option<(OptimizedQuery, (SignatureMap, RangeSignatureMap))> = None;
    let mut stats = CoOptStats {
        iterations: 0,
        stable: false,
        cost_trajectory: Vec::new(),
    };
    while stats.iterations < MAX_CO_ITERATIONS {
        stats.iterations += 1;
        let catalog = IndexCatalog::from_signature_maps(&maps.0, &maps.1);
        let mut opt = Optimizer::new(program, db, cfg.clone()).with_index_catalog(catalog);
        if let Some(est) = estimates {
            opt = opt.with_estimates(est.clone());
        }
        let plan = opt.optimize(query)?;
        if let Some((incumbent, _)) = &best {
            if plan.cost >= incumbent.cost {
                break; // re-pricing did not strictly improve: keep it
            }
        }
        stats.cost_trajectory.push(plan.cost);
        let next = collect_plan_signatures(program, &plan);
        let reproduced = next == maps;
        best = Some((plan, next.clone()));
        if reproduced {
            stats.stable = true;
            break;
        }
        if !seen.insert(next.clone()) {
            break; // demand maps cycled without improving on the way
        }
        maps = next;
    }
    let (plan, winning_maps) = best.expect("at least one iteration ran");
    let catalog = IndexCatalog::from_signature_maps(&winning_maps.0, &winning_maps.1);
    Ok(CoOptimized {
        plan,
        catalog: Arc::new(catalog),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::{parse_program, parse_query};
    use ldl_core::{Pred, Term};
    use ldl_storage::{Relation, Stats, Tuple};

    /// The pinned example where co-optimization changes the index set:
    /// in `q(X) <- big(X, Y), small(Y)` the source-order walk reaches
    /// `big` free and `small` with column 0 bound (cover: an order for
    /// `small` only), but with `big` 1000× larger than `small` the
    /// optimizer flips the join — and the flipped order demands an
    /// index on `big` column 1 instead.
    fn big_small() -> (Program, Database) {
        let program = parse_program("q(X) <- big(X, Y), small(Y).").unwrap();
        let mut db = Database::new();
        let mut big = Relation::new(2);
        let mut small = Relation::new(1);
        for i in 0..40i64 {
            big.insert(Tuple(vec![Term::int(i), Term::int(i % 10)]));
        }
        for i in 0..4i64 {
            small.insert(Tuple(vec![Term::int(i)]));
        }
        db.set_relation(Pred::new("big", 2), big);
        db.set_relation(Pred::new("small", 1), small);
        db.set_stats(
            Pred::new("big", 2),
            Stats::synthetic(10_000.0, vec![10_000.0, 100.0]),
        );
        db.set_stats(Pred::new("small", 1), Stats::synthetic(10.0, vec![10.0]));
        (program, db)
    }

    #[test]
    fn co_optimized_index_set_differs_from_source_cover() {
        let (program, db) = big_small();
        let query = parse_query("q(A)?").unwrap();
        let co = co_optimize(&program, &db, &OptConfig::default(), &query, None).unwrap();
        let source = IndexCatalog::build(&program);
        let big = Pred::new("big", 2);
        // Source cover: big is reached free — no order for it.
        assert!(source.orders(big).is_empty());
        // Co-optimized: the flipped join probes big on column 1.
        assert_eq!(
            co.catalog.orders_by_pred().get(&big),
            Some(&BTreeSet::from([vec![1]])),
            "co-optimization should demand an index the source cover lacks"
        );
        assert_ne!(source.orders_by_pred(), co.catalog.orders_by_pred());
        // And the chosen order actually is the flip.
        let order = co.plan.orders.values().next().unwrap();
        assert_eq!(order, &vec![1, 0]);
    }

    #[test]
    fn trajectory_is_strictly_decreasing_and_bounded() {
        let (program, db) = big_small();
        let query = parse_query("q(A)?").unwrap();
        let co = co_optimize(&program, &db, &OptConfig::default(), &query, None).unwrap();
        assert!(co.stats.iterations <= MAX_CO_ITERATIONS);
        assert!(!co.stats.cost_trajectory.is_empty());
        for w in co.stats.cost_trajectory.windows(2) {
            assert!(w[1] < w[0], "accepted costs must strictly decrease: {w:?}");
        }
    }

    #[test]
    fn co_optimized_plan_executes_to_the_same_answers() {
        let (program, db) = big_small();
        let query = parse_query("q(A)?").unwrap();
        let co = co_optimize(&program, &db, &OptConfig::default(), &query, None).unwrap();
        let cfg = FixpointConfig::default()
            .with_analysis(ldl_eval::naive::AnalysisPolicy::Off)
            .with_threads(1);
        let mut with_override = co.execute(&program, &db, &cfg).unwrap();
        let mut without = co.plan.execute(&program, &db, &cfg).unwrap();
        with_override.tuples.canonicalize();
        without.tuples.canonicalize();
        assert_eq!(with_override.tuples, without.tuples);
        assert_eq!(with_override.metrics, without.metrics);
        // 40 big tuples with second column i % 10; small holds 0..4.
        assert_eq!(with_override.tuples.len(), 16);
    }

    #[test]
    fn inferred_estimates_flow_through_every_pricing_iteration() {
        let text = "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                    e(1, 2). e(2, 3). e(3, 4).";
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let query = parse_query("tc(1, B)?").unwrap();
        let estimates = EstimateCatalog::infer(&program, &db);
        let co = co_optimize(
            &program,
            &db,
            &OptConfig::default(),
            &query,
            Some(&estimates),
        )
        .unwrap();
        assert!(co.plan.cost.is_finite());
        let cfg = FixpointConfig::default().with_analysis(ldl_eval::naive::AnalysisPolicy::Off);
        let mut got = co.execute(&program, &db, &cfg).unwrap();
        got.tuples.canonicalize();
        let baseline = co_optimize(&program, &db, &OptConfig::default(), &query, None).unwrap();
        let mut base = baseline.execute(&program, &db, &cfg).unwrap();
        base.tuples.canonicalize();
        // Estimates reshape pricing, never answers.
        assert_eq!(got.tuples, base.tuples);
    }

    #[test]
    fn stable_fixpoint_on_a_recursive_program() {
        let text = "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                    e(1, 2). e(2, 3). e(3, 4).";
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let query = parse_query("tc(1, B)?").unwrap();
        let co = co_optimize(&program, &db, &OptConfig::default(), &query, None).unwrap();
        assert!(co.stats.iterations <= MAX_CO_ITERATIONS);
        let cfg = FixpointConfig::default().with_analysis(ldl_eval::naive::AnalysisPolicy::Off);
        let mut got = co.execute(&program, &db, &cfg).unwrap();
        got.tuples.canonicalize();
        assert_eq!(got.tuples.len(), 3);
    }
}
