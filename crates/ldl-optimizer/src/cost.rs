//! The cost model.
//!
//! §6 of the paper deliberately treats cost formulae as a black box: the
//! model must (1) be monotonically increasing in operand sizes, (2)
//! assign *infinite* cost to unsafe executions, and (3) differentiate
//! good executions from bad ones — exact constants matter much less than
//! orderings. [`CostParams`] collects every constant in one place so the
//! ablation benches can vary them.

use ldl_storage::Stats;
use std::fmt;

/// Cost of an unsafe (non-terminating) execution.
pub const INFINITE_COST: f64 = f64::INFINITY;

/// Tunable constants of the default cost model.
#[derive(Clone, Debug)]
pub struct CostParams {
    /// CPU weight per tuple touched by a builtin or filter.
    pub cpu_per_tuple: f64,
    /// Selectivity assumed for an inequality filter (`X > c`, ...).
    pub ineq_selectivity: f64,
    /// Selectivity assumed for an equality filter between bound terms.
    pub eq_selectivity: f64,
    /// Selectivity assumed for a negated (ground) literal.
    pub neg_selectivity: f64,
    /// Estimated number of fixpoint iterations a recursive clique runs
    /// (used to price naive re-derivation and clique growth).
    pub fixpoint_depth: f64,
    /// Multiplier expressing how much of a clique a bound query actually
    /// reaches under magic sets (the "reachable fraction" amplifier on
    /// top of the per-binding selectivity).
    pub magic_reach: f64,
    /// Relative advantage of counting over magic on linear cliques
    /// (avoids the answer/binding re-join).
    pub counting_advantage: f64,
    /// Exponent used to guess per-column distinct counts of derived
    /// relations from their cardinality.
    pub derived_distinct_exp: f64,
    /// Cap on any cardinality estimate (keeps arithmetic finite while
    /// still dwarfing every realistic plan).
    pub cardinality_cap: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cpu_per_tuple: 0.01,
            ineq_selectivity: 1.0 / 3.0,
            eq_selectivity: 0.1,
            neg_selectivity: 0.5,
            fixpoint_depth: 10.0,
            magic_reach: 20.0,
            counting_advantage: 0.7,
            derived_distinct_exp: 0.75,
            cardinality_cap: 1e15,
        }
    }
}

/// Cost estimate for a (sub)plan serving one binding pattern.
///
/// `fanout` is the expected number of result tuples *per binding tuple*
/// (for an all-free pattern this is simply the cardinality); `setup` is
/// the one-time cost of materializing the restricted relation; `probe`
/// is the per-binding cost of consuming it. `stats` approximates the
/// result's column statistics for downstream selectivity estimation.
#[derive(Clone, Debug)]
pub struct PlanCost {
    /// One-time materialization cost.
    pub setup: f64,
    /// Per-binding-tuple retrieval cost.
    pub probe: f64,
    /// Expected matching tuples per binding tuple.
    pub fanout: f64,
    /// Column statistics of the (unrestricted) result.
    pub stats: Stats,
}

impl PlanCost {
    /// An infinitely expensive (unsafe) plan.
    pub fn unsafe_plan(arity: usize) -> PlanCost {
        PlanCost {
            setup: INFINITE_COST,
            probe: INFINITE_COST,
            fanout: INFINITE_COST,
            stats: Stats::uniform(INFINITE_COST, arity, INFINITE_COST),
        }
    }

    /// Is this plan unsafe (infinite cost anywhere)? Non-finite result
    /// *statistics* count too: stats are inputs to downstream
    /// selectivity arithmetic, and `1/∞ = 0` would otherwise let an
    /// unsafe subplan cost out as free in a later `base_access`.
    pub fn is_unsafe(&self) -> bool {
        !self.setup.is_finite()
            || !self.probe.is_finite()
            || !self.fanout.is_finite()
            || !self.stats.is_finite()
    }

    /// Total cost of using the plan under `n` binding tuples.
    pub fn total(&self, n: f64) -> f64 {
        self.setup + n * self.probe
    }
}

impl fmt::Display for PlanCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "setup={:.2} probe={:.3} fanout={:.3}",
            self.setup, self.probe, self.fanout
        )
    }
}

/// The physical access path a predicate occurrence will use at run
/// time, as classified against the selected-index catalog (see
/// `ldl_index`). Distinguishing these lets the model price *index
/// reuse*: a selected ordered index is built once per relation version
/// no matter how many signatures share it, whereas each bound-column
/// set the catalog misses pays for its own on-demand order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// No usable key: enumerate every tuple.
    FullScan,
    /// An order on the bound columns, built on first use per relation
    /// version.
    OnDemand,
    /// Prefix probe of a selected lexicographic index (binary search).
    OrderedPrefix,
    /// Range probe of a selected lexicographic index (prefix equality
    /// plus inequality bounds on the next column).
    Range,
}

/// The pluggable cost model interface. The default implementation
/// ([`CostParams`]-driven) lives in [`crate::opt`]; experiments can
/// substitute alternatives (the paper's flexibility requirement: "new
/// ideas will be forthcoming that the design should be capable of
/// incorporating").
pub trait CostModel {
    /// Cost/cardinality of scanning base-relation statistics `stats`
    /// with `bound` of its columns bound.
    fn base_access(&self, stats: &Stats, bound: &[usize]) -> PlanCost;

    /// Like [`CostModel::base_access`], with the physical access path
    /// known. The default forwards to `base_access`, so models that do
    /// not distinguish paths keep their existing behavior.
    fn indexed_access(&self, stats: &Stats, bound: &[usize], path: AccessPath) -> PlanCost {
        let _ = path;
        self.base_access(stats, bound)
    }

    /// Combined cost of a union of rule results.
    fn union_of(&self, parts: &[PlanCost], arity: usize) -> PlanCost;

    /// The parameters in use.
    fn params(&self) -> &CostParams;
}

/// Default System-R-flavoured cost model.
#[derive(Clone, Debug, Default)]
pub struct DefaultCostModel {
    /// The constants.
    pub params: CostParams,
}

impl DefaultCostModel {
    /// Model with explicit parameters.
    pub fn new(params: CostParams) -> DefaultCostModel {
        DefaultCostModel { params }
    }

    /// Estimated distinct count for a derived relation column.
    pub fn derived_distinct(&self, cardinality: f64) -> f64 {
        cardinality.max(1.0).powf(self.params.derived_distinct_exp)
    }
}

impl CostModel for DefaultCostModel {
    fn base_access(&self, stats: &Stats, bound: &[usize]) -> PlanCost {
        // Non-finite stats describe an unsafe subplan; they must stay
        // infectious. Without this guard, `eq_selectivity = 1/∞ = 0`
        // makes `fanout = (∞ × 0).max(0.0) = NaN.max(0.0) = 0.0` — the
        // infinite relation prices as *free*.
        if !stats.is_finite() {
            return PlanCost::unsafe_plan(stats.arity());
        }
        let mut sel = 1.0;
        for &c in bound {
            sel *= stats.eq_selectivity(c);
        }
        let fanout = (stats.cardinality * sel).max(0.0);
        // Index probe: proportional to matches; full scan when unbound.
        let probe = if bound.is_empty() {
            stats.cardinality.max(1.0)
        } else {
            fanout.max(1.0)
        };
        PlanCost {
            setup: 0.0,
            probe,
            fanout,
            stats: stats.clone(),
        }
    }

    fn indexed_access(&self, stats: &Stats, bound: &[usize], path: AccessPath) -> PlanCost {
        // Same infection guard as `base_access`.
        if !stats.is_finite() {
            return PlanCost::unsafe_plan(stats.arity());
        }
        let card = stats.cardinality;
        let mut sel = 1.0;
        for &c in bound {
            sel *= stats.eq_selectivity(c);
        }
        let fanout = (card * sel).max(0.0);
        let (setup, probe) = match path {
            AccessPath::FullScan => (0.0, card.max(1.0)),
            // Each bound-column set the catalog misses pays its own
            // build, priced as one O(card) pass.
            AccessPath::OnDemand => (self.params.cpu_per_tuple * card, fanout.max(1.0)),
            // A selected order is built once per relation version no
            // matter how many signatures probe it; the solver already
            // charged that build to the catalog, so a plan using it pays
            // only the binary search.
            AccessPath::OrderedPrefix => (
                0.0,
                self.params.cpu_per_tuple * card.max(2.0).log2() + fanout.max(1.0),
            ),
            AccessPath::Range => {
                let range_fanout = (fanout * self.params.ineq_selectivity).max(0.0);
                (
                    0.0,
                    self.params.cpu_per_tuple * card.max(2.0).log2() + range_fanout.max(1.0),
                )
            }
        };
        let fanout = if path == AccessPath::Range {
            (fanout * self.params.ineq_selectivity).max(0.0)
        } else {
            fanout
        };
        PlanCost {
            setup,
            probe,
            fanout,
            stats: stats.clone(),
        }
    }

    fn union_of(&self, parts: &[PlanCost], arity: usize) -> PlanCost {
        if parts.iter().any(PlanCost::is_unsafe) {
            return PlanCost::unsafe_plan(arity);
        }
        let setup: f64 = parts.iter().map(|p| p.setup).sum();
        let probe: f64 = parts.iter().map(|p| p.probe).sum();
        let fanout: f64 = parts.iter().map(|p| p.fanout).sum();
        let card: f64 = parts
            .iter()
            .map(|p| p.stats.cardinality)
            .sum::<f64>()
            .min(self.params.cardinality_cap);
        let d = self.derived_distinct(card);
        PlanCost {
            setup,
            probe,
            fanout,
            stats: Stats::uniform(card, arity, d),
        }
    }

    fn params(&self) -> &CostParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_access_bound_is_cheaper() {
        let m = DefaultCostModel::default();
        let s = Stats::uniform(10_000.0, 2, 100.0);
        let free = m.base_access(&s, &[]);
        let bound = m.base_access(&s, &[0]);
        assert!(bound.fanout < free.fanout);
        assert!(bound.probe < free.probe);
        assert_eq!(bound.fanout, 100.0); // 10_000 / 100
    }

    #[test]
    fn two_bound_columns_compound_selectivity() {
        let m = DefaultCostModel::default();
        let s = Stats::uniform(10_000.0, 2, 100.0);
        let b2 = m.base_access(&s, &[0, 1]);
        assert!((b2.fanout - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unsafe_plan_propagates_through_union() {
        let m = DefaultCostModel::default();
        let ok = m.base_access(&Stats::uniform(10.0, 1, 10.0), &[]);
        let bad = PlanCost::unsafe_plan(1);
        let u = m.union_of(&[ok, bad], 1);
        assert!(u.is_unsafe());
    }

    #[test]
    fn union_sums_cardinalities() {
        let m = DefaultCostModel::default();
        let a = m.base_access(&Stats::uniform(10.0, 1, 10.0), &[]);
        let b = m.base_access(&Stats::uniform(20.0, 1, 20.0), &[]);
        let u = m.union_of(&[a, b], 1);
        assert_eq!(u.stats.cardinality, 30.0);
    }

    #[test]
    fn total_combines_setup_and_probes() {
        let p = PlanCost {
            setup: 100.0,
            probe: 2.0,
            fanout: 1.0,
            stats: Stats::uniform(1.0, 1, 1.0),
        };
        assert_eq!(p.total(10.0), 120.0);
    }

    #[test]
    fn infinite_cost_is_infectious_in_total() {
        let p = PlanCost::unsafe_plan(2);
        assert!(p.total(1.0).is_infinite());
        assert!(p.is_unsafe());
    }

    /// Regression (cost model): the statistics of an unsafe plan must
    /// never produce a finite `PlanCost` downstream — through
    /// `base_access` (bound and free), `union_of`, or `Stats::project`.
    /// Before the fix, `eq_selectivity = 1/∞ = 0` gave
    /// `fanout = NaN.max(0.0) = 0.0`: the unsafe subplan cost out free.
    #[test]
    fn unsafe_stats_never_cost_finite_downstream() {
        let m = DefaultCostModel::default();
        for arity in [1, 2, 3] {
            let stats = PlanCost::unsafe_plan(arity).stats;
            assert!(!stats.is_finite());

            let bound = m.base_access(&stats, &[0]);
            assert!(bound.is_unsafe(), "bound access went finite: {bound}");
            assert_ne!(bound.fanout, 0.0, "infinite relation priced as free");
            let free = m.base_access(&stats, &[]);
            assert!(free.is_unsafe(), "free access went finite: {free}");

            let ok = m.base_access(&Stats::uniform(10.0, arity, 5.0), &[]);
            let u = m.union_of(&[ok, bound], arity);
            assert!(u.is_unsafe(), "union laundered unsafe stats");
            assert!(!u.stats.is_finite());

            let projected = stats.project(&[0]);
            assert!(!projected.is_finite(), "projection re-finited unsafe stats");
            assert!(m.base_access(&projected, &[0]).is_unsafe());
        }
    }

    /// Two signatures sharing one selected ordered index must beat two
    /// on-demand builds: the selected path amortizes its build into the
    /// catalog (setup 0 here), the on-demand path pays O(card) per
    /// distinct bound-column set.
    #[test]
    fn shared_ordered_index_beats_per_signature_builds() {
        let m = DefaultCostModel::default();
        let s = Stats::uniform(10_000.0, 3, 100.0);
        let n = 50.0; // binding tuples per probe site
        let on_demand_total: f64 = [vec![0usize], vec![0, 1]]
            .iter()
            .map(|cols| m.indexed_access(&s, cols, AccessPath::OnDemand).total(n))
            .sum();
        let ordered_total: f64 = [vec![0usize], vec![0, 1]]
            .iter()
            .map(|cols| {
                m.indexed_access(&s, cols, AccessPath::OrderedPrefix)
                    .total(n)
            })
            .sum();
        assert!(
            ordered_total < on_demand_total,
            "ordered {ordered_total} should beat on-demand {on_demand_total}"
        );
    }

    #[test]
    fn indexed_access_paths_are_ordered_sensibly() {
        let m = DefaultCostModel::default();
        let s = Stats::uniform(10_000.0, 2, 100.0);
        let scan = m.indexed_access(&s, &[], AccessPath::FullScan);
        let on_demand = m.indexed_access(&s, &[0], AccessPath::OnDemand);
        let ordered = m.indexed_access(&s, &[0], AccessPath::OrderedPrefix);
        let range = m.indexed_access(&s, &[0], AccessPath::Range);
        // A probe is cheaper per binding than a scan; the selected probe
        // adds only a log factor over the on-demand probe but no setup.
        assert!(on_demand.probe < scan.probe);
        assert!(ordered.setup == 0.0 && on_demand.setup > 0.0);
        assert!(ordered.probe < on_demand.probe + 1.0);
        // Range restricts the fanout by the inequality selectivity.
        assert!(range.fanout < ordered.fanout);
        // Default path classification forwards to base_access.
        let base = m.base_access(&s, &[0]);
        assert_eq!(base.fanout, ordered.fanout);
    }

    #[test]
    fn indexed_access_keeps_unsafe_stats_infectious() {
        let m = DefaultCostModel::default();
        let stats = PlanCost::unsafe_plan(2).stats;
        for path in [
            AccessPath::FullScan,
            AccessPath::OnDemand,
            AccessPath::OrderedPrefix,
            AccessPath::Range,
        ] {
            assert!(
                m.indexed_access(&stats, &[0], path).is_unsafe(),
                "{path:?} went finite"
            );
        }
    }

    /// NaN inputs (e.g. `∞ × 0` upstream) are as infectious as `∞`.
    #[test]
    fn nan_stats_are_unsafe_too() {
        let m = DefaultCostModel::default();
        let s = Stats::uniform(f64::NAN, 2, f64::NAN);
        assert!(!s.is_finite());
        assert!(m.base_access(&s, &[0]).is_unsafe());
        assert!(m.base_access(&s, &[]).is_unsafe());
    }
}
