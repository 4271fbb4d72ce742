//! # ldl-optimizer — the paper's contribution
//!
//! A compile-time, cost-based, safety-aware optimizer for LDL queries,
//! reproducing *"Optimization in a Logic Based Language for Knowledge and
//! Data Intensive Applications"* (Krishnamurthy & Zaniolo, EDBT 1988):
//!
//! * the optimization problem is a minimization over an execution space
//!   of processing trees ([`ptree`]) under a cost model ([`cost`]);
//! * three generic search strategies over join orders —
//!   exhaustive enumeration / Selinger dynamic programming
//!   ([`search::exhaustive`]), the KBZ quadratic algorithm for ASI cost
//!   functions ([`search::kbz`]), and simulated annealing with the
//!   swap-two neighbor relation ([`search::anneal`]);
//! * NR-OPT (Fig. 7-1): AND/OR-tree optimization memoized per binding
//!   pattern, and OPT (Fig. 7-2): recursive cliques optimized by
//!   enumerating c-permutations, adorning, and costing every applicable
//!   recursive method ([`opt`]);
//! * safety as an extreme case of cost: non-effectively-computable
//!   orderings and cliques without a well-founded order get infinite
//!   cost and are pruned; if nothing finite survives, the query is
//!   reported unsafe ([`safety`]).

pub mod co_opt;
pub mod cost;
pub mod estimates;
pub mod joingraph;
pub mod opt;
pub mod ptree;
pub use ldl_core::safety;
pub mod search;

pub use co_opt::{co_optimize, collect_plan_signatures, CoOptStats, CoOptimized};
pub use cost::{AccessPath, CostModel, CostParams, PlanCost};
pub use estimates::EstimateCatalog;
pub use joingraph::JoinGraph;
pub use opt::{CliqueSearch, OptConfig, OptStats, OptimizedQuery, Optimizer};
pub use ptree::ProcessingTree;
pub use search::Strategy;
