//! # ldl-eval — extended relational algebra with fixpoint methods
//!
//! The paper's target language is "a relational algebra extended with
//! additional constructs to handle complex terms and fixpoint
//! computations" (§4). This crate is that target:
//!
//! * [`builtins`] — evaluable predicates (comparisons, arithmetic) with
//!   their effective-computability semantics (§8);
//! * [`rule_eval`] — the tuple-at-a-time rule evaluator: a pipelined
//!   nested-loop/index join over an explicit literal order (the SIP the
//!   optimizer chose), with full unification for complex terms;
//! * [`ops`] — materialized relational operators with exchangeable join
//!   methods (nested-loop / hash / index — the `EL` transformation);
//! * [`naive`] / [`seminaive`] — fixpoint computation of recursive
//!   cliques, stratum by stratum: two modes of the one crate-private
//!   stratum driver, whose rounds the one round executor runs in
//!   parallel on scoped worker threads (deterministic: results and
//!   metrics are identical to serial execution at any thread count);
//! * [`magic`] — the magic-set rewriting of an adorned program [BMSU 85];
//! * [`counting`] — the generalized counting rewriting [SZ 86] for
//!   linear cliques;
//! * [`materialized`] — the materialized counterpart of the pipelined
//!   rule executor (the `MP` dimension of §4);
//! * [`grouping`] — LDL's set collection (`<X>` heads) and the
//!   `member/2` set predicate;
//! * [`sld`] — a Prolog-style SLD resolver, the §1 baseline the
//!   optimizer is contrasted with;
//! * [`engine`] — one entry point tying program + database + query +
//!   method together, with derivation metrics for the experiments;
//! * [`maintain`] — incremental view maintenance: an [`Engine`] that
//!   repairs derived relations on [`EdbDelta`] batches (counting for
//!   non-recursive strata, DRed for recursive cliques) with work
//!   proportional to the change, through the same driver and executor.

pub mod builtins;
pub mod counting;
mod driver;
pub mod engine;
pub mod grouping;
pub mod magic;
pub mod maintain;
pub mod materialized;
pub mod metrics;
pub mod naive;
pub mod ops;
mod parallel;
pub mod rule_eval;
pub mod seminaive;
pub mod sld;

pub use engine::{evaluate_query, Method, QueryAnswer};
pub use maintain::{EdbDelta, Engine, MaintenanceReport};
pub use metrics::Metrics;
pub use naive::{AccessPaths, FixpointConfig};
pub use rule_eval::AccessPlan;
