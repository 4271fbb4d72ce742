//! # ldl-support — hermetic test & bench infrastructure
//!
//! The LDL workspace builds with **zero external dependencies**; this
//! crate supplies the pieces that used to come from crates.io:
//!
//! * [`rng`] — a deterministic [SplitMix64] PRNG with the small sampling
//!   surface the optimizer needs (`gen_range`, `gen_bool`, `shuffle`,
//!   seedable), replacing `rand`;
//! * [`prop`] — a minimal property-testing harness (composable
//!   generators, configurable case count, greedy shrinking, failure-seed
//!   reporting), replacing `proptest`;
//! * [`mod@bench`] — a lightweight bench harness (warmup + N timed
//!   iterations, median/p95, JSON output to `BENCH_*.json`), replacing
//!   `criterion`;
//! * [`par`] — a scoped worker-pool helper (`std::thread::scope` +
//!   atomic work-stealing, results returned in job order), replacing
//!   `rayon`-style fan-out for the parallel fixpoint evaluators;
//! * [`json`] — the one RFC 8259 string escaper every JSON writer in
//!   the workspace calls.
//!
//! Everything is seeded and reproducible: the randomized search
//! (simulated annealing, §7 of the paper) and the plan-space property
//! suites replay bit-for-bit across runs and machines.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

pub mod bench;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;

pub use rng::{SliceRandom, SplitMix64};
