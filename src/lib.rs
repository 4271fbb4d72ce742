//! # ldl — Optimization in a Logic Based Language (EDBT 1988), in Rust
//!
//! Facade crate re-exporting the whole LDL reproduction, plus
//! [`Session`] — the one stateful front end (load, query with a
//! per-query-form plan cache, stage, commit) that `ldl-shell` is a REPL
//! over:
//!
//! * [`core`] — language front end (terms, rules, parser,
//!   unification, adornment, dependency analysis);
//! * [`storage`] — in-memory relations, indexes, statistics;
//! * [`eval`] — extended relational algebra with fixpoint
//!   methods (naive, semi-naive, magic sets, counting);
//! * [`optimizer`] — the paper's contribution: cost-based,
//!   safety-aware optimization of recursive Horn-clause queries with
//!   exhaustive / KBZ-quadratic / simulated-annealing search;
//! * [`analysis`] — whole-program static analysis (`ldl check`):
//!   safety and stratification front end plus a lint suite, reported as
//!   span-carrying diagnostics with stable `LDLxxx` codes;
//! * [`serve`] — the transactional persistent EDB service (`ldl-serve`
//!   daemon): resident maintenance engine, WAL + snapshot durability,
//!   snapshot-isolated sessions over a line-delimited JSON protocol.
//!
//! See `examples/quickstart.rs` for the five-minute tour.

pub mod session;

pub use ldl_analysis as analysis;
pub use ldl_core as core;
pub use ldl_eval as eval;
pub use ldl_optimizer as optimizer;
pub use ldl_serve as serve;
pub use ldl_storage as storage;

pub use ldl_core::{
    parser, Adornment, Atom, LdlError, Literal, Pred, Program, Query, Rule, Term, Value,
};
pub use session::Session;
