//! # ldl-storage — the database substrate
//!
//! The paper's knowledge base pairs a rule base with a *database* of base
//! relations, and its optimizer consumes "knowledge of storage structures
//! \[and\] database statistics" (§1). This crate provides that substrate:
//!
//! * [`tuple::Tuple`] — rows of ground [`ldl_core::Term`]s (LDL relations
//!   may hold complex terms, not just flat values);
//! * [`relation::Relation`] — duplicate-free, insertion-ordered tuple
//!   sets with lazily cached ordered indexes on column sequences;
//! * [`stats::Stats`] — cardinality and per-column distinct counts, either
//!   computed from data or supplied synthetically for optimizer-only
//!   experiments;
//! * [`catalog::Database`] — the named collection of base relations the
//!   evaluator and optimizer share.

pub mod catalog;
pub mod codec;
pub mod loader;
pub mod relation;
pub mod stats;
pub mod tuple;

pub use catalog::Database;
pub use relation::counters::{note_rows_enumerated, scope_handle, IndexCounters, ScopeHandle};
pub use relation::{ColClass, OrderedIndex, Relation, SupportCounts};
pub use stats::Stats;
pub use tuple::Tuple;
