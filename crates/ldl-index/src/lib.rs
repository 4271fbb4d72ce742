//! # ldl-index — automatic index selection
//!
//! The paper's cost model (§6) prices every AND node by its access
//! method, but an executor that fabricates one ad-hoc index per
//! distinct bound-column set pays a build per (signature, relation
//! version) and gives the optimizer nothing to price one access path
//! against another. This crate makes access paths a compile-time
//! artifact:
//!
//! * [`collect`] — the **access-pattern collector**: walks a program (or
//!   an adorned program) exactly the way the pipelined executor will,
//!   extracting per predicate the set of *search signatures* — the
//!   bound-column sets its rules probe;
//! * [`cover`] — the **minimum chain cover solver**: signatures ordered
//!   by strict set inclusion form a poset; by Dilworth/Mirsky (applied
//!   to index selection by Jordan, Scholz & Subotić, "Optimal On The Fly
//!   Index Selection in Polynomial Time"), the minimal number of
//!   lexicographic orders such that every signature is a *prefix* of
//!   some order equals the size of a minimum chain cover, computable in
//!   polynomial time via maximum bipartite matching (Hopcroft–Karp);
//! * [`catalog`] — the [`IndexCatalog`]: the selected orders per
//!   predicate, with the signature → order lookup the executor performs
//!   at probe sites.
//!
//! The storage layer (`ldl-storage`) holds the ordered index structure
//! itself; the evaluator (`ldl-eval`) consults the catalog before
//! falling back to an order on exactly the bound columns, built on
//! demand; the optimizer (`ldl-optimizer`) uses the catalog to classify
//! base accesses as full-scan / on-demand / ordered-prefix.

pub mod catalog;
pub mod collect;
pub mod cover;

pub use catalog::IndexCatalog;
pub use collect::{
    collect_adorned_signatures, collect_range_signatures, collect_signatures,
    collect_signatures_in_orders, range_demand, RangeDemand, RangeSignatureMap, SignatureMap,
};
pub use cover::{chain_to_order, min_chain_cover, minimal_cover_size_brute_force};
