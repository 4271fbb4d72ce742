//! Naive bottom-up fixpoint evaluation.
//!
//! The baseline recursive method: evaluate strata bottom-up; within a
//! recursive clique, re-fire *every* rule against the *full* current
//! relations until nothing new appears. Correct, and maximally wasteful —
//! every iteration rederives everything the previous iterations found,
//! which is exactly why the paper's method set includes semi-naive and
//! the binding-propagating methods (magic sets, counting).

use crate::driver::{eval_program, Mode};
use crate::metrics::Metrics;
use crate::rule_eval::AccessPlan;
use ldl_core::{Pred, Program, Result};
use ldl_index::IndexCatalog;
use ldl_storage::{Database, Relation};
use std::collections::HashMap;

/// Which access paths the fixpoint evaluators give their probe sites
/// (the owned counterpart of [`AccessPlan`], which borrows a catalog).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AccessPaths {
    /// Solve the minimum chain cover over the program's search
    /// signatures once per evaluation and probe the selected ordered
    /// indexes, falling back to on-demand hashes for anything the
    /// catalog does not serve. The default.
    #[default]
    Selected,
    /// On-demand hash indexes only (the pre-selection behavior).
    HashOnDemand,
    /// Full scans only — the baseline the equivalence tests compare
    /// both probing modes against.
    ForceScan,
}

impl AccessPaths {
    /// The policy named by the `LDL_ACCESS_PATHS` environment variable
    /// (`selected` / `hash` / `scan`), or `Selected` when unset or
    /// unrecognized. [`FixpointConfig::default`] reads this, so every
    /// entry point — shell, session, benches — honors the override.
    pub fn from_env() -> AccessPaths {
        match std::env::var("LDL_ACCESS_PATHS").as_deref() {
            Ok("hash") => AccessPaths::HashOnDemand,
            Ok("scan") => AccessPaths::ForceScan,
            _ => AccessPaths::Selected,
        }
    }

    /// Parses a policy name as accepted by `LDL_ACCESS_PATHS` and the
    /// shell's `--access-paths` flag.
    pub fn parse(name: &str) -> Option<AccessPaths> {
        match name {
            "selected" => Some(AccessPaths::Selected),
            "hash" => Some(AccessPaths::HashOnDemand),
            "scan" => Some(AccessPaths::ForceScan),
            _ => None,
        }
    }
}

/// Runtime knobs of the fixpoint evaluators: the iteration bound
/// guarding non-terminating fixpoints (an unsafe execution shows up as
/// an iteration-bound overflow at run time), the worker-thread count
/// for round-level parallelism, and the access-path policy. Answers
/// and metrics are identical across every setting of `threads` and
/// `access_paths`.
#[derive(Clone, Debug)]
pub struct FixpointConfig {
    /// Maximum iterations per recursive clique before the evaluation is
    /// declared divergent.
    pub max_iterations: usize,
    /// Worker threads per fixpoint round (`1` = serial). Results and
    /// metrics are identical at any value; see `crate::parallel`.
    /// Defaults to `LDL_EVAL_THREADS` or the machine's parallelism.
    pub threads: usize,
    /// Access-path policy for probe sites (see [`AccessPaths`]).
    /// Defaults to `LDL_ACCESS_PATHS` (`selected` / `hash` / `scan`) or
    /// [`AccessPaths::Selected`].
    pub access_paths: AccessPaths,
    /// Static-analysis gate run by the query entry points before
    /// planning (see [`AnalysisPolicy`]).
    pub analysis: AnalysisPolicy,
    /// Apply the sound rewrite pass (`ldl_analysis::transform`) to the
    /// program before planning: constant propagation, ground-builtin
    /// folding, duplicate/subsumed-rule removal. Off by default;
    /// answers are bit-identical either way (pinned by the differential
    /// property tests).
    pub rewrite: bool,
    /// Co-optimized index-set override. When set (and the policy is
    /// [`AccessPaths::Selected`]), the executor still builds its own
    /// catalog for the program it actually evaluates — which may be a
    /// magic-rewritten program with adornment-renamed predicates — and
    /// then takes this catalog's per-predicate decisions wholesale
    /// where they exist ([`IndexCatalog::overridden_by`]). This is how
    /// the optimizer's co-optimized (order, index-set) pair reaches the
    /// probe sites: the executor builds exactly the indexes the
    /// optimizer priced. Access paths never change answers or metrics,
    /// so the override is a pure performance knob.
    pub index_catalog: Option<std::sync::Arc<IndexCatalog>>,
}

/// What the engine does with the `ldl-analysis` front end before
/// planning a query ([`crate::engine::evaluate_query`] and friends).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AnalysisPolicy {
    /// Skip the analyzer entirely.
    Off,
    /// Run it and reject on error-severity diagnostics with
    /// [`ldl_core::LdlError::Unsafe`] carrying the rendered findings;
    /// warnings are discarded. The default: an unsafe query fails up
    /// front with a witness instead of deep inside the optimizer.
    #[default]
    Deny,
    /// Run it and print every finding to stderr, but never reject.
    Warn,
}

impl Default for FixpointConfig {
    fn default() -> Self {
        FixpointConfig {
            max_iterations: 100_000,
            threads: ldl_support::par::default_threads(),
            access_paths: AccessPaths::from_env(),
            analysis: AnalysisPolicy::default(),
            rewrite: false,
            index_catalog: None,
        }
    }
}

impl FixpointConfig {
    /// Default configuration with an explicit iteration bound.
    pub fn with_max_iterations(max_iterations: usize) -> FixpointConfig {
        FixpointConfig {
            max_iterations,
            ..FixpointConfig::default()
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> FixpointConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the access-path policy.
    pub fn with_access_paths(mut self, access_paths: AccessPaths) -> FixpointConfig {
        self.access_paths = access_paths;
        self
    }

    /// Sets the pre-planning analysis policy.
    pub fn with_analysis(mut self, analysis: AnalysisPolicy) -> FixpointConfig {
        self.analysis = analysis;
        self
    }

    /// Enables or disables the pre-planning rewrite pass (see
    /// [`FixpointConfig::rewrite`]).
    pub fn with_rewrite(mut self, rewrite: bool) -> FixpointConfig {
        self.rewrite = rewrite;
        self
    }

    /// Sets the co-optimized index-set override (see
    /// [`FixpointConfig::index_catalog`]).
    pub fn with_index_catalog(mut self, catalog: std::sync::Arc<IndexCatalog>) -> FixpointConfig {
        self.index_catalog = Some(catalog);
        self
    }

    /// Default configuration forced to single-threaded execution.
    pub fn serial() -> FixpointConfig {
        FixpointConfig::default().with_threads(1)
    }

    /// The selected-index catalog for `program` under this policy:
    /// `Some` only in [`AccessPaths::Selected`] mode, built from the
    /// program actually being evaluated and overlaid with the
    /// co-optimized override when one is attached. Callers hold the
    /// catalog and borrow it into an [`AccessPlan`] via
    /// [`FixpointConfig::plan`].
    pub(crate) fn catalog(&self, program: &Program) -> Option<IndexCatalog> {
        (self.access_paths == AccessPaths::Selected).then(|| {
            let built = IndexCatalog::build(program);
            match &self.index_catalog {
                Some(winner) => built.overridden_by(winner),
                None => built,
            }
        })
    }

    /// The borrow-level access plan for a catalog built by
    /// [`FixpointConfig::catalog`].
    pub(crate) fn plan<'a>(&self, catalog: &'a Option<IndexCatalog>) -> AccessPlan<'a> {
        match (self.access_paths, catalog) {
            (AccessPaths::Selected, Some(cat)) => AccessPlan::Selected(cat),
            (AccessPaths::ForceScan, _) => AccessPlan::ForceScan,
            _ => AccessPlan::HashOnDemand,
        }
    }
}

/// Evaluates every derived predicate of `program` naively.
pub fn eval_program_naive(
    program: &Program,
    db: &Database,
    cfg: &FixpointConfig,
) -> Result<(HashMap<Pred, Relation>, Metrics)> {
    eval_program(program, db, cfg, Mode::Naive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::parse_program;
    use ldl_storage::Tuple;

    fn eval(text: &str) -> HashMap<Pred, Relation> {
        let p = parse_program(text).unwrap();
        let db = Database::from_program(&p);
        eval_program_naive(&p, &db, &FixpointConfig::default())
            .unwrap()
            .0
    }

    #[test]
    fn transitive_closure() {
        let d = eval(
            r#"
            e(1, 2). e(2, 3). e(3, 4).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- tc(X, Z), e(Z, Y).
            "#,
        );
        let tc = &d[&Pred::new("tc", 2)];
        assert_eq!(tc.len(), 6);
        assert!(tc.contains(&Tuple::ints(&[1, 4])));
    }

    #[test]
    fn same_generation() {
        // up/dn tree: 1 up to a, 2 up to a => 1 and 2 same generation.
        let d = eval(
            r#"
            up(1, 10). up(2, 10). up(3, 20).
            flat(10, 10). flat(10, 20).
            dn(10, 1). dn(10, 2). dn(20, 3).
            sg(X, Y) <- flat(X, Y).
            sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
            "#,
        );
        let sg = &d[&Pred::new("sg", 2)];
        // flat gives (10,10),(10,20); recursion: up(1,10), sg(Y1,10), dn(Y1,Y):
        // sg(10,10) -> Y1=10 -> dn(10,{1,2}) => sg(1,1), sg(1,2); sg(10,20)?
        // sg(Y1,X1)=sg(10,10): for X=1: up(1,10), sg(10,10), dn(10,Y) => sg(1,1), sg(1,2).
        assert!(sg.contains(&Tuple::ints(&[1, 1])));
        assert!(sg.contains(&Tuple::ints(&[1, 2])));
        assert!(sg.contains(&Tuple::ints(&[2, 1])));
    }

    #[test]
    fn stratified_negation_evaluates() {
        let d = eval(
            r#"
            edge(1, 2). edge(2, 3).
            node(1). node(2). node(3). node(4).
            reach(1).
            reach(X) <- reach(Y), edge(Y, X).
            unreachable(X) <- node(X), ~reach(X).
            "#,
        );
        let u = &d[&Pred::new("unreachable", 1)];
        assert_eq!(u.len(), 1);
        assert!(u.contains(&Tuple::ints(&[4])));
    }

    #[test]
    fn mutual_recursion() {
        let d = eval(
            r#"
            zero(0).
            succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).
            even(X) <- zero(X).
            even(X) <- succ(Y, X), odd(Y).
            odd(X) <- succ(Y, X), even(Y).
            "#,
        );
        let even = &d[&Pred::new("even", 1)];
        let odd = &d[&Pred::new("odd", 1)];
        assert!(even.contains(&Tuple::ints(&[0])));
        assert!(even.contains(&Tuple::ints(&[2])));
        assert!(even.contains(&Tuple::ints(&[4])));
        assert!(odd.contains(&Tuple::ints(&[1])));
        assert!(odd.contains(&Tuple::ints(&[3])));
        assert_eq!(even.len(), 3);
        assert_eq!(odd.len(), 2);
    }

    #[test]
    fn arithmetic_in_recursion_terminates_with_filter() {
        let d = eval(
            r#"
            start(0).
            count(X) <- start(X).
            count(Y) <- count(X), X < 5, Y = X + 1.
            "#,
        );
        let c = &d[&Pred::new("count", 1)];
        assert_eq!(c.len(), 6); // 0..=5
    }

    #[test]
    fn divergent_fixpoint_hits_bound() {
        let p = parse_program(
            r#"
            start(0).
            inf(X) <- start(X).
            inf(Y) <- inf(X), Y = X + 1.
            "#,
        )
        .unwrap();
        let db = Database::from_program(&p);
        let r = eval_program_naive(&p, &db, &FixpointConfig::with_max_iterations(50));
        assert!(r.is_err());
    }

    #[test]
    fn empty_base_relation_yields_empty_derived() {
        let d = eval("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- tc(X, Z), e(Z, Y).");
        assert!(d[&Pred::new("tc", 2)].is_empty());
    }
}
