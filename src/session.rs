//! The one stateful front end: a knowledge base you load rules and
//! facts into, query, and update transactionally. `ldl-shell` is a REPL
//! over this type; library users drive it directly.
//!
//! **Query pipeline.** [`Session::query`] is the only goal path:
//! analyzer gate (once) → compiled plan for the goal's *query form*
//! (predicate + binding pattern, §2 of the paper) → execution with the
//! co-optimized index set. Each form is compiled once by `co_optimize`
//! and cached — re-asking `anc(X, lisa)?` with a different constant
//! reuses the `anc.fb` plan, while `anc(abe, Y)?` compiles `anc.bf`.
//!
//! **Commit pipeline.** [`Session::stage_insert`] /
//! [`Session::stage_retract`] build a batch; [`Session::commit`] applies
//! it through the incremental-maintenance [`Engine`], built lazily on
//! the first commit. From then on the engine's database *is* the EDB —
//! the session keeps no second copy.
//!
//! Whatever can change a plan empties the cache: [`Session::load`]
//! (rule indexes), a successful commit (statistics),
//! [`Session::configure`] (search strategy, method set, rewrite pass)
//! and [`Session::reset`].

use ldl_analysis::{analyze_query, AnalysisOptions, Report};
use ldl_core::parser::{parse_query, parse_source};
use ldl_core::{LdlError, Pred, Program, Query, Result};
use ldl_eval::engine::QueryAnswer;
use ldl_eval::naive::AnalysisPolicy;
use ldl_eval::{EdbDelta, Engine, FixpointConfig, MaintenanceReport};
use ldl_optimizer::{co_optimize, CoOptimized, OptConfig};
use ldl_storage::{Database, Relation, Tuple};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A compiled-plan cache key: the query form.
type FormKey = (Pred, ldl_core::Adornment);

/// What [`Session::load`] added, plus the goals the text carried (not
/// run — the caller decides what to do with them).
#[derive(Debug)]
pub struct Loaded {
    /// Rules added.
    pub rules: usize,
    /// Facts added.
    pub facts: usize,
    /// Inline `goal?` statements, in source order.
    pub queries: Vec<Query>,
}

/// A query form's compiled plan, instantiated for one goal.
#[derive(Debug)]
pub struct Planned {
    /// The plan and its co-optimized index set.
    pub co: CoOptimized,
    /// Time spent obtaining it: a `co_optimize` run on a cache miss,
    /// a lookup on a hit.
    pub elapsed: Duration,
}

/// The outcome of [`Session::query`].
#[derive(Debug)]
pub struct Answered {
    /// The plan that ran.
    pub planned: Planned,
    /// Answer tuples and evaluation counters.
    pub answer: QueryAnswer,
    /// Execution time.
    pub run_time: Duration,
}

/// Why a goal produced no answer, by pipeline stage.
#[derive(Debug)]
pub enum QueryError {
    /// The analyzer gate rejected the query form; the report carries
    /// the witnesses (unbound variable + literal).
    Rejected(Report),
    /// The optimizer found no plan.
    Plan(LdlError),
    /// Execution failed.
    Run(LdlError),
}

impl From<QueryError> for LdlError {
    fn from(e: QueryError) -> LdlError {
        match e {
            QueryError::Rejected(report) => LdlError::Unsafe(report.error_summary()),
            QueryError::Plan(e) | QueryError::Run(e) => e,
        }
    }
}

/// An LDL session: program + EDB + staged updates + per-form plan cache.
#[derive(Default)]
pub struct Session {
    program: Program,
    /// The EDB until the first commit; empty while `engine` is live
    /// (read it through [`Session::database`]).
    db: Database,
    cfg: OptConfig,
    fixpoint: FixpointConfig,
    pending: EdbDelta,
    /// Built by the first commit after a program change, dropped by the
    /// next one.
    engine: Option<Engine>,
    plans: HashMap<FormKey, CoOptimized>,
    compilations: usize,
}

impl Session {
    /// Empty session with default configuration (the fixpoint defaults
    /// honor `LDL_ACCESS_PATHS` / `LDL_EVAL_THREADS`).
    pub fn new() -> Session {
        Session::default()
    }

    /// Session with an explicit optimizer configuration.
    pub fn with_config(cfg: OptConfig) -> Session {
        Session {
            cfg,
            ..Session::default()
        }
    }

    /// Adds program text to the knowledge base: rules and facts are
    /// loaded, inline goals handed back unrun. Nothing is loaded when
    /// the text fails to parse.
    pub fn load(&mut self, text: &str) -> Result<Loaded> {
        let src = parse_source(text)?;
        // The maintained state is for the old rule base: take the EDB
        // back; the next commit rebuilds the engine.
        if let Some(engine) = self.engine.take() {
            self.db = engine.into_database();
        }
        self.db.load_facts(&src.program);
        self.plans.clear();
        let loaded = Loaded {
            rules: src.program.rules.len(),
            facts: src.program.facts.len(),
            queries: src.queries,
        };
        self.program.rules.extend(src.program.rules);
        self.program.facts.extend(src.program.facts);
        Ok(loaded)
    }

    /// Stages a base-fact insert for the next [`Session::commit`].
    pub fn stage_insert(&mut self, pred: Pred, tuple: Tuple) {
        self.pending.insert(pred, tuple);
    }

    /// Stages a base-fact retract for the next [`Session::commit`].
    pub fn stage_retract(&mut self, pred: Pred, tuple: Tuple) {
        self.pending.retract(pred, tuple);
    }

    /// The staged batch.
    pub fn pending(&self) -> &EdbDelta {
        &self.pending
    }

    /// Discards the staged batch; returns how many operations it held.
    pub fn abort(&mut self) -> usize {
        std::mem::take(&mut self.pending).len()
    }

    /// Applies the staged batch through the maintenance engine,
    /// repairing derived relations incrementally.
    ///
    /// Failure is atomic: the batch stays staged, and EDB, maintained
    /// state and plan cache are as before (`Engine::apply_delta` rolls
    /// itself back).
    pub fn commit(&mut self) -> Result<MaintenanceReport> {
        if self.engine.is_none() {
            self.engine = Some(Engine::evaluate(&self.program, &self.db, &self.fixpoint)?);
            self.db = Database::new(); // the engine's copy is the EDB now
        }
        let engine = self.engine.as_mut().expect("engine just built");
        let report = engine.apply_delta(&self.pending)?;
        self.pending = EdbDelta::new();
        self.plans.clear();
        Ok(report)
    }

    /// Drops program, EDB, staged batch and plans; keeps configuration.
    pub fn reset(&mut self) {
        self.program = Program::new();
        self.db = Database::new();
        self.pending = EdbDelta::new();
        self.engine = None;
        self.plans.clear();
    }

    /// Edits the optimizer and fixpoint configuration.
    pub fn configure(&mut self, edit: impl FnOnce(&mut OptConfig, &mut FixpointConfig)) {
        edit(&mut self.cfg, &mut self.fixpoint);
        self.plans.clear();
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &OptConfig {
        &self.cfg
    }

    /// The current rule base.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current EDB: loaded facts plus every committed batch.
    pub fn database(&self) -> &Database {
        self.engine.as_ref().map_or(&self.db, Engine::database)
    }

    /// How many query forms have been compiled so far (cache misses).
    pub fn compilations(&self) -> usize {
        self.compilations
    }

    /// The compiled plan for `query`, without executing it: analyzer
    /// gate, then the cached plan for the form or a fresh `co_optimize`.
    pub fn explain(&mut self, query: &Query) -> std::result::Result<Planned, QueryError> {
        // Under `Deny` the session runs the gate itself so a rejection
        // carries the full report; `query` then tells the executor not
        // to repeat it. `Warn`/`Off` are left to the executor.
        if self.fixpoint.analysis == AnalysisPolicy::Deny {
            // Lints and the semantic pass stay out: only executability
            // matters here.
            let opts = AnalysisOptions {
                assume_acyclic: self.cfg.assume_acyclic,
                lints: false,
                semantic: false,
            };
            let report = analyze_query(&self.program, query, &opts);
            if report.has_errors() {
                return Err(QueryError::Rejected(report));
            }
        }
        let started = Instant::now();
        let key = (query.pred(), query.adornment());
        let mut co = match self.plans.get(&key) {
            Some(co) => co.clone(),
            None => {
                let co = co_optimize(&self.program, self.database(), &self.cfg, query, None)
                    .map_err(QueryError::Plan)?;
                self.compilations += 1;
                self.plans.insert(key, co.clone());
                co
            }
        };
        // Orders, method and index set depend only on the form (§2):
        // swap in this goal's constants.
        co.plan.query = query.clone();
        Ok(Planned {
            co,
            elapsed: started.elapsed(),
        })
    }

    /// Answers `query`: gate → plan (cached per form) → execute.
    pub fn query(&mut self, query: &Query) -> std::result::Result<Answered, QueryError> {
        let planned = self.explain(query)?;
        let mut cfg = self.fixpoint.clone();
        if cfg.analysis == AnalysisPolicy::Deny {
            cfg.analysis = AnalysisPolicy::Off; // discharged by `explain`
        }
        let started = Instant::now();
        let answer = planned
            .co
            .execute(&self.program, self.database(), &cfg)
            .map_err(QueryError::Run)?;
        Ok(Answered {
            planned,
            answer,
            run_time: started.elapsed(),
        })
    }

    /// Parses `text` as a goal and returns its answer relation.
    pub fn answers(&mut self, text: &str) -> Result<Relation> {
        Ok(self.query(&parse_query(text)?)?.answer.tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::Term;
    use ldl_optimizer::{ProcessingTree, Strategy};

    const TC: &str = "e(1, 2).\ntc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).";

    fn ancestor_session() -> Session {
        let mut s = Session::new();
        s.load(
            r#"
            parent(abe, homer). parent(homer, bart). parent(homer, lisa).
            anc(X, Y) <- parent(X, Y).
            anc(X, Y) <- parent(X, Z), anc(Z, Y).
            "#,
        )
        .unwrap();
        s
    }

    fn e(a: i64, b: i64) -> (Pred, Tuple) {
        (Pred::new("e", 2), Tuple::ints(&[a, b]))
    }

    #[test]
    fn query_and_answers() {
        let mut s = ancestor_session();
        let ans = s.answers("anc(abe, Y)?").unwrap();
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn plans_are_cached_per_form() {
        let mut s = ancestor_session();
        s.answers("anc(abe, Y)?").unwrap();
        assert_eq!(s.compilations(), 1);
        // Same form, different constant: no recompilation.
        let ans = s.answers("anc(homer, Y)?").unwrap();
        assert_eq!(s.compilations(), 1);
        assert_eq!(ans.len(), 2);
        // Different form: compiles again.
        s.answers("anc(X, lisa)?").unwrap();
        assert_eq!(s.compilations(), 2);
        s.answers("anc(X, bart)?").unwrap();
        assert_eq!(s.compilations(), 2);
    }

    #[test]
    fn cached_plans_answer_correctly_for_new_constants() {
        let mut s = ancestor_session();
        let a1 = s.answers("anc(abe, Y)?").unwrap();
        let a2 = s.answers("anc(homer, Y)?").unwrap();
        assert_eq!(a1.len(), 3);
        assert_eq!(a2.len(), 2);
        assert!(a2.iter().all(|t| t.get(0) == &Term::sym("homer")));
    }

    #[test]
    fn loading_invalidates_cache() {
        let mut s = ancestor_session();
        s.answers("anc(abe, Y)?").unwrap();
        assert_eq!(s.compilations(), 1);
        s.load("parent(bart, junior).").unwrap();
        let ans = s.answers("anc(abe, Y)?").unwrap();
        assert_eq!(s.compilations(), 2, "cache must be invalidated");
        assert_eq!(ans.len(), 4);
    }

    #[test]
    fn commit_and_config_changes_invalidate_cache_abort_does_not() {
        let mut s = Session::new();
        s.load(TC).unwrap();
        let mut compiled = 0;
        let mut expect_recompile = |s: &mut Session, recompiled: bool, what: &str| {
            s.answers("tc(1, Y)?").unwrap();
            compiled += usize::from(recompiled);
            assert_eq!(s.compilations(), compiled, "after {what}");
        };
        expect_recompile(&mut s, true, "first use");
        expect_recompile(&mut s, false, "repeat");
        let (p, t) = e(2, 3);
        s.stage_insert(p, t);
        expect_recompile(&mut s, false, "staging");
        assert_eq!(s.abort(), 1);
        expect_recompile(&mut s, false, "abort");
        let (p, t) = e(2, 3);
        s.stage_insert(p, t);
        s.commit().unwrap();
        expect_recompile(&mut s, true, "commit");
        // The three settings the shell exposes that reach the plan.
        s.configure(|c, _| c.strategy = Strategy::Kbz);
        expect_recompile(&mut s, true, ":strategy");
        s.configure(|c, _| c.assume_acyclic = true);
        expect_recompile(&mut s, true, ":acyclic");
        s.configure(|_, f| f.rewrite = true);
        expect_recompile(&mut s, true, ":rewrite");
        s.reset();
        s.load(TC).unwrap();
        expect_recompile(&mut s, true, "reset");
    }

    #[test]
    fn failed_commit_preserves_staged_batch_and_state() {
        // Once with no engine yet (the failing commit builds it), once
        // with a live one.
        for live_engine in [false, true] {
            let mut s = Session::new();
            s.load(TC).unwrap();
            if live_engine {
                let (p, t) = e(7, 8);
                s.stage_insert(p, t.clone());
                s.commit().unwrap();
                s.stage_retract(p, t);
                s.commit().unwrap();
            }
            assert_eq!(s.answers("tc(1, Y)?").unwrap().len(), 1);
            let compiled = s.compilations();
            let edb_before = s.database().relation(Pred::new("e", 2)).cloned();
            // One good fact and one write to a derived predicate: the
            // commit must be refused as a whole, with nothing applied.
            let (p, t) = e(2, 3);
            s.stage_insert(p, t);
            s.stage_insert(Pred::new("tc", 2), Tuple::ints(&[9, 9]));
            let staged = s.pending().clone();
            assert!(s.commit().is_err());
            assert_eq!(s.pending(), &staged);
            assert_eq!(
                s.database().relation(Pred::new("e", 2)).cloned(),
                edb_before
            );
            assert_eq!(s.answers("tc(1, Y)?").unwrap().len(), 1);
            assert_eq!(s.compilations(), compiled, "cache must survive");
            // Drop the batch, restage the good half: applies exactly once.
            assert_eq!(s.abort(), 2);
            let (p, t) = e(2, 3);
            s.stage_insert(p, t);
            let report = s.commit().unwrap();
            assert_eq!((report.base_inserted, report.base_retracted), (1, 0));
            assert_eq!(s.answers("tc(1, Y)?").unwrap().len(), 2);
            assert!(s.pending().is_empty());
        }
    }

    #[test]
    fn load_after_commit_keeps_committed_facts() {
        let mut s = Session::new();
        s.load("e(1, 2).\ntc(X, Y) <- e(X, Y).").unwrap();
        let (p, t) = e(2, 3);
        s.stage_insert(p, t);
        s.commit().unwrap();
        // A rule change drops the engine; the EDB it held comes back.
        s.load("tc(X, Y) <- e(X, Z), tc(Z, Y).").unwrap();
        assert_eq!(s.database().stats(Pred::new("e", 2)).cardinality, 2.0);
        assert_eq!(s.answers("tc(1, Y)?").unwrap().len(), 2);
    }

    #[test]
    fn unsafe_queries_error_per_form() {
        let mut s = Session::new();
        s.load("p(X, Y, Z) <- X = 3, Z = X + Y.").unwrap();
        let q = parse_query("p(A, B, C)?").unwrap();
        // The gate's rejection carries the witness report...
        let Err(QueryError::Rejected(report)) = s.query(&q) else {
            panic!("free form must be rejected by the gate");
        };
        assert!(report.has_errors());
        // ...and flattens to `LdlError::Unsafe` on the text path.
        assert!(matches!(s.answers("p(A, B, C)?"), Err(LdlError::Unsafe(_))));
        // The bound form works.
        let ans = s.answers("p(A, 6, C)?").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.rows()[0].to_string(), "(3, 6, 9)");
    }

    #[test]
    fn invertible_arith_evaluates_under_every_policy() {
        // X = 3 + W has one unknown once X is bound: the evaluator
        // inverts it, the analyzer accepts even the all-free form, and
        // every access-path policy agrees on the answer.
        use ldl_eval::AccessPaths;
        let mut s = Session::new();
        s.load("inv(X, W) <- X = 10, X = 3 + W.").unwrap();
        let free = s.answers("inv(A, B)?").unwrap();
        assert_eq!(free.rows()[0].to_string(), "(10, 7)");
        for paths in [
            AccessPaths::Selected,
            AccessPaths::HashOnDemand,
            AccessPaths::ForceScan,
        ] {
            s.configure(|_, f| f.access_paths = paths);
            let ans = s.answers("inv(A, 7)?").unwrap();
            assert_eq!(ans.len(), 1);
            assert_eq!(ans.rows()[0].to_string(), "(10, 7)");
        }
    }

    #[test]
    fn load_hands_back_inline_queries_unrun() {
        let mut s = Session::new();
        let loaded = s.load("p(1). p(2). p(X)?").unwrap();
        assert_eq!((loaded.rules, loaded.facts), (0, 2));
        assert_eq!(loaded.queries.len(), 1);
        assert_eq!(s.compilations(), 0);
        assert_eq!(s.query(&loaded.queries[0]).unwrap().answer.tuples.len(), 2);
        // A parse failure loads nothing.
        assert!(s.load("p(3). p(X <- q.").is_err());
        assert_eq!(s.database().total_tuples(), 2);
    }

    #[test]
    fn explain_returns_plan_without_running() {
        let mut s = ancestor_session();
        let planned = s.explain(&parse_query("anc(abe, Y)?").unwrap()).unwrap();
        assert!(planned.co.plan.cost.is_finite());
        let tree = ProcessingTree::from_plan(s.program(), &planned.co.plan);
        assert!(tree.cc_nodes().len() == 1);
        // The explained form is compiled: running it is a cache hit.
        s.answers("anc(homer, Y)?").unwrap();
        assert_eq!(s.compilations(), 1);
    }

    #[test]
    fn committed_inserts_flow_into_queries() {
        let mut s = Session::new();
        s.load("big(X) <- n(X), X > 10.").unwrap();
        s.stage_insert(Pred::new("n", 1), Tuple::ints(&[5]));
        s.stage_insert(Pred::new("n", 1), Tuple::ints(&[50]));
        assert!(s.answers("big(X)?").unwrap().is_empty(), "staged only");
        s.commit().unwrap();
        let ans = s.answers("big(X)?").unwrap();
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn grouping_queries_work_through_session() {
        let mut s = Session::new();
        s.load("e(a, 1). e(a, 2). e(b, 3).\ng(K, <V>) <- e(K, V).")
            .unwrap();
        let ans = s.answers("g(a, S)?").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.rows()[0].get(1).to_string(), "{1, 2}");
    }
}
