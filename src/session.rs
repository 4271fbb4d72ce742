//! The one stateful front end: a knowledge base you load rules and
//! facts into, query, and update transactionally. `ldl-shell` is a REPL
//! over this type; library users drive it directly.
//!
//! **Query pipeline.** [`Session::query`] is the only goal path:
//! compiled plan for the goal's *query form* (predicate + binding
//! pattern, §2 of the paper) → execution with the co-optimized index
//! set. A form is compiled once, after the analyzer gate, by
//! `co_optimize` and cached — re-asking `anc(X, lisa)?` with a
//! different constant reuses the `anc.fb` plan without gate or search,
//! while `anc(abe, Y)?` compiles `anc.bf`. The gate's verdict depends
//! on the form alone, so a cached form has passed it; a rejected form
//! is never cached and meets the gate on every call.
//!
//! **Commit pipeline.** [`Session::stage_insert`] /
//! [`Session::stage_retract`] build a batch; [`Session::commit`] applies
//! it through the incremental-maintenance [`Engine`], built lazily on
//! the first commit. From then on the engine's database *is* the EDB —
//! the session keeps no second copy.
//!
//! [`Session::load`] (rule indexes), [`Session::configure`] (search
//! strategy, method set, rewrite pass) and [`Session::reset`] empty the
//! cache. A commit empties it only when the statistics the plans were
//! priced on have really moved: a base relation appeared or
//! disappeared, or its row count moved by a factor of
//! [`DRIFT_FACTOR`] since the cache was last emptied. A plan priced
//! on older counts may be slower, never wrong: method, orders and
//! index set change the cost of an answer, not the answer.

use ldl_analysis::{analyze_query, AnalysisOptions, Report};
use ldl_core::parser::{parse_query, parse_source};
use ldl_core::{LdlError, Pred, Program, Query, Result};
use ldl_eval::engine::QueryAnswer;
use ldl_eval::naive::AnalysisPolicy;
use ldl_eval::{EdbDelta, Engine, FixpointConfig, MaintenanceReport};
use ldl_optimizer::{co_optimize, CoOptimized, OptConfig};
use ldl_storage::{Database, Relation, Tuple};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A compiled-plan cache key: the query form.
type FormKey = (Pred, ldl_core::Adornment);

/// Row count per base relation, in predicate order.
type Sizes = Vec<(Pred, usize)>;

/// How far a base relation's row count may move before a commit drops
/// the cached plans: two counts have drifted when the larger is at
/// least this many times the smaller (empty vs non-empty always has).
/// A drift test against the counts at the last emptying, not a fixed
/// bucket per count, so a relation toggling by one row across a bucket
/// edge keeps its plans.
pub const DRIFT_FACTOR: usize = 2;

fn base_sizes(db: &Database) -> Sizes {
    db.preds()
        .into_iter()
        .map(|p| (p, db.relation(p).map_or(0, Relation::len)))
        .collect()
}

/// Whether plans priced on `old` counts should go under `new` ones.
fn drifted(old: &Sizes, new: &Sizes) -> bool {
    old.len() != new.len()
        || old.iter().zip(new).any(|(&(p, a), &(q, b))| {
            p != q || (a != b && a.max(b) >= DRIFT_FACTOR.saturating_mul(a.min(b)))
        })
}

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

/// A query form's compiled plan, as the cache holds it.
#[derive(Debug)]
pub struct Planned {
    /// The plan and its co-optimized index set, shared with the cache.
    /// `co.plan.query` is the goal the form was compiled for; the plan
    /// answers every goal of the form ([`CoOptimized::execute_goal`]).
    pub co: Rc<CoOptimized>,
    /// Time spent obtaining it: a `co_optimize` run on a cache miss,
    /// a lookup on a hit.
    pub elapsed: Duration,
    /// Whether the plan came from the cache. `co.stats` and the
    /// enumerator counters in `co.plan.stats` are then the original
    /// compile's.
    pub cached: bool,
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
    plans: HashMap<FormKey, Rc<CoOptimized>>,
    /// Base-relation row counts when `plans` was last emptied.
    sizes: Sizes,
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
        self.clear_plans();
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
    /// itself back). Success keeps the cached plans unless a base
    /// relation appeared, disappeared or drifted by [`DRIFT_FACTOR`].
    pub fn commit(&mut self) -> Result<MaintenanceReport> {
        if self.engine.is_none() {
            self.engine = Some(Engine::evaluate(&self.program, &self.db, &self.fixpoint)?);
            self.db = Database::new(); // the engine's copy is the EDB now
        }
        let engine = self.engine.as_mut().expect("engine just built");
        let report = engine.apply_delta(&self.pending)?;
        self.pending = EdbDelta::new();
        if drifted(&self.sizes, &base_sizes(self.database())) {
            self.clear_plans();
        }
        Ok(report)
    }

    /// Drops program, EDB, staged batch and plans; keeps configuration.
    pub fn reset(&mut self) {
        self.program = Program::new();
        self.db = Database::new();
        self.pending = EdbDelta::new();
        self.engine = None;
        self.clear_plans();
    }

    /// Edits the optimizer and fixpoint configuration.
    pub fn configure(&mut self, edit: impl FnOnce(&mut OptConfig, &mut FixpointConfig)) {
        edit(&mut self.cfg, &mut self.fixpoint);
        self.clear_plans();
    }

    /// Empties the plan cache and retakes the size snapshot commits
    /// measure drift against.
    fn clear_plans(&mut self) {
        self.plans.clear();
        self.sizes = base_sizes(self.database());
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

    /// The compiled plan for `query`, without executing it: the cached
    /// plan for the form, or the analyzer gate and a fresh
    /// `co_optimize`.
    pub fn explain(&mut self, query: &Query) -> std::result::Result<Planned, QueryError> {
        let started = Instant::now();
        let key = (query.pred(), query.adornment());
        let (co, cached, started) = match self.plans.get(&key) {
            // Only a form that passed the gate under this program and
            // configuration is cached, and the verdict reads nothing
            // but predicate, adornment and `assume_acyclic`.
            Some(co) => (co.clone(), true, started),
            None => {
                self.gate(query)?;
                let started = Instant::now();
                let co = co_optimize(&self.program, self.database(), &self.cfg, query, None)
                    .map_err(QueryError::Plan)?;
                let co = Rc::new(co);
                self.compilations += 1;
                self.plans.insert(key, co.clone());
                (co, false, started)
            }
        };
        Ok(Planned {
            co,
            elapsed: started.elapsed(),
            cached,
        })
    }

    /// The analyzer gate for a form about to be compiled.
    fn gate(&self, query: &Query) -> std::result::Result<(), QueryError> {
        // Under `Deny` the session runs the gate itself so a rejection
        // carries the full report; `query` then tells the executor not
        // to repeat it. `Warn`/`Off` are left to the executor.
        if self.fixpoint.analysis != AnalysisPolicy::Deny {
            return Ok(());
        }
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
        Ok(())
    }

    /// Answers `query`: plan (cached per form, gated when compiled) →
    /// execute.
    pub fn query(&mut self, query: &Query) -> std::result::Result<Answered, QueryError> {
        let planned = self.explain(query)?;
        let mut cfg = self.fixpoint.clone();
        if cfg.analysis == AnalysisPolicy::Deny {
            cfg.analysis = AnalysisPolicy::Off; // discharged by `explain`
        }
        let started = Instant::now();
        let answer = planned
            .co
            .execute_goal(query, &self.program, self.database(), &cfg)
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
    use ldl_eval::engine::Method;
    use ldl_optimizer::{ProcessingTree, Strategy};
    use ldl_support::rng::SplitMix64;

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
        // e is a 10-edge chain 1 → 11, so tc(1, Y)? has 10 answers.
        let chain: String = (1..=10).map(|i| format!("e({i}, {}).\n", i + 1)).collect();
        let tc_rules = "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).";
        let mut s = Session::new();
        s.load(&format!("{chain}{tc_rules}")).unwrap();
        type Step = fn(&mut Session);
        // (what, step, recompiles, answers to tc(1, Y)? afterwards)
        let table: [(&str, Step, bool, usize); 15] = [
            ("first use", |_| {}, true, 10),
            ("repeat", |_| {}, false, 10),
            (
                "staging",
                |s| s.stage_insert(e(11, 12).0, e(11, 12).1),
                false,
                10,
            ),
            ("abort", |s| assert_eq!(s.abort(), 1), false, 10),
            ("empty commit", |s| drop(s.commit().unwrap()), false, 10),
            (
                "one-row commit (10 → 11 rows)",
                |s| {
                    let (p, t) = e(11, 12);
                    s.stage_insert(p, t);
                    s.commit().unwrap();
                },
                false,
                11,
            ),
            (
                "refused commit",
                |s| {
                    let (p, t) = e(12, 13);
                    s.stage_insert(p, t);
                    s.stage_insert(Pred::new("tc", 2), Tuple::ints(&[9, 9]));
                    assert!(s.commit().is_err());
                    assert_eq!(s.abort(), 2);
                },
                false,
                11,
            ),
            (
                "doubling commit (11 → 22 rows)",
                |s| {
                    for i in 100..111 {
                        let (p, t) = e(i, i + 1);
                        s.stage_insert(p, t);
                    }
                    s.commit().unwrap();
                },
                true,
                11,
            ),
            (
                "new base predicate",
                |s| {
                    s.stage_insert(Pred::new("n", 1), Tuple::ints(&[1]));
                    s.commit().unwrap();
                },
                true,
                11,
            ),
            // The three settings the shell exposes that reach the plan.
            (
                ":strategy",
                |s| s.configure(|c, _| c.strategy = Strategy::Kbz),
                true,
                11,
            ),
            (
                ":acyclic",
                |s| s.configure(|c, _| c.assume_acyclic = true),
                true,
                11,
            ),
            (
                ":rewrite",
                |s| s.configure(|_, f| f.rewrite = true),
                true,
                11,
            ),
            ("repeat after :rewrite", |_| {}, false, 11),
            ("load", |s| drop(s.load("e(0, 1).").unwrap()), true, 11),
            (
                "reset",
                |s| {
                    s.reset();
                    s.load(TC).unwrap();
                },
                true,
                1,
            ),
        ];
        let mut compiled = 0;
        for (what, step, recompiles, answers) in table {
            step(&mut s);
            assert_eq!(
                s.answers("tc(1, Y)?").unwrap().len(),
                answers,
                "after {what}"
            );
            compiled += usize::from(recompiles);
            assert_eq!(s.compilations(), compiled, "after {what}");
        }
    }

    #[test]
    fn drift_is_a_factor_of_two_either_way() {
        let p = Pred::new("e", 2);
        let q = Pred::new("n", 1);
        let moved = |a: usize, b: usize| drifted(&vec![(p, a)], &vec![(p, b)]);
        assert!(!moved(10, 11) && !moved(11, 10) && !moved(10, 19) && !moved(0, 0));
        assert!(moved(10, 20) && moved(20, 10) && moved(1, 2) && moved(0, 1) && moved(1, 0));
        assert!(drifted(&vec![(p, 3)], &vec![(p, 3), (q, 3)]), "appeared");
        assert!(drifted(&vec![(p, 3), (q, 3)], &vec![(p, 3)]), "disappeared");
        assert!(drifted(&vec![(p, 3)], &vec![(q, 3)]), "replaced");
    }

    #[test]
    fn stale_plans_answer_like_a_cold_session() {
        // Plans compiled on a 3-edge chain, then up to 30 one-edge commits
        // that keep e within 2..=5 rows (inside the drift factor) and
        // close cycles along the way: the warm session never
        // recompiles, yet answers like a cold session and the engine.
        // Under `assume_acyclic` a counting plan priced on the chain
        // meets cycles and must fall back (`Diverged`).
        const RULES: &str = "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).";
        let forms = ["tc(#, Y)?", "tc(X, #)?", "tc(X, Y)?", "tc(#, 3)?"];
        for (threads, acyclic) in [(1, false), (4, false), (1, true), (4, true)] {
            let setup = |c: &mut OptConfig, f: &mut FixpointConfig| {
                c.assume_acyclic = acyclic;
                f.threads = threads;
            };
            let mut warm = Session::new();
            warm.configure(setup);
            warm.load(&format!("e(1, 2). e(2, 3). e(3, 4).\n{RULES}"))
                .unwrap();
            let counting = forms.iter().any(|form| {
                let q = parse_query(&form.replace('#', "1")).unwrap();
                warm.explain(&q).unwrap().co.plan.method == Method::Counting
            });
            assert_eq!(counting, acyclic, "a counting plan to go stale");
            let mut edges = vec![(1, 2), (2, 3), (3, 4)];
            let mut rng = SplitMix64::seed_from_u64(threads as u64 + 2 * u64::from(acyclic));
            for step in 0..30 {
                let insert = match edges.len() {
                    2 => true,
                    5 => false,
                    _ => rng.gen_bool(0.5),
                };
                let edge = if insert {
                    let edge = (rng.gen_range(1..=5i64), rng.gen_range(1..=5i64));
                    if edges.contains(&edge) {
                        continue;
                    }
                    edges.push(edge);
                    edge
                } else {
                    edges.remove(rng.gen_range(0..edges.len()))
                };
                let (p, t) = e(edge.0, edge.1);
                if insert {
                    warm.stage_insert(p, t);
                } else {
                    warm.stage_retract(p, t);
                }
                warm.commit().unwrap();

                let facts: String = edges
                    .iter()
                    .map(|(a, b)| format!("e({a}, {b}).\n"))
                    .collect();
                let mut cold = Session::new();
                cold.configure(setup);
                cold.load(&format!("{facts}{RULES}")).unwrap();
                let engine =
                    Engine::evaluate(warm.program(), warm.database(), &FixpointConfig::serial())
                        .unwrap();
                for form in forms {
                    for c in 1..=5 {
                        let q = parse_query(&form.replace('#', &c.to_string())).unwrap();
                        let what = format!(
                            "{threads} thread(s), acyclic {acyclic}, step {step}, {}",
                            q.goal
                        );
                        let mut got = warm.query(&q).unwrap().answer.tuples;
                        let mut cold_answer = cold.query(&q).unwrap().answer.tuples;
                        let mut engine_answer = engine.answers(&q);
                        got.canonicalize();
                        cold_answer.canonicalize();
                        engine_answer.canonicalize();
                        assert_eq!(got, cold_answer, "{what}: warm vs cold");
                        assert_eq!(got, engine_answer, "{what}: warm vs engine");
                    }
                }
                assert_eq!(warm.compilations(), forms.len(), "step {step}: recompiled");
            }
        }
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
        // The gate's rejection carries the witness report, on every
        // call: a rejected form is never cached or counted.
        for _ in 0..2 {
            let Err(QueryError::Rejected(report)) = s.query(&q) else {
                panic!("free form must be rejected by the gate");
            };
            assert!(report.has_errors());
            assert_eq!(s.compilations(), 0);
        }
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
        assert!(!planned.cached);
        let again = s.explain(&parse_query("anc(bart, Y)?").unwrap()).unwrap();
        assert!(again.cached);
        // A hit hands out the cached plan itself, not a copy.
        assert!(Rc::ptr_eq(&planned.co, &again.co));
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
