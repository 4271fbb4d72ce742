//! The traced run: the same generated ops replayed in-process through
//! each layer's public functions, every call wrapped in a span, plus
//! standalone timings of the layer functions an op does not reach by
//! itself. Produces the per-layer metrics and `trace_<workload>.json`.
//!
//! Spans are recorded here, around the calls into the crates; nothing
//! inside the crates is instrumented. A span's self time is its
//! duration minus its children's.
//!
//! Two in-process mirrors exist, one per binary: [`ShellMirror`] does
//! what `ldl-shell` does with a line, [`ServeMirror`] what `ldl-serve`
//! does with a request. Every workload's traced run drives both — its
//! own binary's mirror over the full traced op count (the *primary*
//! path, which `trace.*` describe) and the other over a smaller sample
//! — so every layer metric exists on every workload and says what that
//! layer costs on that workload's data.

use crate::drive::{self, Bins};
use crate::gen::{batch_text, Expect, Fact, Op, Target, Workload};
use crate::wire;
use ldl_analysis::AnalysisOptions;
use ldl_core::parser::{parse_program, parse_query, parse_source};
use ldl_core::{Program, Rule, Term};
use ldl_eval::{EdbDelta, Engine, FixpointConfig, Metrics};
use ldl_index::{collect_range_signatures, collect_signatures, IndexCatalog};
use ldl_optimizer::{co_optimize, OptConfig};
use ldl_serve::json::{self, Json};
use ldl_serve::service::{Feed, ServiceOptions};
use ldl_serve::{Service, StateView, Wal, WalRecord};
use ldl_storage::{codec, Database, IndexCounters, Relation, Tuple};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 = a root span (one op).
    pub parent: u32,
    pub op_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Switched off it records nothing and only
/// calls the closure, which is how the untraced in-process pass runs
/// the same code for `trace.overhead_share`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            op_id: self.op_id,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Durations in ms of every span called `name`.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}\n",
                s.id, s.parent, s.op_id, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50)
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * p).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Median wall time in ms of `repeats` calls.
fn time_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn eval_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Work counters summed over the shell path's queries.
#[derive(Default)]
struct QueryTotals {
    queries: u64,
    answers: u64,
    co_iterations: u64,
    explored_plans: u64,
    enum_memo_hits: u64,
    orders_selected: u64,
    /// Sum of ln(estimated ÷ actual answers), both floored at one row.
    ln_qerror: f64,
    eval: Metrics,
    index: IndexCounters,
}

fn add_counters(into: &mut IndexCounters, c: IndexCounters) {
    into.hash_builds += c.hash_builds;
    into.ordered_builds += c.ordered_builds;
    into.hash_probes += c.hash_probes;
    into.ordered_probes += c.ordered_probes;
    into.range_probes += c.range_probes;
    into.rows_enumerated += c.rows_enumerated;
}

/// What `ldl-shell` keeps between lines, and what it does with one.
struct ShellMirror {
    program: Program,
    opt: OptConfig,
    fixpoint: FixpointConfig,
    db: Database,
    engine: Option<Engine>,
    totals: QueryTotals,
}

impl ShellMirror {
    /// `:load <file>`.
    fn load(text: &str) -> io::Result<ShellMirror> {
        let src = parse_source(text).map_err(eval_err)?;
        let mut db = Database::new();
        db.load_facts(&src.program);
        let mut program = Program::new();
        for r in src.program.rules {
            program.push(r);
        }
        for f in src.program.facts {
            program.push(Rule::fact(f));
        }
        Ok(ShellMirror {
            program,
            opt: OptConfig::default(),
            fixpoint: FixpointConfig::default(),
            db,
            engine: None,
            totals: QueryTotals::default(),
        })
    }

    /// `<goal>?` — returns the answer's count and digest.
    fn query(&mut self, tr: &mut Tracer, text: &str) -> io::Result<Expect> {
        let query = tr
            .span("core.parse_query", |_| parse_query(text))
            .map_err(eval_err)?;
        let gate = AnalysisOptions {
            assume_acyclic: self.opt.assume_acyclic,
            lints: false,
            semantic: false,
        };
        let report = tr.span("analysis.query_gate", |_| {
            ldl_analysis::analyze_query(&self.program, &query, &gate)
        });
        if report.has_errors() {
            return Err(eval_err(format!("{text} rejected by the analyzer")));
        }
        let co = tr
            .span("optimizer.co_optimize", |_| {
                co_optimize(&self.program, &self.db, &self.opt, &query, None)
            })
            .map_err(eval_err)?;
        let (answer, work) = tr.span("eval.execute", |_| {
            IndexCounters::scoped(|| co.execute(&self.program, &self.db, &self.fixpoint))
        });
        let answer = answer.map_err(eval_err)?;
        // What the shell prints: every row with the predicate's name in
        // front, sorted, then the count line.
        let got = tr.span("shell.format", |_| {
            let mut got = Expect::default();
            let mut rows: Vec<String> = answer
                .tuples
                .iter()
                .map(|t| format!("{}{}", query.pred().name, t))
                .collect();
            rows.sort();
            let name_len = query.pred().name.as_str().len();
            for row in &rows {
                got.add_row_text(&row.as_bytes()[name_len..]);
            }
            std::hint::black_box(rows.join("\n"));
            got
        });
        let t = &mut self.totals;
        t.queries += 1;
        t.answers += got.count as u64;
        t.co_iterations += co.stats.iterations as u64;
        t.explored_plans += co.plan.stats.explored_plans as u64;
        t.enum_memo_hits += co.plan.stats.enum_memo_hits as u64;
        t.orders_selected += co.catalog.total_orders() as u64;
        t.ln_qerror += (co.plan.estimated_answers.max(1.0) / (got.count as f64).max(1.0)).ln();
        t.eval.absorb(answer.metrics);
        add_counters(&mut t.index, work);
        Ok(got)
    }

    /// `:retract ...` / `:insert ...` / `:commit`.
    fn commit(&mut self, tr: &mut Tracer, retract: &[Fact], insert: &[Fact]) -> io::Result<()> {
        let delta = tr.span("core.parse_facts", |_| stage(retract, insert))?;
        if self.engine.is_none() {
            let engine = tr
                .span("maintain.evaluate", |_| {
                    Engine::evaluate(&self.program, &self.db, &self.fixpoint)
                })
                .map_err(eval_err)?;
            self.engine = Some(engine);
        }
        let engine = self.engine.as_mut().expect("engine just built");
        tr.span("maintain.apply_delta", |_| engine.apply_delta(&delta))
            .map_err(eval_err)?;
        self.db = tr.span("storage.db_clone", |_| engine.database().clone());
        Ok(())
    }
}

/// Parses the staged facts the way both binaries do (a facts-only
/// source text) into a delta.
fn stage(retract: &[Fact], insert: &[Fact]) -> io::Result<EdbDelta> {
    let mut delta = EdbDelta::new();
    for (facts, is_insert) in [(retract, false), (insert, true)] {
        if facts.is_empty() {
            continue;
        }
        let program = parse_program(&batch_text(facts)).map_err(eval_err)?;
        for a in &program.facts {
            if !a.args.iter().all(Term::is_ground) {
                return Err(eval_err(format!("fact {a} is not ground")));
            }
            let t = Tuple::new(a.args.clone());
            if is_insert {
                delta.insert(a.pred, t);
            } else {
                delta.retract(a.pred, t);
            }
        }
    }
    Ok(delta)
}

/// What one `ldl-serve` session keeps, and what the daemon does with
/// one request line.
struct ServeMirror {
    service: Service,
    pinned: Arc<StateView>,
    pending: EdbDelta,
    dir: PathBuf,
}

impl ServeMirror {
    /// A daemon on a fresh `dir`, then the `load` request.
    fn load(dir: &Path, text: &str) -> io::Result<ServeMirror> {
        let _ = std::fs::remove_dir_all(dir);
        let service = Service::open(dir, &FixpointConfig::serial(), 64).map_err(eval_err)?;
        let pinned = service.load_rules(text).map_err(eval_err)?;
        Ok(ServeMirror {
            service,
            pinned,
            pending: EdbDelta::new(),
            dir: dir.to_path_buf(),
        })
    }

    /// One request line in, one response line out.
    fn request(&mut self, tr: &mut Tracer, line: &str) -> io::Result<String> {
        let request = tr
            .span("serve.json_parse", |_| json::parse(line))
            .map_err(eval_err)?;
        let member = |k: &str| request.get(k).and_then(Json::as_str).unwrap_or("");
        let ok = |mut pairs: Vec<(&str, Json)>| {
            pairs.insert(0, ("ok", Json::Bool(true)));
            Json::obj(pairs)
        };
        let response = match member("op") {
            "query" => {
                let query = tr
                    .span("core.parse_query", |_| parse_query(member("goal")))
                    .map_err(eval_err)?;
                let answers = tr.span("serve.view_answers", |_| self.pinned.answers(&query));
                return Ok(tr.span("serve.json_encode", |_| {
                    ok(vec![
                        ("version", Json::int(self.pinned.version as i64)),
                        ("count", Json::int(answers.len() as i64)),
                        (
                            "rows",
                            Json::Arr(answers.iter().map(|t| Json::str(t.to_string())).collect()),
                        ),
                    ])
                    .to_string()
                }));
            }
            op @ ("insert" | "retract") => {
                let facts = tr
                    .span("core.parse_facts", |_| parse_program(member("facts")))
                    .map_err(eval_err)?;
                for a in &facts.facts {
                    let t = Tuple::new(a.args.clone());
                    if op == "insert" {
                        self.pending.insert(a.pred, t);
                    } else {
                        self.pending.retract(a.pred, t);
                    }
                }
                ok(vec![("staged", Json::int(self.pending.len() as i64))])
            }
            "commit" => {
                let (view, report) = tr
                    .span("serve.commit", |_| self.service.commit(&self.pending))
                    .map_err(eval_err)?;
                self.pending = EdbDelta::new();
                // The session lets go of the view it had pinned; when
                // nobody else holds it, that frees a whole database.
                tr.span("serve.view_drop", |_| self.pinned = view);
                ok(vec![
                    ("version", Json::int(self.pinned.version as i64)),
                    ("base_inserted", Json::int(report.base_inserted as i64)),
                    ("base_retracted", Json::int(report.base_retracted as i64)),
                ])
            }
            other => return Err(eval_err(format!("mirror has no op '{other}'"))),
        };
        Ok(response.to_string())
    }
}

/// Either mirror, behind the two things an op list asks for.
enum Mirror {
    Shell(ShellMirror),
    Serve(ServeMirror),
}

impl Mirror {
    fn load(target: Target, text: &str, dir: &Path) -> io::Result<Mirror> {
        Ok(match target {
            Target::Shell => Mirror::Shell(ShellMirror::load(text)?),
            Target::Serve => Mirror::Serve(ServeMirror::load(dir, text)?),
        })
    }

    /// Runs one op; `Ok(false)` when the answer disagrees with the
    /// reference.
    fn run(&mut self, tr: &mut Tracer, op: &Op) -> io::Result<bool> {
        match (self, op) {
            (Mirror::Shell(m), Op::Query { text, expect, .. }) => Ok(m.query(tr, text)? == *expect),
            (Mirror::Shell(m), Op::Commit { retract, insert }) => {
                m.commit(tr, retract, insert).map(|()| true)
            }
            (Mirror::Serve(m), Op::Query { text, expect, .. }) => {
                let line = m.request(tr, &wire::request("query", Some(("goal", text))))?;
                let reply = wire::parse_reply(&line).map_err(eval_err)?;
                Ok(reply.ok && reply.rows == *expect)
            }
            (Mirror::Serve(m), Op::Commit { retract, insert }) => {
                if !retract.is_empty() {
                    m.request(
                        tr,
                        &wire::request("retract", Some(("facts", &batch_text(retract)))),
                    )?;
                }
                if !insert.is_empty() {
                    m.request(
                        tr,
                        &wire::request("insert", Some(("facts", &batch_text(insert)))),
                    )?;
                }
                let line = m.request(tr, &wire::request("commit", None))?;
                let reply = wire::parse_reply(&line).map_err(eval_err)?;
                Ok(reply.ok
                    && reply.base_inserted == Some(insert.len() as u64)
                    && reply.base_retracted == Some(retract.len() as u64))
            }
        }
    }
}

/// One in-process pass over `ops`: each op is a root span. Returns the
/// mirror, the per-op wall times (ms, queries and commits apart) and
/// how many answers disagreed with the reference.
struct Pass {
    mirror: Mirror,
    tracer: Tracer,
    query_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    wrong: u64,
}

fn run_pass(
    target: Target,
    text: &str,
    dir: &Path,
    warmup: &[Op],
    ops: &[Op],
    traced: bool,
) -> io::Result<Pass> {
    let mut pass = Pass {
        mirror: Mirror::load(target, text, dir)?,
        tracer: Tracer::new(traced),
        query_ms: Vec::new(),
        commit_ms: Vec::new(),
        wrong: 0,
    };
    // Set-up, as in the untraced run: the warm-up ops are not ops.
    let mut off = Tracer::new(false);
    for op in warmup {
        if !pass.mirror.run(&mut off, op)? {
            pass.wrong += 1;
        }
    }
    if let Mirror::Shell(shell) = &mut pass.mirror {
        shell.totals = QueryTotals::default();
    }
    for (i, op) in ops.iter().enumerate() {
        pass.tracer.op_id = i as u32;
        let started = Instant::now();
        let mirror = &mut pass.mirror;
        let right = pass.tracer.span("op", |tr| mirror.run(tr, op))?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match op {
            Op::Query { .. } => pass.query_ms.push(ms),
            Op::Commit { .. } => pass.commit_ms.push(ms),
        }
        if !right {
            pass.wrong += 1;
        }
    }
    Ok(pass)
}

/// The deltas of the commits in `ops`, in order.
fn deltas(ops: &[Op]) -> io::Result<Vec<EdbDelta>> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Commit { retract, insert } => Some(stage(retract, insert)),
            Op::Query { .. } => None,
        })
        .collect()
}

/// Ops and checks attempted and failed, with what failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    fn ops(&mut self, what: &str, attempted: usize, wrong: u64) {
        self.attempted += attempted as u64;
        self.failed += wrong;
        if wrong > 0 {
            self.failures
                .push(format!("{what}: {wrong} of {attempted} ops"));
        }
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.ops(what, 1, !ok as u64);
    }
}

/// What the traced run hands back.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    /// Share of the workload's own path's op time by child span name,
    /// for the layer-separation printout.
    pub shares: Vec<(&'static str, f64)>,
    pub spans: usize,
}

/// Share of all root-span time by direct-child span name, largest
/// first; `(glue)` is root self time, the part of an op the trace
/// cannot attribute to a layer call.
fn share_table(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut root_total = 0u64;
    for s in &tr.spans {
        let d = s.end_ns - s.start_ns;
        if s.parent == 0 {
            root_total += d;
        } else if tr.spans[s.parent as usize - 1].parent == 0 {
            *by_name.entry(s.name).or_default() += d;
        }
    }
    let covered: u64 = by_name.values().sum();
    let share = |ns: u64| ns as f64 / root_total.max(1) as f64;
    let mut table: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name, share(ns)))
        .collect();
    table.push(("(glue)", share(root_total - covered)));
    table.sort_by(|a, b| b.1.total_cmp(&a.1));
    table
}

/// The traced run's working state: where metrics and failures collect.
struct Probes<'a> {
    w: &'a Workload,
    out: &'a Path,
    /// What `ldl-serve` evaluates with (and the standalone probes too).
    serial: FixpointConfig,
    m: BTreeMap<&'static str, f64>,
    tally: Tally,
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.m.insert(name, value);
    }

    /// A scratch directory under `out`, emptied.
    fn scratch(&self, suffix: &str) -> PathBuf {
        let dir = self.out.join(format!("{}.{suffix}", self.w.name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Front end and storage on the loaded text.
    fn front_end_and_storage(
        &mut self,
        bins: &Bins,
        loaded: &str,
    ) -> io::Result<(Program, Database)> {
        let program = parse_program(loaded).map_err(eval_err)?;
        let db = Database::from_program(&program);
        self.put(
            "storage.rss_bytes_per_row",
            drive::load_rss_bytes_per_row(self.w, bins, self.out, db.total_tuples())?,
        );

        let facts = program.facts.len().max(1) as f64;
        self.put(
            "core.parse_program_ms",
            time_ms(5, || parse_program(loaded)),
        );
        self.put(
            "storage.load_ns_per_fact",
            time_ms(5, || Database::from_program(&program)) * 1e6 / facts,
        );
        self.put(
            "analysis.load_check_ms",
            time_ms(3, || {
                ldl_analysis::analyze_program_db(&program, &db, &AnalysisOptions::default())
            }),
        );
        let collect = || {
            (
                collect_signatures(&program),
                collect_range_signatures(&program),
            )
        };
        self.put("index.collect_us", time_ms(5, collect) * 1e3);
        let (eq, ranges) = collect();
        self.put(
            "index.cover_us",
            time_ms(5, || IndexCatalog::from_signature_maps(&eq, &ranges)) * 1e3,
        );

        let largest = db
            .preds()
            .into_iter()
            .filter_map(|p| db.relation(p))
            .max_by_key(|r| r.len())
            .ok_or_else(|| eval_err("no base relation"))?;
        let reversed: Vec<usize> = (0..largest.arity()).rev().collect();
        // A fresh copy each time (a relation caches its indexes); only
        // the build is timed.
        let builds: Vec<f64> = (0..5)
            .map(|_| {
                let fresh = Relation::from_tuples(largest.arity(), largest.iter().cloned());
                let started = Instant::now();
                std::hint::black_box(fresh.ordered_index_on(&reversed));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        self.put("storage.ordered_build_ms", median(&builds));
        let encoded = codec::encode_database(&db);
        self.put(
            "storage.encode_ms",
            time_ms(5, || codec::encode_database(&db)),
        );
        self.put(
            "storage.decode_ms",
            time_ms(5, || codec::decode_database(&encoded)),
        );
        self.put(
            "storage.encoded_bytes_per_row",
            ratio(encoded.len() as f64, db.total_tuples() as f64),
        );
        self.put(
            "maintain.evaluate_ms",
            time_ms(3, || Engine::evaluate(&program, &db, &self.serial)),
        );
        Ok((program, db))
    }

    /// What the shell path's spans and counters say.
    fn shell_path(&mut self, tracer: &Tracer, t: &QueryTotals) {
        let us = |name: &str| median(&tracer.durations_ms(name)) * 1e3;
        self.put("core.parse_query_us", us("core.parse_query"));
        self.put("analysis.query_gate_us", us("analysis.query_gate"));
        self.put(
            "optimizer.co_optimize_ms",
            median(&tracer.durations_ms("optimizer.co_optimize")),
        );
        self.put("optimizer.co_iterations", t.co_iterations as f64);
        self.put("optimizer.explored_plans", t.explored_plans as f64);
        self.put("optimizer.enum_memo_hits", t.enum_memo_hits as f64);
        self.put(
            "optimizer.answers_qerror",
            ratio(t.ln_qerror, t.queries as f64).exp(),
        );
        self.put("index.orders_selected", t.orders_selected as f64);
        self.put(
            "eval.execute_ms",
            median(&tracer.durations_ms("eval.execute")),
        );
        self.put("eval.tuples_derived", t.eval.tuples_derived as f64);
        self.put("eval.tuples_produced", t.eval.tuples_produced as f64);
        self.put(
            "eval.derive_ratio",
            ratio(t.eval.tuples_derived as f64, t.eval.tuples_produced as f64),
        );
        self.put("eval.iterations", t.eval.iterations as f64);
        self.put("eval.rule_firings", t.eval.rule_firings as f64);
        self.put("storage.rows_enumerated", t.index.rows_enumerated as f64);
        self.put(
            "storage.rows_per_answer",
            ratio(t.index.rows_enumerated as f64, t.answers as f64),
        );
        self.put("storage.ordered_builds", t.index.ordered_builds as f64);
        self.put("storage.hash_builds", t.index.hash_builds as f64);
        self.put("storage.ordered_probes", t.index.ordered_probes as f64);
        self.put("storage.hash_probes", t.index.hash_probes as f64);
        self.put("storage.range_probes", t.index.range_probes as f64);
    }

    /// The maintenance engine and the WAL on their own, fed the commits
    /// (and asked the goals) of the serve pass, so that what
    /// `Service::commit` adds on top of them — the publish clone, mostly
    /// — can be read off.
    fn maintenance_and_wal(
        &mut self,
        program: &Program,
        db: &Database,
        warm: &[EdbDelta],
        batches: &[EdbDelta],
        serve_ops: &[Op],
        commit_ms: f64,
    ) -> io::Result<()> {
        let mut twin = Engine::evaluate(program, db, &self.serial).map_err(eval_err)?;
        for delta in warm {
            twin.apply_delta(delta).map_err(eval_err)?;
        }
        let (mut validate_us, mut apply_ms) = (Vec::new(), Vec::new());
        let (mut churn, mut rows) = (0u64, 0u64);
        for delta in batches {
            let started = Instant::now();
            twin.validate_delta(delta).map_err(eval_err)?;
            validate_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            let (report, work) = IndexCounters::scoped(|| twin.apply_delta(delta));
            apply_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let report = report.map_err(eval_err)?;
            churn += (report.derived_inserted + report.derived_retracted) as u64;
            rows += work.rows_enumerated;
        }
        let commits = batches.len().max(1) as f64;
        self.put("maintain.validate_us", median(&validate_us));
        self.put("maintain.apply_delta_ms", median(&apply_ms));
        self.put("maintain.derived_churn_per_commit", churn as f64 / commits);
        self.put("maintain.rows_enumerated_per_commit", rows as f64 / commits);

        let (mut answers_us, mut scanned, mut answered) = (Vec::new(), 0u64, 0u64);
        for op in serve_ops {
            if let Op::Query { text, .. } = op {
                let query = parse_query(text).map_err(eval_err)?;
                let started = Instant::now();
                let (answers, work) = IndexCounters::scoped(|| twin.answers(&query));
                answers_us.push(started.elapsed().as_secs_f64() * 1e6);
                // The answer path does not count the rows it scans
                // today, so it is charged the relation's length; once
                // it probes and counts, the counter takes over.
                scanned += match work.rows_enumerated {
                    0 => twin.relation(query.pred()).map_or(0, Relation::len) as u64,
                    counted => counted,
                };
                answered += answers.len() as u64;
            }
        }
        self.put("maintain.answers_us", median(&answers_us));
        self.put(
            "maintain.rows_scanned_per_answer",
            ratio(scanned as f64, answered as f64),
        );
        drop(twin);

        let wal_dir = self.scratch("trace.wal");
        std::fs::create_dir_all(&wal_dir)?;
        let (mut wal, _) = Wal::open(&wal_dir.join("wal.bin")).map_err(eval_err)?;
        let wal_start = wal.len_bytes();
        let (mut append_us, mut sync_ms) = (Vec::new(), Vec::new());
        for (i, delta) in batches.iter().enumerate() {
            let record = WalRecord::Delta(delta.clone());
            let started = Instant::now();
            wal.append_nosync(i as u64 + 1, &record).map_err(eval_err)?;
            append_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            wal.sync().map_err(eval_err)?;
            sync_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        self.put("serve.wal_append_us", median(&append_us));
        self.put("serve.wal_sync_ms", median(&sync_ms));
        self.put(
            "serve.wal_bytes_per_commit",
            (wal.len_bytes() - wal_start) as f64 / commits,
        );
        drop(wal);
        let _ = std::fs::remove_dir_all(&wal_dir);
        self.put(
            "serve.commit_overhead_ms",
            commit_ms - median(&apply_ms) - median(&append_us) / 1e3 - median(&sync_ms),
        );
        Ok(())
    }

    /// The same commits against the database with and without its
    /// ballast: 1.0 would be a commit whose cost ignores the untouched
    /// part of the database. The serve pass is one side (with the
    /// ballast on the serve workloads, whose daemon loads it; without on
    /// the shell ones); a second service on the other text is the other.
    fn ballast_ratio(
        &mut self,
        serve_commit_ms: &[f64],
        warm: &[EdbDelta],
        batches: &[EdbDelta],
    ) -> io::Result<()> {
        let commits = &batches[..batches.len().min(40)];
        let this_side = median(&serve_commit_ms[..commits.len()]);
        let other_text = match self.w.target {
            Target::Shell => format!("{}{}", self.w.core, self.w.ballast),
            Target::Serve => self.w.core.clone(),
        };
        let dir = self.scratch("trace.ballast");
        let service = Service::open(&dir, &self.serial, 0).map_err(eval_err)?;
        service.load_rules(&other_text).map_err(eval_err)?;
        for delta in warm {
            service.commit(delta).map_err(eval_err)?;
        }
        let mut ms = Vec::new();
        for delta in commits {
            let started = Instant::now();
            service.commit(delta).map_err(eval_err)?;
            ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
        let (with, without) = match self.w.target {
            Target::Shell => (median(&ms), this_side),
            Target::Serve => (this_side, median(&ms)),
        };
        self.put("serve.commit_ballast_ratio", ratio(with, without));
        Ok(())
    }

    /// The replication feed and a second in-process service fed by the
    /// serve pass's: bootstrapped from its image, then shipped twenty
    /// more commits one record at a time.
    fn replication(&mut self, primary: &Service, batches: &[EdbDelta]) -> io::Result<()> {
        let epoch = primary.epoch();
        let since = primary.version().saturating_sub(16);
        self.put(
            "serve.feed_since_us",
            time_ms(20, || primary.feed_since(epoch, since, 64)) * 1e3,
        );
        let dir = self.scratch("trace.replica");
        let replica = Service::open_with(&dir, &self.serial, ServiceOptions::replica(0, "bench"))
            .map_err(eval_err)?;
        // A fresh directory has an epoch of its own, which the primary
        // answers with its full image.
        let Feed::Bootstrap {
            seq,
            program_text,
            db,
        } = primary.feed_since(replica.epoch(), 0, 1)
        else {
            return Err(eval_err("a fresh replica must be offered an image"));
        };
        replica
            .install_bootstrap(epoch, seq, &program_text, &db)
            .map_err(eval_err)?;
        let mut replicated_ms = Vec::new();
        for delta in batches.iter().take(20) {
            primary.commit(delta).map_err(eval_err)?;
            let (_, at) = replica.position();
            if let Feed::Records { records, .. } = primary.feed_since(epoch, at, 1) {
                let started = Instant::now();
                replica.apply_replicated(&records).map_err(eval_err)?;
                replicated_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
        self.put("serve.apply_replicated_ms", median(&replicated_ms));
        self.tally.check(
            "replica digest differs from the primary's",
            replica.current().digest() == primary.current().digest(),
        );
        drop(replica);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

/// The traced run of workload `w`: its warm-up ops, then the `n` ops
/// after them (the ones the untraced run measures first).
pub fn run_traced(w: &Workload, bins: &Bins, out: &Path, n: usize) -> io::Result<Traced> {
    let mut p = Probes {
        w,
        out,
        serial: FixpointConfig::serial(),
        m: BTreeMap::new(),
        tally: Tally::default(),
    };
    let warmup = &w.ops[..w.warmup];
    let ops = &w.ops[w.warmup..(w.warmup + n).min(w.ops.len())];
    let loaded = w.loaded_text();
    let (program, db) = p.front_end_and_storage(bins, &loaded)?;

    // The two mirrors. The workload's own path runs all `ops` twice,
    // spans off then on; the other path runs a sample once, spans on.
    let sample = &ops[..ops.len().min(match w.target {
        Target::Shell => 130,
        Target::Serve => 300,
    })];
    let (other_target, serve_ops) = match w.target {
        Target::Shell => (Target::Serve, sample),
        Target::Serve => (Target::Shell, ops),
    };
    let dir = p.scratch("trace.data");
    let untraced = run_pass(w.target, &loaded, &dir, warmup, ops, false)?;
    drop(untraced.mirror);
    let own = run_pass(w.target, &loaded, &dir, warmup, ops, true)?;
    let other_dir = p.scratch("trace2.data");
    let other = run_pass(other_target, &loaded, &other_dir, warmup, sample, true)?;
    let disagree = "in-process answers that disagree with the reference";
    p.tally
        .ops(disagree, warmup.len() + ops.len(), untraced.wrong);
    p.tally.ops(disagree, warmup.len() + ops.len(), own.wrong);
    p.tally
        .ops(disagree, warmup.len() + sample.len(), other.wrong);

    let (shell_pass, serve_pass) = match w.target {
        Target::Shell => (&own, &other),
        Target::Serve => (&other, &own),
    };
    let (Mirror::Shell(shell), Mirror::Serve(serve)) = (&shell_pass.mirror, &serve_pass.mirror)
    else {
        unreachable!("each pass holds the mirror it was built with")
    };
    p.shell_path(&shell_pass.tracer, &shell.totals);
    let serve_us = |name: &str| median(&serve_pass.tracer.durations_ms(name)) * 1e3;
    p.put("serve.view_answers_us", serve_us("serve.view_answers"));
    p.put("serve.json_parse_us", serve_us("serve.json_parse"));
    p.put("serve.json_encode_us", serve_us("serve.json_encode"));
    let serve_commit_ms = serve_pass.tracer.durations_ms("serve.commit");
    p.put("serve.commit_ms", median(&serve_commit_ms));
    let counters = serve.service.counters();
    p.put(
        "serve.fsyncs_per_commit",
        ratio(counters.fsyncs as f64, counters.commits as f64),
    );

    let warm = deltas(warmup)?;
    let batches = deltas(serve_ops)?;
    p.maintenance_and_wal(
        &program,
        &db,
        &warm,
        &batches,
        serve_ops,
        median(&serve_commit_ms),
    )?;
    p.ballast_ratio(&serve_commit_ms, &warm, &batches)?;
    p.replication(&serve.service, &batches)?;

    // Snapshot, then restart from the serve pass's directory.
    let digest_live = serve.service.current().digest();
    p.put(
        "serve.snapshot_ms",
        time_ms(3, || {
            serve
                .service
                .snapshot_now()
                .expect("snapshot the serve pass")
        }),
    );
    p.put(
        "serve.snapshot_bytes",
        std::fs::metadata(ldl_serve::snapshot::snapshot_path(&serve.dir))
            .map_or(0.0, |meta| meta.len() as f64),
    );
    let serve_dir = serve.dir.clone();
    let shares = share_table(&own.tracer);
    let spans = own.tracer.spans.len();
    own.tracer
        .write_json(&out.join(format!("trace_{}.json", w.name)))?;
    let own_query_ms = own.query_ms.clone();
    let untraced_total: f64 = untraced.query_ms.iter().chain(&untraced.commit_ms).sum();
    let traced_total: f64 = own.query_ms.iter().chain(&own.commit_ms).sum();
    drop(own);
    drop(other);
    let mut recovered_digest = 0;
    p.put(
        "serve.open_recover_ms",
        time_ms(3, || {
            let service = Service::open(&serve_dir, &p.serial, 64).expect("reopen the serve pass");
            recovered_digest = service.current().digest();
        }),
    );
    p.tally.check(
        "in-process recovery lost state",
        recovered_digest == digest_live,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other_dir);

    // The real binary over the same first ops, for what the wire and the
    // process add; and `ping` against a live daemon.
    let wire_ops = ops.len().min(130);
    let (binary_query_ms, wrong) = drive::run_reference_pass(w, bins, out, wire_ops)?;
    p.tally.ops(
        "binary-driven answers that disagree with the reference",
        w.warmup + wire_ops,
        wrong,
    );
    p.put(
        "trace.wire_overhead_ms",
        median(&binary_query_ms) - median(&own_query_ms[..binary_query_ms.len()]),
    );
    p.put(
        "serve.wire_rtt_us",
        median(&drive::ping_rtt_us(bins, out, 200)?),
    );
    let glue = shares
        .iter()
        .find(|(name, _)| *name == "(glue)")
        .map_or(0.0, |(_, share)| *share);
    p.put("trace.coverage_share", 1.0 - glue);
    if w.target == Target::Shell {
        p.tally
            .check("trace.coverage_share below 0.9", 1.0 - glue >= 0.9);
    }
    p.put(
        "trace.overhead_share",
        ratio(traced_total - untraced_total, untraced_total),
    );

    Ok(Traced {
        metrics: p.m,
        tally: p.tally,
        shares,
        spans,
    })
}
