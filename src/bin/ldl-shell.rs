//! `ldl-shell` — an interactive LDL console.
//!
//! ```text
//! $ cargo run --bin ldl-shell [file.ldl ...]
//! ldl> e(1, 2).  e(2, 3).
//! ldl> tc(X, Y) <- e(X, Y).
//! ldl> tc(X, Y) <- e(X, Z), tc(Z, Y).
//! ldl> tc(1, Y)?
//! tc(1, 2)
//! tc(1, 3)
//! 2 answers (method magic, est. cost 42.0, 0.3 ms)
//! ldl> :explain tc(1, Y)?
//! ...processing tree, method costs, chosen SIPs...
//! ```
//!
//! Commands: `:help`, `:rules`, `:stats`, `:check`, `:rewrite`,
//! `:explain <goal>?`,
//! `:strategy <exhaustive|dp|kbz|annealing>`, `:acyclic <on|off>`,
//! `:insert <fact>.` / `:retract <fact>.` / `:commit` (incremental
//! updates through the maintenance engine), `:load <file>`, `:reset`,
//! `:quit`.
//!
//! Batch mode: `ldl-shell --check [--json] file.ldl ...` analyzes each
//! file without evaluating anything and exits non-zero if any file has
//! error-severity findings (or fails to read/parse).
//!
//! Client mode: `ldl-shell --connect <host:port|socket-path>` attaches
//! the same REPL surface to a running `ldl-serve` daemon. Rules and
//! facts typed at the prompt go through the server's transactional
//! `load`/`commit` path; queries run against the session's pinned
//! snapshot (`:refresh` to re-pin).

use ldl::analysis::{self, AnalysisOptions};
use ldl::core::parser::{parse_query, parse_source};
use ldl::core::Span;
use ldl::core::{Query, Term};
use ldl::eval::AccessPaths;
use ldl::optimizer::opt::PredPlanKind;
use ldl::optimizer::{ProcessingTree, Strategy};
use ldl::session::{Planned, QueryError, Session};
use ldl::storage::{Relation, Tuple};
use std::io::{BufRead, Write};

/// The local REPL: line parsing and text formatting over a [`Session`],
/// which owns all state and answers every goal.
struct Shell {
    session: Session,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// One `pred(args)` line per answer, sorted, each newline-terminated.
fn answer_rows(query: &Query, answers: &Relation) -> String {
    let mut rows: Vec<String> = answers
        .iter()
        .map(|t| format!("{}{}", query.pred().name, t))
        .collect();
    rows.sort();
    rows.iter().map(|r| format!("{r}\n")).collect()
}

/// `on` / `off` for the boolean commands.
fn parse_switch(arg: &str) -> Result<bool, String> {
    match arg {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("expected on|off, got {other:?}")),
    }
}

impl Shell {
    fn new() -> Shell {
        Shell {
            session: Session::new(),
        }
    }

    /// Handles one input line; returns the text to print.
    fn handle(&mut self, line: &str) -> String {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            return String::new();
        }
        if let Some(cmd) = line.strip_prefix(':') {
            return self.command(cmd);
        }
        if line.ends_with('?') {
            // A lone `goal?` — but a line may also mix statements and
            // queries, which `load` handles below.
            if let Ok(q) = parse_query(line) {
                return self.run_query(&q);
            }
        }
        // Otherwise: program text (possibly several statements).
        self.load(line, "added", "error")
    }

    /// Loads program text and runs the goals it carries. `done` and
    /// `failed` prefix the summary line and the parse-error line.
    fn load(&mut self, text: &str, done: &str, failed: &str) -> String {
        match self.session.load(text) {
            Ok(loaded) => {
                let mut out = format!("{done} {} rule(s), {} fact(s)", loaded.rules, loaded.facts);
                for q in &loaded.queries {
                    out.push('\n');
                    out.push_str(&self.run_query(q));
                }
                out
            }
            Err(e) => format!("{failed}: {e}"),
        }
    }

    fn command(&mut self, cmd: &str) -> String {
        let mut parts = cmd.splitn(2, ' ');
        let name = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        match name {
            "help" => "\
commands:
  <fact>. / <rule>.        add to the knowledge base
  <goal>?                  optimize and run a query
  :check                   run static analysis over the rule base
  :explain <goal>?         show the chosen plan without running it
  :plan <goal>?            co-optimized order + index set + memo counters
  :prolog <goal>?          answer by Prolog-style SLD (textual order)
  :strategy <s>            exhaustive | dp | memo | kbz | annealing
  :paths <p>               selected | hash | scan (probe access paths)
  :acyclic <on|off>        assume base data acyclic (enables counting)
  :rewrite <on|off>        apply the sound rewrite pass before evaluation
  :rules                   list the current rule base
  :stats                   per-relation cardinalities
  :insert <fact>.          stage a base-fact insert
  :retract <fact>.         stage a base-fact retract
  :commit                  apply staged updates incrementally
  :pending                 list staged updates
  :abort                   discard staged updates
  :load <file>             load a .ldl file
  :reset                   drop everything
  :quit                    exit"
                .to_string(),
            "rules" => {
                let program = self.session.program();
                if program.rules.is_empty() && program.facts.is_empty() {
                    "(empty)".to_string()
                } else {
                    format!("{program}").trim_end().to_string()
                }
            }
            "stats" => {
                let db = self.session.database();
                let mut lines: Vec<String> = db
                    .preds()
                    .into_iter()
                    .map(|p| {
                        let s = db.stats(p);
                        format!("{p}: {} tuples", s.cardinality)
                    })
                    .collect();
                lines.sort();
                if lines.is_empty() {
                    "(no relations)".to_string()
                } else {
                    lines.join("\n")
                }
            }
            "strategy" => match Strategy::ALL.into_iter().find(|s| s.name() == arg) {
                Some(s) => {
                    self.session.configure(|c, _| c.strategy = s);
                    format!("strategy = {arg}")
                }
                None => {
                    let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
                    format!("unknown strategy {arg:?} ({})", names.join("|"))
                }
            },
            "paths" => match AccessPaths::parse(arg) {
                Some(p) => {
                    self.session.configure(|_, f| f.access_paths = p);
                    format!("access paths = {arg}")
                }
                None => format!("unknown access-path policy {arg:?} (selected|hash|scan)"),
            },
            "rewrite" => match parse_switch(arg) {
                Ok(on) => {
                    self.session.configure(|_, f| f.rewrite = on);
                    if on {
                        "rewrite = on (constant propagation, folding, duplicate/subsumed-rule removal)"
                            .into()
                    } else {
                        "rewrite = off".into()
                    }
                }
                Err(e) => e,
            },
            "acyclic" => match parse_switch(arg) {
                Ok(on) => {
                    self.session.configure(|c, _| c.assume_acyclic = on);
                    if on {
                        "assume_acyclic = on (counting method enabled)".into()
                    } else {
                        "assume_acyclic = off".into()
                    }
                }
                Err(e) => e,
            },
            "check" => {
                let opts = AnalysisOptions {
                    assume_acyclic: self.session.config().assume_acyclic,
                    ..Default::default()
                };
                let report = analysis::analyze_program_db(
                    self.session.program(),
                    self.session.database(),
                    &opts,
                );
                report.render_text(None, "<repl>").trim_end().to_string()
            }
            "explain" => self.show_plan(arg, Shell::render_explain),
            "plan" => self.show_plan(arg, Shell::render_plan),
            "prolog" => match parse_query(arg) {
                Ok(q) => {
                    let cfg = ldl::eval::sld::SldConfig::default();
                    let (program, db) = (self.session.program(), self.session.database());
                    match ldl::eval::sld::solve_sld(program, db, &q, &cfg) {
                        Ok((ans, stats)) => {
                            let mut out = answer_rows(&q, &ans);
                            out.push_str(&format!(
                                "{} answer(s) via SLD ({} resolutions{})",
                                ans.len(),
                                stats.resolutions,
                                if stats.depth_exceeded {
                                    ", DEPTH BOUND HIT - answers may be incomplete"
                                } else {
                                    ""
                                }
                            ));
                            out
                        }
                        Err(e) => format!("prolog error: {e}"),
                    }
                }
                Err(e) => format!("error: {e}"),
            },
            "insert" => self.stage(arg, true),
            "retract" => self.stage(arg, false),
            "commit" => self.commit(),
            "pending" => {
                let pending = self.session.pending();
                if pending.is_empty() {
                    "nothing staged".to_string()
                } else {
                    let mut lines = Vec::new();
                    for (p, ts) in pending.staged_inserts() {
                        for t in ts {
                            lines.push(format!("  +{}{t}", p.name));
                        }
                    }
                    for (p, ts) in pending.staged_retracts() {
                        for t in ts {
                            lines.push(format!("  -{}{t}", p.name));
                        }
                    }
                    format!(
                        "{} operation(s) staged:\n{}",
                        pending.len(),
                        lines.join("\n")
                    )
                }
            }
            "abort" => format!("discarded {} staged operation(s)", self.session.abort()),
            "load" => match std::fs::read_to_string(arg) {
                Ok(text) => self.load(&text, &format!("loaded {arg}:"), &format!("error in {arg}")),
                Err(e) => format!("cannot read {arg}: {e}"),
            },
            "reset" => {
                self.session.reset();
                "knowledge base cleared".into()
            }
            "quit" | "q" | "exit" => "bye".into(),
            other => format!("unknown command :{other} (try :help)"),
        }
    }

    /// Stages ground facts from `arg` into the pending update batch.
    fn stage(&mut self, arg: &str, insert: bool) -> String {
        let verb = if insert { "insert" } else { "retract" };
        let src = match parse_source(arg) {
            Ok(src) => src,
            Err(e) => return format!("error: {e}"),
        };
        if !src.program.rules.is_empty() || !src.queries.is_empty() {
            return format!("only ground facts can be staged (:{verb} e(1, 2).)");
        }
        if src.program.facts.is_empty() {
            return format!("nothing to stage (:{verb} e(1, 2).)");
        }
        let mut n = 0usize;
        for f in &src.program.facts {
            if !f.args.iter().all(Term::is_ground) {
                return format!("error: {f} is not ground");
            }
            let t = Tuple::new(f.args.clone());
            if insert {
                self.session.stage_insert(f.pred, t);
            } else {
                self.session.stage_retract(f.pred, t);
            }
            n += 1;
        }
        format!(
            "staged {n} {verb}(s); {} operation(s) pending (:commit to apply)",
            self.session.pending().len()
        )
    }

    /// `:commit` — a refused batch stays staged (fix it with further
    /// `:insert`/`:retract` or drop it with `:abort`).
    fn commit(&mut self) -> String {
        if self.session.pending().is_empty() {
            return "nothing to commit".into();
        }
        match self.session.commit() {
            Ok(report) => {
                let mut out = format!(
                    "committed: base +{}/-{}, derived +{}/-{} ({} stratum(s) repaired, {} skipped)",
                    report.base_inserted,
                    report.base_retracted,
                    report.derived_inserted,
                    report.derived_retracted,
                    report.groups_touched,
                    report.groups_skipped
                );
                for (p, plus, minus) in &report.changes {
                    out.push_str(&format!("\n  {p}: +{plus}/-{minus}"));
                }
                out
            }
            Err(e) => format!("commit failed: {e} (staged batch preserved; :abort to discard)"),
        }
    }

    fn query_error(e: QueryError) -> String {
        match e {
            QueryError::Rejected(report) => format!(
                "unsafe query rejected:\n{}",
                report.render_text(None, "<repl>").trim_end()
            ),
            QueryError::Plan(e) => format!("{e}"),
            QueryError::Run(e) => format!("execution error: {e}"),
        }
    }

    fn run_query(&mut self, query: &Query) -> String {
        match self.session.query(query) {
            Ok(done) => {
                let mut out = answer_rows(query, &done.answer.tuples);
                let plan = &done.planned.co.plan;
                out.push_str(&format!(
                    "{} answer(s)  (method {}, est. cost {:.1}, optimize {:.2} ms, run {:.2} ms)",
                    done.answer.tuples.len(),
                    plan.method.name(),
                    plan.cost,
                    ms(done.planned.elapsed),
                    ms(done.run_time)
                ));
                out
            }
            Err(e) => Shell::query_error(e),
        }
    }

    /// `:explain` / `:plan`: compile (or fetch) the goal's plan and
    /// render it, without running it.
    fn show_plan(&mut self, arg: &str, render: fn(&Shell, &Query, &Planned) -> String) -> String {
        let query = match parse_query(arg) {
            Ok(q) => q,
            Err(e) => return format!("error: {e}"),
        };
        match self.session.explain(&query) {
            Ok(planned) => render(self, &query, &planned),
            Err(e) => Shell::query_error(e),
        }
    }

    /// `:explain <goal>?` — method, costs, SIPs and the processing tree.
    fn render_explain(&self, query: &Query, planned: &Planned) -> String {
        let plan = &planned.co.plan;
        let mut out = String::new();
        out.push_str(&format!(
            "query form:   {}.{}\n",
            query.pred().name,
            query.adornment()
        ));
        out.push_str(&format!("method:       {:?}\n", plan.method));
        out.push_str(&format!(
            "est. cost:    {:.1}   est. answers: {:.1}\n",
            plan.cost, plan.estimated_answers
        ));
        if let PredPlanKind::Clique {
            method_costs,
            sips,
            full_size,
            ..
        } = &plan.plan.kind
        {
            out.push_str(&format!("clique size estimate: {full_size:.0}\n"));
            out.push_str("method costs:\n");
            for (m, c) in method_costs {
                out.push_str(&format!("  {:<12} {:.1}\n", m.name(), c));
            }
            for (ri, order) in sips {
                out.push_str(&format!("  rule {ri} SIP order: {order:?}\n"));
            }
        }
        if let PredPlanKind::Union(rules) = &plan.plan.kind {
            for rp in rules {
                out.push_str(&format!(
                    "  rule {} under {}: order {:?}, cost {:.1}\n",
                    rp.rule_index, rp.head_adornment, rp.order, rp.cost
                ));
            }
        }
        out.push_str("processing tree:\n");
        out.push_str(&ProcessingTree::from_plan(self.session.program(), plan).to_string());
        out.push_str(&plan_time(planned, "optimized"));
        out
    }

    /// `:plan <goal>?` — what the join-order × index-set co-optimization
    /// settled on: the chosen body orders, the index set the executor
    /// will build, and the enumerator/fixpoint counters.
    fn render_plan(&self, query: &Query, planned: &Planned) -> String {
        let co = &planned.co;
        let plan = &co.plan;
        let mut out = String::new();
        out.push_str(&format!(
            "query form:   {}.{}\n",
            query.pred().name,
            query.adornment()
        ));
        out.push_str(&format!(
            "method:       {}   est. cost: {:.1}\n",
            plan.method.name(),
            plan.cost
        ));
        out.push_str(&format!(
            "co-opt:       {} iteration(s), {}, accepted costs {:?}\n",
            co.stats.iterations,
            if co.stats.stable {
                "stable fixpoint"
            } else {
                "stopped (no strict improvement)"
            },
            co.stats.cost_trajectory
        ));
        let mut orders: Vec<String> = plan
            .orders
            .iter()
            .map(|((ri, ad), order)| format!("  rule {ri} under {ad}: {order:?}\n"))
            .collect();
        orders.extend(
            plan.clique_orders
                .iter()
                .map(|(ri, order)| format!("  rule {ri} (clique SIP): {order:?}\n")),
        );
        orders.sort();
        if !orders.is_empty() {
            out.push_str("chosen orders:\n");
            for line in orders {
                out.push_str(&line);
            }
        }
        out.push_str("index set:\n");
        let by_pred = co.catalog.orders_by_pred();
        if by_pred.is_empty() {
            out.push_str("  (none)\n");
        }
        for (pred, pred_orders) in &by_pred {
            for order in pred_orders {
                out.push_str(&format!("  {pred} on columns {order:?}\n"));
            }
        }
        out.push_str(&format!(
            "enumerator:   {} prefix(es) explored, {} pruned by memo, \
             {} subtree memo hit(s), {} full order(s) probed\n",
            plan.stats.explored_plans,
            plan.stats.enum_memo_hits,
            plan.stats.memo_hits,
            plan.stats.orders_probed
        ));
        out.push_str(&plan_time(planned, "co-optimized"));
        out
    }
}

/// The closing line of `:explain` / `:plan`: a compile's search time,
/// or on a cache hit the lookup time (the counters above are then the
/// original compile's).
fn plan_time(planned: &Planned, compiled: &str) -> String {
    let t = ms(planned.elapsed);
    if planned.cached {
        format!("(cached plan, lookup {t:.2} ms)")
    } else {
        format!("({compiled} in {t:.2} ms)")
    }
}

/// Batch analysis driver for `ldl-shell --check [--json] file...`.
///
/// Parses and analyzes each file (never evaluates). A parse failure is
/// itself reported as an `LDL000` diagnostic so the output format is
/// uniform. Returns the process exit code: 0 when no file has errors,
/// 1 otherwise.
/// Analyzes one source text; a parse failure becomes an `LDL000`
/// diagnostic at the failure position.
fn check_text(text: &str, opts: &AnalysisOptions) -> ldl::analysis::Report {
    match parse_source(text) {
        Ok(src) => analysis::analyze_source(&src, opts),
        Err(e) => {
            let span = match &e {
                ldl::LdlError::Parse { line, col, .. } => Span::point(*line as u32, *col as u32),
                _ => Span::NONE,
            };
            let mut r = ldl::analysis::Report::new();
            r.push(ldl::analysis::Diagnostic::error(
                analysis::PARSE_ERROR_CODE,
                span,
                e.to_string(),
            ));
            r.finish()
        }
    }
}

fn check_files(files: &[String], json: bool) -> i32 {
    let opts = AnalysisOptions::default();
    let mut failed = files.is_empty();
    if files.is_empty() {
        eprintln!("usage: ldl-shell --check [--json] file.ldl ...");
    }
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                failed = true;
                continue;
            }
        };
        let report = check_text(&text, &opts);
        if json {
            let j = report.render_json();
            if !j.is_empty() {
                println!("{j}");
            }
        } else {
            print!("{file}: {}", report.render_text(Some(&text), file));
        }
        if report.has_errors() {
            failed = true;
        }
    }
    if failed {
        1
    } else {
        0
    }
}

/// Translates one REPL line into `ldl-serve` protocol calls. Returns
/// the text to print; `"bye"` ends the session (mirroring the local
/// shell's quit convention).
fn remote_command(client: &mut ldl::serve::Client, line: &str) -> String {
    use ldl::serve::Json;
    let line = line.trim();
    if line.is_empty() || line.starts_with('%') {
        return String::new();
    }
    let fmt_err = |e: std::io::Error| format!("error: {e}");
    if let Some(cmd) = line.strip_prefix(':') {
        let mut parts = cmd.splitn(2, ' ');
        let name = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        return match name {
            "help" => "\
remote commands:
  <fact>. / <rule>.        load into the server's rule base
  <goal>?                  query the session's pinned snapshot
  :insert <fact>.          stage a base-fact insert (server-side)
  :retract <fact>.         stage a base-fact retract
  :commit                  apply the staged batch transactionally
  :pending                 count staged updates
  :abort                   discard staged updates
  :refresh                 re-pin the session to the latest commit
  :digest                  version + state digest of the pinned view
  :stats                   predicate/tuple counts of the pinned view
  :load <file>             load a local .ldl file into the server
  :snapshot                force a server-side snapshot
  :shutdown                stop the server
  :quit                    close this session"
                .to_string(),
            "load" => match std::fs::read_to_string(arg) {
                Ok(text) => match client.load(&text) {
                    Ok(v) => format!("loaded {arg} (version {v})"),
                    Err(e) => fmt_err(e),
                },
                Err(e) => format!("cannot read {arg}: {e}"),
            },
            "insert" => match client.insert(arg) {
                Ok(n) => format!("staged; {n} operation(s) pending (:commit to apply)"),
                Err(e) => fmt_err(e),
            },
            "retract" => match client.retract(arg) {
                Ok(n) => format!("staged; {n} operation(s) pending (:commit to apply)"),
                Err(e) => fmt_err(e),
            },
            "commit" => match client.commit() {
                Ok(r) => {
                    let count = |k: &str| r.get(k).and_then(Json::as_int).unwrap_or(0);
                    format!(
                        "committed version {}: base +{}/-{}, derived +{}/-{}",
                        count("version"),
                        count("base_inserted"),
                        count("base_retracted"),
                        count("derived_inserted"),
                        count("derived_retracted")
                    )
                }
                Err(e) => format!("commit failed: {e}"),
            },
            "pending" => match client.request_ok(&Json::obj(vec![("op", Json::str("pending"))])) {
                Ok(r) => format!(
                    "{} operation(s) staged",
                    r.get("staged").and_then(Json::as_int).unwrap_or(0)
                ),
                Err(e) => fmt_err(e),
            },
            "abort" => match client.abort() {
                Ok(()) => "staged batch discarded".to_string(),
                Err(e) => fmt_err(e),
            },
            "refresh" => match client.refresh() {
                Ok(v) => format!("pinned at version {v}"),
                Err(e) => fmt_err(e),
            },
            "digest" => match client.digest() {
                Ok((v, d)) => format!("version {v}, digest {d}"),
                Err(e) => fmt_err(e),
            },
            "stats" => match client.request_ok(&Json::obj(vec![("op", Json::str("stats"))])) {
                Ok(r) => {
                    let mut out = format!(
                        "version {}: {} predicate(s), {} tuple(s)",
                        r.get("version").and_then(Json::as_int).unwrap_or(0),
                        r.get("preds").and_then(Json::as_int).unwrap_or(0),
                        r.get("tuples").and_then(Json::as_int).unwrap_or(0)
                    );
                    if r.get("role").and_then(Json::as_str) == Some("replica") {
                        out.push_str(&format!(
                            "\nreplica of {}: connected {}, lag {} version(s), \
                             {} byte(s) behind, {} reconnect(s), {} bootstrap(s)",
                            r.get("primary").and_then(Json::as_str).unwrap_or("?"),
                            r.get("connected").and_then(Json::as_bool).unwrap_or(false),
                            r.get("lag_versions").and_then(Json::as_int).unwrap_or(-1),
                            r.get("behind_bytes").and_then(Json::as_int).unwrap_or(0),
                            r.get("reconnects").and_then(Json::as_int).unwrap_or(0),
                            r.get("bootstraps").and_then(Json::as_int).unwrap_or(0),
                        ));
                        if let Some(e) = r.get("last_error").and_then(Json::as_str) {
                            out.push_str(&format!("\nlast error: {e}"));
                        }
                    }
                    out
                }
                Err(e) => fmt_err(e),
            },
            "snapshot" => match client.snapshot() {
                Ok(()) => "snapshot written".to_string(),
                Err(e) => fmt_err(e),
            },
            "shutdown" => match client.shutdown() {
                Ok(()) => "server stopped".to_string(),
                Err(e) => fmt_err(e),
            },
            "quit" | "q" | "exit" => "bye".to_string(),
            other => format!("unknown remote command :{other} (try :help)"),
        };
    }
    if line.ends_with('?') {
        return match client.query(line) {
            Ok(rows) => {
                let goal = line.trim_end_matches('?').trim();
                let pred = goal.split('(').next().unwrap_or(goal).trim();
                let mut out = String::new();
                for r in &rows {
                    out.push_str(&format!("{pred}{r}\n"));
                }
                out.push_str(&format!("{} answer(s)", rows.len()));
                out
            }
            Err(e) => format!("error: {e}"),
        };
    }
    // Program text: rules and facts both travel through the server's
    // transactional load path.
    match client.load(line) {
        Ok(v) => format!("loaded (version {v})"),
        Err(e) => fmt_err(e),
    }
}

fn remote_repl(target: &str) -> i32 {
    let mut client = match ldl::serve::Client::connect(target) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {target}: {e}");
            return 1;
        }
    };
    match client.hello() {
        Ok(v) => println!("connected to {target} (version {v})"),
        Err(e) => {
            eprintln!("handshake with {target} failed: {e}");
            return 1;
        }
    }
    let stdin = std::io::stdin();
    print!("ldl> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let out = remote_command(&mut client, &line);
        if !out.is_empty() {
            println!("{out}");
        }
        if out == "bye" || out == "server stopped" {
            break;
        }
        print!("ldl> ");
        std::io::stdout().flush().ok();
    }
    0
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--connect") {
        if pos + 1 >= args.len() {
            eprintln!("usage: ldl-shell --connect <host:port|socket-path>");
            std::process::exit(1);
        }
        std::process::exit(remote_repl(&args[pos + 1]));
    }
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        args.remove(pos);
        let json = match args.iter().position(|a| a == "--json") {
            Some(j) => {
                args.remove(j);
                true
            }
            None => false,
        };
        std::process::exit(check_files(&args, json));
    }
    let mut shell = Shell::new();
    for file in &args {
        let out = shell.command(&format!("load {file}"));
        println!("{out}");
    }
    let stdin = std::io::stdin();
    print!("ldl> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let out = shell.handle(&line);
        if !out.is_empty() {
            println!("{out}");
        }
        if out == "bye" {
            return;
        }
        print!("ldl> ");
        std::io::stdout().flush().ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl::eval::FixpointConfig;

    fn feed(shell: &mut Shell, lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| shell.handle(l)).collect()
    }

    #[test]
    fn add_facts_and_query() {
        let mut s = Shell::new();
        let out = feed(
            &mut s,
            &[
                "e(1, 2). e(2, 3).",
                "tc(X, Y) <- e(X, Y).",
                "tc(X, Y) <- e(X, Z), tc(Z, Y).",
                "tc(1, Y)?",
            ],
        );
        assert!(out[0].contains("2 fact(s)"));
        assert!(out[3].contains("tc(1, 2)"));
        assert!(out[3].contains("tc(1, 3)"));
        assert!(out[3].contains("2 answer(s)"));
    }

    #[test]
    fn explain_shows_plan() {
        let mut s = Shell::new();
        feed(
            &mut s,
            &[
                "e(1, 2).",
                "tc(X, Y) <- e(X, Y).",
                "tc(X, Y) <- e(X, Z), tc(Z, Y).",
            ],
        );
        let out = s.handle(":explain tc(1, Y)?");
        assert!(out.contains("method:"), "{out}");
        assert!(out.contains("method costs:"), "{out}");
        assert!(out.contains("CC {tc/2}"), "{out}");
        assert!(
            out.ends_with(" ms)") && out.contains("(optimized in "),
            "{out}"
        );
        // The form is compiled now: both views say the plan is reused.
        let out = s.handle(":explain tc(2, Y)?");
        assert!(out.contains("(cached plan, lookup "), "{out}");
        let out = s.handle(":plan tc(3, Y)?");
        assert!(out.contains("enumerator:"), "{out}");
        assert!(out.contains("(cached plan, lookup "), "{out}");
        let out = s.handle(":plan tc(X, 3)?");
        assert!(out.contains("(co-optimized in "), "{out}");
    }

    #[test]
    fn unsafe_query_reports_cleanly() {
        let mut s = Shell::new();
        s.handle("p(X, Y) <- q(X).");
        s.handle("q(1).");
        let out = s.handle("p(A, B)?");
        assert!(out.contains("unsafe"), "{out}");
        // Rejection goes through the diagnostics path: stable code plus
        // a witness naming the unbound variable.
        assert!(out.contains("LDL003"), "{out}");
        assert!(out.contains('Y'), "{out}");
    }

    #[test]
    fn check_command_reports_lints_and_errors() {
        let mut s = Shell::new();
        s.handle("big(X) <- n(X), X > Y.");
        s.handle("n(1).");
        let out = s.handle(":check");
        assert!(out.contains("error[LDL001]"), "{out}");
        assert!(out.contains("1 error(s)"), "{out}");
        s.handle(":reset");
        s.handle("p(X) <- q(X, Unused).");
        s.handle("q(1, 1).");
        let out = s.handle(":check");
        assert!(out.contains("warning[LDL104]"), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn parse_failure_is_ldl000_with_position() {
        let r = check_text("p(X <- q(X).\n", &AnalysisOptions::default());
        assert_eq!(r.diagnostics.len(), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.code, ldl::analysis::PARSE_ERROR_CODE);
        assert_eq!(d.code, "LDL000");
        assert_eq!(d.severity, ldl::analysis::Severity::Error);
        // Span points at the offending token (`<-` where `)` was due).
        assert_eq!((d.span.line, d.span.col), (1, 5));
        assert!(r.has_errors());
    }

    #[test]
    fn batch_check_exit_codes_and_json() {
        let dir = std::env::temp_dir().join("ldl_shell_check_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.ldl");
        std::fs::write(&clean, "e(1, 2).\ntc(X, Y) <- e(X, Y).\ntc(1, A)?\n").unwrap();
        let bad = dir.join("bad.ldl");
        std::fs::write(&bad, "big(X) <- n(X), X > Y.\nn(1).\n").unwrap();
        let broken = dir.join("broken.ldl");
        std::fs::write(&broken, "p(X <- q(X).\n").unwrap();
        let missing = dir.join("nosuch.ldl");
        let s = |p: &std::path::Path| p.display().to_string();
        assert_eq!(check_files(&[s(&clean)], false), 0);
        assert_eq!(check_files(&[s(&clean), s(&bad)], false), 1);
        assert_eq!(check_files(&[s(&broken)], true), 1);
        assert_eq!(check_files(&[s(&missing)], false), 1);
        assert_eq!(check_files(&[], false), 1);
    }

    #[test]
    fn strategy_and_acyclic_commands() {
        let mut s = Shell::new();
        assert!(s.handle(":strategy kbz").contains("kbz"));
        assert!(s.handle(":strategy bogus").contains("unknown strategy"));
        assert!(s.handle(":acyclic on").contains("counting"));
        assert!(s.handle(":bogus").contains("unknown command"));
    }

    #[test]
    fn paths_command_switches_policy_without_changing_answers() {
        let mut s = Shell::new();
        feed(
            &mut s,
            &[
                "e(1, 2). e(2, 3). e(3, 4).",
                "tc(X, Y) <- e(X, Y).",
                "tc(X, Y) <- e(X, Z), tc(Z, Y).",
            ],
        );
        let selected = s.handle("tc(1, Y)?");
        assert!(s.handle(":paths scan").contains("access paths = scan"));
        let scanned = s.handle("tc(1, Y)?");
        // Same rows under either policy (timings differ; compare rows).
        let rows = |out: &str| {
            out.lines()
                .filter(|l| l.starts_with("tc("))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&selected), rows(&scanned));
        assert!(s.handle(":paths bogus").contains("unknown access-path"));
    }

    #[test]
    fn rules_and_stats_listing() {
        let mut s = Shell::new();
        assert_eq!(s.handle(":rules"), "(empty)");
        s.handle("e(1, 2).");
        s.handle("p(X) <- e(X, Y).");
        assert!(s.handle(":rules").contains("p(X) <- e(X, Y)."));
        assert!(s.handle(":stats").contains("e/2: 1 tuples"));
    }

    #[test]
    fn inline_queries_in_source() {
        let mut s = Shell::new();
        let out = s.handle("f(7). f(8). f(7)?");
        assert!(out.contains("1 answer(s)"), "{out}");
    }

    #[test]
    fn prolog_command_answers_and_warns() {
        let mut s = Shell::new();
        feed(
            &mut s,
            &[
                "e(1, 2). e(2, 3).",
                "tc(X, Y) <- e(X, Y).",
                "tc(X, Y) <- e(X, Z), tc(Z, Y).",
            ],
        );
        let out = s.handle(":prolog tc(1, Y)?");
        assert!(out.contains("tc(1, 3)"), "{out}");
        assert!(out.contains("via SLD"), "{out}");
        // Left-recursive variant hits the depth bound.
        s.handle(":reset");
        feed(
            &mut s,
            &[
                "e(1, 2).",
                "lt(X, Y) <- e(X, Y).",
                "lt(X, Y) <- lt(X, Z), e(Z, Y).",
            ],
        );
        let out = s.handle(":prolog lt(1, Y)?");
        assert!(out.contains("DEPTH BOUND"), "{out}");
    }

    #[test]
    fn load_handles_comment_leading_files() {
        let dir = std::env::temp_dir().join("ldl_shell_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("c.ldl");
        std::fs::write(&file, "% comment first\nf(1). f(2).\n").unwrap();
        let mut s = Shell::new();
        let out = s.command(&format!("load {}", file.display()));
        assert!(out.contains("2 fact(s)"), "{out}");
    }

    #[test]
    fn insert_retract_commit_maintains_queries() {
        let mut s = Shell::new();
        feed(
            &mut s,
            &[
                "e(1, 2). e(2, 3).",
                "tc(X, Y) <- e(X, Y).",
                "tc(X, Y) <- e(X, Z), tc(Z, Y).",
            ],
        );
        assert!(s.handle("tc(1, Y)?").contains("2 answer(s)"));
        // Stage + commit an edge extending the chain.
        assert!(s
            .handle(":insert e(3, 4).")
            .contains("1 operation(s) pending"));
        let out = s.handle(":commit");
        assert!(out.contains("base +1/-0"), "{out}");
        assert!(out.contains("tc/2: +3/-0"), "{out}");
        assert!(s.handle("tc(1, Y)?").contains("3 answer(s)"));
        assert!(s.handle(":stats").contains("e/2: 3 tuples"));
        // A present tuple retracted and re-inserted in one batch
        // cancels: no base change, every stratum skipped.
        s.handle(":retract e(3, 4).");
        s.handle(":insert e(3, 4).");
        let out = s.handle(":commit");
        assert!(out.contains("base +0/-0"), "{out}");
        assert!(out.contains("0 stratum(s) repaired"), "{out}");
        // Retract the middle edge: downstream closure tuples fall out.
        s.handle(":retract e(2, 3).");
        let out = s.handle(":commit");
        assert!(out.contains("base +0/-1"), "{out}");
        assert!(out.contains("tc/2: +0/-4"), "{out}");
        assert!(s.handle("tc(1, Y)?").contains("1 answer(s)"));
        assert_eq!(s.handle(":commit"), "nothing to commit");
    }

    #[test]
    fn stage_rejects_non_facts() {
        let mut s = Shell::new();
        s.handle("e(1, 2).");
        s.handle("p(X) <- e(X, Y).");
        assert!(s
            .handle(":insert p(X) <- e(X, Y).")
            .contains("only ground facts"));
        // A non-ground head with an empty body parses as a rule, not a
        // fact, so it lands in the same rejection.
        assert!(s.handle(":insert e(X, 2).").contains("only ground facts"));
        assert!(s.handle(":insert").contains("nothing to stage"));
        // Deltas on derived predicates are rejected at commit time —
        // and the refused batch stays staged until :abort.
        s.handle(":insert p(1).");
        assert!(s.handle(":commit").contains("commit failed"));
        assert!(s.handle(":commit").contains("staged batch preserved"));
        assert!(s.handle(":abort").contains("discarded 1"));
        assert_eq!(s.handle(":commit"), "nothing to commit");
    }

    #[test]
    fn failed_commit_preserves_staged_batch_and_state() {
        // The state guarantees are pinned on `Session` (its test of the
        // same name); this keeps the transcript text.
        let mut s = Shell::new();
        feed(
            &mut s,
            &[
                "e(1, 2).",
                "tc(X, Y) <- e(X, Y).",
                "tc(X, Y) <- e(X, Z), tc(Z, Y).",
            ],
        );
        s.handle(":insert e(2, 3).");
        s.handle(":insert tc(9, 9).");
        let out = s.handle(":commit");
        assert!(out.contains("commit failed"), "{out}");
        assert!(out.contains("staged batch preserved"), "{out}");
        let pending = s.handle(":pending");
        assert!(pending.contains("2 operation(s) staged"), "{pending}");
        assert!(pending.contains("+e(2, 3)"), "{pending}");
        assert!(pending.contains("+tc(9, 9)"), "{pending}");
        assert!(s.handle("tc(1, Y)?").contains("1 answer(s)"));
        assert!(s.handle(":stats").contains("e/2: 1 tuples"));
        assert!(s.handle(":abort").contains("discarded 2"));
        assert_eq!(s.handle(":pending"), "nothing staged");
    }

    #[test]
    fn rule_added_after_commit_rebuilds_engine() {
        let mut s = Shell::new();
        s.handle("e(1, 2).");
        s.handle("tc(X, Y) <- e(X, Y).");
        s.handle(":insert e(2, 3).");
        s.handle(":commit");
        // New recursive rule after a commit: engine must rebuild and
        // see both committed facts.
        s.handle("tc(X, Y) <- e(X, Z), tc(Z, Y).");
        s.handle(":insert e(3, 4).");
        let out = s.handle(":commit");
        assert!(out.contains("base +1/-0"), "{out}");
        assert!(s.handle("tc(1, Y)?").contains("3 answer(s)"));
    }

    #[test]
    fn remote_mode_drives_a_server_session() {
        use ldl::serve::{Client, Listener, Server, Service};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("ldl-shell-remote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service =
            Arc::new(Service::open(&dir, &FixpointConfig::serial(), 0).expect("service open"));
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let addr = listener
            .describe()
            .strip_prefix("tcp://")
            .expect("tcp addr")
            .to_string();
        // The test session ends with :shutdown over TCP — opt in.
        let server = Server::new(service, listener).with_admin(true);
        let handle = std::thread::spawn(move || server.run().expect("server run"));

        let mut c = Client::connect(&addr).unwrap();
        let out = remote_command(
            &mut c,
            "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).",
        );
        assert!(out.contains("loaded (version 1)"), "{out}");
        assert!(
            remote_command(&mut c, ":insert e(1, 2). e(2, 3).").contains("2 operation(s) pending")
        );
        let out = remote_command(&mut c, ":commit");
        assert!(out.contains("committed version 2"), "{out}");
        assert!(out.contains("base +2/-0"), "{out}");
        let out = remote_command(&mut c, "tc(1, Y)?");
        assert!(out.contains("tc(1, 2)"), "{out}");
        assert!(out.contains("tc(1, 3)"), "{out}");
        assert!(out.contains("2 answer(s)"), "{out}");
        // A refused commit reports the server's atomicity promise and
        // keeps the batch staged server-side.
        remote_command(&mut c, ":insert tc(9, 9).");
        let out = remote_command(&mut c, ":commit");
        assert!(out.contains("commit failed"), "{out}");
        assert!(out.contains("staged batch preserved"), "{out}");
        assert!(remote_command(&mut c, ":pending").contains("1 operation(s) staged"));
        assert_eq!(remote_command(&mut c, ":abort"), "staged batch discarded");
        let out = remote_command(&mut c, ":digest");
        assert!(out.contains("version 2, digest "), "{out}");
        assert!(remote_command(&mut c, ":stats").contains("tuple(s)"));
        assert_eq!(remote_command(&mut c, ":quit"), "bye");
        assert_eq!(remote_command(&mut c, ":shutdown"), "server stopped");
        handle.join().unwrap();
    }

    #[test]
    fn reset_clears() {
        let mut s = Shell::new();
        s.handle("e(1, 2).");
        s.handle(":reset");
        assert_eq!(s.handle(":rules"), "(empty)");
    }

    #[test]
    fn parse_errors_are_not_fatal() {
        let mut s = Shell::new();
        let out = s.handle("p(X <- q(X).");
        assert!(out.contains("error"), "{out}");
        // Shell still usable.
        assert!(s.handle("f(1).").contains("1 fact(s)"));
    }
}
