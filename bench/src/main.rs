//! `ldl-e2e-bench` — the repo's end-to-end + per-layer benchmark.
//!
//! `bench/run.sh` builds the binaries and calls this with
//! `--bin-dir <dir holding ldl-shell and ldl-serve>`; see
//! `bench/README.md` for what is measured and why.

mod drive;
mod gen;
mod trace;
mod wire;

use drive::Bins;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::{median, percentile};

/// `run_seconds` of BENCHMARK.json: how long one run measures.
const RUN_SECONDS: u64 = 15;
/// The seed runs use when none is given; claims must also hold on
/// [`HELD_OUT_SEED`], which is never used while a change is written.
const DEFAULT_SEED: u64 = 1988;
const HELD_OUT_SEED: u64 = 2312;

struct MetricDef {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    bound: f64,
    /// Exact metrics are counts made by the program: they must repeat
    /// bit for bit between two runs of one build and seed.
    exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("query_p95_ms", "ms", "lower", 0.25),
    e2e("commit_p50_ms", "ms", "lower", 0.25),
    e2e("recovery_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

const PER_LAYER: [MetricDef; 57] = [
    timed("core.parse_program_ms", "ms"),
    timed("core.parse_query_us", "us"),
    timed("analysis.query_gate_us", "us"),
    timed("analysis.load_check_ms", "ms"),
    timed("optimizer.co_optimize_ms", "ms"),
    count("optimizer.co_iterations", "count", "lower"),
    count("optimizer.explored_plans", "count", "lower"),
    count("optimizer.enum_memo_hits", "count", "higher"),
    count("optimizer.answers_qerror", "ratio", "lower"),
    timed("index.collect_us", "us"),
    timed("index.cover_us", "us"),
    count("index.orders_selected", "count", "lower"),
    timed("eval.execute_ms", "ms"),
    count("eval.tuples_derived", "count", "lower"),
    count("eval.tuples_produced", "count", "lower"),
    count("eval.derive_ratio", "ratio", "higher"),
    count("eval.iterations", "count", "lower"),
    count("eval.rule_firings", "count", "lower"),
    count("storage.rows_enumerated", "count", "lower"),
    count("storage.rows_per_answer", "ratio", "lower"),
    count("storage.ordered_builds", "count", "lower"),
    count("storage.hash_builds", "count", "lower"),
    count("storage.ordered_probes", "count", "higher"),
    count("storage.hash_probes", "count", "lower"),
    count("storage.range_probes", "count", "higher"),
    timed("storage.load_ns_per_fact", "ns"),
    timed("storage.ordered_build_ms", "ms"),
    timed("storage.encode_ms", "ms"),
    timed("storage.decode_ms", "ms"),
    count("storage.encoded_bytes_per_row", "bytes", "lower"),
    timed("storage.rss_bytes_per_row", "bytes"),
    timed("maintain.evaluate_ms", "ms"),
    timed("maintain.validate_us", "us"),
    timed("maintain.apply_delta_ms", "ms"),
    count("maintain.derived_churn_per_commit", "count", "lower"),
    count("maintain.rows_enumerated_per_commit", "count", "lower"),
    timed("maintain.answers_us", "us"),
    count("maintain.rows_scanned_per_answer", "ratio", "lower"),
    timed("serve.commit_ms", "ms"),
    timed("serve.commit_overhead_ms", "ms"),
    timed("serve.commit_ballast_ratio", "ratio"),
    timed("serve.wal_append_us", "us"),
    timed("serve.wal_sync_ms", "ms"),
    count("serve.wal_bytes_per_commit", "bytes", "lower"),
    count("serve.fsyncs_per_commit", "ratio", "lower"),
    timed("serve.snapshot_ms", "ms"),
    count("serve.snapshot_bytes", "bytes", "lower"),
    timed("serve.open_recover_ms", "ms"),
    timed("serve.view_answers_us", "us"),
    timed("serve.json_parse_us", "us"),
    timed("serve.json_encode_us", "us"),
    timed("serve.wire_rtt_us", "us"),
    timed("serve.feed_since_us", "us"),
    timed("serve.apply_replicated_ms", "ms"),
    MetricDef {
        name: "trace.coverage_share",
        unit: "ratio",
        better: "higher",
        bound: 0.0,
        exact: false,
    },
    timed("trace.overhead_share", "ratio"),
    timed("trace.wire_overhead_ms", "ms"),
];

/// BENCHMARK.json, generated from the tables above so the two cannot
/// drift (`bench/smoke.sh` compares them).
fn describe() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"bench\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in gen::WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == gen::WORKLOADS.len() {
            ""
        } else {
            ","
        };
        assert!(
            why.len() <= 200,
            "{name}: BENCHMARK.json caps a why at 200 characters"
        );
        writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            wire::json_str(name),
            wire::json_str(why)
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name, d.unit, d.better, d.bound
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

struct Args {
    bin_dir: PathBuf,
    out: PathBuf,
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        bin_dir: PathBuf::from("target/release"),
        out: PathBuf::from("bench/out"),
        workloads: gen::WORKLOADS
            .iter()
            .map(|(name, _)| name.to_string())
            .collect(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--describe" => {
                print!("{}", describe());
                return Ok(None);
            }
            "--bin-dir" => args.bin_dir = PathBuf::from(value("--bin-dir")?),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--workload" => {
                let name = value("--workload")?;
                if !gen::WORKLOADS.iter().any(|(known, _)| *known == name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workloads = vec![name];
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("--seconds: not in (0, 120]: {v}"))?;
            }
            "--quick" => args.seconds = 3.0,
            // `--trace 1` / `--trace 0` (the benchmark contract) or a
            // bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Some(args))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One measured value as printed and stored.
struct Value {
    value: f64,
    /// Samples behind the value (1 for counts and single readings).
    samples: usize,
}

/// The outcome of one run (traced or not) of one workload.
struct RunResult {
    workload: String,
    traced: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, Value>,
    /// Lines for the human-readable report, already formatted.
    notes: Vec<String>,
}

impl RunResult {
    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the benchmark contract asks for.
    fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .defs()
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, self.values[d.name].value, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn report(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            writeln!(out, "  {note}").unwrap();
        }
        writeln!(
            out,
            "  ops: {} attempted, {} failed (failed_ops_share {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        )
        .unwrap();
        writeln!(
            out,
            "  {:<36} {:>16} {:<6} {:>7}  bound",
            "metric", "value", "unit", "n"
        )
        .unwrap();
        for d in self.defs() {
            let v = &self.values[d.name];
            let bound = if self.traced {
                if d.exact { "exact" } else { "-" }.to_string()
            } else {
                format!("{}% ({} is better)", d.bound * 100.0, d.better)
            };
            writeln!(
                out,
                "  {:<36} {:>16.4} {:<6} {:>7}  {bound}",
                d.name, v.value, d.unit, v.samples
            )
            .unwrap();
        }
        out
    }

    /// The file kept under `bench/out/` (and copied to the baseline).
    fn stored_json(&self, header: &str) -> String {
        let metrics: Vec<String> = self
            .defs()
            .iter()
            .map(|d| {
                let v = &self.values[d.name];
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    d.name, v.value, d.unit, v.samples
                )
            })
            .collect();
        format!(
            "{{\n{header}  \"traced\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            self.traced,
            self.attempted,
            self.failed,
            metrics.join(",\n")
        )
    }
}

fn run_one(args: &Args, bins: &Bins, name: &str, traced: bool) -> Result<RunResult, String> {
    let w = gen::generate(name, args.seed).expect("workload names were checked");
    let (_, why) = gen::WORKLOADS
        .iter()
        .find(|(known, _)| *known == name)
        .expect("workload names were checked");
    let sizes: Vec<String> = w.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let mut notes = vec![
        format!("why: {why}"),
        format!(
            "inputs: {} | op list {} ({} warm-up) | answers_digest={:016x}",
            sizes.join(" "),
            w.ops.len(),
            w.warmup,
            w.answers_digest()
        ),
    ];
    let mut values = BTreeMap::new();
    let (attempted, failed);
    if traced {
        // A fixed op count, scaled by --seconds alone: the exact
        // counters then repeat on any machine.
        let n = ((w.trace_ops as f64 * args.seconds / RUN_SECONDS as f64) as usize)
            .clamp(w.warmup.max(20), w.trace_ops);
        let t = trace::run_traced(&w, bins, &args.out, n).map_err(|e| format!("{name}: {e}"))?;
        notes.push(format!(
            "traced {n} ops in-process, {} spans -> {}/trace_{name}.json",
            t.spans,
            args.out.display()
        ));
        let shares: Vec<String> = t
            .shares
            .iter()
            .map(|(span, share)| format!("{span} {:.1}%", share * 100.0))
            .collect();
        notes.push(format!("share of op time: {}", shares.join(", ")));
        notes.extend(t.tally.failures.iter().map(|f| format!("FAILED: {f}")));
        for d in &PER_LAYER {
            let value = *t
                .metrics
                .get(d.name)
                .ok_or_else(|| format!("traced run produced no {}", d.name))?;
            values.insert(d.name, Value { value, samples: 1 });
        }
        (attempted, failed) = (t.tally.attempted, t.tally.failed);
    } else {
        let r = drive::run_e2e(&w, bins, &args.out, args.seconds)
            .map_err(|e| format!("{name}: {e}"))?;
        // A p95 needs ten samples beyond it.
        let commit_p95 = if r.commit_ms.len() >= 200 {
            format!("{:.4}", percentile(&r.commit_ms, 95))
        } else {
            "not reported (needs 200 commits)".to_string()
        };
        notes.push(format!(
            "measured {:.2} s: {} queries, {} commits; commit_p95_ms {commit_p95}",
            r.wall_s,
            r.query_ms.len(),
            r.commit_ms.len(),
        ));
        if let Some([recovered, acknowledged, predicted]) = &r.digests {
            notes.push(format!(
                "state digest: recovered {recovered} acknowledged {acknowledged} predicted {predicted}"
            ));
        }
        notes.extend(r.failures.iter().map(|f| format!("FAILED: {f}")));
        let mut put = |name: &'static str, value: f64, samples: usize| {
            values.insert(name, Value { value, samples });
        };
        put("setup_s", median(&r.setup_s), r.setup_s.len());
        put("ops_per_s", r.correct as f64 / r.wall_s, r.correct as usize);
        put("query_p50_ms", median(&r.query_ms), r.query_ms.len());
        put(
            "query_p95_ms",
            percentile(&r.query_ms, 95),
            r.query_ms.len(),
        );
        put("commit_p50_ms", median(&r.commit_ms), r.commit_ms.len());
        put("recovery_s", median(&r.recovery_s), r.recovery_s.len());
        put("peak_rss_mb", r.peak_rss_mb, 1);
        (attempted, failed) = (r.attempted, r.failed);
    }
    if let Some((bad, _)) = values.iter().find(|(_, v)| !v.value.is_finite()) {
        return Err(format!("{name}: {bad} is not a finite number"));
    }
    Ok(RunResult {
        workload: name.to_string(),
        traced,
        attempted,
        failed,
        values,
        notes,
    })
}

fn header_json(args: &Args, env: &[(String, String)], name: &str) -> String {
    let mut out = String::new();
    writeln!(out, "  \"workload\": \"{name}\",").unwrap();
    writeln!(out, "  \"seed\": {},", args.seed).unwrap();
    writeln!(out, "  \"seconds\": {},", args.seconds).unwrap();
    for (k, v) in env {
        writeln!(out, "  \"{k}\": {},", wire::json_str(v)).unwrap();
    }
    out
}

/// Runs every selected workload once (traced or not), printing each
/// report followed by its contract line.
fn run_suite(
    args: &Args,
    bins: &Bins,
    env: &[(String, String)],
    traced: bool,
) -> Result<Vec<RunResult>, String> {
    let mut results = Vec::new();
    for name in &args.workloads {
        println!(
            "== {name}  seed={} seconds={} trace={}",
            args.seed, args.seconds, traced as u8
        );
        let result = run_one(args, bins, name, traced)?;
        print!("{}", result.report());
        let file = args.out.join(format!(
            "{name}{}.json",
            if traced { ".layers" } else { "" }
        ));
        std::fs::write(&file, result.stored_json(&header_json(args, env, name)))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("{}", result.contract_json());
        results.push(result);
    }
    Ok(results)
}

/// Untraced passes per `--check-repeat` round. One run that lands in a
/// slow period of the machine differs from the next by more than any
/// bound; the median of three does not.
const REPEAT_PASSES: usize = 3;

/// `--check-repeat`: the whole suite twice on one build and seed, each
/// round the per-metric median of [`REPEAT_PASSES`] untraced passes plus
/// one traced pass. Every end-to-end metric must agree between the
/// rounds within its bound and every exact counter exactly.
fn check_repeat(args: &Args, bins: &Bins, env: &[(String, String)]) -> Result<bool, String> {
    let mut rounds = Vec::new();
    for round in 1..=2 {
        println!("#### check-repeat round {round}");
        let mut passes = Vec::new();
        for _ in 0..REPEAT_PASSES {
            passes.push(run_suite(args, bins, env, false)?);
        }
        let mut results = passes.pop().expect("REPEAT_PASSES >= 1");
        for (i, result) in results.iter_mut().enumerate() {
            for d in &END_TO_END {
                let mut samples = vec![result.values[d.name].value];
                samples.extend(passes.iter().map(|pass| pass[i].values[d.name].value));
                result.values.get_mut(d.name).expect("every metric").value = median(&samples);
            }
            result.failed += passes.iter().map(|pass| pass[i].failed).sum::<u64>();
        }
        results.extend(run_suite(args, bins, env, true)?);
        rounds.push(results);
    }
    let mut ok = true;
    let mut lines = Vec::new();
    println!("#### check-repeat: spread between the two rounds");
    for (a, b) in rounds[0].iter().zip(&rounds[1]) {
        for d in a.defs() {
            let (x, y) = (a.values[d.name].value, b.values[d.name].value);
            let spread = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let verdict = if a.traced {
                if !d.exact {
                    "timing"
                } else if x == y {
                    "exact"
                } else {
                    ok = false;
                    "DIFFERS"
                }
            } else if spread <= d.bound {
                "within bound"
            } else {
                ok = false;
                "OVER BOUND"
            };
            if !a.traced || d.exact {
                println!(
                    "  {:<16} {:<36} {:>14.4} {:>14.4}  spread {:>7.3}%  {verdict}",
                    a.workload,
                    d.name,
                    x,
                    y,
                    spread * 100.0
                );
            }
            lines.push(format!(
                "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"first\": {x}, \"second\": {y}, \"spread\": {spread}, \"verdict\": \"{verdict}\"}}",
                a.workload, d.name
            ));
        }
        if a.failed + b.failed > 0 {
            ok = false;
        }
    }
    let file = args.out.join("check_repeat.json");
    std::fs::write(&file, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "#### check-repeat: {} (details in {})",
        if ok { "PASS" } else { "FAIL" },
        file.display()
    );
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let Some(args) = parse_args()? else {
        return Ok(true);
    };
    let bins = Bins {
        shell: args.bin_dir.join("ldl-shell"),
        serve: args.bin_dir.join("ldl-serve"),
    };
    for bin in [&bins.shell, &bins.serve] {
        if !Path::new(bin).is_file() {
            return Err(format!(
                "{} not found (bench/run.sh builds it)",
                bin.display()
            ));
        }
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    // The binaries keep their default thread counts: the shell sizes
    // its fixpoint pool from the machine, the daemon evaluates serially.
    let env = vec![
        ("nproc".to_string(), command_line("nproc", &[])),
        ("rustc".to_string(), command_line("rustc", &["-V"])),
        (
            "commit".to_string(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
        ("held_out_seed".to_string(), HELD_OUT_SEED.to_string()),
    ];
    let env_line: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# ldl-e2e-bench  {}", env_line.join("  "));
    if args.check_repeat {
        return check_repeat(&args, &bins, &env);
    }
    let results = run_suite(&args, &bins, &env, args.trace)?;
    Ok(results.iter().all(RunResult::correct))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("ldl-e2e-bench: {msg}");
            ExitCode::from(2)
        }
    }
}
