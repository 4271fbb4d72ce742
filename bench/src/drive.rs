//! Drives the real binaries: `ldl-shell` over a stdin/stdout pipe and
//! `ldl-serve` over a Unix socket, one request at a time from the
//! calling thread (a closed loop: the next request is written only
//! after the previous reply was read).

use crate::gen::{batch_text, Expect, Fact, Model, Op, Target, Workload};
use crate::wire::{self, Reply};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An op that gets no reply within this long counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

const PROMPT: &[u8] = b"ldl> ";

pub struct Bins {
    pub shell: PathBuf,
    pub serve: PathBuf,
}

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Kills a child that has kept the driver waiting past [`OP_TIMEOUT`].
/// The pipe has no read timeout, so a thread that never touches the
/// request path watches a deadline instead; killing the child ends the
/// blocked read with EOF.
struct Watchdog {
    /// Milliseconds since `epoch` at which the current op times out; 0
    /// while no op is outstanding.
    deadline_ms: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn start(pid: u32) -> Watchdog {
        let deadline_ms = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let (d, s) = (deadline_ms.clone(), stop.clone());
        let thread = std::thread::spawn(move || {
            while !s.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let deadline = d.load(Ordering::SeqCst);
                if deadline != 0 && epoch.elapsed().as_millis() as u64 > deadline {
                    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                    return;
                }
            }
        });
        Watchdog {
            deadline_ms,
            stop,
            epoch,
            thread: Some(thread),
        }
    }

    fn arm(&self) {
        let at = (self.epoch.elapsed() + OP_TIMEOUT).as_millis() as u64;
        self.deadline_ms.store(at, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.deadline_ms.store(0, Ordering::SeqCst);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One `kB` line of `/proc/<pid>/status` (`VmHWM:`, `VmRSS:`).
fn rss_kb(pid: u32, field: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| err(format!("no {field} in /proc/{pid}/status")))
}

struct Shell {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    watchdog: Watchdog,
}

impl Shell {
    fn spawn(bin: &Path) -> io::Result<Shell> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let watchdog = Watchdog::start(child.id());
        let mut shell = Shell {
            child,
            stdin,
            stdout,
            watchdog,
        };
        shell.read_to_prompt()?;
        Ok(shell)
    }

    /// Reads up to and including the next prompt; returns what came
    /// before it.
    fn read_to_prompt(&mut self) -> io::Result<String> {
        self.watchdog.arm();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        let result = loop {
            let n = self.stdout.read(&mut chunk)?;
            if n == 0 {
                break Err(err("shell closed its output (crashed or timed out)"));
            }
            buf.extend_from_slice(&chunk[..n]);
            if buf.ends_with(PROMPT) {
                buf.truncate(buf.len() - PROMPT.len());
                break String::from_utf8(buf).map_err(|e| err(e.to_string()));
            }
        };
        self.watchdog.disarm();
        result
    }

    fn send(&mut self, line: &str) -> io::Result<String> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        self.read_to_prompt()
    }

    /// `:retract ...`, `:insert ...`, `:commit`.
    fn commit(&mut self, retract: &[Fact], insert: &[Fact]) -> io::Result<()> {
        if !retract.is_empty() {
            self.send(&format!(":retract {}", batch_text(retract)))?;
        }
        if !insert.is_empty() {
            self.send(&format!(":insert {}", batch_text(insert)))?;
        }
        let reply = self.send(":commit")?;
        let want = format!("committed: base +{}/-{},", insert.len(), retract.len());
        if reply.starts_with(&want) {
            Ok(())
        } else {
            Err(err(format!("shell :commit answered: {reply}")))
        }
    }
}

/// A child must not outlive the run, whichever way the run ends.
impl Drop for Shell {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn connect(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(OP_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 * 1024, writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    /// Writes one request line and reads the response line, unparsed.
    fn exchange(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(err("server closed the connection"));
        }
        Ok(self.line.trim_end())
    }

    fn round_trip(&mut self, request: &str) -> io::Result<Reply> {
        wire::parse_reply(self.exchange(request)?).map_err(err)
    }

    /// A request whose reply must carry `"ok": true`.
    fn call(&mut self, request: &str) -> io::Result<Reply> {
        let reply = self.round_trip(request)?;
        if reply.ok {
            Ok(reply)
        } else {
            Err(err(format!(
                "server refused {request}: {}",
                reply.error.unwrap_or_default()
            )))
        }
    }
}

struct Serve {
    child: Child,
    /// Queries (and, with one connection, everything else).
    reader: Conn,
    /// Commits, when the workload keeps them on a second connection.
    writer: Option<Conn>,
}

impl Serve {
    /// Starts the daemon on `dir` (created if missing) and connects.
    fn spawn(bin: &Path, dir: &Path, two_connections: bool) -> io::Result<Serve> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("s.sock");
        let mut child = Command::new(bin)
            .arg("--data")
            .arg(dir)
            .arg("--socket")
            .arg(&socket)
            .args(["--snapshot-every", "64"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        // The daemon prints its listen line once the socket is bound;
        // its stdout closes early only if it failed to start.
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        loop {
            match lines.next() {
                Some(Ok(l)) if l.contains("listening on") => break,
                Some(Ok(_)) => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(err("ldl-serve exited before listening"));
                }
            }
        }
        let connect = || Conn::connect(&socket);
        let conns = connect().and_then(|r| {
            let w = if two_connections {
                Some(connect()?)
            } else {
                None
            };
            Ok((r, w))
        });
        match conns {
            Ok((reader, writer)) => Ok(Serve {
                child,
                reader,
                writer,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }
}

impl Serve {
    /// `retract`, `insert`, `commit` on the writer's connection.
    fn commit(&mut self, retract: &[Fact], insert: &[Fact]) -> io::Result<()> {
        let conn = self.writer.as_mut().unwrap_or(&mut self.reader);
        if !retract.is_empty() {
            conn.call(&wire::request(
                "retract",
                Some(("facts", &batch_text(retract))),
            ))?;
        }
        if !insert.is_empty() {
            conn.call(&wire::request(
                "insert",
                Some(("facts", &batch_text(insert))),
            ))?;
        }
        let ack = conn.call(&wire::request("commit", None))?;
        if ack.base_inserted == Some(insert.len() as u64)
            && ack.base_retracted == Some(retract.len() as u64)
        {
            Ok(())
        } else {
            Err(err(format!("commit acknowledged {ack:?}")))
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The process under test, behind the three things a workload does.
enum Sut {
    Shell(Shell),
    Serve(Serve),
}

/// One executed op, as the measurement loop sees it.
pub struct Outcome {
    pub latency: Duration,
    /// `Err` carries why the op counts as failed.
    pub verdict: Result<(), String>,
}

impl Sut {
    fn child(&mut self) -> &mut Child {
        match self {
            Sut::Shell(s) => &mut s.child,
            Sut::Serve(s) => &mut s.child,
        }
    }

    /// Spawns the binary on `text_path`'s program. Serve loads the text
    /// through a `load` request into a fresh `dir`.
    fn start(w: &Workload, bins: &Bins, text_path: &Path, dir: &Path) -> io::Result<Sut> {
        match w.target {
            Target::Shell => {
                let mut shell = Shell::spawn(&bins.shell)?;
                let reply = shell.send(&format!(":load {}", text_path.display()))?;
                if !reply.starts_with("loaded ") {
                    return Err(err(format!("shell :load failed: {reply}")));
                }
                Ok(Sut::Shell(shell))
            }
            Target::Serve => {
                let _ = std::fs::remove_dir_all(dir);
                let mut serve = Serve::spawn(&bins.serve, dir, w.two_connections)?;
                let text = std::fs::read_to_string(text_path)?;
                let conn = serve.writer.as_mut().unwrap_or(&mut serve.reader);
                conn.call(&wire::request("load", Some(("text", &text))))?;
                if serve.writer.is_some() {
                    serve.reader.call(&wire::request("refresh", None))?;
                }
                Ok(Sut::Serve(serve))
            }
        }
    }

    /// Restarts after a crash: the shell reloads its file, the daemon
    /// recovers from `dir`.
    fn restart(w: &Workload, bins: &Bins, text_path: &Path, dir: &Path) -> io::Result<Sut> {
        match w.target {
            Target::Shell => Sut::start(w, bins, text_path, dir),
            Target::Serve => Ok(Sut::Serve(Serve::spawn(
                &bins.serve,
                dir,
                w.two_connections,
            )?)),
        }
    }

    fn query(&mut self, text: &str, pred: &str, expect: &Expect) -> Outcome {
        let started = Instant::now();
        let (latency, got) = match self {
            Sut::Shell(s) => {
                let reply = s.send(text);
                let latency = started.elapsed();
                let got = reply
                    .map_err(|e| e.to_string())
                    .and_then(|r| wire::parse_shell_answer(&r, pred));
                (latency, got)
            }
            Sut::Serve(s) => {
                let line = s
                    .reader
                    .exchange(&wire::request("query", Some(("goal", text))));
                let latency = started.elapsed();
                let got = line
                    .map_err(|e| e.to_string())
                    .and_then(wire::parse_reply)
                    .and_then(|r| {
                        if !r.ok {
                            Err(r.error.unwrap_or_else(|| "refused".into()))
                        } else if r.count != Some(r.rows.count as u64) {
                            Err(format!("count {:?} vs {} rows", r.count, r.rows.count))
                        } else {
                            Ok(r.rows)
                        }
                    });
                (latency, got)
            }
        };
        let verdict = got.and_then(|got| {
            if got == *expect {
                Ok(())
            } else {
                Err(format!(
                    "{text} answered {got:?}, reference says {expect:?}"
                ))
            }
        });
        Outcome { latency, verdict }
    }

    /// Stages the batch and commits it; the latency runs from the first
    /// staging line to the commit acknowledgement.
    fn commit(&mut self, retract: &[Fact], insert: &[Fact]) -> Outcome {
        let started = Instant::now();
        let committed = match self {
            Sut::Shell(s) => s.commit(retract, insert),
            Sut::Serve(s) => s.commit(retract, insert),
        };
        let latency = started.elapsed();
        // The reader re-pins after the writer's commit; that round trip
        // is the reader's, not part of the commit's latency.
        let refreshed = committed.and_then(|()| match self {
            Sut::Serve(s) if s.writer.is_some() => {
                s.reader.call(&wire::request("refresh", None)).map(|_| ())
            }
            _ => Ok(()),
        });
        Outcome {
            latency,
            verdict: refreshed.map_err(|e| e.to_string()),
        }
    }

    fn run(&mut self, op: &Op) -> Outcome {
        match op {
            Op::Query { goal, text, expect } => self.query(text, &goal.pred, expect),
            Op::Commit { retract, insert } => self.commit(retract, insert),
        }
    }

    fn digest(&mut self) -> io::Result<String> {
        match self {
            Sut::Shell(_) => Err(err("the shell has no digest")),
            Sut::Serve(s) => s
                .reader
                .call(&wire::request("digest", None))?
                .digest
                .ok_or_else(|| err("digest reply without digest")),
        }
    }

    /// SIGKILL, then reap: what dropping either process does.
    fn kill(self) {
        drop(self);
    }

    /// Asks the process to exit and reaps it.
    fn stop(mut self) {
        let asked = match &mut self {
            Sut::Shell(s) => s.stdin.write_all(b":quit\n").and_then(|()| s.stdin.flush()),
            Sut::Serve(s) => s
                .reader
                .round_trip(&wire::request("shutdown", None))
                .map(|_| ()),
        };
        if asked.is_err() {
            let _ = self.child().kill();
        }
        let _ = self.child().wait();
    }
}

/// Everything one untraced run measured.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Measured ops whose reply matched the reference.
    pub correct: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Recovered, pre-kill and driver-predicted state digests (serve).
    pub digests: Option<[String; 3]>,
}

impl E2e {
    /// Counts one op or check; returns whether it passed.
    fn note(&mut self, what: &str, verdict: &Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!("{what}: {why}"));
                }
                false
            }
        }
    }
}

/// How often set-up and crash recovery are repeated within one run;
/// the run reports their medians.
const SETUPS: usize = 3;
const CRASHES: usize = 5;

/// Starts a fresh process and runs the warm-up ops against it.
fn set_up(
    w: &Workload,
    bins: &Bins,
    text_path: &Path,
    dir: &Path,
    result: &mut E2e,
) -> io::Result<Sut> {
    let mut sut = Sut::start(w, bins, text_path, dir)?;
    for op in &w.ops[..w.warmup] {
        let outcome = sut.run(op);
        if let Err(why) = outcome.verdict {
            result.failures.push(format!("warm-up: {why}"));
            sut.kill();
            return Err(err("warm-up op failed"));
        }
    }
    Ok(sut)
}

/// Writes the text the binary loads to `out` and names the daemon's
/// data directory: `(text file, data directory)`.
fn write_input(w: &Workload, out: &Path) -> io::Result<(PathBuf, PathBuf)> {
    let text_path = out.join(format!("{}.ldl", w.name));
    std::fs::write(&text_path, w.loaded_text())?;
    Ok((text_path, out.join(format!("{}.data", w.name))))
}

/// What the driver knows about the state it has put the process in: its
/// own model of the base relations, the facts its commits touched, and
/// how many WAL records the daemon has written (the load plus every
/// commit).
struct Followed {
    model: Model,
    committed: Vec<Fact>,
    records: usize,
}

impl Followed {
    fn commit(&mut self, retract: &[Fact], insert: &[Fact]) {
        self.model.apply(retract, insert);
        self.committed.extend(retract.iter().chain(insert).cloned());
        self.records += 1;
    }
}

/// The untraced run: set-up (repeated), the measured closed loop for
/// `seconds`, then `kill -9` and restart (repeated) with the durability
/// checks.
pub fn run_e2e(w: &Workload, bins: &Bins, out: &Path, seconds: f64) -> io::Result<E2e> {
    let mut result = E2e::default();
    let (text_path, dir) = write_input(w, out)?;

    let mut sut = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let fresh = set_up(w, bins, &text_path, &dir, &mut result)?;
        result.setup_s.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            fresh.kill();
        } else {
            sut = Some(fresh);
        }
    }
    let mut sut = sut.expect("SETUPS >= 1");

    // The measured section. The model follows the commits so the state
    // at the moment of the crash is known.
    let mut state = Followed {
        model: w.model.clone(),
        committed: Vec::new(),
        records: 1,
    };
    for op in &w.ops[..w.warmup] {
        if let Op::Commit { retract, insert } = op {
            state.commit(retract, insert);
        }
    }
    state.committed.clear();
    let mut pos = w.warmup;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while started.elapsed() < budget {
        let op = &w.ops[pos % w.ops.len()];
        pos += 1;
        let outcome = sut.run(op);
        let ms = outcome.latency.as_secs_f64() * 1e3;
        let passed = match op {
            Op::Query { text, .. } => {
                result.query_ms.push(ms);
                result.note(text, &outcome.verdict)
            }
            Op::Commit { retract, insert } => {
                result.commit_ms.push(ms);
                let passed = result.note("commit", &outcome.verdict);
                if passed {
                    state.commit(retract, insert);
                }
                passed
            }
        };
        if passed {
            result.correct += 1;
        } else if outcome.latency >= OP_TIMEOUT || result.failed > 100 {
            break; // the process is gone or hopeless; stop measuring
        }
    }
    result.wall_s = started.elapsed().as_secs_f64();
    result.peak_rss_mb = rss_kb(sut.child().id(), "VmHWM:")? / 1024.0;

    // The daemon snapshots every 64 records and replays the rest of the
    // WAL on restart, so how long recovery takes depends on where in
    // that cycle the crash lands. Untimed commits from the op list move
    // the crash to 16 records past a snapshot on every run.
    while w.target == Target::Serve && state.records % 64 != 16 {
        let op = &w.ops[pos % w.ops.len()];
        pos += 1;
        if let Op::Commit { retract, insert } = op {
            let outcome = sut.run(op);
            if !result.note("commit before the crash", &outcome.verdict) {
                break;
            }
            state.commit(retract, insert);
        }
    }

    // Crash and recover. A serve restart must come back to the digest
    // it acknowledged before the kill, which must be the digest the
    // driver predicts from the commits it sent; the last three
    // committed edges are then read back. A shell restart reloads its
    // file and must answer the first goal of the op list again.
    let acknowledged = match w.target {
        Target::Serve => Some(sut.digest()?),
        Target::Shell => None,
    };
    for _ in 0..CRASHES {
        sut.kill();
        let started = Instant::now();
        sut = Sut::restart(w, bins, &text_path, &dir)?;
        let recovered = match w.target {
            Target::Serve => Some(sut.digest()?),
            Target::Shell => {
                let first = w.ops.iter().find(|op| matches!(op, Op::Query { .. }));
                let outcome = sut.run(first.expect("every op list has a query"));
                result.note("first goal after restart", &outcome.verdict);
                None
            }
        };
        result.recovery_s.push(started.elapsed().as_secs_f64());
        if let (Some(recovered), Some(acknowledged)) = (recovered, &acknowledged) {
            let predicted = format!(
                "{:016x}",
                crate::gen::predict_digest(&state.model, &w.closures)
            );
            let same = recovered == *acknowledged && recovered == predicted;
            result.note(
                "recovered digest",
                &same.then_some(()).ok_or_else(|| {
                    format!(
                        "recovered {recovered}, acknowledged {acknowledged}, predicted {predicted}"
                    )
                }),
            );
            result.digests = Some([recovered, acknowledged.clone(), predicted]);
        }
    }
    if w.target == Target::Serve {
        for fact in state.committed.iter().rev().take(3) {
            let goal = crate::gen::Goal {
                pred: fact.0.clone(),
                args: fact.1.iter().map(|&c| Some(c)).collect(),
                derive: crate::gen::Derive::Base {
                    rel: fact.0.clone(),
                },
            };
            let mut expect = Expect::default();
            if state.model.contains(fact) {
                expect.add_row_text(crate::gen::row_text(&fact.1).as_bytes());
            }
            let outcome = sut.query(&goal.text(), &goal.pred, &expect);
            result.note("read-back after recovery", &outcome.verdict);
        }
    }
    sut.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(result)
}

/// A short binary-driven pass for the traced run: the warm-up ops,
/// then the `n` ops after them against a fresh process. Returns the
/// query latencies (ms) and the number of ops whose reply disagreed
/// with the reference.
pub fn run_reference_pass(
    w: &Workload,
    bins: &Bins,
    out: &Path,
    n: usize,
) -> io::Result<(Vec<f64>, u64)> {
    let (text_path, dir) = write_input(w, out)?;
    let mut sut = Sut::start(w, bins, &text_path, &dir)?;
    let mut query_ms = Vec::new();
    let mut failed = 0;
    for (i, op) in w.ops[..w.warmup + n].iter().enumerate() {
        let outcome = sut.run(op);
        if outcome.verdict.is_err() {
            failed += 1;
        }
        if i >= w.warmup && matches!(op, Op::Query { .. }) {
            query_ms.push(outcome.latency.as_secs_f64() * 1e3);
        }
    }
    sut.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((query_ms, failed))
}

/// Resident bytes a freshly started shell gains per base row when it
/// loads the workload's text: `VmRSS` after `:load` minus `VmRSS` at
/// the first prompt, over `rows`. A process of its own, because a heap
/// that has already grown and shrunk hides what a load costs.
pub fn load_rss_bytes_per_row(
    w: &Workload,
    bins: &Bins,
    out: &Path,
    rows: usize,
) -> io::Result<f64> {
    let (text_path, _) = write_input(w, out)?;
    let mut shell = Shell::spawn(&bins.shell)?;
    let before = rss_kb(shell.child.id(), "VmRSS:")?;
    let reply = shell.send(&format!(":load {}", text_path.display()))?;
    if !reply.starts_with("loaded ") {
        return Err(err(format!("shell :load failed: {reply}")));
    }
    let after = rss_kb(shell.child.id(), "VmRSS:")?;
    Ok((after - before).max(0.0) * 1024.0 / rows.max(1) as f64)
}

/// Round-trip times of `ping` against a live, empty daemon, in µs.
pub fn ping_rtt_us(bins: &Bins, out: &Path, n: usize) -> io::Result<Vec<f64>> {
    let dir = out.join("ping.data");
    let _ = std::fs::remove_dir_all(&dir);
    let mut serve = Serve::spawn(&bins.serve, &dir, false)?;
    let request = wire::request("ping", None);
    let mut rtt = Vec::with_capacity(n);
    let mut failure = None;
    for _ in 0..n {
        let started = Instant::now();
        match serve.reader.call(&request) {
            Ok(_) => rtt.push(started.elapsed().as_secs_f64() * 1e6),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    Sut::Serve(serve).stop();
    let _ = std::fs::remove_dir_all(&dir);
    match failure {
        Some(e) => Err(e),
        None => Ok(rtt),
    }
}
