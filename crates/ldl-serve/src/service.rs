//! The transactional service: one resident [`Engine`] behind a commit
//! lock, a WAL + snapshot pair for durability, an immutable published
//! [`StateView`] per committed version for snapshot-isolated reads, a
//! **group-commit batcher** that coalesces concurrent WAL fsyncs, and
//! the **replication feed** primaries serve to read replicas.
//!
//! ## Commit protocol (atomic at every layer, group-committed)
//!
//! Phase 1, under the engine lock: validate the batch, append its
//! record to the WAL (buffered, not yet synced), apply it —
//! `Engine::apply_delta` rolls back to the exact pre-state on failure,
//! and the service then truncates the WAL over the record so recovery
//! never replays it. Phase 2, **outside** the engine lock: wait for the
//! record to become durable. The first committer to arrive becomes the
//! group leader and issues one `fsync` covering every frame written so
//! far; committers that pile up behind an in-flight fsync are all
//! acknowledged by the next one — n concurrent commits cost far fewer
//! than n fsyncs, and the fsync overlaps the next committer's apply.
//! Phase 3: publish the commit's `Arc<StateView>`. Publication happens
//! strictly after durability, so every published version is on disk;
//! readers pinned to older views are unaffected.
//!
//! Recovery loads the latest snapshot and replays the WAL tail over it;
//! a torn trailing frame (crash mid-append) is truncated — that commit
//! was never acknowledged. Because evaluation and maintenance are
//! deterministic with a canonical-order contract, a recovered state is
//! bit-for-bit identical to the uninterrupted one.
//!
//! ## Replication feed
//!
//! The service retains the encoded payloads of recent WAL records in a
//! bounded in-memory feed (they survive snapshot-triggered WAL resets,
//! up to the retention cap). [`Service::feed_since`] serves a replica's
//! `(epoch, version)` position: records when the feed still covers it,
//! a full **bootstrap image** (program text + EDB at the published
//! head) when it does not — including after an epoch mismatch, which
//! means the replica's history is not a prefix of this primary's. Only
//! *published* (hence durable) records are ever shipped, so a replica
//! can never get ahead of what a crashed primary would recover.
//!
//! A replica runs the same `Service` in read-only mode: shipped records
//! go through [`Service::apply_replicated`] (same WAL append + engine
//! apply as a local commit, one fsync per shipped batch) and bootstrap
//! images through [`Service::install_bootstrap`]. The canonical-order
//! determinism contract makes a replica's digest bit-for-bit equal to
//! the primary's at the same version.

use crate::snapshot::{self, Snapshot};
use crate::wal::{self, Wal, WalRecord};
use ldl_core::parser::parse_program;
use ldl_core::{LdlError, Pred, Program, Query, Result};
use ldl_eval::engine::answer_goal;
use ldl_eval::{EdbDelta, Engine, FixpointConfig, MaintenanceReport};
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// An immutable image of one committed version. Sessions pin one at
/// start (or on `refresh`) and read from it without taking the commit
/// lock — snapshot isolation by construction.
#[derive(Clone, Debug)]
pub struct StateView {
    /// Monotonic commit sequence number (0 = empty service).
    pub version: u64,
    /// The rule base, as last-loaded source text.
    pub program_text: String,
    /// The parsed rule base.
    pub program: Program,
    /// Base relations at this version.
    pub db: ldl_storage::Database,
    /// Derived relations at this version (canonical order).
    pub derived: HashMap<Pred, ldl_storage::Relation>,
}

impl StateView {
    /// The relation backing `p`: derived if `p` has rules, else base.
    pub fn relation(&self, p: Pred) -> Option<&ldl_storage::Relation> {
        self.derived.get(&p).or_else(|| self.db.relation(p))
    }

    /// Query answers against this view (goal's relation filtered by the
    /// goal's ground arguments) — same semantics as `Engine::answers`.
    /// A bound goal probes: see [`answer_goal`] for the access tiers
    /// and the per-view index they build once.
    pub fn answers(&self, query: &Query) -> ldl_storage::Relation {
        answer_goal(self.relation(query.pred()), query)
    }

    /// FNV-1a digest over every relation (base and derived), predicates
    /// in sorted order, rows in sorted (canonical) order — so the value
    /// names the logical state, independent of the storage order a
    /// particular interleaving of commits produced. Two views with the
    /// same digest hold exactly the same data — the comparison CI uses
    /// across restarts and across replicas.
    pub fn digest(&self) -> u64 {
        let mut preds: Vec<Pred> = self.db.preds();
        for p in self.derived.keys() {
            if !preds.contains(p) {
                preds.push(*p);
            }
        }
        preds.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for p in preds {
            eat(p.name.as_str().as_bytes());
            eat(&(p.arity as u64).to_le_bytes());
            if let Some(rel) = self.relation(p) {
                let mut lines: Vec<String> = rel.rows().iter().map(|row| row.to_string()).collect();
                lines.sort_unstable();
                for line in lines {
                    eat(line.as_bytes());
                    eat(b"\n");
                }
            }
        }
        h
    }

    /// Total stored tuples (base + derived).
    pub fn total_tuples(&self) -> usize {
        self.db.total_tuples()
            + self
                .derived
                .values()
                .map(ldl_storage::Relation::len)
                .sum::<usize>()
    }
}

/// How a [`Service`] is opened: snapshot cadence, replication-feed
/// retention, and the node's role.
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Take a snapshot (and reset the WAL) after this many committed
    /// records; `0` disables periodic snapshots.
    pub snapshot_every: u64,
    /// Encoded WAL records retained in memory for the replication feed
    /// (a retention *window*: it survives snapshot-triggered WAL resets
    /// up to this many records; replicas further behind re-bootstrap).
    pub feed_retain: usize,
    /// `Some(addr)` makes this a read-only replica of the primary at
    /// `addr`: client writes are refused with a redirect, and the
    /// replication runner (see [`crate::replicate`]) keeps it caught up.
    pub replica_of: Option<String>,
}

impl ServiceOptions {
    /// Primary-role options with the given snapshot cadence.
    pub fn new(snapshot_every: u64) -> ServiceOptions {
        ServiceOptions {
            snapshot_every,
            feed_retain: 1024,
            replica_of: None,
        }
    }

    /// Replica-role options: read-only, replicating from `primary`.
    pub fn replica(snapshot_every: u64, primary: impl Into<String>) -> ServiceOptions {
        ServiceOptions {
            replica_of: Some(primary.into()),
            ..ServiceOptions::new(snapshot_every)
        }
    }
}

/// What the replication runner most recently observed; surfaced through
/// the `stats` wire op. All counters are for the current process run.
#[derive(Clone, Debug, Default)]
pub struct ReplicationStatus {
    /// A subscription to the primary is live.
    pub connected: bool,
    /// The primary's published head version, as of the last response.
    pub primary_head: u64,
    /// Bytes of WAL records the primary still holds for us.
    pub behind_bytes: u64,
    /// Connection attempts after the first (capped exponential backoff).
    pub reconnects: u64,
    /// Full snapshot bootstraps (0 = resumed from local WAL position).
    pub bootstraps: u64,
    /// The most recent connection or apply error, if the link is down.
    pub last_error: Option<String>,
}

/// Monotonic commit-path counters (process lifetime). `fsyncs <
/// commits` under concurrency is the group-commit batcher visibly
/// coalescing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCounters {
    /// WAL records committed (rule loads + EDB deltas + replicated).
    pub commits: u64,
    /// `fsync` calls issued for WAL durability.
    pub fsyncs: u64,
}

/// One reply of the replication feed.
#[derive(Debug)]
pub enum Feed {
    /// The follower is at the published head.
    UpToDate {
        /// The published head version.
        head: u64,
    },
    /// Encoded WAL records `(seq, frame payload)` continuing the
    /// follower's position, oldest first.
    Records {
        /// The published head version.
        head: u64,
        /// The shipped records.
        records: Vec<(u64, Vec<u8>)>,
        /// Bytes of retained records beyond this reply.
        behind_bytes: u64,
    },
    /// The feed no longer covers the follower's position (or its epoch
    /// diverged): a full image of the published head to install.
    Bootstrap {
        /// Version of the image.
        seq: u64,
        /// The rule base at that version, as source text.
        program_text: String,
        /// The EDB at that version, codec-encoded.
        db: Vec<u8>,
    },
}

struct Inner {
    engine: Engine,
    cfg: FixpointConfig,
    program_text: String,
    wal: Wal,
    dir: PathBuf,
    snapshot_every: u64,
    records_since_snapshot: u64,
    version: u64,
    epoch: u64,
    /// Encoded payloads of recent records, `(seq, payload)`, oldest
    /// first — the replication feed's retention window.
    feed: VecDeque<(u64, Vec<u8>)>,
    feed_retain: usize,
}

struct SyncState {
    /// Highest seq whose WAL frame is completely written (maybe
    /// unsynced). Frames are appended under the engine lock, so every
    /// seq up to this is contiguous in the file.
    written: u64,
    /// Highest seq known durable (covered by an fsync or a snapshot).
    durable: u64,
    /// A group leader's fsync is in flight.
    syncing: bool,
    /// Sticky fsync failure: durability can no longer be promised.
    failed: Option<String>,
}

/// The shared service handle. Clone the `Arc` per connection; commits
/// serialize on the engine lock but coalesce their fsyncs, reads go
/// through pinned views and never block.
pub struct Service {
    inner: Mutex<Inner>,
    /// The latest published (durable) view. Its own lock so readers
    /// never contend with the engine lock.
    published: Mutex<Arc<StateView>>,
    publish_cv: Condvar,
    sync: Mutex<SyncState>,
    sync_cv: Condvar,
    /// Independently owned WAL file handle for out-of-lock fsyncs.
    wal_file: File,
    /// `Some(addr)` = read-only replica of the primary at `addr`.
    replica_of: Option<String>,
    repl_status: Mutex<ReplicationStatus>,
    commits: AtomicU64,
    fsyncs: AtomicU64,
}

impl Service {
    /// Opens (or creates) a primary service in `dir`: loads the latest
    /// snapshot, replays the WAL tail over it, and publishes the
    /// recovered view. `snapshot_every` = records between snapshots
    /// (`0` = only on [`Service::snapshot_now`]).
    pub fn open(dir: &Path, cfg: &FixpointConfig, snapshot_every: u64) -> Result<Service> {
        Self::open_with(dir, cfg, ServiceOptions::new(snapshot_every))
    }

    /// Opens a service with explicit [`ServiceOptions`] (role, feed
    /// retention, snapshot cadence).
    pub fn open_with(dir: &Path, cfg: &FixpointConfig, opts: ServiceOptions) -> Result<Service> {
        fs::create_dir_all(dir).map_err(|e| {
            LdlError::Eval(format!("service: cannot create {}: {e}", dir.display()))
        })?;
        let epoch = match snapshot::read_meta(dir)? {
            Some(e) => e,
            None => {
                let e = mint_epoch();
                snapshot::write_meta(dir, e)?;
                e
            }
        };
        let (snap_seq, program_text, db) = match snapshot::load_snapshot(dir)? {
            Some(Snapshot {
                seq,
                program_text,
                db,
            }) => (seq, program_text, db),
            None => (0, String::new(), ldl_storage::Database::new()),
        };
        let program = parse_program(&program_text)
            .map_err(|e| LdlError::Eval(format!("service: snapshot program text: {e}")))?;
        let mut engine = Engine::evaluate(&program, &db, cfg)?;
        let mut program_text = program_text;

        let (mut wal, records) = Wal::open(&dir.join("wal.bin"))?;
        let mut version = snap_seq;
        let mut replayed = 0u64;
        let mut feed = VecDeque::new();
        let total = records.len();
        for (i, (seq, rec)) in records.into_iter().enumerate() {
            if seq <= snap_seq {
                // Already folded into the snapshot.
                continue;
            }
            let apply = match &rec {
                WalRecord::Rules(text) => {
                    Self::install_rules(&mut engine, &mut program_text, text, cfg)
                }
                WalRecord::Delta(delta) => engine.apply_delta(delta).map(|_| ()),
            };
            match apply {
                Ok(()) => {
                    version = seq;
                    replayed += 1;
                    feed.push_back((seq, wal::encode_record(seq, &rec)));
                }
                Err(_) if i + 1 == total => {
                    // The record was durable but its apply failed — the
                    // live server truncates exactly this way; a crash
                    // between the fsync and the truncate lands here.
                    wal.truncate_last()?;
                    break;
                }
                Err(e) => {
                    return Err(LdlError::Eval(format!(
                        "service: WAL record {seq} failed to replay mid-log: {e}"
                    )));
                }
            }
        }
        while feed.len() > opts.feed_retain {
            feed.pop_front();
        }

        let wal_file = wal.sync_handle()?;
        let current = Arc::new(Self::view(version, &program_text, &engine));
        let mut inner = Inner {
            engine,
            cfg: cfg.clone(),
            program_text,
            wal,
            dir: dir.to_path_buf(),
            snapshot_every: opts.snapshot_every,
            records_since_snapshot: replayed,
            version,
            epoch,
            feed,
            feed_retain: opts.feed_retain.max(1),
        };
        if inner.snapshot_every > 0 && inner.records_since_snapshot >= inner.snapshot_every {
            inner.snapshot_now()?;
        }
        Ok(Service {
            inner: Mutex::new(inner),
            published: Mutex::new(current),
            publish_cv: Condvar::new(),
            sync: Mutex::new(SyncState {
                written: version,
                durable: version,
                syncing: false,
                failed: None,
            }),
            sync_cv: Condvar::new(),
            wal_file,
            replica_of: opts.replica_of,
            repl_status: Mutex::new(ReplicationStatus::default()),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        })
    }

    /// Installs a new rule base over the engine's current EDB: the
    /// text's ground facts merge into the EDB, its rules replace the
    /// program. Fails (engine untouched) if the text does not parse,
    /// does not stratify, or does not evaluate.
    fn install_rules(
        engine: &mut Engine,
        program_text: &mut String,
        text: &str,
        cfg: &FixpointConfig,
    ) -> Result<()> {
        let program = parse_program(text)?;
        let mut db = engine.database().clone();
        db.load_facts(&program);
        *engine = Engine::evaluate(&program, &db, cfg)?;
        *program_text = text.to_string();
        Ok(())
    }

    fn view(version: u64, program_text: &str, engine: &Engine) -> StateView {
        StateView {
            version,
            program_text: program_text.to_string(),
            program: engine.program().clone(),
            db: engine.database().clone(),
            derived: engine.derived().clone(),
        }
    }

    /// The latest committed (published, durable) view.
    pub fn current(&self) -> Arc<StateView> {
        self.published.lock().expect("published lock").clone()
    }

    /// The current published commit sequence number.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// The history epoch of this node's data directory.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("service lock").epoch
    }

    /// This node's replication position, `(epoch, applied version)`.
    pub fn position(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("service lock");
        (inner.epoch, inner.version)
    }

    /// `Some(addr)` when this service is a read-only replica.
    pub fn primary_target(&self) -> Option<&str> {
        self.replica_of.as_deref()
    }

    /// Commit-path counters (commits vs coalesced fsyncs).
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            commits: self.commits.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }

    /// A copy of the replication runner's latest status.
    pub fn replication_status(&self) -> ReplicationStatus {
        self.repl_status.lock().expect("repl status lock").clone()
    }

    /// Updates the replication status in place (replication runner
    /// only).
    pub fn update_replication_status(&self, f: impl FnOnce(&mut ReplicationStatus)) {
        f(&mut self.repl_status.lock().expect("repl status lock"));
    }

    fn check_writable(&self) -> Result<()> {
        match &self.replica_of {
            Some(primary) => Err(LdlError::Eval(format!(
                "read-only replica: writes must go to the primary at {primary}"
            ))),
            None => Ok(()),
        }
    }

    /// Loads a rule base (replacing the program, merging its facts)
    /// transactionally: evaluated on a candidate first, WAL-logged,
    /// group-fsynced, then installed and published. On `Err` nothing
    /// changed.
    pub fn load_rules(&self, text: &str) -> Result<Arc<StateView>> {
        self.check_writable()?;
        let (seq, view, snapped) = {
            let mut inner = self.inner.lock().expect("service lock");
            // Dry-run on a candidate so the WAL never records a load the
            // engine would refuse.
            {
                let program = parse_program(text)?;
                let mut db = inner.engine.database().clone();
                db.load_facts(&program);
                Engine::evaluate(&program, &db, &inner.cfg)?;
            }
            let seq = inner.version + 1;
            let payload = inner
                .wal
                .append_nosync(seq, &WalRecord::Rules(text.to_string()))?;
            let cfg = inner.cfg.clone();
            let Inner {
                engine,
                program_text,
                ..
            } = &mut *inner;
            Self::install_rules(engine, program_text, text, &cfg)
                .expect("validated rule load cannot fail");
            inner.version = seq;
            inner.push_feed(seq, payload);
            let view = Arc::new(Self::view(seq, &inner.program_text, &inner.engine));
            let snapped = inner.maybe_snapshot()?;
            (seq, view, snapped)
        };
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.note_written(seq, snapped);
        self.wait_durable(seq)?;
        self.publish(view.clone());
        Ok(view)
    }

    /// Commits one EDB batch transactionally. On `Ok` the new view is
    /// published and durable (WAL group-fsynced before publication). On
    /// `Err` the engine, database, and WAL are exactly as they were —
    /// the caller keeps the staged batch.
    pub fn commit(&self, delta: &EdbDelta) -> Result<(Arc<StateView>, MaintenanceReport)> {
        self.check_writable()?;
        if delta.is_empty() {
            return Ok((self.current(), MaintenanceReport::default()));
        }
        let (seq, view, report, snapped) = {
            let mut inner = self.inner.lock().expect("service lock");
            inner.engine.validate_delta(delta)?;
            let seq = inner.version + 1;
            let payload = inner
                .wal
                .append_nosync(seq, &WalRecord::Delta(delta.clone()))?;
            match inner.engine.apply_delta(delta) {
                Ok(report) => {
                    inner.version = seq;
                    inner.push_feed(seq, payload);
                    let view = Arc::new(Self::view(seq, &inner.program_text, &inner.engine));
                    let snapped = inner.maybe_snapshot()?;
                    (seq, view, report, snapped)
                }
                Err(e) => {
                    // The engine rolled itself back; erase the (never
                    // synced) record so recovery agrees with the live
                    // refusal.
                    inner.wal.truncate_last()?;
                    return Err(e);
                }
            }
        };
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.note_written(seq, snapped);
        self.wait_durable(seq)?;
        self.publish(view.clone());
        Ok((view, report))
    }

    /// Marks `seq`'s frame fully written; `also_durable` when a
    /// snapshot already persisted everything up to it.
    fn note_written(&self, seq: u64, also_durable: bool) {
        let mut s = self.sync.lock().expect("sync lock");
        s.written = s.written.max(seq);
        if also_durable && s.durable < seq {
            s.durable = seq;
            self.sync_cv.notify_all();
        }
    }

    /// Blocks until `seq` is durable. The first waiter becomes the
    /// group leader and fsyncs once for every frame written so far;
    /// later waiters are acknowledged wholesale — that single fsync is
    /// the group commit.
    fn wait_durable(&self, seq: u64) -> Result<()> {
        let mut s = self.sync.lock().expect("sync lock");
        loop {
            if let Some(msg) = &s.failed {
                return Err(LdlError::Eval(format!(
                    "service: WAL durability lost (fsync failed: {msg})"
                )));
            }
            if s.durable >= seq {
                return Ok(());
            }
            if s.syncing {
                s = self.sync_cv.wait(s).expect("sync cv");
                continue;
            }
            s.syncing = true;
            let target = s.written;
            drop(s);
            let res = self.wal_file.sync_all();
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            s = self.sync.lock().expect("sync lock");
            s.syncing = false;
            match res {
                Ok(()) => s.durable = s.durable.max(target),
                Err(e) => s.failed = Some(e.to_string()),
            }
            self.sync_cv.notify_all();
        }
    }

    /// Publishes `view` if it is newer than the current head and wakes
    /// feed subscribers.
    fn publish(&self, view: Arc<StateView>) {
        let mut cur = self.published.lock().expect("published lock");
        if view.version > cur.version {
            *cur = view;
        }
        self.publish_cv.notify_all();
    }

    /// Publishes `view` unconditionally (bootstrap installs may move a
    /// diverged replica's head backwards).
    fn publish_force(&self, view: Arc<StateView>) {
        *self.published.lock().expect("published lock") = view;
        self.publish_cv.notify_all();
    }

    /// Blocks until the published head exceeds `above` or `timeout`
    /// elapses; returns the head either way. The `subscribe` wire op's
    /// long-poll.
    pub fn wait_for_version(&self, above: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut cur = self.published.lock().expect("published lock");
        while cur.version <= above {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, res) = self
                .publish_cv
                .wait_timeout(cur, deadline - now)
                .expect("publish cv");
            cur = guard;
            if res.timed_out() {
                break;
            }
        }
        cur.version
    }

    /// Serves a follower at `(epoch, since)`: retained records after
    /// `since` (capped at `max_records` and at the published head),
    /// `UpToDate` when none, or a `Bootstrap` image when the feed no
    /// longer covers the position — wrong epoch, a position beyond the
    /// head (the follower's history diverged), or records already
    /// evicted from the retention window.
    pub fn feed_since(&self, epoch: u64, since: u64, max_records: usize) -> Feed {
        // The published head is the durable horizon: never ship a
        // record a crashed primary might not recover.
        let head_view = self.current();
        let head = head_view.version;
        let inner = self.inner.lock().expect("service lock");
        if epoch != inner.epoch || since > head {
            return Self::bootstrap_from(&head_view);
        }
        if since == head {
            return Feed::UpToDate { head };
        }
        let covered = inner
            .feed
            .front()
            .is_some_and(|&(first, _)| first <= since + 1);
        if !covered {
            return Self::bootstrap_from(&head_view);
        }
        let mut records = Vec::new();
        let mut behind_bytes = 0u64;
        for (seq, payload) in inner.feed.iter() {
            if *seq <= since || *seq > head {
                continue;
            }
            if records.len() < max_records.max(1) {
                records.push((*seq, payload.clone()));
            } else {
                behind_bytes += payload.len() as u64;
            }
        }
        Feed::Records {
            head,
            records,
            behind_bytes,
        }
    }

    fn bootstrap_from(view: &StateView) -> Feed {
        Feed::Bootstrap {
            seq: view.version,
            program_text: view.program_text.clone(),
            db: ldl_storage::codec::encode_database(&view.db),
        }
    }

    /// Applies a batch of shipped records on a replica: each is
    /// appended to the local WAL and applied to the engine in order,
    /// then the whole batch is made durable with **one** fsync and the
    /// final view published. Returns that view.
    pub fn apply_replicated(&self, batch: &[(u64, Vec<u8>)]) -> Result<Arc<StateView>> {
        if batch.is_empty() {
            return Ok(self.current());
        }
        let mut decoded = Vec::with_capacity(batch.len());
        for (seq, payload) in batch {
            let (dseq, rec) = wal::decode_record(payload)?;
            if dseq != *seq {
                return Err(LdlError::Eval(format!(
                    "replica: shipped record claims seq {dseq}, feed said {seq}"
                )));
            }
            decoded.push((dseq, rec, payload));
        }
        let (view, last) = {
            let mut inner = self.inner.lock().expect("service lock");
            for (seq, rec, payload) in &decoded {
                if *seq != inner.version + 1 {
                    return Err(LdlError::Eval(format!(
                        "replica: out-of-order record {seq} (expected {})",
                        inner.version + 1
                    )));
                }
                inner.wal.append_payload_nosync(payload)?;
                let cfg = inner.cfg.clone();
                let applied = match rec {
                    WalRecord::Rules(text) => {
                        let Inner {
                            engine,
                            program_text,
                            ..
                        } = &mut *inner;
                        Self::install_rules(engine, program_text, text, &cfg)
                    }
                    WalRecord::Delta(delta) => inner.engine.apply_delta(delta).map(|_| ()),
                };
                if let Err(e) = applied {
                    // A record the primary committed must apply here
                    // too (determinism contract) — this is divergence.
                    // Keep the good prefix consistent on disk and
                    // surface the error loudly.
                    inner.wal.truncate_last()?;
                    inner.wal.sync()?;
                    return Err(LdlError::Eval(format!(
                        "replica: shipped record {seq} refused by the engine: {e}"
                    )));
                }
                inner.version = *seq;
                let owned = payload.to_vec();
                inner.push_feed(*seq, owned);
                inner.records_since_snapshot += 1;
            }
            inner.wal.sync()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            let snapped =
                inner.snapshot_every > 0 && inner.records_since_snapshot >= inner.snapshot_every;
            if snapped {
                inner.snapshot_now()?;
            }
            let view = Arc::new(Self::view(
                inner.version,
                &inner.program_text,
                &inner.engine,
            ));
            (view, inner.version)
        };
        self.commits
            .fetch_add(decoded.len() as u64, Ordering::Relaxed);
        self.note_written(last, true);
        self.publish(view.clone());
        Ok(view)
    }

    /// Installs a bootstrap image on a replica: persists it as the
    /// local snapshot, adopts the primary's epoch, resets the local
    /// WAL, and publishes the image's view (which may move the head
    /// backwards after a divergence).
    pub fn install_bootstrap(
        &self,
        epoch: u64,
        seq: u64,
        program_text: &str,
        db_bytes: &[u8],
    ) -> Result<Arc<StateView>> {
        let program = parse_program(program_text)
            .map_err(|e| LdlError::Eval(format!("bootstrap: program text: {e}")))?;
        let db = ldl_storage::codec::decode_database(db_bytes)?;
        let view = {
            let mut inner = self.inner.lock().expect("service lock");
            let engine = Engine::evaluate(&program, &db, &inner.cfg)?;
            // Image durable before the WAL reset, exactly like a
            // snapshot: a crash mid-bootstrap leaves either the old
            // state or the new image, never a mix.
            snapshot::write_snapshot(&inner.dir, seq, program_text, &db)?;
            snapshot::write_meta(&inner.dir, epoch)?;
            inner.wal.reset()?;
            inner.engine = engine;
            inner.program_text = program_text.to_string();
            inner.version = seq;
            inner.epoch = epoch;
            inner.records_since_snapshot = 0;
            inner.feed.clear();
            Arc::new(Self::view(seq, &inner.program_text, &inner.engine))
        };
        {
            let mut s = self.sync.lock().expect("sync lock");
            s.written = seq;
            s.durable = seq;
            self.sync_cv.notify_all();
        }
        self.publish_force(view.clone());
        Ok(view)
    }

    /// Forces a snapshot of the current version and resets the WAL.
    pub fn snapshot_now(&self) -> Result<()> {
        let version = {
            let mut inner = self.inner.lock().expect("service lock");
            inner.snapshot_now()?;
            inner.version
        };
        self.note_written(version, true);
        Ok(())
    }
}

impl Inner {
    fn push_feed(&mut self, seq: u64, payload: Vec<u8>) {
        self.feed.push_back((seq, payload));
        while self.feed.len() > self.feed_retain {
            self.feed.pop_front();
        }
    }

    /// Counts a committed record and snapshots at the cadence; returns
    /// whether a snapshot ran (making everything durable).
    fn maybe_snapshot(&mut self) -> Result<bool> {
        self.records_since_snapshot += 1;
        if self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
            return Ok(true);
        }
        Ok(false)
    }

    fn snapshot_now(&mut self) -> Result<()> {
        snapshot::write_snapshot(
            &self.dir,
            self.version,
            &self.program_text,
            self.engine.database(),
        )?;
        // Only reset the log once the image is durably in place. The
        // replication feed keeps its retained records — a WAL reset
        // does not force replicas within the window to re-bootstrap.
        self.wal.reset()?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

/// Mints a fresh history epoch: a mixed hash of wall clock and pid.
/// Uniqueness across re-created data directories is what matters, not
/// unpredictability.
fn mint_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = nanos ^ ((std::process::id() as u64) << 48);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::parse_query;
    use ldl_storage::Tuple;

    const RULES: &str = "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).";

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ldl-serve-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn edge(delta: &mut EdbDelta, a: i64, b: i64) {
        delta.insert(Pred::new("e", 2), Tuple::ints(&[a, b]));
    }

    #[test]
    fn load_commit_query_and_recover() {
        let dir = tmpdir("basic");
        let cfg = FixpointConfig::serial();
        let digest_before;
        let epoch_before;
        {
            let svc = Service::open(&dir, &cfg, 0).unwrap();
            epoch_before = svc.epoch();
            assert_ne!(epoch_before, 0, "fresh directories mint an epoch");
            svc.load_rules(RULES).unwrap();
            let mut d = EdbDelta::new();
            edge(&mut d, 1, 2);
            edge(&mut d, 2, 3);
            let (view, report) = svc.commit(&d).unwrap();
            assert_eq!(report.base_inserted, 2);
            assert_eq!(view.version, 2);
            let q = parse_query("tc(1, Y)?").unwrap();
            assert_eq!(view.answers(&q).len(), 2);
            digest_before = view.digest();
            let c = svc.counters();
            assert_eq!(c.commits, 2);
            assert!(c.fsyncs >= 1);
        }
        // Recovery from WAL only (no snapshot was taken). The epoch is
        // stable across restarts.
        let svc = Service::open(&dir, &cfg, 0).unwrap();
        assert_eq!(svc.epoch(), epoch_before);
        let view = svc.current();
        assert_eq!(view.version, 2);
        assert_eq!(view.digest(), digest_before);
        let q = parse_query("tc(X, 3)?").unwrap();
        assert_eq!(view.answers(&q).len(), 2);
    }

    #[test]
    fn snapshot_bounds_replay_and_matches_uninterrupted() {
        let dir = tmpdir("snapshot");
        let cfg = FixpointConfig::serial();
        // Reference: same sequence on an engine that never restarts.
        let digest_ref;
        {
            let rdir = tmpdir("snapshot-ref");
            let svc = Service::open(&rdir, &cfg, 0).unwrap();
            svc.load_rules(RULES).unwrap();
            for i in 1..=6 {
                let mut d = EdbDelta::new();
                edge(&mut d, i, i + 1);
                svc.commit(&d).unwrap();
            }
            digest_ref = svc.current().digest();
        }
        {
            // Snapshot every 2 records: the log is reset mid-stream
            // several times.
            let svc = Service::open(&dir, &cfg, 2).unwrap();
            svc.load_rules(RULES).unwrap();
            for i in 1..=6 {
                let mut d = EdbDelta::new();
                edge(&mut d, i, i + 1);
                svc.commit(&d).unwrap();
            }
        }
        let svc = Service::open(&dir, &cfg, 2).unwrap();
        assert_eq!(svc.current().version, 7);
        assert_eq!(svc.current().digest(), digest_ref);
    }

    #[test]
    fn failed_commit_leaves_wal_engine_and_views_untouched() {
        let dir = tmpdir("failed-commit");
        let cfg = FixpointConfig::serial();
        let svc = Service::open(&dir, &cfg, 0).unwrap();
        svc.load_rules(RULES).unwrap();
        let mut ok = EdbDelta::new();
        edge(&mut ok, 1, 2);
        svc.commit(&ok).unwrap();
        let before = svc.current();

        // Arity mismatch: validation refuses before the WAL is touched.
        let mut bad = EdbDelta::new();
        bad.insert(Pred::new("e", 2), Tuple::ints(&[9]));
        assert!(svc.commit(&bad).is_err());
        // Writing to a derived predicate: also refused.
        let mut bad2 = EdbDelta::new();
        bad2.insert(Pred::new("tc", 2), Tuple::ints(&[9, 9]));
        assert!(svc.commit(&bad2).is_err());

        let after = svc.current();
        assert_eq!(after.version, before.version);
        assert_eq!(after.digest(), before.digest());

        // Restart: the refused commits left no trace in the WAL.
        drop(svc);
        let svc = Service::open(&dir, &cfg, 0).unwrap();
        assert_eq!(svc.current().version, before.version);
        assert_eq!(svc.current().digest(), before.digest());
    }

    #[test]
    fn pinned_views_are_snapshot_isolated() {
        let dir = tmpdir("isolation");
        let cfg = FixpointConfig::serial();
        let svc = Service::open(&dir, &cfg, 0).unwrap();
        svc.load_rules(RULES).unwrap();
        let mut d = EdbDelta::new();
        edge(&mut d, 1, 2);
        svc.commit(&d).unwrap();

        let pinned = svc.current();
        let q = parse_query("tc(1, Y)?").unwrap();
        assert_eq!(pinned.answers(&q).len(), 1);

        let mut d2 = EdbDelta::new();
        edge(&mut d2, 2, 3);
        svc.commit(&d2).unwrap();

        // The pinned view still answers from its version; the new view
        // sees the commit.
        assert_eq!(pinned.answers(&q).len(), 1);
        assert_eq!(svc.current().answers(&q).len(), 2);
        assert!(svc.current().version > pinned.version);
    }

    #[test]
    fn bad_rule_load_changes_nothing() {
        let dir = tmpdir("bad-load");
        let cfg = FixpointConfig::serial();
        let svc = Service::open(&dir, &cfg, 0).unwrap();
        svc.load_rules(RULES).unwrap();
        let before = svc.current();
        assert!(svc.load_rules("p(X) <- q(X").is_err()); // parse error
        assert!(svc.load_rules("p(X) <- ~p(X).").is_err()); // unstratified
        let after = svc.current();
        assert_eq!(after.version, before.version);
        assert_eq!(after.digest(), before.digest());
    }

    #[test]
    fn concurrent_commits_group_their_fsyncs_and_stay_exact() {
        let dir = tmpdir("group");
        let cfg = FixpointConfig::serial();
        let svc = Arc::new(Service::open(&dir, &cfg, 0).unwrap());
        svc.load_rules(RULES).unwrap();
        let writers = 8u64;
        let per = 10u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let svc = svc.clone();
                scope.spawn(move || {
                    for i in 0..per {
                        let mut d = EdbDelta::new();
                        edge(&mut d, (100 * w + i) as i64, (100 * w + i + 1) as i64);
                        svc.commit(&d).unwrap();
                    }
                });
            }
        });
        let c = svc.counters();
        assert_eq!(c.commits, writers * per + 1);
        assert!(
            c.fsyncs <= c.commits,
            "leader fsyncs can never exceed commits ({c:?})"
        );
        let view = svc.current();
        assert_eq!(view.version, writers * per + 1);
        let digest_live = view.digest();

        // Recovery sees every acknowledged commit, bit for bit.
        drop(view);
        let svc2 = Service::open(&dir, &cfg, 0).unwrap();
        assert_eq!(svc2.current().version, writers * per + 1);
        assert_eq!(svc2.current().digest(), digest_live);
    }

    #[test]
    fn feed_serves_records_and_bootstraps_beyond_window() {
        let dir = tmpdir("feed");
        let cfg = FixpointConfig::serial();
        let svc = Service::open_with(
            &dir,
            &cfg,
            ServiceOptions {
                feed_retain: 4,
                ..ServiceOptions::new(0)
            },
        )
        .unwrap();
        let epoch = svc.epoch();
        svc.load_rules(RULES).unwrap();
        for i in 1..=6 {
            let mut d = EdbDelta::new();
            edge(&mut d, i, i + 1);
            svc.commit(&d).unwrap();
        }
        // Head = 7 (load + 6 commits); retention holds seqs 4..=7.
        match svc.feed_since(epoch, 7, 16) {
            Feed::UpToDate { head } => assert_eq!(head, 7),
            other => panic!("expected UpToDate, got {other:?}"),
        }
        match svc.feed_since(epoch, 4, 16) {
            Feed::Records {
                head,
                records,
                behind_bytes,
            } => {
                assert_eq!(head, 7);
                assert_eq!(
                    records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                    vec![5, 6, 7]
                );
                assert_eq!(behind_bytes, 0);
            }
            other => panic!("expected Records, got {other:?}"),
        }
        // max_records caps a reply and reports the remainder in bytes.
        match svc.feed_since(epoch, 4, 2) {
            Feed::Records {
                records,
                behind_bytes,
                ..
            } => {
                assert_eq!(records.len(), 2);
                assert!(behind_bytes > 0);
            }
            other => panic!("expected Records, got {other:?}"),
        }
        // Positions before the window, beyond the head, or under a
        // different epoch all get a bootstrap image.
        for (e, since) in [(epoch, 1), (epoch, 99), (epoch ^ 1, 7)] {
            match svc.feed_since(e, since, 16) {
                Feed::Bootstrap { seq, .. } => assert_eq!(seq, 7),
                other => panic!("expected Bootstrap for since={since}, got {other:?}"),
            }
        }
    }

    #[test]
    fn replica_roundtrip_records_and_bootstrap() {
        let cfg = FixpointConfig::serial();
        let primary = Service::open(&tmpdir("repl-p"), &cfg, 0).unwrap();
        let (epoch, _) = primary.position();
        primary.load_rules(RULES).unwrap();
        for i in 1..=3 {
            let mut d = EdbDelta::new();
            edge(&mut d, i, i + 1);
            primary.commit(&d).unwrap();
        }

        let replica = Service::open_with(
            &tmpdir("repl-r"),
            &cfg,
            ServiceOptions::replica(0, "nowhere:0"),
        )
        .unwrap();
        // Fresh replica: its own minted epoch mismatches → bootstrap.
        let (repl_epoch, since) = replica.position();
        assert_ne!(repl_epoch, epoch);
        let Feed::Bootstrap {
            seq,
            program_text,
            db,
        } = primary.feed_since(repl_epoch, since, 16)
        else {
            panic!("fresh replica must bootstrap");
        };
        replica
            .install_bootstrap(epoch, seq, &program_text, &db)
            .unwrap();
        assert_eq!(replica.position(), (epoch, seq));
        assert_eq!(replica.current().digest(), primary.current().digest());

        // More commits ship as records and apply bit-for-bit.
        for i in 4..=6 {
            let mut d = EdbDelta::new();
            edge(&mut d, i, i + 1);
            primary.commit(&d).unwrap();
        }
        let (_, since) = replica.position();
        let Feed::Records { head, records, .. } = primary.feed_since(epoch, since, 16) else {
            panic!("caught-up replica must get records");
        };
        let view = replica.apply_replicated(&records).unwrap();
        assert_eq!(view.version, head);
        assert_eq!(view.digest(), primary.current().digest());

        // Writes are refused with a redirect.
        let mut d = EdbDelta::new();
        edge(&mut d, 99, 100);
        let err = replica.commit(&d).unwrap_err().to_string();
        assert!(err.contains("read-only replica"), "{err}");
        assert!(err.contains("nowhere:0"), "{err}");
    }
}
