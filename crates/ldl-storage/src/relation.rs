//! Relations: duplicate-free tuple sets with hash and ordered indexes.

use crate::tuple::Tuple;
use ldl_core::Term;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// Process-wide index work counters, the observable the index-selection
/// experiments measure: how many index structures were built (per kind)
/// and how many probes they served. Monotone; relative measurement uses
/// [`IndexCounters::scoped`] (isolated from concurrent work) or, for
/// whole-process views, [`IndexCounters::snapshot`] +
/// [`IndexCounters::delta_since`].
pub mod counters {
    use super::{AtomicOrdering, AtomicU64};
    use std::cell::RefCell;
    use std::sync::Arc;

    static HASH_BUILDS: AtomicU64 = AtomicU64::new(0);
    static ORDERED_BUILDS: AtomicU64 = AtomicU64::new(0);
    static HASH_PROBES: AtomicU64 = AtomicU64::new(0);
    static ORDERED_PROBES: AtomicU64 = AtomicU64::new(0);
    static RANGE_PROBES: AtomicU64 = AtomicU64::new(0);
    static ROWS_ENUMERATED: AtomicU64 = AtomicU64::new(0);

    /// Private accumulator of one live [`IndexCounters::scoped`] call.
    /// Atomic because evaluator worker threads enter the scope (via
    /// [`ScopeHandle`]) and bump it concurrently.
    #[derive(Debug, Default)]
    struct ScopeCells {
        hash_builds: AtomicU64,
        ordered_builds: AtomicU64,
        hash_probes: AtomicU64,
        ordered_probes: AtomicU64,
        range_probes: AtomicU64,
        rows_enumerated: AtomicU64,
    }

    thread_local! {
        /// Scopes active on this thread, innermost last.
        static SCOPES: RefCell<Vec<Arc<ScopeCells>>> = const { RefCell::new(Vec::new()) };
    }

    /// Which counter a call site bumps.
    #[derive(Clone, Copy)]
    enum Counter {
        HashBuilds,
        OrderedBuilds,
        HashProbes,
        OrderedProbes,
        RangeProbes,
        RowsEnumerated,
    }

    fn bump(which: Counter, n: u64) {
        let global = match which {
            Counter::HashBuilds => &HASH_BUILDS,
            Counter::OrderedBuilds => &ORDERED_BUILDS,
            Counter::HashProbes => &HASH_PROBES,
            Counter::OrderedProbes => &ORDERED_PROBES,
            Counter::RangeProbes => &RANGE_PROBES,
            Counter::RowsEnumerated => &ROWS_ENUMERATED,
        };
        global.fetch_add(n, AtomicOrdering::Relaxed);
        SCOPES.with(|s| {
            for scope in s.borrow().iter() {
                let cell = match which {
                    Counter::HashBuilds => &scope.hash_builds,
                    Counter::OrderedBuilds => &scope.ordered_builds,
                    Counter::HashProbes => &scope.hash_probes,
                    Counter::OrderedProbes => &scope.ordered_probes,
                    Counter::RangeProbes => &scope.range_probes,
                    Counter::RowsEnumerated => &scope.rows_enumerated,
                };
                cell.fetch_add(n, AtomicOrdering::Relaxed);
            }
        });
    }

    pub(super) fn note_hash_build() {
        bump(Counter::HashBuilds, 1);
    }
    pub(super) fn note_ordered_build() {
        bump(Counter::OrderedBuilds, 1);
    }
    pub(super) fn note_hash_probe() {
        bump(Counter::HashProbes, 1);
    }
    pub(super) fn note_ordered_probe() {
        bump(Counter::OrderedProbes, 1);
    }
    pub(super) fn note_range_probe() {
        bump(Counter::RangeProbes, 1);
    }

    /// Records `n` tuples handed to the evaluator's unification loop by
    /// one access (scan, probe, or range probe). Bumped by the rule
    /// executor at every positive-atom access site — not by the index
    /// structures themselves — so the counter has one crisp meaning:
    /// rows *enumerated* before residual filtering.
    pub fn note_rows_enumerated(n: u64) {
        bump(Counter::RowsEnumerated, n);
    }

    /// The scopes active on the calling thread, packaged so a worker
    /// thread can attribute its counter bumps to the same scopes. The
    /// parallel round executor captures a handle before fanning a round
    /// out and re-enters it inside each job; anyone else spawning
    /// threads under a scope should do the same.
    #[derive(Clone, Debug, Default)]
    pub struct ScopeHandle(Vec<Arc<ScopeCells>>);

    /// Captures the calling thread's active scopes (cheap: `Arc` clones).
    pub fn scope_handle() -> ScopeHandle {
        SCOPES.with(|s| ScopeHandle(s.borrow().clone()))
    }

    impl ScopeHandle {
        /// Makes the handle's scopes active on the current thread until
        /// the guard drops. Scopes already active here are not entered
        /// twice, so re-entering on the capturing thread itself (the
        /// serial path of a worker pool) never double-counts.
        pub fn enter(&self) -> ScopeGuard {
            SCOPES.with(|s| {
                let mut active = s.borrow_mut();
                let mut added = 0;
                for scope in &self.0 {
                    if !active.iter().any(|a| Arc::ptr_eq(a, scope)) {
                        active.push(scope.clone());
                        added += 1;
                    }
                }
                ScopeGuard { added }
            })
        }
    }

    /// RAII guard of [`ScopeHandle::enter`]: leaves the entered scopes
    /// on drop.
    pub struct ScopeGuard {
        added: usize,
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            SCOPES.with(|s| {
                let mut active = s.borrow_mut();
                let keep = active.len() - self.added;
                active.truncate(keep);
            });
        }
    }

    /// A snapshot of the index work counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct IndexCounters {
        /// Hash indexes built ([`super::Relation::index_on`] misses).
        pub hash_builds: u64,
        /// Ordered indexes built ([`super::Relation::ordered_index_on`] misses).
        pub ordered_builds: u64,
        /// Probes served by hash indexes.
        pub hash_probes: u64,
        /// Equality-prefix probes served by ordered indexes.
        pub ordered_probes: u64,
        /// Range probes (bound inequality folded into the access) served
        /// by ordered indexes.
        pub range_probes: u64,
        /// Tuples enumerated by the rule executor across all access
        /// paths (see [`note_rows_enumerated`]).
        pub rows_enumerated: u64,
    }

    impl IndexCounters {
        /// Current counter values.
        pub fn snapshot() -> IndexCounters {
            IndexCounters {
                hash_builds: HASH_BUILDS.load(AtomicOrdering::Relaxed),
                ordered_builds: ORDERED_BUILDS.load(AtomicOrdering::Relaxed),
                hash_probes: HASH_PROBES.load(AtomicOrdering::Relaxed),
                ordered_probes: ORDERED_PROBES.load(AtomicOrdering::Relaxed),
                range_probes: RANGE_PROBES.load(AtomicOrdering::Relaxed),
                rows_enumerated: ROWS_ENUMERATED.load(AtomicOrdering::Relaxed),
            }
        }

        /// Work performed since `self` was snapshot.
        pub fn delta_since(&self) -> IndexCounters {
            let now = IndexCounters::snapshot();
            IndexCounters {
                hash_builds: now.hash_builds - self.hash_builds,
                ordered_builds: now.ordered_builds - self.ordered_builds,
                hash_probes: now.hash_probes - self.hash_probes,
                ordered_probes: now.ordered_probes - self.ordered_probes,
                range_probes: now.range_probes - self.range_probes,
                rows_enumerated: now.rows_enumerated - self.rows_enumerated,
            }
        }

        /// Runs `f` inside a fresh measurement scope and returns its
        /// result together with exactly the index work `f` performed —
        /// on the calling thread and on any evaluator worker threads
        /// (the round executors re-enter the caller's scopes via
        /// [`scope_handle`]). Unlike snapshot/delta pairs, concurrent
        /// work elsewhere in the process (e.g. other tests in the same
        /// binary) cannot pollute the measurement, so exact-delta
        /// assertions no longer need single-process runs. Scopes nest.
        pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, IndexCounters) {
            struct PopOnDrop;
            impl Drop for PopOnDrop {
                fn drop(&mut self) {
                    SCOPES.with(|s| {
                        s.borrow_mut().pop();
                    });
                }
            }
            let cells = Arc::new(ScopeCells::default());
            SCOPES.with(|s| s.borrow_mut().push(cells.clone()));
            let out = {
                let _pop = PopOnDrop;
                f()
            };
            let load = |c: &AtomicU64| c.load(AtomicOrdering::Relaxed);
            let counters = IndexCounters {
                hash_builds: load(&cells.hash_builds),
                ordered_builds: load(&cells.ordered_builds),
                hash_probes: load(&cells.hash_probes),
                ordered_probes: load(&cells.ordered_probes),
                range_probes: load(&cells.range_probes),
                rows_enumerated: load(&cells.rows_enumerated),
            };
            (out, counters)
        }
    }
}

/// A hash index over a snapshot of a relation: maps the values at
/// `key_cols` to the row ids holding them.
///
/// Indexes are immutable snapshots. [`Relation`] caches one per column
/// set and invalidates the cache on insertion, so probes after an update
/// transparently rebuild.
#[derive(Clone, Debug)]
pub struct Index {
    key_cols: Vec<usize>,
    map: HashMap<Vec<Term>, Vec<u32>>,
    /// Relation version this index was built against.
    version: u64,
}

impl Index {
    fn build(rows: &[Tuple], key_cols: &[usize], version: u64) -> Index {
        counters::note_hash_build();
        let mut map: HashMap<Vec<Term>, Vec<u32>> = HashMap::new();
        for (i, t) in rows.iter().enumerate() {
            let key: Vec<Term> = key_cols.iter().map(|&c| t.get(c).clone()).collect();
            map.entry(key).or_default().push(i as u32);
        }
        Index {
            key_cols: key_cols.to_vec(),
            map,
            version,
        }
    }

    /// Row ids whose `key_cols` equal `key`, ascending (insertion order).
    pub fn probe(&self, key: &[Term]) -> &[u32] {
        debug_assert_eq!(key.len(), self.key_cols.len());
        counters::note_hash_probe();
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// The indexed columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }
}

/// The value-type population of one indexed column, computed when an
/// [`OrderedIndex`] is built. Range folding consults this before turning
/// a bound inequality into a range probe: a probe over a homogeneous
/// `Ints`/`Syms` column with a same-typed constant bound enumerates
/// exactly the rows a post-enumeration filter would keep, and — because
/// no enumerated row can raise an undefined-ordering error — preserves
/// the error behavior of the scan-and-filter path under strict select.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColClass {
    /// No rows: any fold is trivially sound.
    Empty,
    /// Every value is `Const(Int)`.
    Ints,
    /// Every value is `Const(Sym)`.
    Syms,
    /// Mixed types or structured terms: never fold (the residual filter
    /// must run so undefined orderings surface exactly as on a scan).
    Other,
}

/// An ordered index over a snapshot of a relation: a permutation of the
/// row ids sorted lexicographically by the values at `cols` (ties broken
/// by row id). One ordered index serves *every* bound-column set that is
/// a prefix of `cols` via binary-searched prefix probes — this is what
/// lets a minimum-chain-cover index selection (see the `ldl-index`
/// crate) replace one hash index per search signature with one ordered
/// index per chain.
///
/// Like [`Index`], ordered indexes are immutable snapshots keyed by the
/// relation version and cached by [`Relation::ordered_index_on`].
#[derive(Clone, Debug)]
pub struct OrderedIndex {
    cols: Vec<usize>,
    /// Row ids sorted by (values at `cols`, row id).
    perm: Vec<u32>,
    /// Per-indexed-column value-type population (same length as `cols`).
    classes: Vec<ColClass>,
    /// Relation version this index was built against.
    version: u64,
}

impl OrderedIndex {
    fn build(rows: &[Tuple], cols: &[usize], version: u64) -> OrderedIndex {
        counters::note_ordered_build();
        let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (&rows[a as usize], &rows[b as usize]);
            for &c in cols {
                match ra.get(c).cmp(rb.get(c)) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            a.cmp(&b)
        });
        let classes = cols
            .iter()
            .map(|&c| {
                let mut class = ColClass::Empty;
                for t in rows {
                    let this = match t.get(c) {
                        Term::Const(ldl_core::Value::Int(_)) => ColClass::Ints,
                        Term::Const(ldl_core::Value::Sym(_)) => ColClass::Syms,
                        _ => ColClass::Other,
                    };
                    class = match (class, this) {
                        (ColClass::Empty, x) => x,
                        (x, y) if x == y => x,
                        _ => return ColClass::Other,
                    };
                }
                class
            })
            .collect();
        OrderedIndex {
            cols: cols.to_vec(),
            perm,
            classes,
            version,
        }
    }

    /// The indexed column order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The value-type population of the column at index `depth` of
    /// [`OrderedIndex::cols`].
    pub fn col_class(&self, depth: usize) -> ColClass {
        self.classes[depth]
    }

    /// Compares the first `key.len()` indexed columns of `row` against
    /// `key` lexicographically.
    fn cmp_prefix(&self, row: &Tuple, key: &[Term]) -> Ordering {
        for (&c, k) in self.cols.iter().zip(key) {
            match row.get(c).cmp(k) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// The contiguous run of `perm` whose first `key.len()` indexed
    /// columns equal `key` (binary search, O(log n) comparisons).
    fn equal_run(&self, rows: &[Tuple], key: &[Term]) -> std::ops::Range<usize> {
        debug_assert!(key.len() <= self.cols.len());
        let lo = self
            .perm
            .partition_point(|&rid| self.cmp_prefix(&rows[rid as usize], key) == Ordering::Less);
        let hi = self
            .perm
            .partition_point(|&rid| self.cmp_prefix(&rows[rid as usize], key) != Ordering::Greater);
        lo..hi
    }

    /// Row ids whose first `key.len()` indexed columns equal `key`,
    /// returned **ascending** — the same emission order a hash-index
    /// probe or a full scan yields, which is what keeps the evaluator's
    /// bit-for-bit determinism contract access-path independent.
    pub fn probe_prefix(&self, rows: &[Tuple], key: &[Term]) -> Vec<u32> {
        counters::note_ordered_probe();
        let run = self.equal_run(rows, key);
        let mut out = self.perm[run].to_vec();
        out.sort_unstable();
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "probe_prefix must yield strictly ascending rids"
        );
        out
    }

    /// Range probe with inclusive bounds: row ids whose first
    /// `prefix.len()` indexed columns equal `prefix` and whose *next*
    /// indexed column lies in `[low, high]` (each bound optional).
    /// Returned ascending, like [`OrderedIndex::probe_prefix`].
    pub fn probe_range(
        &self,
        rows: &[Tuple],
        prefix: &[Term],
        low: Option<&Term>,
        high: Option<&Term>,
    ) -> Vec<u32> {
        use std::ops::Bound;
        let lo = low.map_or(Bound::Unbounded, Bound::Included);
        let hi = high.map_or(Bound::Unbounded, Bound::Included);
        self.probe_range_bounds(rows, prefix, lo, hi)
    }

    /// Range probe with explicit open/closed/unbounded ends — the form
    /// the rule executor issues when it folds bound `<,<=,>,>=` builtins
    /// into the access. Row ids come back **ascending** (insertion
    /// order), so the folded stream equals the scan-and-filter stream.
    pub fn probe_range_bounds(
        &self,
        rows: &[Tuple],
        prefix: &[Term],
        low: std::ops::Bound<&Term>,
        high: std::ops::Bound<&Term>,
    ) -> Vec<u32> {
        use std::ops::Bound;
        counters::note_range_probe();
        debug_assert!(prefix.len() < self.cols.len());
        let run = self.equal_run(rows, prefix);
        let next_col = self.cols[prefix.len()];
        let lo = match low {
            Bound::Included(l) => {
                run.start
                    + self.perm[run.clone()]
                        .partition_point(|&rid| rows[rid as usize].get(next_col) < l)
            }
            Bound::Excluded(l) => {
                run.start
                    + self.perm[run.clone()]
                        .partition_point(|&rid| rows[rid as usize].get(next_col) <= l)
            }
            Bound::Unbounded => run.start,
        };
        let hi = match high {
            Bound::Included(h) => {
                run.start
                    + self.perm[run.clone()]
                        .partition_point(|&rid| rows[rid as usize].get(next_col) <= h)
            }
            Bound::Excluded(h) => {
                run.start
                    + self.perm[run.clone()]
                        .partition_point(|&rid| rows[rid as usize].get(next_col) < h)
            }
            Bound::Unbounded => run.end,
        };
        let mut out = self.perm[lo..hi.max(lo)].to_vec();
        out.sort_unstable();
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "probe_range must yield strictly ascending rids"
        );
        out
    }
}

/// A duplicate-free, insertion-ordered set of tuples of fixed arity.
pub struct Relation {
    arity: usize,
    rows: Vec<Tuple>,
    seen: HashMap<Tuple, u32>,
    version: u64,
    /// Lazily built indexes keyed by column set.
    index_cache: Mutex<HashMap<Vec<usize>, Arc<Index>>>,
    /// Lazily built ordered indexes keyed by column order.
    ordered_cache: Mutex<HashMap<Vec<usize>, Arc<OrderedIndex>>>,
}

impl Relation {
    /// Empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            rows: Vec::new(),
            seen: HashMap::new(),
            version: 0,
            index_cache: Mutex::new(HashMap::new()),
            ordered_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Relation initialized from tuples (duplicates dropped).
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts `t`, returning `true` if it was new. Invalidates cached
    /// indexes (they rebuild on next probe).
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.arity(), self.arity, "tuple arity mismatch");
        if self.seen.contains_key(&t) {
            return false;
        }
        let id = self.rows.len() as u32;
        self.seen.insert(t.clone(), id);
        self.rows.push(t);
        self.version += 1;
        true
    }

    /// Inserts every tuple, returning how many were new.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> usize {
        tuples.into_iter().map(|t| self.insert(t) as usize).sum()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.seen.contains_key(t)
    }

    /// The tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Tuple by row id (as returned by index probes).
    pub fn row(&self, id: u32) -> &Tuple {
        &self.rows[id as usize]
    }

    /// All rows as a slice.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// A (cached) hash index on `cols`. Rebuilt automatically if the
    /// relation changed since the index was built.
    pub fn index_on(&self, cols: &[usize]) -> Arc<Index> {
        let mut cache = self.index_cache.lock().expect("index cache lock poisoned");
        match cache.get(cols) {
            Some(idx) if idx.version == self.version => idx.clone(),
            _ => {
                let idx = Arc::new(Index::build(&self.rows, cols, self.version));
                cache.insert(cols.to_vec(), idx.clone());
                idx
            }
        }
    }

    /// A (cached) ordered index on the column order `cols`. Rebuilt
    /// automatically if the relation changed since the index was built.
    /// Unlike [`Relation::index_on`], the cache key is an ordered
    /// *sequence*: `[0, 1]` and `[1, 0]` are different indexes.
    pub fn ordered_index_on(&self, cols: &[usize]) -> Arc<OrderedIndex> {
        let mut cache = self
            .ordered_cache
            .lock()
            .expect("ordered cache lock poisoned");
        match cache.get(cols) {
            Some(idx) if idx.version == self.version => idx.clone(),
            _ => {
                let idx = Arc::new(OrderedIndex::build(&self.rows, cols, self.version));
                cache.insert(cols.to_vec(), idx.clone());
                idx
            }
        }
    }

    /// Distinct values in column `c` (counted via a single-column index).
    pub fn distinct_in_col(&self, c: usize) -> usize {
        self.index_on(&[c]).distinct_keys()
    }

    /// Removes `t` if present, returning `true`. Surviving rows keep
    /// their relative (insertion) order; row ids shift, so the version
    /// bump invalidates every cached index snapshot.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.remove_batch(std::iter::once(t)) == 1
    }

    /// Removes every tuple of `tuples` that is present, in one pass,
    /// returning how many were removed. Surviving rows keep their
    /// relative order and get fresh row ids; the version bump is
    /// monotone (versions are never reused), so version-keyed index
    /// caches — including snapshots shared with clones — stay correct.
    pub fn remove_batch<'b>(&mut self, tuples: impl IntoIterator<Item = &'b Tuple>) -> usize {
        let mut removed = 0usize;
        for t in tuples {
            debug_assert_eq!(t.arity(), self.arity, "tuple arity mismatch");
            if self.seen.remove(t).is_some() {
                removed += 1;
            }
        }
        if removed == 0 {
            return 0;
        }
        let seen = &self.seen;
        self.rows.retain(|r| seen.contains_key(r));
        for (i, row) in self.rows.iter().enumerate() {
            *self.seen.get_mut(row).expect("surviving row is in seen") = i as u32;
        }
        self.version += 1;
        removed
    }

    /// Reorders the rows into the *canonical* order — ascending by
    /// `Term`'s total order, column by column — rebuilding row ids and
    /// bumping the version when anything actually moves. The incremental
    /// maintenance engine (`ldl-eval::maintain`) keeps derived relations
    /// canonical so that any sequence of updates arriving at the same
    /// set state yields bit-for-bit identical rows, insertion order
    /// included.
    pub fn canonicalize(&mut self) {
        if self.rows.windows(2).all(|w| w[0].0 <= w[1].0) {
            return;
        }
        self.rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (i, row) in self.rows.iter().enumerate() {
            *self.seen.get_mut(row).expect("row is in seen") = i as u32;
        }
        self.version += 1;
    }

    /// Monotone version counter (bumped on every mutation: insert,
    /// removal, or canonical reorder).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Per-tuple derivation counts for one derived relation — the side
/// structure counting-based incremental maintenance keeps next to each
/// non-recursive stratum's relation (see `ldl-eval::maintain`). The
/// maintained invariant: a tuple is in the relation iff its count is
/// positive, where the count is the number of distinct rule derivations
/// (plus one per asserted fact seed). `synced_version` records the
/// relation version the counts were last reconciled with, so the
/// maintenance layer can assert it is not applying a delta against
/// stale counts.
#[derive(Clone, Debug, Default)]
pub struct SupportCounts {
    counts: HashMap<Tuple, u64>,
    synced_version: u64,
}

impl SupportCounts {
    /// Empty support table.
    pub fn new() -> SupportCounts {
        SupportCounts::default()
    }

    /// The derivation count of `t` (0 when unsupported).
    pub fn get(&self, t: &Tuple) -> u64 {
        self.counts.get(t).copied().unwrap_or(0)
    }

    /// Adds `n` derivations for `t`, returning the new count.
    pub fn add(&mut self, t: &Tuple, n: u64) -> u64 {
        if n == 0 {
            return self.get(t);
        }
        let c = self.counts.entry(t.clone()).or_insert(0);
        *c += n;
        *c
    }

    /// Sets the derivation count of `t` outright (0 drops the entry),
    /// returning the new count. Used by maintenance to commit the net
    /// `old + gained - lost` count per affected tuple.
    pub fn set(&mut self, t: &Tuple, n: u64) -> u64 {
        if n == 0 {
            self.counts.remove(t);
        } else {
            self.counts.insert(t.clone(), n);
        }
        n
    }

    /// How many tuples have a positive count.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no tuple has support.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The relation version these counts were last reconciled with.
    pub fn synced_version(&self) -> u64 {
        self.synced_version
    }

    /// Records the relation version these counts now agree with.
    pub fn set_synced(&mut self, version: u64) {
        self.synced_version = version;
    }
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        // Indexes are immutable snapshots keyed by `version`, so the
        // clone can share them via `Arc`: a cloned relation serves
        // cached probes without rebuilding, and its own inserts bump
        // `version` which invalidates the shared entries for the clone
        // only (the original keeps serving them at its version).
        let cache = self
            .index_cache
            .lock()
            .expect("index cache lock poisoned")
            .clone();
        let ordered = self
            .ordered_cache
            .lock()
            .expect("ordered cache lock poisoned")
            .clone();
        Relation {
            arity: self.arity,
            rows: self.rows.clone(),
            seen: self.seen.clone(),
            version: self.version,
            index_cache: Mutex::new(cache),
            ordered_cache: Mutex::new(ordered),
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("arity", &self.arity)
            .field("len", &self.rows.len())
            .finish()
    }
}

impl PartialEq for Relation {
    /// Set equality (order-insensitive).
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.rows.len() == other.rows.len()
            && self.rows.iter().all(|t| other.contains(t))
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collects tuples; panics on an empty iterator (arity unknown) —
    /// prefer [`Relation::from_tuples`] when emptiness is possible.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Relation {
        let mut it = iter.into_iter().peekable();
        let arity = it
            .peek()
            .expect("cannot infer arity of empty relation")
            .arity();
        Relation::from_tuples(arity, it)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert(Tuple::ints(&[1, 2])));
        assert!(!r.insert(Tuple::ints(&[1, 2])));
        assert!(r.insert(Tuple::ints(&[1, 3])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut r = Relation::new(1);
        for i in (0..10).rev() {
            r.insert(Tuple::ints(&[i]));
        }
        let got: Vec<i64> = r
            .iter()
            .map(|t| t.get(0).clone())
            .map(|t| match t {
                ldl_core::Term::Const(ldl_core::Value::Int(i)) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn index_probe_finds_rows() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints(&[1, 10]));
        r.insert(Tuple::ints(&[1, 20]));
        r.insert(Tuple::ints(&[2, 30]));
        let idx = r.index_on(&[0]);
        assert_eq!(idx.probe(&[Term::int(1)]).len(), 2);
        assert_eq!(idx.probe(&[Term::int(2)]).len(), 1);
        assert_eq!(idx.probe(&[Term::int(9)]).len(), 0);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn index_invalidated_on_insert() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[1]));
        let idx = r.index_on(&[0]);
        assert_eq!(idx.probe(&[Term::int(2)]).len(), 0);
        r.insert(Tuple::ints(&[2]));
        let idx2 = r.index_on(&[0]);
        assert_eq!(idx2.probe(&[Term::int(2)]).len(), 1);
    }

    #[test]
    fn multi_column_index() {
        let mut r = Relation::new(3);
        r.insert(Tuple::ints(&[1, 2, 3]));
        r.insert(Tuple::ints(&[1, 2, 4]));
        r.insert(Tuple::ints(&[1, 5, 3]));
        let idx = r.index_on(&[0, 1]);
        assert_eq!(idx.probe(&[Term::int(1), Term::int(2)]).len(), 2);
    }

    #[test]
    fn set_equality_ignores_order() {
        let a = Relation::from_tuples(1, [Tuple::ints(&[1]), Tuple::ints(&[2])]);
        let b = Relation::from_tuples(1, [Tuple::ints(&[2]), Tuple::ints(&[1])]);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_in_col() {
        let r = Relation::from_tuples(
            2,
            [
                Tuple::ints(&[1, 1]),
                Tuple::ints(&[1, 2]),
                Tuple::ints(&[2, 2]),
            ],
        );
        assert_eq!(r.distinct_in_col(0), 2);
        assert_eq!(r.distinct_in_col(1), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints(&[1]));
    }

    #[test]
    fn ordered_prefix_probe_matches_hash_probe() {
        let mut r = Relation::new(3);
        r.insert(Tuple::ints(&[2, 1, 9]));
        r.insert(Tuple::ints(&[1, 5, 8]));
        r.insert(Tuple::ints(&[1, 2, 7]));
        r.insert(Tuple::ints(&[1, 2, 6]));
        let oi = r.ordered_index_on(&[0, 1]);
        // Full-key probe agrees with the hash index, rids ascending.
        let hash: Vec<u32> = r
            .index_on(&[0, 1])
            .probe(&[Term::int(1), Term::int(2)])
            .to_vec();
        assert_eq!(
            oi.probe_prefix(r.rows(), &[Term::int(1), Term::int(2)]),
            hash
        );
        assert_eq!(hash, vec![2, 3]);
        // Prefix probe: all three rows with first column 1, ascending.
        assert_eq!(oi.probe_prefix(r.rows(), &[Term::int(1)]), vec![1, 2, 3]);
        assert!(oi.probe_prefix(r.rows(), &[Term::int(9)]).is_empty());
    }

    #[test]
    fn ordered_range_probe() {
        let mut r = Relation::new(2);
        for (a, b) in [(1, 10), (1, 20), (1, 30), (2, 5)] {
            r.insert(Tuple::ints(&[a, b]));
        }
        let oi = r.ordered_index_on(&[0, 1]);
        let lo = Term::int(15);
        let hi = Term::int(30);
        assert_eq!(
            oi.probe_range(r.rows(), &[Term::int(1)], Some(&lo), Some(&hi)),
            vec![1, 2]
        );
        assert_eq!(
            oi.probe_range(r.rows(), &[Term::int(1)], Some(&lo), None),
            vec![1, 2]
        );
        assert_eq!(
            oi.probe_range(r.rows(), &[Term::int(1)], None, Some(&lo)),
            vec![0]
        );
        assert!(oi
            .probe_range(r.rows(), &[Term::int(2)], Some(&lo), Some(&hi))
            .is_empty());
    }

    #[test]
    fn range_probe_open_closed_and_half_open_bounds() {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        let mut r = Relation::new(2);
        for (a, b) in [(1, 10), (1, 20), (1, 30), (2, 5)] {
            r.insert(Tuple::ints(&[a, b]));
        }
        let oi = r.ordered_index_on(&[0, 1]);
        let p = [Term::int(1)];
        let (t10, t20, t30) = (Term::int(10), Term::int(20), Term::int(30));
        // Closed [10, 30] keeps all three; open (10, 30) drops both ends.
        assert_eq!(
            oi.probe_range_bounds(r.rows(), &p, Included(&t10), Included(&t30)),
            vec![0, 1, 2]
        );
        assert_eq!(
            oi.probe_range_bounds(r.rows(), &p, Excluded(&t10), Excluded(&t30)),
            vec![1]
        );
        // Half-open both ways.
        assert_eq!(
            oi.probe_range_bounds(r.rows(), &p, Included(&t10), Excluded(&t30)),
            vec![0, 1]
        );
        assert_eq!(
            oi.probe_range_bounds(r.rows(), &p, Excluded(&t10), Included(&t30)),
            vec![1, 2]
        );
        // One-sided.
        assert_eq!(
            oi.probe_range_bounds(r.rows(), &p, Excluded(&t20), Unbounded),
            vec![2]
        );
        assert_eq!(
            oi.probe_range_bounds(r.rows(), &p, Unbounded, Excluded(&t20)),
            vec![0]
        );
    }

    #[test]
    fn range_probe_empty_and_inverted_ranges() {
        use std::ops::Bound::{Excluded, Included};
        let mut r = Relation::new(2);
        for (a, b) in [(1, 10), (1, 20)] {
            r.insert(Tuple::ints(&[a, b]));
        }
        let oi = r.ordered_index_on(&[0, 1]);
        let p = [Term::int(1)];
        let (t10, t15, t20) = (Term::int(10), Term::int(15), Term::int(20));
        // Open interval with nothing inside.
        assert!(oi
            .probe_range_bounds(r.rows(), &p, Excluded(&t10), Excluded(&t15))
            .is_empty());
        // Inverted bounds: lo > hi must yield empty, not panic.
        assert!(oi
            .probe_range_bounds(r.rows(), &p, Included(&t20), Included(&t10))
            .is_empty());
        // Point range at an absent value.
        assert!(oi
            .probe_range_bounds(r.rows(), &p, Included(&t15), Included(&t15))
            .is_empty());
        // Missing prefix.
        assert!(oi
            .probe_range_bounds(r.rows(), &[Term::int(9)], Included(&t10), Included(&t20))
            .is_empty());
    }

    #[test]
    fn range_probe_bound_colliding_with_equality_prefix() {
        use std::ops::Bound::{Excluded, Included};
        // Prefix value 5 also appears in the range column; the range
        // must constrain only the *next* column within the prefix run.
        let mut r = Relation::new(2);
        for (a, b) in [(5, 5), (5, 6), (6, 5)] {
            r.insert(Tuple::ints(&[a, b]));
        }
        let oi = r.ordered_index_on(&[0, 1]);
        let t5 = Term::int(5);
        assert_eq!(
            oi.probe_range_bounds(
                r.rows(),
                std::slice::from_ref(&t5),
                Included(&t5),
                Included(&t5)
            ),
            vec![0]
        );
        assert_eq!(
            oi.probe_range_bounds(
                r.rows(),
                std::slice::from_ref(&t5),
                Excluded(&t5),
                Excluded(&Term::int(7))
            ),
            vec![1]
        );
    }

    #[test]
    fn col_class_reflects_column_population() {
        let mut r = Relation::new(3);
        r.insert(Tuple::new(vec![Term::int(1), Term::sym("a"), Term::int(9)]));
        r.insert(Tuple::new(vec![
            Term::int(2),
            Term::sym("b"),
            Term::sym("mixed"),
        ]));
        let oi = r.ordered_index_on(&[0, 1, 2]);
        assert_eq!(oi.col_class(0), ColClass::Ints);
        assert_eq!(oi.col_class(1), ColClass::Syms);
        assert_eq!(oi.col_class(2), ColClass::Other);
        let empty = Relation::new(1);
        assert_eq!(empty.ordered_index_on(&[0]).col_class(0), ColClass::Empty);
    }

    #[test]
    fn range_probe_counts_separately_from_prefix_probes() {
        let before = counters::IndexCounters::snapshot();
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[1]));
        r.insert(Tuple::ints(&[2]));
        let oi = r.ordered_index_on(&[0]);
        oi.probe_range(r.rows(), &[], Some(&Term::int(1)), None);
        let d = before.delta_since();
        assert!(d.range_probes >= 1);
    }

    #[test]
    fn ordered_index_invalidated_on_insert_and_shared_by_clone() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[1]));
        let oi = r.ordered_index_on(&[0]);
        let c = r.clone();
        assert!(Arc::ptr_eq(&oi, &c.ordered_index_on(&[0])));
        r.insert(Tuple::ints(&[0]));
        let oi2 = r.ordered_index_on(&[0]);
        assert!(!Arc::ptr_eq(&oi, &oi2));
        assert_eq!(oi2.probe_prefix(r.rows(), &[Term::int(0)]), vec![1]);
    }

    #[test]
    fn clone_serves_prebuilt_index_without_rebuilding() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints(&[1, 10]));
        r.insert(Tuple::ints(&[2, 20]));
        let idx = r.index_on(&[0]);
        let c = r.clone();
        // The clone answers from the same snapshot, not a rebuild.
        assert!(Arc::ptr_eq(&idx, &c.index_on(&[0])));
        assert_eq!(c.index_on(&[0]).probe(&[Term::int(2)]).len(), 1);
    }

    #[test]
    fn remove_preserves_survivor_order_and_reindexes() {
        let mut r = Relation::new(2);
        for (a, b) in [(3, 30), (1, 10), (2, 20), (4, 40)] {
            r.insert(Tuple::ints(&[a, b]));
        }
        let v0 = r.version();
        assert!(r.remove(&Tuple::ints(&[1, 10])));
        assert!(!r.remove(&Tuple::ints(&[1, 10])), "already gone");
        assert!(r.version() > v0, "removal must bump the version");
        let got: Vec<String> = r.iter().map(|t| t.to_string()).collect();
        assert_eq!(got, ["(3, 30)", "(2, 20)", "(4, 40)"]);
        // Probes see the renumbered row ids, not stale ones.
        let idx = r.index_on(&[0]);
        assert_eq!(idx.probe(&[Term::int(4)]), &[2]);
        assert_eq!(idx.probe(&[Term::int(1)]), &[] as &[u32]);
    }

    #[test]
    fn remove_batch_counts_only_present_tuples() {
        let mut r = Relation::new(1);
        for i in 0..5 {
            r.insert(Tuple::ints(&[i]));
        }
        let doomed = [Tuple::ints(&[1]), Tuple::ints(&[99]), Tuple::ints(&[3])];
        assert_eq!(r.remove_batch(doomed.iter()), 2);
        assert_eq!(r.len(), 3);
        // Absent-only batch is a no-op and does not bump the version.
        let v = r.version();
        assert_eq!(r.remove_batch([Tuple::ints(&[42])].iter()), 0);
        assert_eq!(r.version(), v);
    }

    #[test]
    fn canonicalize_sorts_rows_and_rebuilds_ids() {
        let mut r = Relation::new(2);
        for (a, b) in [(2, 1), (1, 2), (1, 1)] {
            r.insert(Tuple::ints(&[a, b]));
        }
        r.canonicalize();
        let got: Vec<String> = r.iter().map(|t| t.to_string()).collect();
        assert_eq!(got, ["(1, 1)", "(1, 2)", "(2, 1)"]);
        assert_eq!(r.index_on(&[0]).probe(&[Term::int(1)]), &[0, 1]);
        // Already-canonical input: no version churn.
        let v = r.version();
        r.canonicalize();
        assert_eq!(r.version(), v);
    }

    #[test]
    fn support_counts_track_and_sync() {
        let mut s = SupportCounts::new();
        let t = Tuple::ints(&[1]);
        assert_eq!(s.get(&t), 0);
        assert_eq!(s.add(&t, 2), 2);
        assert_eq!(s.add(&t, 1), 3);
        assert_eq!(s.set(&t, 1), 1);
        assert_eq!(s.set(&t, 0), 0);
        assert!(s.is_empty());
        s.set_synced(7);
        assert_eq!(s.synced_version(), 7);
    }

    #[test]
    fn scoped_counters_isolate_and_nest() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[1]));
        let (_, outer) = counters::IndexCounters::scoped(|| {
            r.index_on(&[0]).probe(&[Term::int(1)]);
            let ((), inner) = counters::IndexCounters::scoped(|| {
                counters::note_rows_enumerated(5);
            });
            assert_eq!(inner.rows_enumerated, 5);
            assert_eq!(inner.hash_probes, 0, "inner scope misses outer work");
        });
        assert_eq!(outer.hash_probes, 1);
        assert_eq!(outer.rows_enumerated, 5, "outer scope sees nested work");
    }

    #[test]
    fn scope_handle_attributes_worker_thread_bumps() {
        let ((), c) = counters::IndexCounters::scoped(|| {
            let handle = counters::scope_handle();
            // Re-entering on the same thread must not double-count.
            let _same = handle.enter();
            counters::note_rows_enumerated(1);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = handle.enter();
                    counters::note_rows_enumerated(10);
                });
            });
        });
        assert_eq!(c.rows_enumerated, 11);
    }

    #[test]
    fn clone_invalidates_shared_index_after_insert() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[1]));
        let idx = r.index_on(&[0]);
        let mut c = r.clone();
        c.insert(Tuple::ints(&[2]));
        let idx2 = c.index_on(&[0]);
        assert!(!Arc::ptr_eq(&idx, &idx2));
        assert_eq!(idx2.probe(&[Term::int(2)]).len(), 1);
        // The original still serves its own (valid) snapshot.
        assert!(Arc::ptr_eq(&idx, &r.index_on(&[0])));
    }
}
