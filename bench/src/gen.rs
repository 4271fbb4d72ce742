//! Seeded input generation and the reference answers.
//!
//! Everything the benchmark feeds the binaries is made here from
//! `--seed`: the `.ldl` text (rules + facts), the op list (goals and
//! commits) and, for every goal, the answer the driver expects. The
//! expected answers are computed by this file's own model — BFS over the
//! generated edges, depth equality on the generated tree, arithmetic on
//! the range table, hash joins over the chain relations — never by the
//! system under test. The generators are copies of the shapes in
//! `ldl-bench::workload`, kept here so a later change to that crate
//! cannot move the benchmark's inputs.
//!
//! The seed picks constants, goal order and a ±10 % jitter on the sizes;
//! the shapes and base sizes are fixed so runs under different seeds do
//! comparable work.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;

/// SplitMix64, copied from `ldl-support::rng` (same reason as above).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `base` moved by a uniform offset within ±10 %.
    fn jitter(&mut self, base: usize) -> usize {
        let span = base / 10;
        base - span + self.below(2 * span + 1)
    }
}

pub type Row = Vec<i64>;

/// FNV-1a, the hash behind every digest the benchmark prints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A row as both binaries print it: `(1, 2)`.
pub fn row_text(row: &[i64]) -> String {
    let cols: Vec<String> = row.iter().map(i64::to_string).collect();
    format!("({})", cols.join(", "))
}

/// Answer count plus an order-independent digest of the answer rows
/// (wrapping sum of each row's FNV-1a), so a reply can be checked
/// without sorting it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Expect {
    pub count: usize,
    pub digest: u64,
}

impl Expect {
    pub fn add_row_text(&mut self, text: &[u8]) {
        self.count += 1;
        self.digest = self.digest.wrapping_add(fnv1a(text));
    }

    fn of_rows(rows: &[Row]) -> Expect {
        let mut e = Expect::default();
        for r in rows {
            e.add_row_text(row_text(r).as_bytes());
        }
        e
    }
}

/// How the reference model derives a goal's predicate.
#[derive(Clone, Debug)]
pub enum Derive {
    /// Transitive closure of a base relation's first two columns.
    Closure { edge: String },
    /// `sg` over a tree given by `up(child, parent)`: equal depth.
    SameGen { up: String },
    /// `hit(K, V) <- m(K), f(K, V), V >= lo, V < hi.`
    RangeHit {
        m: String,
        f: String,
        lo: i64,
        hi: i64,
    },
    /// `top(V) <- f(K, V), V > thr.`
    RangeTop { f: String, thr: i64 },
    /// `q(X0, Xn) <- a1(X0, X1), ..., an(Xn-1, Xn).`
    Chain { rels: Vec<String> },
    /// Unary intersection of base relations (the layered rule base).
    Intersect { rels: Vec<String> },
    /// The base relation itself.
    Base { rel: String },
}

/// One goal: predicate, per-argument constant (`None` = free variable)
/// and the way the model answers it.
#[derive(Clone, Debug)]
pub struct Goal {
    pub pred: String,
    pub args: Vec<Option<i64>>,
    pub derive: Derive,
}

impl Goal {
    /// `tc(5, B)?` — free arguments become the variables `A`, `B`, ...
    pub fn text(&self) -> String {
        let args: Vec<String> = self
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| match a {
                Some(c) => c.to_string(),
                None => ((b'A' + i as u8) as char).to_string(),
            })
            .collect();
        format!("{}({})?", self.pred, args.join(", "))
    }
}

/// A base fact: predicate name + row.
pub type Fact = (String, Row);

pub fn fact_text(f: &Fact) -> String {
    format!("{}{}.", f.0, row_text(&f.1))
}

/// `e(1, 2). e(3, 4).` — how both binaries take a batch of facts.
pub fn batch_text(facts: &[Fact]) -> String {
    facts.iter().map(fact_text).collect::<Vec<_>>().join(" ")
}

#[derive(Clone, Debug)]
pub enum Op {
    Query {
        goal: Goal,
        text: String,
        expect: Expect,
    },
    /// One transaction: stage the retracts and inserts, then commit.
    Commit {
        retract: Vec<Fact>,
        insert: Vec<Fact>,
    },
}

/// The driver's own picture of the base relations.
#[derive(Clone, Default)]
pub struct Model {
    pub rels: BTreeMap<String, BTreeSet<Row>>,
}

impl Model {
    fn rel(&self, name: &str) -> &BTreeSet<Row> {
        static EMPTY: BTreeSet<Row> = BTreeSet::new();
        self.rels.get(name).unwrap_or(&EMPTY)
    }

    fn add(&mut self, name: &str, row: Row) {
        self.rels.entry(name.to_string()).or_default().insert(row);
    }

    pub fn apply(&mut self, retract: &[Fact], insert: &[Fact]) {
        for (p, row) in retract {
            self.rels.entry(p.clone()).or_default().remove(row);
        }
        for (p, row) in insert {
            self.add(p, row.clone());
        }
    }

    pub fn contains(&self, fact: &Fact) -> bool {
        self.rel(&fact.0).contains(&fact.1)
    }

    fn adjacency(&self, edge: &str, forward: bool) -> HashMap<i64, Vec<i64>> {
        let mut adj: HashMap<i64, Vec<i64>> = HashMap::new();
        for row in self.rel(edge) {
            let (a, b) = if forward {
                (row[0], row[1])
            } else {
                (row[1], row[0])
            };
            adj.entry(a).or_default().push(b);
        }
        adj
    }

    fn reach(adj: &HashMap<i64, Vec<i64>>, from: i64) -> BTreeSet<i64> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<i64> = adj.get(&from).cloned().unwrap_or_default().into();
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                if let Some(next) = adj.get(&n) {
                    queue.extend(next.iter().copied());
                }
            }
        }
        seen
    }

    /// Every pair of the transitive closure over `edge`.
    pub fn closure(&self, edge: &str) -> Vec<Row> {
        let adj = self.adjacency(edge, true);
        let mut starts: Vec<i64> = adj.keys().copied().collect();
        starts.sort_unstable();
        let mut out = Vec::new();
        for a in starts {
            out.extend(Self::reach(&adj, a).into_iter().map(|b| vec![a, b]));
        }
        out
    }

    /// All rows of the goal's predicate that match its bound arguments.
    pub fn answer(&self, goal: &Goal) -> Vec<Row> {
        let rows: Vec<Row> = match &goal.derive {
            Derive::Closure { edge } => match (goal.args[0], goal.args[1]) {
                (Some(a), _) => Self::reach(&self.adjacency(edge, true), a)
                    .into_iter()
                    .map(|b| vec![a, b])
                    .collect(),
                (None, Some(b)) => Self::reach(&self.adjacency(edge, false), b)
                    .into_iter()
                    .map(|a| vec![a, b])
                    .collect(),
                (None, None) => self.closure(edge),
            },
            Derive::SameGen { up } => {
                let parent: HashMap<i64, i64> = self.rel(up).iter().map(|r| (r[0], r[1])).collect();
                let depth = |mut n: i64| {
                    let mut d = 0;
                    while let Some(&p) = parent.get(&n) {
                        n = p;
                        d += 1;
                    }
                    d
                };
                let mut nodes: BTreeSet<i64> = parent.keys().copied().collect();
                nodes.extend(parent.values().copied());
                let mut by_depth: BTreeMap<usize, Vec<i64>> = BTreeMap::new();
                for &n in &nodes {
                    by_depth.entry(depth(n)).or_default().push(n);
                }
                let mut out = Vec::new();
                for level in by_depth.values() {
                    for &x in level {
                        if goal.args[0].is_some_and(|c| c != x) {
                            continue;
                        }
                        out.extend(level.iter().map(|&y| vec![x, y]));
                    }
                }
                out
            }
            Derive::RangeHit { m, f, lo, hi } => {
                let keys: BTreeSet<i64> = self.rel(m).iter().map(|r| r[0]).collect();
                self.rel(f)
                    .iter()
                    .filter(|r| keys.contains(&r[0]) && r[1] >= *lo && r[1] < *hi)
                    .cloned()
                    .collect()
            }
            Derive::RangeTop { f, thr } => {
                let vals: BTreeSet<i64> = self
                    .rel(f)
                    .iter()
                    .filter(|r| r[1] > *thr)
                    .map(|r| r[1])
                    .collect();
                vals.into_iter().map(|v| vec![v]).collect()
            }
            Derive::Chain { rels } => {
                // Pairs (x0, xi) reachable through the first i relations,
                // extended one hash join at a time; a set, as the
                // system's relations are duplicate-free.
                let mut pairs: BTreeSet<(i64, i64)> =
                    self.rel(&rels[0]).iter().map(|r| (r[0], r[1])).collect();
                for name in &rels[1..] {
                    let mut next: HashMap<i64, Vec<i64>> = HashMap::new();
                    for r in self.rel(name) {
                        next.entry(r[0]).or_default().push(r[1]);
                    }
                    pairs = pairs
                        .into_iter()
                        .flat_map(|(x0, xi)| {
                            next.get(&xi).into_iter().flatten().map(move |&xj| (x0, xj))
                        })
                        .collect();
                }
                pairs.into_iter().map(|(a, b)| vec![a, b]).collect()
            }
            Derive::Intersect { rels } => {
                let mut acc: BTreeSet<Row> = self.rel(&rels[0]).clone();
                for name in &rels[1..] {
                    let other = self.rel(name);
                    acc.retain(|r| other.contains(r));
                }
                acc.into_iter().collect()
            }
            Derive::Base { rel } => self.rel(rel).iter().cloned().collect(),
        };
        rows.into_iter()
            .filter(|row| {
                goal.args
                    .iter()
                    .zip(row)
                    .all(|(a, v)| a.is_none_or(|c| c == *v))
            })
            .collect()
    }
}

/// Which binary a workload drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target {
    Shell,
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub target: Target,
    /// Rules + facts the workload is about.
    pub core: String,
    /// The same data under `b_`-prefixed predicate names, never touched
    /// by an op. The serve workloads load it next to `core` (so a cost
    /// per commit that grows with the database shows); the traced run
    /// uses it for `serve.commit_ballast_ratio` on every workload.
    pub ballast: String,
    /// Base relations of `core` (and, on serve workloads, `ballast`).
    pub model: Model,
    /// Pairs `(edge relation, closure predicate)` the serve digest is
    /// predicted from; empty on shell workloads.
    pub closures: Vec<(String, String)>,
    /// The op list. Commits restore the state in pairs, so the list can
    /// be run as a cycle.
    pub ops: Vec<Op>,
    /// Ops run before measurement starts (part of `setup_s`).
    pub warmup: usize,
    /// Ops the traced run mirrors in-process when `--seconds` is the
    /// benchmark's `run_seconds`.
    pub trace_ops: usize,
    /// The serve reader/writer split: queries on one connection,
    /// commits on a second, reader refreshes after each commit.
    pub two_connections: bool,
    /// Sizes worth printing next to the numbers.
    pub sizes: Vec<(&'static str, usize)>,
}

impl Workload {
    /// The text the binary under test loads.
    pub fn loaded_text(&self) -> String {
        match self.target {
            Target::Shell => self.core.clone(),
            Target::Serve => format!("{}{}", self.core, self.ballast),
        }
    }

    /// Digest over the expected answers of the whole op list.
    pub fn answers_digest(&self) -> u64 {
        let mut h = 0u64;
        for (i, op) in self.ops.iter().enumerate() {
            if let Op::Query { expect, .. } = op {
                let mut bytes = (i as u64).to_le_bytes().to_vec();
                bytes.extend(expect.digest.to_le_bytes());
                bytes.extend((expect.count as u64).to_le_bytes());
                h = h.wrapping_add(fnv1a(&bytes));
            }
        }
        h
    }
}

/// The workloads, each with why it was chosen (the `why` of
/// BENCHMARK.json: one line, at most 200 characters).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "shell_recursive",
        "Recursive goals (tc, sg, BOM, range table): ldl-eval fixpoints and ldl-storage \
         indexes are over 80% of op time, ldl-optimizer ~5%; executor and index changes \
         show here, optimizer ones must not.",
    ),
    (
        "shell_planning",
        "Chain rules of 8/10/12 body literals plus a layered rule base: co_optimize is \
         over 80% of op time, execution ~2 ms; the mirror image of shell_recursive, \
         where a plan cache or enumerator change shows.",
    ),
    (
        "serve_commit",
        "One-edge commits on tc chains plus an untouched ballast of equal size, then \
         kill -9 and restart: apply_delta, WAL fsync, view publish, snapshots are the \
         whole cost; cost growing with the data shows.",
    ),
    (
        "serve_read",
        "Served relations read back while a writer commits one edge per 100 reads: \
         StateView::answers, JSON and the socket dominate; a read-path gain shows in \
         query_p50_ms, its upkeep in commit_p50_ms.",
    ),
];

pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let mut w = match name {
        "shell_recursive" => shell_recursive(seed),
        "shell_planning" => shell_planning(seed),
        "serve_commit" => serve(seed, false),
        "serve_read" => serve(seed, true),
        _ => return None,
    };
    annotate(&mut w);
    Some(w)
}

/// Fills in every query's expected answer by walking the op list once
/// over a scratch copy of the model, and checks that the list leaves
/// the base relations as it found them.
fn annotate(w: &mut Workload) {
    let mut model = w.model.clone();
    for op in &mut w.ops {
        match op {
            Op::Query { goal, expect, .. } => *expect = Expect::of_rows(&model.answer(goal)),
            Op::Commit { retract, insert } => model.apply(retract, insert),
        }
    }
    assert!(
        model.rels == w.model.rels,
        "{}: the op list must restore the base relations",
        w.name
    );
}

fn query(goal: Goal) -> Op {
    Op::Query {
        text: goal.text(),
        goal,
        expect: Expect::default(),
    }
}

fn goal2(pred: &str, a: Option<i64>, b: Option<i64>, derive: &Derive) -> Op {
    query(Goal {
        pred: pred.to_string(),
        args: vec![a, b],
        derive: derive.clone(),
    })
}

fn goal1(pred: &str, a: Option<i64>, derive: &Derive) -> Op {
    query(Goal {
        pred: pred.to_string(),
        args: vec![a],
        derive: derive.clone(),
    })
}

/// Disjoint chains: `count` chains of about `len` edges (lengths move
/// in opposite directions pairwise, so the total stays put). Returns the
/// node ranges `(first, last)` of each chain.
fn chains(
    rng: &mut Rng,
    prefix: &str,
    count: usize,
    len: usize,
    text: &mut String,
    model: &mut Model,
) -> Vec<(i64, i64)> {
    let e = format!("{prefix}e");
    let tc = format!("{prefix}tc");
    let mut ranges = Vec::new();
    let mut base = 0i64;
    let mut carry = 0i64;
    for c in 0..count {
        let this = if c % 2 == 0 {
            let l = rng.jitter(len) as i64;
            carry = len as i64 - l;
            l
        } else {
            len as i64 + carry
        };
        for i in 0..this {
            writeln!(text, "{e}({}, {}).", base + i, base + i + 1).unwrap();
            model.add(&e, vec![base + i, base + i + 1]);
        }
        ranges.push((base, base + this));
        base += this + 1;
    }
    writeln!(text, "{tc}(X, Y) <- {e}(X, Y).").unwrap();
    writeln!(text, "{tc}(X, Y) <- {e}(X, Z), {tc}(Z, Y).").unwrap();
    ranges
}

/// The edge in the middle of chain `c`, give or take three: every
/// commit that moves one does about the same maintenance work.
fn middle_edge(rng: &mut Rng, ranges: &[(i64, i64)], c: usize, e: &str) -> Fact {
    let (first, last) = ranges[c % ranges.len()];
    let k = (first + last) / 2 - 3 + rng.below(7) as i64;
    (e.to_string(), vec![k, k + 1])
}

/// Puts a block's goals in seeded order. The first block keeps the goal
/// at `main` (one of the workload's most common kind) in front: a
/// restarted shell is asked the op list's first goal, and what that
/// costs should not depend on the seed.
fn shuffle_block(rng: &mut Rng, goals: &mut [Op], block: usize, main: usize) {
    if block == 0 {
        goals.swap(0, main);
        rng.shuffle(&mut goals[1..]);
    } else {
        rng.shuffle(goals);
    }
}

/// Builds the commits of an op list. Each commit changes one fact and
/// undoes the previous commit's change in the same transaction, so all
/// commits do the same kind of work (a list that alternated retracts
/// and inserts would have two latency modes and a median that flips
/// between them), and exactly one change is outstanding at any time.
struct Commits {
    /// True: each commit inserts a fresh fact (and retracts the one the
    /// previous commit inserted). False: each commit retracts a present
    /// fact (and puts the previous one back).
    inserts: bool,
    outstanding: Option<Fact>,
}

impl Commits {
    /// A fact equal to the outstanding one would cancel inside the
    /// batch; generators draw again.
    fn is_outstanding(&self, fact: &Fact) -> bool {
        self.outstanding.as_ref() == Some(fact)
    }

    fn next(&mut self, fact: Fact) -> Op {
        let undo: Vec<Fact> = self.outstanding.replace(fact.clone()).into_iter().collect();
        if self.inserts {
            Op::Commit {
                retract: undo,
                insert: vec![fact],
            }
        } else {
            Op::Commit {
                retract: vec![fact],
                insert: undo,
            }
        }
    }

    /// The commit that closes the list: undoes the outstanding change.
    fn last(&mut self) -> Op {
        let undo: Vec<Fact> = self.outstanding.take().into_iter().collect();
        if self.inserts {
            Op::Commit {
                retract: undo,
                insert: vec![],
            }
        } else {
            Op::Commit {
                retract: vec![],
                insert: undo,
            }
        }
    }
}

struct RecursiveData {
    text: String,
    model: Model,
    chains: Vec<(i64, i64)>,
    leaves: Vec<i64>,
    parts: Vec<i64>,
    /// `contains` facts whose sub-part has no parts of its own.
    leaf_parts: Vec<Fact>,
    groups: usize,
    per_group: usize,
    hit: Derive,
    top: Derive,
}

/// tc chains + same-generation tree + bill-of-materials forest + the P3
/// range table, all under `prefix`.
fn recursive_data(rng: &mut Rng, prefix: &str) -> RecursiveData {
    let mut text = String::new();
    let mut model = Model::default();
    let chain_ranges = chains(rng, prefix, 10, 200, &mut text, &mut model);

    // Same generation: complete tree, branching 4, depth 3.
    let (up, dn, flat, sg) = (
        format!("{prefix}up"),
        format!("{prefix}dn"),
        format!("{prefix}flat"),
        format!("{prefix}sg"),
    );
    let mut next_id = 1i64;
    let mut level = vec![0i64];
    for _ in 0..3 {
        let mut below = Vec::new();
        for &parent in &level {
            for _ in 0..4 {
                let c = next_id;
                next_id += 1;
                writeln!(text, "{up}({c}, {parent}).").unwrap();
                writeln!(text, "{dn}({parent}, {c}).").unwrap();
                model.add(&up, vec![c, parent]);
                below.push(c);
            }
        }
        level = below;
    }
    let leaves = level;
    writeln!(text, "{flat}(0, 0).").unwrap();
    writeln!(text, "{sg}(X, Y) <- {flat}(X, Y).").unwrap();
    writeln!(
        text,
        "{sg}(X, Y) <- {up}(X, X1), {sg}(Y1, X1), {dn}(Y1, Y)."
    )
    .unwrap();

    // Bill of materials: a forest of assemblies, branching 3, depth 4.
    let (contains, uses) = (format!("{prefix}contains"), format!("{prefix}uses"));
    let roots = rng.jitter(20);
    let mut parts = Vec::new();
    let mut leaf_parts = Vec::new();
    let mut next_id = 0i64;
    for _ in 0..roots {
        let root = next_id;
        next_id += 1;
        let mut level = vec![root];
        for d in 0..4usize {
            let mut below = Vec::new();
            for &p in &level {
                parts.push(p);
                for b in 0..3usize {
                    let s = next_id;
                    next_id += 1;
                    let qty = 1 + ((d + b) % 4) as i64;
                    writeln!(text, "{contains}({p}, {s}, {qty}).").unwrap();
                    model.add(&contains, vec![p, s, qty]);
                    if d == 3 {
                        leaf_parts.push((contains.clone(), vec![p, s, qty]));
                    }
                    below.push(s);
                }
            }
            level = below;
        }
    }
    writeln!(text, "{uses}(P, S) <- {contains}(P, S, Q).").unwrap();
    writeln!(text, "{uses}(P, S) <- {contains}(P, M, Q), {uses}(M, S).").unwrap();

    // P3 range table: every key paired with every value.
    let (f, m, hit, top) = (
        format!("{prefix}f"),
        format!("{prefix}m"),
        format!("{prefix}hit"),
        format!("{prefix}top"),
    );
    let groups = 8usize;
    let per_group = rng.jitter(400);
    for k in 0..groups as i64 {
        for v in 0..per_group as i64 {
            writeln!(text, "{f}({k}, {v}).").unwrap();
            model.add(&f, vec![k, v]);
        }
    }
    writeln!(text, "{m}(0). {m}({}).", groups - 1).unwrap();
    model.add(&m, vec![0]);
    model.add(&m, vec![groups as i64 - 1]);
    let lo = (per_group / 2) as i64;
    let hi = lo + (per_group / 10) as i64;
    let thr = (per_group - per_group / 10) as i64;
    writeln!(
        text,
        "{hit}(K, V) <- {m}(K), {f}(K, V), V >= {lo}, V < {hi}."
    )
    .unwrap();
    writeln!(text, "{top}(V) <- {f}(K, V), V > {thr}.").unwrap();

    RecursiveData {
        text,
        model,
        chains: chain_ranges,
        leaves,
        parts,
        leaf_parts,
        groups,
        per_group,
        hit: Derive::RangeHit {
            m,
            f: f.clone(),
            lo,
            hi,
        },
        top: Derive::RangeTop { f, thr },
    }
}

fn shell_recursive(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    // The ballast replays the same random stream under another prefix.
    let ballast = recursive_data(&mut rng.clone(), "b_");
    let data = recursive_data(&mut rng, "");
    let tc = Derive::Closure { edge: "e".into() };
    let sg = Derive::SameGen { up: "up".into() };
    let uses = Derive::Closure {
        edge: "contains".into(),
    };
    // 50 blocks of 12 goals in seeded order, each closed by a commit.
    // Every goal kind has a narrow cost range, and the block is made so
    // that the median goal is one of the seven mid-chain tc goals and
    // the 95th percentile one of the chain-start ones; a median that
    // fell between two kinds would jump from run to run.
    let mut ops = Vec::new();
    let mut commits = Commits {
        inserts: false,
        outstanding: None,
    };
    for block in 0..50usize {
        let mut goals = Vec::new();
        // From the start of a chain: the whole chain is the answer.
        let (first, _) = *rng.pick(&data.chains);
        goals.push(goal2("tc", Some(first + rng.below(5) as i64), None, &tc));
        for _ in 0..7 {
            let (first, last) = *rng.pick(&data.chains);
            let mid = (first + last) / 2 - 5 + rng.below(11) as i64;
            goals.push(goal2("tc", Some(mid), None, &tc));
        }
        let (first, last) = *rng.pick(&data.chains);
        let a = first + rng.below((last - first) as usize) as i64;
        let b = a + 1 + rng.below((last - a) as usize) as i64;
        goals.push(if block % 2 == 0 {
            goal2("tc", None, Some(b), &tc)
        } else {
            goal2("tc", Some(a), Some(b), &tc)
        });
        goals.push(goal2("sg", Some(*rng.pick(&data.leaves)), None, &sg));
        goals.push(goal2("uses", Some(*rng.pick(&data.parts)), None, &uses));
        goals.push(match block % 4 {
            0 => goal2("hit", None, None, &data.hit),
            1 => goal1("top", None, &data.top),
            2 => goal2(
                "hit",
                Some(((data.groups - 1) * rng.below(2)) as i64),
                None,
                &data.hit,
            ),
            _ => {
                let v = data.per_group - 1 - rng.below(data.per_group / 10);
                goal1("top", Some(v as i64), &data.top)
            }
        });
        shuffle_block(&mut rng, &mut goals, block, 1);
        ops.extend(goals);
        // The commit takes a leaf part out of the bill of materials and
        // puts the previous one back: deliberately a cheap one, this
        // workload is about answering goals.
        let mut leaf = rng.pick(&data.leaf_parts).clone();
        while commits.is_outstanding(&leaf) {
            leaf = rng.pick(&data.leaf_parts).clone();
        }
        ops.push(commits.next(leaf));
    }
    ops.push(commits.last());
    let edges = data.model.rel("e").len();
    Workload {
        name: "shell_recursive",
        target: Target::Shell,
        core: data.text,
        ballast: ballast.text,
        model: data.model,
        closures: vec![],
        ops,
        warmup: 13,
        trace_ops: 104,
        two_connections: false,
        sizes: vec![
            ("tc_chains", data.chains.len()),
            ("tc_edges", edges),
            ("sg_leaves", data.leaves.len()),
            ("bom_parts", data.parts.len()),
            ("range_rows", data.groups * data.per_group),
        ],
    }
}

struct PlanningData {
    text: String,
    model: Model,
    /// Per chain rule: head predicate, body relation names, domain sizes.
    rules: Vec<(String, Vec<String>, Vec<usize>)>,
    layer_preds: Vec<(String, Derive)>,
    layer_max: usize,
}

/// Chain rules of 8/10/12 body literals over functional base relations
/// whose sizes span 10–1000 rows, plus a width-3 depth-4 layered rule
/// base. Relation `a_i` maps `[0, s_{i-1})` into `[0, s_i)`, so every
/// start value has exactly one path and no join blows up.
fn planning_data(rng: &mut Rng, prefix: &str) -> PlanningData {
    const SHAPES: [&[usize]; 3] = [
        &[180, 300, 400, 760, 300, 700, 12, 85, 770],
        &[24, 540, 60, 330, 14, 170, 77, 18, 880, 10, 350],
        &[14, 40, 160, 10, 226, 47, 41, 433, 91, 42, 91, 256, 13],
    ];
    let mut text = String::new();
    let mut model = Model::default();
    let mut rules = Vec::new();
    for shape in SHAPES {
        let n = shape.len() - 1;
        let head = format!("{prefix}q{n}");
        let sizes: Vec<usize> = shape.iter().map(|&s| rng.jitter(s).max(10)).collect();
        let rels: Vec<String> = (1..=n).map(|i| format!("{head}a{i}")).collect();
        let body: Vec<String> = (1..=n)
            .map(|i| format!("{}(X{}, X{i})", rels[i - 1], i - 1))
            .collect();
        writeln!(text, "{head}(X0, X{n}) <- {}.", body.join(", ")).unwrap();
        for i in 1..=n {
            let (dom, range) = (sizes[i - 1] as i64, sizes[i] as i64);
            let k = 1 + rng.below(6) as i64;
            let c = rng.below(range as usize) as i64;
            for x in 0..dom {
                let y = (x * k + c) % range;
                writeln!(text, "{}({x}, {y}).", rels[i - 1]).unwrap();
                model.add(&rels[i - 1], vec![x, y]);
            }
        }
        rules.push((head, rels, sizes));
    }

    let (width, depth) = (3usize, 4usize);
    let layer_max = rng.jitter(300);
    let bases: Vec<String> = (0..width).map(|w| format!("{prefix}base_{w}")).collect();
    let all = Derive::Intersect {
        rels: bases.clone(),
    };
    let layer = |d: usize, w: usize| format!("{prefix}p_{d}_{w}");
    let root = format!("{prefix}root");
    let body: Vec<String> = (0..width).map(|w| format!("{}(X)", layer(0, w))).collect();
    writeln!(text, "{root}(X) <- {}.", body.join(", ")).unwrap();
    let mut layer_preds = vec![(root, all.clone())];
    for d in 0..depth {
        for (w, base) in bases.iter().enumerate() {
            if d + 1 == depth {
                writeln!(text, "{}(X) <- {base}(X).", layer(d, w)).unwrap();
                layer_preds.push((
                    layer(d, w),
                    Derive::Intersect {
                        rels: vec![base.clone()],
                    },
                ));
            } else {
                let body: Vec<String> = (0..width)
                    .map(|w2| format!("{}(X)", layer(d + 1, w2)))
                    .collect();
                writeln!(text, "{}(X) <- {}.", layer(d, w), body.join(", ")).unwrap();
                layer_preds.push((layer(d, w), all.clone()));
            }
        }
    }
    for (w, base) in bases.iter().enumerate() {
        for x in (0..layer_max as i64).step_by(w + 1) {
            writeln!(text, "{base}({x}).").unwrap();
            model.add(base, vec![x]);
        }
    }
    PlanningData {
        text,
        model,
        rules,
        layer_preds,
        layer_max,
    }
}

fn shell_planning(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let ballast = planning_data(&mut rng.clone(), "b_");
    let data = planning_data(&mut rng, "");

    // 50 blocks of 8 goals, each closed by a commit: five goals on the
    // 10-literal rule (three of them bound-free, the others rotating
    // through the remaining adornments), one each on the 8- and the
    // 12-literal rule with the adornment rotating, one on the layered
    // rule base. The median goal is then a 10-literal one and the 95th
    // percentile the 12-literal one, each a narrow cost range.
    let mut ops = Vec::new();
    let mut commits = Commits {
        inserts: true,
        outstanding: None,
    };
    for block in 0..50usize {
        let mut goals = Vec::new();
        let rotating = [0usize, 2, 3][block % 3];
        for (ri, adornment) in [
            (1usize, 1usize),
            (1, 1),
            (1, 1),
            (1, rotating),
            (1, (rotating + 2) % 4),
            (0, block % 4),
            (2, (block + 1) % 4),
        ] {
            let (head, rels, sizes) = &data.rules[ri];
            let derive = Derive::Chain { rels: rels.clone() };
            // A start value and where its path ends: constants that
            // give a non-empty answer by construction.
            let x0 = rng.below(sizes[0]) as i64;
            let mut x = x0;
            for rel in rels {
                x = data
                    .model
                    .rel(rel)
                    .range(vec![x, i64::MIN]..)
                    .next()
                    .unwrap()[1];
            }
            let (a, b) = match adornment {
                0 => (None, None),
                1 => (Some(x0), None),
                2 => (None, Some(x)),
                _ => (Some(x0), Some(x)),
            };
            goals.push(goal2(head, a, b, &derive));
        }
        let (pred, derive) = rng.pick(&data.layer_preds);
        let c = if rng.below(2) == 0 {
            None
        } else {
            Some(6 * rng.below(data.layer_max / 6) as i64)
        };
        goals.push(goal1(pred, c, derive));
        shuffle_block(&mut rng, &mut goals, block, 0);
        ops.extend(goals);
        // A fresh start value for the first relation of a rule (the
        // derived head gains a row) or a dangling row in a later one
        // (it does not); the previous commit's row goes out again.
        let (_, rels, sizes) = &data.rules[block % 3];
        let i = if block % 2 == 0 {
            0
        } else {
            rng.below(rels.len())
        };
        let fresh = |rng: &mut Rng| {
            let row = vec![
                (sizes[i] + 1 + rng.below(50)) as i64,
                rng.below(sizes[i + 1]) as i64,
            ];
            (rels[i].clone(), row)
        };
        let mut fact = fresh(&mut rng);
        while commits.is_outstanding(&fact) {
            fact = fresh(&mut rng);
        }
        ops.push(commits.next(fact));
    }
    ops.push(commits.last());
    let base_rows = data.model.rels.values().map(BTreeSet::len).sum();
    Workload {
        name: "shell_planning",
        target: Target::Shell,
        core: data.text,
        ballast: ballast.text,
        model: data.model,
        closures: vec![],
        ops,
        warmup: 9,
        trace_ops: 135,
        two_connections: false,
        sizes: vec![("chain_rules", 3), ("base_rows", base_rows)],
    }
}

/// The two serve workloads share data: tc chains plus an equal-size
/// ballast pair (`b_e`, `b_tc`) no op touches.
fn serve(seed: u64, read: bool) -> Workload {
    let mut rng = Rng::new(seed);
    let mut ballast = String::new();
    let mut model = Model::default();
    chains(&mut rng.clone(), "b_", 24, 48, &mut ballast, &mut model);
    let mut core = String::new();
    let ranges = chains(&mut rng, "", 24, 48, &mut core, &mut model);
    let tc = Derive::Closure { edge: "e".into() };
    let edges = model.rel("e").len();
    let node = |rng: &mut Rng| {
        let (first, last) = *rng.pick(&ranges);
        first + rng.below((last - first + 1) as usize) as i64
    };

    let mut ops = Vec::new();
    let mut commits = Commits {
        inserts: false,
        outstanding: None,
    };
    let (warmup, trace_ops);
    if read {
        // 12 000 bound goals; the writer moves one edge every 100 reader
        // goals; one full dump of tc per 2 000 goals.
        for i in 0..12_000usize {
            let op = if i % 2_000 == 1_999 {
                goal2("tc", None, None, &tc)
            } else {
                match i % 3 {
                    0 => goal2("tc", Some(node(&mut rng)), None, &tc),
                    1 => goal2("tc", None, Some(node(&mut rng)), &tc),
                    _ => {
                        let (first, last) = *rng.pick(&ranges);
                        let a = first + rng.below((last - first) as usize) as i64;
                        let b = a + 1 + rng.below((last - a) as usize) as i64;
                        goal2("tc", Some(a), Some(b), &tc)
                    }
                }
            };
            ops.push(op);
            if i % 100 == 99 {
                ops.push(commits.next(middle_edge(&mut rng, &ranges, i / 100, "e")));
            }
        }
        warmup = 101;
        trace_ops = 2_020;
    } else {
        // Commits walking across the chains, each taking the middle
        // edge out of one chain and putting the previous chain's back,
        // each followed by a read-back of both edges.
        let mut previous: Option<Fact> = None;
        for i in 0..1_200usize {
            let edge = middle_edge(&mut rng, &ranges, i, "e");
            ops.push(commits.next(edge.clone()));
            for read in previous.iter().chain([&edge]) {
                ops.push(goal2("tc", Some(read.1[0]), Some(read.1[1]), &tc));
            }
            previous = Some(edge);
        }
        warmup = 8;
        trace_ops = 150;
    }
    ops.push(commits.last());
    Workload {
        name: if read { "serve_read" } else { "serve_commit" },
        target: Target::Serve,
        core,
        ballast,
        model,
        closures: vec![
            ("e".to_string(), "tc".to_string()),
            ("b_e".to_string(), "b_tc".to_string()),
        ],
        ops,
        warmup,
        trace_ops,
        two_connections: read,
        sizes: vec![("tc_chains", ranges.len()), ("tc_edges", edges)],
    }
}

/// `StateView::digest` predicted from the model: FNV-1a over predicate
/// name, arity and the sorted row texts of every relation, predicates
/// in name order.
pub fn predict_digest(model: &Model, closures: &[(String, String)]) -> u64 {
    let mut rels: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for (edge, closure) in closures {
        rels.insert(edge.clone(), model.rel(edge).iter().cloned().collect());
        rels.insert(closure.clone(), model.closure(edge));
    }
    // The service's own multiplier (one digit longer than the FNV
    // prime `fnv1a` uses); the prediction has to hash the way it does.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for (name, rows) in rels {
        eat(name.as_bytes());
        eat(&(rows.first().map_or(2, Vec::len) as u64).to_le_bytes());
        let mut lines: Vec<String> = rows.iter().map(|r| row_text(r)).collect();
        lines.sort_unstable();
        for line in lines {
            eat(line.as_bytes());
            eat(b"\n");
        }
    }
    h
}
