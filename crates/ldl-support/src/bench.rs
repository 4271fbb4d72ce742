//! Lightweight bench harness: warmup + N timed iterations per
//! benchmark, median/p95/min/mean reporting, and JSON output in the
//! repo's `BENCH_*.json` shape.
//!
//! Bench targets are plain `harness = false` binaries:
//!
//! ```no_run
//! use ldl_support::bench::Harness;
//!
//! fn main() {
//!     let mut h = Harness::new("search");
//!     h.set_iters(3, 15);
//!     h.bench("search", "dp/6", || 2 + 2);
//!     h.finish();
//! }
//! ```
//!
//! Environment overrides:
//! * `LDL_BENCH_ITERS` — measured iterations per benchmark (overrides
//!   every `set_iters`; use `LDL_BENCH_ITERS=1` for a smoke run);
//! * `LDL_BENCH_JSON_DIR` — directory for `BENCH_<name>.json` (unset:
//!   the current directory; `-` disables the file entirely).

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One benchmark's aggregated timings, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Record {
    /// Logical group (mirrors criterion's `benchmark_group`).
    pub group: String,
    /// Benchmark label within the group.
    pub label: String,
    /// Measured iterations.
    pub iters: u32,
    /// Median of per-iteration wall times.
    pub median_ns: u128,
    /// 95th percentile (nearest-rank).
    pub p95_ns: u128,
    /// Fastest iteration.
    pub min_ns: u128,
    /// Arithmetic mean.
    pub mean_ns: u128,
}

/// A bench run: collects [`Record`]s and writes `BENCH_<name>.json`.
pub struct Harness {
    name: String,
    warmup_iters: u32,
    measure_iters: u32,
    env_iters: Option<u32>,
    records: Vec<Record>,
}

impl Harness {
    /// New harness; `name` keys the JSON file (`BENCH_<name>.json`).
    pub fn new(name: &str) -> Harness {
        let env_iters = std::env::var("LDL_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok());
        println!("bench {name}");
        Harness {
            name: name.to_string(),
            warmup_iters: 3,
            measure_iters: 15,
            env_iters,
            records: Vec::new(),
        }
    }

    /// Sets warmup and measured iteration counts for subsequent
    /// [`Harness::bench`] calls (the `LDL_BENCH_ITERS` env var still
    /// wins for the measured count).
    pub fn set_iters(&mut self, warmup: u32, measure: u32) {
        self.warmup_iters = warmup;
        self.measure_iters = measure.max(1);
    }

    /// Times `f`: `warmup` untimed runs, then `measure` timed runs.
    /// The closure's result is passed through [`std::hint::black_box`]
    /// so the optimizer cannot delete the work.
    pub fn bench<T>(&mut self, group: &str, label: &str, mut f: impl FnMut() -> T) {
        let iters = self.env_iters.unwrap_or(self.measure_iters).max(1);
        for _ in 0..self.warmup_iters {
            std::hint::black_box(f());
        }
        let mut samples: Vec<u128> = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed();
            std::hint::black_box(out);
            samples.push(dt.as_nanos());
        }
        samples.sort_unstable();
        let n = samples.len();
        let median_ns = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2
        };
        let p95_ns = samples[((n * 95).div_ceil(100)).saturating_sub(1).min(n - 1)];
        let min_ns = samples[0];
        let mean_ns = samples.iter().sum::<u128>() / n as u128;
        println!(
            "  {group}/{label}: median {}  p95 {}  min {}  ({iters} iters)",
            fmt_ns(median_ns),
            fmt_ns(p95_ns),
            fmt_ns(min_ns),
        );
        self.records.push(Record {
            group: group.to_string(),
            label: label.to_string(),
            iters,
            median_ns,
            p95_ns,
            min_ns,
            mean_ns,
        });
    }

    /// The records collected so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The JSON document for this run.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"name\": {},", json::string(&self.name));
        let _ = writeln!(s, "  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"group\": {}, \"label\": {}, \"iters\": {}, \
                 \"median_ns\": {}, \"p95_ns\": {}, \"min_ns\": {}, \"mean_ns\": {}}}{comma}",
                json::string(&r.group),
                json::string(&r.label),
                r.iters,
                r.median_ns,
                r.p95_ns,
                r.min_ns,
                r.mean_ns,
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = write!(s, "}}");
        s
    }

    /// Writes `BENCH_<name>.json` (unless disabled) and prints where.
    pub fn finish(self) {
        let dir = std::env::var("LDL_BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
        if dir == "-" {
            return;
        }
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("could not create {dir}: {e}");
            return;
        }
        let path = format!("{dir}/BENCH_{}.json", self.name);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate_sanely() {
        let mut h = Harness::new("selftest");
        h.set_iters(0, 7);
        h.env_iters = None; // the test must not depend on the caller's env
        let mut x = 0u64;
        h.bench("g", "count", || {
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            x
        });
        let r = &h.records()[0];
        assert_eq!(r.iters, 7);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert!(r.mean_ns > 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut h = Harness::new("jsontest");
        h.set_iters(0, 3);
        h.env_iters = None;
        h.bench("grp", "lbl/1", || 1 + 1);
        let json = h.to_json();
        assert!(json.contains("\"name\": \"jsontest\""));
        assert!(json.contains("\"group\": \"grp\""));
        assert!(json.contains("\"label\": \"lbl/1\""));
        assert!(json.contains("\"median_ns\":"));
        assert!(json.contains("\"p95_ns\":"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }
}
