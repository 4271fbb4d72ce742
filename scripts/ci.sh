#!/usr/bin/env bash
# CI battery for the ldl-opt workspace. Exits nonzero on the first
# failure. Runs fully offline — the workspace has no external
# dependencies, so --offline only asserts that property.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release (tier-1)"
cargo build --release --offline

echo "==> cargo test -q (tier-1, root package)"
cargo test -q --offline

echo "==> cargo test --workspace (all crates: unit + integration + property)"
cargo test -q --offline --workspace

echo "==> cargo test --workspace under LDL_EVAL_THREADS=1 (forced-serial fixpoint)"
LDL_EVAL_THREADS=1 cargo test -q --offline --workspace

echo "==> cargo test --workspace under LDL_EVAL_THREADS=4 (forced-parallel fixpoint)"
LDL_EVAL_THREADS=4 cargo test -q --offline --workspace

echo "==> cargo build --workspace --all-targets (benches + experiment bins)"
cargo build --offline --workspace --all-targets

# Parallel fixpoint determinism: the scaling bench embeds a digest of
# the full evaluation result in every record label; the answer digests
# of a forced-serial and a forced-parallel run must be identical.
echo "==> parallel fixpoint answer-digest diff (LDL_EVAL_THREADS=1 vs 4)"
digest_dir="$(mktemp -d)"
trap 'rm -rf "$digest_dir"' EXIT
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/serial" \
    LDL_EVAL_THREADS=1 cargo bench -q --offline -p ldl-bench --bench parallel_fixpoint >/dev/null
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/parallel" \
    LDL_EVAL_THREADS=4 cargo bench -q --offline -p ldl-bench --bench parallel_fixpoint >/dev/null
for d in serial parallel; do
    grep -o 'digest=[0-9a-f]*' "$digest_dir/$d/BENCH_parallel_fixpoint.json" | sort -u \
        > "$digest_dir/$d.digests"
done
diff "$digest_dir/serial.digests" "$digest_dir/parallel.digests"
echo "    digests identical: $(wc -l < "$digest_dir/serial.digests") workload(s) × thread counts"

# Index-selection determinism: the index bench runs the recursive
# workloads under both access-path policies (ordered indexes, selected
# or built on demand / forced scans) and embeds the answer digest in
# every record label; one digest per workload means the indexes
# changed nothing but the access cost.
echo "==> index selection answer-digest diff (selected vs scan)"
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/idxsel" \
    cargo bench -q --offline -p ldl-bench --bench index_selection >/dev/null
workloads=$(grep -o '"group": *"[^"]*"' "$digest_dir/idxsel/BENCH_index_selection.json" \
    | sort -u | wc -l)
unique=$(grep -o 'digest=[0-9a-f]*' "$digest_dir/idxsel/BENCH_index_selection.json" \
    | sort -u | wc -l)
if [ "$unique" -ne "$workloads" ]; then
    echo "    FAIL: $unique distinct digests across $workloads workload(s)"
    exit 1
fi
echo "    digests identical: $workloads workload(s) × 2 access policies"

# Range-probe determinism: the range bench runs the selective-range
# workload under both access-path policies and embeds the answer
# digest in every record label; one digest per workload means folding
# bound inequalities into ordered range probes changed nothing but the
# rows enumerated (the bench itself asserts the row-count win).
echo "==> range probes answer-digest diff (selected vs scan)"
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/range" \
    cargo bench -q --offline -p ldl-bench --bench range_probes >/dev/null
workloads=$(grep -o '"group": *"[^"]*"' "$digest_dir/range/BENCH_range_probes.json" \
    | sort -u | wc -l)
unique=$(grep -o 'digest=[0-9a-f]*' "$digest_dir/range/BENCH_range_probes.json" \
    | sort -u | wc -l)
if [ "$unique" -ne "$workloads" ]; then
    echo "    FAIL: $unique distinct digests across $workloads workload(s)"
    exit 1
fi
echo "    digests identical: $workloads workload(s) × 2 access policies"

# Incremental-maintenance determinism: the update-stream bench drives a
# state-restoring retract/insert cycle through Engine::apply_delta and
# embeds a digest of the derived relations in both the maintained and
# the from-scratch record labels; one digest per workload means
# maintenance repaired the state bit-for-bit (the bench itself asserts
# the rows_enumerated win). The IVM differential tests also run under
# the LDL_EVAL_THREADS=1 and =4 workspace passes above.
echo "==> ivm stream answer-digest diff (maintained vs from-scratch)"
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/ivm" \
    cargo bench -q --offline -p ldl-bench --bench ivm_stream >/dev/null
workloads=$(grep -o '"group": *"[^"]*"' "$digest_dir/ivm/BENCH_ivm_stream.json" \
    | sort -u | wc -l)
unique=$(grep -o 'digest=[0-9a-f]*' "$digest_dir/ivm/BENCH_ivm_stream.json" \
    | sort -u | wc -l)
if [ "$unique" -ne "$workloads" ]; then
    echo "    FAIL: $unique distinct digests across $workloads workload(s)"
    exit 1
fi
echo "    digests identical: $workloads workload(s) × {maintained, from-scratch}"

# Service durability smoke: start ldl-serve on a scratch Unix socket,
# drive a full session from ldl-shell client mode (load rules, commit a
# batch, query, digest), kill the daemon without ceremony, restart it
# over the same data directory, and require the recovered digest to be
# bit-for-bit the one the live session reported. Both sessions ask a
# partially bound goal (the daemon's ordered-index probe), a fully bound
# present one and a fully bound absent one (its membership lookup), and
# the recovered answers must equal the live ones. The commit/query
# throughput bench embeds the same digest before and after its streamed
# commits, so its single-digest check rides the same gate.
echo "==> ldl-serve durability smoke (commit, kill, recover, digest diff)"
cargo build -q --offline --bin ldl-serve --bin ldl-shell
serve_dir="$digest_dir/serve"
serve_sock="$serve_dir/ldl.sock"
mkdir -p "$serve_dir"
./target/debug/ldl-serve --data "$serve_dir/data" --socket "$serve_sock" \
    --snapshot-every 2 > "$serve_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do [ -S "$serve_sock" ] && break; sleep 0.1; done
[ -S "$serve_sock" ] || { echo "    FAIL: daemon never bound $serve_sock"; exit 1; }
./target/debug/ldl-shell --connect "$serve_sock" > "$serve_dir/session1.log" <<'EOF'
tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).
:insert e(1, 2). e(2, 3). e(3, 4).
:commit
tc(1, Y)?
tc(1, 4)?
tc(4, 1)?
:digest
:quit
EOF
grep -q "3 answer(s)" "$serve_dir/session1.log" \
    || { echo "    FAIL: live query wrong"; cat "$serve_dir/session1.log"; exit 1; }
kill -9 "$serve_pid"; wait "$serve_pid" 2>/dev/null || true
# The socket file survives the SIGKILL; drop it so the bind wait below
# sees the restarted daemon, not the corpse's socket.
rm -f "$serve_sock"
./target/debug/ldl-serve --data "$serve_dir/data" --socket "$serve_sock" \
    --snapshot-every 2 >> "$serve_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do [ -S "$serve_sock" ] && break; sleep 0.1; done
./target/debug/ldl-shell --connect "$serve_sock" > "$serve_dir/session2.log" <<'EOF'
tc(1, Y)?
tc(1, 4)?
tc(4, 1)?
:digest
:shutdown
EOF
wait "$serve_pid" 2>/dev/null || true
grep -q "3 answer(s)" "$serve_dir/session2.log" \
    || { echo "    FAIL: recovered query wrong"; cat "$serve_dir/session2.log"; exit 1; }
for s in 1 2; do
    grep -o 'digest [0-9a-f]*' "$serve_dir/session$s.log" > "$serve_dir/digest$s" \
        || { echo "    FAIL: no digest in session $s"; exit 1; }
done
diff "$serve_dir/digest1" "$serve_dir/digest2" \
    || { echo "    FAIL: recovered digest differs from the live session"; exit 1; }
for s in 1 2; do
    sed 's/^ldl> //' "$serve_dir/session$s.log" | grep -E '^(tc\(|[0-9]+ answer)' \
        > "$serve_dir/answers$s"
done
grep -qx "1 answer(s)" "$serve_dir/answers1" && grep -qx "0 answer(s)" "$serve_dir/answers1" \
    || { echo "    FAIL: live bound goals wrong"; cat "$serve_dir/answers1"; exit 1; }
diff "$serve_dir/answers1" "$serve_dir/answers2" \
    || { echo "    FAIL: recovered answers differ from the live session"; exit 1; }
echo "    recovered answers match: $(wc -l < "$serve_dir/answers1") line(s)"
echo "    recovered digest matches: $(cat "$serve_dir/digest1")"

echo "==> serve stream commit/query digest diff (before vs after streamed commits)"
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/serve-bench" \
    cargo bench -q --offline -p ldl-bench --bench serve_stream >/dev/null
unique=$(grep -o 'digest=[0-9a-f]*' "$digest_dir/serve-bench/BENCH_serve_stream.json" \
    | sort -u | wc -l)
if [ "$unique" -ne 1 ]; then
    echo "    FAIL: $unique distinct digests across the streamed-commit bench"
    exit 1
fi
echo "    digests identical: streamed commits restore the starting state"

# Replication smoke: a primary and a --replica-of daemon on scratch
# Unix sockets. Commits land on the primary (some before the replica
# exists — the bootstrap path; some after — the streaming path), the
# replica's :stats line is polled to zero lag, and the two :digest
# outputs must match bit for bit. Then the primary dies by SIGKILL and
# the replica must keep answering reads.
echo "==> ldl-serve replication smoke (bootstrap, stream, lag 0, primary death)"
repl_dir="$digest_dir/repl"
prim_sock="$repl_dir/primary.sock"
repl_sock="$repl_dir/replica.sock"
mkdir -p "$repl_dir"
./target/debug/ldl-serve --data "$repl_dir/primary" --socket "$prim_sock" \
    > "$repl_dir/primary.log" &
prim_pid=$!
for _ in $(seq 50); do [ -S "$prim_sock" ] && break; sleep 0.1; done
[ -S "$prim_sock" ] || { echo "    FAIL: primary never bound $prim_sock"; exit 1; }
./target/debug/ldl-shell --connect "$prim_sock" > "$repl_dir/seed.log" <<'EOF'
tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).
:insert e(1, 2). e(2, 3).
:commit
:quit
EOF
./target/debug/ldl-serve --data "$repl_dir/replica" --socket "$repl_sock" \
    --replica-of "$prim_sock" > "$repl_dir/replica.log" &
repl_pid=$!
for _ in $(seq 50); do [ -S "$repl_sock" ] && break; sleep 0.1; done
[ -S "$repl_sock" ] || { echo "    FAIL: replica never bound $repl_sock"; exit 1; }
./target/debug/ldl-shell --connect "$prim_sock" > "$repl_dir/primary2.log" <<'EOF'
:insert e(3, 4). e(4, 5). e(5, 6).
:commit
:digest
:quit
EOF
for _ in $(seq 100); do
    ./target/debug/ldl-shell --connect "$repl_sock" > "$repl_dir/stats.log" <<'EOF'
:stats
:quit
EOF
    grep -q "lag 0 version" "$repl_dir/stats.log" && break
    sleep 0.1
done
grep -q "lag 0 version" "$repl_dir/stats.log" \
    || { echo "    FAIL: replica never reached zero lag"; cat "$repl_dir/stats.log"; exit 1; }
./target/debug/ldl-shell --connect "$repl_sock" > "$repl_dir/replica-read.log" <<'EOF'
tc(1, Y)?
:digest
:insert e(99, 100).
:commit
:quit
EOF
grep -q "5 answer(s)" "$repl_dir/replica-read.log" \
    || { echo "    FAIL: replica query wrong"; cat "$repl_dir/replica-read.log"; exit 1; }
grep -q "read-only replica" "$repl_dir/replica-read.log" \
    || { echo "    FAIL: replica accepted a write"; cat "$repl_dir/replica-read.log"; exit 1; }
grep -o 'digest [0-9a-f]*' "$repl_dir/primary2.log" > "$repl_dir/digest-primary" \
    || { echo "    FAIL: no digest from the primary"; exit 1; }
grep -o 'digest [0-9a-f]*' "$repl_dir/replica-read.log" > "$repl_dir/digest-replica" \
    || { echo "    FAIL: no digest from the replica"; exit 1; }
diff "$repl_dir/digest-primary" "$repl_dir/digest-replica" \
    || { echo "    FAIL: replica digest differs from the primary"; exit 1; }
kill -9 "$prim_pid"; wait "$prim_pid" 2>/dev/null || true
./target/debug/ldl-shell --connect "$repl_sock" > "$repl_dir/replica-orphan.log" <<'EOF'
tc(1, Y)?
:shutdown
EOF
wait "$repl_pid" 2>/dev/null || true
grep -q "5 answer(s)" "$repl_dir/replica-orphan.log" \
    || { echo "    FAIL: replica stopped serving after the primary died"; \
         cat "$repl_dir/replica-orphan.log"; exit 1; }
echo "    replica converged: $(cat "$repl_dir/digest-replica"); reads survive primary death"

# End-to-end benchmark smoke: bench/smoke.sh builds the release
# ldl-shell / ldl-serve and the driver, runs all four workloads for 3 s
# each against the real binaries — every reply checked against the
# driver's own reference — and diffs BENCHMARK.json against the
# driver's metric tables. Non-zero on any failed or mismatching op, or
# on drift. (The driver is a package of its own with a committed lock
# file; cargo refreshes bench/Cargo.lock in place when a crate's
# dependency list has moved since it was written.)
echo "==> end-to-end benchmark smoke (bench/smoke.sh: 4 workloads, BENCHMARK.json drift)"
bench/smoke.sh > "$digest_dir/bench-smoke.log" 2>&1 \
    || { echo "    FAIL: bench smoke"; tail -n 40 "$digest_dir/bench-smoke.log"; exit 1; }
echo "    $(grep -c '"correct": true' "$digest_dir/bench-smoke.log") workload(s) correct, 0 failed ops; BENCHMARK.json matches the driver"

# Golden-diagnostics gate: `ldl-shell --check --json` over every example
# program must reproduce the checked-in diagnostics bit for bit (stable
# codes, spans, messages). `--check` exits non-zero on files with
# error-severity findings — that's expected for the unsafe examples, so
# only the diff decides.
echo "==> ldl-shell --check golden diagnostics over examples/*.ldl"
cargo build -q --offline --bin ldl-shell
for f in examples/*.ldl; do
    b="$(basename "$f" .ldl)"
    ./target/debug/ldl-shell --check --json "$f" > "$digest_dir/$b.json" || true
    diff "examples/golden/$b.json" "$digest_dir/$b.json" \
        || { echo "    FAIL: diagnostics for $f diverge from examples/golden/$b.json"; exit 1; }
done
echo "    $(ls examples/*.ldl | wc -l) example file(s) match their golden diagnostics"

# Estimate-quality gate: the absint_estimates bench asserts (in-process)
# that the inferred catalog's answer-count error is never worse than the
# uniform default on any workload and strictly better on at least one;
# the record labels carry per-workload errors and answer digests.
echo "==> inferred-estimate quality gate (absint_estimates)"
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/absint" \
    cargo bench -q --offline -p ldl-bench --bench absint_estimates >/dev/null
echo "    $(grep -o 'improved=[0-9]*/[0-9]*' "$digest_dir/absint/BENCH_absint_estimates.json") workload(s) improved, rest unchanged"

# Plan-enumeration gate: the E3-successor bench optimizes wide chain
# rules with the memoized enumerator and embeds the chosen plan's cost
# digest plus a pruned=yes|no flag (explored prefixes < n!) in every
# label. At n=6 the exhaustive strategy runs too: the memo digest must
# match brute force bit for bit (the bench-level echo of the oracle
# test), and at n >= 10 the memo must explore strictly fewer plans
# than n! — a pruned=no there means memoization stopped working.
echo "==> plan enumeration gate (memo digest vs brute force; pruning at n >= 10)"
LDL_BENCH_ITERS=1 LDL_BENCH_JSON_DIR="$digest_dir/planenum" \
    cargo bench -q --offline -p ldl-bench --bench plan_enum >/dev/null
planenum_json="$digest_dir/planenum/BENCH_plan_enum.json"
memo6=$(grep '"group": "plan-enum-memo"' "$planenum_json" | grep '"label": "n=6 ' \
    | grep -o 'digest=[0-9a-f]*')
exh6=$(grep '"group": "plan-enum-exhaustive"' "$planenum_json" | grep -o 'digest=[0-9a-f]*')
[ -n "$memo6" ] && [ "$memo6" = "$exh6" ] \
    || { echo "    FAIL: memo digest $memo6 != exhaustive digest $exh6 at n=6"; exit 1; }
if grep '"group": "plan-enum-memo"' "$planenum_json" | grep -E '"label": "n=(1[0-9]) ' \
    | grep -q 'pruned=no'; then
    echo "    FAIL: memo explored >= n! plans at n >= 10"
    exit 1
fi
echo "    memo digest matches brute force at n=6; pruning holds at n >= 10"

echo "==> cargo clippy --workspace --all-targets"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Informational: the simplicity numbers (code lines per crate cut at the
# first #[cfg(test)], public config fields). Nothing gates on them.
echo "==> scripts/loc.sh (informational)"
scripts/loc.sh

echo "CI battery passed."
