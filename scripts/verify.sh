#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): release build + full test suite.
# CI and local pre-push both run exactly this script, so the gate cannot
# drift between the two.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The facade package's tests, including the loopback portfolio gate
# (auto selector vs every pinned arm) and improver gate (improved vs
# unimproved mean gap_ppm) in tests/serve.rs.
cargo test -q
# Flake guard: the two loopback tests that assert cache counts under
# concurrent clients run 20 more times each, so a returning race fails
# here instead of once in 30 runs.
for name in concurrent_tcp_clients_get_valid_schedules \
  auto_portfolio_never_costs_more_than_the_worst_pinned_arm; do
  for _ in $(seq 20); do
    out=$(cargo test -q --test serve "$name" 2>&1) || { echo "$out"; exit 1; }
  done
done
# Every workspace crate's suites (unit, integration, proptests), not only
# the facade package's.
cargo test --workspace -q
# The one-thread path: pinned to one core, the rayon pool has no helper
# and every parallel call runs on its caller. The shim's tests and the
# DP engines must pass that way too.
if command -v taskset >/dev/null; then
  taskset -c 0 cargo test -q -p rayon -p pcmax-ptas
fi
# The paper ladder: the five dense engines must agree cell for cell on
# the σ 12960 table, and the anti-diagonal and sequential sweeps solve
# every table up to σ 403200 (3 timed solves each).
cargo run --release -q --example dp_engines -- 3
# Lints over every target (tests, benches, examples included): any
# warning fails the gate.
cargo clippy --workspace --all-targets -q -- -D warnings
# The benchmark package (solvebench/, outside the workspace) must still
# build and pass its tests against the current crates without rewriting
# its lockfile: this fails if a public API it calls changes or if
# solvebench/Cargo.lock would change.
cargo test --release --offline --locked -q --manifest-path solvebench/Cargo.toml
# Benchmark smoke: each solvebench workload once for 2 s. It fails
# unless the run exits 0 and its last line reports `"correct": true`, so
# a change that breaks a benchmark premise (a set-up that never
# finishes, a wrong answer) fails here.
for workload in dp-dense path-hot; do
  out=$(cargo run --release --offline --locked -q --manifest-path solvebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0) || {
    echo "$out"
    echo "solvebench $workload exited non-zero" >&2
    exit 1
  }
  if ! tail -n 1 <<<"$out" | grep -q '"correct": true'; then
    echo "$out"
    echo "solvebench $workload: the last line does not report a correct run" >&2
    exit 1
  fi
done

# Cluster smoke: a tiny sharded-serving workload through the real
# coordinator + loopback workers, with a mid-load kill to exercise
# failover. Fails if any request errors or the JSON report is missing.
./target/release/pcmax bench-cluster \
  --workers 2 --clients 2 --requests 4 --distinct 2 \
  --jobs 16 --machines 3 --kill-after 3 \
  --out target/BENCH_cluster_smoke.json
test -s target/BENCH_cluster_smoke.json

# Churn gate: the same tiny cluster with per-worker warm stores, one
# kill-and-join cycle, full replication (--replicas 3), fast heartbeats.
# After the join the replacement worker is probed directly with every
# distinct instance; with warmsync on its shipped warm state must answer
# strictly more cheaply than the warmsync-off baseline, and with full
# replication it must answer with zero recomputed probes. A third run at
# the default replication factor (R = 2) must also beat the baseline and
# answer some probes from shipped state.
./target/release/pcmax bench-cluster \
  --workers 3 --clients 2 --requests 8 --distinct 4 \
  --jobs 16 --machines 3 --churn 1 --replicas 3 \
  --heartbeat-ms 50 --max-missed 2 \
  --store-dir target/warmsync-churn-on \
  --out target/BENCH_cluster_churn_on.json
./target/release/pcmax bench-cluster \
  --workers 3 --clients 2 --requests 8 --distinct 4 \
  --jobs 16 --machines 3 --churn 1 \
  --heartbeat-ms 50 --max-missed 2 \
  --store-dir target/warmsync-churn-r2 \
  --out target/BENCH_cluster_churn_r2.json
./target/release/pcmax bench-cluster \
  --workers 3 --clients 2 --requests 8 --distinct 4 \
  --jobs 16 --machines 3 --churn 1 --warmsync off \
  --heartbeat-ms 50 --max-missed 2 \
  --store-dir target/warmsync-churn-off \
  --out target/BENCH_cluster_churn_off.json
rm -rf target/warmsync-churn-on target/warmsync-churn-r2 target/warmsync-churn-off
miss_on=$(grep -o '"cold_misses":[0-9]*' target/BENCH_cluster_churn_on.json | head -1 | cut -d: -f2)
miss_off=$(grep -o '"cold_misses":[0-9]*' target/BENCH_cluster_churn_off.json | head -1 | cut -d: -f2)
if [ "$miss_on" -ne 0 ]; then
  echo "churn gate: joiner recomputed $miss_on probes despite full replication" >&2
  exit 1
fi
if [ "$miss_on" -ge "$miss_off" ]; then
  echo "churn gate: $miss_on cold misses with warmsync on vs $miss_off off" >&2
  exit 1
fi
if ! grep -q '"rebalance_events":[1-9]' target/BENCH_cluster_churn_on.json; then
  echo "churn gate: no rebalance recorded on the warmsync-on run" >&2
  exit 1
fi
avoided=$(grep -o '"cold_misses_avoided":[0-9]*' target/BENCH_cluster_churn_on.json | head -1 | cut -d: -f2)
if [ "$avoided" -eq 0 ]; then
  echo "churn gate: joiner never answered a probe from shipped warm state" >&2
  exit 1
fi
miss_r2=$(grep -o '"cold_misses":[0-9]*' target/BENCH_cluster_churn_r2.json | head -1 | cut -d: -f2)
avoided_r2=$(grep -o '"cold_misses_avoided":[0-9]*' target/BENCH_cluster_churn_r2.json | head -1 | cut -d: -f2)
if [ "$miss_r2" -ge "$miss_off" ]; then
  echo "churn gate (R = 2): $miss_r2 cold misses with warmsync on vs $miss_off off" >&2
  exit 1
fi
if [ "$avoided_r2" -eq 0 ]; then
  echo "churn gate (R = 2): joiner never answered a probe from shipped warm state" >&2
  exit 1
fi

# Warmsync gauntlet: 64 seeds filtered to the warm-replication checks —
# shipped entries byte-identical through the wire round-trip (checksum
# re-verified), replica state byte-identical to the owner's, and the
# ranged pulls planned for a subset of the owner's keys returning
# exactly that subset.
./target/release/pcmax audit --seeds 64 --engine warmsync \
  --out target/AUDIT_warmsync.json
test -s target/AUDIT_warmsync.json

# Store smoke: one paged DP solve (k = 6 rounding, a 3072-cell table)
# through the tiered RAM/disk store under a 256-byte budget — far below
# the table size, so pages must demote to disk and fault back —
# differential-checked cell-for-cell against the in-RAM sequential
# engine. Exits non-zero on divergence.
./target/release/pcmax store-stats --k 6 --mem-budget 256 \
  > target/STORE_smoke.json
test -s target/STORE_smoke.json
grep -q '"differential":"ok"' target/STORE_smoke.json
if grep -q '"demotions":0,' target/STORE_smoke.json; then
  echo "store smoke never spilled" >&2
  exit 1
fi

# Overlap gate: the same k = 6 paged solve at a budget that spills
# (~1/4 of the packed table), once synchronous and once with the
# overlapped sweep (write-behind + staging-ring prefetch). Both must
# pass the cell-for-cell differential, and the overlapped run must not
# take more compute-path fault stalls than the synchronous one — the
# staging ring promotes through the ordinary install path, so each
# prefetch hit removes exactly one fault and can never add one.
./target/release/pcmax store-stats --k 6 --mem-budget 1536 --overlap off \
  > target/STORE_overlap_off.json
./target/release/pcmax store-stats --k 6 --mem-budget 1536 --overlap on \
  > target/STORE_overlap_on.json
grep -q '"differential":"ok"' target/STORE_overlap_off.json
grep -q '"differential":"ok"' target/STORE_overlap_on.json
faults_off=$(grep -o '"faults":[0-9]*' target/STORE_overlap_off.json | head -1 | cut -d: -f2)
faults_on=$(grep -o '"faults":[0-9]*' target/STORE_overlap_on.json | head -1 | cut -d: -f2)
if [ "$faults_on" -gt "$faults_off" ]; then
  echo "overlap gate: $faults_on fault stalls with overlap on vs $faults_off off" >&2
  exit 1
fi

# Paged-engine audit sweep: the store + overlapped-sweep differential
# checks across 64 seeds (sync vs overlapped vs dense, fault
# accounting, packed widths), attributable in one line of CI output.
./target/release/pcmax audit --seeds 64 --engine paged \
  --out target/AUDIT_paged.json
test -s target/AUDIT_paged.json

# Sparse smoke, two invocations gating tier-1:
# 1. The frontier-friendly default (k = 16, 12 jobs/machine on 48
#    machines): the dense table would spill under the 64 KiB budget,
#    the sparse frontier solves entirely in RAM, every retained cell is
#    differential-checked against the dense table, and the run exits
#    non-zero unless peak resident cells stay under 10% of the dense
#    cell count.
./target/release/pcmax bench-sparse --out target/BENCH_sparse.json
test -s target/BENCH_sparse.json
grep -q '"differential":"ok"' target/BENCH_sparse.json
grep -q '"spills":true' target/BENCH_sparse.json
# 2. A k = 8 instance whose dense table (596 bytes) exceeds the store
#    smoke's 256-byte budget — dense would have to page to disk, sparse
#    solves resident — held to the looser ratio this small box allows.
./target/release/pcmax bench-sparse --k 8 --machines 4 --jobs 24 \
  --mem-budget 256 --max-resident-pct 60 \
  --out target/BENCH_sparse_smoke.json
test -s target/BENCH_sparse_smoke.json
grep -q '"differential":"ok"' target/BENCH_sparse_smoke.json

# Overflow audit: the adversarial differential harness (engines,
# searches, the net-first serve solver, oracles, validation gate) across
# 256 seeds of u64-scale instances. Exits non-zero on any divergence;
# running it on the release build also exercises `overflow-checks =
# true` (see DESIGN.md §"Numeric ranges & overflow policy").
./target/release/pcmax audit --seeds 256 --out target/AUDIT.json
test -s target/AUDIT.json

# Sparse-only audit sweep: the same 64 seeds filtered to the sparse
# engine's differential checks (`--engine sparse`), so a sparse
# regression is attributable in one line of CI output.
./target/release/pcmax audit --seeds 64 --engine sparse \
  --out target/AUDIT_sparse.json
test -s target/AUDIT_sparse.json

# Portfolio gauntlet: the same 64 seeds filtered to the solver-portfolio
# checks — auto and every arm pinned (the ptas arm also under forced
# dense and sparse tables) on every adversarial case, with each answer's
# guarantee certificate re-proved in u128.
./target/release/pcmax audit --seeds 64 --engine portfolio \
  --out target/AUDIT_portfolio.json
test -s target/AUDIT_portfolio.json

# Improver gauntlet: the same 64 seeds filtered to the anytime-improver
# checks — the move/swap descent must never worsen a piled input, stay
# valid and above LB/OPT, keep the a-posteriori guarantee in u128, and
# rerun to the identical schedule on the same input.
./target/release/pcmax audit --seeds 64 --engine improve \
  --out target/AUDIT_improve.json
test -s target/AUDIT_improve.json
