#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): release build + full test suite.
# CI and local pre-push both run exactly this script, so the gate cannot
# drift between the two.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The facade package's tests, including the loopback portfolio gate
# (auto selector vs every pinned arm, every reply's gap_ppm checked) in
# tests/serve.rs, and the cluster and sparse gates:
# - failover under a mid-load kill: tests/cluster.rs
#   killing_a_worker_mid_load_loses_no_requests;
# - kill-and-join churn: tests/cluster.rs
#   kill_and_join_replacement_serves_warm_keys_from_shipped_state (at
#   R = 3 the joiner recomputes nothing; at the default R = 2 it
#   recomputes less than a fresh service and answers some probes from
#   shipped state);
# - sparse differential and residency: tests/engine_diff.rs
#   rounded_instances_agree_across_engines_and_match_min_bins (peak
#   resident cells under 10 % of the dense table at k = 16, 60 % at
#   k = 8).
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
# the facade package's. The paged-store gates are unit tests of
# crates/pcmax-ptas/src/dp.rs: a table over the byte budget spills and
# faults (paged_engine_spills_and_faults_when_the_table_exceeds_the_budget),
# and the overlapped sweep is bit-identical and faults no more than the
# synchronous one
# (overlapped_paged_sweep_is_bit_identical_and_moves_faults_off_the_compute_path).
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

# Warmsync gauntlet: 64 seeds filtered to the warm-replication checks —
# shipped entries byte-identical through the wire round-trip (checksum
# re-verified), replica state byte-identical to the owner's, and the
# ranged pulls planned for a subset of the owner's keys returning
# exactly that subset.
./target/release/pcmax audit --seeds 64 --engine warmsync \
  --out target/AUDIT_warmsync.json
test -s target/AUDIT_warmsync.json

# Paged-engine audit sweep: the store + overlapped-sweep differential
# checks across 64 seeds (sync vs overlapped vs dense, fault
# accounting, packed widths), attributable in one line of CI output.
./target/release/pcmax audit --seeds 64 --engine paged \
  --out target/AUDIT_paged.json
test -s target/AUDIT_paged.json

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
# guarantee certificate re-proved in u128 (against the brute-force
# optimum for n ≤ 10).
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
