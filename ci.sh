#!/usr/bin/env bash
# CI gate for the DLFS reproduction.
#
#  1. tier-1: release build + the root test suite (ROADMAP.md);
#  2. the full workspace test suite (includes the deterministic chaos
#     tests in crates/core/tests/chaos.rs and crates/fabric/tests/faults.rs),
#     then the chaos / integrity / membership suites again under a second
#     seed (DLFS_TEST_SEED_OFFSET) so byte-correctness, determinism, and
#     the kill-one-target rebuild path are exercised on two timelines;
#  3. smoke runs: chaos sweep (fault injection + retry/failover plus the
#     replicated corruption grid: silent bit flips, sticky bad extents,
#     scrub + read-repair — all with built-in byte-correctness and
#     determinism assertions), cache ablation (cross-epoch residency +
#     prefetch), and the persistence paths (cold import vs warm remount,
#     checkpoint interference, fsck + replica repair);
#  4. calibration check: the real checksum and LZ decode kernels, timed
#     min-of-N, must cost at most 4x their charged DlfsCosts constants;
#  5. perf-trajectory gate: the pinned-seed perf_gate suite emits
#     BENCH_<rev>.json and fails on >10% regression against the
#     committed baseline (crates/bench/baseline/BENCH_baseline.json);
#  6. benchmark smoke: perfbench (its own package, built into
#     .bench_build) runs every workload of BENCHMARK.json at tiny size and
#     checks its metric catalogue, so a library change cannot silently
#     break the benchmark's build or metric names (perfbench/smoke.py);
#  7. figure outputs: every deterministic figure binary of run_all.sh
#     must reproduce its committed capture under results/ byte for byte
#     (check_results.sh);
#  8. rustfmt (check mode) and clippy, warnings denied, across every
#     target.
#
# Everything runs offline: the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt (check)"
cargo fmt --check
echo "== tier-1: release build"
cargo build --release --offline
echo "== tier-1: root test suite"
cargo test -q --offline
echo "== workspace tests"
cargo test -q --offline --workspace
echo "== chaos/integrity/membership under a second seed"
DLFS_TEST_SEED_OFFSET=1000 cargo test -q --offline -p dlfs \
  --test chaos --test integrity --test membership
echo "== chaos sweep (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_fault_sweep -- n=256 size=2048
echo "== cache ablation (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ablation_cache -- samples=1024 epochs=2
echo "== persistence: cold import vs warm remount (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_mount_time -- total_mb=32 max_nodes=4
echo "== persistence: checkpoint interference (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_checkpoint -- samples=512 appends=4
echo "== persistence: fsck demo + replica repair (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin dlfs_fsck -- nodes=2 samples=256 repair=1
echo "== rebuild after permanent target loss (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_rebuild -- n=512
echo "== storage-side offload + chunk compression (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_offload -- \
  samples=512 nodes=2 nics=0.8,6.8
echo "== sharded metadata + multi-tenant WFQ (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_multitenant -- \
  clients=256 count=8000
echo "== thousand-client metadata tier of fig09 (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin fig09_scalability -- \
  per_node=150 clients=1024
echo "== calibration: measured kernels vs charged constants"
cargo run -q --release --offline -p dlfs-bench --bin calibrate
echo "== perf-trajectory gate"
REV="$(git rev-parse --short HEAD 2>/dev/null || echo worktree)"
mkdir -p target/bench
cargo run -q --release --offline -p dlfs-bench --bin perf_gate -- \
  "rev=${REV}" out=target/bench \
  baseline=crates/bench/baseline/BENCH_baseline.json
echo "== benchmark smoke (every workload, tiny size)"
python3 perfbench/smoke.py
echo "== figure outputs byte-identical to results/"
./check_results.sh
echo "== clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "== ci OK"
