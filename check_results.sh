#!/usr/bin/env bash
# Figure-output check: rerun every deterministic figure binary through
# run_all.sh (the one list of binaries and captures) into a scratch
# directory and require each output to match the committed capture under
# results/ byte for byte. The harnesses are seed-deterministic simulations,
# so any difference is a behaviour change (virtual time, delivery order or
# telemetry) that must be explained and re-captured on purpose.
#
# Skipped: ablation_directory, which reports wall-clock lookup timings and
# differs on every run.
#
# Usage: ./check_results.sh   (builds the release binaries first)
set -euo pipefail
cd "$(dirname "$0")"

cargo build -q --release --offline -p dlfs-bench
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
SKIP=ablation_directory bash run_all.sh "$OUT" >/dev/null 2>&1

failed=0
n=0
for out in "$OUT"/*; do
  file="$(basename "$out")"
  n=$((n + 1))
  if cmp -s "$out" "results/$file"; then
    echo "ok      $file"
  else
    echo "DIFFERS results/$file"
    diff "results/$file" "$out" | head -20 || true
    failed=1
  fi
done
if [ "$failed" -ne 0 ]; then
  echo "figure outputs diverged from results/"
  exit 1
fi
echo "all $n figure outputs match results/"
