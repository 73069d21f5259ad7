#!/bin/bash
# Regenerate every figure capture from the release binaries.
#
# Usage: ./run_all.sh [out_dir]     (default: results/)
# SKIP="bin ..." leaves the named binaries out (check_results.sh skips
# the wall-clock ablation_directory this way).
set -x
OUT="${1:-results}"
B=./target/release
# binary:capture file
FIGS=(
  fig01_size_dist:fig01.txt
  fig06_single_node:fig06.txt
  fig07_cpu:fig07.txt
  fig08_sizes:fig08.txt
  fig09_scalability:fig09.txt
  fig10_lookup:fig10.txt
  fig11_disagg:fig11.txt
  fig12_tf:fig12.txt
  fig13_accuracy:fig13.txt
  ablation_batching:ablation_batching.txt
  ablation_directory:ablation_directory.txt
  ext_tfrecord_shuffle:ext_tfrecord.txt
  ext_octopus_cache:ext_octopus_cache.txt
  ext_latency:ext_latency.txt
  ext_mount_time:ext_mount_time.txt
)
for entry in "${FIGS[@]}"; do
  bin="${entry%%:*}"
  case " ${SKIP:-} " in *" $bin "*) continue ;; esac
  $B/$bin > "$OUT/${entry#*:}" 2>&1
done
echo ALL_DONE
