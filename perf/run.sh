#!/usr/bin/env bash
# The benchmark's one command: builds release, runs each workload in its own
# process (so host.peak_rss_mb is per workload), checks outputs, prints one JSON
# result line per run and keeps it in BENCH_artifacts/.
#
#   perf/run.sh [--seed S] [--workload W]... [--all] [--traced] [--quick] [--seconds N]
#
# --all (the default) runs the seven workloads; --traced adds a second run of
# each with tracers attached and the per-layer probes; --quick is the smoke
# mode: every workload at a tenth of its size or less, one second each.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1 traced=0 quick=() seconds= workloads=()
while (($#)); do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --all) workloads=(); shift ;;
    --traced) traced=1; shift ;;
    --quick) quick=(--quick); shift ;;
    --seconds) seconds=$2; shift 2 ;;
    *) sed -n '2,10p' "$0" >&2; exit 2 ;;
  esac
done

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-perf/target}
cargo build --release --quiet --manifest-path perf/Cargo.toml
bin=$CARGO_TARGET_DIR/release/now-perf
((${#workloads[@]})) || mapfile -t workloads < <("$bin" --list | cut -f1)
if [[ -z $seconds ]]; then
  if ((${#quick[@]})); then seconds=1; else seconds=$("$bin" --benchmark-json | sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p'); fi
fi

mkdir -p BENCH_artifacts
# What the numbers were taken on: they compare only with numbers from the
# same box, build and core count.
printf '{"nproc": %s, "commit": "%s", "rustc": "%s", "seed": %s, "seconds": %s, "quick": %s}\n' \
  "$(nproc)" "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" "$(rustc --version)" \
  "$seed" "$seconds" "$( ((${#quick[@]})) && echo true || echo false)" | tee BENCH_artifacts/perf_env.json

status=0
for w in "${workloads[@]}"; do
  for trace in $(seq 0 "$traced"); do
    out=BENCH_artifacts/perf_$w.json
    ((trace)) && out=BENCH_artifacts/perf_${w}_traced.json
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${quick[@]}" | tee "$out" || status=1
  done
done
exit $status
