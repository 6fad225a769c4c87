#!/usr/bin/env bash
# Runs two sets of the same build — every workload once per seed in each set —
# and applies the driver's acceptance arithmetic: within each set, the
# interquartile spread of every end-to-end metric over the seeds, as a share
# of its median, must stay within the metric's bound (setup_s excepted);
# between the sets, no median may be worse than the other's by more than the
# bound. Counts that are exact per seed on the simulator must not differ
# between the sets at all.
#
#   perf/repeat.sh [--seeds N] [--seconds S] [--workload W]... [--quick]
#
# The default (10 seeds, 8 s) takes about 25 minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=10 seconds= quick=() workloads=()
while (($#)); do
  case $1 in
    --seeds) seeds=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --quick) quick=(--quick); shift ;;
    *) sed -n '2,13p' "$0" >&2; exit 2 ;;
  esac
done

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-perf/target}
cargo build --release --quiet --manifest-path perf/Cargo.toml
bin=$CARGO_TARGET_DIR/release/now-perf
((${#workloads[@]})) || mapfile -t workloads < <("$bin" --list | cut -f1)
if [[ -z $seconds ]]; then
  if ((${#quick[@]})); then seconds=1; else seconds=$("$bin" --benchmark-json | sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p'); fi
fi

dir=BENCH_artifacts/perf_repeat
rm -rf "$dir" && mkdir -p "$dir"
for set in A B; do
  for i in $(seq 1 "$seeds"); do
    for w in "${workloads[@]}"; do
      "$bin" --workload "$w" --seed $((i * 7919 + 13)) --seconds "$seconds" --trace 0 "${quick[@]}" \
        >"$dir/$w.$set.$i.json" 2>"$dir/$w.$set.$i.err" || { cat "$dir/$w.$set.$i.err" >&2; exit 1; }
    done
  done
done

status=0
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$seeds"); do
    if ! diff <(grep '^exact ' "$dir/$w.A.$i.err") <(grep '^exact ' "$dir/$w.B.$i.err") >/dev/null; then
      echo "exact counts of $w differ between the sets for seed index $i" >&2
      status=1
    fi
  done
done
"$bin" --analyze "$dir" || status=1
exit $status
