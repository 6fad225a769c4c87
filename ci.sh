#!/usr/bin/env bash
# Tier-1 gate, runnable offline on any machine with a Rust toolchain:
#   1. release build of the whole workspace,
#   2. full test suite (includes detlint's self-check and its pin on the
#      clippy lint config, the determinism regression tests and the tracer
#      on/off byte-identity proof),
#   3. clippy over every target with warnings denied: besides the usual
#      lints this enforces determinism rules R1, R2, R5 and R9 (the
#      disallowed types and methods in clippy.toml and the per-crate
#      carve-outs under crates/{bench,apps,net}) and, through
#      [workspace.lints], R3's unwrap ban, `unsafe_code` and reasoned
#      `#[expect]`s only,
#   4. rustdoc over the workspace with warnings denied, so a deleted or
#      private item cannot leave a dangling intra-doc link,
#   5. monitor-armed quick experiment sweep: every experiment runs with the
#      online virtual-synchrony invariant monitors in panic mode, so any
#      violation anywhere in the stack fails the gate; its tables (everything
#      above the `sweep wall-clock` line) must match
#      tests/golden/experiments_quick.txt byte for byte,
#   6. monitor-armed full experiment sweep: the same, at full size, its
#      tables checked against experiments_full.txt,
#   7. the benchmark crate (`perf/`, a workspace of its own that path-depends
#      on these crates): its tests, then every workload in smoke mode —
#      gated on the output oracles only, never on its times,
#   8. trace demo + Chrome export artifacts (tracectl smoke test),
#   9. now-cluster loopback smoke: the real-socket backend boots an 8-process
#      hierarchy over unix sockets, then again over loopback TCP (`--tcp`),
#      replays short E1/E9 runs, and the merged trace must show zero
#      virtual-synchrony violations (non-zero exit otherwise),
#  10. chaos sweep: replay the shrunk-counterexample regression corpus, then
#      1000 generated adversarial scenarios (correlated crashes, partition
#      flaps, storms, rep-chain kills, crash-recover churn) with the
#      monitors — including VS-REJOIN — armed as oracles — any violation
#      fails the gate; its printed lines (all but the `census written to`
#      line, which names the file) must match
#      tests/golden/chaos_sweep_1000_seed1.txt byte for byte, and the
#      coverage census it writes to artifacts must be byte-identical
#      (`cmp`) to tests/golden/chaos_census_1000_seed1.json,
#  11. every example under examples/ (`cargo run --release --example`), its
#      stdout written to BENCH_artifacts/example_<name>.txt; a non-zero
#      exit (membership_churn asserts delivery) fails the gate,
#  12. the whole-workspace linter (detlint rules R3, R4, R6, R7).
# Fails on the first broken step or on any lint finding.
# Artifacts land in BENCH_artifacts/.
set -euo pipefail
cd "$(dirname "$0")"

mkdir -p BENCH_artifacts

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> QUICK=1 NOW_MONITORS=1 all_experiments (invariant monitors armed)"
QUICK=1 NOW_MONITORS=1 cargo run --quiet --release -p isis-bench --bin all_experiments \
    | tee BENCH_artifacts/experiments_quick.txt
echo "==> experiment tables vs tests/golden/experiments_quick.txt"
sed '/^sweep wall-clock/,$d' BENCH_artifacts/experiments_quick.txt \
    | diff -u tests/golden/experiments_quick.txt -

echo "==> NOW_MONITORS=1 all_experiments (full sweep, invariant monitors armed)"
NOW_MONITORS=1 cargo run --quiet --release -p isis-bench --bin all_experiments \
    | tee BENCH_artifacts/experiments_full.txt
echo "==> experiment tables vs experiments_full.txt"
diff -u <(sed '/^sweep wall-clock/,$d' experiments_full.txt) \
    <(sed '/^sweep wall-clock/,$d' BENCH_artifacts/experiments_full.txt)

echo "==> perf/: tests + every workload in smoke mode (output oracles only)"
# perf/ builds against these crates' public API but lives outside the
# workspace, so nothing above compiles it. run.sh exits non-zero when any
# workload reports "correct": false; its timings are never read here.
cargo test --release --quiet --manifest-path perf/Cargo.toml
perf/run.sh --quick

echo "==> trace demo + tracectl export"
cargo run --quiet --release -p isis-bench --bin trace_demo
cargo run --quiet --release -p now-trace --bin tracectl -- \
    BENCH_artifacts/trace_demo.trace --chrome BENCH_artifacts/trace_demo.json

echo "==> now-cluster loopback smoke (real sockets, monitors on merged trace)"
cargo run --quiet --release -p now-net --bin now-cluster -- smoke \
    | tee BENCH_artifacts/now_cluster_smoke.txt
cargo run --quiet --release -p now-net --bin now-cluster -- smoke --tcp \
    | tee BENCH_artifacts/now_cluster_smoke_tcp.txt

echo "==> chaos sweep (1000 adversarial scenarios, monitors armed)"
cargo run --quiet --release -p now-chaos --bin chaos_sweep -- \
    --scenarios 1000 --seed 1 --census BENCH_artifacts/chaos_census.json \
    | tee BENCH_artifacts/chaos_sweep.txt
echo "==> chaos lines vs tests/golden/chaos_sweep_1000_seed1.txt"
grep -v '^census written to ' BENCH_artifacts/chaos_sweep.txt \
    | diff -u tests/golden/chaos_sweep_1000_seed1.txt -
echo "==> chaos census vs tests/golden/chaos_census_1000_seed1.json"
cmp tests/golden/chaos_census_1000_seed1.json BENCH_artifacts/chaos_census.json

echo "==> examples (stdout to BENCH_artifacts/example_<name>.txt)"
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    echo "--> $name"
    cargo run --quiet --release --example "$name" > "BENCH_artifacts/example_$name.txt"
done

echo "==> cargo run -p detlint"
cargo run --quiet -p detlint

echo "==> ci: all green"
