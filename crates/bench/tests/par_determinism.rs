//! The parallel sweep runner must be invisible in the output: a QUICK
//! sweep run with `NOW_JOBS=1` and one with `NOW_JOBS=8` must emit
//! byte-identical rendered tables, because results are collected by input
//! index and every sweep point is an independently seeded simulation. (The
//! sweep's wall-clock line is machine-dependent and deliberately lives
//! outside the experiment tables.)
//!
//! Everything lives in ONE `#[test]`: `NOW_JOBS` is process-global, and a
//! single test body keeps the env-var window race-free within this binary.

use isis_bench::experiments as ex;

fn suite() -> String {
    // A cross-section of the harness: plain sweeps (E1, E4), a pure
    // computation (E7), a two-rows-per-point app driver (E9), a cartesian
    // point list (E10), and the fixed partition scenarios.
    [
        ex::e1(true),
        ex::e4(true),
        ex::e7(true),
        ex::e9(true),
        ex::e10(true),
        ex::partitions(true),
    ]
    .iter()
    .map(|t| t.render())
    .collect()
}

#[test]
fn quick_sweep_is_byte_identical_at_any_job_count() {
    std::env::set_var("NOW_JOBS", "1");
    let serial = suite();
    std::env::set_var("NOW_JOBS", "8");
    let parallel = suite();
    std::env::remove_var("NOW_JOBS");
    assert_eq!(
        serial, parallel,
        "NOW_JOBS must never change what a sweep emits"
    );
}
