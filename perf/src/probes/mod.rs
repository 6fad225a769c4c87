//! Per-layer probes: each times calls into one crate's public functions
//! with a trivial bench-owned layer above it, at a fixed size, and reports
//! numbers named `<layer>.<thing>.<unit>`. None is gated; they exist so a
//! move in an end-to-end metric can be pinned to a layer (README, "How the
//! metrics interact").
//!
//! Every probe takes a time slice and repeats its fixture until the slice
//! is spent (at least once), reporting the median repetition.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::median;

mod net;
mod observe;
mod protocol;
mod sim;

/// `(metric name, value)` pairs from one probe.
pub type Readings = Vec<(&'static str, f64)>;

/// Repeats `once` (which returns its own measured seconds) until `slice`
/// has passed; the median of what it returned.
pub fn median_over(slice: Duration, mut once: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = vec![once()];
    while started.elapsed() < slice {
        samples.push(once());
    }
    median(&samples)
}

/// Seconds `f` takes.
pub fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Nanoseconds per call of `f`, timed in batches of `batch` calls until
/// `slice` has passed (median batch).
pub fn ns_per_call(slice: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    median_over(slice, || {
        seconds(|| {
            for _ in 0..batch {
                f();
            }
        })
    }) * 1e9
        / f64::from(batch)
}

/// Runs every probe, sharing `seconds_total` among them.
pub fn run_all(seed: u64, seconds_total: f64) -> BTreeMap<&'static str, f64> {
    type Probe = fn(u64, Duration) -> Readings;
    // (probe, share of the budget). Fixtures that boot daemons or form
    // large groups get more than pure-function loops.
    const PROBES: [(Probe, f64); 21] = [
        (sim::engine, 2.0),
        (sim::multicast, 2.0),
        (sim::timers, 1.0),
        (sim::par, 4.0),
        (protocol::vclock, 1.0),
        (protocol::casts, 3.0),
        (protocol::view_changes, 3.0),
        (protocol::core_decay, 3.0),
        (protocol::hier_formation, 4.0),
        (protocol::hier_decay, 3.0),
        (protocol::requests, 4.0),
        (protocol::txn_under_crashes, 1.0),
        (net::codec, 2.0),
        (net::sockets, 3.0),
        (net::feed, 4.0),
        (net::feed_tcp, 2.0),
        (net::paced, 4.0),
        (observe::tracer, 1.0),
        (observe::monitors, 2.0),
        (observe::chaos_gen, 1.0),
        (observe::chaos_run, 2.0),
    ];
    let shares: f64 = PROBES.iter().map(|(_, s)| s).sum();
    let mut out = BTreeMap::new();
    for (probe, share) in PROBES {
        let slice = Duration::from_secs_f64(seconds_total * share / shares);
        for (name, value) in probe(seed, slice) {
            assert!(out.insert(name, value).is_none(), "{name} reported twice");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every per-layer name in the spec is produced by the traced pass or a
    /// probe, and nothing else is.
    #[test]
    fn probes_and_stages_cover_the_spec_exactly() {
        let mut names: Vec<&str> = run_all(1, 0.0).into_keys().collect();
        names.extend(crate::stage::metrics(&[], 1).into_keys());
        names.extend([
            "stage.max_fanout",
            "stage.sim_lat_p50_us",
            "stage.sim_lat_p99_us",
            "stage.op_p99_us",
            "alloc.count_per_op",
            "alloc.bytes_per_op",
            "host.peak_rss_mb",
            "trace.overhead_ratio",
        ]);
        names.sort_unstable();
        let mut spec: Vec<&str> = crate::spec::PER_LAYER.iter().map(|&(n, ..)| n).collect();
        spec.sort_unstable();
        assert_eq!(names, spec);
    }
}
