//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is this table rendered by `now-perf --benchmark-json`; a test keeps the
//! two equal.

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "sim-formation",
        "members join a 3/8 hierarchy on an ideal net: the membership write path (join, flush, state transfer, leader admit/split) does the work, the tree data path none",
    ),
    (
        "sim-lbcast",
        "tree broadcasts from rotating origins through a formed hierarchy, quiet config, ideal net: engine loop and tree stages dominate, membership and maintenance idle",
    ),
    (
        "sim-trading-hier",
        "trading floor over the hierarchy with the default config (heartbeats, stability, FD) on a LAN: maintenance traffic and history-dependent cost show; sim-lbcast is its bypass",
    ),
    (
        "sim-trading-flat",
        "trading floor as one flat quiet group: wide vector clocks and all-to-all fan-out in isis-core do the work, isis-hier is bypassed entirely",
    ),
    (
        "sim-factory",
        "work cells run two-phase transactions over a leaf-partitioned inventory: the request/transaction use of the stack beside the broadcast use, so a gain for casts that costs requests shows",
    ),
    (
        "chaos-sweep",
        "generated fault scenarios on tiny clusters with every monitor armed: fault path, timers and now-trace monitors dominate; the one workload where observer cost is gated",
    ),
    (
        "sock-feed",
        "closed-loop quote feed (window 4) through 2 daemons on unix sockets, default config: the only workload that crosses the Wire codec, socket threads and the kernel",
    ),
];

/// `(name, unit, better, bound)`. Every workload reports every one.
///
/// The host-time bounds are as wide as the contract allows because this
/// box needs it: over ten back-to-back runs the whole machine drifts through
/// phases 15-20 % apart (every workload slows together), which puts the
/// interquartile spread of a sound metric anywhere from 4 % to 20 % of its
/// median. Counts that do not depend on host time keep a tight bound.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("msgs_per_s", "1/s", "higher", 0.25),
    ("msgs_per_op", "count", "lower", 0.05),
    ("lat_p50_us", "us", "lower", 0.25),
    ("lat_p90_us", "us", "lower", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.25),
];

/// `(name, unit, better)`. None is gated. The first block comes from the
/// traced pass of the workload being run; the rest are fixed-size probes of
/// one layer each and do not depend on the workload.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("alloc.count_per_op", "count", "lower"),
    ("alloc.bytes_per_op", "B", "lower"),
    ("host.peak_rss_mb", "MB", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.events_per_op", "count", "lower"),
    ("stage.netsend_per_op", "count", "lower"),
    ("stage.timerfire_per_op", "count", "lower"),
    ("stage.max_fanout", "count", "lower"),
    ("stage.sim_lat_p50_us", "us", "lower"),
    ("stage.sim_lat_p99_us", "us", "lower"),
    ("stage.op_p99_us", "us", "lower"),
    ("stage.net.hop_us_p50", "us", "lower"),
    ("stage.flush.begin_to_install_us_p50", "us", "lower"),
    ("stage.lbcast.submit_to_first_deliver_us", "us", "lower"),
    ("stage.lbcast.first_to_last_deliver_us", "us", "lower"),
    ("stage.leafcast.send_to_deliver_us_p50", "us", "lower"),
    ("sim.engine.ns_per_event", "ns", "lower"),
    ("sim.engine.allocs_per_event", "count", "lower"),
    ("sim.multicast.ns_per_copy", "ns", "lower"),
    ("sim.timer.ns_per_fire", "ns", "lower"),
    ("sim.net.ns_per_route_lan", "ns", "lower"),
    ("sim.par.speedup_j2", "ratio", "higher"),
    ("core.vclock.ns_per_merge_n16", "ns", "lower"),
    ("core.vclock.ns_per_deliverable_n1000", "ns", "lower"),
    ("core.cbcast.ns_per_delivery_n64", "ns", "lower"),
    ("core.abcast.ns_per_delivery_n64", "ns", "lower"),
    ("core.flush.host_us_per_view_change_n64", "us", "lower"),
    ("core.flush.msgs_per_view_change_n64", "count", "lower"),
    ("core.join.host_us_per_join_n64", "us", "lower"),
    ("core.live.decay_ratio", "ratio", "lower"),
    ("hier.join.host_us_per_join_n256", "us", "lower"),
    ("hier.join.host_us_per_join_n1024", "us", "lower"),
    ("hier.join.msgs_per_join", "count", "lower"),
    ("hier.leader.view_bytes", "B", "lower"),
    ("hier.member.view_bytes", "B", "lower"),
    ("hier.tree.msgs_per_lbcast", "count", "lower"),
    ("hier.tree.max_dests", "count", "lower"),
    ("hier.live.decay_ratio", "ratio", "lower"),
    ("toolkit.flat_request.host_us_n64", "us", "lower"),
    ("toolkit.flat_request.msgs_n64", "count", "lower"),
    ("toolkit.hier_request.host_us_n512", "us", "lower"),
    ("toolkit.hier_request.msgs_n512", "count", "lower"),
    ("toolkit.txn.abort_ratio_crash3", "ratio", "lower"),
    ("toolkit.txn.unresolved_ratio_crash3", "ratio", "lower"),
    ("net.wire.encode_ns", "ns", "lower"),
    ("net.wire.decode_ns", "ns", "lower"),
    ("net.wire.bytes_per_cast", "B", "lower"),
    ("net.frame.encode_ns", "ns", "lower"),
    ("net.frame.decode_ns", "ns", "lower"),
    ("net.framebuf.ns_per_frame_chunked", "ns", "lower"),
    ("net.socket.rtt_us_unix", "us", "lower"),
    ("net.socket.rtt_us_tcp", "us", "lower"),
    ("net.daemon.local_ns_per_msg", "ns", "lower"),
    ("net.msgs_per_quote", "count", "lower"),
    ("net.tcp.deliveries_per_s", "1/s", "higher"),
    ("net.paced200.lat_p50_us", "us", "lower"),
    ("net.paced200.lat_p99_us", "us", "lower"),
    ("net.paced200.gen_late_max_us", "us", "lower"),
    ("net.live.decay_ratio", "ratio", "lower"),
    ("trace.record.ns_per_event", "ns", "lower"),
    ("trace.monitor.ns_per_event", "ns", "lower"),
    ("chaos.gen.us_per_scenario", "us", "lower"),
    ("chaos.run.us_per_scenario", "us", "lower"),
    ("chaos.events_per_scenario", "count", "lower"),
];

/// Unit of a metric by name, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// Regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<(f64, bool)> {
    END_TO_END
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, _, better, b)| (b, better == "higher"))
}

/// How the driver starts one run; it appends `--workload <name> --seed <n>
/// --seconds <s> --trace <0|1>`. `cargo run` builds the package on first
/// use (into `CARGO_TARGET_DIR`) and fails, printing nothing on standard
/// output, where the crates it measures are missing.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perf"];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use crate::json::{render, Json};
    let s = |t: &str| Json::Str(t.to_string());
    let obj = |kv: Vec<(&str, Json)>| {
        Json::Obj(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let list = |items: Vec<Json>| {
        let rows: Vec<String> = items.iter().map(|i| format!("    {}", render(i))).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|&(n, w)| obj(vec![("name", s(n)), ("why", s(w))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(n, u, b, bound)| {
            obj(vec![
                ("name", s(n)),
                ("unit", s(u)),
                ("better", s(b)),
                ("bound", Json::Num(bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(n, u, b)| obj(vec![("name", s(n)), ("unit", s(u)), ("better", s(b))]))
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        render(&Json::Arr(COMMAND.iter().map(|c| s(c)).collect())),
        render(&Json::Arr(PATHS.iter().map(|p| s(p)).collect())),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {} chars",
                why.len()
            );
        }
        for &(n, u, b, bound) in &END_TO_END {
            assert!(unit_ok(u) && (b == "lower" || b == "higher"), "{n}");
            assert!(bound > 0.0 && bound <= 0.25, "{n}");
        }
        for &(n, u, b) in &PER_LAYER {
            assert!(unit_ok(u) && (b == "lower" || b == "higher"), "{n}");
        }
        // Set-up time is there, in seconds, lower is better, and nothing has
        // a larger bound.
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let rendered = benchmark_json();
        let doc = parse(&rendered).expect("renders valid JSON");
        let Json::Obj(keys) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(rendered.len() < 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk.trim_end(),
            rendered,
            "regenerate with `now-perf --benchmark-json > BENCHMARK.json`"
        );
    }
}
