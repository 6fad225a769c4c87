//! `now-trace` and `now-chaos` probes: what recording an event costs, what
//! the monitor catalog costs per event it reads, and what generating and
//! running a fault scenario costs.

use std::time::Duration;

use now_chaos::gen::{generate, FAMILIES};
use now_chaos::{run_scenario, Sabotage};
use now_sim::trace::{EventKind, Monitors, MsgKey, Tracer};

use crate::workloads::lbcast::Lbcast;
use crate::workloads::{Scale, Workload};

use super::{median_over, ns_per_call, seconds, Readings};

/// `trace.record.ns_per_event`: a retaining tracer with no monitors taking
/// the event mix of a broadcast — send, deliver, cast delivery with a
/// 16-entry timestamp.
pub fn tracer(_seed: u64, slice: Duration) -> Readings {
    const BATCH: u32 = 3_000;
    let vt: Vec<(u32, u64)> = (0..16).map(|i| (i, u64::from(i) + 1)).collect();
    let per_call = ns_per_call(slice, 1, || {
        let mut tr = Tracer::new().retain_all();
        for i in 0..u64::from(BATCH / 3) {
            let s = tr.record(i, 1, None, EventKind::NetSend { to: 2, bytes: 64 });
            let d = tr.record(
                i + 1,
                2,
                Some(s),
                EventKind::NetDeliver { from: 1, send: s },
            );
            tr.record(
                i + 1,
                2,
                Some(d),
                EventKind::CastDeliver {
                    gid: 1,
                    view: 1,
                    msg: MsgKey {
                        sender: 1,
                        view: 1,
                        stream: 0,
                        seq: i + 1,
                    },
                    gseq: 0,
                    relay: false,
                    vt: vt.clone(),
                },
            );
        }
        std::hint::black_box(tr.last_seq());
    });
    vec![("trace.record.ns_per_event", per_call / f64::from(BATCH))]
}

/// `trace.monitor.ns_per_event`: `Monitors::observe` over the retained log
/// of a small traced `sim-lbcast` unit (256 members, 16 broadcasts).
pub fn monitors(seed: u64, slice: Duration) -> Readings {
    let w = Lbcast {
        n: 256,
        casts: 16,
        ..Lbcast::new(Scale::Full)
    };
    let events = w.unit(w.setup(seed, true)).events;
    assert!(!events.is_empty(), "traced unit left no log");
    let secs = median_over(slice, || {
        let mut m = Monitors::new();
        seconds(|| {
            let violations: usize = events.iter().map(|ev| m.observe(ev).len()).sum();
            assert_eq!(violations, 0, "monitors flagged a clean run");
        })
    });
    vec![(
        "trace.monitor.ns_per_event",
        secs * 1e9 / events.len() as f64,
    )]
}

/// `chaos.gen.us_per_scenario`: one scenario of each family per call.
pub fn chaos_gen(seed: u64, slice: Duration) -> Readings {
    let mut index = 0;
    let per_round = ns_per_call(slice, 10, || {
        for family in FAMILIES {
            std::hint::black_box(generate(family, index, seed));
        }
        index += 1;
    });
    vec![(
        "chaos.gen.us_per_scenario",
        per_round / 1e3 / FAMILIES.len() as f64,
    )]
}

/// `chaos.run.us_per_scenario` and `chaos.events_per_scenario`: five
/// scenarios of each family through `run_scenario`.
pub fn chaos_run(seed: u64, slice: Duration) -> Readings {
    const PER_FAMILY: u64 = 5;
    let scenarios: Vec<_> = FAMILIES
        .iter()
        .flat_map(|f| (0..PER_FAMILY).map(move |i| generate(f, i, seed)))
        .collect();
    let mut events = 0u64;
    let secs = median_over(slice, || {
        events = 0;
        seconds(|| {
            for sc in &scenarios {
                let report = run_scenario(sc, Sabotage::None).expect("generated scenarios resolve");
                assert!(
                    report.is_clean(),
                    "scenario {} violated an invariant",
                    sc.family
                );
                events += report.census.values().sum::<u64>();
            }
        })
    });
    let n = scenarios.len() as f64;
    vec![
        ("chaos.run.us_per_scenario", secs * 1e6 / n),
        ("chaos.events_per_scenario", events as f64 / n),
    ]
}
