//! Property-based tests: virtual synchrony invariants must hold under
//! arbitrary schedules of casts, crashes, and pauses.
//!
//! Payloads encode `(kind, sender, op-index)` so the checker can verify
//! per-stream ordering constraints from delivered logs alone.

use isis_core::testutil::{cluster_lan, Cluster};
use isis_core::{CastKind, IsisConfig};
use now_sim::{Pid, SimDuration};
use now_sim::detprop::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Member `who % alive` casts with kind `kind % 3`.
    Cast { who: usize, kind: usize },
    /// Crash member `who % alive` (bounded count).
    Crash { who: usize },
    /// Advance simulated time.
    Wait { ms: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0usize..8, 0usize..3).prop_map(|(who, kind)| Op::Cast { who, kind }),
        1 => (0usize..8).prop_map(|who| Op::Crash { who }),
        3 => (1u64..300).prop_map(|ms| Op::Wait { ms }),
    ]
}

fn kind_of(idx: usize) -> CastKind {
    match idx {
        0 => CastKind::Fifo,
        1 => CastKind::Causal,
        _ => CastKind::Total,
    }
}

fn kind_tag(idx: usize) -> &'static str {
    match idx {
        0 => "f",
        1 => "c",
        _ => "t",
    }
}

/// Runs the schedule and returns the cluster plus the set of members that
/// stayed alive throughout.
fn run_schedule(ops: &[Op], seed: u64) -> (Cluster, Vec<Pid>) {
    const N: usize = 5;
    const MAX_CRASHES: usize = 2;
    let mut c = cluster_lan(N, IsisConfig::default(), seed);
    let gid = c.gid;
    let mut crashes = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Cast { who, kind } => {
                let alive = c.live_members();
                let p = alive[who % alive.len()];
                let payload = format!("{}-s{}-i{}", kind_tag(*kind), p.0, i);
                let k = kind_of(*kind);
                c.sim.invoke(p, move |proc_, ctx| {
                    let _ = proc_.cast(gid, k, payload, ctx);
                });
            }
            Op::Crash { who } => {
                if crashes < MAX_CRASHES {
                    let alive = c.live_members();
                    if alive.len() > N - MAX_CRASHES {
                        let p = alive[who % alive.len()];
                        c.sim.crash(p);
                        crashes += 1;
                    }
                }
            }
            Op::Wait { ms } => {
                c.sim.run_for(SimDuration::from_millis(*ms));
            }
        }
    }
    // Let membership and deliveries settle completely.
    let expect = c.live_members().len();
    c.await_membership(expect, SimDuration::from_secs(120));
    c.sim.run_for(SimDuration::from_secs(30));
    let survivors = c.live_members();
    (c, survivors)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn virtual_synchrony_invariants_hold(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in 0u64..10_000,
    ) {
        let (c, survivors) = run_schedule(&ops, seed);
        let gid = c.gid;
        let logs: Vec<(Pid, Vec<String>)> = survivors
            .iter()
            .map(|&p| (p, c.sim.process(p).app().payloads(gid)))
            .collect();

        // Invariant 1: no duplicates anywhere.
        for (p, log) in &logs {
            let mut sorted = log.clone();
            sorted.sort();
            let before = sorted.len();
            sorted.dedup();
            prop_assert_eq!(before, sorted.len(), "duplicate delivery at {}", p);
        }

        // Invariant 2: all-or-nothing agreement on every payload.
        let mut universe: Vec<String> = logs
            .iter()
            .flat_map(|(_, l)| l.iter().cloned())
            .collect();
        universe.sort();
        universe.dedup();
        for payload in &universe {
            let holders = logs.iter().filter(|(_, l)| l.contains(payload)).count();
            prop_assert!(
                holders == logs.len(),
                "payload {} delivered at {}/{} survivors",
                payload, holders, logs.len()
            );
        }

        // Invariant 3: total-order stream identical at every survivor.
        let totals: Vec<Vec<&String>> = logs
            .iter()
            .map(|(_, l)| l.iter().filter(|m| m.starts_with("t-")).collect())
            .collect();
        for t in &totals[1..] {
            prop_assert_eq!(&totals[0], t, "ABCAST order diverged");
        }

        // Invariant 4: per-sender order within each stream (op index in the
        // payload increases monotonically per (kind, sender)).
        for (p, log) in &logs {
            use std::collections::BTreeMap;
            let mut last: BTreeMap<(char, u32), usize> = BTreeMap::new();
            for m in log {
                let kind = m.as_bytes()[0] as char;
                let rest = &m[3..];
                let (s, i) = rest.split_once("-i").expect("payload format");
                let sender: u32 = s.parse().expect("sender id");
                let idx: usize = i.parse().expect("op index");
                if let Some(prev) = last.insert((kind, sender), idx) {
                    prop_assert!(
                        prev < idx,
                        "{}: stream ({}, s{}) delivered out of order",
                        p, kind, sender
                    );
                }
            }
        }
    }
}
