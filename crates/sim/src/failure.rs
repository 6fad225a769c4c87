//! Fault schedules: seeded, replayable partition flaps and message-storm
//! firing times, the time-driven faults the `now-chaos` scenario fuzzer
//! injects. Crashes need no schedule of their own: a harness calls
//! `Sim::schedule_crash` or `Sim::crash` directly.

use crate::det_rand::Rng;
use crate::ids::NodeId;
use crate::net::Partition;
use crate::time::{SimDuration, SimTime};

/// A planned replacement of the whole network partition state at one time.
/// Feed to `Sim::schedule_partition` (or apply with `Sim::set_partition`
/// after `run_until`) in order.
#[derive(Clone, Debug)]
pub struct PlannedPartition {
    /// When the partition state changes.
    pub at: SimTime,
    /// The connectivity that takes effect at `at`.
    pub partition: Partition,
}

/// Generates a *flapping* partition schedule: the network alternates
/// `flaps` times between splitting `minority` into its own cell and healed,
/// starting with a split at `start`. Each phase lasts `period` plus a
/// uniform draw from `[0, jitter]`, and the schedule always ends on a heal
/// so the system can be asked to reconverge. Deterministic given the RNG
/// state: re-running with an equally seeded RNG yields the identical
/// schedule (see the seed-stability tests).
pub fn partition_flaps<R: Rng>(
    minority: &[NodeId],
    start: SimTime,
    period: SimDuration,
    jitter: SimDuration,
    flaps: u32,
    rng: &mut R,
) -> Vec<PlannedPartition> {
    assert!(flaps >= 1, "a flap schedule needs at least one split");
    assert!(period > SimDuration::ZERO, "flap phases must have a duration");
    let mut plan = Vec::with_capacity(2 * flaps as usize);
    let mut at = start;
    for _ in 0..flaps {
        plan.push(PlannedPartition {
            at,
            partition: Partition::split(minority.iter().copied()),
        });
        at += phase_len(period, jitter, rng);
        plan.push(PlannedPartition {
            at,
            partition: Partition::connected(),
        });
        at += phase_len(period, jitter, rng);
    }
    plan
}

fn phase_len<R: Rng>(period: SimDuration, jitter: SimDuration, rng: &mut R) -> SimDuration {
    let j = if jitter == SimDuration::ZERO {
        0
    } else {
        rng.gen_range(0..=jitter.as_micros())
    };
    SimDuration::from_micros(period.as_micros() + j)
}

/// Generates the firing times of a message storm: `n` shots starting at
/// `start`, `gap` apart plus a uniform draw from `[0, jitter]` between
/// consecutive shots. The harness invokes the protocol entry point under
/// test (a broadcast, a request) at each returned time; keeping the storm
/// as a time schedule rather than a message list keeps the primitive
/// protocol-agnostic. Deterministic given the RNG state.
pub fn storm_times<R: Rng>(
    n: u32,
    start: SimTime,
    gap: SimDuration,
    jitter: SimDuration,
    rng: &mut R,
) -> Vec<SimTime> {
    let mut times = Vec::with_capacity(n as usize);
    let mut at = start;
    for i in 0..n {
        if i > 0 {
            at += phase_len(gap, jitter, rng);
        }
        times.push(at);
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_rand::DetRng;

    #[test]
    fn partition_flaps_alternate_split_and_heal() {
        let mut rng = DetRng::seed_from_u64(6);
        let nodes = [crate::ids::NodeId(1), crate::ids::NodeId(2)];
        let plan = partition_flaps(
            &nodes,
            SimTime(1_000),
            SimDuration::from_millis(50),
            SimDuration::from_millis(10),
            3,
            &mut rng,
        );
        assert_eq!(plan.len(), 6, "each flap is a split followed by a heal");
        assert_eq!(plan[0].at, SimTime(1_000));
        for (i, p) in plan.iter().enumerate() {
            if i % 2 == 0 {
                assert!(!p.partition.is_healed(), "even phases split");
                assert!(!p.partition.connected_pair(crate::ids::NodeId(0), crate::ids::NodeId(1)));
            } else {
                assert!(p.partition.is_healed(), "odd phases heal");
            }
        }
        for w in plan.windows(2) {
            let gap = w[1].at.since(w[0].at);
            assert!(gap >= SimDuration::from_millis(50), "phase at least `period` long");
            assert!(gap <= SimDuration::from_millis(60), "jitter bounded");
        }
        assert!(plan.last().is_some_and(|p| p.partition.is_healed()), "ends healed");
    }

    #[test]
    fn partition_flaps_are_seed_stable() {
        // The same seed must reproduce the identical schedule across
        // re-runs — this is what makes a violating fuzz schedule replayable.
        let nodes = [crate::ids::NodeId(3), crate::ids::NodeId(7)];
        let gen = |seed: u64| {
            let mut rng = DetRng::seed_from_u64(seed);
            partition_flaps(
                &nodes,
                SimTime(0),
                SimDuration::from_millis(20),
                SimDuration::from_millis(20),
                5,
                &mut rng,
            )
            .iter()
            .map(|p| (p.at, p.partition.cells_in_use().len()))
            .collect::<Vec<_>>()
        };
        assert_eq!(gen(42), gen(42), "same seed, same schedule");
        assert_ne!(gen(42), gen(43), "jitter actually depends on the seed");
    }

    #[test]
    fn storm_times_are_seed_stable_and_ordered() {
        let gen = |seed: u64| {
            let mut rng = DetRng::seed_from_u64(seed);
            storm_times(
                40,
                SimTime(500),
                SimDuration::from_micros(200),
                SimDuration::from_micros(300),
                &mut rng,
            )
        };
        let a = gen(9);
        assert_eq!(a, gen(9), "same seed, same storm");
        assert_ne!(a, gen(10));
        assert_eq!(a.len(), 40);
        assert_eq!(a[0], SimTime(500));
        for w in a.windows(2) {
            let gap = w[1].since(w[0]);
            assert!(gap >= SimDuration::from_micros(200));
            assert!(gap <= SimDuration::from_micros(500));
        }
        // Jitter-free storms are evenly spaced.
        let mut rng = DetRng::seed_from_u64(1);
        let even = storm_times(4, SimTime(0), SimDuration::from_micros(100), SimDuration::ZERO, &mut rng);
        assert_eq!(
            even,
            vec![SimTime(0), SimTime(100), SimTime(200), SimTime(300)]
        );
    }
}
