//! The seven end-to-end workloads and the runner that repeats them.
//!
//! A workload is a pair of phases: `setup` builds the state the timed
//! section starts from, `unit` runs a fixed amount of seeded work on it and
//! checks the outputs. The runner alternates the two until the time budget
//! is spent, so one run yields several samples of both set-up time and unit
//! cost; it reports the median set-up and the least unit cost. A unit is a pure function of the seed on
//! the simulator, so every repetition must reproduce the first one's exact
//! counts — the runner checks that too.

use std::time::Instant;

use now_sim::trace::TraceEvent;

use crate::meter::Cost;
use crate::stats::{least, percentile};

pub mod chaos;
pub mod factory;
pub mod formation;
pub mod lbcast;
pub mod sock;
pub mod trading;

/// Fewest repetitions a run reports on.
pub const MIN_REPS: usize = 3;

/// How big the workloads are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the driver measures.
    Full,
    /// A tenth of that or less: the smoke mode.
    Quick,
}

impl Scale {
    /// `full` at full scale, `quick` in the smoke mode.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// What one timed unit produced.
#[derive(Clone, Debug, Default)]
pub struct UnitOut {
    /// Host cost of the timed section alone (oracles run after it).
    pub cost: Cost,
    /// Operations attempted: joins, member-deliveries, transactions,
    /// scenarios.
    pub ops: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Protocol messages sent in the timed section.
    pub msgs: u64,
    /// Host microseconds from submitting an operation until the harness saw
    /// it (on the simulator: its time slot) complete, one sample per
    /// operation or slot. Where [`Workload::REPEATABLE`], sample `i` is the
    /// same work in every repetition.
    pub op_us: Vec<f64>,
    /// Simulated microseconds `(p50, p99)` from submission to delivery;
    /// exact per seed, zero off the simulator.
    pub sim_lat_us: (f64, f64),
    /// Most distinct destinations any one process sent to (0 = not
    /// observable through the public API on this workload).
    pub max_fanout: u64,
    /// Counts that must repeat exactly for a seed (empty off the simulator).
    pub exact: Vec<(&'static str, u64)>,
    /// The causal log of the timed section, when the pass was traced.
    pub events: Vec<TraceEvent>,
    /// Event counts by kind when only a census is available (chaos-sweep).
    pub census: Vec<(&'static str, u64)>,
    /// A broken oracle that is not a per-operation failure (conservation,
    /// fan-out bound, monitor violation), in words.
    pub broken: Option<String>,
}

/// One of the seven workloads.
pub trait Workload {
    /// What `setup` hands to `unit`.
    type State;

    /// Whether a unit is a pure function of the seed, so that repetitions
    /// do the same work sample by sample (true on the simulator).
    const REPEATABLE: bool = true;

    /// Whether the whole pass runs on one CPU ([`crate::meter::OneCpu`]):
    /// the workload with daemon threads.
    const ONE_CPU: bool = false;

    /// Builds the state the timed section starts from. `traced` asks for a
    /// retaining tracer to be attached once set-up is done.
    fn setup(&self, seed: u64, traced: bool) -> Self::State;

    /// Runs the timed section and then the output checks.
    fn unit(&self, state: Self::State) -> UnitOut;
}

/// Medians over the repetitions of one pass (traced or not).
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Repetitions run.
    pub reps: usize,
    /// Set-up seconds, one per repetition.
    pub setup_s: Vec<f64>,
    /// Unit wall seconds, one per repetition.
    pub unit_s: Vec<f64>,
    /// Unit CPU seconds, one per repetition.
    pub cpu_s: Vec<f64>,
    /// Messages sent in the unit, one per repetition (they differ only off
    /// the simulator).
    pub msgs: Vec<u64>,
    /// Most heap bytes live at once during set-up and unit, one per
    /// repetition.
    pub peak_heap: Vec<u64>,
    /// Per-operation host microseconds, one vector per repetition.
    pub op_us: Vec<Vec<f64>>,
    /// [`Workload::REPEATABLE`] of the workload that ran.
    pub repeatable: bool,
    /// The first repetition's output (counts, log).
    pub first: UnitOut,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions.
    pub failed: u64,
    /// Every oracle held and every repetition agreed on the exact counts.
    pub correct: bool,
    /// Why not, if not.
    pub notes: Vec<String>,
}

/// Alternates `setup` and `unit` until `seconds` have passed and at least
/// `min_reps` repetitions are in.
pub fn run_pass<W: Workload>(
    w: &W,
    seed: u64,
    seconds: f64,
    traced: bool,
    min_reps: usize,
) -> Pass {
    let _one_cpu = W::ONE_CPU.then(crate::meter::OneCpu::pin);
    let started = Instant::now();
    let mut pass = Pass {
        correct: true,
        repeatable: W::REPEATABLE,
        ..Pass::default()
    };
    while pass.reps < min_reps || started.elapsed().as_secs_f64() < seconds {
        crate::alloc::reset_peak();
        let t0 = Instant::now();
        let state = w.setup(seed, traced);
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        let mut out = w.unit(state);
        pass.peak_heap.push(crate::alloc::peak_live());
        pass.unit_s.push(out.cost.wall_s);
        pass.cpu_s.push(out.cost.cpu_s);
        pass.msgs.push(out.msgs);
        pass.op_us.push(std::mem::take(&mut out.op_us));
        pass.attempted += out.ops;
        pass.failed += out.failed;
        if let Some(why) = &out.broken {
            pass.correct = false;
            pass.notes.push(format!("rep {}: {why}", pass.reps));
        }
        if pass.reps == 0 {
            pass.first = out;
        } else if out.exact != pass.first.exact {
            pass.correct = false;
            pass.notes.push(format!(
                "rep {} exact counts {:?} differ from the first {:?}",
                pass.reps, out.exact, pass.first.exact
            ));
        }
        pass.reps += 1;
    }
    if pass.failed > 0 {
        pass.correct = false;
        pass.notes.push(format!(
            "{} of {} operations failed",
            pass.failed, pass.attempted
        ));
    }
    pass
}

impl Pass {
    /// Operation latency `[p50, p90, p99]` in host microseconds.
    ///
    /// Repetitions of a repeatable workload do the same work sample by
    /// sample, so each sample is first reduced to its least over the
    /// repetitions: a slot that is slow in every repetition is the
    /// system's, one that is slow in some was the host's. Otherwise the
    /// percentiles are taken per repetition and the least of each reported.
    pub fn latency_us(&self) -> [f64; 3] {
        const Q: [f64; 3] = [0.50, 0.90, 0.99];
        let n = self.op_us.first().map_or(0, Vec::len);
        if self.repeatable && self.op_us.iter().all(|r| r.len() == n) {
            let per_sample: Vec<f64> = (0..n)
                .map(|i| least(&self.op_us.iter().map(|r| r[i]).collect::<Vec<_>>()))
                .collect();
            return Q.map(|q| percentile(&per_sample, q));
        }
        Q.map(|q| {
            least(
                &self
                    .op_us
                    .iter()
                    .map(|r| percentile(r, q))
                    .collect::<Vec<_>>(),
            )
        })
    }
}

/// FNV-1a step: folds `x` into the running order hash `h`.
pub fn fold_order(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Initial value of an order hash.
pub const ORDER_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Failed deliveries among members, each logged as `(count, sum of ids,
/// order hash)`: a member is charged every missing or surplus delivery, or,
/// with the right count but the wrong set or an order other than the first
/// member's, all of them.
pub fn delivery_failures(logs: &[(u64, u64, u64)], want_count: u64, want_sum: u64) -> u64 {
    let reference = logs.first().map_or(ORDER_SEED, |l| l.2);
    logs.iter()
        .map(|&(count, sum, order)| {
            if count != want_count {
                count.abs_diff(want_count)
            } else if sum != want_sum || order != reference {
                want_count
            } else {
                0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_failures_counts_missing_duplicate_and_reordered() {
        let ok = (3, 6, 77);
        assert_eq!(delivery_failures(&[ok, ok, ok], 3, 6), 0);
        // One member missed a delivery.
        assert_eq!(delivery_failures(&[ok, (2, 3, 5)], 3, 6), 1);
        // Right set, different order: all of that member's deliveries fail.
        assert_eq!(delivery_failures(&[ok, (3, 6, 78)], 3, 6), 3);
        // A duplicate shows in the count and the checksum.
        assert_eq!(delivery_failures(&[ok, (4, 9, 79)], 3, 6), 1);
        // Right count, wrong set.
        assert_eq!(delivery_failures(&[ok, (3, 7, 77)], 3, 6), 3);
    }

    #[test]
    fn latency_takes_out_what_not_every_repetition_saw() {
        let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut spiked = quiet.clone();
        spiked[10] = 10_000.0; // the host, twice
        let mut pass = Pass {
            repeatable: true,
            op_us: vec![spiked.clone(), spiked.clone(), quiet.clone()],
            ..Pass::default()
        };
        assert_eq!(
            pass.latency_us(),
            [0.50, 0.90, 0.99].map(|q| percentile(&quiet, q))
        );
        // Not repeatable: sample 10 of one repetition is not sample 10 of
        // another, so each repetition speaks for itself.
        pass.repeatable = false;
        assert_eq!(pass.latency_us()[0], 50.5);
        // Repetitions of different lengths cannot be paired either.
        pass.repeatable = true;
        pass.op_us[2].pop();
        assert_eq!(pass.latency_us()[0], 50.0);
    }

    #[test]
    fn order_hash_depends_on_order() {
        let ab = fold_order(fold_order(ORDER_SEED, 1), 2);
        let ba = fold_order(fold_order(ORDER_SEED, 2), 1);
        assert_ne!(ab, ba);
    }
}
