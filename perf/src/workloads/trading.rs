//! `sim-trading-hier` and `sim-trading-flat`: the E9 trading floor, driven
//! by a bench-owned loop so that formation lands in `setup_s`.
//!
//! Both floors replay exactly the sequence of `isis_apps::run_trading_hier`
//! / `run_trading_flat` — form, two simulated seconds of steady state, a
//! paced quote feed from member 0, ten simulated seconds of drain — on the
//! apps crate's own `HierAnalyst` / `FlatAnalyst` / `QuoteStream`; a test
//! pins the message counts and latencies to the drivers'. The hierarchical
//! floor runs the default `IsisConfig` (heartbeats, stability, failure
//! detection on), the flat floor the quiet one, as the drivers do. The seed
//! is the simulation's: it draws every LAN latency.

use std::time::Instant;

use now_sim::trace::Tracer;
use now_sim::{Pid, Process, Sim, SimConfig, SimDuration};

use isis_apps::trading::{rate_to_gap, FlatAnalyst, HierAnalyst, Quote, QuoteStream};
use isis_core::testutil::generic_cluster;
use isis_core::{GroupId, IsisConfig, IsisProcess};
use isis_hier::harness::generic_large_cluster;
use isis_hier::{HierApp, LargeGroupConfig, LargeGroupId};

use crate::meter::{Cost, Meter};

use super::{Scale, UnitOut, Workload};

const LGID: LargeGroupId = LargeGroupId(1);
const GID: GroupId = GroupId(1);
/// Symbol universe and per-analyst subscription of the apps crate's
/// synthetic floor (`isis_apps::drivers`, private there).
const SYMBOLS: u32 = 64;

fn subscription(i: usize) -> Vec<u32> {
    (0..4).map(|k| (i as u32 * 7 + k * 13) % SYMBOLS).collect()
}

/// The paced feed and the drain, timed; `publish` submits one quote at the
/// feed. Returns the cost and the host microseconds of each quote's slot.
fn feed<P: Process>(
    sim: &mut Sim<P>,
    quotes: u64,
    rate: u64,
    mut publish: impl FnMut(&mut Sim<P>, Quote),
) -> (Cost, Vec<f64>) {
    sim.stats_mut().enable_fanout_tracking();
    sim.stats_mut().reset_window();
    let mut stream = QuoteStream::new(SYMBOLS);
    let gap = rate_to_gap(rate);
    let mut slot_us = Vec::with_capacity(quotes as usize);
    let meter = Meter::start();
    for _ in 0..quotes {
        let t = Instant::now();
        let q = stream.next_quote(sim.now());
        publish(sim, q);
        sim.run_for(gap);
        slot_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    sim.run_for(SimDuration::from_secs(10));
    (meter.stop(), slot_us)
}

/// What an analyst logged: deliveries, and whether its matched quotes came
/// in feed order without repeats.
struct Seen {
    delivered: u64,
    in_order: bool,
}

fn seen(delivered: u64, matched: &[Quote]) -> Seen {
    Seen {
        delivered,
        in_order: matched.windows(2).all(|w| w[0].seq < w[1].seq),
    }
}

/// Folds the floor's logs and the simulator's books into the unit record.
fn report<P: Process>(
    sim: &mut Sim<P>,
    cost: Cost,
    slot_us: Vec<f64>,
    quotes: u64,
    analysts: &[Seen],
    fanout_bound: Option<u64>,
) -> UnitOut {
    // Every analyst must see every quote once, in feed order (one feed, so
    // one order). A short or long count fails that many deliveries; a
    // reordered log fails all of that analyst's.
    let failed = analysts
        .iter()
        .map(|a| {
            if a.delivered != quotes {
                a.delivered.abs_diff(quotes)
            } else if a.in_order {
                0
            } else {
                quotes
            }
        })
        .sum();
    let lat = sim.stats().series("trading.latency_ms");
    let sim_lat_us = (lat.p50() * 1e3, lat.p99() * 1e3);
    let msgs = sim.stats().messages_sent;
    let max_fanout = sim.stats().max_distinct_destinations() as u64;
    UnitOut {
        cost,
        ops: quotes * analysts.len() as u64,
        failed,
        msgs,
        op_us: slot_us,
        sim_lat_us,
        max_fanout,
        exact: vec![
            ("msgs", msgs),
            ("max_fanout", max_fanout),
            ("sim_lat_p50_us", sim_lat_us.0.round() as u64),
            ("sim_lat_p99_us", sim_lat_us.1.round() as u64),
        ],
        events: sim
            .take_tracer()
            .map(|mut t| t.drain_events())
            .unwrap_or_default(),
        broken: fanout_bound
            .filter(|&b| max_fanout > b)
            .map(|b| format!("max_fanout {max_fanout} exceeds the paper's bound {b}")),
        ..UnitOut::default()
    }
}

/// The hierarchical floor.
pub struct HierFloor {
    /// Analyst workstations.
    pub analysts: usize,
    /// Quotes per unit.
    pub quotes: u64,
    /// Feed rate, quotes per simulated second.
    pub rate: u64,
    /// Hierarchy shape.
    pub cfg: LargeGroupConfig,
}

impl HierFloor {
    /// The gated size, or a tenth of it.
    pub fn new(scale: Scale) -> HierFloor {
        HierFloor {
            analysts: scale.pick(300, 60),
            quotes: scale.pick(500, 50),
            rate: 200,
            cfg: LargeGroupConfig::new(3, 8),
        }
    }
}

type HierProc = IsisProcess<HierApp<HierAnalyst>>;

impl Workload for HierFloor {
    type State = (Sim<HierProc>, Vec<Pid>);

    fn setup(&self, seed: u64, traced: bool) -> Self::State {
        let (mut sim, _leaders, members) = generic_large_cluster(
            self.analysts,
            self.cfg.clone(),
            IsisConfig::default(),
            SimConfig::lan(seed).with_jobs(1),
            |i| HierAnalyst::new(LGID, subscription(i)),
        );
        sim.run_for(SimDuration::from_secs(2));
        if traced {
            sim.set_tracer(Tracer::new().retain_all());
        }
        (sim, members)
    }

    fn unit(&self, (mut sim, members): Self::State) -> UnitOut {
        let feeder = members[0];
        let (cost, slot_us) = feed(&mut sim, self.quotes, self.rate, |sim, q| {
            sim.invoke(feeder, move |p, ctx| {
                p.with_app(ctx, move |app, up| {
                    app.with_business(up, |_biz, lup| lup.lbcast(LGID, q));
                });
            });
        });
        let analysts: Vec<Seen> = members
            .iter()
            .map(|&m| {
                let a = sim.process(m).app().biz();
                seen(a.delivered, &a.matched)
            })
            .collect();
        // Children + own leaf + parent ack + origin ack (E8's bound, which
        // E9 meets with maintenance off), plus, with maintenance on, the
        // leader group's contacts a representative reports to.
        let bound = (self.cfg.fanout + self.cfg.max_leaf + 2 + self.cfg.resiliency) as u64;
        report(&mut sim, cost, slot_us, self.quotes, &analysts, Some(bound))
    }
}

/// The flat floor.
pub struct FlatFloor {
    /// Analyst workstations, all in one group.
    pub analysts: usize,
    /// Quotes per unit.
    pub quotes: u64,
    /// Feed rate, quotes per simulated second.
    pub rate: u64,
}

impl FlatFloor {
    /// The gated size, or a tenth of it.
    pub fn new(scale: Scale) -> FlatFloor {
        FlatFloor {
            analysts: scale.pick(1000, 100),
            quotes: scale.pick(150, 15),
            rate: 200,
        }
    }
}

type FlatProc = IsisProcess<FlatAnalyst>;

impl Workload for FlatFloor {
    type State = (Sim<FlatProc>, Vec<Pid>);

    fn setup(&self, seed: u64, traced: bool) -> Self::State {
        let (mut sim, members) = generic_cluster(
            self.analysts,
            GID,
            IsisConfig::quiet(),
            SimConfig::lan(seed).with_jobs(1),
            |i| FlatAnalyst::new(GID, subscription(i)),
        );
        sim.run_for(SimDuration::from_secs(2));
        if traced {
            sim.set_tracer(Tracer::new().retain_all());
        }
        (sim, members)
    }

    fn unit(&self, (mut sim, members): Self::State) -> UnitOut {
        let feeder = members[0];
        let (cost, slot_us) = feed(&mut sim, self.quotes, self.rate, |sim, q| {
            sim.invoke(feeder, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.publish(q, up));
            });
        });
        let analysts: Vec<Seen> = members
            .iter()
            .map(|&m| {
                let a = sim.process(m).app();
                seen(a.delivered, &a.matched)
            })
            .collect();
        report(&mut sim, cost, slot_us, self.quotes, &analysts, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench-owned loops are the apps crate's drivers with the timer
    /// moved: same messages, same fan-out, same simulated latencies.
    #[test]
    fn bench_loops_reproduce_the_apps_drivers_on_a_small_point() {
        let (n, quotes, rate, seed) = (24usize, 20u64, 200u64, 77u64);

        let h = HierFloor {
            analysts: n,
            quotes,
            rate,
            cfg: LargeGroupConfig::new(3, 4),
        };
        let ours = h.unit(h.setup(seed, false));
        let theirs =
            isis_apps::run_trading_hier(n, quotes, rate, LargeGroupConfig::new(3, 4), seed);
        assert_eq!(ours.msgs, theirs.messages);
        assert_eq!(ours.max_fanout, theirs.max_fanout as u64);
        assert_eq!(ours.ops - ours.failed, theirs.deliveries);
        assert_eq!(ours.sim_lat_us, (theirs.p50_ms * 1e3, theirs.p99_ms * 1e3));
        assert_eq!(ours.failed, 0);
        assert!(ours.broken.is_none());

        let f = FlatFloor {
            analysts: n,
            quotes,
            rate,
        };
        let ours = f.unit(f.setup(seed, false));
        let theirs = isis_apps::run_trading_flat(n, quotes, rate, seed);
        assert_eq!(ours.msgs, theirs.messages);
        assert_eq!(ours.max_fanout, theirs.max_fanout as u64);
        assert_eq!(ours.ops - ours.failed, theirs.deliveries);
        assert_eq!(ours.sim_lat_us, (theirs.p50_ms * 1e3, theirs.p99_ms * 1e3));
        assert_eq!(ours.failed, 0);
    }
}
