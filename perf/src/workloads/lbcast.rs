//! `sim-lbcast`: tree broadcasts from rotating origins through a formed
//! hierarchy; quiet config, ideal network, maintenance stretched out of the
//! horizon.
//!
//! Set-up forms the group (so formation cost lands in `setup_s`); the timed
//! section submits one `lbcast` per simulated millisecond from origin
//! `(offset + i * 37) mod n` and then drains. The seed picks `offset`.

use std::time::Instant;

use now_sim::trace::Tracer;
use now_sim::{Pid, Sim, SimConfig, SimDuration, SimTime};

use isis_core::{IsisConfig, IsisProcess};
use isis_hier::harness::generic_large_cluster;
use isis_hier::{HierApp, LargeApp, LargeGroupConfig, LargeGroupId, LargeUplink};

use crate::meter::Meter;
use crate::stats::p50_p99;

use super::{delivery_failures, fold_order, Scale, UnitOut, Workload, ORDER_SEED};

const LGID: LargeGroupId = LargeGroupId(1);

/// A numbered broadcast stamped with its simulated submission time.
#[derive(Clone, Debug)]
pub struct Stamped {
    /// 1-based index in submission order.
    pub id: u64,
    /// Simulated microseconds at submission.
    pub sent_us: u64,
}

/// Business layer that logs every delivery compactly: count, checksum,
/// order hash, and the simulated latency of each.
pub struct Sink {
    /// Deliveries seen.
    pub count: u64,
    /// Sum of delivered ids (exactly-once check).
    pub sum: u64,
    /// FNV fold of delivered ids in delivery order.
    pub order: u64,
    /// Simulated microseconds from submission to this delivery, each.
    pub lat_us: Vec<u32>,
}

impl Default for Sink {
    fn default() -> Sink {
        Sink {
            count: 0,
            sum: 0,
            order: ORDER_SEED,
            lat_us: Vec::new(),
        }
    }
}

impl LargeApp for Sink {
    type Payload = Stamped;
    type LeafState = u64;

    fn on_lbcast(
        &mut self,
        _: LargeGroupId,
        _: Pid,
        m: &Stamped,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.count += 1;
        self.sum += m.id;
        self.order = fold_order(self.order, m.id);
        self.lat_us
            .push(up.now().since(SimTime(m.sent_us)).as_micros() as u32);
    }

    fn payload_bytes(_: &Stamped) -> usize {
        16
    }
}

/// The simulated process type of the hierarchy under a [`Sink`].
pub type SinkProc = IsisProcess<HierApp<Sink>>;

/// The workload.
pub struct Lbcast {
    /// Group size.
    pub n: usize,
    /// Broadcasts per unit.
    pub casts: u64,
    /// Hierarchy shape.
    pub cfg: LargeGroupConfig,
    /// Worker shards inside the simulation (1 everywhere but the `par`
    /// probe).
    pub jobs: usize,
}

impl Lbcast {
    /// The gated size, or a tenth of it. (At n = 2048 the unit works in
    /// 150 MB, five repetitions fit in ten seconds, and ten runs spread
    /// 14-24 % between their quartiles on this shared host; at 1024, fifteen
    /// fit and they spread a third of that.)
    pub fn new(scale: Scale) -> Lbcast {
        Lbcast {
            n: scale.pick(1024, 256),
            casts: scale.pick(128, 32),
            cfg: LargeGroupConfig::new(3, 8).counting(),
            jobs: 1,
        }
    }
}

/// A formed group and the seed's origin offset.
pub struct Formed {
    /// The simulation.
    pub sim: Sim<SinkProc>,
    /// Members in join order.
    pub members: Vec<Pid>,
    offset: usize,
}

impl Lbcast {
    /// The timed section and its checks. Also returns every member's
    /// `(count, sum, order)`: the byte-equality witness for runs at different
    /// shard counts.
    pub fn run(&self, formed: Formed) -> (UnitOut, Vec<(u64, u64, u64)>) {
        let Formed {
            mut sim,
            members,
            offset,
        } = formed;
        sim.stats_mut().enable_fanout_tracking();
        sim.stats_mut().reset_window();
        let n = members.len();
        let mut slot_us = Vec::with_capacity(self.casts as usize);

        let meter = Meter::start();
        for i in 0..self.casts {
            let t = Instant::now();
            let origin = members[(offset + i as usize * 37) % n];
            let m = Stamped {
                id: i + 1,
                sent_us: sim.now().as_micros(),
            };
            sim.invoke(origin, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.lbcast(LGID, m, up));
            });
            sim.run_for(SimDuration::from_millis(1));
            slot_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        // Drain: nothing is due on an ideal net, but a repair would be.
        let deadline = sim.now() + SimDuration::from_secs(10);
        while sim.now() < deadline
            && members
                .iter()
                .any(|&m| sim.process(m).app().biz().count < self.casts)
        {
            sim.run_for(SimDuration::from_millis(100));
        }
        let cost = meter.stop();

        let logs: Vec<(u64, u64, u64)> = members
            .iter()
            .map(|&m| {
                let s = sim.process(m).app().biz();
                (s.count, s.sum, s.order)
            })
            .collect();
        let failed = delivery_failures(&logs, self.casts, self.casts * (self.casts + 1) / 2);
        let lat: Vec<f64> = members
            .iter()
            .flat_map(|&m| {
                sim.process(m)
                    .app()
                    .biz()
                    .lat_us
                    .iter()
                    .map(|&l| f64::from(l))
            })
            .collect();
        let sim_lat_us = p50_p99(&lat);
        let msgs = sim.stats().messages_sent;
        let max_fanout = sim.stats().max_distinct_destinations() as u64;
        let out = UnitOut {
            cost,
            ops: self.casts * n as u64,
            failed,
            msgs,
            op_us: slot_us,
            sim_lat_us,
            max_fanout,
            exact: vec![
                ("msgs", msgs),
                ("max_fanout", max_fanout),
                ("sim_lat_p50_us", sim_lat_us.0 as u64),
                ("sim_lat_p99_us", sim_lat_us.1 as u64),
                ("order", logs.first().map_or(0, |l| l.2)),
            ],
            events: sim
                .take_tracer()
                .map(|mut t| t.drain_events())
                .unwrap_or_default(),
            ..UnitOut::default()
        };
        (out, logs)
    }
}

impl Workload for Lbcast {
    type State = Formed;

    fn setup(&self, seed: u64, traced: bool) -> Formed {
        let (mut sim, _leaders, members) = generic_large_cluster(
            self.n,
            self.cfg.clone(),
            IsisConfig::quiet(),
            SimConfig::ideal(seed).with_jobs(self.jobs),
            |_| Sink::default(),
        );
        // Formation returns at the last admission, before the newest
        // representatives have their routing slices; a broadcast submitted
        // in that instant is lost for good under `counting()`. A few
        // housekeeping ticks of steady state first, as the apps crate's
        // drivers allow.
        sim.run_for(SimDuration::from_millis(500));
        if traced {
            sim.set_tracer(Tracer::new().retain_all());
        }
        Formed {
            sim,
            members,
            offset: (seed % self.n as u64) as usize,
        }
    }

    fn unit(&self, formed: Formed) -> UnitOut {
        self.run(formed).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Lbcast {
        Lbcast {
            n: 60,
            casts: 12,
            ..Lbcast::new(Scale::Quick)
        }
    }

    #[test]
    fn same_seed_repeats_exactly_and_another_seed_moves_the_origins() {
        let w = small();
        let (a, logs_a) = w.run(w.setup(11, false));
        let (b, logs_b) = w.run(w.setup(11, false));
        assert_eq!(a.exact, b.exact);
        assert_eq!(logs_a, logs_b);
        assert_eq!((a.failed, a.ops), (0, 12 * 60));

        let other = w.setup(12, false);
        assert_ne!(
            other.offset,
            w.setup(11, false).offset,
            "the seed picks the origin offset"
        );
        let (c, _) = w.run(other);
        assert_eq!(c.failed, 0);
        // Different origins: every member still agrees on one order, but it
        // is another run (the root sequences by arrival, ids by submission,
        // so the order hash need not move; the fan-out census does).
        assert_ne!(a.exact, c.exact);
    }

    #[test]
    fn a_traced_unit_keeps_the_exact_counts_and_leaves_a_log() {
        let w = small();
        let (plain, _) = w.run(w.setup(5, false));
        let (traced, _) = w.run(w.setup(5, true));
        assert_eq!(plain.exact, traced.exact);
        assert!(plain.events.is_empty() && !traced.events.is_empty());
    }
}
