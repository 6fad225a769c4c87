//! `sim-formation`: n members join a `LargeGroupConfig::new(3, 8)`
//! hierarchy on an ideal network, quiet config.
//!
//! Set-up spawns the processes and forms the leader group; the timed
//! section runs from the first `join_large` until every member is admitted,
//! the leader accounts for all of them and every leaf is inside the
//! `[min_leaf, max_leaf]` band. The seed picks the order in which members
//! ask to join.
//!
//! n is chosen with `n mod max_leaf = 2`: the burst then leaves one tail
//! leaf below `min_leaf`, which the leader has to merge away a few simulated
//! seconds later. So a unit covers burst admission with its splits, one
//! merge with its flush and state transfer, and the maintenance traffic of
//! the whole hierarchy while it waits — sizes where the tail happens to fit
//! the band finish 20 times sooner and measure admission alone.

use std::time::Instant;

use now_sim::{DetRng, Pid, Rng, Sim, SimConfig, SimDuration, SimTime};

use isis_core::{IsisConfig, IsisProcess};
use isis_hier::{HierApp, LargeApp, LargeGroupConfig, LargeGroupId, LargeUplink};

use crate::meter::Meter;
use crate::stats::p50_p99;

use super::{Scale, UnitOut, Workload};

const LGID: LargeGroupId = LargeGroupId(1);

/// Business layer that only notes when its admission completed.
#[derive(Default)]
pub struct Joiner {
    /// Simulated time of `on_joined_large`.
    pub joined_at: Option<SimTime>,
}

impl LargeApp for Joiner {
    type Payload = u64;
    type LeafState = u64;

    fn on_lbcast(
        &mut self,
        _: LargeGroupId,
        _: Pid,
        _: &u64,
        _: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    fn on_joined_large(
        &mut self,
        _lgid: LargeGroupId,
        _leaf: isis_core::GroupId,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.joined_at = Some(up.now());
    }
}

type Proc = IsisProcess<HierApp<Joiner>>;

/// The workload.
pub struct Formation {
    /// Members that join.
    pub n: usize,
    /// Hierarchy shape.
    pub cfg: LargeGroupConfig,
}

impl Formation {
    /// The gated size, or a tenth of it.
    pub fn new(scale: Scale) -> Formation {
        Formation {
            n: scale.pick(2200, 198),
            cfg: LargeGroupConfig::new(3, 8),
        }
    }
}

/// Processes spawned, leader group formed, nobody has asked to join yet.
pub struct Ready {
    sim: Sim<Proc>,
    leaders: Vec<Pid>,
    /// Members in the order they will ask to join.
    join_order: Vec<Pid>,
}

fn spawn(sim: &mut Sim<Proc>, cfg: &LargeGroupConfig) -> Pid {
    let nd = sim.add_nodes(1)[0];
    sim.spawn(
        nd,
        IsisProcess::new(
            HierApp::with_timers(Joiner::default(), cfg.clone()),
            IsisConfig::quiet(),
        ),
    )
}

impl Workload for Formation {
    type State = Ready;

    fn setup(&self, seed: u64, traced: bool) -> Ready {
        let mut sim: Sim<Proc> = Sim::new(SimConfig::ideal(seed).with_jobs(1));
        let leaders: Vec<Pid> = (0..self.cfg.resiliency)
            .map(|_| spawn(&mut sim, &self.cfg))
            .collect();
        let shape = self.cfg.clone();
        sim.invoke(leaders[0], move |p, ctx| {
            p.with_app(ctx, move |app, up| app.create_large(LGID, shape, up));
        });
        let first = leaders[0];
        for &l in &leaders[1..] {
            sim.invoke(l, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.join_leader_group(LGID, first, up));
            });
        }
        let formed = |sim: &Sim<Proc>| {
            leaders.iter().all(|&l| {
                sim.process(l)
                    .view_of(LGID.leader_gid())
                    .is_some_and(|v| v.size() == leaders.len())
            })
        };
        while !formed(&sim) {
            assert!(sim.step(), "leader group never formed");
        }
        let mut join_order: Vec<Pid> = (0..self.n).map(|_| spawn(&mut sim, &self.cfg)).collect();
        // Fisher-Yates from the seed: the input the seed decides.
        let mut rng = DetRng::seed_from_u64(seed ^ 0x6a6f_696e);
        for i in (1..join_order.len()).rev() {
            join_order.swap(i, rng.gen_range(0..=i));
        }
        if traced {
            sim.set_tracer(now_sim::trace::Tracer::new().retain_all());
        }
        Ready {
            sim,
            leaders,
            join_order,
        }
    }

    fn unit(&self, ready: Ready) -> UnitOut {
        let Ready {
            mut sim,
            leaders,
            join_order,
        } = ready;
        sim.stats_mut().enable_fanout_tracking();
        sim.stats_mut().reset_window();
        let contact = leaders[0];
        let t0 = sim.now();
        let deadline = t0 + SimDuration::from_secs(1_200);
        let (min_leaf, max_leaf) = (self.cfg.min_leaf, self.cfg.max_leaf);

        // Host microseconds from the start of the burst until the harness
        // saw each member admitted.
        let mut seen_us: Vec<f64> = Vec::with_capacity(join_order.len());
        let meter = Meter::start();
        let burst = Instant::now();
        for &m in &join_order {
            sim.invoke(m, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.join_large(LGID, contact, up));
            });
        }
        // Admission is permanent in this run, so a cursor over the join
        // order replaces a scan of all members per step.
        let n = self.n;
        let in_band = |sim: &Sim<Proc>| {
            sim.process(contact)
                .app()
                .leader_view(LGID)
                .is_some_and(|v| {
                    v.total_members() == n
                        && v.leaves
                            .iter()
                            .all(|l| (min_leaf..=max_leaf).contains(&l.size))
                })
        };
        let mut admitted = 0;
        loop {
            while admitted < join_order.len()
                && sim
                    .process(join_order[admitted])
                    .app()
                    .is_large_member(LGID)
            {
                admitted += 1;
                seen_us.push(burst.elapsed().as_secs_f64() * 1e6);
            }
            if admitted == join_order.len() && in_band(&sim) {
                break;
            }
            if sim.now() >= deadline || !sim.step() {
                break;
            }
        }
        let cost = meter.stop();

        let lat: Vec<f64> = join_order
            .iter()
            .filter_map(|&m| sim.process(m).app().biz().joined_at)
            .map(|t| t.since(t0).as_micros() as f64)
            .collect();
        let joined = lat.len() as u64;
        let in_band = in_band(&sim);
        let view = sim.process(contact).app().leader_view(LGID);
        let leaves = view.map_or(0, |v| v.num_leaves() as u64);
        let msgs = sim.stats().messages_sent;
        UnitOut {
            cost,
            ops: self.n as u64,
            failed: self.n as u64 - joined,
            msgs,
            op_us: seen_us,
            sim_lat_us: p50_p99(&lat),
            max_fanout: sim.stats().max_distinct_destinations() as u64,
            exact: vec![
                ("msgs", msgs),
                ("leaves", leaves),
                ("formed_at_us", sim.now().since(t0).as_micros()),
            ],
            events: sim
                .take_tracer()
                .map(|mut t| t.drain_events())
                .unwrap_or_default(),
            broken: (!in_band)
                .then(|| format!("leaves not all within {min_leaf}..={max_leaf} by the deadline")),
            ..UnitOut::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_burst_is_admitted_merged_into_band_and_repeats_exactly() {
        // 23 mod 7 = 2: the tail leaf has to be merged away.
        let w = Formation {
            n: 23,
            cfg: LargeGroupConfig::new(3, 8),
        };
        let a = w.unit(w.setup(3, false));
        assert_eq!((a.ops, a.failed), (23, 0));
        assert!(a.broken.is_none(), "{:?}", a.broken);
        let formed_at = a
            .exact
            .iter()
            .find(|(k, _)| *k == "formed_at_us")
            .map(|(_, v)| *v);
        assert!(
            formed_at > Some(1_000_000),
            "the merge takes simulated seconds: {formed_at:?}"
        );
        assert_eq!(a.exact, w.unit(w.setup(3, false)).exact);
    }
}
