//! Shared experiment scaffolding: service clusters (flat and
//! hierarchical), directory snapshots, and measurement helpers.

use now_sim::{Pid, Sim, SimConfig, SimDuration};

use isis_core::testutil::generic_cluster;
use isis_core::{GroupId, IsisConfig, IsisProcess};
use isis_hier::harness::generic_large_cluster;
use isis_hier::{HierApp, LargeGroupConfig, LargeGroupId};
use isis_toolkit::flat::FlatService;
use isis_toolkit::hier::{Directory, LeafServiceApp};

/// The flat service group id used by experiments.
pub const FLAT_GID: GroupId = GroupId(9);
/// The hierarchical large group id used by experiments.
pub const LGID: LargeGroupId = LargeGroupId(1);

/// A flat coordinator-cohort deployment plus one external client.
pub struct FlatSvc {
    pub sim: Sim<IsisProcess<FlatService>>,
    pub members: Vec<Pid>,
    pub client: Pid,
}

/// Builds a flat service of `n` members (quiet config: every message on
/// the wire afterwards belongs to the experiment).
pub fn flat_service(n: usize, seed: u64) -> FlatSvc {
    flat_service_with(n, IsisConfig::quiet(), seed)
}

/// Builds a flat service with an explicit ISIS configuration.
pub fn flat_service_with(n: usize, icfg: IsisConfig, seed: u64) -> FlatSvc {
    let (mut sim, members) = generic_cluster(
        n,
        FLAT_GID,
        icfg.clone(),
        SimConfig::ideal(seed),
        |_| FlatService::new(FLAT_GID),
    );
    let nd = sim.add_nodes(1)[0];
    let client = sim.spawn(nd, IsisProcess::new(FlatService::new(FLAT_GID), icfg));
    sim.run_for(SimDuration::from_secs(1));
    FlatSvc {
        sim,
        members,
        client,
    }
}

impl FlatSvc {
    /// Issues one request from the client to all members and settles.
    pub fn one_request(&mut self, body: &str) {
        let members = self.members.clone();
        let b = body.to_owned();
        self.sim.invoke(self.client, move |p, ctx| {
            p.with_app(ctx, |app, up| app.send_request(&members, &b, up))
        });
        self.sim.run_for(SimDuration::from_secs(2));
    }
}

/// A hierarchical service deployment plus one external client.
pub struct HierSvc {
    pub sim: Sim<IsisProcess<HierApp<LeafServiceApp>>>,
    pub leaders: Vec<Pid>,
    pub members: Vec<Pid>,
    pub client: Pid,
    pub cfg: LargeGroupConfig,
}

/// Builds a hierarchical service of `n` members.
pub fn hier_service(n: usize, cfg: LargeGroupConfig, seed: u64) -> HierSvc {
    hier_service_with(n, cfg, IsisConfig::default(), seed)
}

/// Builds a hierarchical service with an explicit ISIS configuration.
pub fn hier_service_with(
    n: usize,
    cfg: LargeGroupConfig,
    icfg: IsisConfig,
    seed: u64,
) -> HierSvc {
    let (mut sim, leaders, members) = generic_large_cluster(
        n,
        cfg.clone(),
        icfg.clone(),
        SimConfig::ideal(seed),
        |_| LeafServiceApp::new(LGID),
    );
    let nd = sim.add_nodes(1)[0];
    let client = sim.spawn(
        nd,
        IsisProcess::new(HierApp::with_timers(LeafServiceApp::new(LGID), cfg.clone()), icfg),
    );
    sim.run_for(SimDuration::from_secs(1));
    HierSvc {
        sim,
        leaders,
        members,
        client,
        cfg,
    }
}

impl HierSvc {
    /// The current directory (leaf gid → contacts) from the leader.
    pub fn directory(&self) -> Directory {
        self.leaders
            .iter()
            .find(|&&l| self.sim.is_alive(l))
            .and_then(|&l| self.sim.process(l).app().leader_view(LGID))
            .expect("leader view")
            .leaves
            .iter()
            .map(|l| (l.gid, l.contacts.clone()))
            .collect()
    }

    /// Full leaf membership (not just bounded contacts) for one leaf, from
    /// simulator introspection.
    pub fn leaf_members(&self, leaf: GroupId) -> Vec<Pid> {
        self.members
            .iter()
            .copied()
            .filter(|&m| {
                self.sim.is_alive(m) && self.sim.process(m).app().leaf_of(LGID) == Some(leaf)
            })
            .collect()
    }

    /// Issues one request from the client, routed by its key, and settles.
    pub fn one_request(&mut self, body: &str) {
        // Route to the *full* leaf membership: the client broadcasts its
        // request to the subgroup, exactly as the paper describes.
        let dir = self.directory();
        let key = isis_toolkit::key_of(body).unwrap_or("");
        let (leaf, _) = *isis_toolkit::hier::home_leaf(&dir, key);
        let targets = self.leaf_members(leaf);
        let b = body.to_owned();
        self.sim.invoke(self.client, move |p, ctx| {
            p.with_app(ctx, |app, up| {
                app.with_business(up, |biz, lup| {
                    biz.send_request_to(&targets, &b, lup);
                });
            });
        });
        self.sim.run_for(SimDuration::from_secs(2));
    }
}

/// Runs one closure per sweep point on the parallel sweep runner
/// ([`crate::par_sweep()`]) and appends the returned rows to `t` in input
/// order, so the emitted table is byte-identical whatever `NOW_JOBS` says.
/// Each closure builds, runs, and measures its own simulations — nothing
/// simulation-shaped ever crosses a thread.
pub fn sweep_rows<I: Send>(
    t: &mut crate::report::Table,
    points: Vec<I>,
    f: impl Fn(I) -> Vec<Vec<String>> + Sync,
) {
    for rows in crate::par_sweep(points, f) {
        for row in rows {
            t.row(row);
        }
    }
}

/// Number of processes that received at least one message in the current
/// stats window — the "disturbed set" of an event.
pub fn disturbed<S>(sim: &Sim<S>, pids: &[Pid]) -> usize
where
    S: now_sim::Process,
{
    pids.iter()
        .filter(|&&p| sim.stats().proc(p).received > 0)
        .count()
}

/// Measures the marginal cost of an event over the steady-state
/// background: first observes an idle window of `dur`, then fires the
/// event and observes an equal window. Returns `(extra_messages,
/// processes_with_extra_receives)`. The hierarchy has periodic maintenance
/// traffic (beacons, contact refreshes) even when idle; the paper's claims
/// are about the *event-driven* traffic, so both windows are compared
/// per-process.
pub fn event_cost<S: now_sim::Process>(
    sim: &mut Sim<S>,
    pids: &[Pid],
    dur: SimDuration,
    fire: impl FnOnce(&mut Sim<S>),
) -> (u64, usize) {
    sim.stats_mut().reset_window();
    sim.run_for(dur);
    let base_total = sim.stats().messages_sent;
    let base_recv: Vec<u64> = pids
        .iter()
        .map(|&p| sim.stats().proc(p).received)
        .collect();
    sim.stats_mut().reset_window();
    fire(sim);
    sim.run_for(dur);
    let total = sim.stats().messages_sent.saturating_sub(base_total);
    let acting = pids
        .iter()
        .enumerate()
        .filter(|(i, &p)| sim.stats().proc(p).received > base_recv[*i])
        .count();
    (total, acting)
}
