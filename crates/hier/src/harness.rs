//! Harness utilities: a recording business application and builders that
//! assemble complete large groups inside a simulation. Used by this
//! crate's tests, the toolkit, and the experiment binaries.

use now_sim::{Pid, Sim, SimConfig, SimDuration, SimTime};

use isis_core::{CastKind, GroupId, GroupView, IsisConfig, IsisProcess};

use crate::business::{LargeApp, LargeUplink};
use crate::config::LargeGroupConfig;
use crate::ids::{LargeGroupId, LbcastId};
use crate::member::HierApp;
use crate::msg::LbcastStatus;

/// A business application that records everything, for tests and
/// experiments.
#[derive(Default, Debug)]
pub struct RecorderBiz {
    /// Large-group broadcasts delivered, in delivery order.
    pub lbcasts: Vec<(LargeGroupId, Pid, String)>,
    /// Intra-leaf casts delivered.
    pub leaf_casts: Vec<(GroupId, Pid, String)>,
    /// Direct messages.
    pub directs: Vec<(Pid, String)>,
    /// Large groups joined (with the assigned leaf).
    pub joined: Vec<(LargeGroupId, GroupId)>,
    /// Large groups left.
    pub left: Vec<LargeGroupId>,
    /// Status reports for our own broadcasts.
    pub statuses: Vec<(LbcastId, LbcastStatus)>,
    /// Leaf state installed at join, if any.
    pub imported: Option<Vec<String>>,
}

impl RecorderBiz {
    /// Payloads of delivered large-group broadcasts for `lgid`, in order.
    pub fn lbcast_payloads(&self, lgid: LargeGroupId) -> Vec<String> {
        self.lbcasts
            .iter()
            .filter(|(l, _, _)| *l == lgid)
            .map(|(_, _, p)| p.clone())
            .collect()
    }
}

impl LargeApp for RecorderBiz {
    type Payload = String;
    type LeafState = Vec<String>;

    fn on_lbcast(
        &mut self,
        lgid: LargeGroupId,
        origin: Pid,
        payload: &String,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.lbcasts.push((lgid, origin, payload.clone()));
    }

    fn on_leaf_cast(
        &mut self,
        leaf: GroupId,
        from: Pid,
        _kind: CastKind,
        payload: &String,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.leaf_casts.push((leaf, from, payload.clone()));
    }

    fn on_direct(&mut self, from: Pid, payload: &String, _up: &mut LargeUplink<'_, '_, '_, Self>) {
        self.directs.push((from, payload.clone()));
    }

    fn on_joined_large(
        &mut self,
        lgid: LargeGroupId,
        leaf: GroupId,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.joined.push((lgid, leaf));
    }

    fn on_left_large(&mut self, lgid: LargeGroupId, _up: &mut LargeUplink<'_, '_, '_, Self>) {
        self.left.push(lgid);
    }

    fn on_lbcast_status(
        &mut self,
        _lgid: LargeGroupId,
        id: LbcastId,
        status: LbcastStatus,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.statuses.push((id, status));
    }

    fn export_leaf_state(&self, lgid: LargeGroupId, _leaf: GroupId) -> Vec<String> {
        self.lbcast_payloads(lgid)
    }

    fn import_leaf_state(&mut self, _lgid: LargeGroupId, _leaf: GroupId, state: Vec<String>) {
        self.imported = Some(state);
    }

    fn payload_bytes(p: &String) -> usize {
        p.len()
    }
}

/// The simulated process type of a hierarchical deployment.
pub type HierProc = IsisProcess<HierApp<RecorderBiz>>;

/// Builds a large group of `n` members over an arbitrary business
/// application type, and waits for formation. Returns
/// `(sim, leader pids, member pids)`; the large group id is
/// [`LargeGroupId`]`(1)`.
///
/// The factory is called for every process: first for the
/// `cfg.resiliency` leader-group members (indices `0..r`), then for the
/// `n` members.
pub fn generic_large_cluster<B: LargeApp>(
    n: usize,
    cfg: LargeGroupConfig,
    icfg: IsisConfig,
    scfg: SimConfig,
    mut mk: impl FnMut(usize) -> B,
) -> (Sim<IsisProcess<HierApp<B>>>, Vec<Pid>, Vec<Pid>) {
    let lgid = LargeGroupId(1);
    let mut sim: Sim<IsisProcess<HierApp<B>>> = Sim::new(scfg);
    let nleaders = cfg.resiliency.max(1);
    let leaders: Vec<Pid> = (0..nleaders)
        .map(|i| {
            let nd = sim.add_nodes(1)[0];
            sim.spawn(
                nd,
                IsisProcess::new(HierApp::with_timers(mk(i), cfg.clone()), icfg.clone()),
            )
        })
        .collect();
    let cfg2 = cfg.clone();
    sim.invoke(leaders[0], move |p, ctx| {
        p.with_app(ctx, move |app, up| app.create_large(lgid, cfg2, up));
    });
    for &l in &leaders[1..] {
        let contact = leaders[0];
        sim.invoke(l, move |p, ctx| {
            p.with_app(ctx, move |app, up| app.join_leader_group(lgid, contact, up));
        });
    }
    let deadline = sim.now() + SimDuration::from_secs(60);
    while sim.now() < deadline {
        let formed = leaders.iter().all(|&l| {
            sim.process(l)
                .view_of(lgid.leader_gid())
                .is_some_and(|v| v.size() == nleaders)
        });
        if formed {
            break;
        }
        assert!(sim.step(), "leader group never formed");
    }
    let members: Vec<Pid> = (0..n)
        .map(|i| {
            let nd = sim.add_nodes(1)[0];
            let p = sim.spawn(
                nd,
                IsisProcess::new(
                    HierApp::with_timers(mk(nleaders + i), cfg.clone()),
                    icfg.clone(),
                ),
            );
            let contact = leaders[0];
            sim.invoke(p, move |proc_, ctx| {
                proc_.with_app(ctx, move |app, up| app.join_large(lgid, contact, up));
            });
            p
        })
        .collect();
    let deadline = sim.now() + SimDuration::from_secs(1_200);
    loop {
        let joined = members
            .iter()
            .all(|&m| sim.process(m).app().is_large_member(lgid));
        let accounted = sim
            .process(leaders[0])
            .app()
            .leader_view(lgid)
            .is_some_and(|v| v.total_members() == n);
        if joined && accounted {
            return (sim, leaders, members);
        }
        if sim.now() >= deadline {
            panic!(
                "generic large cluster of {n} failed to form (joined={}, accounted={:?})",
                members
                    .iter()
                    .filter(|&&m| sim.process(m).app().is_large_member(lgid))
                    .count(),
                sim.process(leaders[0])
                    .app()
                    .leader_view(lgid)
                    .map(|v| v.total_members()),
            );
        }
        if !sim.step() {
            sim.run_for(SimDuration::from_millis(100));
        }
    }
}

/// A fully formed large group inside a simulation.
pub struct LargeCluster {
    /// The simulator.
    pub sim: Sim<HierProc>,
    /// The large group id.
    pub lgid: LargeGroupId,
    /// Leader-group member pids.
    pub leaders: Vec<Pid>,
    /// Large-group member pids, in join order.
    pub members: Vec<Pid>,
    /// The structural configuration used.
    pub cfg: LargeGroupConfig,
}

/// Builds a large group of `n` members managed by a `cfg.resiliency`-sized
/// leader group, over an ideal network, and waits for formation.
pub fn large_cluster(n: usize, cfg: LargeGroupConfig, seed: u64) -> LargeCluster {
    large_cluster_with(n, cfg, IsisConfig::default(), SimConfig::ideal(seed))
}

/// Like [`large_cluster`] but over a LAN latency model.
pub fn large_cluster_lan(n: usize, cfg: LargeGroupConfig, seed: u64) -> LargeCluster {
    large_cluster_with(n, cfg, IsisConfig::default(), SimConfig::lan(seed))
}

/// Fully parameterised builder.
pub fn large_cluster_with(
    n: usize,
    cfg: LargeGroupConfig,
    icfg: IsisConfig,
    scfg: SimConfig,
) -> LargeCluster {
    let (mut sim, leaders, members) =
        generic_large_cluster(n, cfg.clone(), icfg.clone(), scfg, |_| {
            RecorderBiz::default()
        });
    // A restarted workstation comes back as a brand-new process: same pid,
    // fresh incarnation, empty protocol and business state. Everything it
    // knew must be re-learned through rejoin + state transfer.
    let rcfg = cfg.clone();
    sim.set_respawn(move |_pid| {
        IsisProcess::new(
            HierApp::with_timers(RecorderBiz::default(), rcfg.clone()),
            icfg.clone(),
        )
    });
    LargeCluster {
        sim,
        lgid: LargeGroupId(1),
        leaders,
        members,
        cfg,
    }
}

impl LargeCluster {
    /// Runs until every member completed admission and the leader's view
    /// accounts for all of them.
    pub fn await_formation(&mut self, limit: SimDuration) {
        let lgid = self.lgid;
        let want = self.members.iter().filter(|&&m| self.sim.is_alive(m)).count();
        let deadline = self.sim.now() + limit;
        loop {
            let joined = self
                .members
                .iter()
                .filter(|&&m| self.sim.is_alive(m))
                .all(|&m| self.sim.process(m).app().is_large_member(lgid));
            let accounted = self
                .leader_hier_view()
                .is_some_and(|v| v.total_members() == want);
            if joined && accounted {
                return;
            }
            if self.sim.now() >= deadline {
                panic!(
                    "large group did not form by {}: joined={} accounted={:?}",
                    self.sim.now(),
                    self.members
                        .iter()
                        .filter(|&&m| {
                            self.sim.is_alive(m)
                                && self.sim.process(m).app().is_large_member(lgid)
                        })
                        .count(),
                    self.leader_hier_view().map(|v| (v.num_leaves(), v.total_members())),
                );
            }
            if !self.sim.step() {
                self.sim.run_for(SimDuration::from_millis(200));
            }
        }
    }

    /// The hierarchy view held by the first live leader member.
    pub fn leader_hier_view(&self) -> Option<&crate::view::HierView> {
        self.leaders
            .iter()
            .find(|&&l| self.sim.is_alive(l))
            .and_then(|&l| self.sim.process(l).app().leader_view(self.lgid))
    }

    /// Broadcasts from `origin` to the whole large group.
    pub fn lbcast(&mut self, origin: Pid, payload: &str) -> Option<LbcastId> {
        let lgid = self.lgid;
        let pl = payload.to_owned();
        self.sim
            .invoke(origin, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.lbcast(lgid, pl, up))
            })
            .flatten()
    }

    /// Runs the simulation for `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Runs until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Live member pids.
    pub fn live_members(&self) -> Vec<Pid> {
        self.members
            .iter()
            .copied()
            .filter(|&m| self.sim.is_alive(m))
            .collect()
    }

    /// Broadcast payload logs of all live members.
    pub fn lbcast_logs(&self) -> Vec<(Pid, Vec<String>)> {
        self.live_members()
            .iter()
            .map(|&m| {
                (
                    m,
                    self.sim.process(m).app().biz().lbcast_payloads(self.lgid),
                )
            })
            .collect()
    }

    /// Asserts every live member delivered the same broadcast payloads in
    /// the same order.
    pub fn assert_uniform_lbcast_logs(&self) {
        let logs = self.lbcast_logs();
        let Some((p0, first)) = logs.first() else {
            return;
        };
        for (p, log) in &logs[1..] {
            assert_eq!(log, first, "lbcast logs diverge between {p0} and {p}");
        }
    }

    /// Restarts a crashed process under a fresh incarnation and immediately
    /// starts its rejoin through the first live leader. Returns the new
    /// incarnation number, or `None` (a no-op) if the pid is still alive.
    /// A former leader-group member comes back as a plain leaf member —
    /// roles are re-earned, never resumed.
    ///
    /// The recovered workstation re-enters as a leaf of whatever leaf group
    /// the leader assigns — possibly a different one than before its crash —
    /// and re-earns any rep role through ordinary view coordination.
    pub fn restart_member(&mut self, m: Pid) -> Option<u32> {
        let inc = self.sim.restart(m)?;
        let lgid = self.lgid;
        if let Some(contact) = self.leaders.iter().copied().find(|&l| self.sim.is_alive(l)) {
            self.sim.invoke(m, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.join_large(lgid, contact, up));
            });
        }
        Some(inc)
    }

    /// The member currently acting as root representative, if any.
    pub fn root_rep(&self) -> Option<Pid> {
        let v = self.leader_hier_view()?;
        v.root().and_then(|l| l.rep())
    }

    /// The leaf (isis) view a member currently belongs to.
    pub fn leaf_view_of(&self, m: Pid) -> Option<GroupView> {
        let leaf = self.sim.process(m).app().leaf_of(self.lgid)?;
        self.sim.process(m).view_of(leaf).cloned()
    }
}
