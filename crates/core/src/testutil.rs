//! Test and experiment scaffolding: a recording application and cluster
//! builders used by the test suites of every crate in the workspace.

use now_sim::{NodeId, Pid, Sim, SimConfig, SimDuration};

use crate::app::{Application, Uplink};
use crate::config::IsisConfig;
use crate::process::IsisProcess;
use crate::types::{CastKind, GroupId, GroupView, MsgId};

/// An application that records everything that happens to it. Its state
/// snapshot is the log of delivered payloads, so state transfer is
/// observable.
#[derive(Default, Debug)]
pub struct RecorderApp {
    /// Delivered casts in delivery order: `(gid, from, kind, payload)`.
    pub delivered: Vec<(GroupId, Pid, CastKind, String)>,
    /// Views in installation order.
    pub views: Vec<GroupView>,
    /// Direct messages received.
    pub directs: Vec<(Pid, String)>,
    /// Groups joined (first view containing us).
    pub joined: Vec<GroupId>,
    /// Groups left or excluded from.
    pub left: Vec<GroupId>,
    /// Groups stalled in a minority partition.
    pub stalled: Vec<GroupId>,
    /// Ack progress of our acked casts.
    pub acks: Vec<(MsgId, usize)>,
    /// Join denials received.
    pub denied: Vec<GroupId>,
    /// State installed at join time, if any.
    pub imported: Option<Vec<String>>,
}

impl RecorderApp {
    /// Payloads delivered for `gid`, in order.
    pub fn payloads(&self, gid: GroupId) -> Vec<String> {
        self.delivered
            .iter()
            .filter(|(g, _, _, _)| *g == gid)
            .map(|(_, _, _, p)| p.clone())
            .collect()
    }
}

impl Application for RecorderApp {
    type Payload = String;
    type State = Vec<String>;

    fn on_deliver(
        &mut self,
        gid: GroupId,
        from: Pid,
        kind: CastKind,
        payload: &String,
        _up: &mut Uplink<'_, '_, Self>,
    ) {
        self.delivered.push((gid, from, kind, payload.clone()));
    }

    fn on_direct(&mut self, from: Pid, payload: &String, _up: &mut Uplink<'_, '_, Self>) {
        self.directs.push((from, payload.clone()));
    }

    fn on_view(&mut self, view: &GroupView, joined: bool, _up: &mut Uplink<'_, '_, Self>) {
        if joined {
            self.joined.push(view.gid);
        }
        self.views.push(view.clone());
    }

    fn on_left(&mut self, gid: GroupId, _up: &mut Uplink<'_, '_, Self>) {
        self.left.push(gid);
    }

    fn on_stall(&mut self, gid: GroupId, _up: &mut Uplink<'_, '_, Self>) {
        self.stalled.push(gid);
    }

    fn on_cast_ack(&mut self, _gid: GroupId, id: MsgId, count: usize, _up: &mut Uplink<'_, '_, Self>) {
        self.acks.push((id, count));
    }

    fn on_join_denied(&mut self, gid: GroupId, _up: &mut Uplink<'_, '_, Self>) {
        self.denied.push(gid);
    }

    fn export_state(&self, gid: GroupId) -> Vec<String> {
        self.payloads(gid)
    }

    fn import_state(&mut self, _gid: GroupId, state: Vec<String>) {
        self.imported = Some(state);
    }

    fn payload_bytes(p: &String) -> usize {
        p.len()
    }
}

/// Builds `n` processes of an arbitrary application type, all members of
/// `gid`, over the given sim config. Returns once membership converged.
///
/// The factory is called once per process (index `0..n`); extra client
/// processes can be spawned afterwards on new nodes.
pub fn generic_cluster<A: Application>(
    n: usize,
    gid: GroupId,
    icfg: IsisConfig,
    sim_cfg: SimConfig,
    mut mk: impl FnMut(usize) -> A,
) -> (Sim<IsisProcess<A>>, Vec<Pid>) {
    assert!(n >= 1);
    let mut sim: Sim<IsisProcess<A>> = Sim::new(sim_cfg);
    let nodes = sim.add_nodes(n);
    let pids: Vec<Pid> = nodes
        .iter()
        .enumerate()
        .map(|(i, &nd)| sim.spawn(nd, IsisProcess::new(mk(i), icfg.clone())))
        .collect();
    sim.invoke(pids[0], |p, ctx| p.create_group(gid, ctx).expect("fresh gid cannot collide"));
    for &p in &pids[1..] {
        let contact = pids[0];
        sim.invoke(p, move |proc_, ctx| proc_.join(gid, contact, ctx).expect("group was just created"));
    }
    let deadline = sim.now() + SimDuration::from_secs(300);
    loop {
        let formed = pids
            .iter()
            .all(|&p| sim.process(p).view_of(gid).is_some_and(|v| v.size() == n));
        if formed {
            return (sim, pids);
        }
        if sim.now() >= deadline {
            panic!("generic cluster of {n} did not form");
        }
        if !sim.step() {
            sim.run_for(SimDuration::from_millis(100));
        }
    }
}

/// A simulated cluster of [`RecorderApp`] processes all belonging to one
/// group.
pub struct Cluster {
    /// The simulator.
    pub sim: Sim<IsisProcess<RecorderApp>>,
    /// Member pids, in spawn (= join) order.
    pub pids: Vec<Pid>,
    /// Their host nodes.
    pub nodes: Vec<NodeId>,
    /// The group everyone joined.
    pub gid: GroupId,
}

/// Builds `n` processes on `n` nodes, all members of one group.
///
/// The first pid creates the group; the rest join through it. Panics if the
/// cluster fails to form within a generous simulated-time bound.
pub fn cluster(n: usize, cfg: IsisConfig, seed: u64) -> Cluster {
    cluster_with_net(n, cfg, SimConfig::ideal(seed))
}

/// Like [`cluster`] but over a realistic LAN latency model.
pub fn cluster_lan(n: usize, cfg: IsisConfig, seed: u64) -> Cluster {
    cluster_with_net(n, cfg, SimConfig::lan(seed))
}

fn cluster_with_net(n: usize, cfg: IsisConfig, sim_cfg: SimConfig) -> Cluster {
    let gid = GroupId(1);
    let (sim, pids) = generic_cluster(n, gid, cfg, sim_cfg, |_| RecorderApp::default());
    let nodes = pids.iter().map(|&p| sim.node_of(p)).collect();
    Cluster { sim, pids, nodes, gid }
}

impl Cluster {
    /// Runs until every live process agrees on a view of `expect` members,
    /// panicking after `limit`.
    pub fn await_membership(&mut self, expect: usize, limit: SimDuration) {
        let deadline = self.sim.now() + limit;
        loop {
            // Converged when exactly `expect` live processes are members
            // and every member's view has `expect` members.
            let member_pids: Vec<Pid> = self
                .live_members()
                .into_iter()
                .filter(|&p| self.sim.process(p).is_member(self.gid))
                .collect();
            let agreed = member_pids.len() == expect
                && member_pids.iter().all(|&p| {
                    self.sim
                        .process(p)
                        .view_of(self.gid)
                        .is_some_and(|v| v.size() == expect)
                });
            if agreed {
                return;
            }
            if self.sim.now() >= deadline || !self.sim.step() {
                let views: Vec<String> = self
                    .pids
                    .iter()
                    .map(|&p| {
                        format!(
                            "{p}: {:?}",
                            self.sim.process(p).view_of(self.gid).map(|v| (
                                v.view_id,
                                v.members.clone()
                            ))
                        )
                    })
                    .collect();
                panic!(
                    "membership did not converge to {expect} by {}: {views:#?}",
                    self.sim.now()
                );
            }
        }
    }

    /// Pids still alive in the simulation.
    pub fn live_members(&self) -> Vec<Pid> {
        self.pids
            .iter()
            .copied()
            .filter(|&p| self.sim.is_alive(p))
            .collect()
    }

    /// Casts from `from` and runs until quiescence or `limit`.
    pub fn cast_and_settle(&mut self, from: Pid, kind: CastKind, payload: &str) {
        let gid = self.gid;
        let pl = payload.to_owned();
        self.sim
            .invoke(from, move |p, ctx| p.cast(gid, kind, pl, ctx).expect("caster is a member"))
            .expect("caster is alive");
        self.settle();
    }

    /// Runs for a generous bound or until the event queue drains.
    pub fn settle(&mut self) {
        let limit = self.sim.now() + SimDuration::from_secs(30);
        self.sim.run_until(limit);
    }

    /// The payload logs of all live members, for agreement checks.
    pub fn live_logs(&self) -> Vec<(Pid, Vec<String>)> {
        self.live_members()
            .iter()
            .map(|&p| (p, self.sim.process(p).app().payloads(self.gid)))
            .collect()
    }

    /// Asserts every live member delivered exactly the same payload
    /// sequence (order-sensitive).
    pub fn assert_identical_logs(&self) {
        let logs = self.live_logs();
        let Some((first_pid, first)) = logs.first() else {
            return;
        };
        for (p, log) in &logs[1..] {
            assert_eq!(
                log, first,
                "delivery logs diverge between {first_pid} and {p}"
            );
        }
    }

    /// Asserts every live member delivered the same payload *set* (order
    /// may differ; used for causal casts of concurrent messages).
    pub fn assert_identical_sets(&self) {
        let mut logs = self.live_logs();
        for (_, l) in logs.iter_mut() {
            l.sort();
        }
        let Some((first_pid, first)) = logs.first() else {
            return;
        };
        for (p, log) in &logs[1..] {
            assert_eq!(
                log, first,
                "delivery sets diverge between {first_pid} and {p}"
            );
        }
    }
}
