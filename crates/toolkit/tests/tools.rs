//! End-to-end tests of the toolkit tools, flat and hierarchical.

use std::collections::BTreeMap;

use isis_core::testutil::generic_cluster;
use isis_core::{Application, GroupId, IsisConfig, IsisProcess, Uplink};
use isis_hier::harness::generic_large_cluster;
use isis_hier::{HierApp, LargeGroupConfig, LargeGroupId, LargeUplink};
use isis_toolkit::flat::FlatService;
use isis_toolkit::hier::{home_leaf, Directory, LeafServiceApp};
use isis_toolkit::{KvState, ReqId};
use now_sim::{Pid, Sim, SimConfig, SimDuration};

const GID: GroupId = GroupId(7);
const LGID: LargeGroupId = LargeGroupId(1);
const RETRY: SimDuration = SimDuration::from_millis(1_500);

// ---------------------------------------------------------------------
// Coordinator-cohort, over a flat group and over a hier leaf
// ---------------------------------------------------------------------

fn flat_svc_cluster(
    n: usize,
    icfg: IsisConfig,
    seed: u64,
) -> (Sim<IsisProcess<FlatService>>, Vec<Pid>, Pid) {
    let (mut sim, pids) = generic_cluster(
        n,
        GID,
        icfg.clone(),
        SimConfig::ideal(seed),
        |_| FlatService::new(GID),
    );
    // A client outside the group.
    let nd = sim.add_nodes(1)[0];
    let client = sim.spawn(nd, IsisProcess::new(FlatService::new(GID), icfg));
    (sim, pids, client)
}

/// What a test reads of one process's coordinator-cohort tool.
struct Seen<'a> {
    state: &'a KvState,
    replies: &'a BTreeMap<ReqId, String>,
    executed: usize,
    logged: usize,
}

/// A process type that runs the coordinator-cohort tool.
trait Svc: Application {
    fn seen(&self) -> Seen<'_>;
    fn send(&mut self, to: &[Pid], body: &str, retry: SimDuration, up: &mut Uplink<'_, '_, Self>)
        -> ReqId;
}

impl Svc for FlatService {
    fn seen(&self) -> Seen<'_> {
        let (executed, logged) = (self.cohort.executed.len(), self.cohort.pending_len());
        Seen { state: &self.state, replies: &self.replies, executed, logged }
    }
    fn send(&mut self, to: &[Pid], body: &str, retry: SimDuration, up: &mut Uplink<'_, '_, Self>)
        -> ReqId {
        self.retry = retry;
        self.send_request(to, body, up)
    }
}

impl Svc for HierApp<LeafServiceApp> {
    fn seen(&self) -> Seen<'_> {
        let b = self.biz();
        let (executed, logged) = (b.cohort.executed.len(), b.cohort.pending_len());
        Seen { state: &b.state, replies: &b.replies, executed, logged }
    }
    fn send(&mut self, to: &[Pid], body: &str, retry: SimDuration, up: &mut Uplink<'_, '_, Self>)
        -> ReqId {
        let mut req = None;
        self.with_business(up, |biz, lup| {
            biz.retry = retry;
            req = Some(biz.send_request_to(to, body, lup));
        });
        req.expect("with_business runs its callback")
    }
}

/// One service group, its coordinator first, and a client outside it.
struct Rig<A: Svc> {
    sim: Sim<IsisProcess<A>>,
    members: Vec<Pid>,
    client: Pid,
}

impl Rig<FlatService> {
    fn flat(n: usize, seed: u64) -> Self {
        let (sim, members, client) = flat_svc_cluster(n, IsisConfig::default(), seed);
        Rig { sim, members, client }
    }
}

impl Rig<HierApp<LeafServiceApp>> {
    /// The first leaf of at least `n` members in a 12-member hierarchy.
    fn hier(n: usize, seed: u64) -> Self {
        let (mut sim, _, all) = hier_cluster(12, seed);
        let mut by_leaf: BTreeMap<GroupId, Vec<Pid>> = BTreeMap::new();
        for &m in &all {
            let leaf = sim.process(m).app().leaf_of(LGID).expect("formed");
            by_leaf.entry(leaf).or_default().push(m);
        }
        let mut members = by_leaf
            .into_values()
            .find(|leaf| leaf.len() >= n)
            .expect("a large enough leaf");
        members.sort_by_key(|&m| !sim.process(m).app().is_rep(LGID));
        let client = hier_client(&mut sim);
        Rig { sim, members, client }
    }
}

impl<A: Svc> Rig<A> {
    /// The client sends `body` to every member, resending every `retry`.
    fn send(&mut self, body: &str, retry: SimDuration) -> ReqId {
        let to = &self.members;
        self.sim
            .invoke(self.client, |p, ctx| p.with_app(ctx, |app, up| app.send(to, body, retry, up)))
            .expect("the client is alive")
    }

    fn seen(&self, p: Pid) -> Seen<'_> {
        self.sim.process(p).app().seen()
    }

    fn value(&self, p: Pid, key: &str) -> Option<&str> {
        self.seen(p).state.get(key).map(String::as_str)
    }

    fn executions(&self, members: &[Pid]) -> usize {
        members.iter().map(|&m| self.seen(m).executed).sum()
    }
}

fn round_trip_and_replication<A: Svc>(mut rig: Rig<A>) {
    let req = rig.send("PUT x 42", RETRY);
    rig.sim.run_for(SimDuration::from_secs(5));
    assert_eq!(rig.seen(rig.client).replies.get(&req).map(String::as_str), Some("OK"));
    // Every member replicated the write and emptied its log.
    for &m in &rig.members {
        assert_eq!(rig.value(m, "x"), Some("42"), "replica {m} missing the write");
        assert_eq!(rig.seen(m).logged, 0);
    }
    // Exactly one member executed it.
    assert_eq!(rig.executions(&rig.members), 1);
}

#[test]
fn flat_service_round_trip_and_replication() {
    round_trip_and_replication(Rig::flat(5, 1));
    round_trip_and_replication(Rig::hier(2, 1));
}

#[test]
fn flat_service_costs_exactly_2n_messages() {
    // The paper: "a service request will involve 2n messages in the
    // absence of process failures, and will require action by all n
    // members". Quiet config: the only traffic is the request itself.
    for n in [2usize, 4, 8, 16] {
        let (mut sim, pids, client) = flat_svc_cluster(n, IsisConfig::quiet(), 5);
        sim.run_for(SimDuration::from_secs(2));
        sim.stats_mut().reset_window();
        let members = pids.clone();
        sim.invoke(client, move |p, ctx| {
            p.with_app(ctx, |app, up| app.send_request(&members, "PUT k v", up))
        });
        sim.run_for(SimDuration::from_secs(2));
        let sent = sim.stats().messages_sent;
        assert_eq!(
            sent as usize,
            2 * n,
            "flat request with n={n} should cost exactly 2n messages"
        );
        // ... and every member acted (received + processed the request).
        for &m in &pids {
            assert!(sim.stats().proc(m).received >= 1);
        }
    }
}

fn survives_coordinator_crash<A: Svc>(mut rig: Rig<A>) {
    // Killing the coordinator while the request is in flight is racy, so
    // kill it and then send: the cohorts log the request, and the takeover
    // runs when the view changes.
    rig.sim.crash(rig.members[0]);
    let req = rig.send("PUT y 7", RETRY);
    rig.sim.run_for(SimDuration::from_secs(20));
    let reply = rig.seen(rig.client).replies.get(&req).map(String::as_str);
    assert_eq!(reply, Some("OK"), "client reply after coordinator failover");
    let survivors = &rig.members[1..];
    for &m in survivors {
        assert_eq!(rig.value(m, "y"), Some("7"));
    }
    assert_eq!(rig.executions(survivors), 1);
    assert_eq!(rig.sim.stats().counter("tool.svc.takeover_exec"), 1);
}

#[test]
fn flat_service_survives_coordinator_crash() {
    survives_coordinator_crash(Rig::flat(5, 9));
    // Three members, so the leaf keeps two and does not dissolve.
    survives_coordinator_crash(Rig::hier(3, 9));
}

fn no_duplicate_execution_under_retry<A: Svc>(mut rig: Rig<A>) {
    // A retry interval shorter than one round trip: the client resends
    // before the reply can arrive, so members see the request again after
    // it was executed.
    rig.send("ADD counter 1", SimDuration::from_micros(1));
    rig.sim.run_for(SimDuration::from_secs(5));
    assert!(rig.sim.stats().counter("tool.svc.client_retry") > 0, "no retry fired");
    for &m in &rig.members {
        assert_eq!(rig.value(m, "counter"), Some("1"), "retries must not re-execute at {m}");
    }
    assert_eq!(rig.executions(&rig.members), 1);
}

#[test]
fn flat_service_no_duplicate_execution_under_retry() {
    no_duplicate_execution_under_retry(Rig::flat(4, 13));
    no_duplicate_execution_under_retry(Rig::hier(2, 13));
}

// ---------------------------------------------------------------------
// Hierarchical service
// ---------------------------------------------------------------------

type HierSim = Sim<IsisProcess<HierApp<LeafServiceApp>>>;

/// A formed hierarchy of `n` service members under two leaders: the sim,
/// the leaders and the members.
fn hier_cluster(n: usize, seed: u64) -> (HierSim, Vec<Pid>, Vec<Pid>) {
    generic_large_cluster(
        n,
        LargeGroupConfig::new(2, 3),
        IsisConfig::default(),
        SimConfig::ideal(seed),
        |_| LeafServiceApp::new(LGID),
    )
}

fn directory(sim: &HierSim, leader: Pid) -> Directory {
    sim.process(leader)
        .app()
        .leader_view(LGID)
        .expect("leader view")
        .leaves
        .iter()
        .map(|l| (l.gid, l.contacts.clone()))
        .collect()
}

/// Runs `f` on `p`'s business application, as an external prod.
fn biz<R>(
    sim: &mut HierSim,
    p: Pid,
    f: impl FnOnce(&mut LeafServiceApp, &mut LargeUplink<'_, '_, '_, LeafServiceApp>) -> R,
) -> R {
    sim.invoke(p, |proc_, ctx| {
        proc_.with_app(ctx, |app, up| {
            let mut out = None;
            app.with_business(up, |b, lup| out = Some(f(b, lup)));
            out.expect("with_business runs its callback")
        })
    })
    .expect("the process is alive")
}

/// A client of the hierarchical service that joins nothing; it just
/// talks to leaf contacts.
fn hier_client(sim: &mut HierSim) -> Pid {
    let nd = sim.add_nodes(1)[0];
    let app = HierApp::new(LeafServiceApp::new(LGID));
    sim.spawn(nd, IsisProcess::new(app, IsisConfig::default()))
}

#[test]
fn hier_service_routes_by_key_and_replies() {
    let (mut sim, leaders, members) = hier_cluster(12, 41);
    let dir = directory(&sim, leaders[0]);
    let client = hier_client(&mut sim);
    let req = biz(&mut sim, client, |b, up| b.send_request(&dir, "PUT alpha 9", up));
    sim.run_for(SimDuration::from_secs(5));
    let reply = sim.process(client).app().biz().replies.get(&req).cloned();
    assert_eq!(reply.as_deref(), Some("OK"));
    // The owning leaf replicated the key; other leaves did not see it.
    let holders = members
        .iter()
        .filter(|&&m| sim.process(m).app().biz().state.get("alpha").is_some())
        .count();
    assert!(holders >= 2, "write must be replicated within the home leaf");
    assert!(
        holders <= 7,
        "write must not spread beyond one leaf (+joins)"
    );
}

/// A write acknowledged by a two-member leaf survives when the leaf loses
/// its rep and dissolves: the survivor executes the write, then carries
/// its shard through every migration into a leaf that stays.
#[test]
fn acknowledged_write_survives_its_home_leaf_dissolving() {
    let (mut sim, leaders, members) = hier_cluster(12, 41);
    let dir = directory(&sim, leaders[0]);
    let home = home_leaf(&dir, "y").0;
    let leaf: Vec<Pid> = members
        .iter()
        .copied()
        .filter(|&m| sim.process(m).app().leaf_of(LGID) == Some(home))
        .collect();
    assert_eq!(leaf.len(), 2, "precondition: y's home leaf has two members");
    let rep = *leaf
        .iter()
        .find(|&&m| sim.process(m).app().is_rep(LGID))
        .expect("the leaf has a rep");
    sim.crash(rep);
    let client = hier_client(&mut sim);
    let req = biz(&mut sim, client, |b, up| b.send_request(&dir, "ADD y 7", up));
    sim.run_for(SimDuration::from_secs(20));
    let reply = sim.process(client).app().biz().replies.get(&req).cloned();
    assert_eq!(reply.as_deref(), Some("7"), "the write was acknowledged");
    assert_eq!(
        read_key(&sim, &members, "y").as_deref(),
        Some("7"),
        "no live member holds the acknowledged write to y"
    );
}

#[test]
fn hier_txn_commits_across_leaves() {
    let (mut sim, leaders, members) = hier_cluster(12, 43);
    let dir = directory(&sim, leaders[0]);
    assert!(dir.len() >= 2, "need multiple leaves for a distributed txn");
    let initiator = members[0];
    // Find two keys living in different leaves.
    let (k1, k2) = two_keys_in_different_leaves(&dir);
    let writes = vec![
        (k1.clone(), "100".to_string()),
        (k2.clone(), "200".to_string()),
    ];
    let txn = biz(&mut sim, initiator, |b, up| b.begin_txn(&dir, &writes, up));
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(
        sim.process(initiator).app().biz().txn_results.get(&txn),
        Some(&true),
        "transaction must commit"
    );
    // Both leaves applied their writes.
    let v1 = read_key(&sim, &members, &k1);
    let v2 = read_key(&sim, &members, &k2);
    assert_eq!(v1.as_deref(), Some("100"));
    assert_eq!(v2.as_deref(), Some("200"));
}

fn two_keys_in_different_leaves(dir: &Directory) -> (String, String) {
    let mut k1: Option<(String, usize)> = None;
    for i in 0..1_000 {
        let k = format!("key{i}");
        let shard = isis_toolkit::shard_of(&k, dir.len());
        match &k1 {
            None => k1 = Some((k, shard)),
            Some((first, s1)) if shard != *s1 => {
                return (first.clone(), k);
            }
            _ => {}
        }
    }
    panic!("could not find keys in two leaves");
}

/// `key` as the first live member holding it has it.
fn read_key(sim: &HierSim, members: &[Pid], key: &str) -> Option<String> {
    members
        .iter()
        .filter(|&&m| sim.is_alive(m))
        .find_map(|&m| sim.process(m).app().biz().state.get(key).cloned())
}

#[test]
fn hier_txn_conflict_aborts_one() {
    let (mut sim, leaders, members) = hier_cluster(12, 47);
    let dir = directory(&sim, leaders[0]);
    let (k1, k2) = two_keys_in_different_leaves(&dir);
    let (a, b) = (members[0], members[1]);
    let writes_a = vec![(k1.clone(), "A".into()), (k2.clone(), "A".into())];
    let writes_b = vec![(k2.clone(), "B".into()), (k1.clone(), "B".into())];
    let ta = biz(&mut sim, a, |b, up| b.begin_txn(&dir, &writes_a, up));
    let tb = biz(&mut sim, b, |b, up| b.begin_txn(&dir, &writes_b, up));
    sim.run_for(SimDuration::from_secs(30));
    let ra = sim.process(a).app().biz().txn_results.get(&ta).copied();
    let rb = sim.process(b).app().biz().txn_results.get(&tb).copied();
    // At least one aborts (lock conflict); both committing would be a
    // serializability violation given the opposite lock orders.
    assert!(
        !(ra == Some(true) && rb == Some(true)),
        "conflicting transactions both committed: {ra:?} {rb:?}"
    );
    assert!(ra.is_some() && rb.is_some(), "both must terminate: {ra:?} {rb:?}");
    // Values are consistent: both keys hold the same writer's value (or
    // one txn fully won and the other fully lost).
    let v1 = read_key(&sim, &members, &k1);
    let v2 = read_key(&sim, &members, &k2);
    if ra == Some(true) {
        assert_eq!((v1.as_deref(), v2.as_deref()), (Some("A"), Some("A")));
    } else if rb == Some(true) {
        assert_eq!((v1.as_deref(), v2.as_deref()), (Some("B"), Some("B")));
    }
}
