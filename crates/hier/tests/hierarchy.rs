//! End-to-end tests of hierarchical large groups: formation, tree
//! broadcast semantics, failure scoping, split/merge, leader failover, and
//! the paper's structural bounds.

use isis_core::IsisMsg;
use isis_hier::config::LargeGroupConfig;
use isis_hier::harness::{large_cluster, large_cluster_lan, LargeCluster};
use isis_hier::msg::{CtlMsg, HierPayload, LbcastStatus, TreeMsg};
use now_sim::{Pid, SimDuration};

fn settle(c: &mut LargeCluster, secs: u64) {
    c.run_for(SimDuration::from_secs(secs));
}

// ---------------------------------------------------------------------
// Formation and structure
// ---------------------------------------------------------------------

#[test]
fn formation_builds_bounded_leaves() {
    let cfg = LargeGroupConfig::new(2, 3); // min_leaf 2, max_leaf 5.
    let c = large_cluster(24, cfg.clone(), 1);
    let v = c.leader_hier_view().expect("leader view");
    assert_eq!(v.total_members(), 24);
    assert!(v.num_leaves() >= 24 / cfg.max_leaf);
    for leaf in &v.leaves {
        assert!(
            leaf.size <= cfg.max_leaf,
            "leaf {:?} oversize: {}",
            leaf.gid,
            leaf.size
        );
        assert!(leaf.size >= cfg.min_leaf, "leaf {:?} undersize", leaf.gid);
    }
}

#[test]
fn every_member_belongs_to_exactly_one_leaf() {
    let c = large_cluster(18, LargeGroupConfig::new(2, 3), 3);
    let v = c.leader_hier_view().unwrap().clone();
    let mut assigned: Vec<Pid> = Vec::new();
    for &m in &c.members {
        let leaf = c.sim.process(m).app().leaf_of(c.lgid).expect("has leaf");
        assert!(v.index_of(leaf).is_some(), "member leaf unknown to leader");
        assigned.push(m);
        // The member's isis view matches its assignment.
        let lv = c.leaf_view_of(m).expect("leaf view");
        assert!(lv.contains(m));
        assert_eq!(lv.gid, leaf);
    }
    assigned.sort();
    assigned.dedup();
    assert_eq!(assigned.len(), 18);
}

#[test]
fn member_storage_is_bounded_while_flat_grows() {
    // The paper's E7 claim at test scale: a hierarchical member's
    // membership storage is independent of total group size.
    let small = large_cluster(12, LargeGroupConfig::new(2, 3), 5);
    let large = large_cluster(60, LargeGroupConfig::new(2, 3), 5);
    let max_member_bytes = |c: &LargeCluster| {
        c.members
            .iter()
            .filter(|&&m| !c.sim.process(m).app().is_rep(c.lgid))
            .map(|&m| {
                c.sim.process(m).app().hier_storage_bytes()
                    + c.sim
                        .process(m)
                        .total_membership_storage_bytes()
            })
            .max()
            .unwrap()
    };
    let s = max_member_bytes(&small);
    let l = max_member_bytes(&large);
    assert!(
        l <= s * 2,
        "plain member storage must not scale with group size: {s} -> {l}"
    );
}

// ---------------------------------------------------------------------
// Tree broadcast
// ---------------------------------------------------------------------

#[test]
fn lbcast_reaches_every_member_exactly_once() {
    let mut c = large_cluster(30, LargeGroupConfig::new(2, 3), 7);
    let origin = c.members[17];
    c.lbcast(origin, "payload-1");
    settle(&mut c, 30);
    for (m, log) in c.lbcast_logs() {
        assert_eq!(log, vec!["payload-1".to_string()], "at member {m}");
    }
}

#[test]
fn lbcast_total_order_across_all_members() {
    let mut c = large_cluster_lan(30, LargeGroupConfig::new(2, 4), 11);
    // Concurrent broadcasts from members in different leaves.
    for i in 0..10 {
        let origin = c.members[i * 3];
        c.lbcast(origin, &format!("m{i}"));
    }
    settle(&mut c, 60);
    c.assert_uniform_lbcast_logs();
    let (_, log) = &c.lbcast_logs()[0];
    assert_eq!(log.len(), 10, "all broadcasts delivered");
}

#[test]
fn origin_learns_resilient_and_complete() {
    let mut c = large_cluster(20, LargeGroupConfig::new(3, 3), 13);
    let origin = c.members[5];
    let id = c.lbcast(origin, "tracked").expect("submitted");
    settle(&mut c, 30);
    let statuses = &c.sim.process(origin).app().biz().statuses;
    assert!(
        statuses.contains(&(id, LbcastStatus::Resilient)),
        "origin never learned resilience: {statuses:?}"
    );
    assert!(
        statuses.contains(&(id, LbcastStatus::Complete)),
        "origin never learned completion: {statuses:?}"
    );
    // Late acks (a duplicate completion, a resilience ack overtaken by it)
    // reach an origin that already retired the broadcast: each milestone
    // is reported once, resilience first.
    for status in [LbcastStatus::Complete, LbcastStatus::Resilient] {
        let ack = TreeMsg::OriginAck {
            lgid: c.lgid,
            id,
            status,
        };
        c.sim
            .inject(origin, IsisMsg::Direct(HierPayload::Tree(ack)));
    }
    settle(&mut c, 1);
    let statuses = &c.sim.process(origin).app().biz().statuses;
    let mine: Vec<LbcastStatus> = statuses
        .iter()
        .filter(|(i, _)| *i == id)
        .map(|&(_, s)| s)
        .collect();
    assert_eq!(mine, [LbcastStatus::Resilient, LbcastStatus::Complete]);
}

#[test]
fn lbcast_survives_single_member_crashes() {
    let mut c = large_cluster_lan(24, LargeGroupConfig::new(3, 3), 17);
    // Crash one non-rep member mid-traffic.
    let victim = *c
        .members
        .iter()
        .find(|&&m| !c.sim.process(m).app().is_rep(c.lgid))
        .unwrap();
    let mut sent = 0;
    for i in 0..5 {
        let origin = c.members[(i * 7) % 24];
        if origin != victim {
            c.lbcast(origin, &format!("pre{i}"));
            sent += 1;
        }
    }
    c.sim.crash(victim);
    for i in 0..5 {
        let origin = c.members[(i * 5 + 1) % 24];
        if origin != victim {
            c.lbcast(origin, &format!("post{i}"));
            sent += 1;
        }
    }
    settle(&mut c, 90);
    c.assert_uniform_lbcast_logs();
    let (_, log) = &c.lbcast_logs()[0];
    assert_eq!(log.len(), sent);
}

#[test]
fn lbcast_survives_rep_crash() {
    let mut c = large_cluster_lan(24, LargeGroupConfig::new(3, 3), 19);
    // Crash a non-root representative: its leaf elects a new rep, the
    // parent retransmits, nothing is lost.
    let root = c.root_rep().unwrap();
    let victim = *c
        .members
        .iter()
        .find(|&&m| m != root && c.sim.process(m).app().is_rep(c.lgid))
        .expect("a non-root rep exists");
    c.lbcast(c.members[0], "before-crash");
    c.sim.crash(victim);
    c.run_for(SimDuration::from_millis(200));
    c.lbcast(c.members[1], "after-crash");
    settle(&mut c, 120);
    // Both broadcasts must reach every member exactly once. Their relative
    // order may differ across the repair window (a broadcast backfilled
    // after a representative crash): the tree broadcast guarantees total
    // order in steady state and agreement (all-or-nothing, no duplicates)
    // across failures — see the crate docs.
    for (m, log) in c.lbcast_logs() {
        let mut sorted = log.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec!["after-crash".to_string(), "before-crash".to_string()],
            "member {m} did not deliver both broadcasts exactly once: {log:?}"
        );
    }
}

#[test]
fn lbcast_survives_root_rep_crash() {
    let mut c = large_cluster_lan(24, LargeGroupConfig::new(3, 3), 23);
    c.lbcast(c.members[0], "pre-root-crash");
    settle(&mut c, 10);
    let root = c.root_rep().unwrap();
    c.sim.crash(root);
    c.run_for(SimDuration::from_secs(5));
    let origin = *c.members.iter().find(|&&m| m != root).unwrap();
    c.lbcast(origin, "post-root-crash");
    settle(&mut c, 120);
    let logs = c.lbcast_logs();
    for (m, log) in &logs {
        assert!(
            log.contains(&"post-root-crash".to_string()),
            "member {m} missed the post-crash broadcast: {log:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Failure scoping (the paper's headline claims)
// ---------------------------------------------------------------------

#[test]
fn single_failure_disturbs_only_one_leaf() {
    let mut c = large_cluster(40, LargeGroupConfig::new(3, 3), 29);
    settle(&mut c, 5);
    let victim = *c
        .members
        .iter()
        .find(|&&m| !c.sim.process(m).app().is_rep(c.lgid))
        .unwrap();
    let victim_leaf = c.sim.process(victim).app().leaf_of(c.lgid).unwrap();

    // Record view ids of every member before the crash.
    let before: Vec<(Pid, u64)> = c
        .live_members()
        .iter()
        .map(|&m| (m, c.leaf_view_of(m).map_or(0, |v| v.view_id)))
        .collect();
    c.sim.crash(victim);
    settle(&mut c, 30);

    for (m, vid_before) in before {
        if m == victim {
            continue;
        }
        let leaf = c.sim.process(m).app().leaf_of(c.lgid).unwrap();
        let vid_after = c.leaf_view_of(m).map_or(0, |v| v.view_id);
        if leaf == victim_leaf {
            assert!(vid_after > vid_before, "co-leaf member {m} saw the change");
        } else {
            assert_eq!(
                vid_after, vid_before,
                "member {m} in another leaf was disturbed by the failure"
            );
        }
    }
}

#[test]
fn total_leaf_failure_repairs_the_tree() {
    let mut c = large_cluster(24, LargeGroupConfig::new(2, 3), 31);
    settle(&mut c, 5);
    let v = c.leader_hier_view().unwrap().clone();
    assert!(v.num_leaves() >= 3);
    // Kill every member of a non-root leaf.
    let doomed_leaf = v.leaves[1].gid;
    let doomed: Vec<Pid> = c
        .members
        .iter()
        .copied()
        .filter(|&m| c.sim.process(m).app().leaf_of(c.lgid) == Some(doomed_leaf))
        .collect();
    assert!(!doomed.is_empty());
    for p in &doomed {
        c.sim.crash(*p);
    }
    settle(&mut c, 60);
    let v2 = c.leader_hier_view().unwrap();
    assert!(
        v2.index_of(doomed_leaf).is_none(),
        "dead leaf still in the tree"
    );
    assert_eq!(v2.total_members(), 24 - doomed.len());
    // Broadcasts still reach all survivors.
    let origin = c.live_members()[0];
    c.lbcast(origin, "after-leaf-death");
    settle(&mut c, 60);
    for (m, log) in c.lbcast_logs() {
        assert!(
            log.contains(&"after-leaf-death".to_string()),
            "survivor {m} missed the broadcast"
        );
    }
}

/// A child's beacon refreshes that child's contacts in its parent rep's
/// slice, which is where the parent's forward retries look for targets.
#[test]
fn a_child_beacon_refreshes_its_contacts_in_the_parent_slice() {
    let mut c = large_cluster(24, LargeGroupConfig::new(3, 3), 31);
    settle(&mut c, 5);
    let v = c.leader_hier_view().unwrap().clone();
    assert!(v.num_leaves() >= 2);
    let parent = v.leaves[0].rep().expect("root leaf has a rep");
    let child = v.leaves[1].gid;
    let fresh = vec![Pid(9_001), Pid(9_002)];
    let child_contacts = |c: &LargeCluster| {
        let slice = c.sim.process(parent).app().routing_slice(c.lgid);
        let slice = slice.expect("the root rep holds a slice");
        let desc = slice.children.iter().find(|d| d.gid == child);
        desc.expect("leaf 1 is a child of the root").contacts.clone()
    };
    assert_ne!(child_contacts(&c), fresh);
    let beacon = CtlMsg::LeafBeacon {
        lgid: c.lgid,
        leaf: child,
        contacts: fresh.clone(),
    };
    c.sim.inject(parent, IsisMsg::Direct(HierPayload::Ctl(beacon)));
    // Well inside one beacon period, so the child's own beacon cannot
    // have overwritten the injected contacts yet.
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(child_contacts(&c), fresh);
}

#[test]
fn beacons_from_a_non_root_leaf_do_not_keep_a_dead_root_alive() {
    let mut c = large_cluster(24, LargeGroupConfig::new(3, 3), 31);
    settle(&mut c, 5);
    let v = c.leader_hier_view().unwrap().clone();
    assert!(v.num_leaves() >= 2);
    let root_leaf = v.root().unwrap().gid;
    let other = v.leaves[1].clone();
    for m in c.members.clone() {
        if c.sim.process(m).app().leaf_of(c.lgid) == Some(root_leaf) {
            c.sim.crash(m);
        }
    }
    let detected = |c: &LargeCluster| c.sim.stats().counter("hier.root_dead_detected");
    let before = detected(&c);
    // A slice-less rep beacons the leader directly; stand in for one with
    // a steady stream of another leaf's beacons.
    for _ in 0..100 {
        let beacon = CtlMsg::LeafBeacon {
            lgid: c.lgid,
            leaf: other.gid,
            contacts: other.contacts.clone(),
        };
        c.sim
            .inject(c.leaders[0], IsisMsg::Direct(HierPayload::Ctl(beacon)));
        c.run_for(SimDuration::from_millis(100));
    }
    assert!(
        detected(&c) > before,
        "a non-root leaf's beacons masked the dead root"
    );
}

#[test]
fn leader_member_failure_is_transparent() {
    let mut c = large_cluster(16, LargeGroupConfig::new(3, 3), 37);
    // Kill the active leader; the next leader-group member takes over.
    let active = c.leaders[0];
    c.sim.crash(active);
    settle(&mut c, 30);
    // New joins still work.
    let nd = c.sim.add_nodes(1)[0];
    let newcomer = c.sim.spawn(
        nd,
        isis_core::IsisProcess::new(
            isis_hier::HierApp::with_timers(
                isis_hier::harness::RecorderBiz::default(),
                c.cfg.clone(),
            ),
            isis_core::IsisConfig::default(),
        ),
    );
    let lgid = c.lgid;
    let contact = c.leaders[1];
    c.sim.invoke(newcomer, move |p, ctx| {
        p.with_app(ctx, move |app, up| app.join_large(lgid, contact, up));
    });
    c.members.push(newcomer);
    settle(&mut c, 60);
    assert!(
        c.sim.process(newcomer).app().is_large_member(lgid),
        "join after leader failover must succeed"
    );
    // And broadcasts still flow.
    c.lbcast(newcomer, "under-new-management");
    settle(&mut c, 60);
    for (m, log) in c.lbcast_logs() {
        assert!(
            log.contains(&"under-new-management".to_string()),
            "member {m} missed broadcast after leader failover"
        );
    }
}

// ---------------------------------------------------------------------
// Split and merge
// ---------------------------------------------------------------------

#[test]
fn undersized_leaf_is_merged_away() {
    let cfg = LargeGroupConfig::new(3, 3); // min_leaf 3, max_leaf 7.
    let mut c = large_cluster(14, cfg, 41);
    settle(&mut c, 5);
    let v = c.leader_hier_view().unwrap().clone();
    assert!(v.num_leaves() >= 2);
    // Crash members of one leaf until it falls below min_leaf (but not to
    // zero), then expect a dissolve.
    let target_leaf = v.leaves[1].gid;
    let in_leaf: Vec<Pid> = c
        .members
        .iter()
        .copied()
        .filter(|&m| c.sim.process(m).app().leaf_of(c.lgid) == Some(target_leaf))
        .collect();
    for &p in &in_leaf[..in_leaf.len() - 2] {
        c.sim.crash(p);
    }
    settle(&mut c, 90);
    let v2 = c.leader_hier_view().unwrap();
    for leaf in &v2.leaves {
        assert!(
            leaf.size >= 2,
            "leaf {:?} left undersized: {}",
            leaf.gid,
            leaf.size
        );
    }
    // The survivors migrated somewhere and still receive broadcasts.
    let survivors: Vec<Pid> = in_leaf
        .iter()
        .copied()
        .filter(|&p| c.sim.is_alive(p))
        .collect();
    assert_eq!(survivors.len(), 2);
    c.lbcast(c.members[0], "post-merge");
    settle(&mut c, 60);
    for &s in &survivors {
        assert!(
            c.sim
                .process(s)
                .app()
                .biz()
                .lbcast_payloads(c.lgid)
                .contains(&"post-merge".to_string()),
            "migrated member {s} missed the broadcast"
        );
    }
}

#[test]
fn growth_keeps_leaves_within_band_via_minting() {
    // Incremental growth: joiners are placed in existing leaves until full,
    // then a fresh leaf is minted — no leaf ever exceeds max_leaf.
    let cfg = LargeGroupConfig::new(2, 4); // max_leaf 5.
    let c = large_cluster(37, cfg.clone(), 43);
    let v = c.leader_hier_view().unwrap();
    for leaf in &v.leaves {
        assert!(leaf.size <= cfg.max_leaf);
    }
    assert!(v.num_leaves() >= 37usize.div_ceil(cfg.max_leaf));
}

// ---------------------------------------------------------------------
// Dynamics
// ---------------------------------------------------------------------

#[test]
fn member_leave_shrinks_leaf_and_leader_view() {
    let mut c = large_cluster(12, LargeGroupConfig::new(2, 3), 47);
    let leaver = c.members[4];
    let lgid = c.lgid;
    c.sim.invoke(leaver, move |p, ctx| {
        p.with_app(ctx, move |app, up| app.leave_large(lgid, up));
    });
    settle(&mut c, 60);
    assert!(!c.sim.process(leaver).app().is_large_member(lgid));
    let v = c.leader_hier_view().unwrap();
    assert_eq!(v.total_members(), 11);
}

#[test]
fn deterministic_formation_same_seed() {
    let shape = |seed: u64| {
        let c = large_cluster(20, LargeGroupConfig::new(2, 3), seed);
        let v = c.leader_hier_view().unwrap();
        (
            v.num_leaves(),
            v.leaves.iter().map(|l| l.size).collect::<Vec<_>>(),
            c.sim.stats().messages_sent,
        )
    };
    assert_eq!(shape(99), shape(99));
}

#[test]
fn small_group_degenerate_case_still_works() {
    // size == fanout == resiliency: one leaf, exactly the "small group" of
    // the existing ISIS.
    let mut c = large_cluster(4, LargeGroupConfig::small_group(4), 53);
    let v = c.leader_hier_view().unwrap();
    assert_eq!(v.num_leaves(), 1);
    c.lbcast(c.members[2], "tiny");
    settle(&mut c, 30);
    for (_, log) in c.lbcast_logs() {
        assert_eq!(log, vec!["tiny".to_string()]);
    }
}

// ---------------------------------------------------------------------
// Application types are not required to be thread-safe
// ---------------------------------------------------------------------

/// A business payload may hold an `Rc`: the whole stack runs inside one
/// sequential simulator loop, so neither `LargeApp` nor the traits beneath
/// it (`Application`, `Process`) ask for `Send` or `Sync`.
#[test]
fn large_app_payload_may_hold_an_rc() {
    use isis_core::IsisConfig;
    use isis_hier::harness::generic_large_cluster;
    use isis_hier::{LargeApp, LargeGroupId, LargeUplink};
    use now_sim::SimConfig;
    use std::rc::Rc;

    #[derive(Default)]
    struct RcBiz {
        got: Vec<Rc<str>>,
    }

    impl LargeApp for RcBiz {
        type Payload = Rc<str>;
        type LeafState = Vec<Rc<str>>;

        fn on_lbcast(
            &mut self,
            _lgid: LargeGroupId,
            _origin: Pid,
            payload: &Rc<str>,
            _up: &mut LargeUplink<'_, '_, '_, Self>,
        ) {
            self.got.push(Rc::clone(payload));
        }
    }

    let lgid = LargeGroupId(1);
    let (mut sim, _leaders, members) = generic_large_cluster(
        6,
        LargeGroupConfig::new(2, 3),
        IsisConfig::default(),
        SimConfig::ideal(11),
        |_| RcBiz::default(),
    );

    let id = sim.invoke(members[0], |p, ctx| {
        p.with_app(ctx, |app, up| app.lbcast(lgid, Rc::from("quote"), up))
    });
    assert!(id.flatten().is_some(), "a joined member can broadcast");
    sim.run_for(SimDuration::from_secs(30));
    for &m in &members {
        let got = &sim.process(m).app().biz().got;
        assert_eq!(got.len(), 1, "{m} delivers the broadcast exactly once");
        assert_eq!(&*got[0], "quote");
    }
}
