//! Workspace-level integration tests through the facade crate: every layer
//! (simulator → core groups → hierarchy → toolkit → applications) in one
//! scenario each.

use isis_repro::core::testutil::cluster;
use isis_repro::core::{CastKind, IsisConfig};
use isis_repro::hier::config::LargeGroupConfig;
use isis_repro::hier::harness::large_cluster;
use isis_repro::sim::SimDuration;

#[test]
fn facade_exposes_the_whole_stack() {
    // Simulator.
    let mut sim: isis_repro::sim::Sim<isis_repro::core::IsisProcess<
        isis_repro::core::testutil::RecorderApp,
    >> = isis_repro::sim::Sim::new(isis_repro::sim::SimConfig::ideal(1));
    let nd = sim.add_nodes(1)[0];
    let p = sim.spawn(
        nd,
        isis_repro::core::IsisProcess::with_defaults(Default::default()),
    );
    sim.invoke(p, |proc_, ctx| {
        proc_
            .create_group(isis_repro::core::GroupId(1), ctx)
            .unwrap()
    });
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.process(p).is_member(isis_repro::core::GroupId(1)));
}

#[test]
fn core_group_ordering_through_facade() {
    let mut c = cluster(4, IsisConfig::default(), 3);
    let gid = c.gid;
    for i in 0..6 {
        let s = c.pids[i % 4];
        c.sim.invoke(s, move |p, ctx| {
            p.cast(gid, CastKind::Total, format!("x{i}"), ctx).unwrap();
        });
    }
    c.settle();
    c.assert_identical_logs();
}

#[test]
fn hierarchy_through_facade_bounds_failure_scope() {
    let mut c = large_cluster(24, LargeGroupConfig::new(2, 3), 5);
    let victim = *c
        .members
        .iter()
        .find(|&&m| !c.sim.process(m).app().is_rep(c.lgid))
        .unwrap();
    let victim_leaf = c.sim.process(victim).app().leaf_of(c.lgid).unwrap();
    let before: Vec<(isis_repro::sim::Pid, u64)> = c
        .live_members()
        .iter()
        .map(|&m| (m, c.leaf_view_of(m).map_or(0, |v| v.view_id)))
        .collect();
    c.sim.crash(victim);
    c.run_for(SimDuration::from_secs(20));
    for (m, vid) in before {
        if m == victim {
            continue;
        }
        let leaf = c.sim.process(m).app().leaf_of(c.lgid).unwrap();
        let now = c.leaf_view_of(m).map_or(0, |v| v.view_id);
        if leaf == victim_leaf {
            assert!(now > vid);
        } else {
            assert_eq!(now, vid, "{m} outside the leaf was disturbed");
        }
    }
}

/// Golden-digest regression for the process host: the simulator hosts its
/// processes in the same `Endpoint` as the socket daemon (crates/net) and
/// applies their `Action`s itself, and this scenario pins the exact
/// traffic digest of a core cluster and a hierarchy run. Any change to the
/// engine, the endpoint's booking, or the protocol stack that alters even
/// one message or timestamp shows up here as a digest mismatch.
#[test]
fn transport_refactor_digests_are_stable() {
    // Core layer: 12 mixed-kind casts over a 5-process group.
    let mut c = cluster(5, IsisConfig::default(), 42);
    let gid = c.gid;
    let kinds = [CastKind::Fifo, CastKind::Causal, CastKind::Total];
    for i in 0..12 {
        let s = c.pids[i % 5];
        let kind = kinds[i % 3];
        c.sim.invoke(s, move |p, ctx| {
            p.cast(gid, kind, format!("m{i}"), ctx).unwrap();
        });
    }
    c.settle();
    let st = c.sim.stats();
    assert_eq!(
        (
            st.messages_sent,
            st.messages_delivered,
            st.bytes_sent,
            c.sim.now().as_micros(),
        ),
        (3063, 3063, 437008, 30000007),
        "core digest drifted: engine/transport behavior changed"
    );

    // Hierarchy layer: 5 broadcasts through a 24-member LAN hierarchy.
    let mut h = isis_repro::hier::harness::large_cluster_lan(24, LargeGroupConfig::new(2, 4), 7);
    for i in 0..5 {
        let origin = h.members[3];
        h.lbcast(origin, &format!("b{i}"));
    }
    h.run_for(SimDuration::from_secs(30));
    h.assert_uniform_lbcast_logs();
    let st = h.sim.stats();
    assert_eq!(
        (
            st.messages_sent,
            st.messages_delivered,
            st.bytes_sent,
            h.sim.now().as_micros(),
        ),
        (15445, 15445, 792012, 30011264),
        "hierarchy digest drifted: engine/transport behavior changed"
    );
}

#[test]
fn workloads_through_facade() {
    let t = isis_repro::apps::run_trading_hier(
        15,
        10,
        200,
        LargeGroupConfig::new(2, 3),
        9,
    );
    assert!((t.delivery_ratio - 1.0).abs() < 1e-9);
    let f = isis_repro::apps::run_factory(9, 6, 2, 1, 9);
    assert!(f.conserved);
    assert!(f.committed > 0);
}
