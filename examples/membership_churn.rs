//! Membership churn: the hierarchy absorbing crashes and a total leaf
//! failure while broadcasts keep flowing, a latecomer joining afterwards —
//! and, as a prologue, the section-5 name service resolving a group name
//! to its leader contacts.
//!
//! Run with: `cargo run --release --example membership_churn`

use isis_repro::core::{GroupId, IsisProcess};
use isis_repro::hier::config::LargeGroupConfig;
use isis_repro::hier::harness::{large_cluster, RecorderBiz};
use isis_repro::hier::{HierApp, LargeGroupId, NameService};
use isis_repro::sim::{Pid, Sim, SimConfig, SimDuration};

/// Prologue: a replicated name-server group binds "the-floor" and answers
/// a client's resolution — the paper's name-to-address mapping.
fn name_service_prologue(lgid: LargeGroupId, leader_contacts: Vec<Pid>) {
    let ns_gid = GroupId(500);
    let mut sim: Sim<IsisProcess<NameService>> = Sim::new(SimConfig::ideal(9));
    let nodes = sim.add_nodes(3);
    let s0 = sim.spawn(nodes[0], IsisProcess::with_defaults(NameService::new()));
    let s1 = sim.spawn(nodes[1], IsisProcess::with_defaults(NameService::new()));
    sim.invoke(s0, move |p, ctx| p.create_group(ns_gid, ctx).expect("fresh gid cannot collide"));
    sim.invoke(s1, move |p, ctx| p.join(ns_gid, s0, ctx).expect("the group was just created"));
    sim.run_for(SimDuration::from_secs(5));
    let lc = leader_contacts.clone();
    sim.invoke(s0, move |p, ctx| {
        p.with_app(ctx, |app, up| app.bind("the-floor", lgid, lc.clone(), up));
    });
    sim.run_for(SimDuration::from_secs(1));

    let client = sim.spawn(nodes[2], IsisProcess::with_defaults(NameService::new()));
    let ticket = sim
        .invoke(client, move |p, ctx| {
            p.with_app(ctx, |app, up| app.resolve(s1, "the-floor", up))
        })
        .expect("the client is alive");
    sim.run_for(SimDuration::from_secs(1));
    let answer = sim.process(client).app().answers.get(&ticket).cloned();
    println!(
        "name service: 'the-floor' resolved (via replica s1) to {:?}",
        answer.flatten()
    );
}

fn main() {
    let cfg = LargeGroupConfig::new(2, 3);
    let mut c = large_cluster(30, cfg.clone(), 21);
    let lgid = c.lgid;
    println!(
        "formed: {} members in {} leaves",
        c.leader_hier_view().expect("the leader holds the view").total_members(),
        c.leader_hier_view().expect("the leader holds the view").num_leaves()
    );

    name_service_prologue(lgid, c.leaders.clone());

    // Churn: kill three members (one per phase) with broadcasts between.
    for round in 0..3 {
        let victim = c.live_members()[7 + round * 5];
        println!("round {round}: crash {victim}, then broadcast");
        c.sim.crash(victim);
        c.run_for(SimDuration::from_secs(3));
        let origin = c.live_members()[0];
        c.lbcast(origin, &format!("round-{round}"));
        c.run_for(SimDuration::from_secs(10));
    }

    // Total leaf failure.
    let v = c.leader_hier_view().expect("the leader holds the view").clone();
    let doomed = v.leaves.last().expect("the hierarchy has a leaf").gid;
    let members: Vec<_> = c
        .members
        .iter()
        .copied()
        .filter(|&m| c.sim.is_alive(m) && c.sim.process(m).app().leaf_of(lgid) == Some(doomed))
        .collect();
    println!("killing leaf {doomed:?} ({} members) outright", members.len());
    for m in members {
        c.sim.crash(m);
    }
    c.run_for(SimDuration::from_secs(30));

    // A latecomer joins through a (resolved) leader contact — any leader
    // member works, not just the active one.
    let nd = c.sim.add_nodes(1)[0];
    let late = c.sim.spawn(
        nd,
        IsisProcess::new(
            HierApp::with_timers(RecorderBiz::default(), cfg.clone()),
            isis_repro::core::IsisConfig::default(),
        ),
    );
    let contact = c.leaders[1];
    c.sim.invoke(late, move |p, ctx| {
        p.with_app(ctx, move |app, up| app.join_large(lgid, contact, up));
    });
    c.members.push(late);
    c.run_for(SimDuration::from_secs(30));
    println!(
        "latecomer joined via non-primary leader contact: {}",
        c.sim.process(late).app().is_large_member(lgid)
    );

    // Final broadcast reaches every survivor including the latecomer.
    let origin = c.live_members()[2];
    c.lbcast(origin, "all-hands");
    c.run_for(SimDuration::from_secs(15));
    let total = c.live_members().len();
    let got = c
        .lbcast_logs()
        .iter()
        .filter(|(_, l)| l.contains(&"all-hands".to_string()))
        .count();
    let v = c.leader_hier_view().expect("the leader holds the view");
    println!(
        "final: {got}/{total} survivors delivered; {} leaves, epoch {}",
        v.num_leaves(),
        v.epoch
    );
    assert_eq!(got, total);
}
