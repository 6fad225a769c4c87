//! The paper's contribution in action: a hierarchical large group.
//!
//! Builds a 60-member large group (leaf subgroups + leader group),
//! broadcasts through the bounded-fanout tree, inspects the structure,
//! kills an entire leaf, and shows the hierarchy repairing itself while
//! broadcasts keep flowing.
//!
//! Run with: `cargo run --example large_group`

use isis_repro::hier::config::LargeGroupConfig;
use isis_repro::hier::harness::large_cluster;
use isis_repro::sim::SimDuration;

fn main() {
    let cfg = LargeGroupConfig::new(3, 4); // resiliency 3, fanout 4.
    let mut c = large_cluster(60, cfg, 7);

    let v = c.leader_hier_view().expect("the leader holds the view").clone();
    println!(
        "large group formed: {} members in {} leaves, tree depth {}, epoch {}",
        v.total_members(),
        v.num_leaves(),
        v.depth(),
        v.epoch
    );
    for (i, leaf) in v.leaves.iter().enumerate() {
        println!(
            "  leaf[{i}] {:?}: {} members, rep {:?}, children {:?}",
            leaf.gid,
            leaf.size,
            leaf.rep(),
            v.children(i)
        );
    }

    // Tree broadcast: one submit, every member delivers.
    c.sim.stats_mut().enable_fanout_tracking();
    c.sim.stats_mut().reset_window();
    let origin = c.members[41];
    println!("\nbroadcasting from {origin} through the tree ...");
    c.lbcast(origin, "market-open");
    c.run_for(SimDuration::from_secs(10));
    let delivered = c
        .lbcast_logs()
        .iter()
        .filter(|(_, log)| log.contains(&"market-open".to_string()))
        .count();
    println!(
        "delivered at {delivered}/{} members; max destinations any process contacted: {} \
         (bound: fanout {} + leaf {} + parent/leader links)",
        c.members.len(),
        c.sim.stats().max_distinct_destinations(),
        c.cfg.fanout,
        c.cfg.max_leaf,
    );

    // Total leaf failure: the paper's headline repair case.
    let doomed = v.leaves.last().expect("the hierarchy has a leaf").gid;
    let doomed_members: Vec<_> = c
        .members
        .iter()
        .copied()
        .filter(|&m| c.sim.process(m).app().leaf_of(c.lgid) == Some(doomed))
        .collect();
    println!(
        "\nkilling leaf {doomed:?} entirely ({} members) ...",
        doomed_members.len()
    );
    for m in &doomed_members {
        c.sim.crash(*m);
    }
    c.run_for(SimDuration::from_secs(30));
    let v2 = c.leader_hier_view().expect("the leader holds the view").clone();
    println!(
        "repaired: {} leaves, epoch {} (dead leaf removed: {})",
        v2.num_leaves(),
        v2.epoch,
        v2.index_of(doomed).is_none()
    );

    // Broadcasts still reach every survivor.
    let origin = c.live_members()[0];
    c.lbcast(origin, "still-open");
    c.run_for(SimDuration::from_secs(10));
    let ok = c
        .lbcast_logs()
        .iter()
        .all(|(_, log)| log.contains(&"still-open".to_string()));
    println!("post-repair broadcast reached every survivor: {ok}");
}
