//! Structure announcements stay linear in the number of leaves: a leaf
//! appended during formation is announced to its tree neighbourhood only,
//! and those targeted slices still give every representative exactly the
//! routing the leader's full view implies — already when formation
//! completes.

use isis_core::{GroupId, IsisConfig};
use isis_hier::config::LargeGroupConfig;
use isis_hier::harness::{large_cluster_lan, large_cluster_with};
use now_sim::{SimConfig, SimDuration};

#[test]
fn formation_announces_each_leaf_to_its_neighbourhood_only() {
    let mut c = large_cluster_lan(400, LargeGroupConfig::new(3, 8), 11);
    // Let the last announcements land.
    c.run_for(SimDuration::from_millis(500));
    let lgid = c.lgid;
    let view = c.leader_hier_view().expect("leader view").clone();
    let leaves = view.num_leaves() as u64;
    assert!(leaves >= 400 / 7, "only {leaves} leaves");
    let st = c.sim.stats();
    assert_eq!(st.counter("hier.leaf_removed"), 0, "formation must be clean");
    assert_eq!(
        st.counter("hier.push_structure"),
        0,
        "no whole-tree push without a removal or takeover"
    );
    let pushes = st.counter("hier.push_neighbourhood");
    assert!(pushes <= 2 * leaves, "{pushes} neighbourhood pushes for {leaves} leaves");

    // Routing equivalence: each rep's slice names the leaves the leader's
    // view says. Contacts are not compared: child beacons refresh them in
    // place between pushes.
    let gids = |ls: &[isis_hier::LeafDesc]| ls.iter().map(|l| l.gid).collect::<Vec<GroupId>>();
    for (idx, leaf) in view.leaves.iter().enumerate() {
        let rep = leaf.rep().expect("every leaf has a rep");
        let want = view.slice_for(idx);
        let got = c
            .sim
            .process(rep)
            .app()
            .routing_slice(lgid)
            .unwrap_or_else(|| panic!("rep {rep} of leaf {idx} holds no slice"));
        assert_eq!(got.my_gid, want.my_gid, "leaf {idx}");
        assert_eq!(got.my_index, want.my_index, "leaf {idx}");
        assert_eq!(
            got.parent.as_ref().map(|p| p.gid),
            want.parent.as_ref().map(|p| p.gid),
            "parent of leaf {idx}"
        );
        assert_eq!(gids(&got.children), gids(&want.children), "children of leaf {idx}");
    }
}

/// Every rep holds its slice by the time formation completes, so broadcasts
/// submitted at that instant are not dropped by a slice-less rep — which,
/// with the repair timer stretched by `counting()`, would be for good.
#[test]
fn broadcasts_at_the_formation_instant_reach_everyone() {
    let cfg = LargeGroupConfig::new(3, 8).counting();
    let mut c = large_cluster_with(300, cfg, IsisConfig::quiet(), SimConfig::ideal(5));
    for i in 0..8 {
        let origin = c.members[i * 37];
        c.lbcast(origin, &format!("b{i}"));
    }
    c.run_for(SimDuration::from_secs(5));
    for (m, log) in c.lbcast_logs() {
        assert_eq!(log.len(), 8, "member {m} delivered {log:?}");
    }
}
