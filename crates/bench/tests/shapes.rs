//! Shape tests: every experiment must reproduce the *shape* of its paper
//! claim (who wins, how costs scale), at quick-mode sizes. EXPERIMENTS.md
//! records the full-size tables.

use isis_bench::experiments as ex;
use isis_bench::par_sweep_jobs;

#[test]
fn whole_tables_render_identically_from_parallel_workers() {
    // Drive entire experiments through the runner itself (each worker
    // renders one full table): the same harness the sweeps use internally,
    // exercised here at the coarsest grain.
    type TableFn = fn(bool) -> isis_bench::Table;
    let fns: Vec<TableFn> = vec![ex::e1, ex::e7, ex::partitions];
    let serial = par_sweep_jobs(1, fns.clone(), |f| f(true).render());
    let parallel = par_sweep_jobs(4, fns, |f| f(true).render());
    assert_eq!(serial, parallel);
}

#[test]
fn e1_flat_is_exactly_2n_and_hier_is_leaf_bounded() {
    let t = ex::e1(true);
    for (i, row) in t.rows.iter().enumerate() {
        let n: f64 = row[t.col("n")].parse().unwrap();
        assert_eq!(t.f64(i, "flat_msgs"), 2.0 * n, "flat request must cost 2n");
        assert_eq!(t.f64(i, "flat_acting"), n, "all n members act");
        let leaf = t.f64(i, "leaf_size");
        assert_eq!(
            t.f64(i, "hier_msgs"),
            2.0 * leaf,
            "hier request must cost 2·leaf"
        );
    }
    // Hier cost must not grow with n while flat does.
    let last = t.rows.len() - 1;
    assert!(t.f64(last, "flat_msgs") > t.f64(0, "flat_msgs"));
    assert!(t.f64(last, "hier_msgs") <= 2.0 * 8.0);
}

#[test]
fn e2_flat_outgrows_hier_with_clients() {
    let t = ex::e2(true);
    let last = t.rows.len() - 1;
    // Ratio improves as client count grows (quadratic vs linear).
    assert!(t.f64(last, "flat/hier") > t.f64(0, "flat/hier"));
    assert!(t.f64(last, "flat/hier") >= 1.5);
    // Flat quadruples when clients double (c² scaling).
    let flat_ratio = t.f64(last, "flat_msgs") / t.f64(last - 1, "flat_msgs");
    assert!(flat_ratio >= 3.0, "flat scaling ratio {flat_ratio}");
}

#[test]
fn e3_flat_membership_cost_grows_hier_stays_bounded() {
    let t = ex::e3(true);
    let last = t.rows.len() - 1;
    assert!(t.f64(last, "flat_msgs") > 3.0 * t.f64(0, "flat_msgs"));
    // Hierarchical cost stays within a constant envelope.
    assert!(t.f64(last, "hier_msgs") <= 60.0);
    assert!(t.f64(last, "hier_disturbed") <= 20.0);
    // Flat disturbs everyone.
    let n: f64 = t.rows[last][t.col("n")].parse().unwrap();
    assert_eq!(t.f64(last, "flat_disturbed"), n - 1.0);
}

#[test]
fn e4_reliability_knee_and_resiliency_contract() {
    let t = ex::e4(true);
    // The no-load success probability saturates: beyond r=5 the gain is
    // below 1e-4 ("no practical advantage").
    let p5 = t
        .rows
        .iter()
        .find(|r| r[0] == "5")
        .map(|r| r[t.col("P_ok(p=.05)")].parse::<f64>().unwrap())
        .unwrap();
    assert!(1.0 - p5 < 1e-4);
    // With load-dependent failure, the biggest group is *less* reliable
    // than the r=5 one ("reliability will actually decrease").
    let load5 = t
        .rows
        .iter()
        .find(|r| r[0] == "5")
        .map(|r| r[t.col("P_ok_load")].parse::<f64>().unwrap())
        .unwrap();
    let load_last = t.f64(t.rows.len() - 1, "P_ok_load");
    assert!(load_last <= load5);
    // The simulated resiliency contract holds at every r.
    for row in &t.rows {
        assert_eq!(row[t.col("survives_r-1")], "true");
    }
}

#[test]
fn e6_failure_scope_bounded_for_hier() {
    let t = ex::e6(true);
    let last = t.rows.len() - 1;
    let n: f64 = t.rows[last][t.col("n")].parse().unwrap();
    assert_eq!(t.f64(last, "flat_notified"), n - 1.0);
    // Hier notification scope is independent of n (leaf + leader bound).
    let first_h = t.f64(0, "hier_notified");
    let last_h = t.f64(last, "hier_notified");
    assert!(last_h <= first_h + 4.0, "hier scope grew: {first_h} -> {last_h}");
    assert!(last_h <= 14.0);
}

#[test]
fn e7_storage_flat_linear_hier_constant() {
    let t = ex::e7(true);
    let last = t.rows.len() - 1;
    let n0: f64 = t.rows[0][t.col("n")].parse().unwrap();
    let nl: f64 = t.rows[last][t.col("n")].parse().unwrap();
    let flat_growth = t.f64(last, "flat_member_B") / t.f64(0, "flat_member_B");
    assert!(flat_growth > 0.5 * nl / n0, "flat storage must grow ~linearly");
    assert_eq!(
        t.f64(0, "hier_member_B"),
        t.f64(last, "hier_member_B"),
        "hier member storage independent of n"
    );
    assert_eq!(t.f64(0, "hier_rep_B"), t.f64(last, "hier_rep_B"));
}

#[test]
fn e7_measured_storage_matches_the_claim() {
    let (flat, hier) = ex::e7_measured(48, 9_000);
    assert!(
        flat > 2 * hier,
        "measured: flat member ({flat}B) must dwarf hier member ({hier}B) at n=48"
    );
}

#[test]
fn e8_fanout_bound_holds() {
    let t = ex::e8(true);
    for (i, row) in t.rows.iter().enumerate() {
        let max_dests = t.f64(i, "max_dests");
        let bound = t.f64(i, "bound");
        assert!(
            max_dests <= bound,
            "row {row:?}: destinations {max_dests} exceed bound {bound}"
        );
        // Everything delivered: total messages at least n (one per member),
        // and no more than about two per member.
        let n: f64 = row[t.col("n")].parse().unwrap();
        let total = t.f64(i, "total_msgs");
        assert!(total >= n);
        assert!(
            total <= 2.0 * n + 16.0,
            "row {row:?}: {total} msgs exceed 2n + 16"
        );
    }
}

#[test]
fn partitions_never_split_brain() {
    let t = ex::partitions(true);
    for row in &t.rows {
        assert_eq!(row[t.col("majority_view")], "true");
        assert_eq!(row[t.col("minority_stalled")], "true");
        assert_eq!(row[t.col("split_brain")], "false");
    }
}
