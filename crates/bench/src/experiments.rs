//! The experiment suite: one function per quantitative claim of the paper
//! (E1–E10) plus two design-choice ablations (A1–A2). See DESIGN.md for
//! the claim-to-experiment index and EXPERIMENTS.md for recorded results.

use now_sim::{Partition, Pid, Sim, SimConfig, SimDuration, SimTime};
use now_sim::det_rand::{DetRng, Rng};

use isis_core::testutil::generic_cluster;
use isis_core::{GroupId, GroupView, IsisConfig, IsisProcess};
use isis_hier::{HierView, LargeGroupConfig, LeafDesc};
use isis_toolkit::flat::FlatService;

use crate::harness::{
    disturbed, event_cost, flat_service, flat_service_with, hier_service, hier_service_with,
    sweep_rows, FLAT_GID, LGID,
};
use crate::report::{f, Table};

/// Builds one experiment's table; the argument is quick mode.
pub type TableFn = fn(bool) -> Table;

/// Every experiment in sweep order: `(id, table builder)`.
pub const ALL: [(&str, TableFn); 14] = [
    ("E1", e1),
    ("E2", e2),
    ("E3", e3),
    ("E4", e4),
    ("E5", e5),
    ("E6", e6),
    ("E7", e7),
    ("E8", e8),
    ("E9", e9),
    ("E10", e10),
    ("A1", a1),
    ("A2", a2),
    ("EP", partitions),
    ("EA", availability),
];

/// Looks an experiment up by its id, case-insensitively.
pub fn by_id(id: &str) -> Option<TableFn> {
    ALL.iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(id))
        .map(|&(_, table)| table)
}

fn sizes(quick: bool, full: &[usize], small: &[usize]) -> Vec<usize> {
    if quick { small.to_vec() } else { full.to_vec() }
}

// ---------------------------------------------------------------------
// E1 — request cost: "a service request will involve 2n messages … and
// will require action by all n members"
// ---------------------------------------------------------------------

pub fn e1(quick: bool) -> Table {
    let mut t = Table::new(
        "E1",
        "coordinator-cohort request cost: flat 2n vs hierarchical 2·leaf",
        &[
            "n", "flat_msgs", "flat_acting", "hier_msgs", "hier_acting", "leaf_size",
        ],
    );
    sweep_rows(&mut t, sizes(quick, &[2, 4, 8, 16, 32, 64, 128, 256], &[2, 8, 32]), |n| {
        // Flat.
        let mut fsvc = flat_service(n, 100 + n as u64);
        fsvc.sim.stats_mut().reset_window();
        fsvc.one_request("PUT k v");
        let flat_msgs = fsvc.sim.stats().messages_sent;
        let flat_acting = disturbed(&fsvc.sim, &fsvc.members);

        // Hierarchical: the marginal cost of the request over the
        // steady-state maintenance traffic (baseline-subtracted).
        let cfg = LargeGroupConfig::new(3, 4).counting();
        let mut hsvc = hier_service_with(n.max(3), cfg, IsisConfig::quiet(), 200 + n as u64);
        let dir = hsvc.directory();
        let (leaf, _) = *isis_toolkit::hier::home_leaf(&dir, "k");
        let targets = hsvc.leaf_members(leaf);
        let leaf_size = targets.len();
        let client = hsvc.client;
        let members = hsvc.members.clone();
        let (hier_msgs, hier_acting) =
            event_cost(&mut hsvc.sim, &members, SimDuration::from_secs(2), |sim| {
                let tg = targets.clone();
                sim.invoke(client, move |p, ctx| {
                    p.with_app(ctx, |app, up| {
                        app.with_business(up, |biz, lup| {
                            biz.send_request_to(&tg, "PUT k v", lup);
                        });
                    });
                });
            });

        vec![vec![
            n.to_string(),
            flat_msgs.to_string(),
            flat_acting.to_string(),
            hier_msgs.to_string(),
            hier_acting.to_string(),
            leaf_size.to_string(),
        ]]
    });
    t.note("flat_msgs = 2n exactly (request ×n + reply + result ×(n-1))");
    t.note("hier cost is 2·leaf_size regardless of n");
    t
}

// ---------------------------------------------------------------------
// E2 — "message traffic will grow as the square of the number of clients"
// ---------------------------------------------------------------------

pub fn e2(quick: bool) -> Table {
    let mut t = Table::new(
        "E2",
        "traffic vs clients (service grows with demand): flat ~c², hier ~c",
        &[
            "clients", "flat_n", "flat_msgs", "hier_n", "hier_msgs", "flat/hier",
        ],
    );
    const REQS_PER_CLIENT: usize = 2;
    sweep_rows(&mut t, sizes(quick, &[8, 16, 32, 64], &[4, 8, 16]), |c| {
        let n = (c / 2).max(2);

        // Flat: service of n members; c clients each fire REQS requests.
        let mut fsvc = flat_service(n, 300 + c as u64);
        let mut clients = vec![fsvc.client];
        for _ in 1..c {
            let nd = fsvc.sim.add_nodes(1)[0];
            clients.push(
                fsvc.sim
                    .spawn(nd, IsisProcess::new(FlatService::new(FLAT_GID), IsisConfig::quiet())),
            );
        }
        fsvc.sim.run_for(SimDuration::from_secs(1));
        fsvc.sim.stats_mut().reset_window();
        for (i, &cl) in clients.iter().enumerate() {
            for r in 0..REQS_PER_CLIENT {
                let members = fsvc.members.clone();
                let body = format!("PUT k{i}_{r} v");
                fsvc.sim.invoke(cl, move |p, ctx| {
                    p.with_app(ctx, |app, up| app.send_request(&members, &body, up))
                });
            }
        }
        fsvc.sim.run_for(SimDuration::from_secs(5));
        let flat_msgs = fsvc.sim.stats().messages_sent;

        // Hierarchical: same member count, requests go to single leaves.
        let cfg = LargeGroupConfig::new(3, 4).counting();
        let mut hsvc = hier_service_with(n.max(3), cfg, IsisConfig::quiet(), 400 + c as u64);
        let mut hclients = vec![hsvc.client];
        for _ in 1..c {
            let nd = hsvc.sim.add_nodes(1)[0];
            hclients.push(hsvc.sim.spawn(
                nd,
                IsisProcess::new(
                    isis_hier::HierApp::new(isis_toolkit::hier::LeafServiceApp::new(LGID)),
                    IsisConfig::quiet(),
                ),
            ));
        }
        hsvc.sim.run_for(SimDuration::from_secs(1));
        let dir = hsvc.directory();
        // Pre-resolve full leaf memberships once (name-service role).
        let leaf_targets: Vec<Vec<Pid>> = dir
            .iter()
            .map(|(gid, _)| hsvc.leaf_members(*gid))
            .collect();
        let hcl = hclients.clone();
        let lt = leaf_targets.clone();
        let dlen = dir.len();
        let all_members = hsvc.members.clone();
        let (hier_msgs, _) =
            event_cost(&mut hsvc.sim, &all_members, SimDuration::from_secs(5), |sim| {
                for (i, &cl) in hcl.iter().enumerate() {
                    for r in 0..REQS_PER_CLIENT {
                        let body = format!("PUT k{i}_{r} v");
                        let key = format!("k{i}_{r}");
                        let shard = isis_toolkit::shard_of(&key, dlen);
                        let targets = lt[shard].clone();
                        sim.invoke(cl, move |p, ctx| {
                            p.with_app(ctx, |app, up| {
                                app.with_business(up, |biz, lup| {
                                    biz.send_request_to(&targets, &body, lup);
                                });
                            });
                        });
                    }
                }
            });

        vec![vec![
            c.to_string(),
            n.to_string(),
            flat_msgs.to_string(),
            n.max(3).to_string(),
            hier_msgs.to_string(),
            f(flat_msgs as f64 / hier_msgs.max(1) as f64),
        ]]
    });
    t.note("flat grows ~quadratically in clients (2n per request, n ∝ c)");
    t.note("hier grows linearly (2·leaf per request, leaf size constant)");
    t
}

// ---------------------------------------------------------------------
// E3 — membership-change cost: "upon group membership changes … a
// broadcast is sent to the new membership of the group"
// ---------------------------------------------------------------------

pub fn e3(quick: bool) -> Table {
    let mut t = Table::new(
        "E3",
        "cost of one member failure: flat O(n) messages vs hier leaf-bounded",
        &["n", "flat_msgs", "flat_disturbed", "hier_msgs", "hier_disturbed"],
    );
    sweep_rows(&mut t, sizes(quick, &[4, 8, 16, 32, 64, 128, 256, 512], &[4, 16, 64]), |n| {
        // Flat, quiet: the harness plays failure detector (reports the
        // suspicion at every survivor), so only membership traffic flows.
        let mut fsvc = flat_service(n, 500 + n as u64);
        let victim = fsvc.members[n / 2];
        fsvc.sim.crash(victim);
        fsvc.sim.stats_mut().reset_window();
        for &m in &fsvc.members {
            if m == victim {
                continue;
            }
            fsvc.sim.invoke(m, move |p, ctx| {
                let _ = p.report_suspect(FLAT_GID, victim, ctx);
            });
        }
        fsvc.sim.run_for(SimDuration::from_secs(20));
        let flat_msgs = fsvc.sim.stats().messages_sent;
        let flat_dist = disturbed(&fsvc.sim, &fsvc.members);

        // Hierarchical, quiet: only the victim's leaf detects and repairs.
        let cfg = LargeGroupConfig::new(3, 4).counting();
        let mut hsvc = hier_service_with(n.max(4), cfg, IsisConfig::quiet(), 600 + n as u64);
        let victim = *hsvc
            .members
            .iter()
            .find(|&&m| !hsvc.sim.process(m).app().is_rep(LGID))
            .expect("non-rep member");
        let leaf = hsvc.sim.process(victim).app().leaf_of(LGID).expect("a member belongs to a leaf");
        let peers = hsvc.leaf_members(leaf);
        let all: Vec<Pid> = hsvc
            .members
            .iter()
            .chain(hsvc.leaders.iter())
            .copied()
            .filter(|&m| m != victim)
            .collect();
        let (hier_msgs, hier_dist) =
            event_cost(&mut hsvc.sim, &all, SimDuration::from_secs(20), |sim| {
                sim.crash(victim);
                for &m in &peers {
                    if m == victim {
                        continue;
                    }
                    sim.invoke(m, move |p, ctx| {
                        let _ = p.report_suspect(leaf, victim, ctx);
                    });
                }
            });

        vec![vec![
            n.to_string(),
            flat_msgs.to_string(),
            flat_dist.to_string(),
            hier_msgs.to_string(),
            hier_dist.to_string(),
        ]]
    });
    t.note("flat: every survivor participates in the flush (O(n) msgs, all disturbed)");
    t.note("hier: the leaf flush + one leader report (constant, leaf-bounded)");
    t
}

// ---------------------------------------------------------------------
// E4 — "no practical advantage to having more than perhaps five cohorts";
// "reliability will actually decrease"
// ---------------------------------------------------------------------

pub fn e4(quick: bool) -> Table {
    let mut t = Table::new(
        "E4",
        "cohort count: diminishing returns past ~5, then declining net reliability",
        &[
            "r",
            "cost_msgs",
            "P_ok(p=.05)",
            "P_ok_mc",
            "P_ok_load",
            "survives_r-1",
        ],
    );
    let p: f64 = 0.05;
    // Load-dependent per-member failure probability: bigger groups do more
    // work per request (2r messages), so p grows with r.
    let load = |r: usize| (p + 0.012 * r as f64).min(1.0);
    let rs: Vec<usize> = if quick {
        vec![1, 2, 3, 5, 8]
    } else {
        vec![1, 2, 3, 4, 5, 6, 8, 10, 12, 16]
    };
    sweep_rows(&mut t, rs, |r| {
        let analytic = 1.0 - p.powi(r as i32);
        let trials = if quick { 20_000 } else { 200_000 };
        // Each point gets its own seed: the Monte-Carlo estimate must not
        // depend on how many points ran before it (or on which thread).
        let mut rng = DetRng::seed_from_u64(42 + r as u64);
        let mc = (0..trials)
            .filter(|_| (0..r).any(|_| rng.gen_f64() >= p))
            .count() as f64
            / trials as f64;
        let pl = load(r);
        let with_load = 1.0 - pl.powi(r as i32);

        // Sim validation: a service of r members answers a request even
        // after r-1 of them crash.
        let survives = {
            let mut fsvc = flat_service_with(r, IsisConfig::default(), 700 + r as u64);
            for &m in &fsvc.members[..r - 1] {
                fsvc.sim.crash(m);
            }
            let members = fsvc.members.clone();
            let req = fsvc
                .sim
                .invoke(fsvc.client, move |p, ctx| {
                    p.with_app(ctx, |app, up| app.send_request(&members, "PUT a 1", up))
                })
                .expect("the client is alive");
            fsvc.sim.run_for(SimDuration::from_secs(30));
            fsvc.sim.process(fsvc.client).app().replies.contains_key(&req)
        };

        vec![vec![
            r.to_string(),
            (2 * r).to_string(),
            f(analytic),
            f(mc),
            f(with_load),
            survives.to_string(),
        ]]
    });
    t.note("P_ok: request outlives the window if any of r members survives (p = per-member failure prob)");
    t.note("P_ok_load: with load-dependent failure p(r) = p + 0.012r, reliability peaks near r≈5 and then falls");
    t.note("survives_r-1: simulated — service of r answers after r-1 crashes (the resiliency contract)");
    t
}

// ---------------------------------------------------------------------
// E5 — reliability at scale: failures rise with n; flat groups pay an
// O(n) disturbance each time, hierarchical groups a leaf-bounded one
// ---------------------------------------------------------------------

pub fn e5(quick: bool) -> Table {
    let mut t = Table::new(
        "E5",
        "failure handling at scale: reconvergence and disturbance per failure",
        &[
            "n",
            "fail/hr(mtbf=72h)",
            "flat_reconv_ms",
            "flat_proc_ms",
            "hier_reconv_ms",
            "hier_proc_ms",
        ],
    );
    sweep_rows(&mut t, sizes(quick, &[8, 16, 32, 64, 128], &[8, 24]), |n| {
        // Flat with live failure detection.
        let (mut sim, members) = generic_cluster(
            n,
            FLAT_GID,
            IsisConfig::default(),
            SimConfig::lan(800 + n as u64),
            |_| FlatService::new(FLAT_GID),
        );
        sim.run_for(SimDuration::from_secs(2));
        let victim = members[n / 2];
        let t0 = sim.now();
        sim.crash(victim);
        let flat_reconv = await_excluded(&mut sim, &members, victim, FLAT_GID, t0);

        // Hierarchical with live detection (leaf heartbeats only).
        let cfg = LargeGroupConfig::new(3, 4);
        let mut hsvc = hier_service(n.max(4), cfg, 900 + n as u64);
        let victim = *hsvc
            .members
            .iter()
            .find(|&&m| !hsvc.sim.process(m).app().is_rep(LGID))
            .expect("non-rep member");
        let leaf = hsvc.sim.process(victim).app().leaf_of(LGID).expect("a member belongs to a leaf");
        let peers = hsvc.leaf_members(leaf);
        let t0 = hsvc.sim.now();
        hsvc.sim.crash(victim);
        let hier_reconv = await_excluded(&mut hsvc.sim, &peers, victim, leaf, t0);

        let fails_per_hour = n as f64 / 72.0;
        let leaf_n = peers.len();
        vec![vec![
            n.to_string(),
            f(fails_per_hour),
            f(flat_reconv.as_millis_f64()),
            f(flat_reconv.as_millis_f64() * (n - 1) as f64),
            f(hier_reconv.as_millis_f64()),
            f(hier_reconv.as_millis_f64() * (leaf_n - 1) as f64),
        ]]
    });
    t.note("fail/hr: expected component failures per hour grows linearly with n (the paper's premise)");
    t.note("proc_ms: process·milliseconds of disturbance per failure = reconv × processes wedged");
    t.note("flat disturbance per failure grows with n; hierarchical stays leaf-bounded");
    t
}

fn await_excluded<A: isis_core::Application>(
    sim: &mut Sim<IsisProcess<A>>,
    affected: &[Pid],
    victim: Pid,
    gid: GroupId,
    t0: SimTime,
) -> SimDuration {
    let deadline = t0 + SimDuration::from_secs(120);
    loop {
        let done = affected.iter().filter(|&&m| m != victim).all(|&m| {
            // Reconverged when the survivor either installed a view
            // without the victim or left the group entirely (its leaf may
            // have been dissolved and the member migrated).
            !sim.is_alive(m)
                || sim
                    .process(m)
                    .view_of(gid)
                    .is_none_or(|v| !v.contains(victim))
        });
        if done {
            return sim.now().since(t0);
        }
        if sim.now() >= deadline || !sim.step() {
            return sim.now().since(t0);
        }
    }
}

// ---------------------------------------------------------------------
// E6 — failure scope: "any single process failure results in a broadcast
// to a bounded number of other processes"
// ---------------------------------------------------------------------

pub fn e6(quick: bool) -> Table {
    let mut t = Table::new(
        "E6",
        "processes notified per failure: flat n-1 vs hier bounded; total leaf failure informs only the parent",
        &["n", "flat_notified", "hier_notified", "leaf_size", "leafdeath_notified"],
    );
    sweep_rows(&mut t, sizes(quick, &[8, 16, 32, 64, 128, 256], &[8, 24, 64]), |n| {
        // Flat (quiet + harness-reported suspicion, as in E3).
        let mut fsvc = flat_service(n, 1_000 + n as u64);
        let victim = fsvc.members[1];
        fsvc.sim.crash(victim);
        fsvc.sim.stats_mut().reset_window();
        for &m in &fsvc.members {
            if m != victim {
                fsvc.sim.invoke(m, move |p, ctx| {
                    let _ = p.report_suspect(FLAT_GID, victim, ctx);
                });
            }
        }
        fsvc.sim.run_for(SimDuration::from_secs(20));
        let flat_notified = disturbed(&fsvc.sim, &fsvc.members);

        // Hier, counting config: one member crash, suspicion reported by
        // its leaf peers (the only processes that would detect it).
        let cfg = LargeGroupConfig::new(3, 4).counting();
        let mut hsvc = hier_service_with(n.max(8), cfg, IsisConfig::quiet(), 1_100 + n as u64);
        let victim = *hsvc
            .members
            .iter()
            .find(|&&m| !hsvc.sim.process(m).app().is_rep(LGID))
            .expect("non-rep member");
        let leaf = hsvc.sim.process(victim).app().leaf_of(LGID).expect("a member belongs to a leaf");
        let peers = hsvc.leaf_members(leaf);
        let leaf_size = peers.len();
        hsvc.sim.crash(victim);
        hsvc.sim.stats_mut().reset_window();
        for &m in &peers {
            if m != victim {
                hsvc.sim.invoke(m, move |p, ctx| {
                    let _ = p.report_suspect(leaf, victim, ctx);
                });
            }
        }
        hsvc.sim.run_for(SimDuration::from_secs(20));
        let everyone: Vec<Pid> = hsvc
            .members
            .iter()
            .chain(hsvc.leaders.iter())
            .copied()
            .collect();
        let hier_notified = disturbed(&hsvc.sim, &everyone);

        // Hier: total leaf failure — the parent rep detects the silence
        // and only it (plus the leader group) is informed. Beacons must be
        // live for detection, so this runs with default maintenance and
        // uses baseline-compared accounting.
        let mut h2 = hier_service(n.max(8), LargeGroupConfig::new(3, 4), 1_200 + n as u64);
        h2.sim.run_for(SimDuration::from_secs(3));
        let dir = h2.directory();
        let doomed = dir.last().expect("leaves").0;
        let doomed_members = h2.leaf_members(doomed);
        let everyone2: Vec<Pid> = h2
            .members
            .iter()
            .chain(h2.leaders.iter())
            .copied()
            .filter(|m| !doomed_members.contains(m))
            .collect();
        let (_msgs, leafdeath_notified) =
            event_cost(&mut h2.sim, &everyone2, SimDuration::from_secs(15), |sim| {
                for &m in &doomed_members {
                    sim.crash(m);
                }
            });

        vec![vec![
            n.to_string(),
            flat_notified.to_string(),
            hier_notified.to_string(),
            leaf_size.to_string(),
            leafdeath_notified.to_string(),
        ]]
    });
    t.note("hier: only the victim's leaf peers and the leader group see membership traffic");
    t.note("leafdeath: the parent rep detects the silence and informs the leader; the new structure then flows down the tree, touching one rep per leaf (fanout-bounded per process) and no plain members");
    t
}

// ---------------------------------------------------------------------
// E7 — "bounding the storage required within any single process for
// storing a group view"
// ---------------------------------------------------------------------

pub fn e7(quick: bool) -> Table {
    let mut t = Table::new(
        "E7",
        "per-process view storage: flat O(n) vs hier member O(leaf), rep O(fanout), leader O(leaves)",
        &[
            "n",
            "flat_member_B",
            "hier_member_B",
            "hier_rep_B",
            "leader_B",
        ],
    );
    let cfg = LargeGroupConfig::new(3, 8);
    let ns = sizes(quick, &[8, 64, 256, 1_024, 4_096, 16_384], &[8, 256, 4_096]);
    sweep_rows(&mut t, ns, |n| {
        // Representation sizes from the actual data structures.
        let flat_view = GroupView {
            gid: FLAT_GID,
            view_id: 1,
            members: (0..n as u32).map(Pid).collect(),
        };
        let leaf_size = cfg.max_leaf.min(n);
        let nleaves = n.div_ceil(leaf_size);
        let leaf_view = GroupView {
            gid: LGID.leaf_gid(1),
            view_id: 1,
            members: (0..leaf_size as u32).map(Pid).collect(),
        };
        let hview = HierView {
            lgid: LGID,
            epoch: 1,
            fanout: cfg.fanout,
            resiliency: cfg.resiliency,
            leaves: (0..nleaves)
                .map(|i| LeafDesc {
                    gid: LGID.leaf_gid(i as u32 + 1),
                    contacts: (0..cfg.resiliency.min(leaf_size) as u32).map(Pid).collect(),
                    size: leaf_size,
                })
                .collect(),
            leader_contacts: (0..cfg.resiliency as u32).map(Pid).collect(),
        };
        let rep_slice = hview.slice_for(nleaves.saturating_sub(1) / 2);
        vec![vec![
            n.to_string(),
            flat_view.storage_bytes().to_string(),
            leaf_view.storage_bytes().to_string(),
            (leaf_view.storage_bytes() + rep_slice.storage_bytes()).to_string(),
            hview.storage_bytes().to_string(),
        ]]
    });
    t.note("flat member stores the full membership: O(n)");
    t.note("hier member stores only its leaf view; a rep adds an O(fanout) routing slice");
    t.note("only the leader group stores the leaf list — 'a complete list of the processes is not explicitly stored anywhere'");
    t
}

/// E7 validation against a live cluster (used by the test suite).
pub fn e7_measured(n: usize, seed: u64) -> (usize, usize) {
    // Returns (max flat member bytes, max hier plain-member bytes).
    let (sim, members) = generic_cluster(
        n,
        FLAT_GID,
        IsisConfig::default(),
        SimConfig::ideal(seed),
        |_| FlatService::new(FLAT_GID),
    );
    let flat = members
        .iter()
        .map(|&m| sim.process(m).membership_storage_bytes(FLAT_GID))
        .max()
        .unwrap_or(0);
    let hsvc = hier_service(n, LargeGroupConfig::new(3, 4), seed + 1);
    let hier = hsvc
        .members
        .iter()
        .filter(|&&m| !hsvc.sim.process(m).app().is_rep(LGID))
        .map(|&m| {
            hsvc.sim.process(m).total_membership_storage_bytes()
                + hsvc.sim.process(m).app().hier_storage_bytes()
        })
        .max()
        .unwrap_or(0);
    (flat, hier)
}

// ---------------------------------------------------------------------
// E8 — multistage broadcast: "a process may communicate directly with no
// more than fanout group members"; depth grows logarithmically
// ---------------------------------------------------------------------

pub fn e8(quick: bool) -> Table {
    let mut t = Table::new(
        "E8",
        "tree broadcast: per-process destinations bounded by fanout; depth ~ log_f(leaves)",
        &[
            "n", "fanout", "leaves", "depth", "max_dests", "bound", "total_msgs", "latency_ms",
        ],
    );
    let ns: Vec<usize> = sizes(quick, &[32, 128, 512], &[32, 96]);
    let fs: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8, 16] };
    let mut points: Vec<(usize, usize)> = Vec::new();
    for &n in &ns {
        for &fan in &fs {
            points.push((n, fan));
        }
    }
    if !quick {
        // The paper's target scale: live multistage broadcasts over two
        // thousand members (wide fanouts only — fanout 2 at this size means
        // a thousand leaves and tells us nothing new about the bound), then
        // pushed past it to eight thousand to show the destination bound
        // and the log-depth latency growth both hold an order of magnitude
        // beyond the paper's examples.
        points.push((2_048, 8));
        points.push((2_048, 16));
        points.push((8_192, 8));
        points.push((8_192, 16));
    }
    sweep_rows(&mut t, points, |(n, fan)| {
        {
            let cfg = LargeGroupConfig::new(3, fan).counting();
            let mut h = hier_service_with(
                n,
                cfg.clone(),
                IsisConfig::quiet(),
                1_300 + (n * 31 + fan) as u64,
            );
            let view = h
                .sim
                .process(h.leaders[0])
                .app()
                .leader_view(LGID)
                .expect("the leader holds the view")
                .clone();
            h.sim.stats_mut().enable_fanout_tracking();
            h.sim.stats_mut().reset_window();
            let origin = h.members[n / 3];
            let t0 = h.sim.now();
            h.sim.invoke(origin, move |p, ctx| {
                p.with_app(ctx, |app, up| {
                    app.with_business(up, |_biz, lup| {
                        let reply = isis_toolkit::cohort::SvcMsg::Reply {
                            req: isis_toolkit::ReqId { client: lup.me(), seq: 0 },
                            reply: "bcast".into(),
                        };
                        lup.lbcast(LGID, reply.into());
                    });
                });
            });
            // Run until every member delivered it.
            let deadline = h.sim.now() + SimDuration::from_secs(60);
            loop {
                // LeafDeliver goes to on_lbcast, not the KV; count counter.
                let delivered = h.sim.stats().counter("hier.lbcast.delivered");
                if delivered >= n as u64 || h.sim.now() >= deadline {
                    break;
                }
                if !h.sim.step() {
                    break;
                }
            }
            let latency = h.sim.now().since(t0);
            h.sim.run_for(SimDuration::from_secs(5));
            let max_dests = h.sim.stats().max_distinct_destinations();
            let bound = fan + cfg.max_leaf + 2;
            vec![vec![
                n.to_string(),
                fan.to_string(),
                view.num_leaves().to_string(),
                view.depth().to_string(),
                max_dests.to_string(),
                bound.to_string(),
                h.sim.stats().messages_sent.to_string(),
                f(latency.as_millis_f64()),
            ]]
        }
    });
    t.note("bound = fanout + leaf_size + 2 (children + own leaf + parent ack + origin ack)");
    t.note("total_msgs measures 2n + 7..11 at every n, not n + 2·leaves; ROADMAP item 8 tracks why");
    t.note("latency is on the ideal (microsecond) network: read its *growth* with depth, not its absolute value");
    t
}

// ---------------------------------------------------------------------
// E9 — trading room at 100–500 workstations, sub-second response
// ---------------------------------------------------------------------

pub fn e9(quick: bool) -> Table {
    let mut t = Table::new(
        "E9",
        "trading room: quote latency and fanout, flat vs hierarchical floor",
        &[
            "analysts",
            "mode",
            "p50_ms",
            "p99_ms",
            "max_fanout",
            "msgs",
            "delivery",
        ],
    );
    let quotes = if quick { 20 } else { 60 };
    // The paper pitches the trading room at 100–500 workstations; the full
    // sweep pushes past that to a thousand analysts on one floor.
    let ns = sizes(quick, &[100, 300, 500, 1_000], &[24, 60]);
    sweep_rows(&mut t, ns, |n| {
        let h = isis_apps::drivers::run_trading_hier_with(
            n,
            quotes,
            200,
            LargeGroupConfig::new(3, 8).counting(),
            IsisConfig::quiet(),
            2_000 + n as u64,
        );
        let fl = isis_apps::run_trading_flat(n, quotes, 200, 2_100 + n as u64);
        vec![
            vec![
                n.to_string(),
                "hier".into(),
                f(h.p50_ms),
                f(h.p99_ms),
                h.max_fanout.to_string(),
                h.messages.to_string(),
                f(h.delivery_ratio),
            ],
            vec![
                n.to_string(),
                "flat".into(),
                f(fl.p50_ms),
                f(fl.p99_ms),
                fl.max_fanout.to_string(),
                fl.messages.to_string(),
                f(fl.delivery_ratio),
            ],
        ]
    });
    t.note("hier: feed fanout stays bounded; flat: the feed contacts all n-1 analysts per quote");
    t.note("both sides run maintenance-quiet so msgs counts only quote dissemination; E5 covers liveness costs");
    t
}

// ---------------------------------------------------------------------
// E10 — manufacturing control: consistency + availability under failures
// ---------------------------------------------------------------------

pub fn e10(quick: bool) -> Table {
    let mut t = Table::new(
        "E10",
        "factory: transactional inventory under cell crashes (conservation must hold)",
        &[
            "cells",
            "crashes",
            "attempts",
            "committed",
            "availability",
            "conserved",
        ],
    );
    let mut points: Vec<(usize, usize)> = Vec::new();
    for &n in &sizes(quick, &[30, 60], &[12]) {
        for k in [0usize, 3] {
            points.push((n, k));
        }
    }
    sweep_rows(&mut t, points, |(n, k)| {
        let r = isis_apps::run_factory(n, 8, if quick { 3 } else { 4 }, k, 3_000 + n as u64);
        vec![vec![
            n.to_string(),
            k.to_string(),
            r.attempts.to_string(),
            r.committed.to_string(),
            f(r.availability),
            r.conserved.to_string(),
        ]]
    });
    t.note("conserved: initial_parts - remaining == 2 × products, audited after the run");
    t
}

// ---------------------------------------------------------------------
// A1 — ablation: leader-group branch views vs full replication
// ---------------------------------------------------------------------

pub fn a1(quick: bool) -> Table {
    let mut t = Table::new(
        "A1",
        "ablation: branch views at the leader group vs replicated at every member",
        &[
            "n",
            "leader_update_msgs",
            "full_repl_msgs",
            "leader_storage_B",
            "full_repl_storage_B",
        ],
    );
    sweep_rows(&mut t, sizes(quick, &[16, 64, 256, 1_024], &[16, 64]), |n| {
        // Measured: messages that flow when one leaf's contacts change
        // (a rep change) under the leader design.
        let cfg = LargeGroupConfig::new(3, 4);
        let measured = if n <= 256 {
            let mut h = hier_service(n, cfg.clone(), 4_000 + n as u64);
            h.sim.run_for(SimDuration::from_secs(2));
            let dir = h.directory();
            let leaf = dir.last().expect("the hierarchy has a leaf").0;
            let rep = h.leaf_members(leaf)[0];
            h.sim.stats_mut().reset_window();
            h.sim.crash(rep);
            h.sim.run_for(SimDuration::from_secs(10));
            // Membership traffic only: subtract the idle baseline measured
            // over an equal window.
            let with_change = h.sim.stats().messages_sent;
            h.sim.stats_mut().reset_window();
            h.sim.run_for(SimDuration::from_secs(10));
            let baseline = h.sim.stats().messages_sent;
            with_change.saturating_sub(baseline)
        } else {
            0
        };
        let nleaves = n.div_ceil(cfg.max_leaf);
        let hview_bytes = 24 + nleaves * (8 + 4 * cfg.resiliency + 8);
        vec![vec![
            n.to_string(),
            if measured > 0 {
                measured.to_string()
            } else {
                "-".into()
            },
            n.to_string(),
            (cfg.resiliency * hview_bytes).to_string(),
            (n * hview_bytes).to_string(),
        ]]
    });
    t.note("leader design: a membership change costs a leaf flush + leader-group update, independent of n");
    t.note("full replication would push every change to all n members and store the view n times");
    t
}

// ---------------------------------------------------------------------
// A2 — ablation: leaf split/merge thresholds under churn
// ---------------------------------------------------------------------

pub fn a2(quick: bool) -> Table {
    let mut t = Table::new(
        "A2",
        "ablation: leaf size band vs reorganisation churn",
        &["band", "splits", "dissolves", "epochs", "msgs", "leaves_end"],
    );
    let bands: Vec<(usize, usize)> = vec![(2, 4), (3, 7), (4, 12)];
    let n = if quick { 18 } else { 36 };
    sweep_rows(&mut t, bands, |(lo, hi)| {
        let cfg = LargeGroupConfig::new(2, 4).with_leaf_band(lo, hi);
        let mut h = hier_service_with(n, cfg, IsisConfig::default(), 5_000 + (lo * 10 + hi) as u64);
        h.sim.stats_mut().reset_window();
        // Churn: drain two leaves down to one member each (forcing merges
        // under narrow bands), then admit replacements (forcing mints and,
        // where dissolves overfill a target, splits).
        let dir = h.directory();
        for (gid, _) in dir.iter().rev().take(2) {
            let in_leaf = h.leaf_members(*gid);
            for &victim in in_leaf.iter().skip(1) {
                h.sim.crash(victim);
                h.sim.run_for(SimDuration::from_secs(3));
            }
        }
        for _ in 0..n / 4 {
            let nd = h.sim.add_nodes(1)[0];
            let p = h.sim.spawn(
                nd,
                IsisProcess::new(
                    isis_hier::HierApp::with_timers(
                        isis_toolkit::hier::LeafServiceApp::new(LGID),
                        LargeGroupConfig::new(2, 4),
                    ),
                    IsisConfig::default(),
                ),
            );
            let contact = h.leaders[0];
            h.sim.invoke(p, move |proc_, ctx| {
                proc_.with_app(ctx, move |app, up| app.join_large(LGID, contact, up));
            });
            h.sim.run_for(SimDuration::from_secs(2));
        }
        h.sim.run_for(SimDuration::from_secs(30));
        let st = h.sim.stats();
        let view = h
            .sim
            .process(h.leaders[0])
            .app()
            .leader_view(LGID)
            .expect("the leader holds the view");
        vec![vec![
            format!("[{lo},{hi}]"),
            st.counter("hier.splits").to_string(),
            st.counter("hier.dissolves").to_string(),
            st.counter("isis.views_installed").to_string(),
            st.messages_sent.to_string(),
            view.num_leaves().to_string(),
        ]]
    });
    t.note("narrow bands reorganise more under the same churn; wide bands tolerate drift");
    t
}

// ---------------------------------------------------------------------
// Extra: partition behaviour (section 5 of the paper)
// ---------------------------------------------------------------------

pub fn partitions(_quick: bool) -> Table {
    let mut t = Table::new(
        "EP",
        "network partition: primary partition continues, minority stalls (no split-brain)",
        &["n", "minority", "majority_view", "minority_stalled", "split_brain"],
    );
    sweep_rows(&mut t, vec![(5usize, 2usize), (9, 4), (15, 7)], |(n, k)| {
        let (mut sim, members) = generic_cluster(
            n,
            FLAT_GID,
            IsisConfig::partition_safe(),
            SimConfig::ideal(6_000 + n as u64),
            |_| FlatService::new(FLAT_GID),
        );
        let minority_nodes: Vec<now_sim::NodeId> =
            members[n - k..].iter().map(|&m| sim.node_of(m)).collect();
        sim.set_partition(Partition::split(minority_nodes));
        sim.run_for(SimDuration::from_secs(30));
        let majority_ok = members[..n - k]
            .iter()
            .all(|&m| sim.process(m).view_of(FLAT_GID).is_some_and(|v| v.size() == n - k));
        let minority_stalled = members[n - k..].iter().all(|&m| {
            let p = sim.process(m);
            p.status_of(FLAT_GID) == Some(isis_core::Status::Stalled)
                || p.view_of(FLAT_GID).is_some_and(|v| v.size() == n)
        });
        let split_brain = members[n - k..]
            .iter()
            .any(|&m| sim.process(m).view_of(FLAT_GID).is_some_and(|v| v.size() == k));
        vec![vec![
            n.to_string(),
            k.to_string(),
            majority_ok.to_string(),
            minority_stalled.to_string(),
            split_brain.to_string(),
        ]]
    });
    t.note("with partition_safety on, only a strict majority may install new views");
    t
}

// ---------------------------------------------------------------------
// EA — availability under churn: without recovery every crash shrinks
// the service for good; with crash-recovery the workstation respawns,
// rejoins through the ordinary join/state-transfer surface, and
// delivery coverage returns to ~1.0
// ---------------------------------------------------------------------

pub fn availability(quick: bool) -> Table {
    let mut t = Table::new(
        "EA",
        "availability under churn: lbcast coverage with vs without crash recovery",
        &["n", "crashes", "recovery", "coverage", "live_end", "rejoins"],
    );
    const N: usize = 12;
    let churn = if quick { vec![1usize, 3] } else { vec![1usize, 3, 5] };
    let cases: Vec<(usize, bool)> =
        churn.into_iter().flat_map(|c| [(c, false), (c, true)]).collect();
    sweep_rows(&mut t, cases, |(crashes, recover)| {
        let mut c = isis_hier::harness::large_cluster_with(
            N,
            LargeGroupConfig::new(2, 3),
            IsisConfig::default(),
            SimConfig::ideal(7_100 + crashes as u64 * 10 + u64::from(recover)),
        );
        let lgid = c.lgid;
        let mut fallen: Vec<Pid> = Vec::new();
        let mut coverage_sum = 0.0;
        for round in 0..crashes {
            // Each round fells a fresh, preferably plain (non-rep)
            // workstation, then measures how much of the original
            // membership a post-crash broadcast still reaches.
            let live = c.live_members();
            let victim = *live
                .iter()
                .find(|&&m| !fallen.contains(&m) && !c.sim.process(m).app().is_rep(lgid))
                .or_else(|| live.iter().find(|&&m| !fallen.contains(&m)))
                .expect("someone left to crash");
            fallen.push(victim);
            c.sim.crash(victim);
            c.run_for(SimDuration::from_secs(15));
            if recover {
                c.restart_member(victim);
            }
            c.run_for(SimDuration::from_secs(30)); // rejoin window (both arms wait)
            let origin = c
                .live_members()
                .into_iter()
                .find(|&m| m != victim)
                .expect("a surviving origin");
            let payload = format!("round-{round}");
            c.lbcast(origin, &payload);
            c.run_for(SimDuration::from_secs(15));
            let got = c
                .members
                .iter()
                .filter(|&&m| {
                    c.sim.is_alive(m)
                        && c.sim
                            .process(m)
                            .app()
                            .biz()
                            .lbcast_payloads(lgid)
                            .contains(&payload)
                })
                .count();
            coverage_sum += got as f64 / N as f64;
        }
        let live_end = c.live_members().len();
        let rejoins = c
            .members
            .iter()
            .filter(|&&m| c.sim.incarnation(m) > 0)
            .count();
        vec![vec![
            N.to_string(),
            crashes.to_string(),
            (if recover { "on" } else { "off" }).to_string(),
            f(coverage_sum / crashes as f64),
            live_end.to_string(),
            rejoins.to_string(),
        ]]
    });
    t.note("coverage = mean fraction of the original n members delivering each post-crash lbcast");
    t.note("recovery off: coverage decays ~1/n per crash; on: restarts rejoin and it stays ~1.0");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_resolves_and_unknown_ones_do_not() {
        let ids = [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "A1", "A2", "EP", "EA",
        ];
        assert_eq!(ALL.map(|(id, _)| id), ids, "sweep order");
        for id in ids {
            assert!(by_id(id).is_some(), "{id} must resolve");
            assert!(by_id(&id.to_lowercase()).is_some(), "{id} in lower case");
        }
        for bad in ["E0", "E11", "E", "PAR", ""] {
            assert!(by_id(bad).is_none(), "{bad:?} must not resolve");
        }
    }
}
