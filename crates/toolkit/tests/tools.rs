//! End-to-end tests of the toolkit tools, flat and hierarchical.

use isis_core::testutil::generic_cluster;
use isis_core::{GroupId, IsisConfig, IsisProcess};
use isis_hier::{HierApp, LargeGroupConfig, LargeGroupId};
use isis_toolkit::flat::{FlatMutex, FlatParallel, FlatService};
use isis_toolkit::hier::{home_leaf, Directory, LeafServiceApp, TreeParallel};
use now_sim::{Partition, Pid, Sim, SimConfig, SimDuration, SimTime};

const GID: GroupId = GroupId(7);

// ---------------------------------------------------------------------
// Flat coordinator-cohort
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

#[test]
fn flat_service_round_trip_and_replication() {
    let (mut sim, pids, client) = flat_svc_cluster(5, IsisConfig::default(), 1);
    let members = pids.clone();
    let req = sim
        .invoke(client, move |p, ctx| {
            p.with_app(ctx, |app, up| app.send_request(&members, "PUT x 42", up))
        })
        .unwrap();
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(
        sim.process(client).app().replies.get(&req).map(String::as_str),
        Some("OK")
    );
    // Every member replicated the write.
    for &m in &pids {
        assert_eq!(
            sim.process(m).app().state.get("x").map(String::as_str),
            Some("42"),
            "replica {m} missing the write"
        );
        assert_eq!(sim.process(m).app().pending_len(), 0);
    }
    // Exactly one member executed it.
    let execs: usize = pids
        .iter()
        .map(|&m| sim.process(m).app().executed.len())
        .sum();
    assert_eq!(execs, 1);
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

#[test]
fn flat_service_survives_coordinator_crash() {
    let (mut sim, pids, client) = flat_svc_cluster(5, IsisConfig::default(), 9);
    let coordinator = pids[0];
    // Request arrives everywhere; kill the coordinator before it can act
    // is racy, so kill it and then send — the cohort takeover path runs
    // when the view changes.
    sim.crash(coordinator);
    let members = pids.clone();
    let req = sim
        .invoke(client, move |p, ctx| {
            p.with_app(ctx, |app, up| app.send_request(&members, "PUT y 7", up))
        })
        .unwrap();
    sim.run_for(SimDuration::from_secs(20));
    assert_eq!(
        sim.process(client).app().replies.get(&req).map(String::as_str),
        Some("OK"),
        "client reply after coordinator failover"
    );
    for &m in &pids[1..] {
        assert_eq!(
            sim.process(m).app().state.get("y").map(String::as_str),
            Some("7")
        );
    }
}

#[test]
fn flat_service_no_duplicate_execution_under_retry() {
    let (mut sim, pids, client) = flat_svc_cluster(4, IsisConfig::default(), 13);
    let members = pids.clone();
    sim.invoke(client, move |p, ctx| {
        p.with_app(ctx, |app, up| {
            app.retry = SimDuration::from_millis(200);
            app.send_request(&members, "ADD counter 1", up)
        })
    });
    // Let several client retries fire even though the service answered.
    sim.run_for(SimDuration::from_secs(5));
    for &m in &pids {
        assert_eq!(
            sim.process(m).app().state.get("counter").map(String::as_str),
            Some("1"),
            "retries must not re-execute at {m}"
        );
    }
}

// ---------------------------------------------------------------------
// Flat mutual exclusion
// ---------------------------------------------------------------------

#[test]
fn mutex_grants_are_exclusive_and_fifo() {
    let (mut sim, pids) = generic_cluster(
        4,
        GID,
        IsisConfig::quiet(),
        SimConfig::ideal(21),
        |_| FlatMutex::new(),
    );
    for &p in &pids {
        sim.invoke(p, |proc_, ctx| {
            proc_.with_app(ctx, |app, up| app.acquire("L", up));
        });
    }
    sim.run_for(SimDuration::from_secs(2));
    // Exactly one holder, and everyone agrees who it is.
    let holders: Vec<Pid> = pids
        .iter()
        .copied()
        .filter(|&p| sim.process(p).app().holds("L"))
        .collect();
    assert_eq!(holders.len(), 1);
    let agreed: Vec<Option<Pid>> = pids
        .iter()
        .map(|&p| sim.process(p).app().holder_of("L"))
        .collect();
    assert!(agreed.iter().all(|h| *h == Some(holders[0])));

    // Release cascades through the whole queue in FIFO order.
    let mut order = vec![holders[0]];
    for _ in 0..3 {
        let h = order.last().copied().unwrap();
        sim.invoke(h, |proc_, ctx| {
            proc_.with_app(ctx, |app, up| app.release("L", up));
        });
        sim.run_for(SimDuration::from_secs(1));
        let now: Vec<Pid> = pids
            .iter()
            .copied()
            .filter(|&p| sim.process(p).app().holds("L"))
            .collect();
        assert_eq!(now.len(), 1);
        assert!(!order.contains(&now[0]), "a pid was granted twice");
        order.push(now[0]);
    }
}

#[test]
fn mutex_holder_crash_frees_the_lock() {
    let (mut sim, pids) = generic_cluster(
        4,
        GID,
        IsisConfig::default(),
        SimConfig::ideal(23),
        |_| FlatMutex::new(),
    );
    let (a, b) = (pids[1], pids[2]);
    sim.invoke(a, |p, ctx| p.with_app(ctx, |app, up| app.acquire("L", up)));
    sim.run_for(SimDuration::from_secs(1));
    sim.invoke(b, |p, ctx| p.with_app(ctx, |app, up| app.acquire("L", up)));
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.process(a).app().holds("L"));
    sim.crash(a);
    sim.run_for(SimDuration::from_secs(20));
    assert!(
        sim.process(b).app().holds("L"),
        "lock must pass to the next waiter after the holder crashes"
    );
}

// ---------------------------------------------------------------------
// Flat parallel computation
// ---------------------------------------------------------------------

#[test]
fn flat_parallel_computes_the_right_sum() {
    let (mut sim, pids) = generic_cluster(
        6,
        GID,
        IsisConfig::quiet(),
        SimConfig::ideal(31),
        |_| FlatParallel::new(),
    );
    let task = sim
        .invoke(pids[2], |p, ctx| {
            p.with_app(ctx, |app, up| app.run(0, 10_000, up))
        })
        .unwrap()
        .unwrap();
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(
        sim.process(pids[2]).app().result(task),
        Some(isis_toolkit::flat::parallel::expected_sum(0, 10_000))
    );
}

// ---------------------------------------------------------------------
// Hierarchical service
// ---------------------------------------------------------------------

type HierSim = Sim<IsisProcess<HierApp<LeafServiceApp>>>;

type HierCluster = (
    HierSim,
    LargeGroupId,
    Vec<Pid>,
    Vec<Pid>,
);

fn hier_cluster(n: usize, seed: u64) -> HierCluster {
    let lgid = LargeGroupId(1);
    let cfg = LargeGroupConfig::new(2, 3);
    let mut sim: HierSim = Sim::new(SimConfig::ideal(seed));
    let nleaders = cfg.resiliency;
    let leaders: Vec<Pid> = (0..nleaders)
        .map(|_| {
            let nd = sim.add_nodes(1)[0];
            sim.spawn(
                nd,
                IsisProcess::new(
                    HierApp::with_timers(LeafServiceApp::new(lgid), cfg.clone()),
                    IsisConfig::default(),
                ),
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
    sim.run_for(SimDuration::from_secs(5));
    let members: Vec<Pid> = (0..n)
        .map(|_| {
            let nd = sim.add_nodes(1)[0];
            let p = sim.spawn(
                nd,
                IsisProcess::new(
                    HierApp::with_timers(LeafServiceApp::new(lgid), cfg.clone()),
                    IsisConfig::default(),
                ),
            );
            let contact = leaders[0];
            sim.invoke(p, move |proc_, ctx| {
                proc_.with_app(ctx, move |app, up| app.join_large(lgid, contact, up));
            });
            p
        })
        .collect();
    // Wait for formation.
    let deadline = sim.now() + SimDuration::from_secs(300);
    loop {
        let ok = members
            .iter()
            .all(|&m| sim.process(m).app().is_large_member(lgid))
            && sim
                .process(leaders[0])
                .app()
                .leader_view(lgid)
                .is_some_and(|v| v.total_members() == n);
        if ok {
            break;
        }
        assert!(sim.now() < deadline, "hier service cluster failed to form");
        if !sim.step() {
            sim.run_for(SimDuration::from_millis(100));
        }
    }
    (sim, lgid, leaders, members)
}

fn directory(
    sim: &HierSim,
    leader: Pid,
    lgid: LargeGroupId,
) -> Directory {
    sim.process(leader)
        .app()
        .leader_view(lgid)
        .expect("leader view")
        .leaves
        .iter()
        .map(|l| (l.gid, l.contacts.clone()))
        .collect()
}

#[test]
fn hier_service_routes_by_key_and_replies() {
    let (mut sim, lgid, leaders, members) = hier_cluster(12, 41);
    let dir = directory(&sim, leaders[0], lgid);
    // A client joins nothing; it just talks to leaf contacts.
    let nd = sim.add_nodes(1)[0];
    let client = sim.spawn(
        nd,
        IsisProcess::new(
            HierApp::new(LeafServiceApp::new(lgid)),
            IsisConfig::default(),
        ),
    );
    let d2 = dir.clone();
    let req = sim
        .invoke(client, move |p, ctx| {
            p.with_app(ctx, |app, up| {
                let mut out = None;
                app.with_business(up, |biz, lup| {
                    out = Some(biz.send_request(&d2, "PUT alpha 9", lup));
                });
                out.unwrap()
            })
        })
        .unwrap();
    sim.run_for(SimDuration::from_secs(5));
    let reply = sim
        .process(client)
        .app()
        .biz()
        .replies
        .get(&req)
        .cloned();
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
    let _ = members;
}

#[test]
fn hier_txn_commits_across_leaves() {
    let (mut sim, lgid, leaders, members) = hier_cluster(12, 43);
    let dir = directory(&sim, leaders[0], lgid);
    assert!(dir.len() >= 2, "need multiple leaves for a distributed txn");
    let initiator = members[0];
    // Find two keys living in different leaves.
    let (k1, k2) = two_keys_in_different_leaves(&dir);
    let writes = vec![
        (k1.clone(), "100".to_string()),
        (k2.clone(), "200".to_string()),
    ];
    let d2 = dir.clone();
    let txn = sim
        .invoke(initiator, move |p, ctx| {
            p.with_app(ctx, |app, up| {
                let mut out = None;
                app.with_business(up, |biz, lup| {
                    out = Some(biz.begin_txn(&d2, &writes, lup));
                });
                out.unwrap()
            })
        })
        .unwrap();
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

fn read_key(
    sim: &Sim<IsisProcess<HierApp<LeafServiceApp>>>,
    members: &[Pid],
    key: &str,
) -> Option<String> {
    members
        .iter()
        .filter(|&&m| sim.is_alive(m))
        .find_map(|&m| sim.process(m).app().biz().state.get(key).cloned())
}

#[test]
fn hier_txn_conflict_aborts_one() {
    let (mut sim, lgid, leaders, members) = hier_cluster(12, 47);
    let dir = directory(&sim, leaders[0], lgid);
    let (k1, k2) = two_keys_in_different_leaves(&dir);
    let (a, b) = (members[0], members[1]);
    let writes_a = vec![(k1.clone(), "A".into()), (k2.clone(), "A".into())];
    let writes_b = vec![(k2.clone(), "B".into()), (k1.clone(), "B".into())];
    let (da, db) = (dir.clone(), dir.clone());
    let ta = sim
        .invoke(a, move |p, ctx| {
            p.with_app(ctx, |app, up| {
                let mut out = None;
                app.with_business(up, |biz, lup| out = Some(biz.begin_txn(&da, &writes_a, lup)));
                out.unwrap()
            })
        })
        .unwrap();
    let tb = sim
        .invoke(b, move |p, ctx| {
            p.with_app(ctx, |app, up| {
                let mut out = None;
                app.with_business(up, |biz, lup| out = Some(biz.begin_txn(&db, &writes_b, lup)));
                out.unwrap()
            })
        })
        .unwrap();
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

#[test]
fn hier_lock_is_exclusive_across_leaves() {
    let (mut sim, lgid, leaders, members) = hier_cluster(9, 53);
    let dir = directory(&sim, leaders[0], lgid);
    let (a, b) = (members[2], members[7]);
    for &p in &[a, b] {
        let d = dir.clone();
        sim.invoke(p, move |proc_, ctx| {
            proc_.with_app(ctx, |app, up| {
                app.with_business(up, |biz, lup| biz.acquire_lock(&d, "global-lock", lup));
            });
        });
    }
    sim.run_for(SimDuration::from_secs(5));
    let ha = sim.process(a).app().biz().held_locks.contains(&"global-lock".to_string());
    let hb = sim.process(b).app().biz().held_locks.contains(&"global-lock".to_string());
    assert!(ha ^ hb, "exactly one process may hold the lock: a={ha} b={hb}");
    // Release passes it over.
    let holder = if ha { a } else { b };
    let waiter = if ha { b } else { a };
    let d = dir.clone();
    sim.invoke(holder, move |proc_, ctx| {
        proc_.with_app(ctx, |app, up| {
            app.with_business(up, |biz, lup| biz.release_lock(&d, "global-lock", lup));
        });
    });
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim
        .process(waiter)
        .app()
        .biz()
        .held_locks
        .contains(&"global-lock".to_string()));
}

/// A lock whose home leaf has at least three members, and those members.
fn lock_with_home_of_three(
    sim: &HierSim,
    dir: &Directory,
    lgid: LargeGroupId,
    members: &[Pid],
) -> (String, Vec<Pid>) {
    (0..100)
        .map(|i| format!("lock{i}"))
        .find_map(|lock| {
            let gid = home_leaf(dir, &lock).0;
            let home: Vec<Pid> = members
                .iter()
                .copied()
                .filter(|&m| sim.process(m).app().leaf_of(lgid) == Some(gid))
                .collect();
            (home.len() >= 3).then_some((lock, home))
        })
        .expect("a home leaf with three members")
}

fn holds(sim: &HierSim, p: Pid, lock: &str) -> bool {
    sim.process(p).app().biz().held_locks.iter().any(|l| l == lock)
}

/// `p` asks for `lock`, then the sim runs for two seconds.
fn acquire(sim: &mut HierSim, dir: &Directory, p: Pid, lock: &str) {
    let (d, l) = (dir.clone(), lock.to_string());
    sim.invoke(p, move |proc_, ctx| {
        proc_.with_app(ctx, |app, up| {
            app.with_business(up, |biz, lup| biz.acquire_lock(&d, &l, lup));
        });
    });
    sim.run_for(SimDuration::from_secs(2));
}

/// A view change at a lock's home leaf keeps the waiters from other
/// leaves queued at every replica, so a release still passes the lock on.
#[test]
fn remote_lock_waiter_survives_a_view_change_at_the_lock_home() {
    let (mut sim, lgid, leaders, members) = hier_cluster(12, 59);
    let dir = directory(&sim, leaders[0], lgid);
    let (lock, home) = lock_with_home_of_three(&sim, &dir, lgid, &members);
    let victim = *home
        .iter()
        .find(|&&m| !sim.process(m).app().is_rep(lgid))
        .expect("a non-rep member");
    let remote: Vec<Pid> = members.iter().copied().filter(|m| !home.contains(m)).collect();
    let (holder, waiter) = (remote[0], remote[1]);
    for p in [holder, waiter] {
        acquire(&mut sim, &dir, p, &lock);
    }
    assert!(
        holds(&sim, holder, &lock) && !holds(&sim, waiter, &lock),
        "precondition: holder first"
    );
    sim.crash(victim);
    sim.run_for(SimDuration::from_secs(10));
    let (d, l) = (dir.clone(), lock.clone());
    sim.invoke(holder, move |proc_, ctx| {
        proc_.with_app(ctx, |app, up| {
            app.with_business(up, |biz, lup| biz.release_lock(&d, &l, lup));
        });
    });
    sim.run_for(SimDuration::from_secs(5));
    assert!(holds(&sim, waiter, &lock), "{waiter} never granted {lock}");
}

/// A holder that leaves the lock's home leaf alive — here it is cut off
/// and excluded — stays at the head of the queue, so the replicas do not
/// grant its lock to a waiter as well.
#[test]
fn excluded_lock_holder_is_not_granted_over() {
    let (mut sim, lgid, leaders, members) = hier_cluster(12, 59);
    let dir = directory(&sim, leaders[0], lgid);
    let (lock, home) = lock_with_home_of_three(&sim, &dir, lgid, &members);
    let holder = *home
        .iter()
        .find(|&&m| !sim.process(m).app().is_rep(lgid))
        .expect("a non-rep member");
    let waiter = *members.iter().find(|m| !home.contains(m)).expect("a remote member");
    for p in [holder, waiter] {
        acquire(&mut sim, &dir, p, &lock);
    }
    assert!(
        holds(&sim, holder, &lock) && !holds(&sim, waiter, &lock),
        "precondition: holder first"
    );
    let home_gid = home_leaf(&dir, &lock).0;
    sim.set_partition(Partition::split([sim.node_of(holder)]));
    sim.run_for(SimDuration::from_secs(10));
    let peer = *home.iter().find(|&&m| m != holder).expect("a home peer");
    let view = sim.process(peer).view_of(home_gid).expect("home leaf view");
    assert!(
        !view.contains(holder),
        "precondition: {holder} excluded from the home leaf"
    );
    assert!(holds(&sim, holder, &lock), "{holder} still holds {lock}");
    assert!(!holds(&sim, waiter, &lock), "{waiter} granted {lock} while {holder} holds it");
}

// ---------------------------------------------------------------------
// Hierarchical parallel computation
// ---------------------------------------------------------------------

#[test]
fn tree_parallel_computes_the_right_sum() {
    let lgid = LargeGroupId(1);
    let cfg = LargeGroupConfig::new(2, 3);
    let mut sim: Sim<IsisProcess<HierApp<TreeParallel>>> = Sim::new(SimConfig::ideal(61));
    let nd = sim.add_nodes(1)[0];
    let leader = sim.spawn(
        nd,
        IsisProcess::new(
            HierApp::with_timers(TreeParallel::new(lgid), cfg.clone()),
            IsisConfig::default(),
        ),
    );
    let cfg2 = cfg.clone();
    sim.invoke(leader, move |p, ctx| {
        p.with_app(ctx, move |app, up| app.create_large(lgid, cfg2, up));
    });
    sim.run_for(SimDuration::from_secs(2));
    let members: Vec<Pid> = (0..18)
        .map(|_| {
            let nd = sim.add_nodes(1)[0];
            let p = sim.spawn(
                nd,
                IsisProcess::new(
                    HierApp::with_timers(TreeParallel::new(lgid), cfg.clone()),
                    IsisConfig::default(),
                ),
            );
            sim.invoke(p, move |proc_, ctx| {
                proc_.with_app(ctx, move |app, up| app.join_large(lgid, leader, up));
            });
            p
        })
        .collect();
    let deadline = SimTime(0) + SimDuration::from_secs(300);
    loop {
        let formed = members
            .iter()
            .all(|&m| sim.process(m).app().is_large_member(lgid))
            && sim
                .process(leader)
                .app()
                .leader_view(lgid)
                .is_some_and(|v| v.total_members() == 18);
        if formed {
            break;
        }
        assert!(sim.now() < deadline);
        if !sim.step() {
            sim.run_for(SimDuration::from_millis(100));
        }
    }
    let root = sim
        .process(leader)
        .app()
        .leader_view(lgid)
        .unwrap()
        .root()
        .unwrap()
        .rep()
        .unwrap();
    let origin = members[11];
    let task = sim
        .invoke(origin, move |p, ctx| {
            p.with_app(ctx, |app, up| {
                let mut out = None;
                app.with_business(up, |biz, lup| out = Some(biz.run(root, 0, 50_000, lup)));
                out.unwrap()
            })
        })
        .unwrap();
    sim.run_for(SimDuration::from_secs(20));
    assert_eq!(
        sim.process(origin).app().biz().result(task),
        Some(isis_toolkit::hier::parallel::expected_sum(0, 50_000)),
        "tree scatter/gather must cover the whole range exactly once"
    );
}
