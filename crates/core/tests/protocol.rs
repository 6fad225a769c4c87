//! End-to-end protocol tests for the ISIS core stack: ordering guarantees,
//! virtual synchrony across failures, membership changes, and state
//! transfer. All scenarios run on the deterministic simulator, so every
//! assertion is exact, not probabilistic.

use isis_core::testutil::{cluster, cluster_lan, Cluster};
use isis_core::{CastKind, GroupId, IsisConfig};
use now_sim::{Partition, SimDuration, SimTime};

fn settle_long(c: &mut Cluster) {
    let limit = c.sim.now() + SimDuration::from_secs(60);
    c.sim.run_until(limit);
}

// ---------------------------------------------------------------------
// Ordering guarantees
// ---------------------------------------------------------------------

#[test]
fn fbcast_preserves_per_sender_order() {
    let mut c = cluster_lan(5, IsisConfig::quiet(), 3);
    let s = c.pids[0];
    let gid = c.gid;
    for i in 0..20 {
        c.sim.invoke(s, |p, ctx| {
            p.cast(gid, CastKind::Fifo, format!("m{i}"), ctx).unwrap();
        });
    }
    settle_long(&mut c);
    let want: Vec<String> = (0..20).map(|i| format!("m{i}")).collect();
    for (pid, log) in c.live_logs() {
        assert_eq!(log, want, "member {pid} saw FIFO violation");
    }
}

#[test]
fn abcast_total_order_under_concurrent_senders() {
    let mut c = cluster_lan(6, IsisConfig::quiet(), 11);
    let gid = c.gid;
    // All members fire concurrently, several times.
    for round in 0..5 {
        for (i, &p) in c.pids.clone().iter().enumerate() {
            c.sim.invoke(p, |proc_, ctx| {
                proc_
                    .cast(gid, CastKind::Total, format!("r{round}s{i}"), ctx)
                    .unwrap();
            });
        }
    }
    settle_long(&mut c);
    c.assert_identical_logs();
    let (_, log) = &c.live_logs()[0];
    assert_eq!(log.len(), 30, "every ABCAST delivered exactly once");
}

#[test]
fn cbcast_agreement_on_concurrent_sends() {
    let mut c = cluster_lan(5, IsisConfig::quiet(), 17);
    let gid = c.gid;
    for (i, &p) in c.pids.clone().iter().enumerate() {
        c.sim.invoke(p, |proc_, ctx| {
            proc_
                .cast(gid, CastKind::Causal, format!("c{i}"), ctx)
                .unwrap();
        });
    }
    settle_long(&mut c);
    // Concurrent causal casts may be delivered in different orders, but the
    // set must agree and each member delivers all five.
    c.assert_identical_sets();
    for (_, log) in c.live_logs() {
        assert_eq!(log.len(), 5);
    }
}

#[test]
fn cbcast_respects_causal_chains() {
    // a casts m1; once b has delivered m1 it casts m2 (a genuine causal
    // successor). No member may deliver m2 before m1, whatever the jitter.
    for seed in 0..10 {
        let mut c = cluster_lan(5, IsisConfig::quiet(), 100 + seed);
        let gid = c.gid;
        let (a, b) = (c.pids[0], c.pids[1]);
        c.sim.invoke(a, |p, ctx| {
            p.cast(gid, CastKind::Causal, "m1".into(), ctx).unwrap();
        });
        // Wait until b has m1, then cast its reply.
        let deadline = c.sim.now() + SimDuration::from_secs(10);
        while c.sim.process(b).app().payloads(gid).is_empty() {
            assert!(c.sim.now() < deadline && c.sim.step(), "b never got m1");
        }
        c.sim.invoke(b, |p, ctx| {
            p.cast(gid, CastKind::Causal, "m2".into(), ctx).unwrap();
        });
        settle_long(&mut c);
        for (pid, log) in c.live_logs() {
            let i1 = log.iter().position(|m| m == "m1");
            let i2 = log.iter().position(|m| m == "m2");
            assert!(i1 < i2, "seed {seed}: {pid} delivered m2 before m1: {log:?}");
            assert_eq!(log.len(), 2);
        }
    }
}

#[test]
fn fbcast_streams_from_different_senders_interleave_freely() {
    let mut c = cluster_lan(4, IsisConfig::quiet(), 23);
    let gid = c.gid;
    let (a, b) = (c.pids[0], c.pids[1]);
    for i in 0..10 {
        c.sim.invoke(a, |p, ctx| {
            p.cast(gid, CastKind::Fifo, format!("a{i}"), ctx).unwrap();
        });
        c.sim.invoke(b, |p, ctx| {
            p.cast(gid, CastKind::Fifo, format!("b{i}"), ctx).unwrap();
        });
    }
    settle_long(&mut c);
    for (pid, log) in c.live_logs() {
        let a_seq: Vec<&String> = log.iter().filter(|m| m.starts_with('a')).collect();
        let b_seq: Vec<&String> = log.iter().filter(|m| m.starts_with('b')).collect();
        for (i, m) in a_seq.iter().enumerate() {
            assert_eq!(**m, format!("a{i}"), "per-sender order at {pid}");
        }
        for (i, m) in b_seq.iter().enumerate() {
            assert_eq!(**m, format!("b{i}"), "per-sender order at {pid}");
        }
        assert_eq!(log.len(), 20);
    }
}

// ---------------------------------------------------------------------
// Membership: joins, leaves, state transfer
// ---------------------------------------------------------------------

#[test]
fn joiner_receives_state_snapshot() {
    let mut c = cluster(3, IsisConfig::default(), 5);
    let gid = c.gid;
    c.cast_and_settle(c.pids[0], CastKind::Total, "pre-join-1");
    c.cast_and_settle(c.pids[1], CastKind::Total, "pre-join-2");

    // Spawn a fresh process and join through pids[2].
    let node = c.sim.add_nodes(1)[0];
    let newcomer = c.sim.spawn(
        node,
        isis_core::IsisProcess::new(
            isis_core::testutil::RecorderApp::default(),
            IsisConfig::default(),
        ),
    );
    let contact = c.pids[2];
    c.sim.invoke(newcomer, |p, ctx| {
        p.join(gid, contact, ctx).unwrap();
    });
    c.pids.push(newcomer);
    c.await_membership(4, SimDuration::from_secs(60));

    let app = c.sim.process(newcomer).app();
    assert_eq!(
        app.imported.as_deref(),
        Some(&["pre-join-1".to_string(), "pre-join-2".to_string()][..]),
        "state transfer must replay the pre-join history"
    );
    assert_eq!(app.joined, vec![gid]);

    // And the newcomer participates in subsequent broadcasts.
    c.cast_and_settle(newcomer, CastKind::Total, "post-join");
    for (_, log) in c.live_logs() {
        assert!(log.contains(&"post-join".to_string()));
    }
}

#[test]
fn graceful_leave_shrinks_view_everywhere() {
    let mut c = cluster(5, IsisConfig::default(), 9);
    let gid = c.gid;
    let leaver = c.pids[2];
    c.sim.invoke(leaver, |p, ctx| {
        p.leave(gid, ctx).unwrap();
    });
    c.await_membership(4, SimDuration::from_secs(60));
    assert!(!c.sim.process(leaver).is_member(gid));
    assert_eq!(c.sim.process(leaver).app().left, vec![gid]);
    for &p in &c.pids {
        if p == leaver {
            continue;
        }
        let v = c.sim.process(p).view_of(gid).unwrap();
        assert!(!v.contains(leaver));
        assert_eq!(v.size(), 4);
    }
}

#[test]
fn coordinator_can_leave_its_own_group() {
    let mut c = cluster(4, IsisConfig::default(), 13);
    let gid = c.gid;
    let coord = c.pids[0]; // Oldest member leads view changes.
    c.sim.invoke(coord, |p, ctx| {
        p.leave(gid, ctx).unwrap();
    });
    c.await_membership(3, SimDuration::from_secs(60));
    assert!(!c.sim.process(coord).is_member(gid));
    // The next-oldest member is now coordinator.
    let v = c.sim.process(c.pids[1]).view_of(gid).unwrap();
    assert_eq!(v.coordinator(), c.pids[1]);
}

#[test]
fn concurrent_joins_converge() {
    let mut c = cluster(2, IsisConfig::default(), 21);
    let gid = c.gid;
    let contact = c.pids[0];
    let nodes = c.sim.add_nodes(6);
    for nd in nodes {
        let p = c.sim.spawn(
            nd,
            isis_core::IsisProcess::new(
                isis_core::testutil::RecorderApp::default(),
                IsisConfig::default(),
            ),
        );
        c.sim.invoke(p, |proc_, ctx| {
            proc_.join(gid, contact, ctx).unwrap();
        });
        c.pids.push(p);
    }
    c.await_membership(8, SimDuration::from_secs(120));
    // All members agree on the final view.
    let v0 = c.sim.process(c.pids[0]).view_of(gid).unwrap().clone();
    for &p in &c.pids {
        assert_eq!(c.sim.process(p).view_of(gid), Some(&v0));
    }
}

#[test]
fn join_to_nonmember_is_denied() {
    let mut c = cluster(2, IsisConfig::default(), 31);
    let node = c.sim.add_nodes(1)[0];
    let outsider = c.sim.spawn(
        node,
        isis_core::IsisProcess::new(
            isis_core::testutil::RecorderApp::default(),
            IsisConfig::default(),
        ),
    );
    let joiner = c.sim.spawn(
        c.nodes[0],
        isis_core::IsisProcess::new(
            isis_core::testutil::RecorderApp::default(),
            IsisConfig::default(),
        ),
    );
    let unknown = GroupId(99);
    c.sim.invoke(joiner, |p, ctx| {
        p.join(unknown, outsider, ctx).unwrap();
    });
    c.settle();
    assert_eq!(c.sim.process(joiner).app().denied, vec![unknown]);
    assert!(!c.sim.process(joiner).is_member(unknown));
}

#[test]
fn joiner_crash_mid_join_leaves_the_contact_clean() {
    // A joiner dies with its join in flight: the contact's pending-joiner
    // bookkeeping must drain, no view may end up containing the corpse,
    // and the group keeps working — no leaked JoinState anywhere.
    for seed in 0..10 {
        let mut c = cluster_lan(3, IsisConfig::default(), 2_000 + seed);
        let gid = c.gid;
        let contact = c.pids[2];
        let node = c.sim.add_nodes(1)[0];
        let joiner = c.sim.spawn(
            node,
            isis_core::IsisProcess::new(
                isis_core::testutil::RecorderApp::default(),
                IsisConfig::default(),
            ),
        );
        c.sim.invoke(joiner, |p, ctx| {
            p.join(gid, contact, ctx).unwrap();
        });
        // Let the join travel a varying distance before the crash: step
        // until the contact has buffered the joiner (or a bounded number
        // of raw steps for the earliest interleavings).
        let raw_steps = (seed as usize) * 3;
        for _ in 0..raw_steps {
            if c.sim.process(contact).pending_joiners(gid) > 0 {
                break;
            }
            c.sim.step();
        }
        c.sim.crash(joiner);
        settle_long(&mut c);

        for &p in &c.pids {
            let proc_ = c.sim.process(p);
            assert_eq!(
                proc_.pending_joiners(gid),
                0,
                "seed {seed}: member {p} leaked pending-joiner state"
            );
            let v = proc_.view_of(gid).expect("still a member");
            assert!(
                !v.contains(joiner),
                "seed {seed}: dead joiner survives in {p}'s view"
            );
            assert_eq!(v.size(), 3, "seed {seed}: view shrank or grew at {p}");
        }
        // The group still makes progress after the aborted join.
        c.cast_and_settle(c.pids[0], CastKind::Total, "after-aborted-join");
        for (p, log) in c.live_logs() {
            assert!(
                log.contains(&"after-aborted-join".to_string()),
                "seed {seed}: {p} missed post-abort traffic"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Failures and virtual synchrony
// ---------------------------------------------------------------------

#[test]
fn member_crash_triggers_view_change() {
    let mut c = cluster(5, IsisConfig::default(), 41);
    let gid = c.gid;
    let victim = c.pids[3];
    c.sim.crash(victim);
    c.await_membership(4, SimDuration::from_secs(60));
    for &p in &c.pids {
        if p == victim {
            continue;
        }
        assert!(!c.sim.process(p).view_of(gid).unwrap().contains(victim));
    }
}

#[test]
fn coordinator_crash_recovers_membership() {
    let mut c = cluster(5, IsisConfig::default(), 43);
    let gid = c.gid;
    let coord = c.pids[0];
    c.sim.crash(coord);
    c.await_membership(4, SimDuration::from_secs(60));
    let v = c.sim.process(c.pids[1]).view_of(gid).unwrap();
    assert_eq!(v.coordinator(), c.pids[1]);
    assert_eq!(v.size(), 4);
}

#[test]
fn virtual_synchrony_under_sender_crash() {
    // A sender crashes immediately after multicasting; survivors must agree
    // on whether the message was delivered (all-or-nothing).
    for seed in 0..20 {
        let mut c = cluster_lan(5, IsisConfig::default(), 1_000 + seed);
        let gid = c.gid;
        let sender = c.pids[2];
        c.sim.invoke(sender, |p, ctx| {
            p.cast(gid, CastKind::Causal, "last-words".into(), ctx)
                .unwrap();
        });
        // Crash the sender before the multicast propagates everywhere.
        c.sim.crash(sender);
        c.await_membership(4, SimDuration::from_secs(60));
        settle_long(&mut c);
        let logs = c.live_logs();
        let delivered: Vec<bool> = logs
            .iter()
            .map(|(_, l)| l.contains(&"last-words".to_string()))
            .collect();
        assert!(
            delivered.iter().all(|&d| d) || delivered.iter().all(|&d| !d),
            "seed {seed}: survivors disagree on the crashed sender's message: {delivered:?}"
        );
    }
}

#[test]
fn virtual_synchrony_sequencer_crash_with_inflight_abcasts() {
    for seed in 0..20 {
        let mut c = cluster_lan(5, IsisConfig::default(), 2_000 + seed);
        let gid = c.gid;
        let sequencer = c.pids[0];
        // Several members fire ABCASTs, then the sequencer dies mid-stream.
        for &p in &c.pids.clone()[1..4] {
            c.sim.invoke(p, |proc_, ctx| {
                proc_
                    .cast(gid, CastKind::Total, format!("from-{}", p.0), ctx)
                    .unwrap();
            });
        }
        c.sim.crash(sequencer);
        c.await_membership(4, SimDuration::from_secs(60));
        settle_long(&mut c);
        c.assert_identical_logs();
        // The messages were re-sequenced by the new leader, none lost:
        // every survivor's own cast is in its log (it never crashed, so its
        // buffered copy must survive into the union).
        for (pid, log) in c.live_logs() {
            if pid == sequencer {
                continue;
            }
            if (1..4).contains(&c.pids.iter().position(|&x| x == pid).unwrap()) {
                assert!(
                    log.contains(&format!("from-{}", pid.0)),
                    "seed {seed}: {pid} lost its own ABCAST"
                );
            }
        }
    }
}

#[test]
fn casts_issued_during_view_change_are_not_lost() {
    let mut c = cluster(5, IsisConfig::default(), 53);
    let gid = c.gid;
    let victim = c.pids[4];
    c.sim.crash(victim);
    // Give the failure detector time to wedge the group, then cast while
    // the flush is (likely) in progress.
    c.sim
        .run_for(IsisConfig::default().fd_timeout + SimDuration::from_millis(20));
    for &p in &c.pids.clone()[..4] {
        c.sim.invoke(p, |proc_, ctx| {
            proc_
                .cast(gid, CastKind::Total, format!("wedged-{}", p.0), ctx)
                .unwrap();
        });
    }
    c.await_membership(4, SimDuration::from_secs(60));
    settle_long(&mut c);
    c.assert_identical_logs();
    let (_, log) = &c.live_logs()[0];
    for &p in &c.pids[..4] {
        assert!(
            log.contains(&format!("wedged-{}", p.0)),
            "cast from {p} was lost across the view change"
        );
    }
}

#[test]
fn double_crash_including_new_leader() {
    let mut c = cluster(6, IsisConfig::default(), 59);
    let gid = c.gid;
    // Kill the coordinator, and moments later its successor.
    c.sim.crash(c.pids[0]);
    c.sim.run_for(SimDuration::from_millis(300));
    c.sim.crash(c.pids[1]);
    c.await_membership(4, SimDuration::from_secs(120));
    let v = c.sim.process(c.pids[2]).view_of(gid).unwrap();
    assert_eq!(v.coordinator(), c.pids[2]);
    assert_eq!(v.size(), 4);
}

#[test]
fn cast_acks_reach_resiliency_threshold() {
    let mut c = cluster(5, IsisConfig::quiet(), 61);
    let gid = c.gid;
    let s = c.pids[0];
    c.sim.invoke(s, |p, ctx| {
        p.cast_acked(gid, CastKind::Causal, "need-acks".into(), ctx)
            .unwrap();
    });
    settle_long(&mut c);
    let acks = &c.sim.process(s).app().acks;
    // 4 peers each ack once; the app sees cumulative counts 1..=4.
    let counts: Vec<usize> = acks.iter().map(|(_, c)| *c).collect();
    assert_eq!(counts, vec![1, 2, 3, 4]);
}

// ---------------------------------------------------------------------
// Partitions
// ---------------------------------------------------------------------

#[test]
fn majority_partition_continues_minority_stalls() {
    let mut c = cluster(5, IsisConfig::partition_safe(), 71);
    let gid = c.gid;
    // Isolate two members.
    let minority_nodes = vec![c.nodes[3], c.nodes[4]];
    c.sim.set_partition(Partition::split(minority_nodes));
    c.sim.run_for(SimDuration::from_secs(20));

    // Majority side forms a 3-view and keeps working.
    for &p in &c.pids[..3] {
        let v = c.sim.process(p).view_of(gid).expect("majority keeps view");
        assert_eq!(v.size(), 3, "majority view at {p}");
    }
    let s = c.pids[0];
    c.sim.invoke(s, |p, ctx| {
        p.cast(gid, CastKind::Total, "majority-rules".into(), ctx)
            .unwrap();
    });
    c.sim.run_for(SimDuration::from_secs(5));
    for &p in &c.pids[..3] {
        assert!(c
            .sim
            .process(p)
            .app()
            .payloads(gid)
            .contains(&"majority-rules".to_string()));
    }

    // Minority side stalled rather than forming a split-brain view.
    for &p in &c.pids[3..] {
        let proc_ = c.sim.process(p);
        let stalled = proc_.app().stalled.contains(&gid);
        let still_old_view = proc_
            .view_of(gid)
            .is_some_and(|v| v.size() == 5);
        assert!(
            stalled || still_old_view,
            "{p} must not form a minority view"
        );
        assert!(
            !proc_.app().payloads(gid).contains(&"majority-rules".to_string()),
            "partitioned member received majority traffic"
        );
    }
}

#[test]
fn without_partition_safety_both_sides_diverge_by_design() {
    // Documents the failure-detector-trusting mode: a partition splits the
    // group into two independent views (the behaviour the primary-partition
    // rule exists to prevent).
    let mut c = cluster(4, IsisConfig::default(), 73);
    let gid = c.gid;
    c.sim
        .set_partition(Partition::split(vec![c.nodes[2], c.nodes[3]]));
    c.sim.run_for(SimDuration::from_secs(20));
    let va = c.sim.process(c.pids[0]).view_of(gid).unwrap();
    let vb = c.sim.process(c.pids[2]).view_of(gid).unwrap();
    assert_eq!(va.size(), 2);
    assert_eq!(vb.size(), 2);
    assert!(va.members != vb.members);
}

// ---------------------------------------------------------------------
// Join bursts
// ---------------------------------------------------------------------

/// `(flushes started, views installed, messages sent)` while `n - 1`
/// processes join a singleton group at once.
fn join_burst_counts(n: usize) -> (u64, u64, u64) {
    let c = cluster(n, IsisConfig::quiet(), 7);
    let st = c.sim.stats();
    (
        st.counter("isis.flushes_started"),
        st.counter("isis.views_installed"),
        st.messages_sent,
    )
}

/// The first joiner gets a view of two; every later arrival restarts the
/// running flush (one `Flush` to the first joiner each), and one install
/// admits the rest. A cheaper restart must not remove a message.
#[test]
fn join_burst_restarts_the_flush_once_per_arrival() {
    assert_eq!(join_burst_counts(64), (63, 3, 251));
    assert_eq!(join_burst_counts(256), (255, 3, 1_019));
}

// ---------------------------------------------------------------------
// Liveness bookkeeping
// ---------------------------------------------------------------------

#[test]
fn heartbeats_keep_stable_buffers_bounded() {
    let mut c = cluster(4, IsisConfig::default(), 83);
    let gid = c.gid;
    for i in 0..50 {
        let s = c.pids[i % 4];
        c.sim.invoke(s, |p, ctx| {
            p.cast(gid, CastKind::Causal, format!("x{i}"), ctx).unwrap();
        });
        c.sim.run_for(SimDuration::from_millis(20));
    }
    // Let several heartbeat rounds propagate stability.
    c.sim.run_for(SimDuration::from_secs(5));
    for &p in &c.pids {
        let buffered = c.sim.process(p).relay_buffer_len(gid);
        assert!(
            buffered <= 8,
            "{p} retains {buffered} messages despite stability"
        );
    }
}

#[test]
fn quiet_config_sends_no_background_traffic() {
    let mut c = cluster(4, IsisConfig::quiet(), 89);
    let before = c.sim.stats().messages_sent;
    c.sim.run_for(SimDuration::from_secs(30));
    let after = c.sim.stats().messages_sent;
    assert_eq!(before, after, "quiet config must be silent when idle");
}

#[test]
fn harness_reported_suspicion_drives_view_change_in_quiet_mode() {
    let mut c = cluster(4, IsisConfig::quiet(), 97);
    let gid = c.gid;
    let victim = c.pids[3];
    c.sim.crash(victim);
    // No heartbeats: survivors must be told.
    for &p in &c.pids.clone()[..3] {
        c.sim.invoke(p, |proc_, ctx| {
            proc_.report_suspect(gid, victim, ctx).unwrap();
        });
    }
    c.await_membership(3, SimDuration::from_secs(60));
    assert_eq!(
        c.sim.process(c.pids[0]).view_of(gid).unwrap().size(),
        3
    );
}

#[test]
fn deterministic_replay_same_seed_same_history() {
    let run = |seed: u64| {
        let mut c = cluster_lan(5, IsisConfig::default(), seed);
        let gid = c.gid;
        for i in 0..10 {
            let s = c.pids[i % 5];
            c.sim.invoke(s, |p, ctx| {
                p.cast(gid, CastKind::Total, format!("d{i}"), ctx).unwrap();
            });
        }
        c.sim.crash(c.pids[4]);
        c.await_membership(4, SimDuration::from_secs(60));
        settle_long(&mut c);
        (
            c.sim.stats().messages_sent,
            c.live_logs(),
            c.sim.now(),
        )
    };
    assert_eq!(run(4242), run(4242));
}

#[test]
fn group_survives_total_silence_then_resumes() {
    let mut c = cluster(3, IsisConfig::default(), 101);
    let gid = c.gid;
    c.sim.run_until(SimTime(0) + SimDuration::from_secs(120));
    // Nobody was falsely suspected during two minutes of idling.
    for &p in &c.pids {
        assert_eq!(c.sim.process(p).view_of(gid).unwrap().size(), 3);
    }
    c.cast_and_settle(c.pids[1], CastKind::Total, "still-alive");
    for (_, log) in c.live_logs() {
        assert!(log.contains(&"still-alive".to_string()));
    }
}

#[test]
fn undetected_restart_rejoins_midview_without_double_delivery() {
    // A member dies and a fresh incarnation rejoins before the failure
    // detector notices: the view still contains the pid, so the join is
    // served by the idempotent branch of `handle_join_forward` — an
    // install of the *current* view with a mid-stream state snapshot.
    // The install's delivery floor must start the rejoiner at the
    // snapshot cut; without it, the next flush re-relays messages whose
    // effects the snapshot already contains and the application applies
    // them twice.
    let mut c = cluster(3, IsisConfig::default(), 4_242);
    let gid = c.gid;
    let contact = c.pids[0];
    let victim = c.pids[2];

    c.cast_and_settle(c.pids[0], CastKind::Total, "pre");
    let view_before = c
        .sim
        .process(contact)
        .view_of(gid)
        .expect("member")
        .view_id;

    c.sim.crash(victim);
    // Cast while the victim is down: delivered by the survivors and
    // folded into the rejoin snapshot, but unstable — the silent view
    // member holds the stability floor down — so the next flush will
    // carry it in its relay set.
    c.sim
        .invoke(c.pids[1], move |p, ctx| {
            p.cast(gid, CastKind::Total, "while-down".into(), ctx)
                .expect("caster is a member")
        })
        .expect("caster is alive");
    c.sim.run_for(SimDuration::from_millis(50));

    // A fresh incarnation rejoins well inside the detection timeout.
    assert_eq!(
        c.sim.restart_with(
            victim,
            isis_core::IsisProcess::new(
                isis_core::testutil::RecorderApp::default(),
                IsisConfig::default(),
            ),
        ),
        Some(1)
    );
    c.sim
        .invoke(victim, move |p, ctx| {
            p.join(gid, contact, ctx).expect("group exists")
        })
        .expect("restarted");
    c.sim.run_for(SimDuration::from_millis(100));

    // The group never noticed the death: same view id, and the snapshot
    // carried the survivors' deliveries.
    assert!(c.sim.process(victim).is_member(gid));
    assert_eq!(
        c.sim.process(contact).view_of(gid).expect("member").view_id,
        view_before
    );
    let imported = c
        .sim
        .process(victim)
        .app()
        .imported
        .clone()
        .expect("rejoin carried state");
    assert!(imported.contains(&"while-down".to_string()));

    // Force a flush: a newcomer joins, and the still-unstable casts ride
    // the view change's relay set past every member — including the
    // rejoiner, whose floor must recognize them as already applied.
    let node = c.sim.add_nodes(1)[0];
    let newcomer = c.sim.spawn(
        node,
        isis_core::IsisProcess::new(
            isis_core::testutil::RecorderApp::default(),
            IsisConfig::default(),
        ),
    );
    c.sim
        .invoke(newcomer, move |p, ctx| {
            p.join(gid, contact, ctx).expect("group exists")
        })
        .expect("spawned");
    c.settle();

    // Post-rejoin traffic flows; nothing from the snapshot was delivered
    // a second time.
    c.cast_and_settle(c.pids[1], CastKind::Total, "post");
    assert_eq!(
        c.sim.process(victim).app().payloads(gid),
        vec!["post".to_string()],
        "rejoiner re-applied snapshot-covered messages"
    );
}
