//! `isis-core`, `isis-hier` and `isis-toolkit` probes, on the crates' own
//! test scaffolding (`testutil::cluster`, `generic_large_cluster`) with
//! recording or counting applications above.

use std::time::Duration;

use now_sim::{Pid, SimConfig, SimDuration};

use isis_core::testutil::{cluster, generic_cluster, RecorderApp};
use isis_core::{CastKind, GroupId, IsisConfig, IsisProcess, VClock};
use isis_hier::harness::generic_large_cluster;
use isis_hier::{HierApp, LargeGroupConfig, LargeGroupId};
use isis_toolkit::flat::FlatService;
use isis_toolkit::hier::{home_leaf, Directory, LeafServiceApp};

use crate::workloads::factory::Factory;
use crate::workloads::lbcast::{Sink, Stamped};
use crate::workloads::Workload;

use super::{median_over, ns_per_call, seconds, Readings};

const LGID: LargeGroupId = LargeGroupId(1);

/// `core.vclock.*`: the two operations on every causal delivery's path, at
/// a leaf-sized and a flat-floor-sized clock.
pub fn vclock(_seed: u64, slice: Duration) -> Readings {
    let mut a = VClock::new();
    let mut other = VClock::new();
    for i in 0..16u32 {
        a.set(Pid(i), u64::from(i) + 1);
        other.set(Pid(i), (u64::from(i) * 7) % 13 + 1);
    }
    let merge = ns_per_call(slice / 2, 10_000, || {
        let mut x = a.clone();
        x.bump(Pid(3));
        x.merge(std::hint::black_box(&other));
        std::hint::black_box(x.compare(&other));
    });
    let mut delivered = VClock::new();
    let mut stamp = VClock::new();
    for i in 0..1000u32 {
        delivered.set(Pid(i), 10);
        stamp.set(Pid(i), 10);
    }
    stamp.set(Pid(500), 11);
    let deliverable = ns_per_call(slice / 2, 1_000, || {
        std::hint::black_box(
            std::hint::black_box(&delivered).deliverable(Pid(500), std::hint::black_box(&stamp)),
        );
    });
    vec![
        ("core.vclock.ns_per_merge_n16", merge),
        ("core.vclock.ns_per_deliverable_n1000", deliverable),
    ]
}

/// Host nanoseconds per delivery of `casts` casts of `kind` from rotating
/// senders in a quiet 64-member group on the ideal net.
fn cast_ns_per_delivery(kind: CastKind, seed: u64, slice: Duration) -> f64 {
    const N: usize = 64;
    const CASTS: usize = 200;
    median_over(slice, || {
        let mut cl = cluster(N, IsisConfig::quiet(), seed);
        let gid = cl.gid;
        let s = seconds(|| {
            for i in 0..CASTS {
                let sender = cl.pids[(i * 7) % N];
                cl.sim.invoke(sender, move |p, ctx| {
                    p.cast(gid, kind, format!("m{i}"), ctx)
                        .expect("sender is a member");
                });
                cl.sim.run_for(SimDuration::from_millis(1));
            }
            cl.sim.run_for(SimDuration::from_secs(1));
        });
        for &p in &cl.pids {
            assert_eq!(
                cl.sim.process(p).app().payloads(gid).len(),
                CASTS,
                "{kind:?} casts lost"
            );
        }
        s
    }) * 1e9
        / (N * CASTS) as f64
}

/// `core.cbcast.*` and `core.abcast.*`.
pub fn casts(seed: u64, slice: Duration) -> Readings {
    vec![
        (
            "core.cbcast.ns_per_delivery_n64",
            cast_ns_per_delivery(CastKind::Causal, seed, slice / 2),
        ),
        (
            "core.abcast.ns_per_delivery_n64",
            cast_ns_per_delivery(CastKind::Total, seed, slice / 2),
        ),
    ]
}

/// `core.flush.*` and `core.join.*`: in a quiet 64-member group, four
/// members crash one after another (every survivor reports the suspect, as
/// the failure detector would), then four fresh processes join; each view
/// change is timed to the instant every member has installed it.
pub fn view_changes(seed: u64, slice: Duration) -> Readings {
    const N: usize = 64;
    const ROUNDS: usize = 4;
    let mut msgs_per_change = 0.0;
    let mut join_us = 0.0;
    let flush_us = median_over(slice, || {
        let mut cl = cluster(N, IsisConfig::quiet(), seed);
        let gid = cl.gid;
        cl.sim.stats_mut().reset_window();
        let crash_s = seconds(|| {
            for k in 0..ROUNDS {
                let victim = cl.pids[N / 2 + k];
                cl.sim.crash(victim);
                for p in cl.live_members() {
                    cl.sim.invoke(p, move |proc_, ctx| {
                        let _ = proc_.report_suspect(gid, victim, ctx);
                    });
                }
                cl.await_membership(N - 1 - k, SimDuration::from_secs(30));
            }
        });
        msgs_per_change = cl.sim.stats().messages_sent as f64 / ROUNDS as f64;
        let join_s = seconds(|| {
            for k in 0..ROUNDS {
                let nd = cl.sim.add_nodes(1)[0];
                let joiner = cl.sim.spawn(
                    nd,
                    IsisProcess::new(RecorderApp::default(), IsisConfig::quiet()),
                );
                cl.pids.push(joiner);
                let contact = cl.pids[0];
                cl.sim.invoke(joiner, move |p, ctx| {
                    p.join(gid, contact, ctx).expect("group exists")
                });
                cl.await_membership(N - ROUNDS + 1 + k, SimDuration::from_secs(30));
            }
        });
        join_us = join_s * 1e6 / ROUNDS as f64;
        crash_s * 1e6 / ROUNDS as f64
    });
    vec![
        ("core.flush.host_us_per_view_change_n64", flush_us),
        ("core.flush.msgs_per_view_change_n64", msgs_per_change),
        ("core.join.host_us_per_join_n64", join_us),
    ]
}

/// Host time of the last quarter of a stream over the first quarter's.
fn decay(quarter_s: &[f64]) -> f64 {
    quarter_s[3] / quarter_s[0]
}

/// `core.live.decay_ratio`: 2000 causal casts, one per simulated
/// millisecond, through a 16-member group with the **default** config
/// (heartbeats, stability, failure detection on). 1.0 means a cast costs
/// the same late in a run as early.
pub fn core_decay(seed: u64, slice: Duration) -> Readings {
    const CASTS: usize = 2000;
    let ratio = median_over(slice, || {
        let mut cl = cluster(16, IsisConfig::default(), seed);
        let gid = cl.gid;
        let mut quarter_s = [0.0; 4];
        for (q, slot) in quarter_s.iter_mut().enumerate() {
            *slot = seconds(|| {
                for i in q * CASTS / 4..(q + 1) * CASTS / 4 {
                    let sender = cl.pids[i % 16];
                    cl.sim.invoke(sender, move |p, ctx| {
                        p.cast(gid, CastKind::Causal, format!("m{i}"), ctx)
                            .expect("sender is a member");
                    });
                    cl.sim.run_for(SimDuration::from_millis(1));
                }
            });
        }
        decay(&quarter_s)
    });
    vec![("core.live.decay_ratio", ratio)]
}

/// `hier.join.*`, `hier.*.view_bytes`, `hier.tree.*`: quiet formation of
/// 256 and 1024 members (host time per admitted member, messages per
/// join), who stores how much of the hierarchy, and what twenty broadcasts
/// from one origin cost in messages and distinct destinations.
pub fn hier_formation(seed: u64, slice: Duration) -> Readings {
    let form = |n: usize| {
        generic_large_cluster(
            n,
            LargeGroupConfig::new(3, 8).counting(),
            IsisConfig::quiet(),
            SimConfig::ideal(seed).with_jobs(1),
            |_| Sink::default(),
        )
    };
    let per_join_us = |n: usize, slice: Duration| {
        median_over(slice, || seconds(|| drop(form(n)))) * 1e6 / n as f64
    };
    let n256 = per_join_us(256, slice / 3);
    let n1024 = per_join_us(1024, slice / 3);

    const CASTS: u64 = 20;
    let (mut sim, leaders, members) = form(1024);
    let msgs_per_join = sim.stats().messages_sent as f64 / 1024.0;
    let leader_bytes = sim.process(leaders[0]).app().hier_storage_bytes();
    let member_bytes = members
        .iter()
        .map(|&m| sim.process(m).app().hier_storage_bytes())
        .max()
        .unwrap_or(0);
    // Let the routing slices reach the newest representatives first.
    sim.run_for(SimDuration::from_secs(2));
    sim.stats_mut().enable_fanout_tracking();
    sim.stats_mut().reset_window();
    let origin = members[members.len() / 2];
    for i in 0..CASTS {
        let m = Stamped {
            id: i + 1,
            sent_us: sim.now().as_micros(),
        };
        sim.invoke(origin, move |p, ctx| {
            p.with_app(ctx, move |app, up| app.lbcast(LGID, m, up));
        });
        sim.run_for(SimDuration::from_millis(1));
    }
    sim.run_for(SimDuration::from_secs(1));
    assert!(
        members
            .iter()
            .all(|&m| sim.process(m).app().biz().count == CASTS),
        "lbcasts lost"
    );
    vec![
        ("hier.join.host_us_per_join_n256", n256),
        ("hier.join.host_us_per_join_n1024", n1024),
        ("hier.join.msgs_per_join", msgs_per_join),
        ("hier.leader.view_bytes", leader_bytes as f64),
        ("hier.member.view_bytes", member_bytes as f64),
        (
            "hier.tree.msgs_per_lbcast",
            sim.stats().messages_sent as f64 / CASTS as f64,
        ),
        (
            "hier.tree.max_dests",
            sim.stats().max_distinct_destinations() as f64,
        ),
    ]
}

/// `hier.live.decay_ratio`: 2000 tree broadcasts from rotating origins, one
/// per simulated millisecond, through a 64-member hierarchy with the
/// **default** configs.
pub fn hier_decay(seed: u64, slice: Duration) -> Readings {
    const CASTS: u64 = 2000;
    let ratio = median_over(slice, || {
        let (mut sim, _leaders, members) = generic_large_cluster(
            64,
            LargeGroupConfig::new(3, 8),
            IsisConfig::default(),
            SimConfig::ideal(seed).with_jobs(1),
            |_| Sink::default(),
        );
        let mut quarter_s = [0.0; 4];
        for (q, slot) in quarter_s.iter_mut().enumerate() {
            let q = q as u64;
            *slot = seconds(|| {
                for i in q * CASTS / 4..(q + 1) * CASTS / 4 {
                    let origin = members[(i as usize * 37) % members.len()];
                    let m = Stamped {
                        id: i + 1,
                        sent_us: sim.now().as_micros(),
                    };
                    sim.invoke(origin, move |p, ctx| {
                        p.with_app(ctx, move |app, up| app.lbcast(LGID, m, up));
                    });
                    sim.run_for(SimDuration::from_millis(1));
                }
            });
        }
        decay(&quarter_s)
    });
    vec![("hier.live.decay_ratio", ratio)]
}

/// `toolkit.*_request.*`: one client, `REQS` writes one after another,
/// each settled before the next; quiet configs so every message belongs to
/// a request. Flat: coordinator-cohort over all 64 members. Hierarchical:
/// 512 members, the request goes to the full membership of the key's home
/// leaf only.
pub fn requests(seed: u64, slice: Duration) -> Readings {
    const REQS: usize = 10;
    // Long enough for the reply on the ideal net, short enough that the
    // members' idle housekeeping does not drown the request's own cost.
    const SETTLE: SimDuration = SimDuration::from_millis(100);
    const FLAT_GID: GroupId = GroupId(9);
    let mut flat_msgs = 0.0;
    let flat_us = median_over(slice / 2, || {
        let (mut sim, members) = generic_cluster(
            64,
            FLAT_GID,
            IsisConfig::quiet(),
            SimConfig::ideal(seed).with_jobs(1),
            |_| FlatService::new(FLAT_GID),
        );
        let nd = sim.add_nodes(1)[0];
        let client = sim.spawn(
            nd,
            IsisProcess::new(FlatService::new(FLAT_GID), IsisConfig::quiet()),
        );
        sim.run_for(SimDuration::from_secs(1));
        sim.stats_mut().reset_window();
        let s = seconds(|| {
            for i in 0..REQS {
                let members = members.clone();
                sim.invoke(client, move |p, ctx| {
                    p.with_app(ctx, |app, up| {
                        app.send_request(&members, &format!("PUT k{i} v"), up)
                    })
                });
                sim.run_for(SETTLE);
            }
        });
        assert_eq!(
            sim.process(client).app().replies.len(),
            REQS,
            "flat requests unanswered"
        );
        flat_msgs = sim.stats().messages_sent as f64 / REQS as f64;
        s
    }) * 1e6
        / REQS as f64;

    let mut hier_msgs = 0.0;
    let hier_us = median_over(slice / 2, || {
        let cfg = LargeGroupConfig::new(3, 4).counting();
        let (mut sim, leaders, members) = generic_large_cluster(
            512,
            cfg.clone(),
            IsisConfig::quiet(),
            SimConfig::ideal(seed).with_jobs(1),
            |_| LeafServiceApp::new(LGID),
        );
        let nd = sim.add_nodes(1)[0];
        let client = sim.spawn(
            nd,
            IsisProcess::new(
                HierApp::with_timers(LeafServiceApp::new(LGID), cfg),
                IsisConfig::quiet(),
            ),
        );
        sim.run_for(SimDuration::from_secs(1));
        let dir: Directory = isis_apps::drivers::directory_of(&sim, leaders[0], LGID);
        sim.stats_mut().reset_window();
        let s = seconds(|| {
            for i in 0..REQS {
                let body = format!("PUT k{i} v");
                let (leaf, _) = *home_leaf(&dir, &format!("k{i}"));
                // The client broadcasts to the whole subgroup, as the paper
                // describes, not just to its bounded contact list.
                let targets: Vec<Pid> = members
                    .iter()
                    .copied()
                    .filter(|&m| sim.process(m).app().leaf_of(LGID) == Some(leaf))
                    .collect();
                sim.invoke(client, move |p, ctx| {
                    p.with_app(ctx, |app, up| {
                        app.with_business(up, |biz, lup| {
                            biz.send_request_to(&targets, &body, lup);
                        });
                    });
                });
                sim.run_for(SETTLE);
            }
        });
        assert_eq!(
            sim.process(client).app().biz().replies.len(),
            REQS,
            "hier requests unanswered"
        );
        hier_msgs = sim.stats().messages_sent as f64 / REQS as f64;
        s
    }) * 1e6
        / REQS as f64;
    vec![
        ("toolkit.flat_request.host_us_n64", flat_us),
        ("toolkit.flat_request.msgs_n64", flat_msgs),
        ("toolkit.hier_request.host_us_n512", hier_us),
        ("toolkit.hier_request.msgs_n512", hier_msgs),
    ]
}

/// `toolkit.txn.*_ratio_crash3`: the factory floor at two fifths of its size
/// with three cells crashing mid-run — the fault the gated `sim-factory`
/// leaves out, because under it some transactions never resolve. Shares of
/// the survivors' transactions that aborted and that stayed unresolved
/// after a simulated minute of drain.
pub fn txn_under_crashes(seed: u64, _slice: Duration) -> Readings {
    let w = Factory {
        cells: 80,
        part_types: 8,
        builds_per_cell: 4,
        crash_cells: 3,
    };
    let out = w.unit(w.setup(seed, false));
    let aborted = out
        .exact
        .iter()
        .find(|(k, _)| *k == "aborted")
        .map_or(0, |(_, v)| *v);
    vec![
        (
            "toolkit.txn.abort_ratio_crash3",
            aborted as f64 / out.ops as f64,
        ),
        (
            "toolkit.txn.unresolved_ratio_crash3",
            out.failed as f64 / out.ops as f64,
        ),
    ]
}
