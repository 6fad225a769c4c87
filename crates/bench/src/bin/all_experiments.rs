//! Runs the full experiment suite and prints every table — the input for
//! EXPERIMENTS.md — then re-runs a compact microbench set and writes the
//! machine-readable `BENCH_results.json` (per-experiment headline numbers
//! plus microbench timings) so the performance trajectory can be tracked
//! across PRs instead of only via prose tables.
//!
//! With positional experiment ids (`all_experiments E8 a1`) it prints just
//! those tables, in sweep order, and nothing else: no microbenches, no
//! `BENCH_results.json`.

use isis_bench::enginebench;
use isis_bench::experiments as ex;
use isis_bench::harness::flat_service;
use isis_bench::microbench::{self, BatchSize, Criterion};
use isis_bench::report::json_escape;
use isis_core::testutil::cluster;
use isis_core::{CastData, CastKind, GroupId, IsisConfig, IsisMsg, MsgId, StabilityVector, VClock};
use isis_hier::{HierPayload, HierState};
use now_sim::{Pid, SimDuration};
use std::process::ExitCode;

/// The message type `now-cluster` ships over the wire: the full stack.
type WireMsg = IsisMsg<HierPayload<String>, HierState<Vec<String>>>;

/// A realistic hot-path frame payload: causal cast, 16-entry vector clock,
/// short application payload.
fn codec_specimen() -> WireMsg {
    let mut vt = VClock::new();
    let mut cvt = VClock::new();
    for i in 0..16u32 {
        vt.set(Pid(i), u64::from(i) * 3 + 1);
        cvt.set(Pid(i), u64::from(i) * 2 + 1);
    }
    IsisMsg::Cast(CastData {
        gid: GroupId(9),
        view: 4,
        kind: CastKind::Causal,
        id: MsgId { sender: Pid(5), view: 4, stream: 1, seq: 321 },
        vt,
        stab: StabilityVector { view: 4, cvt: cvt.clone(), fvt: cvt, adel: 17 },
        want_ack: true,
        payload: HierPayload::Biz("q:IBM:42:123456789".to_string()),
    })
}

fn main() -> ExitCode {
    let q = isis_bench::quick_mode();
    let only: Vec<String> = std::env::args().skip(1).collect();
    if !only.is_empty() {
        if let Some(bad) = only.iter().find(|id| ex::by_id(id).is_none()) {
            let valid = ex::ALL.map(|(id, _)| id).join(" ");
            eprintln!("all_experiments: unknown experiment {bad:?}; valid ids: {valid}");
            return ExitCode::from(2);
        }
        for (id, table) in ex::ALL {
            if only.iter().any(|o| o.eq_ignore_ascii_case(id)) {
                table(q).print();
            }
        }
        return ExitCode::SUCCESS;
    }

    let jobs = isis_bench::jobs();
    let t0 = std::time::Instant::now();
    let tables: Vec<isis_bench::Table> = ex::ALL.iter().map(|(_, table)| table(q)).collect();
    let wall_clock_s = t0.elapsed().as_secs_f64();
    for t in &tables {
        t.print();
    }
    println!("sweep wall-clock: {wall_clock_s:.2} s with {jobs} job(s)");

    println!("== microbench ==");
    microbenches(q);
    let records = microbench::take_records();

    let exp_json: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
    let mb_json: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}}}",
                json_escape(&r.name),
                r.min_ns,
                r.median_ns,
                r.mean_ns,
                r.samples
            )
        })
        .collect();
    let json = format!(
        "{{\n\"quick\": {},\n\"jobs\": {},\n\"wall_clock_s\": {:.3},\n\"experiments\": [\n{}\n],\n\"microbench\": [\n{}\n]\n}}\n",
        q,
        jobs,
        wall_clock_s,
        exp_json.join(",\n"),
        mb_json.join(",\n")
    );
    match std::fs::write("BENCH_results.json", &json) {
        Ok(()) => println!(
            "wrote BENCH_results.json ({} experiments, {} microbenches)",
            tables.len(),
            records.len()
        ),
        Err(e) => eprintln!("could not write BENCH_results.json: {e}"),
    }
    ExitCode::SUCCESS
}

/// A compact subset of `benches/hotpaths.rs`, cheap enough to ride along
/// with every experiment sweep.
///
/// The benchmark sims always run untraced, even when `NOW_TRACE`/
/// `NOW_MONITORS` arm the experiment sweeps above: the committed
/// `BENCH_results.json` baseline is untraced, and `bench_gate` must
/// compare like with like.
fn microbenches(quick: bool) {
    let mut c = Criterion::default();

    let mut g = c.benchmark_group("vclock");
    g.sample_size(if quick { 20 } else { 50 });
    g.bench_function("bump_merge_compare_16", |b| {
        let mut a = VClock::new();
        let mut other = VClock::new();
        for i in 0..16u32 {
            a.set(Pid(i), u64::from(i) + 1);
            other.set(Pid(i), (u64::from(i) * 7) % 13 + 1);
        }
        b.iter(|| {
            let mut x = a.clone();
            x.bump(Pid(3));
            x.merge(&other);
            std::hint::black_box(x.compare(&other));
        });
    });
    g.bench_function("deliverable_16", |b| {
        let mut delivered = VClock::new();
        let mut stamp = VClock::new();
        for i in 0..16u32 {
            delivered.set(Pid(i), 10);
            stamp.set(Pid(i), 10);
        }
        stamp.set(Pid(5), 11);
        b.iter(|| std::hint::black_box(delivered.deliverable(Pid(5), &stamp)));
    });
    g.finish();

    let mut g = c.benchmark_group("flat_group");
    g.sample_size(5)
        .time_budget(std::time::Duration::from_secs(if quick { 2 } else { 5 }));
    g.bench_function("abcast_n8", |b| {
        b.iter_batched(
            || {
                let mut cl = cluster(8, IsisConfig::quiet(), 42);
                cl.sim.take_tracer();
                cl
            },
            |mut cl| {
                let sender = cl.pids[0];
                let gid = cl.gid;
                for i in 0..10 {
                    cl.sim.invoke(sender, move |p, ctx| {
                        p.cast(gid, CastKind::Total, format!("m{i}"), ctx).unwrap();
                    });
                }
                cl.sim.run_for(SimDuration::from_secs(5));
                assert_eq!(cl.sim.process(cl.pids[1]).app().payloads(gid).len(), 10);
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();

    // The whole-simulation fixtures below are orders of magnitude heavier
    // than the nanosecond routines above, so they sample under a time
    // budget: 3–5 meaningful samples instead of a fixed count.
    let sim_budget = std::time::Duration::from_secs(if quick { 2 } else { 5 });

    let mut g = c.benchmark_group("sim_step");
    g.sample_size(5).time_budget(sim_budget);
    g.bench_function("relay_ring_n64", |b| {
        b.iter_batched(
            || {
                let (mut sim, pids) = enginebench::relay_ring(64, 5);
                sim.take_tracer();
                (sim, pids)
            },
            |(mut sim, pids)| {
                assert_eq!(enginebench::run_relay_ring(&mut sim, &pids, 300), 64 * 301);
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();

    let mut g = c.benchmark_group("multicast");
    g.sample_size(5).time_budget(sim_budget);
    g.bench_function("fanout_n64", |b| {
        b.iter_batched(
            || {
                let (mut sim, hub) = enginebench::fanout_star(64, 6);
                sim.take_tracer();
                (sim, hub)
            },
            |(mut sim, hub)| {
                assert_eq!(enginebench::run_fanout_star(&mut sim, hub, 200), 200);
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();

    let mut g = c.benchmark_group("codec");
    g.sample_size(if quick { 20 } else { 50 });
    {
        // A realistic wire message: a causal cast with a populated vector
        // clock, the shape that dominates now-net traffic.
        let msg = codec_specimen();
        let bytes = now_net::wire::encode_msg(&msg);
        g.bench_function("encode_cast", |b| {
            let mut out = Vec::with_capacity(bytes.len());
            b.iter(|| {
                out.clear();
                let frame = now_net::codec::Frame::Data {
                    seq: 7,
                    from: 1,
                    to: 2,
                    payload: now_net::wire::encode_msg(std::hint::black_box(&msg)),
                };
                now_net::codec::encode_frame(&frame, &mut out);
                std::hint::black_box(out.len());
            });
        });
        let mut framed = Vec::new();
        now_net::codec::encode_frame(
            &now_net::codec::Frame::Data { seq: 7, from: 1, to: 2, payload: bytes },
            &mut framed,
        );
        g.bench_function("decode_cast", |b| {
            b.iter(|| {
                let (frame, used) = now_net::codec::decode_frame(std::hint::black_box(&framed))
                    .expect("valid")
                    .expect("complete");
                assert_eq!(used, framed.len());
                let now_net::codec::Frame::Data { payload, .. } = frame else {
                    unreachable!("specimen is a data frame")
                };
                let back: WireMsg = now_net::wire::decode_msg(&payload).expect("roundtrip");
                std::hint::black_box(back);
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("request_path");
    g.sample_size(if quick { 3 } else { 10 });
    g.bench_function("flat_request_n8", |b| {
        b.iter_batched(
            || {
                let mut svc = flat_service(8, 7);
                svc.sim.take_tracer();
                svc
            },
            |mut svc| {
                let members = svc.members.clone();
                svc.sim.invoke(svc.client, move |p, ctx| {
                    p.with_app(ctx, |app, up| app.send_request(&members, "PUT k v", up))
                });
                svc.sim.run_for(SimDuration::from_secs(2));
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}
