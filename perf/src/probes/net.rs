//! `now-net` probes: the `Wire` and frame codecs on a representative cast,
//! raw daemon-to-daemon round trips, and the quote feed in the shapes the
//! gated `sock-feed` does not cover (TCP, open loop, quarter-by-quarter).

use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use now_net::wire::{decode_msg, encode_msg};
use now_net::{decode_frame, encode_frame, Daemon, DaemonConfig, Frame, FrameBuf};
use now_sim::{Ctx, Pid, Process};

use isis_core::{CastData, CastKind, GroupId, IsisMsg, MsgId, StabilityVector, VClock};

use crate::stats::p50_p99;
use crate::workloads::sock::Feed;
use crate::workloads::Scale;

use super::{median_over, ns_per_call, Readings};

type CastMsg = IsisMsg<String, Vec<String>>;

/// A causal cast as a 16-member leaf sends it: 16-entry timestamp and
/// stability vectors, a short payload.
fn sample_cast() -> CastMsg {
    let mut vt = VClock::new();
    for i in 0..16u32 {
        vt.set(Pid(i), u64::from(i) * 3 + 1);
    }
    IsisMsg::Cast(CastData {
        gid: GroupId(1),
        view: 7,
        kind: CastKind::Causal,
        id: MsgId {
            sender: Pid(3),
            view: 7,
            stream: 0,
            seq: 41,
        },
        vt: vt.clone(),
        stab: StabilityVector {
            view: 7,
            cvt: vt.clone(),
            fvt: vt,
            adel: 12,
        },
        want_ack: false,
        payload: "quote: ACME 42.17 +0.3".into(),
    })
}

/// `net.wire.*`, `net.frame.*`, `net.framebuf.*`.
pub fn codec(_seed: u64, slice: Duration) -> Readings {
    let slice = slice / 5;
    let msg = sample_cast();
    let bytes = encode_msg(&msg);
    let wire_encode = ns_per_call(slice, 2_000, || {
        std::hint::black_box(encode_msg(std::hint::black_box(&msg)));
    });
    let wire_decode = ns_per_call(slice, 2_000, || {
        std::hint::black_box(
            decode_msg::<CastMsg>(std::hint::black_box(&bytes)).expect("round trip"),
        );
    });
    let frame = Frame::Data {
        seq: 9,
        from: 3,
        to: 11,
        payload: bytes.clone(),
    };
    let mut framed = Vec::new();
    encode_frame(&frame, &mut framed);
    let mut out = Vec::with_capacity(framed.len());
    let frame_encode = ns_per_call(slice, 2_000, || {
        out.clear();
        encode_frame(std::hint::black_box(&frame), &mut out);
    });
    let frame_decode = ns_per_call(slice, 2_000, || {
        std::hint::black_box(
            decode_frame(std::hint::black_box(&framed))
                .expect("valid")
                .expect("complete"),
        );
    });
    // A socket read hands the reassembler arbitrary cuts of the stream:
    // 1000 frames fed in 1500-byte chunks.
    const FRAMES: usize = 1000;
    let mut stream = Vec::new();
    for seq in 1..=FRAMES as u64 {
        encode_frame(
            &Frame::Data {
                seq,
                from: 3,
                to: 11,
                payload: bytes.clone(),
            },
            &mut stream,
        );
    }
    let chunked = ns_per_call(slice, 1, || {
        let mut fb = FrameBuf::new();
        let mut got = 0;
        for chunk in stream.chunks(1500) {
            fb.extend(chunk);
            while fb.next_frame().expect("valid stream").is_some() {
                got += 1;
            }
        }
        assert_eq!(got, FRAMES);
    }) / FRAMES as f64;
    vec![
        ("net.wire.encode_ns", wire_encode),
        ("net.wire.decode_ns", wire_decode),
        ("net.wire.bytes_per_cast", bytes.len() as f64),
        ("net.frame.encode_ns", frame_encode),
        ("net.frame.decode_ns", frame_decode),
        ("net.framebuf.ns_per_frame_chunked", chunked),
    ]
}

/// Bounces a hop count back to its sender; reports to the bench when it
/// reaches zero.
struct Echo {
    done: Sender<Instant>,
}

impl Process for Echo {
    type Msg = u64;

    fn on_message(&mut self, from: Pid, hops: u64, ctx: &mut Ctx<'_, u64>) {
        if hops == 0 {
            let _ = self.done.send(Instant::now());
        } else {
            ctx.send(from, hops - 1);
        }
    }
}

/// Microseconds per hop of a `hops`-hop ping-pong between pids `a` and `b`
/// of a two-daemon cluster hosting pids 0 and 2 on daemon 0 and pid 1 on
/// daemon 1.
fn ping_pong_us(tcp: bool, seed: u64, a: Pid, b: Pid, hops: u64, slice: Duration) -> f64 {
    let _one_cpu = crate::meter::OneCpu::pin();
    let (addrs, dir) = crate::workloads::sock::addrs(2, tcp, seed, 1);
    let routing = Arc::new(vec![0u32, 1, 0]);
    let (done_tx, done) = mpsc::channel();
    let epoch = Instant::now();
    let daemons: Vec<Daemon<Echo>> = (0..2u32)
        .map(|d| {
            let procs = (0..3u32)
                .filter(|&p| routing[p as usize] == d)
                .map(|p| {
                    (
                        Pid(p),
                        Echo {
                            done: done_tx.clone(),
                        },
                    )
                })
                .collect();
            Daemon::spawn(
                DaemonConfig {
                    index: d,
                    addrs: addrs.clone(),
                    routing: Arc::clone(&routing),
                    epoch,
                    seed,
                },
                procs,
            )
            .unwrap_or_else(|e| panic!("echo daemon {d} failed to boot: {e}"))
        })
        .collect();
    let per_hop = median_over(slice, || {
        let t = Instant::now();
        daemons[0].invoke(a, move |_, ctx| ctx.send(b, hops));
        let at = done
            .recv_timeout(Duration::from_secs(30))
            .expect("ping-pong finished");
        at.saturating_duration_since(t).as_secs_f64()
    }) * 1e6
        / (hops + 1) as f64;
    for d in daemons {
        d.shutdown();
    }
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir(dir);
    }
    per_hop
}

/// `net.socket.rtt_us_*` (two hops through writer, kernel, reader and core
/// of each daemon) and `net.daemon.local_ns_per_msg` (both pids on one
/// daemon: the core's local queue alone).
pub fn sockets(seed: u64, slice: Duration) -> Readings {
    let slice = slice / 3;
    vec![
        (
            "net.socket.rtt_us_unix",
            2.0 * ping_pong_us(false, seed, Pid(0), Pid(1), 199, slice),
        ),
        (
            "net.socket.rtt_us_tcp",
            2.0 * ping_pong_us(true, seed, Pid(0), Pid(1), 199, slice),
        ),
        (
            "net.daemon.local_ns_per_msg",
            1e3 * ping_pong_us(false, seed, Pid(0), Pid(2), 19_999, slice),
        ),
    ]
}

/// `net.msgs_per_quote` and `net.live.decay_ratio`: the gated closed loop
/// at two thirds of its length; wall time of the last quarter of the
/// quotes over the first quarter's.
pub fn feed(seed: u64, _slice: Duration) -> Readings {
    let w = Feed {
        quotes: 2000,
        ..Feed::new(Scale::Full)
    };
    let c = w.boot(seed, false, w.quotes);
    let (_, done_s) = w.closed_loop(&c);
    let out = w.settle(c, w.quotes);
    assert_eq!(out.failed, 0, "feed probe lost deliveries");
    let q = done_s.len() / 4;
    let first = done_s[q - 1];
    let last = done_s[done_s.len() - 1] - done_s[done_s.len() - 1 - q];
    vec![
        ("net.msgs_per_quote", out.msgs as f64 / w.quotes as f64),
        ("net.live.decay_ratio", last / first),
    ]
}

/// `net.tcp.deliveries_per_s`: the closed loop over loopback TCP.
pub fn feed_tcp(seed: u64, _slice: Duration) -> Readings {
    let w = Feed {
        quotes: 1000,
        tcp: true,
        ..Feed::new(Scale::Full)
    };
    let c = w.boot(seed, false, w.quotes);
    let t = Instant::now();
    let (lat, _) = w.closed_loop(&c);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        w.settle(c, w.quotes).failed,
        0,
        "tcp feed probe lost deliveries"
    );
    vec![(
        "net.tcp.deliveries_per_s",
        (lat.len() * w.analysts) as f64 / secs,
    )]
}

/// `net.paced200.*`: the **open** loop at 200 quotes per second — a rate
/// the cluster drains with room to spare — each quote timed from when it
/// was due, not from when the generator got round to sending it; how late
/// the generator ran is reported beside it.
pub fn paced(seed: u64, slice: Duration) -> Readings {
    const RATE: f64 = 200.0;
    let quotes = ((slice.as_secs_f64() * RATE) as u64).clamp(20, 2000);
    let w = Feed {
        quotes,
        ..Feed::new(Scale::Full)
    };
    let c = w.boot(seed, false, quotes);
    let started = Instant::now();
    let due = |seq: u64| started + Duration::from_secs_f64(seq as f64 / RATE);
    let mut late_us: f64 = 0.0;
    for seq in 0..quotes {
        if let Some(wait) = due(seq).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_us = late_us.max(
            Instant::now()
                .saturating_duration_since(due(seq))
                .as_secs_f64()
                * 1e6,
        );
        c.submit(seq);
    }
    let mut lat_us = Vec::with_capacity(quotes as usize);
    while lat_us.len() < quotes as usize {
        match c.completions().recv_timeout(Duration::from_secs(30)) {
            Ok((seq, at)) => {
                lat_us.push(at.saturating_duration_since(due(seq)).as_secs_f64() * 1e6)
            }
            Err(_) => break,
        }
    }
    assert_eq!(
        w.settle(c, quotes).failed,
        0,
        "paced feed probe lost deliveries"
    );
    let (p50, p99) = p50_p99(&lat_us);
    vec![
        ("net.paced200.lat_p50_us", p50),
        ("net.paced200.lat_p99_us", p99),
        ("net.paced200.gen_late_max_us", late_us),
    ]
}
