//! `now-sim` probes: the event loop, multicast fan-out, timers, the LAN net
//! model, and the parallel engine — under processes that do nothing.

use std::time::Duration;

use now_sim::{Ctx, Pid, Process, Sim, SimConfig, SimDuration, SimTime, TimerId};

use crate::workloads::lbcast::Lbcast;
use crate::workloads::Workload;

use super::{median_over, seconds, Readings};

const LIMIT: SimTime = SimTime(3_600_000_000);

/// Forwards a hop count around a ring; no work of its own.
struct Relay {
    next: Pid,
}

impl Process for Relay {
    type Msg = u64;

    fn on_message(&mut self, _from: Pid, hops: u64, ctx: &mut Ctx<'_, u64>) {
        if hops > 0 {
            ctx.send(self.next, hops - 1);
        }
    }
}

/// `sim.engine.*`: a 64-relay ring on the ideal net, one token per relay,
/// 400 hops each: 25 664 deliveries of pure event-loop work.
pub fn engine(seed: u64, slice: Duration) -> Readings {
    const N: usize = 64;
    const HOPS: u64 = 400;
    let mut allocs_per_event = 0.0;
    let events = (N as u64 * (HOPS + 1)) as f64;
    let secs = median_over(slice, || {
        let mut sim: Sim<Relay> = Sim::new(SimConfig::ideal(seed).with_jobs(1));
        let nodes = sim.add_nodes(N);
        let pids: Vec<Pid> = nodes
            .iter()
            .map(|&nd| sim.spawn(nd, Relay { next: Pid(0) }))
            .collect();
        for (i, &p) in pids.iter().enumerate() {
            let next = pids[(i + 1) % N];
            sim.invoke(p, move |r, ctx| {
                r.next = next;
                ctx.send(next, HOPS);
            });
        }
        let before = crate::alloc::snapshot().0;
        let s = seconds(|| assert!(sim.run_to_quiescence(LIMIT), "ring did not quiesce"));
        allocs_per_event = (crate::alloc::snapshot().0 - before) as f64 / events;
        assert_eq!(sim.stats().messages_delivered, events as u64);
        s
    });
    vec![
        ("sim.engine.ns_per_event", secs * 1e9 / events),
        ("sim.engine.allocs_per_event", allocs_per_event),
    ]
}

/// Hub multicasts to every spoke; spokes ack; the hub starts the next round
/// when all acks are in.
struct Star {
    spokes: Vec<Pid>,
    acks: usize,
    rounds_left: u32,
}

#[derive(Clone, Debug)]
enum StarMsg {
    Ping(String),
    Ack,
}

impl Star {
    fn ping(&mut self, ctx: &mut Ctx<'_, StarMsg>) {
        ctx.multicast(
            self.spokes.iter().copied(),
            StarMsg::Ping("quote: ACME 42.17 +0.3".into()),
        );
    }
}

impl Process for Star {
    type Msg = StarMsg;

    fn on_message(&mut self, from: Pid, msg: StarMsg, ctx: &mut Ctx<'_, StarMsg>) {
        match msg {
            StarMsg::Ping(body) => {
                std::hint::black_box(body);
                ctx.send(from, StarMsg::Ack);
            }
            StarMsg::Ack => {
                self.acks += 1;
                if self.acks == self.spokes.len() {
                    self.acks = 0;
                    if self.rounds_left > 0 {
                        self.rounds_left -= 1;
                        self.ping(ctx);
                    }
                }
            }
        }
    }
}

/// Seconds for `rounds` acknowledged multicast rounds from a hub to 63
/// spokes under `cfg`.
fn star_seconds(cfg: SimConfig, rounds: u32) -> f64 {
    let mut sim: Sim<Star> = Sim::new(cfg);
    let nodes = sim.add_nodes(64);
    let pids: Vec<Pid> = nodes
        .iter()
        .map(|&nd| {
            sim.spawn(
                nd,
                Star {
                    spokes: Vec::new(),
                    acks: 0,
                    rounds_left: 0,
                },
            )
        })
        .collect();
    let spokes = pids[1..].to_vec();
    sim.invoke(pids[0], move |h, ctx| {
        h.spokes = spokes;
        h.rounds_left = rounds - 1;
        h.ping(ctx);
    });
    let s = seconds(|| assert!(sim.run_to_quiescence(LIMIT), "star did not quiesce"));
    assert_eq!(sim.stats().messages_delivered, u64::from(rounds) * 126);
    s
}

/// `sim.multicast.ns_per_copy` (ideal net) and `sim.net.ns_per_route_lan`
/// (the same star on `SimConfig::lan`: latency sampling, per-byte cost and
/// FIFO channel clocks on every message).
pub fn multicast(seed: u64, slice: Duration) -> Readings {
    const ROUNDS: u32 = 200;
    let msgs = f64::from(ROUNDS) * 126.0;
    let ideal = median_over(slice / 2, || {
        star_seconds(SimConfig::ideal(seed).with_jobs(1), ROUNDS)
    });
    let lan = median_over(slice / 2, || {
        star_seconds(SimConfig::lan(seed).with_jobs(1), ROUNDS)
    });
    vec![
        (
            "sim.multicast.ns_per_copy",
            ideal * 1e9 / (f64::from(ROUNDS) * 63.0),
        ),
        ("sim.net.ns_per_route_lan", lan * 1e9 / msgs),
    ]
}

/// Re-arms a 1 ms timer forever.
struct Ticker {
    fires: u64,
}

impl Process for Ticker {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_message(&mut self, _: Pid, _: u64, _: &mut Ctx<'_, u64>) {}

    fn on_timer(&mut self, _: TimerId, _: u32, ctx: &mut Ctx<'_, u64>) {
        self.fires += 1;
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
}

/// `sim.timer.ns_per_fire`: 64 self-re-arming 1 ms timers for 400
/// simulated milliseconds.
pub fn timers(seed: u64, slice: Duration) -> Readings {
    let mut fires = 0;
    let secs = median_over(slice, || {
        let mut sim: Sim<Ticker> = Sim::new(SimConfig::ideal(seed).with_jobs(1));
        let nodes = sim.add_nodes(64);
        let pids: Vec<Pid> = nodes
            .iter()
            .map(|&nd| sim.spawn(nd, Ticker { fires: 0 }))
            .collect();
        let s = seconds(|| sim.run_for(SimDuration::from_millis(400)));
        fires = pids.iter().map(|&p| sim.process(p).fires).sum();
        s
    });
    vec![("sim.timer.ns_per_fire", secs * 1e9 / fires as f64)]
}

/// `sim.par.speedup_j2`: the `sim-lbcast` timed section at half its size,
/// one worker shard against two; every member's delivery log and
/// every exact count must be equal.
pub fn par(seed: u64, slice: Duration) -> Readings {
    let run = |jobs: usize| {
        let w = Lbcast {
            n: 512,
            casts: 48,
            jobs,
            ..Lbcast::new(crate::workloads::Scale::Full)
        };
        let (out, logs) = w.run(w.setup(seed, false));
        (out.cost.wall_s, out.exact, logs)
    };
    let speedup = median_over(slice, || {
        let (t1, exact1, logs1) = run(1);
        let (t2, exact2, logs2) = run(2);
        assert!(
            exact1 == exact2 && logs1 == logs2,
            "jobs=2 changed the outputs of sim-lbcast"
        );
        t1 / t2
    });
    vec![("sim.par.speedup_j2", speedup)]
}
