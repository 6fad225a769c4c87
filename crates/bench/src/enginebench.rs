//! Raw-engine microbench fixtures: tiny processes with no protocol logic
//! on top, so `sim_step/*` and `multicast/*` time the simulator itself —
//! event pop, route, deliver, and multicast fan-out — rather than ISIS.
//!
//! The fixtures run on the LAN latency model (1 ms base latency), keep one
//! message in flight *per process* rather than one per simulation, and burn
//! a small deterministic compute kernel on every delivery, so the event
//! queue always holds `n` independent deliveries. The committed
//! `sim_step/*` and `multicast/*` baselines in `BENCH_results.json` were
//! recorded on exactly this shape.

use now_sim::{Ctx, Pid, Process, Sim, SimConfig, SimTime};

/// SplitMix64 rounds per relay delivery: the stand-in for per-message
/// application work (deserialize, apply, log). Sized so a delivery costs
/// on the order of a microsecond.
pub const RELAY_WORK: u32 = 256;

/// SplitMix64 rounds per fan-out `Ping` delivery at a spoke.
pub const FAN_WORK: u32 = 256;

/// Deterministic compute kernel: `rounds` SplitMix64 scrambles folded into
/// `x`. Pure integer arithmetic, no allocation — the cheapest honest proxy
/// for "the process did something with the message".
#[inline]
pub fn spin(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= z ^ (z >> 31);
    }
    x
}

/// Quiescence bound for the fixture runners: generous against any hop
/// count the benches use, tight enough to catch a livelocked fixture.
const RUN_LIMIT: SimTime = SimTime(3_600_000_000); // one simulated hour

/// Ring relay: each delivery folds the compute kernel into a checksum and
/// forwards the remaining hop count to the next peer. The runner seeds one
/// token *per relay*, so `n` messages circulate concurrently and every
/// 1 ms latency window carries `n` deliveries.
pub struct Relay {
    next: Pid,
    /// Deliveries observed at this relay.
    pub delivered: u64,
    /// Kernel output folded across this relay's deliveries.
    pub checksum: u64,
}

impl Process for Relay {
    type Msg = u64;

    fn on_message(&mut self, _from: Pid, hops: u64, ctx: &mut Ctx<'_, u64>) {
        self.delivered += 1;
        self.checksum ^= spin(hops, RELAY_WORK);
        if hops > 0 {
            ctx.send(self.next, hops - 1);
        }
    }
}

/// Builds a ring of `n` relays on the LAN latency model.
pub fn relay_ring(n: usize, seed: u64) -> (Sim<Relay>, Vec<Pid>) {
    assert!(n >= 2, "a ring needs at least two relays");
    let mut sim = Sim::new(SimConfig::lan(seed));
    let nodes = sim.add_nodes(n);
    let pids: Vec<Pid> = nodes
        .iter()
        .map(|&nd| {
            sim.spawn(
                nd,
                Relay {
                    next: Pid(0),
                    delivered: 0,
                    checksum: 0,
                },
            )
        })
        .collect();
    for (i, &p) in pids.iter().enumerate() {
        let next = pids[(i + 1) % n];
        sim.invoke(p, move |r, _ctx| r.next = next);
    }
    (sim, pids)
}

/// Seeds one `hops`-hop token at every relay, runs to quiescence, and
/// returns the total number of deliveries (always `n · (hops + 1)`: each
/// token's seed delivery plus one per forwarded hop).
pub fn run_relay_ring(sim: &mut Sim<Relay>, pids: &[Pid], hops: u64) -> u64 {
    for &p in pids {
        sim.invoke(p, move |r, ctx| ctx.send(r.next, hops));
    }
    assert!(sim.run_to_quiescence(RUN_LIMIT), "relay ring did not quiesce");
    pids.iter().map(|&p| sim.process(p).delivered).sum()
}

/// Star fan-out message: the hub multicasts a heap payload, spokes ack it.
#[derive(Clone, Debug)]
pub enum FanMsg {
    /// Hub → every spoke. The body rides in one shared envelope.
    Ping { round: u32, body: String },
    /// Spoke → hub.
    Ack,
}

/// Star hub/spoke: the hub multicasts `Ping` to every spoke; each spoke
/// burns the compute kernel on the payload and acks. Once a full round of
/// acks is back the hub starts another, keeping up to [`FAN_BURST`] rounds
/// outstanding so the event queue always holds independent deliveries.
pub struct Fanout {
    spokes: Vec<Pid>,
    acks: usize,
    rounds_left: u32,
    /// Rounds fully acknowledged at the hub.
    pub rounds_done: u32,
    /// Kernel output folded across this process's `Ping` deliveries.
    pub checksum: u64,
}

/// How many multicast rounds the hub keeps in flight at once.
pub const FAN_BURST: u32 = 4;

impl Process for Fanout {
    type Msg = FanMsg;

    fn on_message(&mut self, from: Pid, msg: FanMsg, ctx: &mut Ctx<'_, FanMsg>) {
        match msg {
            FanMsg::Ping { round, body } => {
                self.checksum ^= spin(u64::from(round) ^ body.len() as u64, FAN_WORK);
                ctx.send(from, FanMsg::Ack);
            }
            FanMsg::Ack => {
                self.acks += 1;
                if self.acks == self.spokes.len() {
                    self.acks = 0;
                    self.rounds_done += 1;
                    if self.rounds_left > 0 {
                        self.rounds_left -= 1;
                        start_round(self, ctx);
                    }
                }
            }
        }
    }
}

fn start_round(hub: &mut Fanout, ctx: &mut Ctx<'_, FanMsg>) {
    ctx.multicast(
        hub.spokes.iter().copied(),
        FanMsg::Ping {
            round: hub.rounds_left,
            body: "quote: ACME 42.17 +0.3".into(),
        },
    );
}

/// Builds a hub plus `n - 1` spokes on the LAN latency model; returns the
/// sim and the hub's pid.
pub fn fanout_star(n: usize, seed: u64) -> (Sim<Fanout>, Pid) {
    assert!(n >= 2, "a star needs a hub and at least one spoke");
    let mut sim = Sim::new(SimConfig::lan(seed));
    let nodes = sim.add_nodes(n);
    let pids: Vec<Pid> = nodes
        .iter()
        .map(|&nd| {
            sim.spawn(
                nd,
                Fanout {
                    spokes: Vec::new(),
                    acks: 0,
                    rounds_left: 0,
                    rounds_done: 0,
                    checksum: 0,
                },
            )
        })
        .collect();
    let hub = pids[0];
    let spokes: Vec<Pid> = pids[1..].to_vec();
    sim.invoke(hub, move |h, _ctx| h.spokes = spokes);
    (sim, hub)
}

/// Runs `rounds` fully-acknowledged multicast rounds (up to [`FAN_BURST`]
/// outstanding at a time), runs to quiescence, and returns how many
/// completed.
pub fn run_fanout_star(sim: &mut Sim<Fanout>, hub: Pid, rounds: u32) -> u32 {
    let burst = FAN_BURST.min(rounds);
    sim.invoke(hub, move |h, ctx| {
        h.rounds_left = rounds - burst;
        for _ in 0..burst {
            start_round(h, ctx);
        }
    });
    assert!(sim.run_to_quiescence(RUN_LIMIT), "fan-out star did not quiesce");
    sim.process(hub).rounds_done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_ring_delivers_every_hop() {
        let (mut sim, pids) = relay_ring(8, 1);
        assert_eq!(run_relay_ring(&mut sim, &pids, 100), 8 * 101);
    }

    #[test]
    fn fanout_star_completes_every_round() {
        let (mut sim, hub) = fanout_star(16, 2);
        assert_eq!(run_fanout_star(&mut sim, hub, 50), 50);
    }

    #[test]
    fn fixtures_are_deterministic() {
        let run = || {
            let (mut sim, hub) = fanout_star(9, 3);
            let done = run_fanout_star(&mut sim, hub, 20);
            (done, sim.process(hub).checksum, sim.now())
        };
        assert_eq!(run(), run());
    }
}
