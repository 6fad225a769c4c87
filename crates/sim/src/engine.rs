//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a set of workstations ([`crate::ids::NodeId`]) hosting
//! processes, a pending-event queue ordered by simulated time, seeded RNGs,
//! and the global [`Stats`]. Everything is single-threaded and fully
//! deterministic: two runs with the same seed and the same sequence of
//! harness calls produce byte-identical statistics. Determinism is what lets
//! the experiment harness make exact claims about message counts.
//!
//! Every per-process effect the outside world can see — RNG draws, event
//! sequence numbers, timer ids — comes from *per-process* state advanced in
//! that process's own execution order. The event queue orders entries by
//! the total key `(time, class, seq, source)`: `class` 0 is reserved for
//! control events (crash/partition) so they apply before same-time
//! traffic, `seq` is the per-source counter, and `source` breaks the
//! remaining ties.
//!
//! The hot paths — `route`, `step`, counter bumps — are allocation-free:
//! counters are interned ids, the per-callback action buffer is reused
//! across invocations, multicast shares one payload `Rc` across all
//! destinations, and the FIFO channel clock is a flat dense table.
//!
//! Processes are hosted by the shared [`Endpoint`] (see
//! [`crate::transport`]), which owns the process table and books every
//! send, delivery, drop, timer and death exactly as the socket daemon does.
//! What is the sim's own is what carries a message: the event queue, the
//! latency/loss model, FIFO channel clocks and partitions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use now_trace::{EventKind as TraceKind, Tracer};

use crate::ids::{NodeId, Pid, SiteId, TimerId};
use crate::net::{NetConfig, Partition};
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::transport::{Action, Ctx, Endpoint, Process, TimerFate};

/// A delivery payload: either an owned message or a multicast envelope
/// shared between all destinations of one `multicast` call.
enum Payload<M> {
    One(M),
    Shared(Rc<M>),
}

impl<M: Clone> Payload<M> {
    /// Takes the message out, cloning only when other deliveries still hold
    /// the shared envelope (the last consumer — and every dropped copy —
    /// pays nothing).
    fn into_msg(self) -> M {
        match self {
            Payload::One(m) => m,
            Payload::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()),
        }
    }
}

enum Event {
    /// `inc` pins the start to one incarnation: a restart→crash→restart
    /// chain must not double-start the latest life.
    Start { pid: Pid, inc: u32 },
    /// `wire` is the trace seq of the matching `NetSend` event (0 when the
    /// tracer was off at send time); it links the delivery back to its send.
    /// `payload` indexes the payload slab (`Sim::payloads`): keeping the
    /// message out of line keeps queue entries small, so heap sifts move a
    /// few words instead of a whole message. `inc` is the destination's
    /// incarnation at send time: a delivery addressed to a previous life of
    /// a restarted process is dropped as stale, never handed to the new one.
    Deliver {
        to: Pid,
        from: Pid,
        payload: u32,
        wire: u64,
        inc: u32,
    },
    /// `inc` is the owner's incarnation when the timer was armed; timers
    /// from a previous life never fire into a restarted process.
    Timer { pid: Pid, id: TimerId, kind: u32, inc: u32 },
    Crash(Pid),
    SetPartition(Partition),
}

/// The total event-ordering key: `(at, class, seq, src)`.
///
/// - `class` 0 = control events (crash/partition), 1 = everything
///   else; controls sort before same-time traffic.
/// - `seq` is a *per-source* counter (each process slot owns one; harness
///   originated events draw from `Sim::ext_seq`).
/// - `src` (the originating pid, `u32::MAX` for the harness) breaks the
///   remaining ties between different sources.
type EventKey = (SimTime, u8, u64, u32);

struct Entry {
    at: SimTime,
    class: u8,
    seq: u64,
    src: u32,
    ev: Event,
}

impl Entry {
    fn key(&self) -> EventKey {
        (self.at, self.class, self.seq, self.src)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Simulation-wide configuration.
#[derive(Clone, Debug)]
#[derive(Default)]
pub struct SimConfig {
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Network latency/loss model.
    pub net: NetConfig,
}


impl SimConfig {
    /// Deterministic, near-zero-latency configuration for protocol tests.
    pub fn ideal(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            net: NetConfig::ideal(),
        }
    }

    /// A realistic single-site LAN configuration.
    pub fn lan(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            net: NetConfig::default(),
        }
    }

    // Accepts and ignores its argument: kept only because the frozen
    // `perf/` crate calls it, until a `benchmark` issue drops those calls.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> SimConfig {
        self
    }
}

/// The simulator: a deterministic, single-threaded world of workstations.
/// Its processes live in the shared [`Endpoint`]; actions buffered by their
/// callbacks are interpreted against the sim's latency/loss model and
/// pending event queue.
pub struct Sim<P: Process> {
    cfg: SimConfig,
    /// Sequence counter for harness-originated events (spawn starts,
    /// injects, scheduled controls). Process-originated events use the
    /// originating slot's counter instead.
    ext_seq: u64,
    queue: BinaryHeap<Reverse<Entry>>,
    /// Pending delivery payloads, indexed by `Event::Deliver::payload`. A
    /// free-list slab: slots are recycled, so steady-state traffic allocates
    /// nothing and the queue entries stay a few words wide no matter how big
    /// `P::Msg` is.
    payloads: Vec<Option<Payload<P::Msg>>>,
    free_payloads: Vec<u32>,
    node_sites: Vec<SiteId>,
    partition: Partition,
    /// The process host shared with the socket daemon: process table,
    /// clock snapshot, RNGs, stats, reusable action buffer,
    /// optional tracer. The sim is its single clock writer.
    ep: Endpoint<P>,
    /// Per ordered (src, dst) pair: latest scheduled arrival, used to keep
    /// channels FIFO when `NetConfig::fifo` is set. A flat dense table
    /// indexed `[src][dst]` (grown on demand; `SimTime::ZERO` = no pending
    /// constraint) — pid-pair keyed tree walks were a route() hot spot.
    channel_clock: Vec<Vec<SimTime>>,
    /// Factory for the fresh process state of a restarted pid, registered
    /// via [`Sim::set_respawn`]; required by [`Sim::restart`] (but not
    /// [`Sim::restart_with`]).
    respawn: Option<Box<dyn Fn(Pid) -> P>>,
}

impl<P: Process> Sim<P> {
    /// Creates an empty world.
    pub fn new(cfg: SimConfig) -> Sim<P> {
        let ep = Endpoint::new(cfg.seed);
        Sim {
            cfg,
            ext_seq: 0,
            queue: BinaryHeap::new(),
            node_sites: Vec::new(),
            partition: Partition::connected(),
            ep,
            payloads: Vec::new(),
            free_payloads: Vec::new(),
            channel_clock: Vec::new(),
            respawn: None,
        }
    }

    /// Attaches a tracer (e.g. `Tracer::new().with_monitors(..)`), replacing
    /// and returning any existing one.
    pub fn set_tracer(&mut self, t: Tracer) -> Option<Tracer> {
        self.ep.set_tracer(t)
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.ep.tracer()
    }

    /// Mutable access to the attached tracer (for fault injection in tests).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.ep.tracer_mut()
    }

    /// Detaches and returns the tracer, disabling tracing from here on.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.ep.take_tracer()
    }

    /// Adds a workstation at `site` and returns its id.
    pub fn add_node(&mut self, site: SiteId) -> NodeId {
        let id = NodeId(self.node_sites.len() as u32);
        self.node_sites.push(site);
        id
    }

    /// Adds `n` workstations at site 0 and returns their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node(SiteId(0))).collect()
    }

    /// Spawns `proc` on `node`; its `on_start` runs at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn spawn(&mut self, node: NodeId, proc_: P) -> Pid {
        assert!(
            (node.0 as usize) < self.node_sites.len(),
            "spawn on unknown {node:?}"
        );
        let pid = self.ep.next_pid();
        self.ep.host(pid, node, proc_);
        let seq = self.ep.next_seq(pid);
        self.push(self.ep.now(), 1, seq, pid.0, Event::Start { pid, inc: 0 });
        pid
    }

    fn push(&mut self, at: SimTime, class: u8, seq: u64, src: u32, ev: Event) {
        self.queue.push(Reverse(Entry { at, class, seq, src, ev }));
    }

    /// Draws the next harness-originated sequence number.
    fn ext_seq(&mut self) -> u64 {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        seq
    }

    /// Parks a delivery payload in the slab, reusing a free slot when one
    /// exists, and returns its index.
    fn store_payload(&mut self, payload: Payload<P::Msg>) -> u32 {
        match self.free_payloads.pop() {
            Some(i) => {
                self.payloads[i as usize] = Some(payload);
                i
            }
            None => {
                let i = self.payloads.len() as u32;
                self.payloads.push(Some(payload));
                i
            }
        }
    }

    /// Removes and returns the payload at `slot`, recycling the slot.
    fn take_payload(&mut self, slot: u32) -> Payload<P::Msg> {
        let p = self.payloads[slot as usize]
            .take()
            .expect("payload slot taken twice");
        self.free_payloads.push(slot);
        p
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ep.now()
    }

    /// Immutable view of the run statistics.
    pub fn stats(&self) -> &Stats {
        self.ep.stats()
    }

    /// Mutable access to statistics (to enable tracking or reset windows).
    pub fn stats_mut(&mut self) -> &mut Stats {
        self.ep.stats_mut()
    }

    /// Immutable access to a process's state, alive or crashed.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid.
    pub fn process(&self, pid: Pid) -> &P {
        self.ep.process(pid).expect("unknown pid")
    }

    /// Mutable access to a process's *state only* — effects are impossible
    /// without a [`Ctx`]; prefer [`Sim::invoke`] to drive protocol actions.
    pub fn process_mut(&mut self, pid: Pid) -> &mut P {
        self.ep.process_mut(pid).expect("unknown pid")
    }

    /// Whether `pid` is alive (spawned and not crashed or halted).
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.ep.is_alive(pid)
    }

    /// The current incarnation of `pid`: 0 for the first life, bumped by
    /// every [`Sim::restart`] (0 for an unknown pid).
    pub fn incarnation(&self, pid: Pid) -> u32 {
        self.ep.incarnation(pid)
    }

    /// The node hosting `pid`.
    pub fn node_of(&self, pid: Pid) -> NodeId {
        self.ep.node_of(pid).expect("unknown pid")
    }

    /// Kills `pid` in the host (tracing `how` once) and drops every FIFO
    /// clock entry touching it, so long churn runs don't accumulate dead
    /// channels. Safe because a dead process never sends again and anything
    /// addressed to it is dropped at delivery time.
    fn kill(&mut self, pid: Pid, cause: Option<u64>, how: TraceKind) {
        if !self.ep.kill(pid, cause, how) {
            return;
        }
        let i = pid.0 as usize;
        if let Some(row) = self.channel_clock.get_mut(i) {
            *row = Vec::new();
        }
        for row in &mut self.channel_clock {
            if let Some(c) = row.get_mut(i) {
                *c = SimTime::ZERO;
            }
        }
    }

    /// Number of live FIFO channel-clock entries (test/diagnostic hook).
    pub fn live_channel_entries(&self) -> usize {
        self.channel_clock
            .iter()
            .map(|row| row.iter().filter(|c| **c != SimTime::ZERO).count())
            .sum()
    }

    /// Number of timers currently armed (set, not yet fired or cancelled).
    /// Zero after quiescence — the regression guard for the old leak where
    /// cancelled ids of already-fired timers accumulated forever.
    pub fn armed_timers(&self) -> usize {
        self.ep.armed_timers()
    }

    /// Crashes `pid` immediately: it stops executing and every in-flight
    /// message or timer addressed to it is silently discarded.
    ///
    /// Crashing an already-dead pid is an explicit no-op (chaos schedules
    /// can double-fire a crash): no trace event, no state change.
    pub fn crash(&mut self, pid: Pid) {
        self.kill(pid, None, TraceKind::Crash);
    }

    /// Registers the factory that builds the fresh process state of a
    /// restarted pid. Required before [`Sim::restart`];
    /// [`Sim::restart_with`] works without it.
    pub fn set_respawn(&mut self, f: impl Fn(Pid) -> P + 'static) {
        self.respawn = Some(Box::new(f));
    }

    /// Restarts a crashed `pid` under a fresh incarnation number, with
    /// process state built by the registered respawn factory. The new life
    /// shares the pid but nothing else: messages and timers addressed to a
    /// previous incarnation are dropped as stale at delivery time (counted
    /// in `Stats::messages_stale_dropped` and traced as `StaleDrop`), so a
    /// restart can never resurrect zombie state.
    ///
    /// Returns the new incarnation number, or `None` (a no-op) if `pid` is
    /// still alive.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid or if no respawn factory is registered.
    pub fn restart(&mut self, pid: Pid) -> Option<u32> {
        if self.is_alive(pid) {
            return None;
        }
        let f = self
            .respawn
            .as_ref()
            .expect("Sim::restart requires a respawn factory (Sim::set_respawn)");
        let fresh = f(pid);
        self.restart_with(pid, fresh)
    }

    /// [`Sim::restart`] with explicit fresh process state (no factory
    /// needed). No-op returning `None` if `pid` is alive.
    pub fn restart_with(&mut self, pid: Pid, proc_: P) -> Option<u32> {
        let inc = self.ep.revive(pid, proc_)?;
        let seq = self.ep.next_seq(pid);
        self.push(self.ep.now(), 1, seq, pid.0, Event::Start { pid, inc });
        Some(inc)
    }

    /// Schedules a crash of `pid` at absolute time `at`.
    pub fn schedule_crash(&mut self, pid: Pid, at: SimTime) {
        assert!(at >= self.ep.now(), "cannot schedule a crash in the past");
        let seq = self.ext_seq();
        self.push(at, 0, seq, Pid::EXTERNAL.0, Event::Crash(pid));
    }

    /// Replaces the network partition state immediately.
    pub fn set_partition(&mut self, p: Partition) {
        self.partition = p;
    }

    /// Heals any active partition. Healing an already-connected network is
    /// an explicit no-op (chaos schedules can double-fire `Heal`); returns
    /// whether a partition was actually cleared.
    pub fn heal(&mut self) -> bool {
        if self.partition.is_healed() {
            return false;
        }
        self.partition = Partition::connected();
        true
    }

    /// Schedules a partition change at absolute time `at`.
    pub fn schedule_partition(&mut self, at: SimTime, p: Partition) {
        assert!(at >= self.ep.now(), "cannot schedule a partition in the past");
        let seq = self.ext_seq();
        self.push(at, 0, seq, Pid::EXTERNAL.0, Event::SetPartition(p));
    }

    /// Invokes `f` on a live process with a full effect context, as though
    /// an external client had prodded it. This is how the harness drives
    /// protocol entry points (join a group, start a broadcast, ...).
    ///
    /// Returns `None` without calling `f` if the process is not alive.
    pub fn invoke<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        self.invoke_caused(pid, None, f)
    }

    /// [`Sim::invoke`] with an explicit causal link: `cause` is the trace
    /// seq of the delivery/timer event that triggered this callback.
    fn invoke_caused<R>(
        &mut self,
        pid: Pid,
        cause: Option<u64>,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        // Callbacks are never nested (applying actions cannot re-enter
        // invoke), so the endpoint-owned scratch buffer round-trips through
        // the Ctx and `give_back`, and steady-state invocations allocate
        // nothing.
        let (r, mut actions) = self.ep.run(pid, cause, f)?;
        for a in actions.drain(..) {
            self.apply(pid, a, cause);
        }
        self.ep.give_back(actions);
        Some(r)
    }

    /// Interprets one action emitted by `from`: traffic becomes queue
    /// events routed through the latency/loss model, on simulated time.
    fn apply(&mut self, from: Pid, action: Action<P::Msg>, cause: Option<u64>) {
        match action {
            Action::Send { to, msg } => self.route(from, to, msg, cause),
            Action::Multicast { dsts, msg } => {
                // Size once, share the payload; each destination still
                // counts as one message, exactly as before.
                let bytes = P::wire_size(&msg);
                let shared = Rc::new(msg);
                for to in dsts {
                    self.route_payload(
                        from,
                        to,
                        Payload::Shared(Rc::clone(&shared)),
                        bytes,
                        cause,
                    );
                }
            }
            Action::SetTimer { id, kind, at } => {
                let inc = self.ep.arm(from, id);
                let seq = self.ep.next_seq(from);
                self.push(at, 1, seq, from.0, Event::Timer { pid: from, id, kind, inc });
            }
            Action::CancelTimer(id) => self.ep.disarm(id),
            Action::Halt => self.kill(from, cause, TraceKind::Halt),
        }
    }

    fn route(&mut self, from: Pid, to: Pid, msg: P::Msg, cause: Option<u64>) {
        let bytes = P::wire_size(&msg);
        self.route_payload(from, to, Payload::One(msg), bytes, cause);
    }

    fn route_payload(
        &mut self,
        from: Pid,
        to: Pid,
        payload: Payload<P::Msg>,
        bytes: usize,
        cause: Option<u64>,
    ) {
        let wire = self.ep.book_send(from, to, bytes, cause);
        let Some(dst_node) = self.ep.node_of(to) else {
            // Message to a pid that does not exist (e.g. stale address).
            self.ep.book_drop(from, to, wire);
            return;
        };
        let src_node = self.node_of(from);
        // Borrow the link model in place (no per-message clone); the drop
        // decision and latency draw complete before any &mut self call.
        // Draws come from the *sender's* slot RNG, in the sender's own
        // execution order.
        let latency = if from == to || src_node == dst_node {
            Some(self.cfg.net.loopback)
        } else {
            let same_site =
                self.node_sites[src_node.0 as usize] == self.node_sites[dst_node.0 as usize];
            let model = if same_site {
                &self.cfg.net.local
            } else {
                &self.cfg.net.long_distance
            };
            let rng = self.ep.slot_rng(from);
            if model.sample_drop(rng) {
                None
            } else {
                Some(model.sample_latency(bytes, rng))
            }
        };
        let Some(latency) = latency else {
            self.ep.book_drop(from, to, wire);
            return;
        };
        let mut arrival = self.ep.now() + latency;
        if self.cfg.net.fifo {
            let (fi, ti) = (from.0 as usize, to.0 as usize);
            if self.channel_clock.len() <= fi {
                self.channel_clock.resize_with(fi + 1, Vec::new);
            }
            let row = &mut self.channel_clock[fi];
            if row.len() <= ti {
                row.resize(ti + 1, SimTime::ZERO);
            }
            let clock = &mut row[ti];
            if arrival <= *clock {
                arrival = *clock + SimDuration::from_micros(1);
            }
            *clock = arrival;
        }
        let inc = self.ep.incarnation(to);
        let seq = self.ep.next_seq(from);
        let payload = self.store_payload(payload);
        self.push(arrival, 1, seq, from.0, Event::Deliver { to, from, payload, wire, inc });
    }

    /// Executes one popped entry (the clock is already advanced). Returns
    /// `false` for entries that were filtered out (dropped deliveries,
    /// cancelled timers) so [`Sim::step`] can keep its historical contract
    /// of executing "one real event" per call.
    fn execute(&mut self, entry: Entry) -> bool {
        match entry.ev {
            Event::Start { pid, inc } => {
                if self.is_alive(pid) && self.ep.incarnation(pid) == inc {
                    self.invoke(pid, |p, ctx| p.on_start(ctx));
                }
            }
            Event::Deliver { to, from, payload, wire, inc } => {
                let payload = self.take_payload(payload);
                if !self.ep.admit(from, to, wire, inc) {
                    return false;
                }
                // Partition is evaluated at delivery time: messages in
                // flight when the partition forms are lost, like frames
                // on a cut cable. (The harness pseudo-client has no node
                // and is never partitioned away.)
                if let Some(sn) = self.ep.node_of(from) {
                    if !self.partition.connected_pair(sn, self.node_of(to)) {
                        self.ep.book_drop(from, to, wire);
                        return false;
                    }
                }
                let cause = self.ep.book_delivery(from, to, wire);
                self.invoke_caused(to, cause, |p, ctx| p.on_message(from, payload.into_msg(), ctx));
            }
            Event::Timer { pid, id, kind, inc } => match self.ep.fire(pid, id, kind, inc) {
                TimerFate::Cancelled => return false,
                TimerFate::Stale => {}
                TimerFate::Fire(cause) => {
                    self.invoke_caused(pid, cause, |p, ctx| p.on_timer(id, kind, ctx));
                }
            },
            Event::Crash(pid) => self.crash(pid),
            Event::SetPartition(p) => self.partition = p,
        }
        true
    }

    /// Executes the next pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        loop {
            let Some(Reverse(entry)) = self.queue.pop() else {
                return false;
            };
            debug_assert!(entry.at >= self.ep.now(), "event queue went backwards");
            self.ep.set_now(entry.at);
            if self.execute(entry) {
                return true;
            }
        }
    }

    /// Runs until the clock reaches `t` (events at exactly `t` included) or
    /// the queue drains.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(Reverse(e)) = self.queue.peek() {
            if e.at > t {
                break;
            }
            self.step();
        }
        if self.ep.now() < t {
            self.ep.set_now(t);
        }
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.ep.now() + d;
        self.run_until(t);
    }

    /// Runs until no events remain or the clock would pass `limit`.
    /// Returns `true` if the system quiesced (queue drained) within `limit`.
    ///
    /// Note: protocols with periodic timers (heartbeats) never quiesce; use
    /// [`Sim::run_until`] for those.
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> bool {
        while let Some(Reverse(e)) = self.queue.peek() {
            if e.at > limit {
                return false;
            }
            self.step();
        }
        true
    }

    /// Injects a message from the harness pseudo-client to `to`, delivered
    /// after the loopback latency.
    pub fn inject(&mut self, to: Pid, msg: P::Msg) {
        let bytes = P::wire_size(&msg);
        let wire = self.ep.book_send(Pid::EXTERNAL, to, bytes, None);
        let payload = self.store_payload(Payload::One(msg));
        let inc = self.ep.incarnation(to);
        let seq = self.ext_seq();
        self.push(
            self.ep.now() + self.cfg.net.loopback,
            1,
            seq,
            Pid::EXTERNAL.0,
            Event::Deliver {
                to,
                from: Pid::EXTERNAL,
                payload,
                wire,
                inc,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy process: replies "pong" to "ping", counts deliveries, and can
    /// fire timers.
    #[derive(Default)]
    struct Echo {
        got: Vec<(Pid, String)>,
        timer_fired: Vec<u32>,
    }

    impl Process for Echo {
        type Msg = String;

        fn on_message(&mut self, from: Pid, msg: String, ctx: &mut Ctx<'_, String>) {
            if msg == "ping" {
                ctx.send(from, "pong".into());
            }
            self.got.push((from, msg));
        }

        fn on_timer(&mut self, _id: TimerId, kind: u32, _ctx: &mut Ctx<'_, String>) {
            self.timer_fired.push(kind);
        }
    }

    fn two_procs() -> (Sim<Echo>, Pid, Pid) {
        let mut sim = Sim::new(SimConfig::ideal(1));
        let n = sim.add_nodes(2);
        let a = sim.spawn(n[0], Echo::default());
        let b = sim.spawn(n[1], Echo::default());
        (sim, a, b)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, a, b) = two_procs();
        sim.invoke(a, |_, ctx| ctx.send(b, "ping".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert_eq!(sim.process(b).got, vec![(a, "ping".to_string())]);
        assert_eq!(sim.process(a).got, vec![(b, "pong".to_string())]);
        assert_eq!(sim.stats().messages_sent, 2);
        assert_eq!(sim.stats().messages_delivered, 2);
    }

    #[test]
    fn crashed_process_receives_nothing() {
        let (mut sim, a, b) = two_procs();
        sim.crash(b);
        sim.invoke(a, |_, ctx| ctx.send(b, "ping".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert!(sim.process(b).got.is_empty());
        assert_eq!(sim.stats().messages_dropped, 1);
        assert!(!sim.is_alive(b));
        assert!(sim.is_alive(a));
    }

    #[test]
    fn scheduled_crash_takes_effect_at_time() {
        let (mut sim, a, b) = two_procs();
        sim.schedule_crash(b, SimTime(500));
        // Sent at t=0, arrives at t=1 (ideal link): delivered.
        sim.invoke(a, |_, ctx| ctx.send(b, "early".into()));
        sim.run_until(SimTime(400));
        assert_eq!(sim.process(b).got.len(), 1);
        sim.run_until(SimTime(600));
        sim.invoke(a, |_, ctx| ctx.send(b, "late".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert_eq!(sim.process(b).got.len(), 1);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let (mut sim, a, _) = two_procs();
        let cancelled = sim
            .invoke(a, |_, ctx| {
                ctx.set_timer(SimDuration::from_millis(5), 1);
                let t2 = ctx.set_timer(SimDuration::from_millis(1), 2);
                ctx.set_timer(SimDuration::from_millis(3), 3);
                t2
            })
            .unwrap();
        sim.invoke(a, |_, ctx| ctx.cancel_timer(cancelled));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert_eq!(sim.process(a).timer_fired, vec![3, 1]);
    }

    #[test]
    fn armed_timer_set_is_empty_after_quiescence() {
        // Regression: the old `cancelled: BTreeSet<TimerId>` kept ids of
        // timers cancelled after firing (or belonging to crashed procs)
        // forever. The armed map must drain completely.
        let (mut sim, a, b) = two_procs();
        let fired = sim
            .invoke(a, |_, ctx| ctx.set_timer(SimDuration::from_micros(10), 1))
            .unwrap();
        sim.run_to_quiescence(SimTime(1_000_000));
        // Cancelling an already-fired timer must not resurrect any state.
        sim.invoke(a, |_, ctx| ctx.cancel_timer(fired));
        // A timer on a process that crashes before the deadline still leaves
        // the map when its queue entry pops.
        sim.invoke(b, |_, ctx| ctx.set_timer(SimDuration::from_millis(1), 2));
        sim.crash(b);
        assert_eq!(sim.armed_timers(), 1);
        sim.run_to_quiescence(SimTime(10_000_000));
        assert_eq!(sim.armed_timers(), 0, "armed timer map must drain");
        // And a cancel-before-fire round trip also leaves nothing behind.
        let t = sim
            .invoke(a, |_, ctx| ctx.set_timer(SimDuration::from_millis(5), 3))
            .unwrap();
        sim.invoke(a, |_, ctx| ctx.cancel_timer(t));
        assert_eq!(sim.armed_timers(), 0);
        sim.run_to_quiescence(SimTime(20_000_000));
        assert_eq!(sim.armed_timers(), 0);
        assert_eq!(sim.process(a).timer_fired, vec![1]);
    }

    #[test]
    fn channel_clock_is_pruned_for_dead_processes() {
        let mut sim: Sim<Echo> = Sim::new(SimConfig::lan(13));
        let nodes = sim.add_nodes(3);
        let a = sim.spawn(nodes[0], Echo::default());
        let b = sim.spawn(nodes[1], Echo::default());
        let c = sim.spawn(nodes[2], Echo::default());
        sim.invoke(a, |_, ctx| {
            ctx.send(b, "x".into());
            ctx.send(c, "x".into());
        });
        sim.invoke(b, |_, ctx| ctx.send(a, "x".into()));
        sim.invoke(c, |_, ctx| ctx.send(a, "x".into()));
        assert_eq!(sim.live_channel_entries(), 4);
        sim.crash(b);
        // Every entry with b as source or destination is gone; a→c and c→a
        // remain.
        assert_eq!(sim.live_channel_entries(), 2);
        // A halt prunes like a crash: c's outbound row (c→a) and, as the
        // receiver of a→c, its inbound column.
        sim.invoke(c, |_, ctx| ctx.halt());
        assert_eq!(sim.live_channel_entries(), 0);
    }

    #[test]
    fn partition_blocks_delivery_and_heals() {
        let (mut sim, a, b) = two_procs();
        sim.set_partition(Partition::split([sim.node_of(b)]));
        sim.invoke(a, |_, ctx| ctx.send(b, "blocked".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert!(sim.process(b).got.is_empty());
        assert_eq!(sim.stats().messages_dropped, 1);

        sim.set_partition(Partition::connected());
        sim.invoke(a, |_, ctx| ctx.send(b, "ok".into()));
        sim.run_to_quiescence(SimTime(2_000_000));
        assert_eq!(sim.process(b).got.len(), 1);
    }

    #[test]
    fn scheduled_partition_fires() {
        let (mut sim, a, b) = two_procs();
        sim.schedule_partition(SimTime(100), Partition::split([sim.node_of(b)]));
        sim.run_until(SimTime(200));
        sim.invoke(a, |_, ctx| ctx.send(b, "x".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert!(sim.process(b).got.is_empty());
    }

    #[test]
    fn multicast_counts_one_message_per_destination() {
        let mut sim: Sim<Echo> = Sim::new(SimConfig::ideal(3));
        let nodes = sim.add_nodes(5);
        let pids: Vec<Pid> = nodes
            .iter()
            .map(|n| sim.spawn(*n, Echo::default()))
            .collect();
        let (first, rest) = pids.split_first().unwrap();
        let rest = rest.to_vec();
        sim.invoke(*first, |_, ctx| ctx.multicast(rest, "hello".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert_eq!(sim.stats().proc(pids[0]).sent, 4);
        for p in &pids[1..] {
            assert_eq!(sim.process(*p).got.len(), 1);
        }
    }

    #[test]
    fn multicast_shared_payload_reaches_every_destination_intact() {
        // The shared-envelope fast path must hand every receiver the full
        // message, including when some deliveries are dropped (dead dest).
        let mut sim: Sim<Echo> = Sim::new(SimConfig::lan(17));
        let nodes = sim.add_nodes(4);
        let pids: Vec<Pid> = nodes
            .iter()
            .map(|n| sim.spawn(*n, Echo::default()))
            .collect();
        sim.crash(pids[2]);
        let dsts = vec![pids[1], pids[2], pids[3]];
        sim.invoke(pids[0], |_, ctx| ctx.multicast(dsts, "payload".into()));
        sim.run_to_quiescence(SimTime(10_000_000));
        assert_eq!(sim.process(pids[1]).got, vec![(pids[0], "payload".to_string())]);
        assert_eq!(sim.process(pids[3]).got, vec![(pids[0], "payload".to_string())]);
        assert_eq!(sim.stats().messages_sent, 3);
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let run = |seed| {
            let mut sim: Sim<Echo> = Sim::new(SimConfig::lan(seed));
            let nodes = sim.add_nodes(4);
            let pids: Vec<Pid> = nodes
                .iter()
                .map(|n| sim.spawn(*n, Echo::default()))
                .collect();
            for i in 0..20u32 {
                let from = pids[(i % 4) as usize];
                let to = pids[((i + 1) % 4) as usize];
                sim.invoke(from, |_, ctx| ctx.send(to, "ping".into()));
            }
            sim.run_to_quiescence(SimTime(10_000_000));
            (sim.stats().messages_sent, sim.now())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn invoke_on_dead_process_returns_none() {
        let (mut sim, a, _) = two_procs();
        sim.crash(a);
        assert!(sim.invoke(a, |_, _| ()).is_none());
    }

    #[test]
    fn inject_delivers_from_external() {
        let (mut sim, a, _) = two_procs();
        sim.inject(a, "hi".into());
        sim.run_to_quiescence(SimTime(1_000_000));
        assert_eq!(sim.process(a).got, vec![(Pid::EXTERNAL, "hi".to_string())]);
    }

    #[test]
    fn halt_stops_a_process_silently() {
        let (mut sim, a, b) = two_procs();
        sim.invoke(a, |_, ctx| ctx.halt());
        assert!(!sim.is_alive(a));
        sim.invoke(b, |_, ctx| ctx.send(a, "x".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert!(sim.process(a).got.is_empty());
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim: Sim<Echo> = Sim::new(SimConfig::ideal(0));
        sim.run_until(SimTime(12_345));
        assert_eq!(sim.now(), SimTime(12_345));
    }

    #[test]
    fn long_distance_latency_exceeds_lan() {
        let mut sim: Sim<Echo> = Sim::new(SimConfig::lan(9));
        let n0 = sim.add_node(SiteId(0));
        let n1 = sim.add_node(SiteId(0));
        let n2 = sim.add_node(SiteId(1));
        let a = sim.spawn(n0, Echo::default());
        let b = sim.spawn(n1, Echo::default());
        let c = sim.spawn(n2, Echo::default());
        sim.invoke(a, |_, ctx| {
            ctx.send(b, "lan".into());
            ctx.send(c, "wan".into());
        });
        sim.run_until(SimTime(10_000));
        assert_eq!(sim.process(b).got.len(), 1, "LAN message arrives fast");
        assert_eq!(sim.process(c).got.len(), 0, "WAN message still in flight");
        sim.run_until(SimTime(100_000));
        assert_eq!(sim.process(c).got.len(), 1);
    }

    #[test]
    fn fifo_channels_preserve_send_order_despite_jitter() {
        let mut sim: Sim<Echo> = Sim::new(SimConfig::lan(11));
        let nodes = sim.add_nodes(2);
        let a = sim.spawn(nodes[0], Echo::default());
        let b = sim.spawn(nodes[1], Echo::default());
        sim.invoke(a, |_, ctx| {
            for i in 0..50 {
                ctx.send(b, format!("{i}"));
            }
        });
        sim.run_to_quiescence(SimTime(60_000_000));
        let got: Vec<String> = sim.process(b).got.iter().map(|(_, m)| m.clone()).collect();
        let want: Vec<String> = (0..50).map(|i| format!("{i}")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fifo_holds_within_a_multicast_burst() {
        // Repeated multicasts to the same destinations must stay ordered
        // per channel even though payloads ride a shared envelope.
        let mut sim: Sim<Echo> = Sim::new(SimConfig::lan(19));
        let nodes = sim.add_nodes(3);
        let a = sim.spawn(nodes[0], Echo::default());
        let b = sim.spawn(nodes[1], Echo::default());
        let c = sim.spawn(nodes[2], Echo::default());
        sim.invoke(a, |_, ctx| {
            for i in 0..20 {
                ctx.multicast([b, c], format!("{i}"));
            }
        });
        sim.run_to_quiescence(SimTime(60_000_000));
        let want: Vec<String> = (0..20).map(|i| format!("{i}")).collect();
        for p in [b, c] {
            let got: Vec<String> = sim.process(p).got.iter().map(|(_, m)| m.clone()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn send_to_unknown_pid_is_counted_as_drop() {
        let (mut sim, a, _) = two_procs();
        sim.invoke(a, |_, ctx| ctx.send(Pid(999), "void".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn tracer_links_deliveries_back_to_sends() {
        use now_trace::EventKind;

        let (mut sim, a, b) = two_procs();
        sim.set_tracer(Tracer::new().retain_all());
        sim.invoke(a, |_, ctx| ctx.send(b, "ping".into()));
        sim.run_to_quiescence(SimTime(1_000_000));

        let tr = sim.take_tracer().expect("tracer attached");
        let events = tr.events();
        // ping: NET_SEND at a, NET_DELIVER at b; pong: NET_SEND at b
        // *caused by* that delivery, NET_DELIVER back at a.
        let send = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::NetSend { .. }) && e.pid == a.0)
            .expect("ping send traced");
        let deliver = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::NetDeliver { send: s, .. } if s == send.seq))
            .expect("ping delivery traced");
        assert_eq!(deliver.pid, b.0);
        assert_eq!(deliver.cause, Some(send.seq));
        let pong = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::NetSend { .. }) && e.pid == b.0)
            .expect("pong send traced");
        assert_eq!(
            pong.cause,
            Some(deliver.seq),
            "reply send must be caused by the delivery that triggered it"
        );
    }

    #[test]
    fn restart_revives_under_a_fresh_incarnation_with_fresh_state() {
        let (mut sim, a, b) = two_procs();
        sim.set_respawn(|_| Echo::default());
        sim.invoke(a, |_, ctx| ctx.send(b, "ping".into()));
        sim.run_to_quiescence(SimTime(1_000_000));
        assert_eq!(sim.process(b).got.len(), 1);

        sim.crash(b);
        assert_eq!(sim.restart(b), Some(1));
        assert!(sim.is_alive(b));
        assert_eq!(sim.incarnation(b), 1);
        assert!(sim.process(b).got.is_empty(), "restart installs fresh state");

        // The new life sends and receives normally.
        sim.invoke(a, |_, ctx| ctx.send(b, "ping".into()));
        sim.run_to_quiescence(SimTime(2_000_000));
        assert_eq!(sim.process(b).got.len(), 1);

        // A second crash+restart bumps again.
        sim.crash(b);
        assert_eq!(sim.restart(b), Some(2));
        assert_eq!(sim.incarnation(b), 2);
    }

    #[test]
    fn restart_of_a_live_process_is_a_noop() {
        let (mut sim, _, b) = two_procs();
        sim.set_respawn(|_| Echo::default());
        assert_eq!(sim.restart(b), None);
        assert_eq!(sim.incarnation(b), 0);
    }

    #[test]
    fn double_crash_is_a_noop() {
        let (mut sim, _, b) = two_procs();
        sim.set_tracer(Tracer::new().retain_all());
        sim.crash(b);
        sim.crash(b); // chaos schedules can double-fire; must not panic
        assert!(!sim.is_alive(b));
        let tr = sim.take_tracer().expect("tracer");
        let crashes = tr
            .events()
            .iter()
            .filter(|e| matches!(e.kind, now_trace::EventKind::Crash))
            .count();
        assert_eq!(crashes, 1, "the second crash traces nothing");
    }

    #[test]
    fn in_flight_messages_to_a_previous_incarnation_are_stale_dropped() {
        let (mut sim, a, b) = two_procs();
        sim.set_tracer(Tracer::new().retain_all());
        // The ping is in flight (arrives at t=1 on the ideal link) when b
        // crashes and restarts: it is addressed to incarnation 0 and must
        // not reach incarnation 1.
        sim.invoke(a, |_, ctx| ctx.send(b, "ping".into()));
        sim.crash(b);
        sim.restart_with(b, Echo::default());
        sim.run_to_quiescence(SimTime(1_000_000));
        assert!(sim.process(b).got.is_empty(), "stale delivery must not revive");
        assert_eq!(sim.stats().messages_stale_dropped, 1);
        assert_eq!(sim.stats().messages_dropped, 1, "stale drops count as drops");
        let tr = sim.take_tracer().expect("tracer");
        assert!(
            tr.events()
                .iter()
                .any(|e| matches!(e.kind, now_trace::EventKind::StaleDrop { to, .. } if to == b.0)),
            "the stale drop is traced"
        );
    }

    #[test]
    fn timers_of_a_previous_incarnation_do_not_fire() {
        let (mut sim, _, b) = two_procs();
        sim.invoke(b, |_, ctx| ctx.set_timer(SimDuration::from_millis(1), 7));
        sim.crash(b);
        sim.restart_with(b, Echo::default());
        sim.run_to_quiescence(SimTime(10_000_000));
        assert!(
            sim.process(b).timer_fired.is_empty(),
            "the old life's timer must not fire in the new life"
        );
        assert_eq!(sim.armed_timers(), 0, "the stale timer entry still drains");
    }

    #[test]
    fn restart_traces_the_new_incarnation() {
        let (mut sim, _, b) = two_procs();
        sim.set_tracer(Tracer::new().retain_all());
        sim.crash(b);
        sim.restart_with(b, Echo::default());
        let tr = sim.take_tracer().expect("tracer");
        assert!(tr.events().iter().any(|e| {
            matches!(e.kind, now_trace::EventKind::Restart { incarnation: 1 }) && e.pid == b.0
        }));
    }

    #[test]
    fn heal_is_a_noop_when_already_connected() {
        let (mut sim, _, b) = two_procs();
        assert!(!sim.heal(), "healing a healed network is a no-op");
        sim.set_partition(Partition::split([sim.node_of(b)]));
        assert!(sim.heal(), "an active partition is actually cleared");
        assert!(!sim.heal(), "and the second heal is a no-op again");
    }

    #[test]
    fn tracing_on_and_off_produce_identical_stats() {
        let run = |trace: bool| {
            let mut sim: Sim<Echo> = Sim::new(SimConfig::lan(7));
            if trace {
                sim.set_tracer(Tracer::new().retain_all());
            }
            let nodes = sim.add_nodes(3);
            let pids: Vec<Pid> = nodes
                .iter()
                .map(|n| sim.spawn(*n, Echo::default()))
                .collect();
            for i in 0..30u32 {
                let from = pids[(i % 3) as usize];
                let to = pids[((i + 1) % 3) as usize];
                sim.invoke(from, |_, ctx| ctx.send(to, "ping".into()));
            }
            sim.run_to_quiescence(SimTime(10_000_000));
            (
                sim.stats().messages_sent,
                sim.stats().messages_delivered,
                sim.stats().bytes_sent,
                sim.now(),
            )
        };
        assert_eq!(run(false), run(true), "tracing must not perturb the run");
    }
}
