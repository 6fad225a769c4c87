//! The process host both backends share.
//!
//! A process callback sees only a [`Ctx`], which buffers every externally
//! visible effect — sends, multicasts, timers, halts — as an [`Action`] for
//! the hosting backend to apply after the callback returns.
//!
//! [`Endpoint`] owns the process table and every per-process booking rule:
//! spawn, the callback `Ctx`, send / delivery / drop accounting with its
//! `NetSend` / `NetDeliver` / `NetDrop` trace events, the incarnation gate,
//! timers, crash, halt and restart. The simulator ([`crate::engine::Sim`])
//! and the `now-net` socket daemon each embed one and keep only what
//! carries a message, so a counter or a trace event means the same on both.
//!
//! Determinism note: nothing here reads a wall clock or spawns a thread;
//! an `Endpoint` is exactly as deterministic as the `now` values its owner
//! feeds it (see DESIGN.md, "Transport architecture").

use now_trace::{EventKind as TraceKind, Tracer};

use crate::det_rand::{DetRng, SplitMix64};
use crate::ids::{NodeId, Pid, TimerId};
use crate::stats::{CounterId, Observation, ObservationLog, SeriesId, Stats};
use crate::time::{SimDuration, SimTime};

/// Behaviour of a hosted process.
///
/// All processes in one simulation (or one daemon) share a message type
/// `Msg`; layered protocols embed their payloads in it. Callbacks receive a
/// [`Ctx`] through which every externally visible effect (sends, timers,
/// observations) must flow — this is what makes runs reproducible and
/// measurable.
pub trait Process: 'static {
    /// The message type exchanged between processes in this simulation.
    type Msg: Clone + std::fmt::Debug + 'static;

    /// Invoked once when the process is spawned.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Invoked when a message is delivered.
    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Invoked when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _id: TimerId, _kind: u32, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Estimated wire size in bytes of a message, for the latency model and
    /// byte counters. The default suits small control messages.
    fn wire_size(_msg: &Self::Msg) -> usize {
        64
    }
}

/// One buffered effect emitted by a process callback through [`Ctx`].
///
/// Actions are interpreted by the hosting backend after the callback
/// returns, so a callback always observes a consistent snapshot of the
/// world regardless of backend.
pub enum Action<M> {
    /// Send `msg` to `to`.
    Send {
        /// Destination process.
        to: Pid,
        /// The message.
        msg: M,
    },
    /// One payload, many destinations. The sim shares the message via a
    /// single `Rc` instead of deep-cloning per destination; a real backend
    /// encodes the payload once per remote peer.
    Multicast {
        /// Destinations, in send order.
        dsts: Vec<Pid>,
        /// The shared message.
        msg: M,
    },
    /// Arm timer `id` (allocated by the endpoint) to fire at `at`.
    SetTimer {
        /// The pre-allocated timer handle.
        id: TimerId,
        /// Caller-chosen discriminator passed back to `on_timer`.
        kind: u32,
        /// Absolute deadline on the owning backend's clock.
        at: SimTime,
    },
    /// Disarm a timer; unknown or fired ids are a no-op.
    CancelTimer(TimerId),
    /// The process stops silently.
    Halt,
}

/// What [`Endpoint::fire`] decided about a timer whose deadline came.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerFate {
    /// Cancelled or already fired: nothing happens.
    Cancelled,
    /// Armed by an earlier or ended life of its owner: it does not fire.
    Stale,
    /// Run `on_timer` under this cause (the `TimerFire` seq, if traced).
    Fire(Option<u64>),
}

/// The per-process RNG seed: one SplitMix64 "split" of the run seed per
/// pid, the standard construction for independent child streams.
fn slot_seed(seed: u64, pid: Pid) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    SplitMix64::new(seed.wrapping_add(GOLDEN.wrapping_mul(u64::from(pid.0) + 1))).next_u64()
}

/// One hosted process and its private determinism state.
struct Slot<P> {
    proc: P,
    node: NodeId,
    alive: bool,
    /// Restarts so far (0 = first life); traffic and timers carry it.
    incarnation: u32,
    /// This process's own stream, seeded from `(seed, pid)`: `Ctx::rng` in
    /// its callbacks and, in the sim, its sends' latency draws.
    rng: DetRng,
    /// Per-source event sequence counter (the sim's queue `seq`).
    next_seq: u64,
    /// Per-process timer counter, under the pid prefix (`Ctx::set_timer`).
    next_timer: u64,
    /// Timers this process has armed and not yet fired or cancelled.
    /// Id-sorted (ids are allocated monotonically per process): arming is a
    /// tail push, lookups binary-search a few entries.
    armed: Vec<TimerId>,
}

/// The process host shared by the simulator and the socket daemon: the
/// process table, clock snapshot, stats, observations, reusable action
/// buffer and optional tracer, plus every booking rule.
pub struct Endpoint<P: Process> {
    now: SimTime,
    seed: u64,
    stats: Stats,
    obs: ObservationLog,
    scratch: Vec<Action<P::Msg>>,
    tracer: Option<Tracer>,
    slots: Vec<Option<Slot<P>>>,
}

impl<P: Process> Endpoint<P> {
    /// An empty host at time zero; `seed` seeds every process's own RNG
    /// stream. The tracer comes from `NOW_MONITORS` / `NOW_TRACE`.
    pub fn new(seed: u64) -> Endpoint<P> {
        Endpoint {
            now: SimTime::ZERO,
            seed,
            stats: Stats::default(),
            obs: ObservationLog::default(),
            scratch: Vec::new(),
            tracer: Tracer::from_env(),
            slots: Vec::new(),
        }
    }

    /// The clock snapshot handed to the next callback.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock snapshot. The owner (sim or daemon) is the
    /// single writer; `Endpoint` never moves time on its own.
    #[inline]
    pub fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// Immutable statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable statistics (reset windows, per-proc tracking).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The observation log.
    pub fn observations(&self) -> &ObservationLog {
        &self.obs
    }

    /// Attaches a tracer, replacing and returning any existing one.
    pub fn set_tracer(&mut self, t: Tracer) -> Option<Tracer> {
        self.tracer.replace(t)
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Mutable access to the attached tracer.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// Detaches and returns the tracer.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Whether tracing is on (used to skip event construction when off).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records a host-level trace event; 0 when tracing is off.
    #[inline]
    fn trace(&mut self, pid: Pid, cause: Option<u64>, kind: TraceKind) -> u64 {
        match self.tracer.as_mut() {
            Some(tr) => tr.record(self.now.as_micros(), pid.0, cause, kind),
            None => 0,
        }
    }

    #[inline]
    fn slot(&self, pid: Pid) -> Option<&Slot<P>> {
        self.slots.get(pid.0 as usize).and_then(Option::as_ref)
    }

    #[inline]
    fn slot_mut(&mut self, pid: Pid) -> Option<&mut Slot<P>> {
        self.slots.get_mut(pid.0 as usize).and_then(Option::as_mut)
    }

    /// Hosts `p` as `pid` on `node` and traces the `Spawn`; the caller
    /// runs its `on_start`. (Inlined so `p` moves once, into its slot.)
    #[inline]
    pub fn host(&mut self, pid: Pid, node: NodeId, p: P) {
        let slot = Some(Slot {
            proc: p,
            node,
            alive: true,
            incarnation: 0,
            rng: DetRng::seed_from_u64(slot_seed(self.seed, pid)),
            next_seq: 0,
            next_timer: 0,
            armed: Vec::new(),
        });
        let i = pid.0 as usize;
        if i < self.slots.len() {
            self.slots[i] = slot;
        } else {
            self.slots.resize_with(i, || None);
            self.slots.push(slot);
        }
        self.stats.ensure_proc(pid);
        self.trace(pid, None, TraceKind::Spawn { node: node.0 });
    }

    /// The pid the next dense `host` should use (one past the highest).
    pub(crate) fn next_pid(&self) -> Pid {
        Pid(self.slots.len() as u32)
    }

    /// Whether `pid` is hosted here and alive (not crashed or halted).
    #[inline]
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.slot(pid).is_some_and(|s| s.alive)
    }

    /// The current incarnation of `pid` (0 for an unknown pid).
    #[inline]
    pub fn incarnation(&self, pid: Pid) -> u32 {
        self.slot(pid).map_or(0, |s| s.incarnation)
    }

    /// The node hosting `pid`, if it is hosted here.
    #[inline]
    pub(crate) fn node_of(&self, pid: Pid) -> Option<NodeId> {
        self.slot(pid).map(|s| s.node)
    }

    /// The state of a hosted process, alive or dead.
    pub fn process(&self, pid: Pid) -> Option<&P> {
        self.slot(pid).map(|s| &s.proc)
    }

    /// Mutable state of a hosted process, alive or dead.
    pub(crate) fn process_mut(&mut self, pid: Pid) -> Option<&mut P> {
        self.slot_mut(pid).map(|s| &mut s.proc)
    }

    /// Draws the next per-source event sequence number of `pid`.
    #[inline]
    pub(crate) fn next_seq(&mut self, pid: Pid) -> u64 {
        let s = self.slot_mut(pid).expect("unknown pid");
        let seq = s.next_seq;
        s.next_seq += 1;
        seq
    }

    /// `pid`'s own RNG stream (the sim draws its sends' latency from it).
    #[inline]
    pub(crate) fn slot_rng(&mut self, pid: Pid) -> &mut DetRng {
        &mut self.slot_mut(pid).expect("unknown pid").rng
    }

    /// Number of timers armed and not yet fired or cancelled.
    pub(crate) fn armed_timers(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.armed.len()).sum()
    }

    /// Runs `f` on the live process `pid` under a [`Ctx`] built from its
    /// slot (`None` if `pid` is not alive). Returns `f`'s result and the
    /// buffered actions, which the backend applies in order and hands back
    /// through [`Endpoint::give_back`], so steady-state callbacks never
    /// allocate.
    #[inline]
    pub fn run<R>(
        &mut self,
        pid: Pid,
        cause: Option<u64>,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<(R, Vec<Action<P::Msg>>)> {
        // Split borrows: the process stays in place while the Ctx borrows
        // the endpoint's disjoint fields.
        let Endpoint { now, stats, obs, scratch, tracer, slots, .. } = self;
        let slot = slots.get_mut(pid.0 as usize)?.as_mut().filter(|s| s.alive)?;
        let mut actions = std::mem::take(scratch);
        let r = {
            let mut ctx = Ctx {
                now: *now,
                me: pid,
                incarnation: slot.incarnation,
                rng: &mut slot.rng,
                stats,
                obs,
                next_timer: &mut slot.next_timer,
                actions: &mut actions,
                tracer: tracer.as_mut(),
                cause,
            };
            f(&mut slot.proc, &mut ctx)
        };
        Some((r, actions))
    }

    /// Returns the action buffer after it was applied, cleared for reuse.
    #[inline]
    pub fn give_back(&mut self, mut buf: Vec<Action<P::Msg>>) {
        buf.clear();
        self.scratch = buf;
    }

    /// Books a message leaving `from` for `to` and traces its `NetSend`.
    /// Returns the wire id (the `NetSend` seq, 0 untraced) that its
    /// delivery or drop carries.
    #[inline]
    pub fn book_send(&mut self, from: Pid, to: Pid, bytes: usize, cause: Option<u64>) -> u64 {
        self.stats.record_send(from, to, bytes);
        self.trace(from, cause, TraceKind::NetSend { to: to.0, bytes: bytes as u64 })
    }

    /// Books a message to `to` as lost; traced when its send was (`wire > 0`).
    #[inline]
    pub fn book_drop(&mut self, from: Pid, to: Pid, wire: u64) {
        self.stats.record_drop(to);
        if wire > 0 {
            self.trace(from, Some(wire), TraceKind::NetDrop { to: to.0, send: wire });
        }
    }

    /// The delivery gate: a message sent to life `inc` of `to` reaches only
    /// that life. A dead or unknown destination is a drop; another
    /// incarnation a stale drop (traced `StaleDrop`), so a restart never
    /// resurrects zombie state.
    #[inline]
    pub fn admit(&mut self, from: Pid, to: Pid, wire: u64, inc: u32) -> bool {
        match self.slot(to).map(|s| (s.alive, s.incarnation)) {
            Some((true, cur)) if cur == inc => true,
            Some((true, _)) => {
                self.stats.record_stale_drop(to);
                if wire > 0 {
                    let kind = TraceKind::StaleDrop {
                        to: to.0,
                        incarnation: u64::from(inc),
                        send: wire,
                    };
                    self.trace(from, Some(wire), kind);
                }
                false
            }
            _ => {
                self.book_drop(from, to, wire);
                false
            }
        }
    }

    /// Books an admitted delivery and traces its `NetDeliver`, returning
    /// the cause to run `on_message` under.
    #[inline]
    pub fn book_delivery(&mut self, from: Pid, to: Pid, wire: u64) -> Option<u64> {
        self.stats.record_delivery(to);
        let kind = TraceKind::NetDeliver { from: from.0, send: wire };
        self.tracing().then(|| self.trace(to, (wire > 0).then_some(wire), kind))
    }

    /// Records timer `id` as armed by `pid`; returns the incarnation to
    /// hand back to [`Endpoint::fire`].
    #[inline]
    pub fn arm(&mut self, pid: Pid, id: TimerId) -> u32 {
        let slot = self.slot_mut(pid).expect("unknown pid");
        // Per-process ids are handed out monotonically, so this is a push.
        debug_assert!(slot.armed.last().is_none_or(|&last| last < id));
        slot.armed.push(id);
        slot.incarnation
    }

    /// Cancels timer `id`, found through its owner prefix; an unknown,
    /// fired or cancelled id is a no-op.
    #[inline]
    pub fn disarm(&mut self, id: TimerId) {
        let owner = Pid(((id.0 >> 32) as u32).wrapping_sub(1));
        if let Some(slot) = self.slot_mut(owner) {
            if let Ok(i) = slot.armed.binary_search(&id) {
                slot.armed.remove(i);
            }
        }
    }

    /// Judges timer `id` of `pid`, armed under incarnation `inc`, at its
    /// deadline: it leaves the armed set, and fires (traced `TimerFire`)
    /// only into the same, live life.
    #[inline]
    pub fn fire(&mut self, pid: Pid, id: TimerId, kind: u32, inc: u32) -> TimerFate {
        let Some(slot) = self.slot_mut(pid) else {
            return TimerFate::Cancelled;
        };
        match slot.armed.binary_search(&id) {
            Ok(i) => {
                slot.armed.remove(i);
            }
            Err(_) => return TimerFate::Cancelled,
        }
        if !slot.alive || slot.incarnation != inc {
            return TimerFate::Stale;
        }
        let kind = TraceKind::TimerFire { kind: u64::from(kind) };
        TimerFate::Fire(self.tracing().then(|| self.trace(pid, None, kind)))
    }

    /// Marks `pid` dead and traces `how` (`Crash` or `Halt`) once; a dead
    /// or unknown pid is a no-op. Returns whether it was alive.
    pub fn kill(&mut self, pid: Pid, cause: Option<u64>, how: TraceKind) -> bool {
        let Some(slot) = self.slot_mut(pid).filter(|s| s.alive) else {
            return false;
        };
        slot.alive = false;
        self.trace(pid, cause, how);
        true
    }

    /// Revives a dead `pid` with fresh state `p` under the next incarnation
    /// and traces the `Restart`; `None` (a no-op) if `pid` is alive.
    pub(crate) fn revive(&mut self, pid: Pid, p: P) -> Option<u32> {
        let slot = self.slot_mut(pid).expect("unknown pid");
        if slot.alive {
            return None;
        }
        slot.proc = p;
        slot.alive = true;
        slot.incarnation += 1;
        let inc = slot.incarnation;
        self.trace(pid, None, TraceKind::Restart { incarnation: u64::from(inc) });
        Some(inc)
    }
}

/// Effect context passed to every process callback.
///
/// Effects are buffered and applied by the hosting backend after the
/// callback returns, so a callback observes a consistent snapshot of the
/// world. The action buffer is owned by the [`Endpoint`] and reused across
/// callbacks, so buffering an effect does not allocate in steady state.
pub struct Ctx<'a, M> {
    now: SimTime,
    me: Pid,
    incarnation: u32,
    rng: &'a mut DetRng,
    stats: &'a mut Stats,
    obs: &'a mut ObservationLog,
    next_timer: &'a mut u64,
    actions: &'a mut Vec<Action<M>>,
    tracer: Option<&'a mut Tracer>,
    /// Trace seq of the event (delivery, timer) that triggered this
    /// callback; threaded as the `cause` of everything it records.
    cause: Option<u64>,
}

impl<'a, M> Ctx<'a, M> {
    /// The current time on the hosting backend's clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The pid of the process being called.
    pub fn me(&self) -> Pid {
        self.me
    }

    /// This process's incarnation number: 0 in its first life, bumped on
    /// every restart. A recovering process (incarnation > 0) uses this to
    /// tell a rejoin from a first join.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Sends `msg` to `to`. Delivery is asynchronous and may fail if the
    /// network drops the message or `to` crashes first.
    pub fn send(&mut self, to: Pid, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends `msg` to every pid in `dsts` (a convenience multicast; each
    /// destination counts as one message, exactly as the paper counts them).
    /// The payload is shared across destinations rather than cloned per
    /// destination; a receiver only pays a clone when it is not the last
    /// holder of the shared envelope.
    pub fn multicast(&mut self, dsts: impl IntoIterator<Item = Pid>, msg: M) {
        let dsts: Vec<Pid> = dsts.into_iter().collect();
        if dsts.is_empty() {
            return;
        }
        self.actions.push(Action::Multicast { dsts, msg });
    }

    /// Arms a timer that fires after `delay` with the caller-chosen `kind`
    /// discriminator. Returns a handle usable with [`Ctx::cancel_timer`].
    /// Ids count per process under a `(pid + 1) << 32` prefix, so an id
    /// names its owner and depends only on the owner's execution order.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u32) -> TimerId {
        let id = TimerId(((u64::from(self.me.0) + 1) << 32) | *self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer {
            id,
            kind,
            at: self.now + delay,
        });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }

    /// Halts the calling process (a voluntary, silent stop — used to model a
    /// process leaving the system without protocol-level goodbye).
    pub fn halt(&mut self) {
        self.actions.push(Action::Halt);
    }

    /// Deterministic randomness for protocol-level choices.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Emits a labelled observation for the harness. Labels are static so
    /// emission never allocates.
    pub fn observe(&mut self, label: &'static str, value: f64) {
        self.obs.push(Observation {
            at: self.now,
            by: self.me,
            label,
            value,
        });
    }

    /// Registers (or looks up) a named counter, returning a dense handle.
    /// Hot paths resolve the id once and bump through [`Ctx::bump_id`].
    pub fn counter_id(&mut self, name: &'static str) -> CounterId {
        self.stats.counter_id(name)
    }

    /// Registers (or looks up) a named series, returning a dense handle.
    pub fn series_id(&mut self, name: &'static str) -> SeriesId {
        self.stats.series_id(name)
    }

    /// Adds one to an interned counter — a single array index.
    #[inline]
    pub fn bump_id(&mut self, id: CounterId) {
        self.stats.bump_id(id);
    }

    /// Adds `n` to an interned counter — a single array index.
    #[inline]
    pub fn bump_id_by(&mut self, id: CounterId, n: u64) {
        self.stats.bump_id_by(id, n);
    }

    /// Records a sample in an interned series — a single array index.
    #[inline]
    pub fn sample_id(&mut self, id: SeriesId, v: f64) {
        self.stats.sample_id(id, v);
    }

    /// Adds one to a named global counter (interned on first use).
    pub fn bump(&mut self, name: &'static str) {
        self.stats.bump(name);
    }

    /// Records a sample in a named global series (interned on first use).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.stats.sample(name, v);
    }

    /// Records a duration sample (milliseconds) in a named global series.
    pub fn sample_duration(&mut self, name: &'static str, d: SimDuration) {
        self.stats.sample_duration(name, d);
    }

    /// Whether a tracer is attached. Protocol layers may use this to skip
    /// building expensive event payloads when tracing is off.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records a trace event, lazily built by `f` only when tracing is on.
    /// The event is stamped with the current time, this pid, and the causal
    /// link to the delivery/timer that triggered this callback. Returns the
    /// event's seq (0 when tracing is off).
    pub fn trace_with(&mut self, f: impl FnOnce() -> now_trace::EventKind) -> u64 {
        match self.tracer.as_deref_mut() {
            Some(tr) => tr.record(self.now.as_micros(), self.me.0, self.cause, f()),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that does nothing on its own; tests drive it by `run`.
    struct Idle;

    impl Process for Idle {
        type Msg = u32;

        fn on_message(&mut self, _from: Pid, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}
    }

    /// Runs one callback on `pid` that arms `n` timers; returns their ids.
    fn arm_ids<const N: usize>(ep: &mut Endpoint<Idle>, pid: Pid) -> [TimerId; N] {
        let (ids, a) = ep
            .run(pid, None, |_, ctx| [(); N].map(|()| ctx.set_timer(SimDuration::ZERO, 0)))
            .expect("alive");
        ep.give_back(a);
        ids
    }

    #[test]
    fn endpoint_runs_callbacks_and_dispatch_preserves_order() {
        let mut ep: Endpoint<Idle> = Endpoint::new(9);
        let me = Pid(3);
        ep.host(me, NodeId(0), Idle);
        ep.set_now(SimTime(50));
        let (got, actions) = ep
            .run(me, None, |_, ctx| {
                assert_eq!(ctx.me(), me);
                assert_eq!(ctx.now(), SimTime(50));
                ctx.send(Pid(4), 1);
                let t = ctx.set_timer(SimDuration::from_millis(1), 7);
                ctx.multicast([Pid(5), Pid(6)], 2);
                ctx.cancel_timer(t);
                ctx.halt();
                42
            })
            .expect("a hosted process runs");
        assert_eq!(got, 42);
        // The backend applies the returned buffer front to back, so the
        // buffer order is the order the effects take.
        assert!(matches!(
            actions[..],
            [Action::Send { .. }, Action::SetTimer { .. }, Action::Multicast { .. },
             Action::CancelTimer(_), Action::Halt]
        ));
        ep.give_back(actions);
        // Pids that are not hosted, or no longer alive, never run.
        assert!(ep.run(Pid(0), None, |_, _| ()).is_none());
        assert!(ep.kill(me, None, TraceKind::Halt));
        assert!(ep.run(me, None, |_, _| ()).is_none());
    }

    #[test]
    fn endpoint_scratch_buffer_is_reused() {
        let mut ep: Endpoint<Idle> = Endpoint::new(1);
        ep.host(Pid(0), NodeId(0), Idle);
        let (_, a) = ep
            .run(Pid(0), None, |_, ctx| {
                for i in 0..16 {
                    ctx.send(Pid(1), i);
                }
            })
            .expect("alive");
        let cap = a.capacity();
        ep.give_back(a);
        let (_, b) = ep.run(Pid(0), None, |_, ctx| ctx.send(Pid(1), 1)).expect("alive");
        assert_eq!(b.capacity(), cap, "scratch buffer must round-trip");
        assert_eq!(b.len(), 1, "give_back clears the buffer");
        ep.give_back(b);
    }

    #[test]
    fn endpoint_timer_ids_are_monotonic_across_callbacks() {
        let mut ep: Endpoint<Idle> = Endpoint::new(1);
        ep.host(Pid(0), NodeId(0), Idle);
        ep.host(Pid(7), NodeId(0), Idle);
        let [t1] = arm_ids(&mut ep, Pid(0));
        let [t2] = arm_ids(&mut ep, Pid(7));
        let [t3] = arm_ids(&mut ep, Pid(0));
        assert!(t2 > t1, "timer ids must never repeat across processes");
        assert!(t3 > t1, "a process's ids keep counting across callbacks");
        assert_ne!(t3, t2);
    }

    #[test]
    fn timer_base_prefixes_allocated_ids() {
        // Ids come from a per-process counter under a (pid + 1) << 32
        // prefix; the prefix never disturbs the counter's low bits.
        let mut ep: Endpoint<Idle> = Endpoint::new(0);
        ep.host(Pid(0), NodeId(0), Idle);
        ep.host(Pid(3), NodeId(0), Idle);
        let base = (3u64 + 1) << 32;
        let [a, b] = arm_ids(&mut ep, Pid(3));
        let [z] = arm_ids(&mut ep, Pid(0));
        let [c] = arm_ids(&mut ep, Pid(3));
        assert_eq!((a, b, c), (TimerId(base), TimerId(base | 1), TimerId(base | 2)));
        assert_eq!(z, TimerId(1 << 32));
    }

    #[test]
    fn endpoint_timer_ids_name_their_owner() {
        let mut ep: Endpoint<Idle> = Endpoint::new(1);
        ep.host(Pid(0), NodeId(0), Idle);
        ep.host(Pid(3), NodeId(0), Idle);
        let [a, b] = arm_ids(&mut ep, Pid(3));
        let [z] = arm_ids(&mut ep, Pid(0));
        let inc = ep.arm(Pid(3), a);
        ep.arm(Pid(3), b);
        ep.arm(Pid(0), z);
        assert_eq!(ep.armed_timers(), 3);
        ep.disarm(b); // found through the id's prefix, not a pid argument
        ep.disarm(b); // a second cancel is a no-op
        assert_eq!(ep.fire(Pid(3), b, 0, inc), TimerFate::Cancelled);
        assert_eq!(ep.fire(Pid(3), a, 0, inc), TimerFate::Fire(None));
        assert_eq!(ep.fire(Pid(3), a, 0, inc), TimerFate::Cancelled, "fires once");
        // A timer whose owner died leaves the armed set without firing.
        ep.kill(Pid(0), None, TraceKind::Crash);
        assert_eq!(ep.fire(Pid(0), z, 0, 0), TimerFate::Stale);
        assert_eq!(ep.armed_timers(), 0);
    }

    #[test]
    fn endpoint_stats_and_observations_flow_through_ctx() {
        let mut ep: Endpoint<Idle> = Endpoint::new(2);
        ep.host(Pid(1), NodeId(0), Idle);
        ep.set_now(SimTime(7));
        let (_, a) = ep
            .run(Pid(1), None, |_, ctx| {
                ctx.bump("x.count");
                ctx.observe("y", 1.5);
            })
            .expect("alive");
        ep.give_back(a);
        assert_eq!(ep.stats().counter("x.count"), 1);
        assert_eq!(ep.observations().all().len(), 1);
    }
}
