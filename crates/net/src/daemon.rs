//! The daemon: many [`Process`] instances in one OS process, real sockets
//! between daemons.
//!
//! One daemon is a small thread ensemble around a single-threaded core:
//!
//! - the **core thread** owns the [`Endpoint`] that hosts every process
//!   here, the timer map, and the routing table. All protocol callbacks run
//!   here, so a process never sees concurrency — exactly the execution
//!   model the sim provides, minus determinism;
//! - an **accept thread** takes inbound connections and hands each to a
//!   **reader thread**, which reassembles frames, enforces the session's
//!   monotonic wire sequence, decodes payloads, and forwards them to the
//!   core over a channel;
//! - one **writer thread per peer daemon** owns the outgoing connection,
//!   dialing with exponential backoff and reconnecting (with a fresh
//!   `Hello`) whenever the peer drops.
//!
//! This shape — one owning core, message-passing satellites, shared
//! flags only as `Arc`-wrapped atomics — is a lintable contract: rule R9
//! (`crates/net/clippy.toml`) bans locks and interior-mutability cells
//! across `crates/net`, so cross-thread mutable state cannot flow outside
//! the channels and declared atomics you see in this file.
//!
//! The core hosts processes through the same [`Endpoint`] as the simulator,
//! which books every send, delivery, drop, timer and halt; the core only
//! carries messages. A `Send` to a pid hosted here is a local queue push; a
//! `Send` to a remote pid is one encoded frame on the destination daemon's
//! writer channel. Timers are a `BTreeMap` keyed by wall-clock deadline,
//! fired by the core between channel receives. The clock is microseconds
//! since a cluster-wide `Instant` epoch shared by every daemon of a run, so
//! merged trace timelines are comparable.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use now_sim::trace::EventKind as TraceKind;
use now_sim::{Action, Ctx, Endpoint, NodeId, Pid, Process, SimTime, TimerFate, TimerId};

use crate::codec::{encode_frame, Frame, FrameBuf};
use crate::wire::{decode_msg, encode_msg, Wire};

/// Where a daemon listens: a unix socket path or a loopback TCP address.
#[derive(Clone, Debug)]
pub enum Addr {
    /// Unix domain socket (the default for local clusters: no ports to
    /// collide, the file namespace scopes the run).
    Unix(PathBuf),
    /// TCP socket, expected to be loopback.
    Tcp(SocketAddr),
}

impl Addr {
    fn bind(&self) -> io::Result<AnyListener> {
        match self {
            Addr::Unix(path) => {
                // A stale socket file from a dead run blocks bind; it
                // cannot belong to a live daemon of *this* run, which
                // picks fresh paths.
                let _ = std::fs::remove_file(path);
                Ok(AnyListener::Unix(UnixListener::bind(path)?))
            }
            Addr::Tcp(addr) => Ok(AnyListener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    fn connect(&self) -> io::Result<Box<dyn StreamIo>> {
        match self {
            Addr::Unix(path) => Ok(Box::new(UnixStream::connect(path)?)),
            Addr::Tcp(addr) => Ok(Box::new(TcpStream::connect(addr)?)),
        }
    }

    /// Removes a unix socket file; no-op for TCP.
    pub fn cleanup(&self) {
        if let Addr::Unix(path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

trait StreamIo: Read + Write + Send {}
impl StreamIo for UnixStream {}
impl StreamIo for TcpStream {}

enum AnyListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl AnyListener {
    fn accept(&self) -> io::Result<Box<dyn StreamIo>> {
        match self {
            AnyListener::Unix(l) => Ok(Box::new(l.accept()?.0)),
            AnyListener::Tcp(l) => Ok(Box::new(l.accept()?.0)),
        }
    }
}

/// Static description of one daemon's place in a cluster.
#[derive(Clone)]
pub struct DaemonConfig {
    /// This daemon's index into `addrs`.
    pub index: u32,
    /// Listen address of every daemon in the cluster, by index.
    pub addrs: Vec<Addr>,
    /// `routing[pid.0]` = index of the daemon hosting that pid.
    pub routing: Arc<Vec<u32>>,
    /// Cluster-wide clock epoch; all daemons of a run share one `Instant`
    /// so their microsecond timestamps are mutually comparable.
    pub epoch: Instant,
    /// Seed for the endpoint's deterministic RNG streams, one per hosted
    /// pid (protocol-level random choices stay seeded even on the real
    /// backend).
    pub seed: u64,
}

/// A control closure run on the core thread (harness invocations, state
/// queries, tracer extraction).
type CtlFn<P> = Box<dyn FnOnce(&mut DaemonCore<P>) + Send>;

enum Incoming<P: Process> {
    /// A decoded message off a peer session, already validated.
    Net { from: Pid, to: Pid, msg: P::Msg },
    /// See [`CtlFn`].
    Ctl(CtlFn<P>),
    /// Exit the core loop.
    Shutdown,
}

/// The single-threaded heart of a daemon: the [`Endpoint`] hosting every
/// process here, plus what only a socket backend has — routing, writer
/// channels and a wall-clock timer map. Lives on the core thread; reachable
/// from outside only through [`Daemon::with_core`] closures.
pub struct DaemonCore<P: Process> {
    index: u32,
    epoch: Instant,
    routing: Arc<Vec<u32>>,
    ep: Endpoint<P>,
    /// Per-peer outgoing frame channels (None at our own slot).
    peers: Vec<Option<Sender<Vec<u8>>>>,
    /// Next outgoing wire seq per peer session.
    peer_seq: Vec<u64>,
    /// Timers by deadline: (deadline µs, timer id) → (owner pid, kind,
    /// owner incarnation). Cancelled entries stay until their deadline,
    /// when [`Endpoint::fire`] judges them.
    timers: BTreeMap<(u64, u64), (Pid, u32, u32)>,
    /// Same-daemon deliveries awaiting the next loop turn:
    /// (from, to, message, wire id, destination incarnation).
    local_q: VecDeque<(Pid, Pid, P::Msg, u64, u32)>,
}

impl<P: Process> DaemonCore<P>
where
    P::Msg: Wire,
{
    /// Advances the endpoint clock to wall time (µs since the cluster
    /// epoch). Never moves backwards.
    fn refresh_clock(&mut self) {
        let t = SimTime(self.epoch.elapsed().as_micros() as u64);
        if t > self.ep.now() {
            self.ep.set_now(t);
        }
    }

    /// The hosted process for `pid`, if alive here.
    pub fn proc(&self, pid: Pid) -> Option<&P> {
        self.ep.process(pid).filter(|_| self.ep.is_alive(pid))
    }

    /// The process host (stats, observations, tracer).
    pub fn endpoint(&self) -> &Endpoint<P> {
        &self.ep
    }

    /// Mutable endpoint access (attach/extract tracers, reset stats).
    pub fn endpoint_mut(&mut self) -> &mut Endpoint<P> {
        &mut self.ep
    }

    /// Runs `f` against the hosted process `pid` under a live [`Ctx`],
    /// applying its buffered effects — the daemon-side mirror of
    /// `Sim::invoke`. Returns `None` when `pid` is not alive here.
    pub fn invoke<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        self.refresh_clock();
        let r = self.call(pid, None, f);
        self.drain_local();
        r
    }

    /// Runs one callback through the endpoint and applies its actions.
    fn call<R>(
        &mut self,
        pid: Pid,
        cause: Option<u64>,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        let (r, mut actions) = self.ep.run(pid, cause, f)?;
        for a in actions.drain(..) {
            self.apply(pid, a, cause);
        }
        self.ep.give_back(actions);
        Some(r)
    }

    /// Interprets one action emitted by `from`: a send to a pid hosted here
    /// is a local queue push, a send to a remote pid one encoded frame on
    /// the destination daemon's writer channel; timers go into the
    /// wall-clock map.
    fn apply(&mut self, from: Pid, action: Action<P::Msg>, cause: Option<u64>) {
        match action {
            Action::Send { to, msg } => self.send_one(from, to, msg, cause),
            Action::Multicast { dsts, msg } => {
                for to in dsts {
                    self.send_one(from, to, msg.clone(), cause);
                }
            }
            Action::SetTimer { id, kind, at } => {
                let inc = self.ep.arm(from, id);
                self.timers.insert((at.as_micros(), id.0), (from, kind, inc));
            }
            Action::CancelTimer(id) => self.ep.disarm(id),
            Action::Halt => {
                self.ep.kill(from, cause, TraceKind::Halt);
            }
        }
    }

    fn send_one(&mut self, from: Pid, to: Pid, msg: P::Msg, cause: Option<u64>) {
        let wire = self.ep.book_send(from, to, P::wire_size(&msg), cause);
        match self.routing.get(to.0 as usize).copied() {
            Some(d) if d == self.index => {
                let inc = self.ep.incarnation(to);
                self.local_q.push_back((from, to, msg, wire, inc));
            }
            Some(d) => {
                let payload = encode_msg(&msg);
                let d = d as usize;
                self.peer_seq[d] += 1;
                let mut frame = Vec::with_capacity(payload.len() + 28);
                encode_frame(
                    &Frame::Data {
                        seq: self.peer_seq[d],
                        from: from.0,
                        to: to.0,
                        payload,
                    },
                    &mut frame,
                );
                let sent = self.peers[d]
                    .as_ref()
                    .is_some_and(|tx| tx.send(frame).is_ok());
                if !sent {
                    self.ep.book_drop(from, to, wire);
                }
            }
            None => self.ep.book_drop(from, to, wire),
        }
    }

    /// Delivers one message to a pid hosted here, through the endpoint's
    /// incarnation gate. `wire` is the local `NetSend` seq; 0 for a message
    /// off the wire, whose send event lives in the origin daemon's trace.
    fn deliver(&mut self, from: Pid, to: Pid, msg: P::Msg, wire: u64, inc: u32) {
        self.refresh_clock();
        if !self.ep.admit(from, to, wire, inc) {
            return;
        }
        let cause = self.ep.book_delivery(from, to, wire);
        self.call(to, cause, |p, ctx| p.on_message(from, msg, ctx));
    }

    fn drain_local(&mut self) {
        while let Some((from, to, msg, wire, inc)) = self.local_q.pop_front() {
            self.deliver(from, to, msg, wire, inc);
        }
    }

    /// Fires every timer whose deadline has passed.
    fn fire_due_timers(&mut self) {
        loop {
            self.refresh_clock();
            let now_us = self.ep.now().as_micros();
            let Some((&(at, tid), &(pid, kind, inc))) = self.timers.first_key_value() else {
                return;
            };
            if at > now_us {
                return;
            }
            self.timers.remove(&(at, tid));
            let id = TimerId(tid);
            if let TimerFate::Fire(cause) = self.ep.fire(pid, id, kind, inc) {
                self.call(pid, cause, |p, ctx| p.on_timer(id, kind, ctx));
                self.drain_local();
            }
        }
    }

    /// How long the core may block waiting for input before a timer is due.
    fn idle_timeout(&mut self) -> Duration {
        const MAX_IDLE: Duration = Duration::from_millis(25);
        self.refresh_clock();
        let now_us = self.ep.now().as_micros();
        match self.timers.first_key_value() {
            Some((&(at, _), _)) if at <= now_us => Duration::ZERO,
            Some((&(at, _), _)) => Duration::from_micros(at - now_us).min(MAX_IDLE),
            None => MAX_IDLE,
        }
    }
}

/// Handle to a running daemon (threads + control channel). Dropping it
/// without [`Daemon::shutdown`] aborts the threads ungracefully; prefer an
/// explicit shutdown.
pub struct Daemon<P: Process> {
    addr: Addr,
    tx: Sender<Incoming<P>>,
    core: Option<JoinHandle<()>>,
    listener: Option<JoinHandle<()>>,
    writers: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl<P: Process + Send> Daemon<P>
where
    P::Msg: Wire + Send,
{
    /// Binds the listen socket, spawns the thread ensemble, and boots the
    /// given processes (each gets its `on_start` on the core thread).
    pub fn spawn(cfg: DaemonConfig, procs: Vec<(Pid, P)>) -> io::Result<Daemon<P>> {
        let index = cfg.index;
        let addr = cfg.addrs[index as usize].clone();
        let listener = addr.bind()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Incoming<P>>();

        let mut peers: Vec<Option<Sender<Vec<u8>>>> = Vec::new();
        let mut writers = Vec::new();
        for (d, peer_addr) in cfg.addrs.iter().enumerate() {
            if d as u32 == index {
                peers.push(None);
                continue;
            }
            let (wtx, wrx) = mpsc::channel::<Vec<u8>>();
            peers.push(Some(wtx));
            let peer_addr = peer_addr.clone();
            let flag = Arc::clone(&shutdown);
            let peer_index = d as u32;
            writers.push(thread::spawn(move || {
                writer_loop(peer_addr, index, peer_index, wrx, flag)
            }));
        }

        let accept_tx = tx.clone();
        let accept_flag = Arc::clone(&shutdown);
        let listener_thread =
            thread::spawn(move || accept_loop::<P>(listener, accept_tx, accept_flag));

        let n_daemons = cfg.addrs.len();
        let core_thread = thread::spawn(move || {
            let mut core = DaemonCore {
                index,
                epoch: cfg.epoch,
                routing: cfg.routing,
                ep: Endpoint::new(cfg.seed),
                peers,
                peer_seq: vec![0; n_daemons],
                timers: BTreeMap::new(),
                local_q: VecDeque::new(),
            };
            for (pid, p) in procs {
                core.refresh_clock();
                core.ep.host(pid, NodeId(index), p);
                core.call(pid, None, |p, ctx| p.on_start(ctx));
            }
            core.drain_local();
            loop {
                core.fire_due_timers();
                core.drain_local();
                let timeout = core.idle_timeout();
                match rx.recv_timeout(timeout) {
                    Ok(Incoming::Net { from, to, msg }) => {
                        let inc = core.ep.incarnation(to);
                        core.deliver(from, to, msg, 0, inc);
                        core.drain_local();
                    }
                    Ok(Incoming::Ctl(f)) => f(&mut core),
                    Ok(Incoming::Shutdown) => break,
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // Core (and with it every outgoing channel sender) drops here,
            // which is what lets the writer threads exit.
        });

        Ok(Daemon {
            addr,
            tx,
            core: Some(core_thread),
            listener: Some(listener_thread),
            writers,
            shutdown,
        })
    }

    /// Runs `f` on the core thread and returns its result; `None` if the
    /// daemon already shut down.
    pub fn with_core<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut DaemonCore<P>) -> R + Send + 'static,
    ) -> Option<R> {
        let (rtx, rrx) = mpsc::channel();
        self.tx
            .send(Incoming::Ctl(Box::new(move |core| {
                let _ = rtx.send(f(core));
            })))
            .ok()?;
        rrx.recv().ok()
    }

    /// Invokes a callback on a hosted process under a live [`Ctx`], like
    /// `Sim::invoke` (the harness entry point for joins, casts, queries).
    pub fn invoke<R: Send + 'static>(
        &self,
        pid: Pid,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R + Send + 'static,
    ) -> Option<R> {
        self.with_core(move |core| core.invoke(pid, f)).flatten()
    }

    /// Stops the thread ensemble and removes the unix socket file. Must be
    /// called from outside the core thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.tx.send(Incoming::Shutdown);
        if let Some(h) = self.core.take() {
            let _ = h.join();
        }
        // The accept loop is blocked in accept(); a throwaway connection
        // unblocks it so it can observe the flag and exit.
        let _ = self.addr.connect();
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for h in self.writers.drain(..) {
            let _ = h.join();
        }
        self.addr.cleanup();
    }
}

impl<P: Process> Drop for Daemon<P> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.tx.send(Incoming::Shutdown);
        self.addr.cleanup();
    }
}

fn accept_loop<P: Process>(
    listener: AnyListener,
    tx: Sender<Incoming<P>>,
    shutdown: Arc<AtomicBool>,
) where
    P::Msg: Wire + Send,
{
    loop {
        match listener.accept() {
            Ok(conn) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let tx = tx.clone();
                thread::spawn(move || reader_loop::<P>(conn, tx));
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Reads one peer session: `Hello` preamble, then `Data` frames with a
/// strictly increasing wire seq. Any codec error or seq regression kills
/// the session (the peer's writer will redial).
fn reader_loop<P: Process>(mut conn: Box<dyn StreamIo>, tx: Sender<Incoming<P>>)
where
    P::Msg: Wire,
{
    let mut fb = FrameBuf::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut peer: Option<u32> = None;
    let mut last_seq = 0u64;
    loop {
        let n = match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        fb.extend(&buf[..n]);
        loop {
            match fb.next_frame() {
                Ok(None) => break,
                Ok(Some(Frame::Hello { daemon })) => {
                    if peer.replace(daemon).is_some() {
                        // A second Hello on one session is a peer bug.
                        return;
                    }
                }
                Ok(Some(Frame::Data {
                    seq,
                    from,
                    to,
                    payload,
                })) => {
                    if peer.is_none() || seq <= last_seq {
                        return;
                    }
                    last_seq = seq;
                    let Ok(msg) = decode_msg::<P::Msg>(&payload) else {
                        return;
                    };
                    if tx
                        .send(Incoming::Net {
                            from: Pid(from),
                            to: Pid(to),
                            msg,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }
}

/// Owns the outgoing connection to one peer: dial with exponential backoff,
/// announce ourselves, then stream frames; on any write error, reconnect
/// and resume with the frame that failed.
fn writer_loop(
    addr: Addr,
    my_index: u32,
    peer_index: u32,
    rx: Receiver<Vec<u8>>,
    shutdown: Arc<AtomicBool>,
) {
    const BACKOFF_START: Duration = Duration::from_millis(10);
    const BACKOFF_CAP: Duration = Duration::from_secs(1);
    let mut pending: Option<Vec<u8>> = None;
    let mut attempt = 0u64;
    'session: loop {
        let mut backoff = BACKOFF_START;
        let mut conn = loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match addr.connect() {
                Ok(c) => break c,
                Err(_) => {
                    attempt += 1;
                    thread::sleep(jittered(backoff, my_index, peer_index, attempt));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        };
        let mut hello = Vec::new();
        encode_frame(&Frame::Hello { daemon: my_index }, &mut hello);
        if conn.write_all(&hello).is_err() {
            continue 'session;
        }
        loop {
            let frame = match pending.take() {
                Some(f) => f,
                None => match rx.recv() {
                    Ok(f) => f,
                    Err(_) => return,
                },
            };
            if conn.write_all(&frame).is_err() {
                pending = Some(frame);
                continue 'session;
            }
        }
    }
}

/// Backoff with deterministic per-peer jitter: an FNV-1a hash of (dialer,
/// peer, attempt) spreads each delay over `[base, base * 1.5)`, so after a
/// daemon outage its whole fleet of dialers does not double 10ms → 1s in
/// lockstep and stampede the recovering listener. Pure function of the
/// triple — no wall-clock randomness, so redial schedules are replayable.
fn jittered(base: Duration, me: u32, peer: u32, attempt: u64) -> Duration {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in me
        .to_le_bytes()
        .into_iter()
        .chain(peer.to_le_bytes())
        .chain(attempt.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let frac = u32::from((h >> 32) as u8); // 0..=255 of well-mixed bits
    base + base * frac / 512
}

#[cfg(test)]
mod backoff_tests {
    use super::jittered;
    use std::time::Duration;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(40);
        for me in 0..4u32 {
            for peer in 0..4u32 {
                for attempt in 1..6u64 {
                    let d = jittered(base, me, peer, attempt);
                    assert_eq!(d, jittered(base, me, peer, attempt), "pure function");
                    assert!(d >= base, "never shorter than the base delay");
                    assert!(d < base + base / 2, "at most +50%: {d:?}");
                }
            }
        }
    }

    #[test]
    fn peers_decorrelate_instead_of_herding() {
        // Across a 16-dialer fleet hitting the same recovering daemon, the
        // first-retry delays must not all collapse onto one instant.
        let base = Duration::from_millis(10);
        let delays: std::collections::BTreeSet<Duration> =
            (0..16u32).map(|me| jittered(base, me, 99, 1)).collect();
        assert!(
            delays.len() >= 8,
            "thundering herd: only {} distinct delays across 16 dialers",
            delays.len()
        );
    }
}
