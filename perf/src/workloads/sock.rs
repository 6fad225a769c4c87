//! `sock-feed`: a quote feed through the hierarchy over real sockets —
//! 32 analysts and 3 leaders spread over 2 `Daemon`s on unix sockets,
//! default `IsisConfig`.
//!
//! The load is a **closed loop**: the one driver thread keeps `WINDOW`
//! quotes outstanding and submits the next when one completes. (An open
//! feed past the service rate never drains and grows memory without bound,
//! which is not a repeatable measurement; the `net.paced200.*` probes run
//! the open loop at a rate well below it.) A quote completes when the last
//! analyst delivers it: the bench-owned business layer counts deliveries
//! per quote in shared atomics and the last one signals the driver over a
//! channel, so the driver never polls a daemon during the timed section.
//!
//! Set-up boots the daemons and forms the group. The seed feeds the
//! daemons' protocol RNG streams and picks the symbols and prices; timing
//! on this substrate is the host's, not the seed's. Socket files live in a
//! directory of this run under the working directory and are removed with
//! it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use now_net::wire::{Wire, WireReader};
use now_net::{Addr, CodecError, Daemon, DaemonConfig};
use now_sim::trace::{Monitors, TraceEvent, Tracer};
use now_sim::Pid;

use isis_core::{IsisConfig, IsisProcess};
use isis_hier::{HierApp, LargeApp, LargeGroupConfig, LargeGroupId, LargeUplink};

use crate::meter::{Meter, OneCpu};

use super::{delivery_failures, fold_order, Scale, UnitOut, Workload, ORDER_SEED};

const LGID: LargeGroupId = LargeGroupId(1);

/// Quotes the closed loop keeps outstanding.
pub const WINDOW: usize = 4;

/// One quote on the wire.
#[derive(Clone, Debug)]
pub struct WireQuote {
    /// 0-based index in the feed.
    pub seq: u64,
    /// Instrument.
    pub symbol: u32,
    /// Price in cents.
    pub price: u32,
}

impl Wire for WireQuote {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.symbol.encode(out);
        self.price.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(WireQuote {
            seq: u64::decode(r)?,
            symbol: u32::decode(r)?,
            price: u32::decode(r)?,
        })
    }
}

/// Delivery counts per quote, shared by every analyst of a run; the analyst
/// whose delivery completes a quote reports it.
pub struct Board {
    analysts: u32,
    seen: Vec<AtomicU32>,
    done: Sender<(u64, Instant)>,
}

/// The business layer of every hosted process: logs its deliveries and
/// marks them on the board.
pub struct Analyst {
    board: Arc<Board>,
    /// `(count, sum of seq + 1, order hash)`, read back after the run.
    log: (u64, u64, u64),
}

impl LargeApp for Analyst {
    type Payload = WireQuote;
    type LeafState = u64;

    fn on_lbcast(
        &mut self,
        _: LargeGroupId,
        _: Pid,
        q: &WireQuote,
        _: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.log = (
            self.log.0 + 1,
            self.log.1 + q.seq + 1,
            fold_order(self.log.2, q.seq),
        );
        let Some(slot) = self.board.seen.get(q.seq as usize) else {
            return;
        };
        // Relaxed: a tally; the completion itself travels over the channel.
        if slot.fetch_add(1, Ordering::Relaxed) + 1 == self.board.analysts {
            let _ = self.board.done.send((q.seq, Instant::now()));
        }
    }

    fn payload_bytes(_: &WireQuote) -> usize {
        16
    }
}

type Proc = IsisProcess<HierApp<Analyst>>;

/// Bookkeeping of the closed loop: which quotes are out, when they left.
pub struct Window {
    limit: usize,
    total: u64,
    next: u64,
    sent_at: Vec<Option<Instant>>,
    outstanding: usize,
}

impl Window {
    /// A loop over `total` quotes with at most `limit` outstanding.
    pub fn new(limit: usize, total: u64) -> Window {
        Window {
            limit,
            total,
            next: 0,
            sent_at: vec![None; total as usize],
            outstanding: 0,
        }
    }

    /// The next quote to submit, if the window has room and quotes remain.
    pub fn next_to_submit(&self) -> Option<u64> {
        (self.outstanding < self.limit && self.next < self.total).then_some(self.next)
    }

    /// Quote `seq` (the one `next_to_submit` named) left at `t`.
    pub fn submitted(&mut self, seq: u64, t: Instant) {
        assert_eq!(seq, self.next, "quotes leave in order");
        self.sent_at[seq as usize] = Some(t);
        self.next += 1;
        self.outstanding += 1;
    }

    /// Quote `seq` completed at `t`; returns its latency. A completion for
    /// a quote that is not outstanding (never sent, or already completed)
    /// is ignored.
    pub fn completed(&mut self, seq: u64, t: Instant) -> Option<Duration> {
        let sent = self.sent_at.get_mut(seq as usize)?.take()?;
        self.outstanding -= 1;
        Some(t.saturating_duration_since(sent))
    }

    /// Every quote was submitted and completed.
    pub fn finished(&self) -> bool {
        self.next == self.total && self.outstanding == 0
    }
}

/// The workload.
pub struct Feed {
    /// Analysts (large-group members).
    pub analysts: usize,
    /// Daemons the processes are spread over.
    pub daemons: usize,
    /// Quotes per unit.
    pub quotes: u64,
    /// Loopback TCP instead of unix sockets (the `net.tcp.*` probe).
    pub tcp: bool,
    /// Hierarchy shape; resiliency is the leader count.
    pub cfg: LargeGroupConfig,
}

impl Feed {
    /// The gated size, or a tenth of it.
    pub fn new(scale: Scale) -> Feed {
        Feed {
            analysts: 32,
            daemons: 2,
            quotes: scale.pick(1000, 100),
            tcp: false,
            cfg: LargeGroupConfig::new(3, 4),
        }
    }
}

/// Booted daemons with the group formed.
pub struct Cluster {
    daemons: Vec<Daemon<Proc>>,
    routing: Vec<u32>,
    members: Vec<Pid>,
    done: Receiver<(u64, Instant)>,
    seed: u64,
    traced: bool,
    /// Removed (with the socket files in it) when the cluster is dropped.
    sock_dir: Option<PathBuf>,
    /// Keeps the driver thread and the daemons' threads on one CPU.
    _one_cpu: OneCpu,
}

/// How long the timed section waits for one completion before giving up.
const PATIENCE: Duration = Duration::from_secs(60);

/// How long formation may take before the boot is abandoned: it needs tens
/// of milliseconds, and the retry timers that could still rescue it are at
/// most a second apart.
const FORM_PATIENCE: Duration = Duration::from_secs(5);

/// Boots tried before a run gives up. The feed is what this workload
/// measures, so a formation that does not converge (README, "Observations")
/// is reported on standard error, torn down and repeated.
const BOOT_ATTEMPTS: usize = 4;

impl Cluster {
    fn daemon_of(&self, pid: Pid) -> &Daemon<Proc> {
        &self.daemons[self.routing[pid.0 as usize] as usize]
    }

    /// Submits quote `seq` at the feed (member 0).
    pub fn submit(&self, seq: u64) {
        // Symbol and price from the seed: the inputs this substrate has.
        let mix = (self.seed ^ seq).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let q = WireQuote {
            seq,
            symbol: (mix >> 32) as u32 % 64,
            price: 10_000 + (mix % 997) as u32,
        };
        let feed = self.members[0];
        self.daemon_of(feed).invoke(feed, move |p, ctx| {
            p.with_app(ctx, move |app, up| {
                app.with_business(up, |_biz, lup| lup.lbcast(LGID, q));
            });
        });
    }

    /// The completion channel: `(seq, when its last analyst delivered it)`.
    pub fn completions(&self) -> &Receiver<(u64, Instant)> {
        &self.done
    }

    /// Starts every daemon's fan-out census and zeroes its message books;
    /// called once, when formation is done.
    fn open_books(&self) {
        for d in &self.daemons {
            d.with_core(|core| {
                core.endpoint_mut().stats_mut().enable_fanout_tracking();
                core.endpoint_mut().stats_mut().reset_window();
            });
        }
    }

    /// `(messages sent, max distinct destinations)` over all daemons since
    /// formation.
    fn books(&self) -> (u64, u64) {
        self.daemons
            .iter()
            .filter_map(|d| {
                d.with_core(|core| {
                    let s = core.endpoint().stats();
                    (s.messages_sent, s.max_distinct_destinations() as u64)
                })
            })
            .fold((0, 0), |(m, f), (dm, df)| (m + dm, f.max(df)))
    }

    /// Every analyst's `(count, sum, order)`.
    fn logs(&self) -> Vec<(u64, u64, u64)> {
        self.members
            .iter()
            .map(|&m| {
                self.daemon_of(m)
                    .invoke(m, |p, _| p.app().biz().log)
                    .unwrap_or((0, 0, ORDER_SEED))
            })
            .collect()
    }

    /// Detaches the daemons' tracers and merges their logs on the shared
    /// clock.
    fn merged_trace(&self) -> Vec<TraceEvent> {
        let mut merged: Vec<(u64, usize, TraceEvent)> = Vec::new();
        for (d, daemon) in self.daemons.iter().enumerate() {
            if let Some(Some(mut tr)) = daemon.with_core(|core| core.endpoint_mut().take_tracer()) {
                merged.extend(tr.drain_events().into_iter().map(|ev| (ev.at, d, ev)));
            }
        }
        merged.sort_by_key(|(at, d, ev)| (*at, *d, ev.seq));
        merged.into_iter().map(|(_, _, ev)| ev).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // `shutdown` joins every daemon thread and unlinks its socket.
        for d in self.daemons.drain(..) {
            d.shutdown();
        }
        if let Some(dir) = self.sock_dir.take() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Listen addresses for `daemons` daemons, and for unix sockets the
/// directory (created here) that holds them. `lane` keeps clusters that one
/// process boots for different purposes apart.
pub fn addrs(daemons: usize, tcp: bool, seed: u64, lane: u16) -> (Vec<Addr>, Option<PathBuf>) {
    let pid = std::process::id();
    if tcp {
        let base = 20_000 + ((u64::from(pid) * 131 + seed * 17) % 30_000) as u16 + lane * 16;
        let at = |d: usize| {
            Addr::Tcp(std::net::SocketAddr::from((
                [127, 0, 0, 1],
                base + d as u16,
            )))
        };
        ((0..daemons).map(at).collect(), None)
    } else {
        // Relative, so the path stays far below the 108-byte socket limit
        // wherever the checkout lives, and inside the checkout.
        let dir = PathBuf::from(format!(".now-perf-sock-{pid}-{lane}"));
        std::fs::create_dir_all(&dir).expect("socket directory");
        (
            (0..daemons)
                .map(|d| Addr::Unix(dir.join(format!("d{d}.sock"))))
                .collect(),
            Some(dir),
        )
    }
}

impl Feed {
    /// Boots the daemons and forms the group; `board_slots` sizes the
    /// completion board (quotes the run may submit). A boot that fails is
    /// torn down and repeated, [`BOOT_ATTEMPTS`] times at most.
    pub fn boot(&self, seed: u64, traced: bool, board_slots: u64) -> Cluster {
        let mut why = String::new();
        for attempt in 1..=BOOT_ATTEMPTS {
            match self.try_boot(seed, traced, board_slots) {
                Ok(cluster) => return cluster,
                Err(e) => {
                    eprintln!("sock-feed: boot {attempt} of {BOOT_ATTEMPTS} abandoned: {e}");
                    why = e;
                }
            }
        }
        panic!("no cluster after {BOOT_ATTEMPTS} boots: {why}");
    }

    /// One boot. On failure the daemons booted so far are stopped and their
    /// sockets removed (the cluster is dropped) before this returns.
    fn try_boot(&self, seed: u64, traced: bool, board_slots: u64) -> Result<Cluster, String> {
        let nleaders = self.cfg.resiliency;
        let total = nleaders + self.analysts;
        let routing: Vec<u32> = (0..total).map(|p| (p % self.daemons) as u32).collect();
        let shared_routing = Arc::new(routing.clone());
        let (addrs, sock_dir) = addrs(self.daemons, self.tcp, seed, 0);
        let (done_tx, done) = mpsc::channel();
        let board = Arc::new(Board {
            analysts: self.analysts as u32,
            seen: (0..board_slots).map(|_| AtomicU32::new(0)).collect(),
            done: done_tx,
        });
        let epoch = Instant::now();
        let mut cluster = Cluster {
            _one_cpu: OneCpu::pin(),
            daemons: Vec::with_capacity(self.daemons),
            routing,
            members: (nleaders..total).map(|p| Pid(p as u32)).collect(),
            done,
            seed,
            traced,
            sock_dir,
        };
        for d in 0..self.daemons {
            let procs: Vec<(Pid, Proc)> = (0..total)
                .filter(|p| cluster.routing[*p] == d as u32)
                .map(|p| {
                    let biz = Analyst {
                        board: Arc::clone(&board),
                        log: (0, 0, ORDER_SEED),
                    };
                    (
                        Pid(p as u32),
                        IsisProcess::new(
                            HierApp::with_timers(biz, self.cfg.clone()),
                            IsisConfig::default(),
                        ),
                    )
                })
                .collect();
            let daemon = Daemon::spawn(
                DaemonConfig {
                    index: d as u32,
                    addrs: addrs.clone(),
                    routing: Arc::clone(&shared_routing),
                    epoch,
                    seed: seed.wrapping_add(d as u64),
                },
                procs,
            )
            .map_err(|e| format!("daemon {d} failed to boot: {e}"))?;
            cluster.daemons.push(daemon);
        }
        self.form(&cluster, nleaders)?;
        cluster.open_books();
        if traced {
            for d in &cluster.daemons {
                d.with_core(|core| core.endpoint_mut().set_tracer(Tracer::new().retain_all()));
            }
        }
        Ok(cluster)
    }

    /// The harness formation sequence, over the wire: create, leaders join,
    /// members join one by one; each stage polled to completion.
    fn form(&self, c: &Cluster, nleaders: usize) -> Result<(), String> {
        let until = |cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + FORM_PATIENCE;
            while !cond() {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            true
        };
        let leaders: Vec<Pid> = (0..nleaders).map(|p| Pid(p as u32)).collect();
        let first = leaders[0];
        let shape = self.cfg.clone();
        c.daemon_of(first).invoke(first, move |p, ctx| {
            p.with_app(ctx, move |app, up| app.create_large(LGID, shape, up));
        });
        for &l in &leaders[1..] {
            c.daemon_of(l).invoke(l, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.join_leader_group(LGID, first, up));
            });
        }
        let leader_group_size = |l: Pid| {
            c.daemon_of(l)
                .invoke(l, |p, _| p.view_of(LGID.leader_gid()).map(|v| v.size()))
                .flatten()
        };
        if !until(&|| leaders.iter().all(|&l| leader_group_size(l) == Some(nleaders))) {
            let sizes: Vec<_> = leaders.iter().map(|&l| leader_group_size(l)).collect();
            return Err(format!(
                "the leader group did not form in {FORM_PATIENCE:?}: view sizes {sizes:?}, want {nleaders}"
            ));
        }
        // One analyst at a time: 32 joins submitted at once are what, about
        // once in a few thousand formations, leaves the leaders counting an
        // analyst twice (README, "Observations"); admitted one after the
        // other, none of 16 000 formations did.
        let is_member = |m: Pid| {
            c.daemon_of(m)
                .invoke(m, |p, _| p.app().is_large_member(LGID))
                .unwrap_or(false)
        };
        for &m in &c.members {
            c.daemon_of(m).invoke(m, move |p, ctx| {
                p.with_app(ctx, move |app, up| app.join_large(LGID, first, up));
            });
            if !until(&|| is_member(m)) {
                return Err(format!(
                    "analyst {} was not admitted in {FORM_PATIENCE:?}",
                    m.0
                ));
            }
        }
        let want = c.members.len();
        let counted = || {
            c.daemon_of(first)
                .invoke(first, |p, _| {
                    p.app().leader_view(LGID).map(|v| v.total_members())
                })
                .flatten()
        };
        if !until(&|| counted() == Some(want)) {
            return Err(format!(
                "the first leader counts {:?} analysts after {FORM_PATIENCE:?}, not {want}",
                counted()
            ));
        }
        Ok(())
    }

    /// The closed loop over `self.quotes` quotes. Returns each quote's
    /// latency in microseconds, in completion order, and the wall time at
    /// which each completed (seconds since the loop started).
    pub fn closed_loop(&self, c: &Cluster) -> (Vec<f64>, Vec<f64>) {
        let mut window = Window::new(WINDOW, self.quotes);
        let mut lat_us = Vec::with_capacity(self.quotes as usize);
        let mut done_s = Vec::with_capacity(self.quotes as usize);
        let started = Instant::now();
        while !window.finished() {
            while let Some(seq) = window.next_to_submit() {
                window.submitted(seq, Instant::now());
                c.submit(seq);
            }
            match c.completions().recv_timeout(PATIENCE) {
                Ok((seq, at)) => {
                    if let Some(l) = window.completed(seq, at) {
                        lat_us.push(l.as_secs_f64() * 1e6);
                        done_s.push(at.saturating_duration_since(started).as_secs_f64());
                    }
                }
                Err(_) => break, // undelivered quotes show up as failures
            }
        }
        (lat_us, done_s)
    }

    /// Checks the analysts' logs and closes the books after a run of
    /// `quotes` quotes; consumes the cluster (daemons stop, sockets go). The
    /// caller adds what it timed.
    pub fn settle(&self, c: Cluster, quotes: u64) -> UnitOut {
        let (msgs, max_fanout) = c.books();
        let logs = c.logs();
        let failed = delivery_failures(&logs, quotes, quotes * (quotes + 1) / 2);
        if failed > 0 {
            // Which analysts, for whoever has to find out why.
            let want = (quotes, quotes * (quotes + 1) / 2, logs[0].2);
            for (m, log) in c.members.iter().zip(&logs).filter(|(_, l)| **l != want) {
                eprintln!(
                    "sock-feed: analyst {} logged (count, sum, order) {log:?}, not {want:?}",
                    m.0
                );
            }
        }
        let events = if c.traced {
            c.merged_trace()
        } else {
            Vec::new()
        };
        drop(c);
        let mut monitors = Monitors::new();
        let violations: usize = events.iter().map(|ev| monitors.observe(ev).len()).sum();
        let broken = (violations > 0)
            .then(|| format!("{violations} monitor violations in the merged trace"));
        UnitOut {
            ops: quotes * self.analysts as u64,
            failed,
            msgs,
            max_fanout,
            events,
            broken,
            ..UnitOut::default()
        }
    }
}

impl Workload for Feed {
    type State = Cluster;

    /// Threads and the kernel schedule this one; samples come in completion
    /// order.
    const REPEATABLE: bool = false;

    /// Not only while a cluster lives (which [`Cluster`] sees to): a driver
    /// thread that changes CPU between repetitions meets the next boot with
    /// a different scheduling order, and set-up then waits out a 10 ms dial
    /// back-off in every repetition instead of in few.
    const ONE_CPU: bool = true;

    fn setup(&self, seed: u64, traced: bool) -> Cluster {
        self.boot(seed, traced, self.quotes)
    }

    fn unit(&self, c: Cluster) -> UnitOut {
        let meter = Meter::start();
        let (lat_us, _) = self.closed_loop(&c);
        let cost = meter.stop();
        UnitOut {
            cost,
            op_us: lat_us,
            ..self.settle(c, self.quotes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_never_exceeds_its_limit_and_drains() {
        let mut w = Window::new(3, 5);
        let t0 = Instant::now();
        for want in 0..3 {
            assert_eq!(w.next_to_submit(), Some(want));
            w.submitted(want, t0);
        }
        assert_eq!(w.next_to_submit(), None, "window full");
        assert_eq!(w.outstanding, 3);
        // Completions may come out of order; each frees one slot.
        let l = w
            .completed(1, t0 + Duration::from_millis(2))
            .expect("1 was outstanding");
        assert_eq!(l, Duration::from_millis(2));
        assert_eq!(w.next_to_submit(), Some(3));
        w.submitted(3, t0);
        assert_eq!(w.next_to_submit(), None);
        // Duplicates and strangers change nothing.
        assert!(w.completed(1, t0).is_none());
        assert!(w.completed(4, t0).is_none());
        assert!(w.completed(99, t0).is_none());
        assert_eq!(w.outstanding, 3);
        for seq in [0, 2, 3] {
            assert!(w.completed(seq, t0).is_some());
        }
        assert!(!w.finished(), "quote 4 not yet sent");
        assert_eq!(w.next_to_submit(), Some(4));
        w.submitted(4, t0);
        assert!(w.completed(4, t0).is_some());
        assert!(w.finished());
        assert_eq!(w.next_to_submit(), None);
    }

    #[test]
    fn wire_quote_round_trips() {
        let q = WireQuote {
            seq: 7,
            symbol: 13,
            price: 10_042,
        };
        let bytes = now_net::wire::encode_msg(&q);
        let back: WireQuote = now_net::wire::decode_msg(&bytes).expect("decodes");
        assert_eq!((back.seq, back.symbol, back.price), (7, 13, 10_042));
    }
}
