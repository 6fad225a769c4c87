//! `now-trace` — deterministic causal tracing and online virtual-synchrony
//! invariant monitoring for the simulated ISIS stack.
//!
//! The crate sits *below* `now-sim` in the dependency graph: the engine owns
//! an optional [`Tracer`] and records engine-level events (sends, deliveries,
//! drops, timers, crashes); the protocol layers emit semantic events through
//! `Ctx::trace_with`. Everything is keyed by simulated time and a per-run
//! sequence number — no wall clock, no ambient RNG, BTree-ordered state —
//! so a trace is as replayable as the run that produced it, and recording
//! never perturbs the run (tracing touches neither the RNG nor the stats).
//!
//! Three layers:
//! - [`event`] — the structured event model + TSV (de)serialisation,
//! - [`monitor`] — online invariant monitors ([`monitor::Monitors`]) that
//!   fail fast with a minimal causal excerpt,
//! - [`query`] / [`chrome`] — offline filtering, causal-chain reconstruction
//!   and Chrome `trace_event` export behind the `tracectl` binary.

pub mod chrome;
pub mod event;
pub mod monitor;
pub mod query;

use std::collections::VecDeque;

pub use event::{EventKind, MsgKey, TraceEvent};
pub use monitor::{Monitors, Violation};

/// Default size of the rolling window of retained events. Large enough to
/// reconstruct the causal neighbourhood of a violation, small enough that
/// armed monitors cost O(1) memory on long runs.
pub const RING_CAP: usize = 4096;

/// How a tracer reacts when a monitor flags a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationMode {
    /// Collect violations; the harness inspects [`Tracer::violations`].
    Record,
    /// Panic with the formatted violation + causal excerpt (CI mode: any
    /// armed experiment aborts the run on first violation).
    Panic,
}

/// The per-simulation event collector.
///
/// Disabled tracing is represented by the *absence* of a `Tracer` (the
/// engine holds `Option<Tracer>`), so the disabled path is a single
/// `is_some()` check and runs are byte-identical with tracing off.
#[derive(Debug)]
pub struct Tracer {
    next_seq: u64,
    ring: VecDeque<TraceEvent>,
    cap: usize,
    retain_all: bool,
    all: Vec<TraceEvent>,
    monitors: Option<Monitors>,
    mode: ViolationMode,
    violations: Vec<Violation>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Record-only tracer with the default rolling window.
    pub fn new() -> Self {
        Tracer {
            next_seq: 0,
            ring: VecDeque::new(),
            cap: RING_CAP,
            retain_all: false,
            all: Vec::new(),
            monitors: None,
            mode: ViolationMode::Record,
            violations: Vec::new(),
        }
    }

    /// Arms the online invariant monitors.
    #[must_use]
    pub fn with_monitors(mut self, mode: ViolationMode) -> Self {
        self.monitors = Some(Monitors::new());
        self.mode = mode;
        self
    }

    /// Keeps *every* event (unbounded), for export and offline queries.
    #[must_use]
    pub fn retain_all(mut self) -> Self {
        self.retain_all = true;
        self
    }

    /// Environment-driven construction, consulted once per simulation:
    /// `NOW_MONITORS=1` arms the monitors in panic mode (the CI sweep),
    /// `NOW_TRACE=1` records without monitors. Unset/`0` → no tracer, and
    /// the run is bit-for-bit what it would be without this crate.
    pub fn from_env() -> Option<Tracer> {
        let set = |k: &str| std::env::var(k).is_ok_and(|v| !v.is_empty() && v != "0");
        if set("NOW_MONITORS") {
            Some(Tracer::new().with_monitors(ViolationMode::Panic))
        } else if set("NOW_TRACE") {
            Some(Tracer::new())
        } else {
            None
        }
    }

    /// Records one event and returns its seq (the caller threads it as the
    /// `cause` of downstream events; a `NetSend`'s seq is the wire id).
    ///
    /// # Panics
    /// In [`ViolationMode::Panic`], panics on the first monitor violation,
    /// printing the violation and its causal excerpt.
    pub fn record(&mut self, at: u64, pid: u32, cause: Option<u64>, kind: EventKind) -> u64 {
        self.next_seq += 1;
        let ev = TraceEvent { seq: self.next_seq, at, pid, cause, kind };
        let mut found = match self.monitors.as_mut() {
            Some(m) => m.observe(&ev),
            None => Vec::new(),
        };
        if self.retain_all {
            self.all.push(ev.clone());
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(ev);
        for viol in &mut found {
            viol.excerpt = self.excerpt(viol.seq);
        }
        if self.mode == ViolationMode::Panic {
            if let Some(viol) = found.first() {
                panic!("{viol}");
            }
        }
        self.violations.extend(found);
        self.next_seq
    }

    /// Test-only fault injection: feeds a fabricated event through the same
    /// path as [`Tracer::record`], so monitor catches can be exercised
    /// end-to-end (a seeded fault must produce a named, excerpted catch).
    pub fn inject(&mut self, at: u64, pid: u32, cause: Option<u64>, kind: EventKind) -> u64 {
        self.record(at, pid, cause, kind)
    }

    /// Seq of the most recently recorded event (0 before the first).
    pub fn last_seq(&self) -> u64 {
        self.next_seq
    }

    /// Violations collected so far (always empty in panic mode — the first
    /// one aborts the run).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of events the monitors have consumed (0 when unarmed).
    pub fn monitored_events(&self) -> u64 {
        self.monitors.as_ref().map_or(0, Monitors::observed)
    }

    /// Takes the retained events accumulated since the last drain, oldest
    /// first, leaving the tracer recording (seqs keep counting up; the
    /// rolling window is cleared too so a drained event is never returned
    /// twice). This is a log hand-over: a harness takes the events by
    /// value (to analyse them, or to merge the logs of several daemons)
    /// without cloning the whole retained log.
    pub fn drain_events(&mut self) -> Vec<TraceEvent> {
        self.ring.clear();
        std::mem::take(&mut self.all)
    }

    /// The retained events, oldest first: the full log under
    /// [`Tracer::retain_all`], otherwise the rolling window.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.retain_all {
            self.all.clone()
        } else {
            self.ring.iter().cloned().collect()
        }
    }

    /// Looks up a retained event by seq.
    pub fn find(&self, seq: u64) -> Option<&TraceEvent> {
        if self.retain_all {
            let i = self.all.binary_search_by_key(&seq, |e| e.seq).ok()?;
            return self.all.get(i);
        }
        let (a, b) = self.ring.as_slices();
        for side in [a, b] {
            if let Ok(i) = side.binary_search_by_key(&seq, |e| e.seq) {
                return side.get(i);
            }
        }
        None
    }

    /// Walks `cause` links backwards from `seq` through the retained window
    /// and returns the chain oldest-first (capped at 12 hops): the minimal
    /// causal excerpt attached to violations.
    pub fn excerpt(&self, seq: u64) -> Vec<TraceEvent> {
        let mut chain = Vec::new();
        let mut cur = Some(seq);
        while let Some(s) = cur {
            let Some(ev) = self.find(s) else { break };
            chain.push(ev.clone());
            if chain.len() >= 12 {
                break;
            }
            cur = ev.cause;
        }
        chain.reverse();
        chain
    }

    /// Serialises the retained events as TSV, one event per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_tsv());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(tr: &mut Tracer, at: u64, pid: u32, to: u32) -> u64 {
        tr.record(at, pid, None, EventKind::NetSend { to, bytes: 64 })
    }

    #[test]
    fn seqs_are_dense_and_causes_chain() {
        let mut tr = Tracer::new().retain_all();
        let s = send(&mut tr, 10, 1, 2);
        let d = tr.record(25, 2, Some(s), EventKind::NetDeliver { from: 1, send: s });
        let t = tr.record(25, 2, Some(d), EventKind::Halt);
        assert_eq!((s, d, t), (1, 2, 3));
        let chain = tr.excerpt(t);
        assert_eq!(chain.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![s, d, t]);
    }

    #[test]
    fn ring_evicts_but_keeps_recent_lookup() {
        let mut tr = Tracer::new();
        tr.cap = 4;
        for i in 0..10 {
            send(&mut tr, i, 1, 2);
        }
        assert!(tr.find(1).is_none(), "oldest must be evicted");
        assert!(tr.find(10).is_some());
        assert_eq!(tr.events().len(), 4);
    }

    #[test]
    fn tsv_round_trips() {
        let mut tr = Tracer::new().retain_all();
        let s = send(&mut tr, 5, 3, 4);
        tr.record(
            9,
            4,
            Some(s),
            EventKind::CastDeliver {
                gid: 7,
                view: 2,
                msg: MsgKey { sender: 3, view: 2, stream: 0, seq: 1 },
                gseq: 0,
                relay: false,
                vt: vec![(3, 1)],
            },
        );
        for line in tr.to_tsv().lines() {
            let ev = TraceEvent::parse_tsv(line).expect("line parses");
            assert_eq!(ev.to_tsv(), line);
        }
    }

    #[test]
    fn drain_events_hands_over_and_keeps_counting() {
        let mut tr = Tracer::new().retain_all();
        send(&mut tr, 1, 1, 2);
        send(&mut tr, 2, 1, 2);
        let first = tr.drain_events();
        assert_eq!(first.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert!(tr.events().is_empty(), "drained events are gone");
        let s = send(&mut tr, 3, 1, 2);
        assert_eq!(s, 3, "seqs keep counting across drains");
        assert_eq!(tr.drain_events().len(), 1);
    }

    #[test]
    fn record_mode_collects_panic_mode_panics() {
        let bad = EventKind::StorageSample { lgid: 1, bytes: 999, bound: 10 };
        let mut tr = Tracer::new().with_monitors(ViolationMode::Record);
        tr.record(1, 5, None, bad.clone());
        assert_eq!(tr.violations().len(), 1);
        assert_eq!(tr.violations()[0].monitor, "VS-STORE");
        assert_eq!(tr.violations()[0].pids, vec![5]);
        assert!(!tr.violations()[0].excerpt.is_empty());

        let r = std::panic::catch_unwind(|| {
            let mut tr = Tracer::new().with_monitors(ViolationMode::Panic);
            tr.record(1, 5, None, bad);
        });
        let msg = r.expect_err("must panic");
        let text = msg
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains("VS-STORE"), "panic names the monitor: {text}");
    }
}
