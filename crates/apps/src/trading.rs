//! The trading-room workload (section 1 of the paper):
//!
//! > "A typical installation will comprise perhaps 100 to 500 trading
//! > analyst workstations which filter, process and analyze large volumes
//! > of information continuously supplied from numerous outside data
//! > feeds. Users of these systems demand surprisingly high performance,
//! > often requiring sub-second response to events detected over the data
//! > feeds."
//!
//! The paper's installation data is proprietary; this synthetic generator
//! preserves the workload's *shape*: a few feed workstations inject quote
//! events at a steady aggregate rate, every analyst subscribes to a subset
//! of symbols, and the metric is end-to-end event latency at the analysts.
//! Dissemination runs either over a hierarchical large group (tree
//! broadcast) or over one flat ISIS group (the baseline the paper argues
//! cannot scale).

use std::collections::HashSet;

use now_sim::{Pid, SimDuration, SimTime};

use isis_core::{Application, CastKind, GroupId, GroupView, Uplink};
use isis_hier::{LargeApp, LargeGroupId, LargeUplink};

/// One market-data event.
#[derive(Clone, Debug)]
pub struct Quote {
    /// Instrument id.
    pub symbol: u32,
    /// Feed-local sequence number.
    pub seq: u64,
    /// Simulated send time in microseconds (for latency measurement).
    pub sent_us: u64,
    /// Price in cents.
    pub price: u32,
}

/// Estimated wire size of a quote.
pub const QUOTE_BYTES: usize = 24;

/// An analyst (or feed) workstation in the *hierarchical* deployment.
pub struct HierAnalyst {
    /// The trading-floor large group.
    pub lgid: LargeGroupId,
    /// Symbols this analyst watches.
    pub subscriptions: HashSet<u32>,
    /// Quotes matching the subscription, in delivery order.
    pub matched: Vec<Quote>,
    /// Total quotes delivered (matched or not).
    pub delivered: u64,
}

impl HierAnalyst {
    /// Creates an analyst watching `subs`.
    pub fn new(lgid: LargeGroupId, subs: impl IntoIterator<Item = u32>) -> HierAnalyst {
        HierAnalyst {
            lgid,
            subscriptions: subs.into_iter().collect(),
            matched: Vec::new(),
            delivered: 0,
        }
    }
}

impl LargeApp for HierAnalyst {
    type Payload = Quote;
    type LeafState = ();

    fn on_lbcast(
        &mut self,
        _lgid: LargeGroupId,
        _origin: Pid,
        q: &Quote,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.delivered += 1;
        let latency = up.now().since(SimTime(q.sent_us));
        up.sample_duration("trading.latency_ms", latency);
        if self.subscriptions.contains(&q.symbol) {
            self.matched.push(q.clone());
            up.bump("trading.matched");
        }
    }

    fn payload_bytes(_q: &Quote) -> usize {
        QUOTE_BYTES
    }
}

/// An analyst workstation in the *flat* baseline: one ISIS group holds
/// every analyst; feeds are members that CBCAST each quote to all.
pub struct FlatAnalyst {
    /// The (single) group.
    pub gid: GroupId,
    /// Symbols this analyst watches.
    pub subscriptions: HashSet<u32>,
    /// Quotes matching the subscription.
    pub matched: Vec<Quote>,
    /// Total quotes delivered.
    pub delivered: u64,
    view: Option<GroupView>,
}

impl FlatAnalyst {
    /// Creates an analyst watching `subs`.
    pub fn new(gid: GroupId, subs: impl IntoIterator<Item = u32>) -> FlatAnalyst {
        FlatAnalyst {
            gid,
            subscriptions: subs.into_iter().collect(),
            matched: Vec::new(),
            delivered: 0,
            view: None,
        }
    }

    /// Feed-side: broadcast a quote to the whole floor.
    pub fn publish(&mut self, q: Quote, up: &mut Uplink<'_, '_, Self>) {
        up.cast(self.gid, CastKind::Fifo, q);
    }
}

impl Application for FlatAnalyst {
    type Payload = Quote;
    type State = ();

    fn on_deliver(
        &mut self,
        _gid: GroupId,
        _from: Pid,
        _kind: CastKind,
        q: &Quote,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        self.delivered += 1;
        let latency = up.now().since(SimTime(q.sent_us));
        up.sample_duration("trading.latency_ms", latency);
        if self.subscriptions.contains(&q.symbol) {
            self.matched.push(q.clone());
            up.bump("trading.matched");
        }
    }

    fn on_view(&mut self, view: &GroupView, _joined: bool, _up: &mut Uplink<'_, '_, Self>) {
        self.view = Some(view.clone());
    }

    fn payload_bytes(_q: &Quote) -> usize {
        QUOTE_BYTES
    }
}

/// Deterministic quote stream shared by both deployments.
pub struct QuoteStream {
    symbols: u32,
    seq: u64,
}

impl QuoteStream {
    /// A stream over `symbols` instruments.
    pub fn new(symbols: u32) -> QuoteStream {
        QuoteStream { symbols, seq: 0 }
    }

    /// The next quote, stamped at `now`.
    pub fn next_quote(&mut self, now: SimTime) -> Quote {
        self.seq += 1;
        Quote {
            symbol: (self.seq.wrapping_mul(2_654_435_761) % self.symbols as u64) as u32,
            seq: self.seq,
            sent_us: now.as_micros(),
            price: 10_000 + (self.seq % 997) as u32,
        }
    }
}

/// Per-run results of a trading-room experiment.
#[derive(Clone, Debug)]
pub struct TradingReport {
    /// Analyst count.
    pub analysts: usize,
    /// Quotes published during the measurement window.
    pub quotes: u64,
    /// Quote deliveries observed.
    pub deliveries: u64,
    /// End-to-end latency percentiles in milliseconds.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Messages sent during the window.
    pub messages: u64,
    /// Largest number of distinct destinations any process contacted.
    pub max_fanout: usize,
    /// Fraction of expected deliveries that arrived (quotes × analysts).
    pub delivery_ratio: f64,
}

/// Interval helper: quotes-per-second to inter-quote gap.
pub fn rate_to_gap(quotes_per_sec: u64) -> SimDuration {
    SimDuration::from_micros(1_000_000 / quotes_per_sec.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_stream_is_deterministic() {
        let mut a = QuoteStream::new(16);
        let mut b = QuoteStream::new(16);
        for _ in 0..100 {
            let (qa, qb) = (a.next_quote(SimTime(5)), b.next_quote(SimTime(5)));
            assert_eq!(qa.symbol, qb.symbol);
            assert_eq!(qa.seq, qb.seq);
        }
    }

    #[test]
    fn quote_symbols_cover_the_universe() {
        let mut s = QuoteStream::new(8);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(s.next_quote(SimTime(0)).symbol);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn rate_conversion() {
        assert_eq!(rate_to_gap(1_000), SimDuration::from_micros(1_000));
        assert_eq!(rate_to_gap(0), SimDuration::from_micros(1_000_000));
    }
}
