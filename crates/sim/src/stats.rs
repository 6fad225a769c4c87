//! Measurement infrastructure.
//!
//! Every quantitative claim reproduced from the paper is a statement about
//! message counts, destination counts, state sizes, or latencies. Those are
//! collected *here*, centrally, so protocol code needs no instrumentation
//! beyond optional named counters and latency samples.
//!
//! Named counters and series are **interned**: the first `bump`/`sample`
//! of a name registers it and assigns a dense [`CounterId`]/[`SeriesId`];
//! every subsequent hit is an array index. Hot protocol paths can resolve
//! the id once (via [`Stats::counter_id`] / [`Stats::series_id`]) and bump
//! through the handle, which costs neither an allocation nor a tree walk.
//! The name→id table is consulted only at registration and report time.

use std::collections::{BTreeMap, BTreeSet};

use crate::ids::Pid;
use crate::time::{SimDuration, SimTime};

/// Dense handle for a named counter, assigned at first registration.
///
/// Ids are deterministic for a fixed registration order (which, in a
/// deterministic simulation, is itself fixed by the seed and harness
/// script); reports are keyed by *name*, so ids never leak into output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CounterId(u32);

/// Dense handle for a named sample series. See [`CounterId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId(u32);

/// Per-process message counters.
#[derive(Clone, Debug, Default)]
pub struct ProcStats {
    /// Messages this process sent (per destination, including loopback).
    pub sent: u64,
    /// Messages delivered to this process.
    pub received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages addressed to this process that the network dropped.
    pub dropped_to: u64,
}

/// A latency/size sample series with streaming percentile summary.
#[derive(Clone, Debug, Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    ///
    /// Summation runs over a *sorted* copy so the floating-point sum is
    /// independent of the order samples were recorded in. The committed
    /// experiment tables were produced under this rule.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample recorded"));
        sorted.iter().sum::<f64>() / sorted.len() as f64
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank, or 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample recorded"));
        let rank = ((q * sorted.len() as f64).ceil() as usize)
            .clamp(1, sorted.len())
            - 1;
        sorted[rank]
    }

    /// Convenience: the median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Borrow the raw samples.
    pub fn raw(&self) -> &[f64] {
        &self.samples
    }
}

/// Global simulation statistics.
///
/// Collected by the engine on every send/delivery; experiments read them
/// after (or during) a run. Named counters and series let protocol layers
/// record domain events (view changes, broadcasts completed, end-to-end
/// latencies) without new plumbing.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Total messages handed to the network (including later-dropped ones).
    pub messages_sent: u64,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Total messages dropped by the network (loss or partition).
    pub messages_dropped: u64,
    /// Of the dropped messages, those addressed to a previous incarnation
    /// of a restarted process (stale-life traffic, also in `messages_dropped`).
    pub messages_stale_dropped: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Per-process counters, indexed by `Pid.0`.
    per_proc: Vec<ProcStats>,
    /// Distinct destinations each process has contacted. Enabled on demand
    /// because it costs a hash-set per process.
    fanout_tracking: Option<Vec<BTreeSet<Pid>>>,
    /// Name→id registration table for counters (registration/report only).
    counter_index: BTreeMap<&'static str, u32>,
    /// Counter names, indexed by `CounterId`.
    counter_names: Vec<&'static str>,
    /// Counter values, indexed by `CounterId` — the hot-path store.
    counter_slots: Vec<u64>,
    /// Name→id registration table for series (registration/report only).
    series_index: BTreeMap<&'static str, u32>,
    /// Series names, indexed by `SeriesId`.
    series_names: Vec<&'static str>,
    /// Series values, indexed by `SeriesId` — the hot-path store.
    series_slots: Vec<Series>,
}

impl Stats {
    /// Enables per-process distinct-destination tracking (experiment E8).
    pub fn enable_fanout_tracking(&mut self) {
        if self.fanout_tracking.is_none() {
            let n = self.per_proc.len();
            self.fanout_tracking = Some(vec![BTreeSet::new(); n]);
        }
    }

    /// Grows the per-process table to cover `pid`.
    pub(crate) fn ensure_proc(&mut self, pid: Pid) {
        let idx = pid.0 as usize;
        if self.per_proc.len() <= idx {
            self.per_proc.resize_with(idx + 1, ProcStats::default);
            if let Some(f) = &mut self.fanout_tracking {
                f.resize_with(idx + 1, BTreeSet::new);
            }
        }
    }

    /// Counts one message leaving `from` for `to`. The `record_*` methods
    /// are called only by the process host ([`crate::Endpoint`]), so both
    /// backends keep the same books.
    pub(crate) fn record_send(&mut self, from: Pid, to: Pid, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        if !from.is_external() {
            self.ensure_proc(from);
            let p = &mut self.per_proc[from.0 as usize];
            p.sent += 1;
            p.bytes_sent += bytes as u64;
            if let Some(f) = &mut self.fanout_tracking {
                f[from.0 as usize].insert(to);
            }
        }
    }

    /// Counts one delivery at `to` (see [`Stats::record_send`]).
    pub(crate) fn record_delivery(&mut self, to: Pid) {
        self.messages_delivered += 1;
        self.ensure_proc(to);
        self.per_proc[to.0 as usize].received += 1;
    }

    /// Counts one drop bound for `to` (see [`Stats::record_send`]).
    pub(crate) fn record_drop(&mut self, to: Pid) {
        self.messages_dropped += 1;
        if !to.is_external() {
            self.ensure_proc(to);
            self.per_proc[to.0 as usize].dropped_to += 1;
        }
    }

    /// Counts one drop of a message addressed to a previous incarnation of
    /// `to` (a restarted process). Stale drops are also ordinary drops.
    pub(crate) fn record_stale_drop(&mut self, to: Pid) {
        self.messages_stale_dropped += 1;
        self.record_drop(to);
    }

    /// Per-process counters for `pid` (zeroes if it never communicated).
    pub fn proc(&self, pid: Pid) -> ProcStats {
        self.per_proc
            .get(pid.0 as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// The number of distinct destinations `pid` has contacted.
    ///
    /// # Panics
    ///
    /// Panics unless [`Stats::enable_fanout_tracking`] was called before the
    /// sends of interest.
    pub fn distinct_destinations(&self, pid: Pid) -> usize {
        let f = self
            .fanout_tracking
            .as_ref()
            .expect("fanout tracking not enabled");
        f.get(pid.0 as usize).map_or(0, BTreeSet::len)
    }

    /// The largest distinct-destination count over all processes — the
    /// paper's *fanout* bound, measured.
    pub fn max_distinct_destinations(&self) -> usize {
        let f = self
            .fanout_tracking
            .as_ref()
            .expect("fanout tracking not enabled");
        f.iter().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// Registers (or looks up) the named counter, returning its dense id.
    /// Resolve once, bump through [`Stats::bump_id`] forever after.
    pub fn counter_id(&mut self, name: &'static str) -> CounterId {
        if let Some(&id) = self.counter_index.get(name) {
            return CounterId(id);
        }
        let id = self.counter_slots.len() as u32;
        self.counter_index.insert(name, id);
        self.counter_names.push(name);
        self.counter_slots.push(0);
        CounterId(id)
    }

    /// Registers (or looks up) the named series, returning its dense id.
    pub fn series_id(&mut self, name: &'static str) -> SeriesId {
        if let Some(&id) = self.series_index.get(name) {
            return SeriesId(id);
        }
        let id = self.series_slots.len() as u32;
        self.series_index.insert(name, id);
        self.series_names.push(name);
        self.series_slots.push(Series::default());
        SeriesId(id)
    }

    /// Adds `n` to an interned counter — a single array index.
    #[inline]
    pub fn bump_id_by(&mut self, id: CounterId, n: u64) {
        self.counter_slots[id.0 as usize] += n;
    }

    /// Adds 1 to an interned counter — a single array index.
    #[inline]
    pub fn bump_id(&mut self, id: CounterId) {
        self.bump_id_by(id, 1);
    }

    /// Records one sample in an interned series — a single array index.
    #[inline]
    pub fn sample_id(&mut self, id: SeriesId, v: f64) {
        self.series_slots[id.0 as usize].push(v);
    }

    /// Adds `n` to the named counter (registering it on first use). No
    /// allocation; cold paths may prefer this over carrying a handle.
    pub fn bump_by(&mut self, name: &'static str, n: u64) {
        let id = self.counter_id(name);
        self.bump_id_by(id, n);
    }

    /// Adds 1 to the named counter.
    pub fn bump(&mut self, name: &'static str) {
        self.bump_by(name, 1);
    }

    /// Reads a named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&id| self.counter_slots[id as usize])
    }

    /// All named counters, sorted by name (built at report time).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counter_index
            .iter()
            .map(|(&name, &id)| (name.to_owned(), self.counter_slots[id as usize]))
            .collect()
    }

    /// Records one sample in the named series (registering on first use).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        let id = self.series_id(name);
        self.sample_id(id, v);
    }

    /// Records a duration sample in milliseconds.
    pub fn sample_duration(&mut self, name: &'static str, d: SimDuration) {
        self.sample(name, d.as_millis_f64());
    }

    /// Reads a named series (empty when never sampled).
    pub fn series(&self, name: &str) -> Series {
        self.series_index
            .get(name)
            .map_or_else(Series::default, |&id| self.series_slots[id as usize].clone())
    }

    /// Resets message counters and series but keeps process table sizing
    /// (and counter/series registrations — cleared slots read as zero).
    ///
    /// Used by experiments that let the system reach steady state, then
    /// measure a window.
    pub fn reset_window(&mut self) {
        self.messages_sent = 0;
        self.messages_delivered = 0;
        self.messages_dropped = 0;
        self.messages_stale_dropped = 0;
        self.bytes_sent = 0;
        for p in &mut self.per_proc {
            *p = ProcStats::default();
        }
        if let Some(f) = &mut self.fanout_tracking {
            for s in f.iter_mut() {
                s.clear();
            }
        }
        for c in &mut self.counter_slots {
            *c = 0;
        }
        for s in &mut self.series_slots {
            *s = Series::default();
        }
    }
}

/// A single observation a process can emit for the harness to collect, with
/// the simulated time at which it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// When the observation was emitted.
    pub at: SimTime,
    /// The emitting process.
    pub by: Pid,
    /// Static label, e.g. `"delivered"` (static so emission never allocates).
    pub label: &'static str,
    /// Numeric payload (meaning depends on the label).
    pub value: f64,
}

/// An append-only log of observations emitted by processes via
/// [`crate::Ctx::observe`].
#[derive(Clone, Debug, Default)]
pub struct ObservationLog {
    entries: Vec<Observation>,
}

impl ObservationLog {
    pub(crate) fn push(&mut self, obs: Observation) {
        self.entries.push(obs);
    }

    /// All observations in emission order.
    pub fn all(&self) -> &[Observation] {
        &self.entries
    }

    /// Observations with the given label.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Observation> {
        self.entries.iter().filter(move |o| o.label == label)
    }

    /// Count of observations with the given label.
    pub fn count(&self, label: &str) -> usize {
        self.with_label(label).count()
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Histogram-style bucket summary used by report printers.
#[derive(Clone, Debug, Default)]
pub struct CountMap<K: Ord> {
    counts: BTreeMap<K, u64>,
}

impl<K: Ord> CountMap<K> {
    /// Creates an empty count map.
    pub fn new() -> CountMap<K> {
        CountMap {
            counts: BTreeMap::new(),
        }
    }

    /// Adds one to the bucket for `k`.
    pub fn bump(&mut self, k: K) {
        *self.counts.entry(k).or_insert(0) += 1;
    }

    /// Reads the bucket for `k`.
    pub fn get(&self, k: &K) -> u64 {
        self.counts.get(k).copied().unwrap_or(0)
    }

    /// Iterates buckets in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, v)| (k, *v))
    }
}

/// Extension: aggregates a `BTreeMap<Pid, u64>` into the hottest entries, for
/// reports about which processes carry the load.
pub fn hottest(map: &BTreeMap<Pid, u64>, k: usize) -> Vec<(Pid, u64)> {
    let mut v: Vec<(Pid, u64)> = map.iter().map(|(p, c)| (*p, *c)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_percentiles() {
        let mut s = Series::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn series_empty_is_zero() {
        let s = Series::default();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn send_and_delivery_counters() {
        let mut st = Stats::default();
        st.record_send(Pid(0), Pid(1), 100);
        st.record_send(Pid(0), Pid(2), 50);
        st.record_delivery(Pid(1));
        st.record_drop(Pid(2));
        assert_eq!(st.messages_sent, 2);
        assert_eq!(st.messages_delivered, 1);
        assert_eq!(st.messages_dropped, 1);
        assert_eq!(st.bytes_sent, 150);
        assert_eq!(st.proc(Pid(0)).sent, 2);
        assert_eq!(st.proc(Pid(1)).received, 1);
        assert_eq!(st.proc(Pid(2)).dropped_to, 1);
    }

    #[test]
    fn external_sends_counted_globally_only() {
        let mut st = Stats::default();
        st.record_send(Pid::EXTERNAL, Pid(1), 10);
        assert_eq!(st.messages_sent, 1);
        // No per-proc slot was allocated for the external pseudo-pid.
        assert_eq!(st.proc(Pid::EXTERNAL).sent, 0);
    }

    #[test]
    fn fanout_tracking_counts_distinct_destinations() {
        let mut st = Stats::default();
        st.enable_fanout_tracking();
        st.record_send(Pid(0), Pid(1), 1);
        st.record_send(Pid(0), Pid(1), 1);
        st.record_send(Pid(0), Pid(2), 1);
        st.record_send(Pid(3), Pid(4), 1);
        assert_eq!(st.distinct_destinations(Pid(0)), 2);
        assert_eq!(st.distinct_destinations(Pid(3)), 1);
        assert_eq!(st.max_distinct_destinations(), 2);
    }

    #[test]
    fn named_counters_and_series() {
        let mut st = Stats::default();
        st.bump("view_changes");
        st.bump_by("view_changes", 2);
        st.sample("lat", 5.0);
        st.sample("lat", 15.0);
        assert_eq!(st.counter("view_changes"), 3);
        assert_eq!(st.counter("missing"), 0);
        assert_eq!(st.series("lat").mean(), 10.0);
    }

    #[test]
    fn interned_ids_alias_the_named_stores() {
        let mut st = Stats::default();
        let c = st.counter_id("hits");
        let s = st.series_id("lat");
        st.bump_id(c);
        st.bump("hits");
        st.bump_id_by(c, 3);
        st.sample_id(s, 2.0);
        st.sample("lat", 4.0);
        assert_eq!(st.counter("hits"), 5);
        assert_eq!(st.series("lat").mean(), 3.0);
        // Re-registering the same name yields the same id.
        assert_eq!(st.counter_id("hits"), c);
        assert_eq!(st.series_id("lat"), s);
    }

    #[test]
    fn counters_report_is_sorted_by_name() {
        let mut st = Stats::default();
        st.bump("zz");
        st.bump("aa");
        st.bump("mm");
        let names: Vec<String> = st.counters().into_keys().collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn reset_window_clears_counts() {
        let mut st = Stats::default();
        st.enable_fanout_tracking();
        let c = st.counter_id("x");
        st.record_send(Pid(0), Pid(1), 10);
        st.bump("x");
        st.sample("s", 1.0);
        st.reset_window();
        assert_eq!(st.messages_sent, 0);
        assert_eq!(st.proc(Pid(0)).sent, 0);
        assert_eq!(st.counter("x"), 0);
        assert_eq!(st.series("s").len(), 0);
        assert_eq!(st.distinct_destinations(Pid(0)), 0);
        // Registrations survive the reset: the handle still works.
        st.bump_id(c);
        assert_eq!(st.counter("x"), 1);
    }

    #[test]
    fn mean_is_independent_of_sample_order() {
        // A sum whose float rounding depends on operand order: summing
        // ascending vs descending gives different bits unless mean() sorts.
        let vals = [1e16, 1.0, -1e16, 3.0, 0.25, 1e8];
        let mut fwd = Series::default();
        let mut rev = Series::default();
        for v in vals {
            fwd.push(v);
        }
        for v in vals.iter().rev() {
            rev.push(*v);
        }
        assert_eq!(fwd.mean().to_bits(), rev.mean().to_bits());
    }

    #[test]
    fn observation_log_filters_by_label() {
        let mut log = ObservationLog::default();
        log.push(Observation {
            at: SimTime(1),
            by: Pid(0),
            label: "a",
            value: 1.0,
        });
        log.push(Observation {
            at: SimTime(2),
            by: Pid(1),
            label: "b",
            value: 2.0,
        });
        assert_eq!(log.count("a"), 1);
        assert_eq!(log.all().len(), 2);
        assert_eq!(log.with_label("b").next().unwrap().value, 2.0);
    }

    #[test]
    fn count_map_buckets() {
        let mut m = CountMap::new();
        m.bump(3);
        m.bump(3);
        m.bump(5);
        assert_eq!(m.get(&3), 2);
        assert_eq!(m.get(&4), 0);
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn hottest_sorts_descending() {
        let mut m = BTreeMap::new();
        m.insert(Pid(1), 5);
        m.insert(Pid(2), 9);
        m.insert(Pid(3), 9);
        let h = hottest(&m, 2);
        assert_eq!(h, vec![(Pid(2), 9), (Pid(3), 9)]);
    }
}
