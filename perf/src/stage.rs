//! Per-stage numbers read off a retained causal log: how many engine events
//! an operation costs and how long each protocol stage holds a message.
//! Times are on the log's own clock — simulated microseconds from `Sim`,
//! wall microseconds since the cluster epoch from daemons.

use std::collections::{BTreeMap, VecDeque};

use now_sim::trace::{EventKind, MsgKey, TraceEvent};

use crate::stats::percentile;

/// The `stage.*` and `trace.events_per_op` metrics of one traced unit.
pub fn metrics(events: &[TraceEvent], ops: u64) -> BTreeMap<&'static str, f64> {
    let per_op = |n: usize| n as f64 / ops.max(1) as f64;
    let mut sends = 0usize;
    let mut timers = 0usize;
    // Per ordered pair, send times not yet matched: channels are FIFO on
    // both substrates, so the k-th delivery or drop closes the k-th send.
    // This also links hops across daemons, whose logs share no seq space.
    let mut in_flight: BTreeMap<(u32, u32), VecDeque<u64>> = BTreeMap::new();
    let mut hops: Vec<f64> = Vec::new();
    let mut flush_begin: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut flushes: Vec<f64> = Vec::new();
    let mut cast_sent: BTreeMap<(u64, MsgKey), u64> = BTreeMap::new();
    let mut casts: Vec<f64> = Vec::new();
    // (origin, lseq) → (submitted, first delivery, last delivery)
    let mut lbcasts: BTreeMap<(u32, u64), (u64, Option<u64>, u64)> = BTreeMap::new();

    for ev in events {
        match &ev.kind {
            EventKind::NetSend { to, .. } => {
                sends += 1;
                in_flight.entry((ev.pid, *to)).or_default().push_back(ev.at);
            }
            EventKind::NetDeliver { from, .. } => {
                if let Some(sent) = in_flight
                    .get_mut(&(*from, ev.pid))
                    .and_then(VecDeque::pop_front)
                {
                    hops.push(ev.at.saturating_sub(sent) as f64);
                }
            }
            EventKind::NetDrop { to, .. } | EventKind::StaleDrop { to, .. } => {
                if let Some(q) = in_flight.get_mut(&(ev.pid, *to)) {
                    q.pop_front();
                }
            }
            EventKind::TimerFire { .. } => timers += 1,
            EventKind::FlushBegin { gid, proposal, .. } => {
                flush_begin.entry((*gid, *proposal)).or_insert(ev.at);
            }
            EventKind::ViewInstall { gid, view, .. } => {
                // First install anywhere closes the flush that proposed it.
                if let Some(began) = flush_begin.remove(&(*gid, *view)) {
                    flushes.push(ev.at.saturating_sub(began) as f64);
                }
            }
            EventKind::CastSend { gid, msg, .. } => {
                cast_sent.insert((*gid, msg.clone()), ev.at);
            }
            EventKind::CastDeliver { gid, msg, .. } => {
                if let Some(&sent) = cast_sent.get(&(*gid, msg.clone())) {
                    casts.push(ev.at.saturating_sub(sent) as f64);
                }
            }
            EventKind::LbcastSubmit { origin, lseq, .. } => {
                lbcasts.insert((*origin, *lseq), (ev.at, None, ev.at));
            }
            EventKind::LbcastDeliver { origin, lseq, .. } => {
                if let Some(l) = lbcasts.get_mut(&(*origin, *lseq)) {
                    l.1.get_or_insert(ev.at);
                    l.2 = l.2.max(ev.at);
                }
            }
            _ => {}
        }
    }
    let delivered: Vec<(u64, u64, u64)> = lbcasts
        .values()
        .filter_map(|&(s, first, last)| first.map(|f| (s, f, last)))
        .collect();
    let to_first: Vec<f64> = delivered
        .iter()
        .map(|&(s, f, _)| f.saturating_sub(s) as f64)
        .collect();
    let spread: Vec<f64> = delivered.iter().map(|&(_, f, l)| (l - f) as f64).collect();

    BTreeMap::from([
        ("trace.events_per_op", per_op(events.len())),
        ("stage.netsend_per_op", per_op(sends)),
        ("stage.timerfire_per_op", per_op(timers)),
        ("stage.net.hop_us_p50", percentile(&hops, 0.5)),
        (
            "stage.flush.begin_to_install_us_p50",
            percentile(&flushes, 0.5),
        ),
        (
            "stage.lbcast.submit_to_first_deliver_us",
            percentile(&to_first, 0.5),
        ),
        (
            "stage.lbcast.first_to_last_deliver_us",
            percentile(&spread, 0.5),
        ),
        (
            "stage.leafcast.send_to_deliver_us_p50",
            percentile(&casts, 0.5),
        ),
    ])
}

/// The same table from event counts alone (a workload that only exposes a
/// census has no times to report: those stay 0).
pub fn metrics_from_census(
    census: &[(&'static str, u64)],
    ops: u64,
) -> BTreeMap<&'static str, f64> {
    let count = |name: &str| {
        census
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, n)| *n)
            .sum::<u64>()
    };
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    let mut m = metrics(&[], ops);
    m.insert(
        "trace.events_per_op",
        per_op(census.iter().map(|(_, n)| *n).sum()),
    );
    m.insert("stage.netsend_per_op", per_op(count("NET_SEND")));
    m.insert("stage.timerfire_per_op", per_op(count("TIMER")));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, at: u64, pid: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at,
            pid,
            cause: None,
            kind,
        }
    }

    #[test]
    fn stages_are_read_off_a_small_log() {
        let key = MsgKey {
            sender: 1,
            view: 1,
            stream: 0,
            seq: 1,
        };
        let log = vec![
            ev(
                1,
                0,
                1,
                EventKind::LbcastSubmit {
                    lgid: 1,
                    origin: 1,
                    lseq: 7,
                },
            ),
            ev(2, 0, 1, EventKind::NetSend { to: 2, bytes: 8 }),
            ev(3, 1, 1, EventKind::NetSend { to: 2, bytes: 8 }),
            ev(4, 10, 2, EventKind::NetDeliver { from: 1, send: 0 }),
            ev(
                5,
                10,
                2,
                EventKind::LbcastDeliver {
                    lgid: 1,
                    origin: 1,
                    lseq: 7,
                },
            ),
            ev(6, 31, 2, EventKind::NetDeliver { from: 1, send: 0 }),
            ev(
                7,
                40,
                3,
                EventKind::LbcastDeliver {
                    lgid: 1,
                    origin: 1,
                    lseq: 7,
                },
            ),
            ev(8, 50, 1, EventKind::TimerFire { kind: 1 }),
            ev(
                9,
                60,
                1,
                EventKind::FlushBegin {
                    gid: 5,
                    attempt: 1,
                    proposal: 2,
                },
            ),
            ev(
                10,
                75,
                1,
                EventKind::ViewInstall {
                    gid: 5,
                    view: 2,
                    members: vec![1],
                    joined: false,
                },
            ),
            ev(
                11,
                80,
                1,
                EventKind::CastSend {
                    gid: 5,
                    msg: key.clone(),
                    vt: vec![],
                },
            ),
            ev(
                12,
                83,
                2,
                EventKind::CastDeliver {
                    gid: 5,
                    view: 2,
                    msg: key,
                    gseq: 0,
                    relay: false,
                    vt: vec![],
                },
            ),
        ];
        let m = metrics(&log, 2);
        assert_eq!(m["trace.events_per_op"], 6.0);
        assert_eq!(m["stage.netsend_per_op"], 1.0);
        assert_eq!(m["stage.timerfire_per_op"], 0.5);
        // FIFO matching: hops of 10 and 30 µs.
        assert_eq!(m["stage.net.hop_us_p50"], 20.0);
        assert_eq!(m["stage.flush.begin_to_install_us_p50"], 15.0);
        assert_eq!(m["stage.lbcast.submit_to_first_deliver_us"], 10.0);
        assert_eq!(m["stage.lbcast.first_to_last_deliver_us"], 30.0);
        assert_eq!(m["stage.leafcast.send_to_deliver_us_p50"], 3.0);
    }

    #[test]
    fn census_gives_counts_and_zero_times() {
        let m = metrics_from_census(&[("NET_SEND", 30), ("TIMER", 10), ("CRASH", 2)], 10);
        assert_eq!(m["trace.events_per_op"], 4.2);
        assert_eq!(m["stage.netsend_per_op"], 3.0);
        assert_eq!(m["stage.timerfire_per_op"], 1.0);
        assert_eq!(m["stage.net.hop_us_p50"], 0.0);
    }
}
