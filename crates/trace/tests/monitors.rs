//! Monitor-catalog tests: each invariant monitor must accept a clean
//! synthetic run (no false positives) and catch its matching seeded fault
//! with the offending pids named (no false negatives).

use now_trace::query::{chain, parse_dump, Filter};
use now_trace::{chrome, EventKind, MsgKey, Tracer, ViolationMode};

fn armed() -> Tracer {
    Tracer::new().with_monitors(ViolationMode::Record).retain_all()
}

fn install(tr: &mut Tracer, at: u64, pid: u32, gid: u64, view: u64, members: &[u32]) -> u64 {
    tr.record(
        at,
        pid,
        None,
        EventKind::ViewInstall { gid, view, members: members.to_vec(), joined: false },
    )
}

#[expect(clippy::too_many_arguments, reason = "one argument per CastDeliver field")]
fn deliver(
    tr: &mut Tracer,
    at: u64,
    pid: u32,
    gid: u64,
    view: u64,
    msg: MsgKey,
    gseq: u64,
    vt: Vec<(u32, u64)>,
) -> u64 {
    tr.record(
        at,
        pid,
        None,
        EventKind::CastDeliver { gid, view, msg, gseq, relay: false, vt },
    )
}

// ----- VS-VIEW: same-view agreement ------------------------------------

#[test]
fn vs_view_accepts_agreement_and_catches_divergence() {
    let mut tr = armed();
    install(&mut tr, 10, 1, 7, 3, &[1, 2, 3]);
    install(&mut tr, 11, 2, 7, 3, &[1, 2, 3]);
    assert!(tr.violations().is_empty());

    install(&mut tr, 12, 3, 7, 3, &[1, 3]);
    assert_eq!(tr.violations().len(), 1);
    let v = &tr.violations()[0];
    assert_eq!(v.monitor, "VS-VIEW");
    assert_eq!(v.pids, vec![3, 1], "offender first, then the first installer");
}

// ----- VS-PRIM: primary-partition uniqueness ---------------------------

#[test]
fn vs_prim_accepts_overlapping_views_and_catches_split_brain() {
    let mut tr = armed();
    install(&mut tr, 10, 1, 7, 3, &[1, 2, 3, 4]);
    install(&mut tr, 20, 2, 7, 4, &[2, 3, 4]);
    assert!(tr.violations().is_empty(), "shrinking majority view overlaps the old one");

    // p1 installs a view disjoint from p2's — two primaries.
    install(&mut tr, 30, 1, 7, 4, &[1, 5]);
    let v = tr
        .violations()
        .iter()
        .find(|v| v.monitor == "VS-PRIM")
        .expect("split brain caught");
    assert!(v.pids.contains(&1) && v.pids.contains(&2));
}

#[test]
fn vs_prim_ignores_stalled_and_crashed_members() {
    let mut tr = armed();
    install(&mut tr, 10, 1, 7, 3, &[1, 2]);
    install(&mut tr, 10, 2, 7, 3, &[1, 2]);
    // p2 stalls out (minority side), then p1 moves on without it: no
    // split brain — the stalled side is not a live primary.
    tr.record(20, 2, None, EventKind::GroupStall { gid: 7 });
    install(&mut tr, 30, 1, 7, 4, &[1, 9]);
    assert!(tr.violations().is_empty());

    // Same for a crash.
    tr.record(40, 1, None, EventKind::Crash);
    install(&mut tr, 50, 9, 7, 5, &[9]);
    assert!(tr.violations().is_empty());
}

// ----- VS-DIV: delivery-in-view ----------------------------------------

#[test]
fn ordering_monitors_exempt_only_cross_view_relays() {
    // A flush relay of `msg` to `pid`, delivered in `view` of group 7.
    let relay = |tr: &mut Tracer, at, pid, view, msg, gseq, vt| {
        tr.record(at, pid, None, EventKind::CastDeliver { gid: 7, view, msg, gseq, relay: true, vt })
    };
    let msg = MsgKey { sender: 1, view: 3, stream: 1, seq: 1 };
    let mut tr = armed();
    deliver(&mut tr, 10, 2, 7, 3, msg.clone(), 0, vec![]);
    assert!(tr.violations().is_empty());

    // Relayed copy in view 4: sanctioned flush catch-up.
    relay(&mut tr, 20, 3, 4, msg.clone(), 0, vec![]);
    assert!(tr.violations().is_empty());

    // Non-relay delivery in the wrong view: violation.
    deliver(&mut tr, 30, 4, 7, 4, msg, 0, vec![]);
    assert_eq!(tr.violations().len(), 1);
    assert_eq!(tr.violations()[0].monitor, "VS-DIV");

    // A relay of the current view's message is judged like any delivery:
    // a causal relay in order passes, one that skips a sender seq is caught.
    let causal = |seq: u64| MsgKey { sender: 1, view: 3, stream: 0, seq };
    let mut tr2 = armed();
    install(&mut tr2, 1, 9, 7, 3, &[1, 9]);
    relay(&mut tr2, 10, 9, 3, causal(1), 0, vec![(1, 1)]);
    assert!(tr2.violations().is_empty());
    relay(&mut tr2, 20, 9, 3, causal(3), 0, vec![(1, 3)]);
    let seen: Vec<_> = tr2.violations().iter().map(|v| (v.monitor, v.pids.clone())).collect();
    assert_eq!(seen, [("VS-CO", vec![9, 1])]);

    // So is a total relay that reuses another message's (view, gseq) slot.
    let total = |sender: u32| MsgKey { sender, view: 3, stream: 2, seq: 1 };
    deliver(&mut tr2, 30, 1, 7, 3, total(1), 1, vec![]);
    relay(&mut tr2, 40, 9, 3, total(2), 1, vec![]);
    let seen: Vec<_> = tr2.violations().iter().map(|v| (v.monitor, v.pids.clone())).collect();
    assert_eq!(seen, [("VS-CO", vec![9, 1]), ("VS-TO", vec![9, 1])]);
}

// ----- VS-CO: causal order ---------------------------------------------

#[test]
fn vs_co_accepts_causal_run_and_catches_gap_and_reorder() {
    let m = |sender: u32, seq: u64| MsgKey { sender, view: 3, stream: 0, seq };
    let mut tr = armed();
    install(&mut tr, 1, 9, 7, 3, &[1, 2, 9]);
    // p1 sends c1; p9 delivers it; p2's c1 depends on p1's c1. In order: ok.
    deliver(&mut tr, 10, 9, 7, 3, m(1, 1), 0, vec![(1, 1)]);
    deliver(&mut tr, 20, 9, 7, 3, m(2, 1), 0, vec![(1, 1), (2, 1)]);
    assert!(tr.violations().is_empty());

    // Fresh receiver delivering the dependent message *first*: caught.
    install(&mut tr, 30, 8, 7, 3, &[1, 2, 9]);
    deliver(&mut tr, 40, 8, 7, 3, m(2, 1), 0, vec![(1, 1), (2, 1)]);
    let v = &tr.violations()[0];
    assert_eq!(v.monitor, "VS-CO");
    assert_eq!(v.pids, vec![8, 2]);

    // Sender-seq gap (skipped c1, delivered c2): caught.
    let mut tr2 = armed();
    install(&mut tr2, 1, 9, 7, 3, &[1, 9]);
    deliver(&mut tr2, 10, 9, 7, 3, m(1, 2), 0, vec![(1, 2)]);
    assert_eq!(tr2.violations()[0].monitor, "VS-CO");
}

#[test]
fn vs_co_state_resets_at_view_boundaries() {
    let mut tr = armed();
    install(&mut tr, 1, 9, 7, 3, &[1, 9]);
    deliver(
        &mut tr,
        10,
        9,
        7,
        3,
        MsgKey { sender: 1, view: 3, stream: 0, seq: 1 },
        0,
        vec![(1, 1)],
    );
    // New view: sender seqs restart at 1.
    install(&mut tr, 20, 9, 7, 4, &[1, 9]);
    deliver(
        &mut tr,
        30,
        9,
        7,
        4,
        MsgKey { sender: 1, view: 4, stream: 0, seq: 1 },
        0,
        vec![(1, 1)],
    );
    assert!(tr.violations().is_empty());
}

// ----- VS-TO: total order ----------------------------------------------

#[test]
fn vs_to_catches_slot_disagreement_and_gseq_regression() {
    let m = |sender: u32, seq: u64| MsgKey { sender, view: 3, stream: 2, seq };
    let mut tr = armed();
    deliver(&mut tr, 10, 1, 7, 3, m(1, 1), 1, vec![]);
    deliver(&mut tr, 11, 2, 7, 3, m(1, 1), 1, vec![]);
    deliver(&mut tr, 12, 1, 7, 3, m(2, 1), 2, vec![]);
    assert!(tr.violations().is_empty());

    // p2 delivers a *different* message at slot 2: disagreement.
    deliver(&mut tr, 13, 2, 7, 3, m(1, 2), 2, vec![]);
    assert_eq!(tr.violations().len(), 1);
    let v = &tr.violations()[0];
    assert_eq!(v.monitor, "VS-TO");
    assert_eq!(v.pids, vec![2, 1]);

    // Regressing gseq at one receiver: also caught.
    let mut tr2 = armed();
    deliver(&mut tr2, 10, 1, 7, 3, m(1, 1), 5, vec![]);
    deliver(&mut tr2, 11, 1, 7, 3, m(2, 1), 4, vec![]);
    assert!(tr2.violations().iter().any(|v| v.monitor == "VS-TO"));
}

// ----- VS-STORE: bounded view storage ----------------------------------

#[test]
fn vs_store_checks_only_bounded_samples() {
    let mut tr = armed();
    tr.record(1, 3, None, EventKind::StorageSample { lgid: 1, bytes: 100, bound: 200 });
    tr.record(2, 3, None, EventKind::StorageSample { lgid: 1, bytes: 100, bound: 0 });
    assert!(tr.violations().is_empty());
    tr.record(3, 3, None, EventKind::StorageSample { lgid: 1, bytes: 300, bound: 200 });
    assert_eq!(tr.violations().len(), 1);
    assert_eq!(tr.violations()[0].monitor, "VS-STORE");
}

// ----- excerpts, query, export -----------------------------------------

#[test]
fn violation_excerpt_walks_the_causal_chain() {
    let mut tr = armed();
    let s = tr.record(1, 1, None, EventKind::NetSend { to: 2, bytes: 10 });
    let d = tr.record(5, 2, Some(s), EventKind::NetDeliver { from: 1, send: s });
    // Fault injected *with* a cause: the excerpt must reach back to the send.
    tr.inject(6, 2, Some(d), EventKind::StorageSample { lgid: 1, bytes: 9, bound: 1 });
    let v = &tr.violations()[0];
    let seqs: Vec<u64> = v.excerpt.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![s, d, v.seq], "excerpt is the chain, oldest first");
}

#[test]
fn dump_filter_chain_and_chrome_round_trip() {
    let mut tr = Tracer::new().retain_all();
    let s = tr.record(1, 1, None, EventKind::NetSend { to: 2, bytes: 10 });
    tr.record(5, 2, Some(s), EventKind::NetDeliver { from: 1, send: s });
    tr.record(
        6,
        2,
        Some(s + 1),
        EventKind::ViewInstall { gid: 4, view: 1, members: vec![1, 2], joined: true },
    );

    let (events, bad) = parse_dump(&tr.to_tsv());
    assert!(bad.is_empty());
    assert_eq!(events.len(), 3);

    let only_p2 = Filter { pid: Some(2), ..Filter::default() };
    assert_eq!(only_p2.apply(&events).len(), 2);
    let only_g4 = Filter { gid: Some(4), ..Filter::default() };
    assert_eq!(only_g4.apply(&events).len(), 1);

    let c = chain(&events, 3);
    assert_eq!(c.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 3]);

    let json = chrome::to_chrome(&events);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\": \"s\""), "flow start for the send");
    assert!(json.contains("\"ph\": \"f\""), "flow finish for the delivery");
}
