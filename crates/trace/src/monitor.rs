//! Online virtual-synchrony invariant monitors.
//!
//! The monitors consume the event stream *as it is recorded* and flag the
//! first violation of the guarantees the protocol stack claims (DESIGN.md,
//! "Virtual synchrony"). Catalog:
//!
//! | id        | guards                                                      |
//! |-----------|-------------------------------------------------------------|
//! | VS-VIEW   | same-view agreement: every installer of view v of a group   |
//! |           | sees the identical membership list                          |
//! | VS-PRIM   | primary-partition uniqueness: no two live members of one    |
//! |           | group hold disjoint (split-brain) views concurrently        |
//! | VS-DIV    | delivery-in-view: a broadcast is delivered in the view it   |
//! |           | was sent in (cross-view flush relays are the exception)     |
//! | VS-CO     | CBCAST causal order: a causal delivery's vector time is     |
//! |           | deliverable w.r.t. what the receiver already delivered      |
//! | VS-TO     | ABCAST total order: one message per (view, gseq) slot, and  |
//! |           | per-receiver gseq strictly increases within a view          |
//! | VS-STORE  | bounded view storage: per-member routing state stays under  |
//! |           | the configured ceiling (E7)                                 |
//! | VS-REJOIN | incarnation safety: a restarted pid delivers nothing in a   |
//! |           | group before installing a post-restart view there, never    |
//! |           | from a view preceding its rejoin view, and never a message  |
//! |           | its previous life already delivered                         |
//!
//! State is per-(group, pid) and resets on view installs / leaves / crashes,
//! so memory stays proportional to live membership, not run length.
//! VS-REJOIN keeps "ghost" delivery floors of each dead pid's last life
//! (bounded by the pid count) so a forged resurrection is caught even if it
//! replays traffic byte-for-byte.

use std::collections::BTreeMap;

use crate::event::{EventKind, MsgKey, TraceEvent};

/// One detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Monitor id from the catalog (`VS-…`).
    pub monitor: &'static str,
    /// Simulated time of the offending event.
    pub at: u64,
    /// Seq of the offending event.
    pub seq: u64,
    /// The pids implicated (offender first).
    pub pids: Vec<u32>,
    /// Human-readable description of what was violated and how.
    pub detail: String,
    /// Minimal causal excerpt ending at the offending event (filled in by
    /// the tracer, which owns the retained event window).
    pub excerpt: Vec<TraceEvent>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "invariant violation [{}] at t={}us seq={} pids={:?}: {}",
            self.monitor, self.at, self.seq, self.pids, self.detail
        )?;
        if !self.excerpt.is_empty() {
            writeln!(f, "causal excerpt (oldest first):")?;
            for ev in &self.excerpt {
                writeln!(f, "  {}", ev.to_tsv())?;
            }
        }
        Ok(())
    }
}

/// The full monitor set, fed one event at a time via [`Monitors::observe`].
#[derive(Debug, Default)]
pub struct Monitors {
    /// VS-VIEW: (gid, view) -> (members, first installer pid, first seq).
    views: BTreeMap<(u64, u64), (Vec<u32>, u32, u64)>,
    /// VS-PRIM: gid -> pid -> members of that pid's current live view.
    live: BTreeMap<u64, BTreeMap<u32, Vec<u32>>>,
    /// VS-CO: (gid, pid) -> (view, delivered seq per sender).
    causal: BTreeMap<(u64, u32), (u64, BTreeMap<u32, u64>)>,
    /// VS-TO: (gid, view, gseq) -> (msg, first deliverer pid).
    slots: BTreeMap<(u64, u64, u64), (MsgKey, u32)>,
    /// VS-TO: (gid, pid) -> (view, last delivered gseq).
    last_gseq: BTreeMap<(u64, u32), (u64, u64)>,
    /// VS-REJOIN: delivery floors of a dead pid's last life, stashed at
    /// crash/halt: (gid, pid) -> (view, delivered seq per sender).
    ghosts: BTreeMap<(u64, u32), (u64, BTreeMap<u32, u64>)>,
    /// VS-REJOIN: total-order floor of a dead pid's last life:
    /// (gid, pid) -> (view, last delivered gseq).
    ghost_gseq: BTreeMap<(u64, u32), (u64, u64)>,
    /// VS-REJOIN: restarted pids -> gid -> first view installed since the
    /// latest restart (the rejoin view). A pid key appears on `Restart` and
    /// its gid map restarts empty, so "delivered before rejoining" is a
    /// lookup miss.
    rejoined: BTreeMap<u32, BTreeMap<u64, u64>>,
    /// Count of events observed (exposed so runs can assert coverage).
    observed: u64,
}

impl Monitors {
    /// Fresh monitor set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Feeds one event; returns any violations it triggers (excerpts empty —
    /// the tracer fills them from its retained window).
    pub fn observe(&mut self, ev: &TraceEvent) -> Vec<Violation> {
        self.observed += 1;
        let mut out = Vec::new();
        let v = |monitor: &'static str, pids: Vec<u32>, detail: String| Violation {
            monitor,
            at: ev.at,
            seq: ev.seq,
            pids,
            detail,
            excerpt: Vec::new(),
        };
        match &ev.kind {
            EventKind::ViewInstall { gid, view, members, .. } => {
                // VS-VIEW: all installers of (gid, view) agree on membership.
                match self.views.get(&(*gid, *view)) {
                    None => {
                        self.views.insert((*gid, *view), (members.clone(), ev.pid, ev.seq));
                    }
                    Some((first, by, at_seq)) if first != members => out.push(v(
                        "VS-VIEW",
                        vec![ev.pid, *by],
                        format!(
                            "view {view} of group {gid} installed with members {members:?} at p{}, \
                             but p{} installed it with {first:?} (seq {at_seq})",
                            ev.pid, by
                        ),
                    )),
                    Some(_) => {}
                }
                // VS-PRIM: no two live members hold disjoint views.
                let gl = self.live.entry(*gid).or_default();
                gl.insert(ev.pid, members.clone());
                for (q, qm) in gl.iter() {
                    if *q != ev.pid && members.iter().all(|m| !qm.contains(m)) {
                        out.push(v(
                            "VS-PRIM",
                            vec![ev.pid, *q],
                            format!(
                                "split brain in group {gid}: p{} installed view {view} with \
                                 members {members:?}, disjoint from p{q}'s live view {qm:?}",
                                ev.pid
                            ),
                        ));
                    }
                }
                // Per-view receiver state starts over.
                self.causal.insert((*gid, ev.pid), (*view, BTreeMap::new()));
                self.last_gseq.insert((*gid, ev.pid), (*view, 0));
                // A view-1 install means `gid` now names a brand-new group
                // instance (gids are slot-based and reused after a dissolve,
                // and view numbering restarts at 1): floors stashed from the
                // previous instance no longer describe this group.
                if *view == 1 {
                    self.ghosts.retain(|(g, _), _| g != gid);
                    self.ghost_gseq.retain(|(g, _), _| g != gid);
                }
                // VS-REJOIN: a restarted pid's first install in a group is
                // its rejoin view there.
                if let Some(r) = self.rejoined.get_mut(&ev.pid) {
                    r.entry(*gid).or_insert(*view);
                }
            }
            EventKind::CastDeliver { gid, view, msg, gseq, relay, vt } => {
                // VS-REJOIN: nothing may be delivered at a restarted pid in
                // a group it has not rejoined, nor from a view preceding the
                // rejoin view — a late message for the previous life must be
                // dropped by the engine, so seeing one delivered means a
                // zombie resurrected.
                if let Some(r) = self.rejoined.get(&ev.pid) {
                    match r.get(gid) {
                        None => out.push(v(
                            "VS-REJOIN",
                            vec![ev.pid, msg.sender],
                            format!(
                                "group {gid}: restarted p{} delivered p{}@v{}c{} before \
                                 installing any post-restart view of the group",
                                ev.pid, msg.sender, msg.view, msg.seq
                            ),
                        )),
                        Some(rv) if *view < *rv => out.push(v(
                            "VS-REJOIN",
                            vec![ev.pid, msg.sender],
                            format!(
                                "group {gid}: restarted p{} delivered p{}@v{}c{} in view \
                                 {view}, preceding its rejoin view {rv}",
                                ev.pid, msg.sender, msg.view, msg.seq
                            ),
                        )),
                        Some(_) => {}
                    }
                }
                // VS-REJOIN: no double-delivery across incarnations — the
                // previous life's floors are final.
                if let Some((gv, del)) = self.ghosts.get(&(*gid, ev.pid)) {
                    if msg.view == *gv
                        && msg.seq > 0
                        && msg.seq <= del.get(&msg.sender).copied().unwrap_or(0)
                    {
                        out.push(v(
                            "VS-REJOIN",
                            vec![ev.pid, msg.sender],
                            format!(
                                "group {gid}: p{} re-delivered p{}@v{}c{}, already delivered \
                                 by its previous incarnation",
                                ev.pid, msg.sender, msg.view, msg.seq
                            ),
                        ));
                    }
                }
                if let Some((gv, lg)) = self.ghost_gseq.get(&(*gid, ev.pid)) {
                    if *view == *gv && *gseq > 0 && *gseq <= *lg {
                        out.push(v(
                            "VS-REJOIN",
                            vec![ev.pid],
                            format!(
                                "group {gid} view {view}: p{} re-delivered gseq {gseq}, \
                                 already past {lg} in its previous incarnation",
                                ev.pid
                            ),
                        ));
                    }
                }
                if *relay && msg.view != *view {
                    // Cross-view flush catch-up: fold into receiver state,
                    // no checks. A same-view relay is judged like any other.
                    let (cv, del) = self
                        .causal
                        .entry((*gid, ev.pid))
                        .or_insert_with(|| (*view, BTreeMap::new()));
                    if *cv != *view {
                        (*cv, *del) = (*view, BTreeMap::new());
                    }
                    for (q, s) in vt {
                        let e = del.entry(*q).or_insert(0);
                        *e = (*e).max(*s);
                    }
                    let e = del.entry(msg.sender).or_insert(0);
                    *e = (*e).max(msg.seq);
                    if *gseq > 0 {
                        let (lv, lg) = self.last_gseq.entry((*gid, ev.pid)).or_insert((*view, 0));
                        if *lv != *view {
                            (*lv, *lg) = (*view, 0);
                        }
                        *lg = (*lg).max(*gseq);
                    }
                } else {
                    // VS-DIV: delivery happens in the view the msg was sent in.
                    if msg.view != *view {
                        out.push(v(
                            "VS-DIV",
                            vec![ev.pid, msg.sender],
                            format!(
                                "group {gid}: message p{}@v{}c{} delivered at p{} in view {view}, \
                                 not the view it was sent in",
                                msg.sender, msg.view, msg.seq, ev.pid
                            ),
                        ));
                    }
                    // VS-CO: causal stream obeys the vector-clock gate.
                    if msg.stream == 0 {
                        let (cv, del) = self
                            .causal
                            .entry((*gid, ev.pid))
                            .or_insert_with(|| (*view, BTreeMap::new()));
                        if *cv != *view {
                            (*cv, *del) = (*view, BTreeMap::new());
                        }
                        let mut why = None;
                        for (q, s) in vt {
                            let have = del.get(q).copied().unwrap_or(0);
                            if *q == msg.sender {
                                if *s != have + 1 {
                                    why = Some(format!(
                                        "sender slot {s} != delivered {have} + 1"
                                    ));
                                }
                            } else if *s > have {
                                why = Some(format!(
                                    "depends on p{q}:{s} but receiver only delivered {have}"
                                ));
                            }
                        }
                        if let Some(why) = why {
                            out.push(v(
                                "VS-CO",
                                vec![ev.pid, msg.sender],
                                format!(
                                    "causal order broken in group {gid} view {view}: delivery of \
                                     p{}@v{}c{} at p{} with vt {vt:?} — {why}",
                                    msg.sender, msg.view, msg.seq, ev.pid
                                ),
                            ));
                        }
                        let e = del.entry(msg.sender).or_insert(0);
                        *e = (*e).max(msg.seq);
                    }
                    // VS-TO: one message per slot, strictly increasing gseq.
                    if msg.stream == 2 && *gseq > 0 {
                        match self.slots.get(&(*gid, *view, *gseq)) {
                            None => {
                                self.slots.insert((*gid, *view, *gseq), (msg.clone(), ev.pid));
                            }
                            Some((m0, p0)) if m0 != msg => out.push(v(
                                "VS-TO",
                                vec![ev.pid, *p0],
                                format!(
                                    "total order broken in group {gid} view {view}: slot {gseq} \
                                     is p{}@v{}c{} at p{} but was p{}@v{}c{} at p{p0}",
                                    msg.sender, msg.view, msg.seq, ev.pid, m0.sender, m0.view, m0.seq
                                ),
                            )),
                            Some(_) => {}
                        }
                        let (lv, lg) = self.last_gseq.entry((*gid, ev.pid)).or_insert((*view, 0));
                        if *lv != *view {
                            (*lv, *lg) = (*view, 0);
                        }
                        if *gseq <= *lg {
                            out.push(v(
                                "VS-TO",
                                vec![ev.pid],
                                format!(
                                    "total order broken in group {gid} view {view}: p{} delivered \
                                     gseq {gseq} after already delivering {lg}",
                                    ev.pid
                                ),
                            ));
                        }
                        *lg = (*lg).max(*gseq);
                    }
                }
            }
            EventKind::GroupLeft { gid } | EventKind::GroupStall { gid } => {
                self.drop_member(*gid, ev.pid);
            }
            EventKind::Crash | EventKind::Halt => {
                // Stash this life's delivery floors before dropping live
                // state: a later incarnation is checked against them.
                let keys: Vec<(u64, u32)> = self
                    .causal
                    .keys()
                    .filter(|(_, p)| *p == ev.pid)
                    .copied()
                    .collect();
                for k in keys {
                    if let Some(st) = self.causal.get(&k) {
                        self.ghosts.insert(k, st.clone());
                    }
                }
                let gkeys: Vec<(u64, u32)> = self
                    .last_gseq
                    .keys()
                    .filter(|(_, p)| *p == ev.pid)
                    .copied()
                    .collect();
                for k in gkeys {
                    if let Some(st) = self.last_gseq.get(&k) {
                        self.ghost_gseq.insert(k, *st);
                    }
                }
                let gids: Vec<u64> = self.live.keys().copied().collect();
                for gid in gids {
                    self.drop_member(gid, ev.pid);
                }
            }
            EventKind::Restart { .. } => {
                // A fresh life: no group rejoined yet. Roles and views must
                // be re-earned, never resumed.
                self.rejoined.insert(ev.pid, BTreeMap::new());
            }
            EventKind::StorageSample { lgid, bytes, bound } if *bound > 0 && *bytes > *bound => {
                out.push(v(
                    "VS-STORE",
                    vec![ev.pid],
                    format!(
                        "bounded view storage exceeded in large group {lgid}: p{} holds \
                         {bytes} bytes of routing state, ceiling is {bound}",
                        ev.pid
                    ),
                ));
            }
            _ => {}
        }
        out
    }

    /// Forgets per-member state when a pid leaves/stalls/crashes out of a
    /// group, so a stalled minority is not counted as a live primary.
    fn drop_member(&mut self, gid: u64, pid: u32) {
        if let Some(gl) = self.live.get_mut(&gid) {
            gl.remove(&pid);
        }
        self.causal.remove(&(gid, pid));
        self.last_gseq.remove(&(gid, pid));
    }
}
