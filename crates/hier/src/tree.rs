//! Leaf-representative logic: the tree-structured atomic broadcast and
//! child-leaf monitoring.
//!
//! The broadcast maps onto the hierarchy exactly as the paper's section 5
//! describes: a message climbs from its origin to the root leaf, the root
//! stamps it with a global sequence number, and it flows down the implicit
//! fanout-ary tree — each representative contacting at most `fanout` child
//! leaves plus its own leaf (via an intra-leaf ABCAST). Acknowledgements
//! aggregate up the same tree; the origin learns `Resilient` after the
//! paper's `resiliency` acks and `Complete` when every subtree has
//! acknowledged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use now_sim::{Pid, SimTime};

use isis_core::{CastKind, GroupId, Uplink};

use crate::business::LargeApp;
use crate::config::ASSIGNED_CAP;
use crate::ids::{LargeGroupId, LbcastId};
use crate::member::HierApp;
use crate::msg::{CtlMsg, HierPayload, LbcastStatus, TreeMsg};
use crate::view::{LeafDesc, RoutingSlice};

/// Tracking for one in-flight broadcast at a representative.
#[derive(Debug)]
pub(crate) struct Track<Q> {
    pub id: LbcastId,
    pub epoch: u64,
    pub payload: Q,
    /// Our own leaf has delivered (our copy of the LeafDeliver arrived).
    pub own_done: bool,
    /// Child leaves that have not yet acked, with their last-known
    /// contacts.
    pub pending_children: BTreeMap<GroupId, Vec<Pid>>,
    pub last_send: SimTime,
    pub send_attempts: u32,
    /// Root only: member acks received (own delivery counts as one).
    pub member_acks: usize,
    pub resilient_sent: bool,
}

/// Per-large-group representative state: bounded by `O(fanout)` structure
/// plus in-flight broadcast tracking.
pub(crate) struct RepState<Q> {
    /// The leaf this process represents.
    pub leaf: GroupId,
    /// Routing slice pushed down from the leader (None until first push).
    pub slice: Option<RoutingSlice>,
    /// Last-known parent representative (updated from message senders).
    pub parent_rep: Option<Pid>,
    /// Next lseq expected from upstream (contiguity for global order).
    pub next_expected: u64,
    /// Out-of-order forwards buffered for contiguity.
    pub ooo: BTreeMap<u64, (u64, LbcastId, Q)>,
    pub ooo_since: Option<SimTime>,
    /// In-flight broadcasts awaiting subtree acks.
    pub unacked: BTreeMap<u64, Track<Q>>,
    /// Root only: global sequencing state.
    pub next_lseq: u64,
    pub assigned: BTreeMap<LbcastId, u64>,
    pub assigned_order: VecDeque<LbcastId>,
    /// Child-leaf liveness (total-failure detection).
    pub child_last: BTreeMap<GroupId, SimTime>,
    /// Dead children already reported (avoid report storms).
    pub reported_dead: BTreeSet<GroupId>,
    /// Last periodic contacts refresh sent to the leader.
    pub last_report: SimTime,
    /// Last liveness beacon sent up the tree.
    pub last_beacon: SimTime,
    /// Recently distributed broadcasts, re-forwarded to children that
    /// appear after a structure change (heals re-rooting races).
    pub recent: VecDeque<(u64, LbcastId, Q)>,
}

/// Entries kept in each rep's recent-broadcast cache (the root's stamp
/// cache has its own bound, [`ASSIGNED_CAP`]).
const RECENT_CAP: usize = 128;

impl<Q> RepState<Q> {
    pub(crate) fn new(leaf: GroupId) -> RepState<Q> {
        RepState {
            leaf,
            slice: None,
            parent_rep: None,
            next_expected: 1,
            ooo: BTreeMap::new(),
            ooo_since: None,
            unacked: BTreeMap::new(),
            next_lseq: 1,
            assigned: BTreeMap::new(),
            assigned_order: VecDeque::new(),
            child_last: BTreeMap::new(),
            reported_dead: BTreeSet::new(),
            last_report: SimTime::ZERO,
            last_beacon: SimTime::ZERO,
            recent: VecDeque::new(),
        }
    }

    pub(crate) fn is_root(&self) -> bool {
        self.slice.as_ref().is_some_and(RoutingSlice::is_root)
    }

    /// Estimated total storage (E7 stats): slice, in-flight tracking, and
    /// caches. Load-proportional — grows with concurrent broadcasts.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.routing_storage_bytes() + self.unacked.len() * 64 + self.assigned.len() * 24
    }

    /// Estimated *routing* storage: the part the paper bounds by structural
    /// parameters (slice size ∝ fanout, child liveness ∝ children). The
    /// VS-STORE invariant probe samples this, deliberately excluding
    /// transient in-flight tracking (`unacked`) and the root's assignment
    /// cache (`assigned`), which scale with offered load, are capped by
    /// their own mechanisms (ack draining, `ASSIGNED_CAP` eviction), and
    /// say nothing about how storage scales with group *size*. The
    /// now-chaos sweep caught the earlier conflation: a broadcast storm
    /// into a freshly dead leaf queues retransmissions and tripped a
    /// ceiling derived only from `max_leaf` and `fanout`.
    pub(crate) fn routing_storage_bytes(&self) -> usize {
        self.slice.as_ref().map_or(0, RoutingSlice::storage_bytes) + self.child_last.len() * 12
    }

    fn remember_assignment(&mut self, id: LbcastId, lseq: u64) {
        self.assigned.insert(id, lseq);
        self.assigned_order.push_back(id);
        while self.assigned_order.len() > ASSIGNED_CAP {
            if let Some(old) = self.assigned_order.pop_front() {
                self.assigned.remove(&old);
            }
        }
    }
}

impl<B: LargeApp> HierApp<B> {
    // ------------------------------------------------------------------
    // Submit path (climbing the tree)
    // ------------------------------------------------------------------

    /// A representative received (or originated) a submit: stamp it at the
    /// root, or climb one level. `from` is the pid that handed us the
    /// submit over the network (None when it originated locally).
    pub(crate) fn rep_handle_submit(
        &mut self,
        lgid: LargeGroupId,
        id: LbcastId,
        payload: B::Payload,
        from: Option<Pid>,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let Some(rep) = self.reps.get_mut(&lgid) else {
            up.bump("hier.submit.not_rep");
            return;
        };
        match &rep.slice {
            None => up.bump("hier.submit.no_slice"),
            Some(s) if s.is_root() => {
                // Stamp (deduplicating resubmits) and drive distribution.
                let lseq = match rep.assigned.get(&id) {
                    Some(&l) => l,
                    None => {
                        let l = rep.next_lseq;
                        rep.next_lseq += 1;
                        rep.remember_assignment(id, l);
                        l
                    }
                };
                self.rep_distribute(lgid, lseq, id, payload, up);
            }
            Some(s) => {
                // Climb: parent rep from the slice (refreshed by senders).
                // Never climb back to whoever just handed us the submit —
                // a stale parent pointer (e.g. at a pid whose previous
                // incarnation was a rep) would otherwise ping-pong it
                // between two processes at network latency until a slice
                // push repairs the pointer; dropping is safe because the
                // origin re-routes from `out` on its retry timer.
                let target = rep
                    .parent_rep
                    .or_else(|| s.parent.as_ref().and_then(LeafDesc::rep));
                match target {
                    Some(t) if t != up.me() && Some(t) != from => {
                        up.direct(t, HierPayload::Tree(TreeMsg::Submit { lgid, id, payload }));
                    }
                    _ => up.bump("hier.submit.no_parent"),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Down-tree distribution
    // ------------------------------------------------------------------

    /// Processes one stamped broadcast at this representative: ABCAST into
    /// our leaf, forward to children, and set up ack tracking.
    fn rep_distribute(
        &mut self,
        lgid: LargeGroupId,
        lseq: u64,
        id: LbcastId,
        payload: B::Payload,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let me = up.me();
        let now = up.now();
        let Some(rep) = self.reps.get_mut(&lgid) else {
            return;
        };
        if rep.unacked.contains_key(&lseq) {
            // Duplicate forward while still in flight: sender needs no
            // action, our retransmissions continue.
            return;
        }
        if rep.recent.iter().any(|(l, _, _)| *l == lseq) {
            // Genuinely processed before (it is in our distribution
            // record): re-ack upstream (their ack got lost), and re-answer
            // the origin if we are the root. An lseq merely *skipped* by
            // gap fast-forwarding does not take this path — it is
            // backfilled by normal distribution below.
            let leaf = rep.leaf;
            let parent = rep.parent_rep;
            let is_root = rep.is_root();
            if is_root {
                up.direct(
                    id.origin,
                    HierPayload::Tree(TreeMsg::OriginAck {
                        lgid,
                        id,
                        status: LbcastStatus::Complete,
                    }),
                );
            } else if let Some(p) = parent {
                up.direct(
                    p,
                    HierPayload::Tree(TreeMsg::SubtreeAck {
                        lgid,
                        epoch: 0,
                        lseq,
                        leaf,
                    }),
                );
            }
            return;
        }

        let (epoch, children, is_root) = match &rep.slice {
            Some(s) => (
                s.epoch,
                s.children
                    .iter()
                    .map(|c| (c.gid, c.contacts.clone()))
                    .collect::<Vec<_>>(),
                s.is_root(),
            ),
            None => (0, Vec::new(), false),
        };

        // Intra-leaf distribution (total order within the leaf).
        let ack_to = if is_root { Some(me) } else { None };
        up.cast(
            rep.leaf,
            CastKind::Total,
            HierPayload::Tree(TreeMsg::LeafDeliver {
                lgid,
                epoch,
                lseq,
                id,
                ack_to,
                payload: payload.clone(),
            }),
        );

        // Down-tree forwarding, at most `fanout` destinations.
        let mut pending = BTreeMap::new();
        for (gid, contacts) in children {
            if rep.reported_dead.contains(&gid) {
                continue;
            }
            if let Some(&c) = contacts.first() {
                up.direct(
                    c,
                    HierPayload::Tree(TreeMsg::Forward {
                        lgid,
                        epoch,
                        lseq,
                        id,
                        payload: payload.clone(),
                    }),
                );
            }
            pending.insert(gid, contacts);
        }
        rep.recent.push_back((lseq, id, payload.clone()));
        while rep.recent.len() > RECENT_CAP {
            rep.recent.pop_front();
        }
        rep.unacked.insert(
            lseq,
            Track {
                id,
                epoch,
                payload,
                own_done: false,
                pending_children: pending,
                last_send: now,
                send_attempts: 1,
                member_acks: 1, // Our own delivery will arrive via ABCAST;
                // count the origin-side copy conservatively at ack time
                // instead. Start at 1 for the rep itself.
                resilient_sent: false,
            },
        );
        if lseq >= rep.next_expected {
            rep.next_expected = lseq + 1;
        }
        self.rep_check_done(lgid, lseq, up);
    }

    /// Tree protocol messages arriving point-to-point at this process.
    pub(crate) fn rep_handle_tree(
        &mut self,
        from: Pid,
        msg: TreeMsg<B::Payload>,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        match msg {
            TreeMsg::Submit { lgid, id, payload } => {
                if self.reps.contains_key(&lgid) {
                    self.rep_handle_submit(lgid, id, payload, Some(from), up);
                } else if from == id.origin {
                    // We stopped being rep; bounce once toward the current
                    // one. Only a submit arriving straight from its origin
                    // may be re-routed — two members with stale views of
                    // each other would otherwise ping-pong a forwarded
                    // submit forever at network latency.
                    self.route_submit(lgid, id, payload, up);
                } else {
                    // A forwarded submit found no rep here: drop it. The
                    // origin holds it in `out` and re-routes on its retry
                    // timer once membership has settled.
                    up.bump("hier.submit.misrouted");
                }
            }
            TreeMsg::Forward {
                lgid,
                epoch,
                lseq,
                id,
                payload,
            } => {
                let Some(rep) = self.reps.get_mut(&lgid) else {
                    up.bump("hier.forward.not_rep");
                    return;
                };
                rep.parent_rep = Some(from);
                if lseq == rep.next_expected || rep.unacked.contains_key(&lseq) || lseq < rep.next_expected
                {
                    self.rep_distribute(lgid, lseq, id, payload, up);
                    // Contiguous continuation from the buffer.
                    while let Some(r) = self.reps.get_mut(&lgid) {
                        let next = r.next_expected;
                        let Some((_, bid, bpayload)) = r.ooo.remove(&next) else {
                            if r.ooo.is_empty() {
                                r.ooo_since = None;
                            }
                            break;
                        };
                        self.rep_distribute(lgid, next, bid, bpayload, up);
                    }
                } else {
                    // Gap: buffer until contiguous or the repair timeout
                    // forces progress.
                    if rep.ooo_since.is_none() {
                        rep.ooo_since = Some(up.now());
                    }
                    rep.ooo.insert(lseq, (epoch, id, payload));
                    up.bump("hier.forward.ooo");
                }
            }
            TreeMsg::SubtreeAck { lgid, lseq, leaf, .. } => {
                if let Some(rep) = self.reps.get_mut(&lgid) {
                    rep.child_last.insert(leaf, up.now());
                    if let Some(t) = rep.unacked.get_mut(&lseq) {
                        // Refresh the child's contact from the sender.
                        if let Some(contacts) = t.pending_children.get_mut(&leaf) {
                            if contacts.first() != Some(&from) {
                                contacts.insert(0, from);
                            }
                        }
                        t.pending_children.remove(&leaf);
                    }
                    self.rep_check_done(lgid, lseq, up);
                }
            }
            TreeMsg::MemberAck { lgid, lseq } => {
                let resiliency = self
                    .reps
                    .get(&lgid)
                    .and_then(|r| r.slice.as_ref())
                    .map_or(usize::MAX, |s| s.resiliency);
                if let Some(rep) = self.reps.get_mut(&lgid) {
                    if let Some(t) = rep.unacked.get_mut(&lseq) {
                        t.member_acks += 1;
                        if !t.resilient_sent && t.member_acks >= resiliency {
                            t.resilient_sent = true;
                            let (id, origin) = (t.id, t.id.origin);
                            if origin == up.me() {
                                self.origin_note_status(lgid, id, LbcastStatus::Resilient, up);
                            } else {
                                up.direct(
                                    origin,
                                    HierPayload::Tree(TreeMsg::OriginAck {
                                        lgid,
                                        id,
                                        status: LbcastStatus::Resilient,
                                    }),
                                );
                            }
                        }
                    }
                }
            }
            TreeMsg::OriginAck { lgid, id, status } => {
                self.origin_note_status(lgid, id, status, up);
            }
            TreeMsg::LeafDeliver { .. } => up.bump("hier.tree.misrouted"),
        }
    }

    /// Our own leaf delivered a LeafDeliver we are tracking.
    pub(crate) fn rep_note_own_leaf_delivery(
        &mut self,
        lgid: LargeGroupId,
        lseq: u64,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let Some(rep) = self.reps.get_mut(&lgid) else {
            return;
        };
        if let Some(t) = rep.unacked.get_mut(&lseq) {
            t.own_done = true;
        }
        self.rep_check_done(lgid, lseq, up);
    }

    /// Completes a broadcast at this rep if its leaf and all children are
    /// done: acks upstream or (at the root) notifies the origin.
    fn rep_check_done(&mut self, lgid: LargeGroupId, lseq: u64, up: &mut Uplink<'_, '_, Self>) {
        let me = up.me();
        let Some(rep) = self.reps.get_mut(&lgid) else {
            return;
        };
        let done = rep
            .unacked
            .get(&lseq)
            .is_some_and(|t| t.own_done && t.pending_children.is_empty());
        if !done {
            return;
        }
        let t = rep.unacked.remove(&lseq).expect("checked above");
        let leaf = rep.leaf;
        let parent = rep.parent_rep.or_else(|| {
            rep.slice
                .as_ref()
                .and_then(|s| s.parent.as_ref().and_then(LeafDesc::rep))
        });
        if rep.is_root() {
            if t.id.origin == me {
                self.origin_note_status(lgid, t.id, LbcastStatus::Complete, up);
            } else {
                up.direct(
                    t.id.origin,
                    HierPayload::Tree(TreeMsg::OriginAck {
                        lgid,
                        id: t.id,
                        status: LbcastStatus::Complete,
                    }),
                );
            }
        } else if let Some(p) = parent {
            up.direct(
                p,
                HierPayload::Tree(TreeMsg::SubtreeAck {
                    lgid,
                    epoch: t.epoch,
                    lseq,
                    leaf,
                }),
            );
        }
    }

    /// Origin-side bookkeeping of broadcast progress.
    pub(crate) fn origin_note_status(
        &mut self,
        lgid: LargeGroupId,
        id: LbcastId,
        status: LbcastStatus,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let Some(ms) = self.members.get_mut(&lgid) else {
            return;
        };
        let Some(o) = ms.out.get_mut(&id) else {
            return;
        };
        // Complete subsumes Resilient (every subtree delivered certainly
        // includes `resiliency` processes); report the milestones in order.
        let mut reports: Vec<LbcastStatus> = Vec::new();
        match status {
            LbcastStatus::Resilient => {
                if !o.resilient {
                    o.resilient = true;
                    reports.push(LbcastStatus::Resilient);
                }
            }
            LbcastStatus::Complete => {
                if !o.resilient {
                    o.resilient = true;
                    reports.push(LbcastStatus::Resilient);
                }
                reports.push(LbcastStatus::Complete);
                ms.out.remove(&id);
            }
        }
        for st in reports {
            self.with_business(up, |biz, lup| {
                biz.on_lbcast_status(lgid, id, st, lup);
            });
        }
    }

    // ------------------------------------------------------------------
    // Control traffic addressed to reps (and leaders; see leader.rs)
    // ------------------------------------------------------------------

    /// Installs a pushed routing slice at this rep (whose leaf it must
    /// describe). `parent` is the sender when the slice came down the tree
    /// from our parent rep, `None` when the leader sent it directly.
    fn rep_install_slice(
        &mut self,
        slice: RoutingSlice,
        parent: Option<Pid>,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let lgid = slice.lgid;
        let now = up.now();
        let Some(rep) = self.reps.get_mut(&lgid) else {
            return;
        };
        if slice.is_root() && !rep.is_root() {
            // Continue the global sequence from what we have seen.
            rep.next_lseq = rep.next_lseq.max(rep.next_expected);
        }
        let old_children: Vec<GroupId> = rep
            .slice
            .as_ref()
            .map(|s| s.children.iter().map(|c| c.gid).collect())
            .unwrap_or_default();
        let mut catch_up: Vec<Pid> = Vec::new();
        for child in &slice.children {
            rep.child_last.entry(child.gid).or_insert(now);
            if let Some(c) = child.rep() {
                if !old_children.contains(&child.gid) {
                    catch_up.push(c);
                }
            }
        }
        let is_child = |g: &GroupId| slice.children.iter().any(|c| c.gid == *g);
        rep.reported_dead.retain(is_child);
        rep.child_last.retain(|g, _| is_child(g));
        // A slice from down the tree names its sender as our parent rep.
        // The leader's direct pushes must not hijack the pointer; they only
        // drop one that the fresh slice no longer corroborates.
        if slice.is_root() {
            rep.parent_rep = None;
        } else if parent.is_some() {
            rep.parent_rep = parent;
        } else if let Some(pr) = rep.parent_rep {
            let still_valid = slice
                .parent
                .as_ref()
                .is_some_and(|p| p.contacts.contains(&pr));
            if !still_valid {
                rep.parent_rep = slice.parent.as_ref().and_then(LeafDesc::rep);
            }
        }
        if let Some(ms) = self.members.get_mut(&lgid) {
            for &c in &slice.leader_contacts {
                if !ms.leader_contacts.contains(&c) {
                    ms.leader_contacts.push(c);
                }
            }
            ms.leader_contacts.truncate(6);
        }
        let epoch = slice.epoch;
        self.slices_cache.insert(lgid, slice.clone());
        let rep = self.reps.get_mut(&lgid).expect("rep checked above");
        rep.slice = Some(slice);
        // Children that just appeared under us may have missed
        // broadcasts distributed during the structure change:
        // re-forward the recent cache (receivers deduplicate).
        for c in catch_up {
            for (lseq, id, payload) in &rep.recent {
                up.bump("hier.forward.catchup");
                up.direct(
                    c,
                    HierPayload::Tree(TreeMsg::Forward {
                        lgid,
                        epoch,
                        lseq: *lseq,
                        id: *id,
                        payload: payload.clone(),
                    }),
                );
            }
        }
    }

    pub(crate) fn rep_or_leader_ctl(
        &mut self,
        from: Pid,
        msg: CtlMsg,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        match msg {
            CtlMsg::HierPush { view } => {
                // Leaders ignore pushes; reps pass the view to child reps
                // and keep only their own slice.
                let Some(rep) = self.reps.get(&view.lgid) else {
                    return;
                };
                let Some(idx) = view.index_of(rep.leaf) else {
                    // We are no longer in the structure (dead-leaf repair
                    // raced a revival); wait for membership to catch up.
                    up.bump("hier.push.orphan");
                    return;
                };
                let slice = view.slice_for(idx);
                for c in slice.children.iter().filter_map(LeafDesc::rep) {
                    up.direct(c, HierPayload::Ctl(CtlMsg::HierPush { view: Arc::clone(&view) }));
                }
                // It came down the tree, so the sender is our parent rep.
                self.rep_install_slice(slice, Some(from), up);
            }
            CtlMsg::SlicePush { slice } => {
                let Some(rep) = self.reps.get(&slice.lgid) else {
                    return;
                };
                if slice.my_gid != rep.leaf {
                    // Addressed to us as the rep of a leaf we have left.
                    up.bump("hier.push.stale");
                    return;
                }
                // From the leader, which must not become our parent rep.
                self.rep_install_slice(*slice, None, up);
            }
            CtlMsg::SplitLeaf {
                lgid,
                leaf,
                new_leaf,
                ..
            } => {
                // Choose movers deterministically: the newer half of the
                // leaf, so the rep (oldest) stays.
                let Some(ms) = self.members.get(&lgid) else {
                    return;
                };
                if ms.leaf != Some(leaf) || !self.reps.contains_key(&lgid) {
                    return;
                }
                let members = &ms.leaf_members;
                let movers: Vec<Pid> = members[members.len() / 2..].to_vec();
                if movers.is_empty() || movers.len() == members.len() {
                    return;
                }
                let mut leader_contacts = ms.leader_contacts.clone();
                if !leader_contacts.contains(&from) {
                    leader_contacts.insert(0, from);
                }
                up.cast(
                    leaf,
                    CastKind::Total,
                    HierPayload::Ctl(CtlMsg::DoSplit {
                        lgid,
                        new_leaf,
                        movers,
                        leader_contacts,
                    }),
                );
            }
            CtlMsg::DissolveLeaf {
                lgid,
                leaf,
                target,
                target_contacts,
            } => {
                let Some(ms) = self.members.get(&lgid) else {
                    return;
                };
                if ms.leaf != Some(leaf) || !self.reps.contains_key(&lgid) {
                    return;
                }
                let mut leader_contacts = ms.leader_contacts.clone();
                if !leader_contacts.contains(&from) {
                    leader_contacts.insert(0, from);
                }
                up.cast(
                    leaf,
                    CastKind::Total,
                    HierPayload::Ctl(CtlMsg::DoDissolve {
                        lgid,
                        target,
                        target_contacts,
                        leader_contacts,
                    }),
                );
            }
            CtlMsg::LeafBeacon {
                lgid,
                leaf,
                contacts,
                ..
            } => {
                // From a child rep (or, at the leader, from the root rep).
                if let Some(rep) = self.reps.get_mut(&lgid) {
                    rep.child_last.insert(leaf, up.now());
                    rep.reported_dead.remove(&leaf);
                    if let Some(s) = &mut rep.slice {
                        for c in &mut s.children {
                            if c.gid == leaf {
                                c.contacts = contacts.clone();
                            }
                        }
                    }
                }
                // Only the root leaf's beacon proves the root alive: a
                // slice-less rep also beacons the leader, and must not mask
                // a dead root.
                let from_root = self
                    .leaders
                    .get(&lgid)
                    .and_then(|r| r.view.root())
                    .is_some_and(|l| l.gid == leaf);
                if from_root {
                    self.root_beacons.insert(lgid, up.now());
                }
            }
            CtlMsg::JoinLargeReq { .. }
            | CtlMsg::ContactsUpdate { .. }
            | CtlMsg::LeafDeadReport { .. } => self.leader_handle_ctl(from, msg, up),
            other => {
                let _ = other;
                up.bump("hier.ctl.unhandled");
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic rep housekeeping
    // ------------------------------------------------------------------

    pub(crate) fn rep_tick(&mut self, up: &mut Uplink<'_, '_, Self>) {
        let now = up.now();
        let retry = self.timers.repair_timeout;
        let dead_after = self.timers.leaf_dead_timeout;
        let lgids: Vec<LargeGroupId> = self.reps.keys().copied().collect();
        for lgid in lgids {
            // Beacon to our parent (or the leader if we are the root),
            // paced at a quarter of the dead-leaf timeout.
            let due = {
                let rep = self.reps.get_mut(&lgid).expect("key just listed");
                if now.since(rep.last_beacon) >= dead_after / 8 {
                    rep.last_beacon = now;
                    true
                } else {
                    false
                }
            };
            let beacon = if !due {
                None
            } else {
                let leader_fallback = self.leader_contact(lgid);
                let ms = self.members.get(&lgid);
                let rep = self.reps.get(&lgid).expect("key just listed");
                let contacts: Vec<Pid> = ms
                    .map(|m| m.leaf_members.iter().copied().take(4).collect())
                    .unwrap_or_default();
                let epoch = rep.slice.as_ref().map_or(0, |s| s.epoch);
                let target = if rep.is_root() || rep.slice.is_none() {
                    rep.slice
                        .as_ref()
                        .and_then(|s| s.leader_contacts.first().copied())
                        .or(leader_fallback)
                } else {
                    rep.parent_rep.or_else(|| {
                        rep.slice
                            .as_ref()
                            .and_then(|s| s.parent.as_ref().and_then(LeafDesc::rep))
                    })
                };
                target.map(|t| (t, rep.leaf, epoch, contacts))
            };
            if let Some((t, leaf, epoch, contacts)) = beacon {
                if t != up.me() {
                    up.direct(
                        t,
                        HierPayload::Ctl(CtlMsg::LeafBeacon {
                            lgid,
                            leaf,
                            epoch,
                            contacts,
                        }),
                    );
                }
            }

            // Periodic contacts refresh to the leader: keeps the leader's
            // view fresh and drives debounced undersize detection.
            let refresh = {
                let rep = self.reps.get_mut(&lgid).expect("key just listed");
                if now.since(rep.last_report) >= dead_after / 2 {
                    rep.last_report = now;
                    let leaf = rep.leaf;
                    self.members.get(&lgid).map(|m| {
                        (
                            leaf,
                            m.leaf_members.iter().copied().take(4).collect::<Vec<Pid>>(),
                            m.leaf_members.len(),
                        )
                    })
                } else {
                    None
                }
            };
            if let Some((leaf, contacts, size)) = refresh {
                if size > 0 {
                    if let Some(lc) = self.leader_contact_rotating(lgid) {
                        up.direct(
                            lc,
                            HierPayload::Ctl(CtlMsg::ContactsUpdate {
                                lgid,
                                leaf,
                                contacts,
                                size,
                            }),
                        );
                    }
                }
            }

            // Child-leaf total-failure detection.
            let dead: Vec<GroupId> = {
                let rep = self.reps.get(&lgid).expect("key just listed");
                rep.child_last
                    .iter()
                    .filter(|(g, &t)| {
                        now.since(t) > dead_after && !rep.reported_dead.contains(*g)
                    })
                    .map(|(&g, _)| g)
                    .collect()
            };
            for g in dead {
                if let Some(rep) = self.reps.get_mut(&lgid) {
                    rep.reported_dead.insert(g);
                }
                if let Some(lc) = self.leader_contact_rotating(lgid) {
                    up.bump("hier.leaf_dead_reports");
                    up.direct(
                        lc,
                        HierPayload::Ctl(CtlMsg::LeafDeadReport { lgid, leaf: g }),
                    );
                }
            }

            // Retransmit unacked forwards.
            type Resend<P> = Vec<(u64, LbcastId, P, Vec<Vec<Pid>>, u64)>;
            let resend: Resend<B::Payload> = {
                let rep = self.reps.get_mut(&lgid).expect("key just listed");
                // Retarget from the *current* slice: beacons and pushes
                // keep its child contacts fresh, whereas the contacts
                // captured when the broadcast was first forwarded may all
                // be dead by now.
                let fresh: Vec<(GroupId, Vec<Pid>)> = rep
                    .slice
                    .as_ref()
                    .map(|s| {
                        s.children
                            .iter()
                            .map(|c| (c.gid, c.contacts.clone()))
                            .collect()
                    })
                    .unwrap_or_default();
                rep.unacked
                    .iter_mut()
                    .filter(|(_, t)| now.since(t.last_send) >= retry)
                    .map(|(&lseq, t)| {
                        t.last_send = now;
                        t.send_attempts += 1;
                        let targets: Vec<Vec<Pid>> = t
                            .pending_children
                            .iter()
                            .map(|(g, captured)| {
                                let mut c: Vec<Pid> = fresh
                                    .iter()
                                    .find(|(fg, _)| fg == g)
                                    .map(|(_, fc)| fc.clone())
                                    .unwrap_or_default();
                                for &p in captured {
                                    if !c.contains(&p) {
                                        c.push(p);
                                    }
                                }
                                c
                            })
                            .collect();
                        (lseq, t.id, t.payload.clone(), targets, t.send_attempts as u64)
                    })
                    .collect()
            };
            for (lseq, id, payload, targets, attempt) in resend {
                let epoch = self
                    .reps
                    .get(&lgid)
                    .and_then(|r| r.slice.as_ref())
                    .map_or(0, |s| s.epoch);
                for contacts in targets {
                    if contacts.is_empty() {
                        continue;
                    }
                    // Rotate through contacts on consecutive attempts.
                    let c = contacts[(attempt as usize) % contacts.len()];
                    up.bump("hier.forward.retry");
                    up.direct(
                        c,
                        HierPayload::Tree(TreeMsg::Forward {
                            lgid,
                            epoch,
                            lseq,
                            id,
                            payload: payload.clone(),
                        }),
                    );
                }
            }

            // Force progress past a persistent sequence gap.
            let force: Vec<(u64, LbcastId, B::Payload)> = {
                let rep = self.reps.get_mut(&lgid).expect("key just listed");
                match rep.ooo_since {
                    Some(t0) if now.since(t0) >= retry && !rep.ooo.is_empty() => {
                        let drained: Vec<(u64, LbcastId, B::Payload)> = rep
                            .ooo
                            .iter()
                            .map(|(&l, (_, id, p))| (l, *id, p.clone()))
                            .collect();
                        rep.ooo.clear();
                        rep.ooo_since = None;
                        up.bump("hier.forward.gap_skipped");
                        drained
                    }
                    _ => Vec::new(),
                }
            };
            for (lseq, id, payload) in force {
                if let Some(rep) = self.reps.get_mut(&lgid) {
                    if lseq >= rep.next_expected {
                        rep.next_expected = lseq;
                    }
                }
                self.rep_distribute(lgid, lseq, id, payload, up);
            }
        }
    }
}
