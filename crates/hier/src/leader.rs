//! The leader group: a small resilient ISIS group whose members replicate
//! the hierarchy view and manage it — admitting members, splitting
//! oversized leaves, merging undersized ones, and repairing total leaf
//! failures (section 3 of the paper: "a new resilient group, called the
//! group leader, is constructed, whose function is to manage the group
//! view ... It is the leader which is informed of the total failure of one
//! of the child subgroups, and which is responsible for splitting subgroups
//! which have grown too large, and merging subgroups which are too
//! small.").
//!
//! Replication pattern: every state change is an ABCAST of a
//! [`LeaderCmd`] within the leader group; members apply commands in the
//! agreed total order, so their replicas never diverge. The *active*
//! leader (the group's oldest member) additionally performs the external
//! side effects; on failover the next member re-drives pending operations
//! — the coordinator-cohort pattern from the ISIS toolkit, applied to the
//! hierarchy manager itself.

use std::collections::BTreeMap;
use std::sync::Arc;

use now_sim::trace::EventKind as TraceKind;
use now_sim::Pid;

use isis_core::{CastKind, GroupId, GroupView, Uplink};

use crate::business::LargeApp;
use crate::ids::LargeGroupId;
use crate::member::{contact_prefix, HierApp};
use crate::msg::{CtlMsg, HierPayload, HierState, LeaderCmd};
use crate::view::{HierView, LeafDesc, RoutingSlice};

/// An operation in flight on one leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PendingOp {
    /// Splitting: waiting for the first contacts report of `new_leaf`.
    Split { new_leaf: GroupId },
    /// Dissolving into `target`: waiting for the leaf to empty.
    Dissolve { target: GroupId },
}

/// One leader-group member's replica of the hierarchy state.
pub(crate) struct LeaderReplica {
    pub view: HierView,
    pub next_slot: u32,
    pub min_leaf: usize,
    pub max_leaf: usize,
    pub pending: BTreeMap<GroupId, PendingOp>,
    /// Consecutive undersize reports per leaf; a dissolve fires only after
    /// [`UNDERSIZE_STRIKES`] of them, so young leaves that are still
    /// filling up are not merged away.
    pub strikes: BTreeMap<GroupId, u32>,
    /// Current leader-group membership (oldest first).
    pub leader_members: Vec<Pid>,
}

/// Consecutive undersize contact reports before a leaf is dissolved.
pub(crate) const UNDERSIZE_STRIKES: u32 = 3;

impl LeaderReplica {
    pub(crate) fn new(
        lgid: LargeGroupId,
        cfg: &crate::config::LargeGroupConfig,
        leader_members: Vec<Pid>,
    ) -> LeaderReplica {
        LeaderReplica {
            view: HierView::empty(lgid, cfg.fanout, cfg.resiliency, leader_members.clone()),
            next_slot: 1,
            min_leaf: cfg.min_leaf,
            max_leaf: cfg.max_leaf,
            pending: BTreeMap::new(),
            strikes: BTreeMap::new(),
            leader_members,
        }
    }

    pub(crate) fn from_snapshot(
        view: HierView,
        next_slot: u32,
        min_leaf: usize,
        max_leaf: usize,
    ) -> LeaderReplica {
        LeaderReplica {
            leader_members: view.leader_contacts.clone(),
            view,
            next_slot,
            min_leaf,
            max_leaf,
            pending: BTreeMap::new(),
            strikes: BTreeMap::new(),
        }
    }

    pub(crate) fn snapshot<S>(&self) -> HierState<S> {
        HierState::Leader {
            view: self.view.clone(),
            next_slot: self.next_slot,
            min_leaf: self.min_leaf,
            max_leaf: self.max_leaf,
        }
    }

    fn leaf_mut(&mut self, gid: GroupId) -> Option<&mut LeafDesc> {
        self.view.leaves.iter_mut().find(|l| l.gid == gid)
    }
}

impl<B: LargeApp> HierApp<B> {
    fn i_am_active(&self, lgid: LargeGroupId, me: Pid) -> bool {
        self.leaders
            .get(&lgid)
            .is_some_and(|r| r.leader_members.first() == Some(&me))
    }

    /// Delivers a structure push to `to`, through the local handler when
    /// this leader member is itself that rep (tiny deployments).
    fn send_push(&mut self, to: Pid, msg: CtlMsg, up: &mut Uplink<'_, '_, Self>) {
        if to == up.me() {
            self.rep_or_leader_ctl(to, msg, up);
        } else {
            up.direct(to, HierPayload::Ctl(msg));
        }
    }

    /// Sends the whole structure to the root rep for down-tree
    /// distribution. Only for changes that renumber the tree (a leaf
    /// removed, a leader takeover), after which any rep's slice may have
    /// moved; costs one message per leaf. Active leader only.
    fn push_structure(&mut self, lgid: LargeGroupId, up: &mut Uplink<'_, '_, Self>) {
        let Some(r) = self.leaders.get(&lgid) else {
            return;
        };
        let Some(rep) = r.view.root().and_then(LeafDesc::rep) else {
            return;
        };
        let view = Arc::new(r.view.clone());
        up.bump("hier.push_structure");
        self.send_push(rep, CtlMsg::HierPush { view }, up);
    }

    /// Sends the reps of `leaf`, its parent and its children — the only
    /// processes whose routing slices mention it — each its own slice.
    /// Serves every change confined to that neighbourhood: an appended leaf
    /// (which has no children yet) or a replaced rep. Active leader only;
    /// cost is O(fanout).
    fn push_neighbourhood(
        &mut self,
        lgid: LargeGroupId,
        leaf: GroupId,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let Some(r) = self.leaders.get(&lgid) else {
            return;
        };
        let v = &r.view;
        let Some(idx) = v.index_of(leaf) else {
            return;
        };
        let pushes: Vec<(Pid, RoutingSlice)> = std::iter::once(idx)
            .chain(v.parent(idx))
            .chain(v.children(idx))
            .filter_map(|i| v.leaves[i].rep().map(|rep| (rep, v.slice_for(i))))
            .collect();
        up.bump("hier.push_neighbourhood");
        for (to, slice) in pushes {
            let slice = Box::new(slice);
            self.send_push(to, CtlMsg::SlicePush { slice }, up);
        }
    }

    /// Control traffic addressed to the leader group.
    pub(crate) fn leader_handle_ctl(
        &mut self,
        from: Pid,
        msg: CtlMsg,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        match msg {
            CtlMsg::JoinLargeReq { lgid } => {
                if !self.leaders.contains_key(&lgid) {
                    up.direct(from, HierPayload::Ctl(CtlMsg::JoinLargeDenied { lgid }));
                    return;
                }
                // Placement is decided at command-apply time against the
                // replicated view (with tentative size accounting), so any
                // leader member can sponsor the request directly and
                // concurrent joins spread across leaves.
                up.cast(
                    lgid.leader_gid(),
                    CastKind::Total,
                    HierPayload::Cmd(LeaderCmd::Assign { lgid, joiner: from }),
                );
            }
            CtlMsg::ContactsUpdate {
                lgid,
                leaf,
                contacts,
                size,
            } => {
                if self.leaders.contains_key(&lgid) {
                    up.cast(
                        lgid.leader_gid(),
                        CastKind::Total,
                        HierPayload::Cmd(LeaderCmd::Contacts {
                            lgid,
                            leaf,
                            contacts,
                            size,
                        }),
                    );
                }
            }
            CtlMsg::LeafDeadReport { lgid, leaf } => {
                let known = self
                    .leaders
                    .get(&lgid)
                    .is_some_and(|r| r.view.index_of(leaf).is_some());
                if known {
                    up.bump("hier.leaf_dead_accepted");
                    up.cast(
                        lgid.leader_gid(),
                        CastKind::Total,
                        HierPayload::Cmd(LeaderCmd::LeafDead { lgid, leaf }),
                    );
                }
            }
            // Leader-emitted and leaf-internal control traffic is never
            // addressed to the leader role; enumerate it (rather than `_`)
            // so a new CtlMsg variant forces a routing decision here, and
            // count the drops so misrouting is observable.
            CtlMsg::JoinAssign { .. }
            | CtlMsg::JoinCreateLeaf { .. }
            | CtlMsg::JoinLargeDenied { .. }
            | CtlMsg::HierPush { .. }
            | CtlMsg::SlicePush { .. }
            | CtlMsg::SplitLeaf { .. }
            | CtlMsg::DoSplit { .. }
            | CtlMsg::DissolveLeaf { .. }
            | CtlMsg::DoDissolve { .. }
            | CtlMsg::LeafBeacon { .. } => up.bump("hier.ctl.unhandled_leader"),
        }
    }

    /// Applies one replicated command (delivered by leader-group ABCAST at
    /// every member in the same order) and, if this member is the active
    /// leader, performs the external side effects.
    pub(crate) fn leader_apply(&mut self, cmd: LeaderCmd, up: &mut Uplink<'_, '_, Self>) {
        let lgid = cmd.lgid();
        let me = up.me();
        let active = self.i_am_active(lgid, me);
        let Some(r) = self.leaders.get_mut(&lgid) else {
            return;
        };
        match cmd {
            LeaderCmd::Assign { joiner, .. } => {
                // Place against the replicated view with tentative size
                // accounting: concurrent joins spread across leaves even
                // before their contact reports arrive.
                match r.view.least_loaded(None) {
                    Some(leaf) if leaf.size < r.max_leaf => {
                        let (gid, contacts) = (leaf.gid, leaf.contacts.clone());
                        if let Some(d) = r.leaf_mut(gid) {
                            d.size += 1;
                        }
                        if active {
                            up.direct(
                                joiner,
                                HierPayload::Ctl(CtlMsg::JoinAssign {
                                    lgid,
                                    leaf: gid,
                                    contacts,
                                }),
                            );
                        }
                    }
                    _ => self.leader_apply(LeaderCmd::MintLeaf { lgid, founder: joiner }, up),
                }
            }
            LeaderCmd::MintLeaf { founder, .. } => {
                let slot = r.next_slot;
                r.next_slot += 1;
                let gid = lgid.leaf_gid(slot);
                r.view.leaves.push(LeafDesc {
                    gid,
                    contacts: vec![founder],
                    size: 1,
                });
                r.view.epoch += 1;
                if active {
                    up.direct(
                        founder,
                        HierPayload::Ctl(CtlMsg::JoinCreateLeaf { lgid, leaf: gid }),
                    );
                    self.root_beacons.entry(lgid).or_insert_with(|| up.now());
                    // Appended at the end: only the new leaf's and its
                    // parent's slices change.
                    self.push_neighbourhood(lgid, gid, up);
                }
            }
            LeaderCmd::Contacts {
                leaf,
                contacts,
                size,
                ..
            } => {
                if size == 0 {
                    self.leader_apply(LeaderCmd::LeafDead { lgid, leaf }, up);
                    return;
                }
                // A representative change or a graft is announced only to
                // the leaf's tree *neighbourhood* (parent + children + the
                // leaf itself): nobody else references its contacts, so the
                // cost stays O(fanout) however large the group.
                let announce = if let Some(d) = r.leaf_mut(leaf) {
                    let rep_changed = d.contacts.first() != contacts.first();
                    d.contacts = contacts.clone();
                    d.size = size;
                    rep_changed
                } else {
                    // An unknown but live leaf reported in: graft it. This
                    // covers both the first report of a split's new leaf
                    // and the self-healing of a leaf that was wrongly
                    // declared dead.
                    up.bump("hier.leaf_grafted");
                    r.view.leaves.push(LeafDesc {
                        gid: leaf,
                        contacts: contacts.clone(),
                        size,
                    });
                    r.view.epoch += 1;
                    true
                };
                // Clear a completed dissolve source / resolved pending op.
                if let Some(op) = r.pending.get(&leaf).copied() {
                    let resolved = match op {
                        PendingOp::Split { .. } => size <= r.max_leaf,
                        PendingOp::Dissolve { .. } => false,
                    };
                    if resolved {
                        r.pending.remove(&leaf);
                    }
                }
                // Structural health checks → new commands (active only;
                // commands re-converge at every member via ABCAST).
                // Undersize is debounced with strikes so that leaves still
                // filling up during admission are left alone.
                let oversize = size > r.max_leaf && !r.pending.contains_key(&leaf);
                let undersize = if size < r.min_leaf && r.view.leaves.len() > 1 {
                    let s = r.strikes.entry(leaf).or_insert(0);
                    *s += 1;
                    *s >= UNDERSIZE_STRIKES && !r.pending.contains_key(&leaf)
                } else {
                    r.strikes.remove(&leaf);
                    false
                };
                if active {
                    if oversize {
                        up.cast(
                            lgid.leader_gid(),
                            CastKind::Total,
                            HierPayload::Cmd(LeaderCmd::Split { lgid, leaf }),
                        );
                    } else if undersize {
                        if let Some(t) = r.view.least_loaded(Some(leaf)) {
                            let target = t.gid;
                            up.cast(
                                lgid.leader_gid(),
                                CastKind::Total,
                                HierPayload::Cmd(LeaderCmd::Dissolve { lgid, leaf, target }),
                            );
                        }
                    }
                    // Answering every periodic contacts refresh with a
                    // push would give the leader O(#leaves) fanout for no
                    // benefit; only a graft or a new rep is announced.
                    if announce {
                        self.push_neighbourhood(lgid, leaf, up);
                    }
                }
            }
            LeaderCmd::LeafDead { leaf, .. } => {
                let Some(idx) = r.view.index_of(leaf) else {
                    return;
                };
                r.view.leaves.remove(idx);
                r.view.epoch += 1;
                r.pending.remove(&leaf);
                r.strikes.remove(&leaf);
                r.pending.retain(
                    |_, op| !matches!(op, PendingOp::Split { new_leaf } if *new_leaf == leaf),
                );
                up.bump("hier.leaf_removed");
                if active {
                    self.push_structure(lgid, up);
                }
            }
            LeaderCmd::Split { leaf, .. } => {
                if r.pending.contains_key(&leaf) || r.view.index_of(leaf).is_none() {
                    return;
                }
                let slot = r.next_slot;
                r.next_slot += 1;
                let new_leaf = lgid.leaf_gid(slot);
                r.pending.insert(leaf, PendingOp::Split { new_leaf });
                let rep = r.leaf_mut(leaf).and_then(|d| d.rep());
                if active {
                    up.bump("hier.splits");
                    if let Some(rp) = rep {
                        up.direct(
                            rp,
                            HierPayload::Ctl(CtlMsg::SplitLeaf {
                                lgid,
                                leaf,
                                new_leaf,
                            }),
                        );
                    }
                }
            }
            LeaderCmd::Dissolve { leaf, target, .. } => {
                if r.pending.contains_key(&leaf)
                    || r.view.index_of(leaf).is_none()
                    || r.view.index_of(target).is_none()
                {
                    return;
                }
                r.pending.insert(leaf, PendingOp::Dissolve { target });
                let rep = r.leaf_mut(leaf).and_then(|d| d.rep());
                let target_contacts = r
                    .leaf_mut(target)
                    .map(|d| d.contacts.clone())
                    .unwrap_or_default();
                if active {
                    up.bump("hier.dissolves");
                    if let Some(rp) = rep {
                        up.direct(
                            rp,
                            HierPayload::Ctl(CtlMsg::DissolveLeaf {
                                lgid,
                                leaf,
                                target,
                                target_contacts,
                            }),
                        );
                    }
                }
            }
        }
    }

    /// Leader-group view bookkeeping: contact refresh and active-leader
    /// takeover.
    pub(crate) fn leader_on_view(
        &mut self,
        lgid: LargeGroupId,
        view: &GroupView,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let me = up.me();
        let Some(r) = self.leaders.get_mut(&lgid) else {
            return;
        };
        let was_active = r.leader_members.first() == Some(&me);
        r.leader_members = view.members.clone();
        r.view.leader_contacts = contact_prefix(view, 4);
        let now_active = view.coordinator() == me;
        if now_active && !was_active {
            // Takeover: re-push the structure and re-drive pending ops.
            self.root_beacons.insert(lgid, up.now());
            up.bump("hier.leader_takeover");
            let tl = u64::from(lgid.0);
            up.trace_with(|| TraceKind::LeaderTakeover { lgid: tl });
            self.push_structure(lgid, up);
            let pending: Vec<(GroupId, PendingOp)> = self.leaders[&lgid]
                .pending
                .iter()
                .map(|(&g, &op)| (g, op))
                .collect();
            for (leaf, op) in pending {
                let r = &self.leaders[&lgid];
                let rep = r
                    .view
                    .leaves
                    .iter()
                    .find(|l| l.gid == leaf)
                    .and_then(LeafDesc::rep);
                let Some(rp) = rep else { continue };
                match op {
                    PendingOp::Split { new_leaf } => up.direct(
                        rp,
                        HierPayload::Ctl(CtlMsg::SplitLeaf {
                            lgid,
                            leaf,
                            new_leaf,
                        }),
                    ),
                    PendingOp::Dissolve { target } => {
                        let target_contacts = r
                            .view
                            .leaves
                            .iter()
                            .find(|l| l.gid == target)
                            .map(|l| l.contacts.clone())
                            .unwrap_or_default();
                        up.direct(
                            rp,
                            HierPayload::Ctl(CtlMsg::DissolveLeaf {
                                lgid,
                                leaf,
                                target,
                                target_contacts,
                            }),
                        );
                    }
                }
            }
        }
    }

    /// Periodic leader housekeeping: root-leaf liveness (the leader is the
    /// root's "parent" in the monitoring tree).
    pub(crate) fn leader_tick(&mut self, up: &mut Uplink<'_, '_, Self>) {
        let me = up.me();
        let now = up.now();
        let dead_after = self.timers.leaf_dead_timeout;
        let lgids: Vec<LargeGroupId> = self.leaders.keys().copied().collect();
        for lgid in lgids {
            if !self.i_am_active(lgid, me) {
                continue;
            }
            let root = self
                .leaders
                .get(&lgid)
                .and_then(|r| r.view.root().map(|l| l.gid));
            let Some(root_gid) = root else { continue };
            let last = *self.root_beacons.entry(lgid).or_insert(now);
            if now.since(last) > dead_after {
                self.root_beacons.insert(lgid, now);
                up.bump("hier.root_dead_detected");
                up.cast(
                    lgid.leader_gid(),
                    CastKind::Total,
                    HierPayload::Cmd(LeaderCmd::LeafDead {
                        lgid,
                        leaf: root_gid,
                    }),
                );
            }
        }
    }
}
