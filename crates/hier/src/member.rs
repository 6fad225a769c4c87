//! The hierarchical layer's process state: [`HierApp`] runs as the
//! `isis-core` application on every participating process and multiplexes
//! three roles:
//!
//! - *member*: belongs to one leaf subgroup per large group, submits and
//!   receives tree broadcasts;
//! - *representative* (leaf rank 0): routes tree broadcasts and monitors
//!   child leaves — state and logic in [`crate::tree`];
//! - *leader-group member*: replicates the hierarchy view — logic in
//!   [`crate::leader`].
//!
//! A business application ([`LargeApp`]) rides on top.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use now_sim::trace::EventKind as TraceKind;
use now_sim::{Pid, SimTime};

use isis_core::{Application, CastKind, GroupId, GroupView, Uplink};

use crate::business::{LargeApp, LargeOp, LargeUplink};
use crate::config::{LargeGroupConfig, TICK};
use crate::ids::{LargeGroupId, LbcastId};
use crate::leader::LeaderReplica;
use crate::msg::{CtlMsg, HierPayload, HierState, TreeMsg};
use crate::tree::RepState;

/// Hierarchy housekeeping timer kind.
pub(crate) const HIER_TICK: u32 = 0;
/// Business timer kinds are offset by this base.
pub(crate) const BIZ_TIMER_BASE: u32 = 256;
/// Size of the per-member broadcast deduplication window.
const SEEN_CAP: usize = 8_192;

/// One outstanding broadcast at its origin.
#[derive(Clone, Debug)]
pub(crate) struct OutLbcast<Q> {
    pub payload: Q,
    pub resilient: bool,
    pub last_try: SimTime,
}

/// Membership state for one large group.
pub(crate) struct MemberState<Q> {
    /// Current (or assigned) leaf.
    pub leaf: Option<GroupId>,
    /// Completed admission (first leaf view containing us installed).
    pub joined: bool,
    /// Leader contact used for (re-)join requests.
    pub join_contact: Pid,
    /// Last-known leader-group contacts (refreshed from assignment
    /// senders and structure pushes); reports rotate through them so a
    /// crashed leader member does not black-hole self-healing traffic.
    pub leader_contacts: Vec<Pid>,
    /// Rotation counter for leader-bound reports.
    pub report_attempt: u32,
    pub last_join_try: SimTime,
    /// A leaf assignment was received; stop re-sending join requests.
    pub assigned: bool,
    /// Contact for the assigned leaf (`None` when we are its founder).
    pub assign_contact: Option<Pid>,
    /// Failed attempts to enter the assigned leaf; resets the assignment
    /// after too many, falling back to the leader.
    pub assign_attempts: u32,
    /// Failed attempts to enter a migration target.
    pub migrate_attempts: u32,
    /// Cached membership of our leaf (refreshed on every leaf view).
    pub leaf_members: Vec<Pid>,
    /// Origin-side broadcast sequencing and tracking.
    pub next_seq: u64,
    pub out: BTreeMap<LbcastId, OutLbcast<Q>>,
    /// Delivery dedup window.
    seen: VecDeque<LbcastId>,
    seen_set: BTreeSet<LbcastId>,
    /// Highest global sequence number delivered here; seeds a fresh
    /// representative's sequencing state after a rep transition.
    pub max_lseq_seen: u64,
    /// Split/dissolve migration target: `(gid, contact)`; `contact == None`
    /// means this process founds the new leaf.
    pub migrating_to: Option<(GroupId, Option<Pid>)>,
    /// The leaf being vacated during a migration.
    pub old_leaf: Option<GroupId>,
    /// Pacing for migration join retries.
    pub last_migrate_try: SimTime,
}

impl<Q> MemberState<Q> {
    pub(crate) fn new(join_contact: Pid, now: SimTime) -> MemberState<Q> {
        MemberState {
            leaf: None,
            joined: false,
            join_contact,
            leader_contacts: vec![join_contact],
            report_attempt: 0,
            last_join_try: now,
            assigned: false,
            assign_contact: None,
            assign_attempts: 0,
            migrate_attempts: 0,
            leaf_members: Vec::new(),
            next_seq: 0,
            out: BTreeMap::new(),
            seen: VecDeque::new(),
            seen_set: BTreeSet::new(),
            max_lseq_seen: 0,
            migrating_to: None,
            old_leaf: None,
            last_migrate_try: now,
        }
    }

    /// Records a delivered broadcast; returns `false` if it was a
    /// duplicate.
    pub(crate) fn first_sighting(&mut self, id: LbcastId) -> bool {
        if self.seen_set.contains(&id) {
            return false;
        }
        self.seen_set.insert(id);
        self.seen.push_back(id);
        if self.seen.len() > SEEN_CAP {
            if let Some(old) = self.seen.pop_front() {
                self.seen_set.remove(&old);
            }
        }
        true
    }

    /// This member's current leaf representative, if known.
    pub(crate) fn my_rep(&self) -> Option<Pid> {
        self.leaf_members.first().copied()
    }
}

/// The hierarchical application: one per process, hosting the business
/// logic `B`.
pub struct HierApp<B: LargeApp> {
    pub(crate) biz: B,
    pub(crate) timers: LargeGroupConfig,
    pub(crate) members: BTreeMap<LargeGroupId, MemberState<B::Payload>>,
    pub(crate) reps: BTreeMap<LargeGroupId, RepState<B::Payload>>,
    pub(crate) leaders: BTreeMap<LargeGroupId, LeaderReplica>,
    /// Active-leader-only: last beacon seen from each root leaf.
    pub(crate) root_beacons: BTreeMap<LargeGroupId, SimTime>,
    /// Read-only copy of each rep role's routing slice, exposed to the
    /// business application through [`LargeUplink::routing_slice`].
    pub(crate) slices_cache: BTreeMap<LargeGroupId, crate::view::RoutingSlice>,
}

impl<B: LargeApp> HierApp<B> {
    /// Wraps `biz` with default hierarchy timings.
    pub fn new(biz: B) -> HierApp<B> {
        HierApp::with_timers(biz, LargeGroupConfig::default())
    }

    /// Wraps `biz` with explicit hierarchy timings (the structural fields
    /// of the config are ignored here; they live with each large group's
    /// leader replica).
    pub fn with_timers(biz: B, timers: LargeGroupConfig) -> HierApp<B> {
        HierApp {
            biz,
            timers,
            members: BTreeMap::new(),
            reps: BTreeMap::new(),
            leaders: BTreeMap::new(),
            root_beacons: BTreeMap::new(),
            slices_cache: BTreeMap::new(),
        }
    }

    /// The hosted business application.
    pub fn biz(&self) -> &B {
        &self.biz
    }

    /// Mutable access to the business application (harness inspection).
    pub fn biz_mut(&mut self) -> &mut B {
        &mut self.biz
    }

    /// Whether this process has completed admission to `lgid`.
    pub fn is_large_member(&self, lgid: LargeGroupId) -> bool {
        self.members.get(&lgid).is_some_and(|m| m.joined)
    }

    /// The leaf this process belongs to in `lgid`.
    pub fn leaf_of(&self, lgid: LargeGroupId) -> Option<GroupId> {
        self.members.get(&lgid).and_then(|m| m.leaf)
    }

    /// Whether this process is currently a leaf representative for `lgid`.
    pub fn is_rep(&self, lgid: LargeGroupId) -> bool {
        self.reps.contains_key(&lgid)
    }

    /// The leader replica's hierarchy view, when this process is a
    /// leader-group member.
    pub fn leader_view(&self, lgid: LargeGroupId) -> Option<&crate::view::HierView> {
        self.leaders.get(&lgid).map(|r| &r.view)
    }

    /// Estimated hierarchy-related storage at this process, by role
    /// (experiment E7): member leaf cache + rep routing slice + leader
    /// replica.
    pub fn hier_storage_bytes(&self) -> usize {
        let member: usize = self
            .members
            .values()
            .map(|m| 16 + 4 * m.leaf_members.len())
            .sum();
        let rep: usize = self.reps.values().map(RepState::storage_bytes).sum();
        let leader: usize = self.leaders.values().map(|r| r.view.storage_bytes()).sum();
        member + rep + leader
    }

    // ------------------------------------------------------------------
    // Public entry points (call via `IsisProcess::with_app`)
    // ------------------------------------------------------------------

    /// Founds the leader group of a new large group on this process.
    /// Additional leader members join with [`HierApp::join_leader_group`].
    pub fn create_large(
        &mut self,
        lgid: LargeGroupId,
        cfg: LargeGroupConfig,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let replica = LeaderReplica::new(lgid, &cfg, vec![up.me()]);
        self.leaders.insert(lgid, replica);
        up.create_group(lgid.leader_gid());
    }

    /// Joins the leader group of `lgid` through an existing leader member.
    pub fn join_leader_group(
        &mut self,
        lgid: LargeGroupId,
        contact: Pid,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        up.join(lgid.leader_gid(), contact);
    }

    /// Requests admission of this process to `lgid` (becoming a member of
    /// some leaf chosen by the leader).
    pub fn join_large(&mut self, lgid: LargeGroupId, leader_contact: Pid, up: &mut Uplink<'_, '_, Self>) {
        if self.members.contains_key(&lgid) {
            return;
        }
        self.members
            .insert(lgid, MemberState::new(leader_contact, up.now()));
        // A restarted workstation coming back: it re-enters through the
        // ordinary join path (possibly landing in a different leaf) and
        // re-earns any rep/leader role from scratch.
        if up.incarnation() > 0 {
            let (tl, incarnation) = (u64::from(lgid.0), u64::from(up.incarnation()));
            up.trace_with(|| TraceKind::RejoinBegin { lgid: tl, incarnation });
        }
        up.direct(leader_contact, HierPayload::Ctl(CtlMsg::JoinLargeReq { lgid }));
    }

    /// Leaves the large group.
    pub fn leave_large(&mut self, lgid: LargeGroupId, up: &mut Uplink<'_, '_, Self>) {
        let Some(ms) = self.members.get(&lgid) else {
            return;
        };
        if let Some(leaf) = ms.leaf {
            // If we are the last member, tell the leader the leaf is gone
            // (nobody will be left to report it).
            if ms.leaf_members.len() == 1 {
                if let Some(&lc) = self.leader_contact(lgid).as_ref() {
                    up.direct(
                        lc,
                        HierPayload::Ctl(CtlMsg::ContactsUpdate {
                            lgid,
                            leaf,
                            contacts: Vec::new(),
                            size: 0,
                        }),
                    );
                }
            }
            up.leave(leaf);
        }
        self.members.remove(&lgid);
        self.reps.remove(&lgid);
    }

    /// Broadcasts `payload` to the whole large group. Returns the broadcast
    /// id, or `None` if this process is not (yet) a member.
    pub fn lbcast(
        &mut self,
        lgid: LargeGroupId,
        payload: B::Payload,
        up: &mut Uplink<'_, '_, Self>,
    ) -> Option<LbcastId> {
        let ms = self.members.get_mut(&lgid)?;
        if !ms.joined {
            return None;
        }
        ms.next_seq += 1;
        let id = LbcastId {
            origin: up.me(),
            seq: ms.next_seq,
        };
        let (tl, origin, lseq) = (u64::from(lgid.0), id.origin.0, id.seq);
        up.trace_with(|| TraceKind::LbcastSubmit { lgid: tl, origin, lseq });
        ms.out.insert(
            id,
            OutLbcast {
                payload: payload.clone(),
                resilient: false,
                last_try: up.now(),
            },
        );
        self.route_submit(lgid, id, payload, up);
        Some(id)
    }

    /// Routes a submit towards the root: handled locally when this process
    /// is a rep, otherwise handed to our leaf rep.
    pub(crate) fn route_submit(
        &mut self,
        lgid: LargeGroupId,
        id: LbcastId,
        payload: B::Payload,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        if self.reps.contains_key(&lgid) {
            self.rep_handle_submit(lgid, id, payload, None, up);
            return;
        }
        let Some(ms) = self.members.get(&lgid) else {
            return;
        };
        match ms.my_rep() {
            Some(rep) if rep != up.me() => {
                up.direct(rep, HierPayload::Tree(TreeMsg::Submit { lgid, id, payload }));
            }
            _ => up.bump("hier.submit.no_rep"),
        }
    }

    /// The best-known leader contact for `lgid`.
    pub(crate) fn leader_contact(&self, lgid: LargeGroupId) -> Option<Pid> {
        if let Some(r) = self.reps.get(&lgid) {
            if let Some(s) = &r.slice {
                if let Some(&c) = s.leader_contacts.first() {
                    return Some(c);
                }
            }
        }
        self.members
            .get(&lgid)
            .and_then(|m| m.leader_contacts.first().copied().or(Some(m.join_contact)))
    }

    /// Like [`HierApp::leader_contact`] but rotates through the known
    /// contacts on successive calls, so reports survive the failure of any
    /// single leader member.
    pub(crate) fn leader_contact_rotating(&mut self, lgid: LargeGroupId) -> Option<Pid> {
        let mut pool: Vec<Pid> = self
            .reps
            .get(&lgid)
            .and_then(|r| r.slice.as_ref())
            .map(|s| s.leader_contacts.clone())
            .unwrap_or_default();
        if let Some(ms) = self.members.get(&lgid) {
            for &c in &ms.leader_contacts {
                if !pool.contains(&c) {
                    pool.push(c);
                }
            }
        }
        if pool.is_empty() {
            return self.leader_contact(lgid);
        }
        let attempt = match self.members.get_mut(&lgid) {
            Some(ms) => {
                ms.report_attempt = ms.report_attempt.wrapping_add(1);
                ms.report_attempt as usize
            }
            None => 0,
        };
        Some(pool[attempt % pool.len()])
    }

    // ------------------------------------------------------------------
    // Business bridging
    // ------------------------------------------------------------------

    /// Public harness entry point: runs a business-level callback with a
    /// [`LargeUplink`] and then executes the operations it buffered.
    ///
    /// ```
    /// use isis_hier::harness::large_cluster;
    /// use isis_hier::LargeGroupConfig;
    /// use now_sim::SimDuration;
    ///
    /// let mut c = large_cluster(6, LargeGroupConfig::new(2, 3), 5);
    /// let (lgid, origin) = (c.lgid, c.members[0]);
    /// c.sim.invoke(origin, move |p, ctx| {
    ///     p.with_app(ctx, move |app, up| {
    ///         app.with_business(up, |_biz, lup| lup.lbcast(lgid, "tick".into()));
    ///     });
    /// });
    /// c.run_for(SimDuration::from_secs(20));
    /// for (_, log) in c.lbcast_logs() {
    ///     assert_eq!(log, vec!["tick".to_string()]);
    /// }
    /// ```
    pub fn with_business(
        &mut self,
        up: &mut Uplink<'_, '_, Self>,
        f: impl FnOnce(&mut B, &mut LargeUplink<'_, '_, '_, B>),
    ) {
        let mut ops = Vec::new();
        {
            let Self {
                biz, slices_cache, ..
            } = self;
            let mut lup = LargeUplink {
                up,
                ops: &mut ops,
                slices: slices_cache,
            };
            f(biz, &mut lup);
        }
        self.apply_large_ops(ops, up);
    }

    fn apply_large_ops(&mut self, ops: Vec<LargeOp<B::Payload>>, up: &mut Uplink<'_, '_, Self>) {
        for op in ops {
            match op {
                LargeOp::Lbcast { lgid, payload } => {
                    if self.lbcast(lgid, payload, up).is_none() {
                        up.bump("hier.lbcast.not_member");
                    }
                }
                LargeOp::LeafCast { lgid, kind, payload } => {
                    match self.members.get(&lgid).and_then(|m| m.leaf) {
                        Some(leaf) => up.cast(leaf, kind, HierPayload::Biz(payload)),
                        None => up.bump("hier.leafcast.not_member"),
                    }
                }
                LargeOp::Direct { to, payload } => {
                    up.direct(to, HierPayload::Biz(payload));
                }
                LargeOp::JoinLarge {
                    lgid,
                    leader_contact,
                } => self.join_large(lgid, leader_contact, up),
                LargeOp::LeaveLarge { lgid } => self.leave_large(lgid, up),
                LargeOp::Timer { delay, kind } => {
                    up.set_app_timer(delay, BIZ_TIMER_BASE.saturating_add(kind));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Broadcast delivery at a member
    // ------------------------------------------------------------------

    pub(crate) fn member_deliver_lbcast(
        &mut self,
        lgid: LargeGroupId,
        lseq: u64,
        id: LbcastId,
        ack_to: Option<Pid>,
        payload: &B::Payload,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        if let Some(to) = ack_to {
            if to != up.me() {
                up.direct(to, HierPayload::Tree(TreeMsg::MemberAck { lgid, lseq }));
            }
        }
        let Some(ms) = self.members.get_mut(&lgid) else {
            return;
        };
        ms.max_lseq_seen = ms.max_lseq_seen.max(lseq);
        if !ms.first_sighting(id) {
            up.bump("hier.lbcast.dup");
            return;
        }
        up.bump("hier.lbcast.delivered");
        let (tl, torigin, tseq) = (u64::from(lgid.0), id.origin.0, id.seq);
        up.trace_with(|| TraceKind::LbcastDeliver { lgid: tl, origin: torigin, lseq: tseq });
        let origin = id.origin;
        let p = payload.clone();
        self.with_business(up, |biz, lup| {
            biz.on_lbcast(lgid, origin, &p, lup);
        });
    }

    // ------------------------------------------------------------------
    // Membership plumbing
    // ------------------------------------------------------------------

    /// Handles control messages addressed to this process as a (would-be)
    /// member.
    pub(crate) fn member_handle_ctl(&mut self, from: Pid, msg: CtlMsg, up: &mut Uplink<'_, '_, Self>) {
        match msg {
            CtlMsg::JoinAssign { lgid, leaf, contacts } => {
                let Some(ms) = self.members.get_mut(&lgid) else {
                    return;
                };
                if !ms.leader_contacts.contains(&from) {
                    ms.leader_contacts.insert(0, from);
                    ms.leader_contacts.truncate(4);
                }
                if ms.assigned || ms.joined {
                    return;
                }
                ms.assigned = true;
                ms.leaf = Some(leaf);
                ms.assign_contact = contacts.first().copied();
                ms.assign_attempts = 0;
                if let Some(&c) = contacts.first() {
                    up.join(leaf, c);
                } else {
                    // Defensive: an empty assignment, retry later.
                    ms.assigned = false;
                }
            }
            CtlMsg::JoinCreateLeaf { lgid, leaf } => {
                let Some(ms) = self.members.get_mut(&lgid) else {
                    return;
                };
                if !ms.leader_contacts.contains(&from) {
                    ms.leader_contacts.insert(0, from);
                    ms.leader_contacts.truncate(4);
                }
                if ms.assigned || ms.joined {
                    return;
                }
                ms.assigned = true;
                ms.leaf = Some(leaf);
                ms.assign_contact = None;
                ms.assign_attempts = 0;
                up.create_group(leaf);
            }
            CtlMsg::JoinLargeDenied { lgid } => {
                self.members.remove(&lgid);
                up.bump("hier.join.denied");
            }
            CtlMsg::DoSplit { .. } | CtlMsg::DoDissolve { .. } => {
                // Arrive via leaf broadcast, not direct; ignore here.
                up.bump("hier.ctl.misrouted");
            }
            other => {
                // Rep- or leader-addressed control traffic.
                self.rep_or_leader_ctl(from, other, up);
            }
        }
    }

    /// Merges freshly learned leader contacts into the member state.
    pub(crate) fn refresh_leader_contacts(&mut self, lgid: LargeGroupId, contacts: &[Pid]) {
        if let Some(ms) = self.members.get_mut(&lgid) {
            for &c in contacts {
                if !ms.leader_contacts.contains(&c) {
                    ms.leader_contacts.insert(0, c);
                }
            }
            ms.leader_contacts.truncate(6);
        }
    }

    /// Migration step for split/dissolve decisions delivered by leaf
    /// broadcast.
    pub(crate) fn member_handle_migration(
        &mut self,
        lgid: LargeGroupId,
        target: GroupId,
        contact: Option<Pid>,
        im_mover: bool,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        if !im_mover {
            return;
        }
        let Some(ms) = self.members.get_mut(&lgid) else {
            return;
        };
        ms.migrating_to = Some((target, contact));
        ms.old_leaf = ms.leaf;
        let from = ms.leaf;
        self.with_business(up, |biz, lup| {
            biz.on_migrating(lgid, from, target, lup);
        });
        match contact {
            None => up.create_group(target),
            Some(c) => up.join(target, c),
        }
    }

    /// Leaf view bookkeeping: admission completion, rep transitions,
    /// migration completion, contact reporting.
    pub(crate) fn member_on_leaf_view(
        &mut self,
        lgid: LargeGroupId,
        view: &GroupView,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let me = up.me();
        let Some(ms) = self.members.get_mut(&lgid) else {
            return;
        };

        // Migration completion: we are now in the target leaf.
        if let Some((target, _)) = ms.migrating_to {
            if view.gid == target && view.contains(me) {
                let old = ms.old_leaf.take();
                ms.migrating_to = None;
                ms.leaf = Some(target);
                ms.assigned = true;
                if let Some(old_leaf) = old {
                    if old_leaf != target {
                        up.leave(old_leaf);
                    }
                }
            }
        }

        if ms.leaf != Some(view.gid) {
            // A view for a leaf we no longer occupy (e.g. the old leaf
            // during migration): ignore for bookkeeping.
            return;
        }
        ms.leaf_members = view.members.clone();
        let newly_joined = !ms.joined && view.contains(me);
        if newly_joined {
            ms.joined = true;
            if up.incarnation() > 0 {
                let (tl, leaf) = (u64::from(lgid.0), view.gid.0);
                let incarnation = u64::from(up.incarnation());
                up.trace_with(|| TraceKind::RejoinComplete { lgid: tl, leaf, incarnation });
            }
        }

        // Rep transition.
        let am_rep = view.coordinator() == me;
        let was_rep = self.reps.contains_key(&lgid);
        if am_rep != was_rep {
            let (tl, leaf) = (u64::from(lgid.0), view.gid.0);
            up.trace_with(|| TraceKind::RepChange { lgid: tl, leaf, promoted: am_rep });
        }
        if am_rep && !was_rep {
            let mut rs = RepState::new(view.gid);
            // Continue the sequence from what this member has delivered,
            // so a new (possibly root) rep never reuses old numbers.
            rs.next_expected = ms.max_lseq_seen + 1;
            rs.next_lseq = ms.max_lseq_seen + 1;
            self.reps.insert(lgid, rs);
        } else if !am_rep && was_rep {
            self.reps.remove(&lgid);
            self.slices_cache.remove(&lgid);
        }
        if let Some(rep) = self.reps.get_mut(&lgid) {
            rep.leaf = view.gid;
        }

        // Any leaf view change at the rep: tell the leader (one message;
        // the failure itself was handled entirely inside the leaf).
        if am_rep {
            let contacts = contact_prefix(view, 4);
            let size = view.size();
            if let Some(lc) = self.leader_contact(lgid) {
                up.direct(
                    lc,
                    HierPayload::Ctl(CtlMsg::ContactsUpdate {
                        lgid,
                        leaf: view.gid,
                        contacts,
                        size,
                    }),
                );
            }
        }

        // E7 invariant probe: member-role *routing* storage (leaf cache +
        // rep routing slice; leader replicas are deliberately O(leaves) and
        // excluded, as is load-proportional in-flight tracking — see
        // `RepState::routing_storage_bytes`) must stay bounded by the
        // structural parameters.
        if up.tracing() {
            let bytes = (16
                + 4 * view.members.len()
                + self.reps.get(&lgid).map_or(0, RepState::routing_storage_bytes))
                as u64;
            let bound = (200 + 16 * self.timers.max_leaf + 48 * self.timers.fanout) as u64;
            let tl = u64::from(lgid.0);
            up.trace_with(|| TraceKind::StorageSample { lgid: tl, bytes, bound });
        }

        if newly_joined {
            self.with_business(up, |biz, lup| {
                biz.on_joined_large(lgid, view.gid, lup);
            });
        }
        self.with_business(up, |biz, lup| {
            biz.on_leaf_view(lgid, view, lup);
        });
    }

    /// Periodic member housekeeping: join retries, submit retries,
    /// migration retries.
    pub(crate) fn member_tick(&mut self, up: &mut Uplink<'_, '_, Self>) {
        let now = up.now();
        let retry = self.timers.repair_timeout;
        let join_retry = self.timers.leaf_dead_timeout; // Reuse: generous.
        let lgids: Vec<LargeGroupId> = self.members.keys().copied().collect();
        for lgid in lgids {
            // Join retries: unassigned members re-ask the leader; assigned
            // members retry entering their leaf, falling back to the
            // leader after repeated failures (stale contacts, founder
            // crash).
            enum Retry {
                AskLeader(Pid),
                EnterLeaf(GroupId, Option<Pid>),
            }
            let action = {
                let ms = self.members.get_mut(&lgid).expect("key just listed");
                if ms.joined || now.since(ms.last_join_try) < join_retry {
                    None
                } else if !ms.assigned {
                    ms.last_join_try = now;
                    Some(Retry::AskLeader(ms.join_contact))
                } else {
                    ms.last_join_try = now;
                    ms.assign_attempts += 1;
                    if ms.assign_attempts > 5 {
                        // Give up on this assignment; re-ask the leader.
                        ms.assigned = false;
                        ms.leaf = None;
                        Some(Retry::AskLeader(ms.join_contact))
                    } else {
                        ms.leaf.map(|l| Retry::EnterLeaf(l, ms.assign_contact))
                    }
                }
            };
            match action {
                Some(Retry::AskLeader(contact)) => {
                    up.direct(contact, HierPayload::Ctl(CtlMsg::JoinLargeReq { lgid }));
                }
                Some(Retry::EnterLeaf(leaf, Some(c))) => up.join(leaf, c),
                Some(Retry::EnterLeaf(leaf, None)) => up.create_group(leaf),
                None => {}
            }

            // Migration retries (target join may have been denied while the
            // founder was still creating the group). Paced, since each
            // attempt costs a join round-trip.
            let migrate = {
                let ms = self.members.get_mut(&lgid).expect("key just listed");
                match ms.migrating_to {
                    Some((target, Some(c))) if now.since(ms.last_migrate_try) >= retry => {
                        ms.last_migrate_try = now;
                        ms.migrate_attempts += 1;
                        if ms.migrate_attempts > 10 {
                            // Abandon the migration; we are still a member
                            // of our old leaf, and the leader will retry
                            // the structural change if it still matters.
                            ms.migrating_to = None;
                            ms.old_leaf = None;
                            ms.migrate_attempts = 0;
                            None
                        } else {
                            Some((target, c))
                        }
                    }
                    _ => None,
                }
            };
            if let Some((target, c)) = migrate {
                up.join(target, c);
            }

            // Submit retries for unresilient broadcasts.
            let due: Vec<(LbcastId, B::Payload)> = {
                let ms = self.members.get_mut(&lgid).expect("key just listed");
                ms.out
                    .iter_mut()
                    .filter(|(_, o)| !o.resilient && now.since(o.last_try) >= retry)
                    .map(|(id, o)| {
                        o.last_try = now;
                        (*id, o.payload.clone())
                    })
                    .collect()
            };
            for (id, payload) in due {
                up.bump("hier.submit.retry");
                self.route_submit(lgid, id, payload, up);
            }
        }
    }
}

/// The first `k` members of a view (its contact set).
pub(crate) fn contact_prefix(view: &GroupView, k: usize) -> Vec<Pid> {
    view.members.iter().copied().take(k).collect()
}

// ----------------------------------------------------------------------
// isis-core Application implementation
// ----------------------------------------------------------------------

impl<B: LargeApp> Application for HierApp<B> {
    type Payload = HierPayload<B::Payload>;
    type State = HierState<B::LeafState>;

    fn on_start(&mut self, up: &mut Uplink<'_, '_, Self>) {
        up.set_app_timer(TICK, HIER_TICK);
        self.with_business(up, |biz, lup| biz.on_start(lup));
    }

    fn on_deliver(
        &mut self,
        gid: GroupId,
        from: Pid,
        kind: CastKind,
        payload: &Self::Payload,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        let lgid = LargeGroupId::of_gid(gid);
        match payload {
            HierPayload::Cmd(cmd) => {
                if lgid.is_some_and(|l| l.is_leader_gid(gid)) {
                    self.leader_apply(cmd.clone(), up);
                } else {
                    up.bump("hier.cmd.misrouted");
                }
            }
            HierPayload::Tree(TreeMsg::LeafDeliver {
                lgid,
                lseq,
                id,
                ack_to,
                payload,
                ..
            }) => {
                let (lgid, lseq, id, ack_to) = (*lgid, *lseq, *id, *ack_to);
                let p = payload.clone();
                self.rep_note_own_leaf_delivery(lgid, lseq, up);
                self.member_deliver_lbcast(lgid, lseq, id, ack_to, &p, up);
            }
            HierPayload::Tree(_) => up.bump("hier.tree.misrouted"),
            HierPayload::Ctl(CtlMsg::DoSplit {
                lgid,
                new_leaf,
                movers,
                leader_contacts,
            }) => {
                self.refresh_leader_contacts(*lgid, leader_contacts);
                let im_mover = movers.contains(&up.me());
                let founder = movers.first().copied();
                let contact = if founder == Some(up.me()) {
                    None
                } else {
                    founder
                };
                self.member_handle_migration(*lgid, *new_leaf, contact, im_mover, up);
            }
            HierPayload::Ctl(CtlMsg::DoDissolve {
                lgid,
                target,
                target_contacts,
                leader_contacts,
            }) => {
                self.refresh_leader_contacts(*lgid, leader_contacts);
                let contact = target_contacts.first().copied();
                self.member_handle_migration(*lgid, *target, contact, true, up);
            }
            HierPayload::Ctl(_) => up.bump("hier.ctl.misrouted"),
            HierPayload::Biz(q) => {
                let q = q.clone();
                self.with_business(up, |biz, lup| {
                    biz.on_leaf_cast(gid, from, kind, &q, lup);
                });
            }
        }
    }

    fn on_direct(&mut self, from: Pid, payload: &Self::Payload, up: &mut Uplink<'_, '_, Self>) {
        match payload {
            HierPayload::Biz(q) => {
                let q = q.clone();
                self.with_business(up, |biz, lup| biz.on_direct(from, &q, lup));
            }
            HierPayload::Tree(tm) => self.rep_handle_tree(from, tm.clone(), up),
            HierPayload::Ctl(cm) => self.member_handle_ctl(from, cm.clone(), up),
            HierPayload::Cmd(_) => up.bump("hier.cmd.misrouted"),
        }
    }

    fn on_view(&mut self, view: &GroupView, _joined: bool, up: &mut Uplink<'_, '_, Self>) {
        let gid = view.gid;
        match LargeGroupId::of_gid(gid) {
            Some(lgid) if lgid.is_leader_gid(gid) => self.leader_on_view(lgid, view, up),
            Some(lgid) => self.member_on_leaf_view(lgid, view, up),
            None => {
                // A plain isis group the business uses directly.
                self.with_business(up, |biz, lup| {
                    biz.on_leaf_view(LargeGroupId(u32::MAX), view, lup);
                });
            }
        }
    }

    fn on_left(&mut self, gid: GroupId, up: &mut Uplink<'_, '_, Self>) {
        let Some(lgid) = LargeGroupId::of_gid(gid) else {
            return;
        };
        if lgid.is_leader_gid(gid) {
            self.leaders.remove(&lgid);
            return;
        }
        // Leaving the old leaf of a migration is expected; anything else
        // means we fell out of the large group.
        let expected = self
            .members
            .get(&lgid)
            .is_some_and(|ms| ms.old_leaf == Some(gid) || ms.leaf != Some(gid));
        if !expected {
            self.members.remove(&lgid);
            self.reps.remove(&lgid);
            self.with_business(up, |biz, lup| biz.on_left_large(lgid, lup));
        }
    }

    fn on_join_denied(&mut self, _gid: GroupId, up: &mut Uplink<'_, '_, Self>) {
        // A migration target may not exist yet; the member tick retries.
        up.bump("hier.join.leaf_denied");
    }

    fn on_app_timer(&mut self, kind: u32, up: &mut Uplink<'_, '_, Self>) {
        if kind == HIER_TICK {
            up.set_app_timer(TICK, HIER_TICK);
            self.member_tick(up);
            self.rep_tick(up);
            self.leader_tick(up);
            return;
        }
        let biz_kind = kind - BIZ_TIMER_BASE;
        self.with_business(up, |biz, lup| biz.on_timer(biz_kind, lup));
    }

    fn export_state(&self, gid: GroupId) -> Self::State {
        match LargeGroupId::of_gid(gid) {
            Some(lgid) if lgid.is_leader_gid(gid) => match self.leaders.get(&lgid) {
                Some(r) => r.snapshot(),
                None => HierState::None,
            },
            Some(lgid) => HierState::Leaf(self.biz.export_leaf_state(lgid, gid)),
            None => HierState::None,
        }
    }

    fn import_state(&mut self, gid: GroupId, state: Self::State) {
        match state {
            HierState::None => {}
            HierState::Leaf(s) => {
                if let Some(lgid) = LargeGroupId::of_gid(gid) {
                    self.biz.import_leaf_state(lgid, gid, s);
                }
            }
            HierState::Leader {
                view,
                next_slot,
                resiliency,
                min_leaf,
                max_leaf,
            } => {
                let lgid = view.lgid;
                self.leaders
                    .insert(lgid, LeaderReplica::from_snapshot(view, next_slot, resiliency, min_leaf, max_leaf));
            }
        }
    }

    fn payload_bytes(p: &Self::Payload) -> usize {
        match p {
            HierPayload::Biz(q) => B::payload_bytes(q),
            HierPayload::Tree(TreeMsg::Submit { payload, .. }) => 32 + B::payload_bytes(payload),
            HierPayload::Tree(TreeMsg::Forward { payload, .. })
            | HierPayload::Tree(TreeMsg::LeafDeliver { payload, .. }) => {
                48 + B::payload_bytes(payload)
            }
            HierPayload::Tree(_) => 32,
            HierPayload::Ctl(CtlMsg::HierPush { view }) => 16 + view.storage_bytes(),
            HierPayload::Ctl(CtlMsg::SlicePush { slice }) => 16 + slice.storage_bytes(),
            HierPayload::Ctl(_) => 48,
            HierPayload::Cmd(_) => 64,
        }
    }

    fn state_bytes(s: &Self::State) -> usize {
        match s {
            HierState::None => 8,
            HierState::Leaf(_) => 256,
            HierState::Leader { view, .. } => 32 + view.storage_bytes(),
        }
    }
}

impl<B: LargeApp> HierApp<B> {
    /// The routing slice this process holds as the representative of a
    /// leaf of `lgid`, if it is one and has received a slice.
    pub fn routing_slice(&self, lgid: LargeGroupId) -> Option<&crate::view::RoutingSlice> {
        self.reps.get(&lgid)?.slice.as_ref()
    }
}
