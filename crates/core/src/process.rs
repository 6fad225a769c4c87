//! The ISIS process: one simulated workstation process running the full
//! group communication stack plus an [`Application`] on top.

use std::collections::BTreeMap;

use now_sim::trace::EventKind as TraceKind;
use now_sim::{Ctx, Pid, Process, SimTime, TimerId};

use crate::app::{Application, MsgOf, Uplink, UpOp};
use crate::config::{IsisConfig, JOIN_RETRY, TICK};
use crate::group::{Effect, Env, GroupRuntime, Status};
use crate::msg::{DeliveryFloor, IsisMsg, RelaySet};
use crate::types::{CastKind, GroupId, GroupView, IsisError, MsgId};

/// Timer kind for the internal housekeeping tick.
const TICK_KIND: u32 = 1;
/// Application timer kinds are offset by this base.
pub const APP_TIMER_BASE: u32 = 1 << 16;
/// Bound on buffered messages for groups we are still joining.
const ORPHAN_CAP: usize = 4_096;

struct JoinState {
    contact: Pid,
    last_attempt: SimTime,
}

/// A workstation process running the ISIS stack and an application.
///
/// Drive protocol entry points from a harness with
/// [`now_sim::Sim::invoke`]:
///
/// ```
/// use isis_core::testutil::RecorderApp;
/// use isis_core::{GroupId, IsisProcess};
/// use now_sim::{Sim, SimConfig, SimDuration};
///
/// let mut sim: Sim<IsisProcess<RecorderApp>> = Sim::new(SimConfig::ideal(7));
/// let node = sim.add_nodes(1)[0];
/// let pid = sim.spawn(node, IsisProcess::with_defaults(RecorderApp::default()));
/// sim.invoke(pid, |p, ctx| p.create_group(GroupId(1), ctx).expect("fresh gid"));
/// sim.run_for(SimDuration::from_secs(1));
/// assert!(sim.process(pid).view_of(GroupId(1)).is_some());
/// ```
pub struct IsisProcess<A: Application> {
    app: A,
    cfg: IsisConfig,
    groups: BTreeMap<GroupId, GroupRuntime<A>>,
    views_cache: BTreeMap<GroupId, GroupView>,
    joining: BTreeMap<GroupId, JoinState>,
    orphans: Vec<(Pid, MsgOf<A>)>,
    /// Interned per-category send-counter handles, registered on the first
    /// protocol send (see [`crate::group::SentCounters`]).
    sent_ids: Option<crate::group::SentCounters>,
    /// Reusable group-id snapshot for the housekeeping tick (the tick runs
    /// forever on every process, so it must not allocate per firing).
    tick_gids: Vec<GroupId>,
}

impl<A: Application> IsisProcess<A> {
    /// Creates a process hosting `app` with the given configuration.
    pub fn new(app: A, cfg: IsisConfig) -> IsisProcess<A> {
        IsisProcess {
            app,
            cfg,
            groups: BTreeMap::new(),
            views_cache: BTreeMap::new(),
            joining: BTreeMap::new(),
            orphans: Vec::new(),
            sent_ids: None,
            tick_gids: Vec::new(),
        }
    }

    /// Creates a process with the default configuration.
    pub fn with_defaults(app: A) -> IsisProcess<A> {
        IsisProcess::new(app, IsisConfig::default())
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the hosted application (harness-side state
    /// inspection and priming; protocol actions should go through
    /// [`Uplink`] operations instead).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// The runtime configuration.
    pub fn config(&self) -> &IsisConfig {
        &self.cfg
    }

    /// Current view of `gid`, if this process is a member.
    pub fn view_of(&self, gid: GroupId) -> Option<&GroupView> {
        self.groups.get(&gid).map(|g| &g.view)
    }

    /// Whether this process is currently a member of `gid`.
    pub fn is_member(&self, gid: GroupId) -> bool {
        self.groups.contains_key(&gid)
    }

    /// Joiners this member has accepted into `gid` but not yet installed —
    /// non-empty only while a join is in flight, so tests can assert a
    /// contact ends up clean after a joiner crashes mid-join.
    pub fn pending_joiners(&self, gid: GroupId) -> usize {
        self.groups.get(&gid).map_or(0, |g| g.pending_joiners.len())
    }

    /// Operational status of this member of `gid`.
    pub fn status_of(&self, gid: GroupId) -> Option<Status> {
        self.groups.get(&gid).map(|g| g.status)
    }

    /// All groups this process belongs to, in id order.
    pub fn group_ids(&self) -> Vec<GroupId> {
        let mut v: Vec<GroupId> = self.groups.keys().copied().collect();
        v.sort();
        v
    }

    /// Estimated membership-related storage for `gid` (experiment E7).
    pub fn membership_storage_bytes(&self, gid: GroupId) -> usize {
        self.groups
            .get(&gid)
            .map_or(0, GroupRuntime::membership_storage_bytes)
    }

    /// Total membership-related storage across all groups.
    pub fn total_membership_storage_bytes(&self) -> usize {
        self.groups
            .values()
            .map(GroupRuntime::membership_storage_bytes)
            .sum()
    }

    /// Messages buffered for potential view-change relay in `gid`.
    pub fn relay_buffer_len(&self, gid: GroupId) -> usize {
        self.groups.get(&gid).map_or(0, GroupRuntime::relay_buffer_len)
    }

    /// The runtime of `gid`, for unit tests that inspect its buffers.
    #[cfg(test)]
    pub(crate) fn runtime(&self, gid: GroupId) -> Option<&GroupRuntime<A>> {
        self.groups.get(&gid)
    }

    /// Runs `f` against the runtime of `gid`, for unit tests that drive one
    /// protocol step by hand.
    #[cfg(test)]
    pub(crate) fn drive<R>(
        &mut self,
        gid: GroupId,
        ctx: &mut Ctx<'_, MsgOf<A>>,
        f: impl FnOnce(&mut GroupRuntime<A>, &mut Env<'_, '_, A>) -> R,
    ) -> Option<R> {
        self.with_group(gid, ctx, f)
    }

    // ------------------------------------------------------------------
    // Public protocol entry points (invoke from the harness)
    // ------------------------------------------------------------------

    /// Creates a new group with this process as the only member.
    pub fn create_group(
        &mut self,
        gid: GroupId,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) -> Result<(), IsisError> {
        if self.groups.contains_key(&gid) {
            return Err(IsisError::AlreadyMember(gid));
        }
        let rt = GroupRuntime::new_created(gid, ctx.me(), ctx.now());
        let view = rt.view.clone();
        self.groups.insert(gid, rt);
        let effects = vec![Effect::View { view, joined: true }];
        self.pump(ctx, effects, Vec::new());
        Ok(())
    }

    /// Requests admission to `gid` through `contact` (a current member).
    pub fn join(
        &mut self,
        gid: GroupId,
        contact: Pid,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) -> Result<(), IsisError> {
        if self.groups.contains_key(&gid) {
            return Err(IsisError::AlreadyMember(gid));
        }
        self.joining.insert(
            gid,
            JoinState {
                contact,
                last_attempt: ctx.now(),
            },
        );
        ctx.bump("isis.sent.join_req");
        ctx.send(contact, IsisMsg::JoinReq { gid });
        Ok(())
    }

    /// Leaves `gid` gracefully.
    pub fn leave(&mut self, gid: GroupId, ctx: &mut Ctx<'_, MsgOf<A>>) -> Result<(), IsisError> {
        if !self.groups.contains_key(&gid) {
            return Err(IsisError::NotMember(gid));
        }
        self.with_group(gid, ctx, |rt, env| rt.request_leave(env));
        Ok(())
    }

    /// Broadcasts `payload` to `gid`. Returns the message id when sent
    /// immediately, `None` when buffered behind a view change.
    pub fn cast(
        &mut self,
        gid: GroupId,
        kind: CastKind,
        payload: A::Payload,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) -> Result<Option<MsgId>, IsisError> {
        self.cast_inner(gid, kind, payload, false, ctx)
    }

    /// Like [`IsisProcess::cast`] but requests per-delivery acks, reported
    /// through [`Application::on_cast_ack`].
    pub fn cast_acked(
        &mut self,
        gid: GroupId,
        kind: CastKind,
        payload: A::Payload,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) -> Result<Option<MsgId>, IsisError> {
        self.cast_inner(gid, kind, payload, true, ctx)
    }

    fn cast_inner(
        &mut self,
        gid: GroupId,
        kind: CastKind,
        payload: A::Payload,
        want_ack: bool,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) -> Result<Option<MsgId>, IsisError> {
        match self.with_group(gid, ctx, |rt, env| rt.cast(kind, payload, want_ack, env)) {
            None => Err(IsisError::NotMember(gid)),
            Some(r) => r,
        }
    }

    /// Sends a point-to-point application message.
    pub fn send_direct(&mut self, to: Pid, payload: A::Payload, ctx: &mut Ctx<'_, MsgOf<A>>) {
        ctx.bump("isis.sent.direct");
        ctx.send(to, IsisMsg::Direct(payload));
    }

    /// Runs `f` against the application with a live [`Uplink`], then
    /// executes the operations it issued. This is the harness entry point
    /// for application-level actions:
    ///
    /// ```
    /// use isis_core::testutil::cluster;
    /// use isis_core::{CastKind, IsisConfig};
    /// use now_sim::SimDuration;
    ///
    /// let mut c = cluster(3, IsisConfig::default(), 11);
    /// let gid = c.gid;
    /// c.sim.invoke(c.pids[0], move |p, ctx| {
    ///     p.with_app(ctx, move |_app, up| up.cast(gid, CastKind::Causal, "hi".into()));
    /// });
    /// c.sim.run_for(SimDuration::from_secs(5));
    /// assert_eq!(c.sim.process(c.pids[2]).app().payloads(gid), vec!["hi".to_string()]);
    /// ```
    pub fn with_app<R>(
        &mut self,
        ctx: &mut Ctx<'_, MsgOf<A>>,
        f: impl FnOnce(&mut A, &mut Uplink<'_, '_, A>) -> R,
    ) -> R {
        let mut ops = Vec::new();
        let r = {
            let mut up = Uplink {
                ctx,
                ops: &mut ops,
                view: None,
            };
            f(&mut self.app, &mut up)
        };
        self.pump(ctx, Vec::new(), ops);
        r
    }

    /// Harness-driven failure report, for configurations with heartbeats
    /// disabled (deterministic membership experiments).
    pub fn report_suspect(
        &mut self,
        gid: GroupId,
        suspect: Pid,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) -> Result<(), IsisError> {
        self.with_group(gid, ctx, |rt, env| rt.note_suspect(suspect, env))
            .ok_or(IsisError::NotMember(gid))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Runs `f` against one group runtime, then applies resulting effects.
    fn with_group<R>(
        &mut self,
        gid: GroupId,
        ctx: &mut Ctx<'_, MsgOf<A>>,
        f: impl FnOnce(&mut GroupRuntime<A>, &mut Env<'_, '_, A>) -> R,
    ) -> Option<R> {
        let mut effects = Vec::new();
        let r = {
            let Self { groups, cfg, sent_ids, .. } = self;
            groups.get_mut(&gid).map(|rt| {
                let mut env = Env {
                    ctx,
                    cfg,
                    effects: &mut effects,
                    sent: sent_ids,
                };
                f(rt, &mut env)
            })
        };
        self.pump(ctx, effects, Vec::new());
        r
    }

    /// Applies protocol effects and application operations to quiescence.
    fn pump(
        &mut self,
        ctx: &mut Ctx<'_, MsgOf<A>>,
        mut effects: Vec<Effect<A::Payload>>,
        mut ops: Vec<UpOp<A::Payload>>,
    ) {
        loop {
            while !effects.is_empty() {
                let batch = std::mem::take(&mut effects);
                for eff in batch {
                    self.apply_effect(eff, ctx, &mut ops, &mut effects);
                }
            }
            if ops.is_empty() {
                break;
            }
            let batch = std::mem::take(&mut ops);
            for op in batch {
                self.apply_op(op, ctx, &mut effects, &mut ops);
            }
        }
    }

    fn apply_effect(
        &mut self,
        eff: Effect<A::Payload>,
        ctx: &mut Ctx<'_, MsgOf<A>>,
        ops: &mut Vec<UpOp<A::Payload>>,
        effects: &mut Vec<Effect<A::Payload>>,
    ) {
        match eff {
            Effect::Deliver {
                gid,
                from,
                kind,
                payload,
            } => {
                let Self {
                    app, views_cache, ..
                } = self;
                let mut up = Uplink {
                    ctx,
                    ops,
                    view: views_cache.get(&gid),
                };
                app.on_deliver(gid, from, kind, &payload, &mut up);
            }
            Effect::View { view, joined } => {
                self.views_cache.insert(view.gid, view.clone());
                ctx.trace_with(|| TraceKind::ViewInstall {
                    gid: view.gid.0,
                    view: view.view_id,
                    members: view.members.iter().map(|p| p.0).collect(),
                    joined,
                });
                let Self { app, .. } = self;
                let mut up = Uplink {
                    ctx,
                    ops,
                    view: Some(&view),
                };
                app.on_view(&view, joined, &mut up);
            }
            Effect::Left { gid } => {
                self.views_cache.remove(&gid);
                ctx.trace_with(|| TraceKind::GroupLeft { gid: gid.0 });
                let mut up = Uplink {
                    ctx,
                    ops,
                    view: None,
                };
                self.app.on_left(gid, &mut up);
            }
            Effect::Stall { gid } => {
                ctx.trace_with(|| TraceKind::GroupStall { gid: gid.0 });
                let mut up = Uplink {
                    ctx,
                    ops,
                    view: None,
                };
                self.app.on_stall(gid, &mut up);
            }
            Effect::CastAcked { gid, id, count } => {
                let Self {
                    app, views_cache, ..
                } = self;
                let mut up = Uplink {
                    ctx,
                    ops,
                    view: views_cache.get(&gid),
                };
                app.on_cast_ack(gid, id, count, &mut up);
            }
            Effect::SendJoinerInstalls {
                gid,
                attempt,
                view,
                joiners,
            } => {
                let state = self.app.export_state(gid);
                // The floor must be read at the same instant as the
                // export: together they are the snapshot cut the joiner's
                // runtime starts at.
                let floor = self.groups.get(&gid).map(GroupRuntime::delivery_floor);
                for j in joiners {
                    ctx.bump("isis.sent.install");
                    ctx.send(
                        j,
                        IsisMsg::InstallView {
                            gid,
                            attempt,
                            view: view.clone(),
                            relay: RelaySet::default(),
                            state: Some(state.clone()),
                            floor: floor.clone(),
                        },
                    );
                }
            }
            Effect::DropGroup { gid } => {
                self.groups.remove(&gid);
                self.views_cache.remove(&gid);
                let _ = effects; // Dropping a group produces no follow-ups.
            }
        }
    }

    fn apply_op(
        &mut self,
        op: UpOp<A::Payload>,
        ctx: &mut Ctx<'_, MsgOf<A>>,
        effects: &mut Vec<Effect<A::Payload>>,
        _ops: &mut Vec<UpOp<A::Payload>>,
    ) {
        match op {
            UpOp::Cast {
                gid,
                kind,
                payload,
                want_ack,
            } => {
                let Self { groups, cfg, sent_ids, .. } = self;
                match groups.get_mut(&gid) {
                    Some(rt) => {
                        let mut env = Env {
                            ctx,
                            cfg,
                            effects,
                            sent: sent_ids,
                        };
                        if rt.cast(kind, payload, want_ack, &mut env).is_err() {
                            ctx.bump("isis.cast.refused");
                        }
                    }
                    None => ctx.bump("isis.cast.no_group"),
                }
            }
            UpOp::Direct { to, payload } => {
                let Self { cfg, sent_ids, .. } = self;
                let mut env: Env<'_, '_, A> = Env {
                    ctx,
                    cfg,
                    effects,
                    sent: sent_ids,
                };
                env.send(to, IsisMsg::Direct(payload));
            }
            UpOp::CreateGroup { gid } => {
                if let std::collections::btree_map::Entry::Vacant(e) = self.groups.entry(gid) {
                    let rt = GroupRuntime::new_created(gid, ctx.me(), ctx.now());
                    let view = rt.view.clone();
                    e.insert(rt);
                    effects.push(Effect::View { view, joined: true });
                }
            }
            UpOp::Join { gid, contact } => {
                if !self.groups.contains_key(&gid) {
                    self.joining.insert(
                        gid,
                        JoinState {
                            contact,
                            last_attempt: ctx.now(),
                        },
                    );
                    ctx.bump("isis.sent.join_req");
                    ctx.send(contact, IsisMsg::JoinReq { gid });
                }
            }
            UpOp::Leave { gid } => {
                let Self { groups, cfg, sent_ids, .. } = self;
                if let Some(rt) = groups.get_mut(&gid) {
                    let mut env = Env {
                        ctx,
                        cfg,
                        effects,
                        sent: sent_ids,
                    };
                    rt.request_leave(&mut env);
                }
            }
            UpOp::AppTimer { delay, kind } => {
                ctx.set_timer(delay, APP_TIMER_BASE.saturating_add(kind));
            }
        }
    }

    /// Handles an install addressed to a joiner (no runtime yet).
    fn handle_joiner_install(
        &mut self,
        gid: GroupId,
        view: GroupView,
        state: Option<A::State>,
        floor: Option<DeliveryFloor>,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) {
        if !view.contains(ctx.me()) {
            return;
        }
        self.joining.remove(&gid);
        let mut rt = GroupRuntime::new_joined(view.clone(), ctx.me(), ctx.now());
        if let Some(f) = floor {
            rt.set_delivery_floor(f);
        }
        self.groups.insert(gid, rt);
        if let Some(s) = state {
            self.app.import_state(gid, s);
        }
        let effects = vec![Effect::View { view, joined: true }];
        self.pump(ctx, effects, Vec::new());
        // Replay messages that arrived while the install was in flight.
        let mine: Vec<(Pid, MsgOf<A>)> = {
            let (mine, rest): (Vec<_>, Vec<_>) = self
                .orphans
                .drain(..)
                .partition(|(_, m)| m.group() == Some(gid));
            self.orphans = rest;
            mine
        };
        for (from, msg) in mine {
            self.dispatch_group_msg(gid, from, msg, ctx);
        }
    }

    fn dispatch_group_msg(
        &mut self,
        gid: GroupId,
        from: Pid,
        msg: MsgOf<A>,
        ctx: &mut Ctx<'_, MsgOf<A>>,
    ) {
        self.with_group(gid, ctx, |rt, env| rt.dispatch(from, msg, env));
    }
}

impl<A: Application> Process for IsisProcess<A> {
    type Msg = MsgOf<A>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ctx.set_timer(TICK, TICK_KIND);
        let mut ops = Vec::new();
        {
            let mut up = Uplink {
                ctx,
                ops: &mut ops,
                view: None,
            };
            self.app.on_start(&mut up);
        }
        self.pump(ctx, Vec::new(), ops);
    }

    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        match msg {
            IsisMsg::Direct(payload) => {
                let mut ops = Vec::new();
                {
                    let mut up = Uplink {
                        ctx,
                        ops: &mut ops,
                        view: None,
                    };
                    self.app.on_direct(from, &payload, &mut up);
                }
                self.pump(ctx, Vec::new(), ops);
            }
            IsisMsg::JoinDenied { gid } => {
                self.joining.remove(&gid);
                let mut ops = Vec::new();
                {
                    let mut up = Uplink {
                        ctx,
                        ops: &mut ops,
                        view: None,
                    };
                    self.app.on_join_denied(gid, &mut up);
                }
                self.pump(ctx, Vec::new(), ops);
            }
            IsisMsg::JoinReq { gid } => {
                if self.groups.contains_key(&gid) {
                    self.dispatch_group_msg(gid, from, IsisMsg::JoinReq { gid }, ctx);
                } else {
                    ctx.bump("isis.sent.join_denied");
                    ctx.send(from, IsisMsg::JoinDenied { gid });
                }
            }
            IsisMsg::InstallView {
                gid,
                attempt,
                view,
                relay,
                state,
                floor,
            } if !self.groups.contains_key(&gid) => {
                if self.joining.contains_key(&gid) || view.contains(ctx.me()) {
                    self.handle_joiner_install(gid, view, state, floor, ctx);
                } else {
                    ctx.bump("isis.recv.unknown_group");
                    let _ = (attempt, relay);
                }
            }
            other => {
                let Some(gid) = other.group() else {
                    return;
                };
                if self.groups.contains_key(&gid) {
                    self.dispatch_group_msg(gid, from, other, ctx);
                } else if self.joining.contains_key(&gid) {
                    if self.orphans.len() < ORPHAN_CAP {
                        self.orphans.push((from, other));
                    }
                } else {
                    ctx.bump("isis.recv.unknown_group");
                }
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u32, ctx: &mut Ctx<'_, Self::Msg>) {
        if kind >= APP_TIMER_BASE {
            let mut ops = Vec::new();
            {
                let mut up = Uplink {
                    ctx,
                    ops: &mut ops,
                    view: None,
                };
                self.app.on_app_timer(kind - APP_TIMER_BASE, &mut up);
            }
            self.pump(ctx, Vec::new(), ops);
            return;
        }
        debug_assert_eq!(kind, TICK_KIND);
        ctx.set_timer(TICK, TICK_KIND);
        // Snapshot group ids into the reusable buffer (BTreeMap keys are
        // already sorted); groups created mid-tick wait for the next one.
        let mut gids = std::mem::take(&mut self.tick_gids);
        gids.clear();
        gids.extend(self.groups.keys().copied());
        for &gid in &gids {
            self.with_group(gid, ctx, |rt, env| {
                rt.maybe_heartbeat(env);
                rt.tick_membership(env);
            });
        }
        self.tick_gids = gids;
        // Join retries.
        if !self.joining.is_empty() {
            let now = ctx.now();
            let due: Vec<(GroupId, Pid)> = self
                .joining
                .iter_mut()
                .filter(|(_, js)| now.since(js.last_attempt) >= JOIN_RETRY)
                .map(|(gid, js)| {
                    js.last_attempt = now;
                    (*gid, js.contact)
                })
                .collect();
            for (gid, contact) in due {
                ctx.bump("isis.sent.join_req");
                ctx.send(contact, IsisMsg::JoinReq { gid });
            }
        }
    }

    fn wire_size(msg: &Self::Msg) -> usize {
        msg.wire_bytes(A::payload_bytes, 256)
    }
}
