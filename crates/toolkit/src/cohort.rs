//! The coordinator-cohort tool, written once for both kinds of group — the
//! paper's worked example of a tool whose cost follows the group size:
//!
//! > "A client of such a service broadcasts its request to all members of
//! > the group, one of whose members is chosen to handle the request. This
//! > member, the coordinator, is monitored by the other group members, the
//! > cohorts, and should the coordinator fail, one of the cohorts is
//! > selected to take over as the new coordinator. When the coordinator has
//! > completed the request, the result is returned to the client, and
//! > copies of the result are broadcast to the cohorts."
//!
//! With `n` members a request costs exactly `2n` messages (`n` request
//! copies + 1 client reply + `n-1` result copies), which experiment E1
//! measures. Over a flat group `n` is the whole group
//! ([`FlatService`](crate::flat::FlatService)); over the hierarchy it is
//! one leaf ([`LeafServiceApp`](crate::hier::LeafServiceApp)). [`Cohort`]
//! holds the protocol and reaches its group through [`GroupHandle`], which
//! both uplinks implement.

use std::collections::{BTreeMap, BTreeSet};

use now_sim::trace::EventKind as TraceKind;
use now_sim::{Pid, SimDuration, SimTime};

use isis_core::{Application, CastKind, GroupId, GroupView, Uplink};
use isis_hier::{LargeApp, LargeGroupId, LargeUplink};

use crate::common::{apply_command, KvState, ReqId};

/// Wire payload of the coordinator-cohort tool.
#[derive(Clone, Debug)]
pub enum SvcMsg {
    /// Client → every member: a request (the client's "broadcast").
    Request { req: ReqId, body: String },
    /// Coordinator → cohorts (causal cast): the executed result, so
    /// cohorts apply the same state change and discard the logged request.
    Result { req: ReqId, body: String, reply: String },
    /// Coordinator → client: the reply.
    Reply { req: ReqId, reply: String },
}

impl SvcMsg {
    /// Estimated wire size.
    pub fn payload_bytes(&self) -> usize {
        16 + match self {
            SvcMsg::Request { body, .. } => body.len(),
            SvcMsg::Result { body, reply, .. } => body.len() + reply.len(),
            SvcMsg::Reply { reply, .. } => reply.len(),
        }
    }
}

/// Timer kind of the client's retry tick.
pub const RETRY_TICK: u32 = 1;

/// What the coordinator-cohort tool needs from the group it runs over.
pub trait GroupHandle {
    /// How the member names its own group when it casts.
    type Group: Copy;
    /// This process.
    fn me(&self) -> Pid;
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Sends a point-to-point message.
    fn direct(&mut self, to: Pid, msg: SvcMsg);
    /// Casts, causally ordered, to the member's own group.
    fn cast(&mut self, group: Self::Group, msg: SvcMsg);
    /// Records a trace event, built only when tracing is on.
    fn trace_with(&mut self, f: impl FnOnce() -> TraceKind);
    /// Adds one to a named counter.
    fn bump(&mut self, name: &'static str);
    /// Arms the client's retry tick.
    fn set_retry_timer(&mut self, after: SimDuration);
}

/// A flat `isis-core` group.
impl<A: Application> GroupHandle for Uplink<'_, '_, A>
where
    A::Payload: From<SvcMsg>,
{
    type Group = GroupId;
    fn me(&self) -> Pid {
        Uplink::me(self)
    }
    fn now(&self) -> SimTime {
        Uplink::now(self)
    }
    fn direct(&mut self, to: Pid, msg: SvcMsg) {
        Uplink::direct(self, to, msg.into());
    }
    fn cast(&mut self, gid: GroupId, msg: SvcMsg) {
        Uplink::cast(self, gid, CastKind::Causal, msg.into());
    }
    fn trace_with(&mut self, f: impl FnOnce() -> TraceKind) {
        Uplink::trace_with(self, f);
    }
    fn bump(&mut self, name: &'static str) {
        Uplink::bump(self, name);
    }
    fn set_retry_timer(&mut self, after: SimDuration) {
        self.set_app_timer(after, RETRY_TICK);
    }
}

/// The member's home leaf in a large group.
impl<B: LargeApp> GroupHandle for LargeUplink<'_, '_, '_, B>
where
    B::Payload: From<SvcMsg>,
{
    type Group = LargeGroupId;
    fn me(&self) -> Pid {
        LargeUplink::me(self)
    }
    fn now(&self) -> SimTime {
        LargeUplink::now(self)
    }
    fn direct(&mut self, to: Pid, msg: SvcMsg) {
        LargeUplink::direct(self, to, msg.into());
    }
    fn cast(&mut self, lgid: LargeGroupId, msg: SvcMsg) {
        self.leaf_cast(lgid, CastKind::Causal, msg.into());
    }
    fn trace_with(&mut self, f: impl FnOnce() -> TraceKind) {
        LargeUplink::trace_with(self, f);
    }
    fn bump(&mut self, name: &'static str) {
        LargeUplink::bump(self, name);
    }
    fn set_retry_timer(&mut self, after: SimDuration) {
        self.set_timer(after, RETRY_TICK);
    }
}

/// One process's coordinator-cohort state, as a member of group `K` and
/// as a client of any such group.
///
/// The replicated state and the client's replies belong to the tool that
/// embeds the cohort; the handlers take them as arguments.
pub struct Cohort<K> {
    group: K,
    /// The member's current view (`None` for a pure client).
    view: Option<GroupView>,
    /// Requests logged but not yet completed: the cohort's log.
    pending: BTreeMap<ReqId, String>,
    /// Completed requests (deduplication).
    completed: BTreeSet<ReqId>,
    /// Requests this member executed.
    pub executed: Vec<ReqId>,
    next_seq: u64,
    /// Client requests awaiting a reply: body, members, last send.
    outstanding: BTreeMap<ReqId, (String, Vec<Pid>, SimTime)>,
}

impl<K: Copy> Cohort<K> {
    /// A cohort of `group` with no view yet.
    pub fn new(group: K) -> Cohort<K> {
        Cohort {
            group,
            view: None,
            pending: BTreeMap::new(),
            completed: BTreeSet::new(),
            executed: Vec::new(),
            next_seq: 0,
            outstanding: BTreeMap::new(),
        }
    }

    /// The group this cohort serves.
    pub fn group(&self) -> K {
        self.group
    }

    /// The member's current view.
    pub fn view(&self) -> Option<&GroupView> {
        self.view.as_ref()
    }

    /// Whether `me` coordinates the current view.
    pub fn coordinates(&self, me: Pid) -> bool {
        self.view.as_ref().is_some_and(|v| v.coordinator() == me)
    }

    /// Number of requests logged but not completed (cohort log size).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Client: sends a request to every member in `members`, and resends
    /// it every `retry` until a reply arrives. Returns the request id.
    pub fn send<G: GroupHandle<Group = K>>(
        &mut self,
        members: &[Pid],
        body: &str,
        retry: SimDuration,
        up: &mut G,
    ) -> ReqId {
        self.next_seq += 1;
        let req = ReqId {
            client: up.me(),
            seq: self.next_seq,
        };
        let (client, rseq) = (req.client.0, req.seq);
        up.trace_with(|| TraceKind::ReqSend { client, rseq });
        self.outstanding
            .insert(req, (body.to_owned(), members.to_vec(), up.now()));
        for &m in members {
            let body = body.to_owned();
            up.direct(m, SvcMsg::Request { req, body });
        }
        if self.outstanding.len() == 1 {
            up.set_retry_timer(retry);
        }
        req
    }

    fn execute<G: GroupHandle<Group = K>>(&mut self, req: ReqId, state: &mut KvState, up: &mut G) {
        let Some(body) = self.pending.remove(&req) else {
            return;
        };
        let reply = apply_command(state, &body);
        self.executed.push(req);
        self.completed.insert(req);
        let (client, rseq) = (req.client.0, req.seq);
        up.trace_with(|| TraceKind::ReqExec { client, rseq });
        up.direct(req.client, SvcMsg::Reply { req, reply: reply.clone() });
        up.cast(self.group, SvcMsg::Result { req, body, reply });
        up.bump("tool.svc.executed");
    }

    /// A message arrived point to point: a member logs a request (and
    /// executes it when it coordinates); a client records a reply.
    pub fn on_direct<G: GroupHandle<Group = K>>(
        &mut self,
        msg: &SvcMsg,
        state: &mut KvState,
        replies: &mut BTreeMap<ReqId, String>,
        up: &mut G,
    ) {
        match msg {
            SvcMsg::Request { req, body } => {
                if self.completed.contains(req) || self.view.is_none() {
                    return;
                }
                self.pending.insert(*req, body.clone());
                if self.coordinates(up.me()) {
                    self.execute(*req, state, up);
                }
            }
            SvcMsg::Reply { req, reply } => {
                self.outstanding.remove(req);
                replies.insert(*req, reply.clone());
                let (client, rseq) = (req.client.0, req.seq);
                up.trace_with(|| TraceKind::ReqReply { client, rseq });
            }
            SvcMsg::Result { .. } => {}
        }
    }

    /// A cast of the member's group was delivered: cohorts apply the
    /// coordinator's result (the coordinator already did) and drop the
    /// request from the log.
    pub fn on_cast<G: GroupHandle<Group = K>>(
        &mut self,
        from: Pid,
        msg: &SvcMsg,
        state: &mut KvState,
        up: &mut G,
    ) {
        match msg {
            SvcMsg::Result { req, body, .. } => {
                if from != up.me() && !self.completed.contains(req) {
                    apply_command(state, body);
                }
                self.pending.remove(req);
                self.completed.insert(*req);
            }
            SvcMsg::Request { .. } | SvcMsg::Reply { .. } => up.bump("tool.svc.misrouted_cast"),
        }
    }

    /// Installs a view of the member's group and returns the previous one.
    /// A member that coordinates the new view takes over: it executes
    /// everything still logged, oldest first — the failed coordinator may
    /// have died mid-request.
    pub fn on_view<G: GroupHandle<Group = K>>(
        &mut self,
        view: &GroupView,
        state: &mut KvState,
        up: &mut G,
    ) -> Option<GroupView> {
        let prev = self.view.replace(view.clone());
        if view.coordinator() == up.me() {
            let todo: Vec<ReqId> = self.pending.keys().copied().collect();
            for req in todo {
                up.bump("tool.svc.takeover_exec");
                self.execute(req, state, up);
            }
        }
        prev
    }

    /// The retry tick: resends every request unanswered for `retry`.
    /// Returns whether any request is still outstanding.
    pub fn on_retry<G: GroupHandle<Group = K>>(&mut self, retry: SimDuration, up: &mut G) -> bool {
        let now = up.now();
        for (&req, (body, members, last)) in &mut self.outstanding {
            if now.since(*last) >= retry {
                *last = now;
                up.bump("tool.svc.client_retry");
                for &m in members.iter() {
                    up.direct(m, SvcMsg::Request { req, body: body.clone() });
                }
            }
        }
        !self.outstanding.is_empty()
    }

    /// The log, for a joining member's state transfer.
    pub fn export_log(&self) -> Vec<(ReqId, String)> {
        self.pending.iter().map(|(r, b)| (*r, b.clone())).collect()
    }

    /// Installs the log received by a joining member.
    pub fn import_log(&mut self, log: Vec<(ReqId, String)>) {
        self.pending = log.into_iter().collect();
    }
}
