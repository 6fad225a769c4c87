//! Per-group protocol state: casting, ordered delivery, and stability.
//!
//! One `GroupRuntime` exists at each member for each group it belongs to.
//! It implements the data-plane protocols (FBCAST/CBCAST/ABCAST), tracks
//! message stability for garbage collection, and cooperates with the
//! membership machinery in [`crate::membership`] (implemented as further
//! methods on the same type) to realise virtually synchronous view changes.

use std::collections::{BTreeMap, BTreeSet};

use now_sim::trace::{EventKind as TraceKind, MsgKey};
use now_sim::{Ctx, Pid, SimTime};

use crate::app::{Application, MsgOf};
use crate::config::{IsisConfig, HEARTBEAT};
use crate::msg::{CastData, DeliveryFloor, IsisMsg, StabilityVector};
use crate::types::{CastKind, GroupId, GroupView, IsisError, MsgId, ViewId};
use crate::vclock::VClock;

/// Externally visible consequences of protocol handling, applied by
/// [`crate::process::IsisProcess`] after the runtime returns (application
/// callbacks must not run while the runtime is mutably borrowed).
#[derive(Debug)]
pub(crate) enum Effect<P> {
    /// Deliver a cast to the application.
    Deliver {
        gid: GroupId,
        from: Pid,
        kind: CastKind,
        payload: P,
    },
    /// A new view was installed.
    View { view: GroupView, joined: bool },
    /// This process is no longer a member of the group.
    Left { gid: GroupId },
    /// The group stalled in a minority partition.
    Stall { gid: GroupId },
    /// One of our acked casts accumulated another delivery ack.
    CastAcked {
        gid: GroupId,
        id: MsgId,
        count: usize,
    },
    /// After installing a view as leader: send state-bearing installs to
    /// these joiners (the process layer consults the application for the
    /// snapshot).
    SendJoinerInstalls {
        gid: GroupId,
        attempt: u64,
        view: GroupView,
        joiners: Vec<Pid>,
    },
    /// Remove the runtime for this group entirely.
    DropGroup { gid: GroupId },
}

/// Interned per-category send counters, indexed by
/// [`IsisMsg::category_index`](crate::msg::IsisMsg::category_index).
/// Registered once per simulation on the first protocol send, so the
/// per-message cost is a single array index — no string comparison, no
/// tree walk, no allocation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SentCounters {
    ids: [now_sim::CounterId; SENT_COUNTER_NAMES.len()],
}

/// Counter names in [`IsisMsg::category_index`] order.
const SENT_COUNTER_NAMES: [&str; 15] = [
    "isis.sent.join_req",
    "isis.sent.join_fwd",
    "isis.sent.join_denied",
    "isis.sent.leave_req",
    "isis.sent.suspect",
    "isis.sent.flush",
    "isis.sent.flush_ack",
    "isis.sent.install",
    "isis.sent.cast_fifo",
    "isis.sent.cast_causal",
    "isis.sent.cast_total",
    "isis.sent.abcast_order",
    "isis.sent.cast_ack",
    "isis.sent.heartbeat",
    "isis.sent.direct",
];

impl SentCounters {
    pub(crate) fn register<M>(ctx: &mut Ctx<'_, M>) -> SentCounters {
        SentCounters {
            ids: SENT_COUNTER_NAMES.map(|name| ctx.counter_id(name)),
        }
    }
}

/// Borrowed context handed to every runtime method: the simulator effect
/// context, configuration, and the pending effect queue.
pub(crate) struct Env<'a, 'b, A: Application> {
    pub ctx: &'a mut Ctx<'b, MsgOf<A>>,
    pub cfg: &'a IsisConfig,
    pub effects: &'a mut Vec<Effect<A::Payload>>,
    /// Process-cached send-counter handles (filled on first send).
    pub sent: &'a mut Option<SentCounters>,
}

impl<'a, 'b, A: Application> Env<'a, 'b, A> {
    /// Sends a protocol message, bumping its per-category counter.
    pub fn send(&mut self, to: Pid, msg: MsgOf<A>) {
        let ctx = &mut *self.ctx;
        let sent = self.sent.get_or_insert_with(|| SentCounters::register(ctx));
        ctx.bump_id(sent.ids[msg.category_index()]);
        ctx.send(to, msg);
    }

    /// Sends one protocol message to every pid in `dsts` through the
    /// engine's shared-payload multicast: the message is built once and
    /// shared by `Rc` instead of deep-cloned per destination. Counts one
    /// message per destination, exactly like a loop of [`Env::send`].
    pub fn multicast(&mut self, dsts: Vec<Pid>, msg: MsgOf<A>) {
        if dsts.is_empty() {
            return;
        }
        let ctx = &mut *self.ctx;
        let sent = self.sent.get_or_insert_with(|| SentCounters::register(ctx));
        ctx.bump_id_by(sent.ids[msg.category_index()], dsts.len() as u64);
        ctx.multicast(dsts, msg);
    }

    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }
}

/// Flattens a protocol [`MsgId`] into the tracer's plain-integer key.
pub(crate) fn trace_key(id: &MsgId) -> MsgKey {
    MsgKey {
        sender: id.sender.0,
        view: id.view,
        stream: id.stream,
        seq: id.seq,
    }
}

/// Flattens a [`VClock`] into the tracer's `(pid, count)` pairs.
pub(crate) fn trace_vt(vt: &VClock) -> Vec<(u32, u64)> {
    vt.iter().map(|(p, v)| (p.0, v)).collect()
}

/// Operational status of a group member.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Normal operation.
    Normal,
    /// A view change is in progress: casting is buffered, incoming data for
    /// the current view is ignored (the flush relay decides the cut).
    Wedged,
    /// Stalled in a minority partition; no primary view can form.
    Stalled,
}

/// A received-but-undelivered cast awaiting its ordering condition.
#[derive(Clone, Debug)]
pub(crate) struct PendingCast<P> {
    pub id: MsgId,
    pub vt: VClock,
    pub payload: P,
    pub want_ack: bool,
}

/// Leader-side state of an in-progress view change (see
/// [`crate::membership`]).
#[derive(Debug)]
pub(crate) struct ViewChangeLead<P> {
    pub attempt: u64,
    pub retry_round: u64,
    pub proposal: GroupView,
    /// Old-view members expected to ack (includes the leader itself).
    pub participants: Vec<Pid>,
    /// How many entries of `pending_joiners` the proposal appends. The list
    /// only grows until the next install, so a joiner past this count is
    /// one the proposal lacks.
    pub joiners: usize,
    pub acks: BTreeMap<Pid, crate::msg::RelaySet<P>>,
    /// Highest current-view id reported by any participant, used to pick a
    /// fresh target view id after a botched install.
    pub max_member_view: ViewId,
    /// Highest delivered-ABCAST sequence reported by any participant;
    /// orphaned ABCASTs are re-sequenced above this floor.
    pub max_ack_floor: u64,
    pub started: SimTime,
}

/// Per-group member state.
pub(crate) struct GroupRuntime<A: Application> {
    pub gid: GroupId,
    pub me: Pid,
    pub view: GroupView,
    pub status: Status,

    // --- sender state (reset each view) ---
    seqs: [u64; 3],
    pub(crate) wedged_outbox: Vec<(CastKind, A::Payload, bool)>,

    // --- delivery state (reset each view) ---
    /// Delivered causal casts per sender (includes own).
    cvt: VClock,
    /// Delivered FIFO casts per sender.
    fdel: VClock,
    /// Highest contiguously delivered ABCAST global sequence.
    adel: u64,
    pending_causal: Vec<PendingCast<A::Payload>>,
    pending_fifo: BTreeMap<(Pid, u64), PendingCast<A::Payload>>,
    /// Received, undelivered ABCAST data by id.
    adata: BTreeMap<MsgId, PendingCast<A::Payload>>,
    /// Known but not yet delivered orders: gseq -> id.
    aorder: BTreeMap<u64, MsgId>,
    /// Sequencer-side: ids already assigned an order.
    aseq_assigned: BTreeMap<MsgId, u64>,
    /// Sequencer-side: next global sequence number to hand out.
    next_gseq: u64,

    // --- relay buffers (survive until stability or completed change) ---
    retained_causal: BTreeMap<MsgId, (VClock, A::Payload)>,
    retained_fifo: BTreeMap<MsgId, A::Payload>,
    retained_total: BTreeMap<u64, (MsgId, A::Payload)>,
    /// `retained_total` may still hold an earlier view's entries; the first
    /// completed stability pass of the current view drops them.
    stale_total: bool,

    // --- delivery record (never reset or pruned) ---
    /// Highest delivered `seq` per sender, for each view and stream this
    /// member delivered casts of. Within a view every stream delivers a
    /// sender's casts in `seq` order (causal and FIFO by their delivery
    /// conditions, ABCAST through the view's one sequencer and FIFO
    /// channels), so an id at or below its sender's mark is one this member
    /// delivered. Kept for the group's lifetime: a flush may relay an old
    /// view's cast long after stability pruned it here (see
    /// [`GroupRuntime::gc_stability`]), and a stale duplicate may arrive
    /// after that. It costs one entry per sender, view and stream, not one
    /// per message. For the current view the causal and FIFO marks equal
    /// `cvt` and `fdel`.
    marks: BTreeMap<(ViewId, u8), VClock>,

    // --- stability ---
    stab_seen: BTreeMap<Pid, StabilityVector>,

    // --- liveness ---
    /// When the current view was installed: every member counts as heard
    /// from at that instant, so installing costs nothing per member.
    pub(crate) live_since: SimTime,
    /// Evidence later than `live_since`, for view members other than this
    /// one: when each was last heard from. Sparse until the failure detector
    /// first looks past `FD_TIMEOUT`, which fills in every silent member at
    /// `live_since` (see [`GroupRuntime::check_fd`]).
    pub(crate) heard: BTreeMap<Pid, SimTime>,
    pub(crate) suspects: BTreeSet<Pid>,
    last_hb_sent: SimTime,

    // --- membership ---
    pub(crate) flush_acked: (ViewId, u64),
    /// Boxed: a runtime sits inline in its process's group map, and the
    /// lead exists only while this member runs a flush.
    pub(crate) vc: Option<Box<ViewChangeLead<A::Payload>>>,
    pub(crate) pending_joiners: Vec<Pid>,
    pub(crate) pending_leavers: Vec<Pid>,

    // --- ack tracking for my want_ack casts ---
    ack_counts: BTreeMap<MsgId, usize>,

    // --- reordering across views ---
    pub(crate) future_inbox: Vec<(Pid, MsgOf<A>)>,

    /// True from [`GroupRuntime::apply_relay`] until the
    /// [`GroupRuntime::install`] that must follow it; marks the relay's
    /// trace deliveries as relays (exempt from the per-view ordering
    /// monitors, which is correct: relays *are* the virtual-synchrony
    /// cut). The held-back paths assert it is false: a relay leaves stale
    /// entries in `pending_*`, `adata` and `aorder` that only the install
    /// clears.
    in_relay: bool,

    /// True when a stability input (a delivery, a peer snapshot, the view)
    /// changed since the last completed [`GroupRuntime::gc_stability`] pass.
    /// While clear, a GC pass would recompute the same floors and prune
    /// nothing, so it is skipped outright.
    stab_dirty: bool,
}

impl<A: Application> GroupRuntime<A> {
    /// Creates the runtime for a founding member (singleton view 1).
    pub fn new_created(gid: GroupId, me: Pid, now: SimTime) -> GroupRuntime<A> {
        GroupRuntime::with_view(GroupView::initial(gid, me), me, now)
    }

    /// Creates the runtime for a joiner installing its first view.
    pub fn new_joined(view: GroupView, me: Pid, now: SimTime) -> GroupRuntime<A> {
        GroupRuntime::with_view(view, me, now)
    }

    fn with_view(view: GroupView, me: Pid, now: SimTime) -> GroupRuntime<A> {
        GroupRuntime {
            gid: view.gid,
            me,
            view,
            status: Status::Normal,
            seqs: [0; 3],
            wedged_outbox: Vec::new(),
            cvt: VClock::new(),
            fdel: VClock::new(),
            adel: 0,
            pending_causal: Vec::new(),
            pending_fifo: BTreeMap::new(),
            adata: BTreeMap::new(),
            aorder: BTreeMap::new(),
            aseq_assigned: BTreeMap::new(),
            next_gseq: 1,
            retained_causal: BTreeMap::new(),
            retained_fifo: BTreeMap::new(),
            retained_total: BTreeMap::new(),
            stale_total: false,
            marks: BTreeMap::new(),
            stab_seen: BTreeMap::new(),
            live_since: now,
            heard: BTreeMap::new(),
            suspects: BTreeSet::new(),
            last_hb_sent: now,
            flush_acked: (0, 0),
            vc: None,
            pending_joiners: Vec::new(),
            pending_leavers: Vec::new(),
            ack_counts: BTreeMap::new(),
            future_inbox: Vec::new(),
            in_relay: false,
            stab_dirty: true,
        }
    }

    /// The current delivery cut, captured at the same instant as an
    /// exported state snapshot so a joiner install carries a consistent
    /// `(state, floor)` pair.
    pub(crate) fn delivery_floor(&self) -> DeliveryFloor {
        // The marks travel as each sender's last delivered id per view and
        // stream, from which the joiner rebuilds them.
        let mut delivered: Vec<MsgId> = self
            .marks
            .iter()
            .flat_map(|(&(view, stream), m)| {
                m.iter().map(move |(sender, seq)| MsgId {
                    sender,
                    view,
                    stream,
                    seq,
                })
            })
            .collect();
        delivered.sort_unstable();
        DeliveryFloor {
            cvt: self.cvt.clone(),
            fdel: self.fdel.clone(),
            adel: self.adel,
            delivered,
        }
    }

    /// Starts a joiner's delivery state at the donor's snapshot cut.
    /// Without this, a joiner admitted mid-view (e.g. a restart the group
    /// never noticed) would re-deliver flush relays whose effects its
    /// imported state already contains.
    pub(crate) fn set_delivery_floor(&mut self, f: DeliveryFloor) {
        self.cvt = f.cvt;
        self.fdel = f.fdel;
        self.adel = f.adel;
        self.next_gseq = self.adel + 1;
        for id in f.delivered {
            self.mark(id);
        }
    }

    pub(crate) fn reset_liveness(&mut self, now: SimTime) {
        self.live_since = now;
        self.heard.clear();
    }

    /// Records liveness evidence from `from`, if it is another member of
    /// the view. Evidence no later than the install adds nothing.
    pub(crate) fn heard_from(&mut self, from: Pid, now: SimTime) {
        if let Some(t) = self.heard.get_mut(&from) {
            *t = (*t).max(now);
        } else if now > self.live_since
            && from != self.me
            // Once every peer has an entry, a miss is a non-member.
            && self.heard.len() + 1 < self.view.size()
            && self.view.contains(from)
        {
            self.heard.insert(from, now);
        }
    }

    /// The sequencer of the current view (assigns ABCAST order).
    pub fn sequencer(&self) -> Pid {
        self.view.coordinator()
    }

    /// Whether this member currently acts as the ABCAST sequencer.
    pub fn i_am_sequencer(&self) -> bool {
        self.sequencer() == self.me
    }

    /// Everyone in the view but me.
    pub(crate) fn peers(&self) -> Vec<Pid> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect()
    }

    /// View members not currently suspected, oldest first.
    pub(crate) fn survivors(&self) -> Vec<Pid> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|m| !self.suspects.contains(m))
            .collect()
    }

    // ------------------------------------------------------------------
    // Casting
    // ------------------------------------------------------------------

    /// Initiates a broadcast. While wedged the cast is buffered and sent in
    /// the next view (returning `Ok(None)`); while stalled it is refused.
    pub fn cast(
        &mut self,
        kind: CastKind,
        payload: A::Payload,
        want_ack: bool,
        env: &mut Env<'_, '_, A>,
    ) -> Result<Option<MsgId>, IsisError> {
        match self.status {
            Status::Stalled => return Err(IsisError::Stalled(self.gid)),
            Status::Wedged => {
                self.wedged_outbox.push((kind, payload, want_ack));
                return Ok(None);
            }
            Status::Normal => {}
        }
        let stream = kind.stream() as usize;
        self.seqs[stream] += 1;
        let id = MsgId {
            sender: self.me,
            view: self.view.view_id,
            stream: kind.stream(),
            seq: self.seqs[stream],
        };
        if want_ack {
            self.ack_counts.insert(id, 0);
        }
        let vt = match kind {
            // Stamp with the post-send vector: own entry counts this
            // message itself (standard CBCAST self-delivery).
            CastKind::Causal => {
                self.cvt.set(self.me, id.seq);
                self.cvt.clone()
            }
            CastKind::Fifo | CastKind::Total => VClock::new(),
        };
        let tgid = self.gid.0;
        env.ctx.trace_with(|| TraceKind::CastSend {
            gid: tgid,
            msg: trace_key(&id),
            vt: trace_vt(&vt),
        });
        if kind == CastKind::Total {
            // Even the sender must wait for the global order.
            let pc = PendingCast {
                id,
                vt: VClock::new(),
                payload: payload.clone(),
                want_ack,
            };
            self.adata.insert(id, pc);
        } else {
            self.deliver(id, kind, 0, vt.clone(), payload.clone(), env);
        }
        let data = self.make_cast(kind, id, vt, want_ack, payload);
        env.multicast(self.peers(), IsisMsg::Cast(data));
        if kind == CastKind::Total {
            if self.i_am_sequencer() {
                self.assign_order(id, env);
            }
            self.try_deliver_total(env);
        }
        Ok(Some(id))
    }

    fn make_cast(
        &self,
        kind: CastKind,
        id: MsgId,
        vt: VClock,
        want_ack: bool,
        payload: A::Payload,
    ) -> CastData<A::Payload> {
        CastData {
            gid: self.gid,
            view: self.view.view_id,
            kind,
            id,
            vt,
            stab: self.my_stab(),
            want_ack,
            payload,
        }
    }

    /// This member's own stability vector.
    pub(crate) fn my_stab(&self) -> StabilityVector {
        StabilityVector {
            view: self.view.view_id,
            cvt: self.cvt.clone(),
            fvt: self.fdel.clone(),
            adel: self.adel,
        }
    }

    // ------------------------------------------------------------------
    // Incoming data
    // ------------------------------------------------------------------

    /// Handles an incoming [`CastData`]. Hands the cast back if it belongs
    /// to a future view (the caller buffers it); `None` once consumed.
    pub fn handle_cast(
        &mut self,
        from: Pid,
        data: CastData<A::Payload>,
        env: &mut Env<'_, '_, A>,
    ) -> Option<CastData<A::Payload>> {
        self.heard_from(from, env.now());
        if data.view > self.view.view_id {
            return Some(data);
        }
        if data.view < self.view.view_id {
            // Stale: the view change that superseded it already decided its
            // fate via the relay.
            env.ctx.bump("isis.recv.stale_cast");
            return None;
        }
        if self.status == Status::Wedged {
            // The flush cut is being computed; late arrivals are dropped —
            // if anyone delivered this message pre-ack it is in the relay.
            env.ctx.bump("isis.recv.wedged_drop");
            return None;
        }
        self.note_stab(from, &data.stab);
        if self.delivered(&data.id) {
            env.ctx.bump("isis.recv.dup");
            return None;
        }
        match data.kind {
            CastKind::Causal => {
                let id = data.id;
                self.pending_causal.push(PendingCast {
                    id,
                    vt: data.vt,
                    payload: data.payload,
                    want_ack: data.want_ack,
                });
                self.try_deliver_causal(env);
                if self.pending_causal.iter().any(|pc| pc.id == id) {
                    // Arrived ahead of a causal predecessor: held back.
                    env.ctx.bump("isis.causal_delayed");
                }
            }
            CastKind::Fifo => {
                self.pending_fifo.insert(
                    (data.id.sender, data.id.seq),
                    PendingCast {
                        id: data.id,
                        vt: VClock::new(),
                        payload: data.payload,
                        want_ack: data.want_ack,
                    },
                );
                self.try_deliver_fifo(env);
            }
            CastKind::Total => {
                let id = data.id;
                self.adata.insert(
                    id,
                    PendingCast {
                        id,
                        vt: VClock::new(),
                        payload: data.payload,
                        want_ack: data.want_ack,
                    },
                );
                if self.i_am_sequencer() {
                    self.assign_order(id, env);
                }
                self.try_deliver_total(env);
            }
        }
        self.gc_stability();
        None
    }

    /// Whether this member delivered `id` (see `marks`).
    fn delivered(&self, id: &MsgId) -> bool {
        self.marks
            .get(&(id.view, id.stream))
            .is_some_and(|m| id.seq <= m.get(id.sender))
    }

    /// Records the delivery of `id` (see `marks`).
    fn mark(&mut self, id: MsgId) {
        let m = self.marks.entry((id.view, id.stream)).or_default();
        m.set(id.sender, id.seq.max(m.get(id.sender)));
    }

    /// Handles an ABCAST order announcement. Returns `false` for a future
    /// view (caller buffers).
    pub fn handle_order(
        &mut self,
        from: Pid,
        view: ViewId,
        gseq: u64,
        id: MsgId,
        env: &mut Env<'_, '_, A>,
    ) -> bool {
        self.heard_from(from, env.now());
        if view > self.view.view_id {
            return false;
        }
        if view < self.view.view_id || self.status == Status::Wedged {
            return true;
        }
        self.aorder.insert(gseq, id);
        self.try_deliver_total(env);
        true
    }

    /// Handles a delivery ack for one of our `want_ack` casts.
    pub fn handle_cast_ack(&mut self, from: Pid, id: MsgId, env: &mut Env<'_, '_, A>) {
        self.heard_from(from, env.now());
        if let Some(c) = self.ack_counts.get_mut(&id) {
            *c += 1;
            let count = *c;
            env.effects.push(Effect::CastAcked {
                gid: self.gid,
                id,
                count,
            });
        }
    }

    /// Handles a liveness/stability heartbeat.
    pub fn handle_heartbeat(&mut self, from: Pid, stab: StabilityVector, env: &mut Env<'_, '_, A>) {
        self.heard_from(from, env.now());
        self.note_stab(from, &stab);
        self.gc_stability();
    }

    fn note_stab(&mut self, from: Pid, stab: &StabilityVector) {
        let e = self.stab_seen.entry(from).or_default();
        if stab.view > e.view {
            *e = stab.clone();
            self.stab_dirty = true;
        } else if stab.view == e.view
            && (stab.adel > e.adel || stab.cvt != e.cvt || stab.fvt != e.fvt)
        {
            // Pointwise max, merged in place (max is commutative, so
            // merging the snapshot into the record equals rebuilding the
            // record from the snapshot).
            e.cvt.merge(&stab.cvt);
            e.fvt.merge(&stab.fvt);
            e.adel = e.adel.max(stab.adel);
            self.stab_dirty = true;
        }
    }

    // ------------------------------------------------------------------
    // Delivery machinery
    // ------------------------------------------------------------------

    /// Delivers `id` to the application and records it in `marks`. A
    /// current-view cast advances its stream's delivery state and enters
    /// its stream's relay buffer; an older view's cast (relayed by a flush
    /// whose leader crashed mid-install) touches no current-view state.
    fn deliver(
        &mut self,
        id: MsgId,
        kind: CastKind,
        gseq: u64,
        vt: VClock,
        payload: A::Payload,
        env: &mut Env<'_, '_, A>,
    ) {
        let (gid, view, relay) = (self.gid.0, self.view.view_id, self.in_relay);
        env.ctx.trace_with(|| TraceKind::CastDeliver {
            gid,
            view,
            msg: trace_key(&id),
            gseq,
            relay,
            vt: trace_vt(&vt),
        });
        self.mark(id);
        self.stab_dirty = true;
        match kind {
            _ if id.view != view => env.ctx.bump("isis.relay.crossview"),
            CastKind::Causal => {
                self.cvt.set(id.sender, id.seq);
                self.retained_causal.insert(id, (vt, payload.clone()));
            }
            CastKind::Fifo => {
                self.fdel.set(id.sender, id.seq);
                self.retained_fifo.insert(id, payload.clone());
            }
            CastKind::Total => {
                self.adel = gseq;
                self.retained_total.insert(gseq, (id, payload.clone()));
            }
        }
        env.effects.push(Effect::Deliver {
            gid: self.gid,
            from: id.sender,
            kind,
            payload,
        });
    }

    /// Delivers a held-back cast whose ordering condition now holds, then
    /// acks it if its sender asked.
    fn deliver_pending(
        &mut self,
        pc: PendingCast<A::Payload>,
        kind: CastKind,
        gseq: u64,
        env: &mut Env<'_, '_, A>,
    ) {
        let PendingCast {
            id,
            vt,
            payload,
            want_ack,
        } = pc;
        debug_assert!(!self.in_relay, "a relay ran without an install");
        self.deliver(id, kind, gseq, vt, payload, env);
        if want_ack && id.sender != self.me {
            env.send(
                id.sender,
                IsisMsg::CastAck {
                    gid: self.gid,
                    id,
                },
            );
        }
    }

    fn try_deliver_causal(&mut self, env: &mut Env<'_, '_, A>) {
        loop {
            let idx = self
                .pending_causal
                .iter()
                .position(|pc| self.cvt.deliverable(pc.id.sender, &pc.vt));
            let Some(idx) = idx else { break };
            let pc = self.pending_causal.swap_remove(idx);
            self.deliver_pending(pc, CastKind::Causal, 0, env);
        }
    }

    fn try_deliver_fifo(&mut self, env: &mut Env<'_, '_, A>) {
        loop {
            let next = self.pending_fifo.iter().find_map(|((s, q), _)| {
                if self.fdel.get(*s) + 1 == *q {
                    Some((*s, *q))
                } else {
                    None
                }
            });
            let Some(key) = next else { break };
            let pc = self.pending_fifo.remove(&key).expect("key just found");
            self.deliver_pending(pc, CastKind::Fifo, 0, env);
        }
    }

    fn try_deliver_total(&mut self, env: &mut Env<'_, '_, A>) {
        loop {
            let next = self.adel + 1;
            let Some(&id) = self.aorder.get(&next) else {
                break;
            };
            let Some(pc) = self.adata.remove(&id) else {
                break; // Data still in flight.
            };
            self.aorder.remove(&next);
            self.deliver_pending(pc, CastKind::Total, next, env);
        }
    }

    /// Sequencer: assigns the next global sequence to `id` and announces
    /// the decision.
    fn assign_order(&mut self, id: MsgId, env: &mut Env<'_, '_, A>) {
        if self.aseq_assigned.contains_key(&id) || self.delivered(&id) {
            return;
        }
        let gseq = self.next_gseq;
        self.next_gseq += 1;
        self.aseq_assigned.insert(id, gseq);
        self.aorder.insert(gseq, id);
        let msg = IsisMsg::AbcastOrder {
            gid: self.gid,
            view: self.view.view_id,
            gseq,
            id,
        };
        env.multicast(self.peers(), msg);
    }

    // ------------------------------------------------------------------
    // Stability and garbage collection
    // ------------------------------------------------------------------

    /// Prunes buffers of messages everyone has delivered.
    ///
    /// Runs on the data path (after every cast and heartbeat), so it is
    /// gated by `stab_dirty` — if no delivery, peer snapshot, or view has
    /// changed since the last completed pass, the floors below would come
    /// out identical and nothing new could be pruned — and the floors are
    /// computed into one flat per-member table instead of keyed maps.
    fn gc_stability(&mut self) {
        if !self.stab_dirty {
            return;
        }
        let vid = self.view.view_id;
        let members = &self.view.members;
        // Stability needs a current-view snapshot from every peer. Until
        // then a pass could conclude nothing, so it stops at the first peer
        // without one, before building any table, leaving the dirty flag
        // set for the next attempt.
        let current = |p: &Pid| self.stab_seen.get(p).filter(|sv| sv.view == vid);
        if !members.iter().all(|p| *p == self.me || current(p).is_some()) {
            return;
        }
        // Per-sender stable floors: the minimum of my own delivery vectors
        // and every peer's snapshot.
        let mut stable_c: Vec<u64> = members.iter().map(|&s| self.cvt.get(s)).collect();
        let mut stable_f: Vec<u64> = members.iter().map(|&s| self.fdel.get(s)).collect();
        let mut stable_a = self.adel;
        for sv in members.iter().filter(|&&p| p != self.me).filter_map(current) {
            for (k, &s) in members.iter().enumerate() {
                stable_c[k] = stable_c[k].min(sv.cvt.get(s));
                stable_f[k] = stable_f[k].min(sv.fvt.get(s));
            }
            stable_a = stable_a.min(sv.adel);
        }
        let floor = |table: &[u64], sender: Pid| -> u64 {
            members
                .iter()
                .position(|&m| m == sender)
                .map_or(0, |k| table[k])
        };

        // Every member has installed this view, so no flush needs an older
        // view's relay buffers any more. `retained_total` is keyed by gseq,
        // which restarts each view: its older entries go here, once per
        // view, not by the gseq floor below.
        if self.stale_total {
            self.retained_total.retain(|_, (id, _)| id.view >= vid);
            self.stale_total = false;
        }
        // A total-order message is stable with its gseq; its ack entry
        // leaves with it.
        while let Some(e) = self.retained_total.first_entry() {
            if *e.key() > stable_a {
                break;
            }
            let (id, _) = e.remove();
            self.ack_counts.remove(&id);
        }
        self.aseq_assigned.retain(|_, gseq| *gseq > stable_a);
        // Current-view causal and FIFO casts are stable at their sender's
        // floor. An older view's relay buffers go now; its ack entries
        // outlive it by one view change.
        let keep_id = |id: &MsgId| {
            if id.view != vid {
                return id.view + 1 >= vid;
            }
            match id.stream {
                0 => id.seq > floor(&stable_c, id.sender),
                1 => id.seq > floor(&stable_f, id.sender),
                _ => true, // Total: only in `ack_counts`, pruned above.
            }
        };
        self.retained_causal.retain(|id, _| id.view >= vid && keep_id(id));
        self.retained_fifo.retain(|id, _| id.view >= vid && keep_id(id));
        self.ack_counts.retain(|id, _| keep_id(id));
        self.stab_dirty = false;
    }

    /// Collects everything unstable for a flush ack (see
    /// [`crate::membership`]).
    pub(crate) fn collect_unstable(&self) -> crate::msg::RelaySet<A::Payload> {
        debug_assert!(!self.in_relay, "a relay ran without an install");
        let mut r = crate::msg::RelaySet::default();
        for (id, (vt, p)) in &self.retained_causal {
            r.causal.push((*id, vt.clone(), p.clone()));
        }
        for pc in &self.pending_causal {
            r.causal.push((pc.id, pc.vt.clone(), pc.payload.clone()));
        }
        for (id, p) in &self.retained_fifo {
            r.fifo.push((*id, p.clone()));
        }
        for pc in self.pending_fifo.values() {
            r.fifo.push((pc.id, pc.payload.clone()));
        }
        for (gseq, (id, p)) in &self.retained_total {
            r.total_ordered.push((*gseq, *id, p.clone()));
        }
        // Undelivered abcast data: ordered if we know the order.
        let order_of: BTreeMap<MsgId, u64> =
            self.aorder.iter().map(|(g, id)| (*id, *g)).collect();
        for (id, pc) in &self.adata {
            if let Some(g) = order_of.get(id) {
                r.total_ordered.push((*g, *id, pc.payload.clone()));
            } else {
                r.total_unordered.push((*id, pc.payload.clone()));
            }
        }
        r
    }

    /// Applies a relay set (during a view change), delivering every message
    /// this member has not yet delivered, in a deterministic order that
    /// extends causality. The held-back casts it delivers stay in
    /// `pending_*`, `adata` and `aorder`: the caller either installs next,
    /// which clears them, or drops the group, so they are never read.
    pub(crate) fn apply_relay(
        &mut self,
        relay: &crate::msg::RelaySet<A::Payload>,
        env: &mut Env<'_, '_, A>,
    ) {
        self.in_relay = true;
        self.stab_dirty = true;
        // Causal: sort by (vt sum, sender, seq) — a linear extension of the
        // causal order (vt sums strictly increase along causal chains).
        let mut causal: Vec<&(MsgId, VClock, A::Payload)> = relay.causal.iter().collect();
        causal.sort_by_key(|(id, vt, _)| (vt.sum(), id.sender, id.seq));
        let mut fifo: Vec<&(MsgId, A::Payload)> = relay.fifo.iter().collect();
        fifo.sort_by_key(|(id, _)| (id.sender, id.seq));
        let mut total: Vec<&(u64, MsgId, A::Payload)> = relay.total_ordered.iter().collect();
        total.sort_by_key(|(g, _, _)| *g);
        let no_vt = VClock::new();
        let casts = causal
            .into_iter()
            .map(|(id, vt, p)| (CastKind::Causal, 0, id, vt, p))
            .chain(fifo.into_iter().map(|(id, p)| (CastKind::Fifo, 0, id, &no_vt, p)))
            .chain(
                total
                    .into_iter()
                    .map(|(g, id, p)| (CastKind::Total, *g, id, &no_vt, p)),
            );
        for (kind, gseq, id, vt, p) in casts {
            // A current-view gseq at or below `adel` is taken, whatever id
            // the relay pairs it with.
            let taken =
                kind == CastKind::Total && id.view == self.view.view_id && gseq <= self.adel;
            if !taken && !self.delivered(id) {
                self.deliver(*id, kind, gseq, vt.clone(), p.clone(), env);
            }
        }
        debug_assert!(
            relay.total_unordered.is_empty(),
            "install relays carry only ordered totals"
        );
    }

    /// Resets per-view protocol state after installing `view`.
    pub(crate) fn install(&mut self, view: GroupView, now: SimTime) {
        debug_assert!(view.view_id > self.view.view_id);
        self.view = view;
        self.stab_dirty = true;
        self.status = Status::Normal;
        self.in_relay = false;
        self.seqs = [0; 3];
        self.cvt = VClock::new();
        self.fdel = VClock::new();
        self.adel = 0;
        self.pending_causal.clear();
        self.pending_fifo.clear();
        self.adata.clear();
        self.aorder.clear();
        self.aseq_assigned.clear();
        self.next_gseq = 1;
        // Retained buffers survive one view change, in case the flush leader
        // died mid-install; gc_stability prunes them once everyone confirms
        // the new view.
        self.stale_total = !self.retained_total.is_empty();
        self.stab_seen.clear();
        self.suspects.clear();
        self.vc = None;
        self.flush_acked = (0, 0);
        self.pending_joiners.clear();
        self.pending_leavers.clear();
        self.reset_liveness(now);
    }

    /// Estimated bytes of membership-related state held by this member —
    /// the quantity the paper's hierarchy bounds (experiment E7).
    pub fn membership_storage_bytes(&self) -> usize {
        self.view.storage_bytes()
            + self
                .stab_seen
                .values()
                .map(StabilityVector::wire_bytes)
                .sum::<usize>()
            // One liveness entry per peer, as if every one were recorded.
            + self.view.size().saturating_sub(1) * 12
            + self.suspects.len() * 4
            + self.cvt.storage_bytes()
            + self.fdel.storage_bytes()
    }

    /// Number of messages currently buffered for potential relay.
    pub fn relay_buffer_len(&self) -> usize {
        self.retained_causal.len()
            + self.retained_fifo.len()
            + self.retained_total.len()
            + self.pending_causal.len()
            + self.pending_fifo.len()
            + self.adata.len()
    }

    /// Exposes the heartbeat deadline logic to the process tick.
    pub(crate) fn maybe_heartbeat(&mut self, env: &mut Env<'_, '_, A>) {
        if !env.cfg.heartbeats_enabled || self.status == Status::Stalled {
            return;
        }
        let now = env.now();
        if now.since(self.last_hb_sent) < HEARTBEAT {
            return;
        }
        self.last_hb_sent = now;
        let stab = self.my_stab();
        env.multicast(
            self.peers(),
            IsisMsg::Heartbeat {
                gid: self.gid,
                stab,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use now_sim::SimDuration;

    use super::GroupRuntime;
    use crate::config::{IsisConfig, HEARTBEAT};
    use crate::msg::{CastData, IsisMsg, StabilityVector};
    use crate::testutil::{cluster, Cluster, RecorderApp};
    use crate::types::{CastKind, MsgId};
    use crate::vclock::VClock;

    fn rt(c: &Cluster, i: usize) -> &GroupRuntime<RecorderApp> {
        c.sim.process(c.pids[i]).runtime(c.gid).expect("member")
    }

    /// The `CastKind::Total` twin of the flat decay check, by count: what a
    /// member keeps per delivered ABCAST (its relay entry) covers what
    /// stability has not confirmed yet, not the whole history of the
    /// stream; the marks hold one entry per sender.
    #[test]
    fn abcast_state_stays_bounded_over_a_long_stream() {
        const N: usize = 16;
        // Two heartbeat intervals' worth of casts at one per millisecond.
        let bound = 2 * (HEARTBEAT.as_micros() / 1_000) as usize;
        let mut c = cluster(N, IsisConfig::default(), 21);
        let gid = c.gid;
        for quarter in 0..4 {
            for i in 0..500 {
                let from = c.pids[(quarter * 500 + i) % N];
                let payload = format!("q{quarter}m{i}");
                c.sim.invoke(from, move |p, ctx| {
                    p.cast(gid, CastKind::Total, payload, ctx).expect("member")
                });
                c.sim.run_for(SimDuration::from_millis(1));
            }
            for i in 0..N {
                let r = rt(&c, i);
                let held = r.retained_total.len();
                assert!(
                    held < bound,
                    "after quarter {quarter} member {i} holds {held} relay entries (bound {bound})"
                );
                let marks: usize = r.marks.values().map(VClock::len).sum();
                assert!(marks <= N, "member {i} holds {marks} ABCAST marks");
            }
        }
        c.sim.run_for(SimDuration::from_secs(1));
        for (p, log) in c.live_logs() {
            assert_eq!(log.len(), 2_000, "{p} missed deliveries");
        }
        c.assert_identical_logs();
    }

    /// Has `pids[i]` leave and waits for the `expect` survivors to agree.
    fn leave(c: &mut Cluster, i: usize, expect: usize) {
        let gid = c.gid;
        c.sim
            .invoke(c.pids[i], move |p, ctx| p.leave(gid, ctx))
            .expect("alive")
            .expect("member");
        c.await_membership(expect, SimDuration::from_secs(10));
    }

    /// How often each process, leavers included, delivered `payload`.
    fn times_delivered(c: &Cluster, payload: &str) -> Vec<usize> {
        c.pids
            .iter()
            .map(|&p| {
                let log = c.sim.process(p).app().payloads(c.gid);
                log.iter().filter(|m| *m == payload).count()
            })
            .collect()
    }

    /// An ABCAST still unstable when its view ends stays in the relay
    /// buffers of the next view only until that view's first completed
    /// stability pass. Kept longer, views with fewer ABCASTs than its gseq
    /// never pop it, and every later flush relays it again.
    #[test]
    fn abcast_unstable_at_a_view_change_is_delivered_once() {
        let mut c = cluster(6, IsisConfig::default(), 3);
        let gid = c.gid;
        c.sim.invoke(c.pids[1], move |p, ctx| {
            p.cast(gid, CastKind::Total, "x".to_string(), ctx).expect("member")
        });
        c.sim.run_for(SimDuration::from_millis(1));
        assert!(
            (0..6).all(|i| rt(&c, i).retained_total.len() == 1),
            "precondition: the ABCAST is delivered but not yet stable"
        );
        for (leaver, left) in [(5, 5), (4, 4), (3, 3)] {
            leave(&mut c, leaver, left);
            c.sim.run_for(SimDuration::from_secs(1));
            for i in 0..left {
                assert!(rt(&c, i).retained_total.is_empty(), "member {i} still buffers x");
            }
        }
        assert_eq!(times_delivered(&c, "x"), vec![1; 6]);
    }

    /// Whether `r` holds `id` in its stream's relay buffer.
    fn relay_holds(r: &GroupRuntime<RecorderApp>, id: &MsgId) -> bool {
        match id.stream {
            0 => r.retained_causal.contains_key(id),
            1 => r.retained_fifo.contains_key(id),
            _ => r.retained_total.values().any(|(held, _)| held == id),
        }
    }

    /// Casts `payload` from `pids[i]` and returns its id.
    fn cast_from(c: &mut Cluster, i: usize, kind: CastKind, payload: &str) -> MsgId {
        let (gid, payload) = (c.gid, payload.to_string());
        c.sim
            .invoke(c.pids[i], move |p, ctx| p.cast(gid, kind, payload, ctx))
            .expect("alive")
            .expect("member")
            .expect("not wedged")
    }

    /// In a group without heartbeats, stability snapshots ride only on
    /// casts, so one member can prune a cast while another keeps it
    /// buffered through any number of view changes and relays it in every
    /// flush. The per-view delivery marks still recognise it.
    fn pruned_at_one_member_is_not_delivered_again_by_later_relays(kind: CastKind) {
        let mut c = cluster(6, IsisConfig::quiet(), 4);
        let x = cast_from(&mut c, 0, kind, "x");
        c.sim.run_for(SimDuration::from_millis(10));
        // Everyone but member 2 casts after delivering x, so member 2
        // learns that x is stable and the others never do.
        for i in [0, 1, 3, 4, 5] {
            cast_from(&mut c, i, CastKind::Fifo, &format!("after{i}"));
            c.sim.run_for(SimDuration::from_millis(10));
        }
        let holds_x: Vec<bool> = (0..6).map(|i| relay_holds(rt(&c, i), &x)).collect();
        assert_eq!(
            holds_x,
            [true, true, false, true, true, true],
            "precondition: member 2 alone pruned x"
        );
        for (leaver, left) in [(5, 5), (4, 4), (3, 3)] {
            leave(&mut c, leaver, left);
        }
        assert_eq!(times_delivered(&c, "x"), vec![1; 6]);
    }

    #[test]
    fn abcast_pruned_at_one_member_is_not_delivered_again_by_later_relays() {
        pruned_at_one_member_is_not_delivered_again_by_later_relays(CastKind::Total);
    }

    #[test]
    fn causal_pruned_at_one_member_is_not_delivered_again_by_later_relays() {
        pruned_at_one_member_is_not_delivered_again_by_later_relays(CastKind::Causal);
    }

    #[test]
    fn fifo_pruned_at_one_member_is_not_delivered_again_by_later_relays() {
        pruned_at_one_member_is_not_delivered_again_by_later_relays(CastKind::Fifo);
    }

    /// A joiner started from a donor's delivery floor recognises every
    /// cast the donor delivered — of every stream, in this view and earlier
    /// ones, stable and pruned or not — so neither a stale duplicate nor a
    /// later relay is applied on top of the state it imported.
    #[test]
    fn joiner_floor_carries_the_abcast_marks() {
        let mut c = cluster(4, IsisConfig::default(), 6);
        let kinds = [CastKind::Causal, CastKind::Fifo, CastKind::Total];
        let mut sent = Vec::new();
        for round in 0..2 {
            for i in 0..30 {
                let kind = kinds[i % kinds.len()];
                sent.push(cast_from(&mut c, i % 3, kind, &format!("r{round}m{i}")));
                c.sim.run_for(SimDuration::from_millis(50));
            }
            if round == 0 {
                leave(&mut c, 3, 3);
            }
        }
        let donor = rt(&c, 0);
        for kind in kinds {
            assert!(
                sent[30..].iter().any(|id| id.stream == kind.stream() && !relay_holds(donor, id)),
                "precondition: stability pruned some of the last view's {kind:?} casts"
            );
        }
        let mut joiner =
            GroupRuntime::<RecorderApp>::new_joined(donor.view.clone(), c.pids[3], c.sim.now());
        joiner.set_delivery_floor(donor.delivery_floor());
        for id in &sent {
            assert!(joiner.delivered(id), "{id:?} not recognised");
            let next = MsgId { seq: id.seq + 1, ..*id };
            assert_eq!(joiner.delivered(&next), sent.contains(&next), "{next:?}");
        }
        assert_eq!(joiner.marks, donor.marks);
    }

    /// Once stability pruned a cast, a stale duplicate of it reaching the
    /// ABCAST sequencer is still recognised — by its sender's delivery mark
    /// — so it is counted, neither held back nor ordered again, and
    /// delivered nowhere a second time.
    fn stale_duplicate_is_not_delivered_again(kind: CastKind) {
        let mut c = cluster(4, IsisConfig::default(), 5);
        let gid = c.gid;
        let (sequencer, sender) = (c.pids[0], c.pids[1]);
        assert_eq!(rt(&c, 0).sequencer(), sequencer);
        let id = cast_from(&mut c, 1, kind, "x");
        // Heartbeats carry everyone's progress: the cast becomes stable.
        c.sim.run_for(SimDuration::from_secs(1));
        let seq_rt = rt(&c, 0);
        assert!(!relay_holds(seq_rt, &id), "precondition: {id:?} is stable and pruned");
        let mut vt = VClock::new();
        if kind == CastKind::Causal {
            vt.set(sender, id.seq);
        }
        let dup = CastData {
            gid,
            view: seq_rt.view.view_id,
            kind,
            id,
            vt,
            stab: StabilityVector::default(),
            want_ack: false,
            payload: "x".to_string(),
        };
        let dups = c.sim.stats().counter("isis.recv.dup");
        let orders = c.sim.stats().counter("isis.sent.abcast_order");
        c.sim
            .invoke(sender, move |_, ctx| ctx.send(sequencer, IsisMsg::Cast(dup)));
        c.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(c.sim.stats().counter("isis.recv.dup"), dups + 1);
        assert_eq!(c.sim.stats().counter("isis.sent.abcast_order"), orders);
        let seq_rt = rt(&c, 0);
        assert!(seq_rt.pending_causal.is_empty() && seq_rt.pending_fifo.is_empty());
        for (p, log) in c.live_logs() {
            assert_eq!(log, vec!["x".to_string()], "{p}");
        }
    }

    #[test]
    fn stale_abcast_duplicate_is_not_sequenced_again() {
        stale_duplicate_is_not_delivered_again(CastKind::Total);
    }

    #[test]
    fn stale_causal_duplicate_is_not_delivered_again() {
        stale_duplicate_is_not_delivered_again(CastKind::Causal);
    }

    #[test]
    fn stale_fifo_duplicate_is_not_delivered_again() {
        stale_duplicate_is_not_delivered_again(CastKind::Fifo);
    }

    /// `ack_counts` entries leave at their id's stability floor. That loses
    /// no ack: an acker's ack travels on its FIFO channel ahead of any
    /// snapshot showing the delivery, so every cast still reports counts
    /// 1..n-1 to the application.
    #[test]
    fn ack_counts_are_pruned_at_stability_without_losing_acks() {
        const N: usize = 4;
        const CASTS: usize = 1_200;
        let mut c = cluster(N, IsisConfig::default(), 9);
        let gid = c.gid;
        let kinds = [CastKind::Causal, CastKind::Fifo, CastKind::Total];
        let mut sent: Vec<Vec<MsgId>> = vec![Vec::new(); N];
        let mut peak = 0;
        for i in 0..CASTS {
            let (who, kind) = (i % N, kinds[i % kinds.len()]);
            let id = c
                .sim
                .invoke(c.pids[who], move |p, ctx| {
                    p.cast_acked(gid, kind, format!("m{i}"), ctx)
                })
                .expect("alive")
                .expect("member")
                .expect("not wedged");
            sent[who].push(id);
            c.sim.run_for(SimDuration::from_millis(1));
            peak = (0..N).map(|k| rt(&c, k).ack_counts.len()).fold(peak, usize::max);
        }
        c.sim.run_for(SimDuration::from_secs(1));
        assert!(peak < CASTS / N / 4, "ack_counts peaked at {peak}");
        for (k, ids) in sent.iter().enumerate() {
            assert!(rt(&c, k).ack_counts.is_empty(), "member {k} kept ack counts");
            let mut counts: BTreeMap<MsgId, Vec<usize>> = BTreeMap::new();
            for &(id, n) in &c.sim.process(c.pids[k]).app().acks {
                counts.entry(id).or_default().push(n);
            }
            assert_eq!(counts.len(), ids.len(), "member {k}: acked casts");
            for id in ids {
                assert_eq!(counts[id], (1..N).collect::<Vec<_>>(), "{id:?}");
            }
        }
    }
}
