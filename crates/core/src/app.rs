//! The application layer interface.
//!
//! An [`Application`] rides on top of an [`crate::process::IsisProcess`]:
//! the process runs the group protocols and calls back into the application
//! for deliveries, view changes, and state transfer. Applications act on
//! the world through an [`Uplink`], whose operations are buffered and
//! executed by the process after the callback returns — keeping callback
//! semantics simple and runs deterministic.

use now_sim::{Ctx, Pid, SimDuration, SimTime};

use crate::msg::IsisMsg;
use crate::types::{CastKind, GroupId, GroupView, MsgId};

/// Shorthand for the wire message type of an application.
pub type MsgOf<A> = IsisMsg<<A as Application>::Payload, <A as Application>::State>;

/// Application behaviour layered over the ISIS process group machinery.
///
/// All callbacks receive an [`Uplink`] for issuing casts, replies, and
/// timers. Callbacks are invoked in a deterministic order; within one
/// group, deliveries respect the requested broadcast ordering and view
/// changes are delivered between (never amid) the message sets of two
/// views.
pub trait Application: Sized + 'static {
    /// Payload of casts and direct messages.
    type Payload: Clone + std::fmt::Debug + 'static;
    /// State-transfer snapshot installed into joining members.
    type State: Clone + std::fmt::Debug + Default + 'static;

    /// A group broadcast was delivered.
    fn on_deliver(
        &mut self,
        gid: GroupId,
        from: Pid,
        kind: CastKind,
        payload: &Self::Payload,
        up: &mut Uplink<'_, '_, Self>,
    );

    /// A point-to-point message was delivered (client/server traffic).
    fn on_direct(&mut self, _from: Pid, _payload: &Self::Payload, _up: &mut Uplink<'_, '_, Self>) {
    }

    /// A new view of a group this process belongs to was installed.
    /// `joined` is `true` the first time this process appears in the view.
    fn on_view(&mut self, _view: &GroupView, _joined: bool, _up: &mut Uplink<'_, '_, Self>) {}

    /// This process has left (or been excluded from) the group.
    fn on_left(&mut self, _gid: GroupId, _up: &mut Uplink<'_, '_, Self>) {}

    /// The group stalled in a minority partition (no primary view can be
    /// formed). Casting is suspended until the process rejoins.
    fn on_stall(&mut self, _gid: GroupId, _up: &mut Uplink<'_, '_, Self>) {}

    /// An acked cast reached `count` cumulative delivery acknowledgements.
    /// Invoked once per ack, so the application can trigger at its chosen
    /// resiliency threshold (the paper's `resiliency` parameter).
    fn on_cast_ack(
        &mut self,
        _gid: GroupId,
        _id: MsgId,
        _count: usize,
        _up: &mut Uplink<'_, '_, Self>,
    ) {
    }

    /// A join request could not be satisfied (unknown group at contact).
    fn on_join_denied(&mut self, _gid: GroupId, _up: &mut Uplink<'_, '_, Self>) {}

    /// An application timer set through [`Uplink::set_app_timer`] fired.
    fn on_app_timer(&mut self, _kind: u32, _up: &mut Uplink<'_, '_, Self>) {}

    /// The process has started.
    fn on_start(&mut self, _up: &mut Uplink<'_, '_, Self>) {}

    /// Produces a state snapshot for a member joining `gid`.
    ///
    /// Called on the view-change leader at the moment of the membership
    /// cut, so the snapshot is consistent with the delivered message set.
    fn export_state(&self, _gid: GroupId) -> Self::State {
        Self::State::default()
    }

    /// Installs a snapshot received while joining `gid`.
    fn import_state(&mut self, _gid: GroupId, _state: Self::State) {}

    /// Estimated wire size of a payload, for the latency model.
    fn payload_bytes(_p: &Self::Payload) -> usize {
        64
    }

    /// Estimated wire size of a state snapshot.
    fn state_bytes(_s: &Self::State) -> usize {
        256
    }
}

/// Buffered operations an application can request during a callback.
#[derive(Clone, Debug)]
pub enum UpOp<P> {
    /// Broadcast `payload` to a group with the given ordering.
    Cast {
        gid: GroupId,
        kind: CastKind,
        payload: P,
        want_ack: bool,
    },
    /// Point-to-point application message.
    Direct { to: Pid, payload: P },
    /// Create a new singleton group.
    CreateGroup { gid: GroupId },
    /// Ask `contact` to admit us to `gid`.
    Join { gid: GroupId, contact: Pid },
    /// Leave a group gracefully.
    Leave { gid: GroupId },
    /// Arm an application timer.
    AppTimer { delay: SimDuration, kind: u32 },
}

/// The application's handle onto the ISIS process during a callback.
///
/// Operations are buffered and executed after the callback returns;
/// queries (`now`, `me`, `view`) answer from the current snapshot.
pub struct Uplink<'a, 'b, A: Application> {
    pub(crate) ctx: &'a mut Ctx<'b, MsgOf<A>>,
    pub(crate) ops: &'a mut Vec<UpOp<A::Payload>>,
    pub(crate) view: Option<&'a GroupView>,
}

impl<'a, 'b, A: Application> Uplink<'a, 'b, A> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This process's pid.
    pub fn me(&self) -> Pid {
        self.ctx.me()
    }

    /// This process's incarnation number: 0 in its first life, bumped on
    /// every restart. Lets an application tell a rejoin from a first join.
    pub fn incarnation(&self) -> u32 {
        self.ctx.incarnation()
    }

    /// The view of the group the current callback concerns, when there is
    /// one (deliveries and view events; `None` for direct messages and
    /// timers).
    pub fn view(&self) -> Option<&GroupView> {
        self.view
    }

    /// Broadcasts `payload` to `gid` with the given ordering discipline.
    pub fn cast(&mut self, gid: GroupId, kind: CastKind, payload: A::Payload) {
        self.ops.push(UpOp::Cast {
            gid,
            kind,
            payload,
            want_ack: false,
        });
    }

    /// Broadcasts and requests per-delivery acknowledgements, reported via
    /// [`Application::on_cast_ack`].
    pub fn cast_acked(&mut self, gid: GroupId, kind: CastKind, payload: A::Payload) {
        self.ops.push(UpOp::Cast {
            gid,
            kind,
            payload,
            want_ack: true,
        });
    }

    /// Sends a point-to-point application message.
    pub fn direct(&mut self, to: Pid, payload: A::Payload) {
        self.ops.push(UpOp::Direct { to, payload });
    }

    /// Creates a new group with this process as sole member.
    pub fn create_group(&mut self, gid: GroupId) {
        self.ops.push(UpOp::CreateGroup { gid });
    }

    /// Requests admission to `gid` via `contact` (any current member).
    pub fn join(&mut self, gid: GroupId, contact: Pid) {
        self.ops.push(UpOp::Join { gid, contact });
    }

    /// Leaves `gid` gracefully.
    pub fn leave(&mut self, gid: GroupId) {
        self.ops.push(UpOp::Leave { gid });
    }

    /// Arms an application timer; fires [`Application::on_app_timer`].
    pub fn set_app_timer(&mut self, delay: SimDuration, kind: u32) {
        self.ops.push(UpOp::AppTimer { delay, kind });
    }

    /// Adds one to a named global counter (interned on first use).
    pub fn bump(&mut self, name: &'static str) {
        self.ctx.bump(name);
    }

    /// Records a duration sample (milliseconds) in a named series.
    pub fn sample_duration(&mut self, name: &'static str, d: SimDuration) {
        self.ctx.sample_duration(name, d);
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut now_sim::DetRng {
        self.ctx.rng()
    }

    /// Whether a tracer is attached (lets callers skip building event
    /// payloads when tracing is off).
    pub fn tracing(&self) -> bool {
        self.ctx.tracing()
    }

    /// Records a trace event, lazily built only when tracing is on.
    /// Returns the event's sequence number (0 when tracing is off).
    pub fn trace_with(&mut self, f: impl FnOnce() -> now_sim::trace::EventKind) -> u64 {
        self.ctx.trace_with(f)
    }
}
