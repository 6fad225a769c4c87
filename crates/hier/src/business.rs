//! The business-application interface above the hierarchical layer.
//!
//! A [`LargeApp`] is to `isis-hier` what an `isis_core::Application` is to
//! `isis-core`: the domain logic. It sees large-group broadcasts, leaf-
//! level casts, and membership events, and acts through a [`LargeUplink`].

use now_sim::{Pid, SimDuration, SimTime};

use isis_core::{CastKind, GroupId, GroupView, Uplink};

use crate::ids::{LargeGroupId, LbcastId};
use crate::msg::LbcastStatus;

/// Buffered operations a business application can request.
#[derive(Clone, Debug)]
pub enum LargeOp<Q> {
    /// Broadcast to the whole large group through the tree.
    Lbcast { lgid: LargeGroupId, payload: Q },
    /// Broadcast within this member's own leaf subgroup only.
    LeafCast {
        lgid: LargeGroupId,
        kind: CastKind,
        payload: Q,
    },
    /// Point-to-point business message.
    Direct { to: Pid, payload: Q },
    /// Ask the large group's leader to admit this process.
    JoinLarge {
        lgid: LargeGroupId,
        leader_contact: Pid,
    },
    /// Leave the large group (leave our leaf).
    LeaveLarge { lgid: LargeGroupId },
    /// Arm a business timer (fires [`LargeApp::on_timer`]).
    Timer { delay: SimDuration, kind: u32 },
}

/// The handle a business application uses during callbacks. Operations are
/// buffered and executed when the callback returns.
pub struct LargeUplink<'x, 'a, 'b, B: LargeApp> {
    pub(crate) up: &'x mut Uplink<'a, 'b, crate::member::HierApp<B>>,
    pub(crate) ops: &'x mut Vec<LargeOp<B::Payload>>,
}

impl<'x, 'a, 'b, B: LargeApp> LargeUplink<'x, 'a, 'b, B> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.up.now()
    }

    /// This process's pid.
    pub fn me(&self) -> Pid {
        self.up.me()
    }

    /// Broadcasts to every member of the large group via the tree.
    pub fn lbcast(&mut self, lgid: LargeGroupId, payload: B::Payload) {
        self.ops.push(LargeOp::Lbcast { lgid, payload });
    }

    /// Broadcasts within this member's own leaf subgroup — the pattern the
    /// paper recommends: "requests are broadcast to individual subgroups".
    pub fn leaf_cast(&mut self, lgid: LargeGroupId, kind: CastKind, payload: B::Payload) {
        self.ops.push(LargeOp::LeafCast { lgid, kind, payload });
    }

    /// Sends a point-to-point business message.
    pub fn direct(&mut self, to: Pid, payload: B::Payload) {
        self.ops.push(LargeOp::Direct { to, payload });
    }

    /// Requests admission to a large group.
    pub fn join_large(&mut self, lgid: LargeGroupId, leader_contact: Pid) {
        self.ops.push(LargeOp::JoinLarge {
            lgid,
            leader_contact,
        });
    }

    /// Leaves a large group.
    pub fn leave_large(&mut self, lgid: LargeGroupId) {
        self.ops.push(LargeOp::LeaveLarge { lgid });
    }

    /// Arms a business timer.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u32) {
        self.ops.push(LargeOp::Timer { delay, kind });
    }

    /// Adds one to a named global counter (interned on first use).
    pub fn bump(&mut self, name: &'static str) {
        self.up.bump(name);
    }

    /// Records a duration sample (milliseconds).
    pub fn sample_duration(&mut self, name: &'static str, d: SimDuration) {
        self.up.sample_duration(name, d);
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut now_sim::DetRng {
        self.up.rng()
    }

    /// Whether a tracer is attached.
    pub fn tracing(&self) -> bool {
        self.up.tracing()
    }

    /// Records a trace event, lazily built only when tracing is on.
    /// Returns the event's sequence number (0 when tracing is off).
    pub fn trace_with(&mut self, f: impl FnOnce() -> now_sim::trace::EventKind) -> u64 {
        self.up.trace_with(f)
    }
}

/// Domain logic running above the hierarchical group layer.
pub trait LargeApp: Sized + 'static {
    /// Business payload carried by broadcasts and direct messages.
    type Payload: Clone + std::fmt::Debug + 'static;
    /// Leaf-level replicated state installed into members joining a leaf.
    type LeafState: Clone + std::fmt::Debug + Default + 'static;

    /// A large-group broadcast was delivered (total order per leaf,
    /// globally sequenced by the root).
    fn on_lbcast(
        &mut self,
        lgid: LargeGroupId,
        origin: Pid,
        payload: &Self::Payload,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    );

    /// An intra-leaf (or plain-group) business cast was delivered. The
    /// large group, if any, is recoverable via
    /// [`LargeGroupId::of_gid`](crate::ids::LargeGroupId::of_gid).
    fn on_leaf_cast(
        &mut self,
        _leaf: GroupId,
        _from: Pid,
        _kind: CastKind,
        _payload: &Self::Payload,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    /// A direct business message arrived.
    fn on_direct(
        &mut self,
        _from: Pid,
        _payload: &Self::Payload,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    /// This process is about to migrate between leaves (split/dissolve):
    /// called before it joins `to_leaf`, while its state still reflects
    /// `from_leaf`. The state transfer into the target leaf
    /// ([`LargeApp::import_leaf_state`]) comes *after* this call and
    /// replaces leaf-scoped state, so an application that carries data
    /// across must keep it apart from what the import overwrites. The first
    /// [`LargeApp::on_leaf_view`] of the target leaf marks the arrival.
    fn on_migrating(
        &mut self,
        _lgid: LargeGroupId,
        _from_leaf: Option<GroupId>,
        _to_leaf: GroupId,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    /// This process completed its admission into a large group. Fires once
    /// per admission, never after a split or dissolve migration between
    /// leaves.
    fn on_joined_large(
        &mut self,
        _lgid: LargeGroupId,
        _leaf: GroupId,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    /// This process left (or was excluded from) its leaf.
    fn on_left_large(&mut self, _lgid: LargeGroupId, _up: &mut LargeUplink<'_, '_, '_, Self>) {}

    /// A new view of this member's leaf was installed.
    fn on_leaf_view(
        &mut self,
        _lgid: LargeGroupId,
        _view: &GroupView,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    /// One of our broadcasts progressed (resilient / complete).
    fn on_lbcast_status(
        &mut self,
        _lgid: LargeGroupId,
        _id: LbcastId,
        _status: LbcastStatus,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    /// A business timer fired.
    fn on_timer(&mut self, _kind: u32, _up: &mut LargeUplink<'_, '_, '_, Self>) {}

    /// The process started.
    fn on_start(&mut self, _up: &mut LargeUplink<'_, '_, '_, Self>) {}

    /// Snapshot of leaf-replicated business state for a joining member.
    fn export_leaf_state(&self, _lgid: LargeGroupId, _leaf: GroupId) -> Self::LeafState {
        Self::LeafState::default()
    }

    /// Install a snapshot received while joining a leaf.
    fn import_leaf_state(
        &mut self,
        _lgid: LargeGroupId,
        _leaf: GroupId,
        _state: Self::LeafState,
    ) {
    }

    /// Estimated wire size of a business payload.
    fn payload_bytes(_p: &Self::Payload) -> usize {
        64
    }
}
