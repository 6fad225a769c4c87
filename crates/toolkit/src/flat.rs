//! The flat (non-hierarchical) toolkit: the coordinator-cohort tool over
//! one plain `isis-core` group — the baseline whose `2n` cost per request
//! the paper analyses.

use std::collections::BTreeMap;

use now_sim::{Pid, SimDuration};

use isis_core::{Application, CastKind, GroupId, GroupView, Uplink};

pub use crate::cohort::SvcMsg;
use crate::cohort::{Cohort, RETRY_TICK};
use crate::common::{KvState, ReqId};

/// One member's (or client's) coordinator-cohort state.
///
/// The same application type serves both roles: group members execute
/// requests; clients issue them with [`FlatService::send_request`] and
/// collect replies in [`FlatService::replies`].
pub struct FlatService {
    /// Replicated service state.
    pub state: KvState,
    /// Replies received: req -> reply.
    pub replies: BTreeMap<ReqId, String>,
    /// Client retry interval.
    pub retry: SimDuration,
    /// The protocol state, as a member of the service group and as a
    /// client.
    pub cohort: Cohort<GroupId>,
}

impl FlatService {
    /// Creates a member (or client) of the service on group `gid`.
    pub fn new(gid: GroupId) -> FlatService {
        FlatService {
            state: KvState::new(),
            replies: BTreeMap::new(),
            retry: SimDuration::from_millis(1_500),
            cohort: Cohort::new(gid),
        }
    }

    /// Client: broadcasts a request to every member of the service group.
    /// Returns the request id.
    pub fn send_request(
        &mut self,
        members: &[Pid],
        body: &str,
        up: &mut Uplink<'_, '_, Self>,
    ) -> ReqId {
        self.cohort.send(members, body, self.retry, up)
    }
}

impl Application for FlatService {
    type Payload = SvcMsg;
    type State = (KvState, Vec<(ReqId, String)>);

    fn on_direct(&mut self, _from: Pid, payload: &SvcMsg, up: &mut Uplink<'_, '_, Self>) {
        self.cohort
            .on_direct(payload, &mut self.state, &mut self.replies, up);
    }

    fn on_deliver(
        &mut self,
        _gid: GroupId,
        from: Pid,
        _kind: CastKind,
        payload: &SvcMsg,
        up: &mut Uplink<'_, '_, Self>,
    ) {
        self.cohort.on_cast(from, payload, &mut self.state, up);
    }

    fn on_view(&mut self, view: &GroupView, _joined: bool, up: &mut Uplink<'_, '_, Self>) {
        if view.gid == self.cohort.group() {
            self.cohort.on_view(view, &mut self.state, up);
        }
    }

    fn on_app_timer(&mut self, kind: u32, up: &mut Uplink<'_, '_, Self>) {
        if kind == RETRY_TICK && self.cohort.on_retry(self.retry, up) {
            up.set_app_timer(self.retry, RETRY_TICK);
        }
    }

    fn export_state(&self, _gid: GroupId) -> Self::State {
        (self.state.clone(), self.cohort.export_log())
    }

    fn import_state(&mut self, _gid: GroupId, state: Self::State) {
        self.state = state.0;
        self.cohort.import_log(state.1);
    }

    fn payload_bytes(p: &SvcMsg) -> usize {
        p.payload_bytes()
    }
}
