//! Hierarchical services: the toolkit rebuilt the way section 4 of the
//! paper prescribes — "the large group is used for naming purposes to
//! identify the service, but requests are broadcast to individual
//! subgroups".
//!
//! One [`LeafServiceApp`] combines, per leaf subgroup:
//!
//! - **coordinator-cohort** request execution: the flat tool's
//!   [`Cohort`] run over the home leaf, so a request costs
//!   `2·leaf_size` instead of `2·n` (experiments E1/E2);
//! - a **partitioned replicated store**: keys are sharded across leaves
//!   (each leaf is the resilient home of its shard), and a member that
//!   migrates to another leaf carries its old shard there;
//! - **distributed transactions** (the `txn` module): two-phase commit
//!   whose participants are leaf subgroups, with replicated staging so a
//!   leaf tolerates member failures mid-transaction;
//! - **distributed mutual exclusion** (the `lock` module): each lock lives
//!   in one leaf's replicated queue; waiters anywhere are notified directly.
//!
//! Key-to-leaf routing uses a *directory* (leaf gid → contacts) supplied
//! by the caller; the paper defers the large-scale name service to future
//! work (section 5), so the directory plays that role here.

mod lock;
mod txn;

use std::collections::{BTreeMap, VecDeque};

use now_sim::{Pid, SimDuration};

use isis_core::{CastKind, GroupId, GroupView};

use isis_hier::{LargeApp, LargeGroupId, LargeUplink};

use crate::cohort::{Cohort, SvcMsg, RETRY_TICK};
use crate::common::{key_of, shard_of, KvState, ReqId};

pub use txn::apply_write;

/// A directory snapshot: each leaf's gid and contact list, in tree order.
/// Plays the role of the paper's (future-work) name service.
pub type Directory = Vec<(GroupId, Vec<Pid>)>;

/// Routes a key to its home leaf in a directory.
pub fn home_leaf<'d>(dir: &'d Directory, key: &str) -> &'d (GroupId, Vec<Pid>) {
    assert!(!dir.is_empty(), "empty directory");
    &dir[shard_of(key, dir.len())]
}

/// Wire payload of the hierarchical service.
#[derive(Clone, Debug)]
pub enum HSvcMsg {
    /// Coordinator-cohort traffic of the home leaf.
    Svc(SvcMsg),

    // ---------------------------------------- transactions (2PC) -----
    /// Txn coordinator → participant leaf rep: stage these writes.
    Prepare {
        txn: u64,
        coord: Pid,
        writes: Vec<(String, String)>,
    },
    /// Participant leaf rep → txn coordinator.
    Vote { txn: u64, leaf: GroupId, ok: bool },
    /// Txn coordinator → participant leaf reps: final decision.
    Decide { txn: u64, commit: bool },
    /// Intra-leaf (total cast): replicate the staged writes + locks.
    Stage {
        txn: u64,
        coord: Pid,
        writes: Vec<(String, String)>,
    },
    /// Intra-leaf (total cast): apply or discard the stage.
    Finish { txn: u64, commit: bool },

    // ------------------------------------------- mutual exclusion -----
    /// Waiter → lock-home leaf rep.
    MAcquire { lock: String, waiter: Pid },
    /// Holder → lock-home leaf rep.
    MRelease { lock: String, holder: Pid },
    /// Intra-leaf (total cast): replicated queue operations.
    MQueue { lock: String, waiter: Pid },
    MDequeue { lock: String, holder: Pid },
    /// Lock-home leaf rep → waiter: you hold the lock now.
    MGrant { lock: String },

    // ---------------------------------------------- shard migration -----
    /// Intra-leaf (total cast): a member migrating in from a dissolved or
    /// split leaf contributes that leaf's shard; receivers adopt keys they
    /// do not already own (idempotent across multiple movers).
    MergeShard { entries: Vec<(String, String)> },
}

impl From<SvcMsg> for HSvcMsg {
    fn from(m: SvcMsg) -> HSvcMsg {
        HSvcMsg::Svc(m)
    }
}

/// The hierarchical service application (see module docs).
pub struct LeafServiceApp {
    /// The large group this service instance belongs to.
    pub lgid: LargeGroupId,
    /// This leaf's shard of the store.
    pub state: KvState,
    /// Replies to our requests.
    pub replies: BTreeMap<ReqId, String>,
    /// The coordinator-cohort tool over the home leaf; it holds the
    /// current leaf view.
    pub cohort: Cohort<LargeGroupId>,

    // ---- transactions ----
    /// Keys locked by staged transactions: key -> txn.
    lock_table: BTreeMap<String, u64>,
    staged: BTreeMap<u64, txn::StagedTxn>,
    next_txn: u64,
    txns: BTreeMap<u64, txn::TxnProgress>,
    /// Transaction outcomes: txn -> committed.
    pub txn_results: BTreeMap<u64, bool>,
    /// Participants abort staged transactions older than this (presumed
    /// abort when the coordinator vanishes).
    pub txn_abort_after: SimDuration,

    // ---- locks ----
    /// Replicated per-lock waiter queues (mutex tool).
    lock_queues: BTreeMap<String, VecDeque<Pid>>,
    /// Locks we currently hold (granted by their home leaves).
    pub held_locks: Vec<String>,

    /// The shard this member carries across a leaf migration: opened when
    /// it starts to migrate, filled with the state a leaf state transfer
    /// replaces, and cast to the first view of the new leaf.
    carry: Option<Vec<(String, String)>>,
    /// Retry pacing.
    pub retry: SimDuration,
}

impl LeafServiceApp {
    /// Creates a member (or client) of the service in `lgid`.
    pub fn new(lgid: LargeGroupId) -> LeafServiceApp {
        LeafServiceApp {
            lgid,
            state: KvState::new(),
            replies: BTreeMap::new(),
            cohort: Cohort::new(lgid),
            lock_table: BTreeMap::new(),
            staged: BTreeMap::new(),
            next_txn: 0,
            txns: BTreeMap::new(),
            txn_results: BTreeMap::new(),
            txn_abort_after: SimDuration::from_secs(20),
            lock_queues: BTreeMap::new(),
            held_locks: Vec::new(),
            carry: None,
            retry: SimDuration::from_millis(1_500),
        }
    }

    /// Sends `body` to the leaf owning its key (falling back to the first
    /// leaf for keyless commands). Returns the request id.
    pub fn send_request(
        &mut self,
        dir: &Directory,
        body: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) -> ReqId {
        let (_, contacts) = home_leaf(dir, key_of(body).unwrap_or(""));
        self.send_request_to(contacts, body, up)
    }

    /// Sends `body` to an explicit leaf contact list (the paper's pattern:
    /// the request is broadcast to one subgroup).
    pub fn send_request_to(
        &mut self,
        leaf_members: &[Pid],
        body: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) -> ReqId {
        self.cohort.send(leaf_members, body, self.retry, up)
    }
}

impl LargeApp for LeafServiceApp {
    type Payload = HSvcMsg;
    type LeafState = (KvState, Vec<(ReqId, String)>, Vec<(String, Vec<Pid>)>);

    fn on_lbcast(
        &mut self,
        _lgid: LargeGroupId,
        _origin: Pid,
        _payload: &HSvcMsg,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        // The service tools use leaf-scoped traffic only; large-group
        // broadcasts are available to the application above.
    }

    fn on_direct(&mut self, _from: Pid, payload: &HSvcMsg, up: &mut LargeUplink<'_, '_, '_, Self>) {
        match payload {
            HSvcMsg::Svc(m) => self
                .cohort
                .on_direct(m, &mut self.state, &mut self.replies, up),
            HSvcMsg::Prepare { txn, coord, writes } => self.on_prepare(*txn, *coord, writes, up),
            HSvcMsg::Vote { txn, leaf, ok } => self.on_vote(*txn, *leaf, *ok, up),
            HSvcMsg::Decide { txn, commit } => self.on_decide(*txn, *commit, up),
            HSvcMsg::MAcquire { lock, waiter } => self.on_acquire(lock, *waiter, up),
            HSvcMsg::MRelease { lock, holder } => self.on_release(lock, *holder, up),
            HSvcMsg::MGrant { lock } => {
                if !self.held_locks.contains(lock) {
                    self.held_locks.push(lock.clone());
                }
            }
            // Leaf-cast-only messages arriving point-to-point are protocol
            // errors.
            HSvcMsg::Stage { .. } | HSvcMsg::Finish { .. } | HSvcMsg::MQueue { .. }
            | HSvcMsg::MDequeue { .. } | HSvcMsg::MergeShard { .. } => {
                up.bump("tool.hsvc.misrouted")
            }
        }
    }

    fn on_leaf_cast(
        &mut self,
        leaf: GroupId,
        from: Pid,
        _kind: CastKind,
        payload: &HSvcMsg,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        match payload {
            HSvcMsg::Svc(m) => self.cohort.on_cast(from, m, &mut self.state, up),
            HSvcMsg::Stage { txn, coord, writes } => self.on_stage(leaf, *txn, *coord, writes, up),
            HSvcMsg::Finish { txn, commit } => self.on_finish(*txn, *commit),
            HSvcMsg::MQueue { lock, waiter } => self.on_queue(lock, *waiter, up),
            HSvcMsg::MDequeue { lock, holder } => self.on_dequeue(lock, *holder, up),
            HSvcMsg::MergeShard { entries } => {
                for (k, v) in entries {
                    if self.state.get(k).is_none() {
                        self.state.put(k, v);
                    }
                }
            }
            // 2PC coordination and lock traffic travel point-to-point (see
            // `on_direct`); enumerate them so a new HSvcMsg variant forces
            // a routing decision here.
            HSvcMsg::Prepare { .. }
            | HSvcMsg::Vote { .. }
            | HSvcMsg::Decide { .. }
            | HSvcMsg::MAcquire { .. }
            | HSvcMsg::MRelease { .. }
            | HSvcMsg::MGrant { .. } => up.bump("tool.hsvc.misrouted_cast"),
        }
    }

    fn on_migrating(
        &mut self,
        _lgid: LargeGroupId,
        _from: Option<GroupId>,
        _to: GroupId,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        // The old leaf's shard travels with us: the state transfer into the
        // target leaf folds it into the carry (`import_leaf_state`). A
        // second migration before arrival keeps what is already carried.
        self.carry.get_or_insert_with(Vec::new);
    }

    fn on_leaf_view(
        &mut self,
        _lgid: LargeGroupId,
        view: &GroupView,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        match self.cohort.on_view(view, &mut self.state, up) {
            Some(prev) if prev.gid == view.gid => self.drop_departed_waiters(&prev, view),
            // First view of a new leaf: hand it the shard we carried in.
            _ => {
                if let Some(entries) = self.carry.take().filter(|e| !e.is_empty()) {
                    up.leaf_cast(self.lgid, CastKind::Total, HSvcMsg::MergeShard { entries });
                }
            }
        }
        if view.coordinator() == up.me() {
            // Takeover duties beyond the cohort's: re-vote staged
            // transactions and re-grant current lock holders (grants are
            // idempotent at the waiters).
            self.revote(view.gid, up);
            self.regrant(up);
        }
    }

    fn on_timer(&mut self, kind: u32, up: &mut LargeUplink<'_, '_, '_, Self>) {
        if kind != RETRY_TICK {
            return;
        }
        let asking = self.cohort.on_retry(self.retry, up);
        self.txn_tick(up);
        if asking || !self.txns.is_empty() || !self.staged.is_empty() {
            up.set_timer(self.retry, RETRY_TICK);
        }
    }

    fn export_leaf_state(&self, _lgid: LargeGroupId, _leaf: GroupId) -> Self::LeafState {
        (
            self.state.clone(),
            self.cohort.export_log(),
            self.lock_queues
                .iter()
                .map(|(l, q)| (l.clone(), q.iter().copied().collect()))
                .collect(),
        )
    }

    fn import_leaf_state(
        &mut self,
        _lgid: LargeGroupId,
        _leaf: GroupId,
        state: Self::LeafState,
    ) {
        if let Some(carry) = &mut self.carry {
            carry.extend(self.state.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        self.state = state.0;
        self.cohort.import_log(state.1);
        self.lock_queues = state
            .2
            .into_iter()
            .map(|(l, q)| (l, q.into_iter().collect()))
            .collect();
    }

    fn payload_bytes(p: &HSvcMsg) -> usize {
        match p {
            HSvcMsg::Svc(m) => m.payload_bytes(),
            HSvcMsg::Prepare { writes, .. }
            | HSvcMsg::Stage { writes, .. }
            | HSvcMsg::MergeShard { entries: writes } => {
                16 + writes.iter().map(|(k, v)| k.len() + v.len() + 8).sum::<usize>()
            }
            HSvcMsg::Vote { .. } | HSvcMsg::Decide { .. } | HSvcMsg::Finish { .. } => 32,
            HSvcMsg::MAcquire { lock, .. }
            | HSvcMsg::MRelease { lock, .. }
            | HSvcMsg::MQueue { lock, .. }
            | HSvcMsg::MDequeue { lock, .. }
            | HSvcMsg::MGrant { lock } => 16 + lock.len() + 8,
        }
    }
}
