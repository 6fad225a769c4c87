//! Wire payloads of the hierarchical layer.
//!
//! The hierarchy rides on `isis-core` as an application: every message here
//! travels either as a direct point-to-point payload or inside an intra-
//! group broadcast of a leaf or leader group.

use std::sync::Arc;

use now_sim::Pid;

use isis_core::GroupId;

use crate::ids::{LargeGroupId, LbcastId};
use crate::view::{HierView, RoutingSlice};

/// The payload type of the hierarchical layer, generic over the business
/// payload `Q`.
#[derive(Clone, Debug)]
pub enum HierPayload<Q> {
    /// Business traffic (intra-leaf casts and direct messages).
    Biz(Q),
    /// Tree-broadcast protocol traffic.
    Tree(TreeMsg<Q>),
    /// Hierarchy control plane.
    Ctl(CtlMsg),
    /// Replicated command stream of a leader group (delivered by ABCAST
    /// within the leader group only).
    Cmd(LeaderCmd),
}

/// Messages of the multistage ("tree-structured") atomic broadcast — our
/// implementation of the algorithm the paper cites as [Cooper & Birman,
/// "A Large Scale Atomic Broadcast Algorithm", in preparation].
#[derive(Clone, Debug)]
pub enum TreeMsg<Q> {
    /// An origin member submits a broadcast; the message climbs the tree
    /// (member → its leaf representative → parent representatives → root).
    Submit {
        lgid: LargeGroupId,
        id: LbcastId,
        payload: Q,
    },
    /// Down-tree forwarding of a broadcast stamped with its global
    /// sequence number by the root.
    Forward {
        lgid: LargeGroupId,
        lseq: u64,
        id: LbcastId,
        payload: Q,
    },
    /// Intra-leaf distribution: ABCAST within one leaf carrying the
    /// stamped broadcast to every leaf member. In the root leaf, `ack_to`
    /// asks each member for a [`TreeMsg::MemberAck`] so the root can count
    /// the paper's `resiliency` acknowledgements.
    LeafDeliver {
        lgid: LargeGroupId,
        lseq: u64,
        id: LbcastId,
        ack_to: Option<Pid>,
        payload: Q,
    },
    /// A root-leaf member acknowledges delivery of one broadcast.
    MemberAck { lgid: LargeGroupId, lseq: u64 },
    /// A child representative reports its whole subtree delivered.
    SubtreeAck {
        lgid: LargeGroupId,
        lseq: u64,
        /// The acking leaf (parents track pending children by gid).
        leaf: GroupId,
    },
    /// Root → origin: broadcast progress.
    OriginAck {
        lgid: LargeGroupId,
        id: LbcastId,
        status: LbcastStatus,
    },
}

/// Progress of one large-group broadcast, as reported to its origin.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LbcastStatus {
    /// At least `resiliency` processes acknowledged delivery: the paper's
    /// success condition ("the process initiating a broadcast must receive
    /// acknowledgements from at least resiliency destinations before
    /// reporting success").
    Resilient,
    /// Every leaf's subtree acknowledged: the broadcast is complete.
    Complete,
}

/// Control-plane messages of the hierarchy.
#[derive(Clone, Debug)]
pub enum CtlMsg {
    /// Non-member → leader group: admit me to the large group.
    JoinLargeReq { lgid: LargeGroupId },
    /// Leader → joiner: join this existing leaf via its contacts.
    JoinAssign {
        lgid: LargeGroupId,
        leaf: GroupId,
        contacts: Vec<Pid>,
    },
    /// Leader → joiner: found this brand-new leaf (you are its creator).
    JoinCreateLeaf { lgid: LargeGroupId, leaf: GroupId },
    /// Leader → requester: the large group is not known here.
    JoinLargeDenied { lgid: LargeGroupId },
    /// Leaf representative → leader: my leaf's membership is now this.
    ContactsUpdate {
        lgid: LargeGroupId,
        leaf: GroupId,
        contacts: Vec<Pid>,
        size: usize,
    },
    /// Parent representative → leader: a child leaf has gone silent
    /// (total leaf failure — "only the parent group is informed").
    LeafDeadReport { lgid: LargeGroupId, leaf: GroupId },
    /// Leader → root rep → down the tree: the whole structure, after a
    /// change that renumbers the tree (a leaf removed, a leader takeover).
    /// Each rep stores only its own routing slice and forwards the view to
    /// its children; the `Arc` makes each forward a refcount bump.
    HierPush { view: Arc<HierView> },
    /// Leader → one rep: its new routing slice, after a change confined to
    /// its tree neighbourhood (a leaf appended, a rep replaced). Boxed so
    /// the variant does not widen every in-flight payload.
    SlicePush { slice: Box<RoutingSlice> },
    /// Leader → leaf rep: split your leaf; the rep picks the movers (only
    /// it knows the full membership) and they found `new_leaf`.
    SplitLeaf {
        lgid: LargeGroupId,
        leaf: GroupId,
        new_leaf: GroupId,
    },
    /// Intra-leaf (ABCAST): the agreed split decision. Carries current
    /// leader contacts so movers can report their new leaf even if their
    /// original contact has failed.
    DoSplit {
        lgid: LargeGroupId,
        new_leaf: GroupId,
        movers: Vec<Pid>,
        leader_contacts: Vec<Pid>,
    },
    /// Leader → leaf rep: dissolve your undersized leaf into `target`.
    DissolveLeaf {
        lgid: LargeGroupId,
        leaf: GroupId,
        target: GroupId,
        target_contacts: Vec<Pid>,
    },
    /// Intra-leaf (ABCAST): the agreed dissolve decision.
    DoDissolve {
        lgid: LargeGroupId,
        target: GroupId,
        target_contacts: Vec<Pid>,
        leader_contacts: Vec<Pid>,
    },
    /// Rep → parent rep (root rep → leader): periodic liveness beacon used
    /// for total-leaf-failure detection. Carries the leaf's current
    /// contacts so tree neighbours stay routable without touching the
    /// leader — a process failure is handled entirely within its leaf, as
    /// the paper requires.
    LeafBeacon {
        lgid: LargeGroupId,
        leaf: GroupId,
        contacts: Vec<Pid>,
    },
}

/// Replicated commands applied by every leader-group member in ABCAST
/// order; the hierarchy state (the [`HierView`]) is a deterministic state
/// machine over this stream.
#[derive(Clone, Debug)]
pub enum LeaderCmd {
    /// Place `joiner` in a leaf. Placement happens at *apply* time against
    /// the replicated view (with tentative size accounting), so concurrent
    /// joins spread across leaves instead of stampeding the same one.
    Assign { lgid: LargeGroupId, joiner: Pid },
    /// Mint a new leaf slot for `founder` (bootstrap or overflow join).
    MintLeaf { lgid: LargeGroupId, founder: Pid },
    /// A leaf reported fresh contacts.
    Contacts {
        lgid: LargeGroupId,
        leaf: GroupId,
        contacts: Vec<Pid>,
        size: usize,
    },
    /// A leaf suffered total failure (or emptied) and leaves the tree.
    LeafDead { lgid: LargeGroupId, leaf: GroupId },
    /// Record a split in progress; the new leaf's slot is allocated
    /// deterministically at apply time from the replicated counter.
    Split { lgid: LargeGroupId, leaf: GroupId },
    /// Record a dissolve in progress (members of `leaf` migrate to
    /// `target`).
    Dissolve {
        lgid: LargeGroupId,
        leaf: GroupId,
        target: GroupId,
    },
}

impl LeaderCmd {
    /// The large group a command belongs to.
    pub fn lgid(&self) -> LargeGroupId {
        match self {
            LeaderCmd::Assign { lgid, .. }
            | LeaderCmd::MintLeaf { lgid, .. }
            | LeaderCmd::Contacts { lgid, .. }
            | LeaderCmd::LeafDead { lgid, .. }
            | LeaderCmd::Split { lgid, .. }
            | LeaderCmd::Dissolve { lgid, .. } => *lgid,
        }
    }
}

/// State snapshots installed by `isis-core` state transfer when a process
/// joins a leaf (business state) or a leader group (hierarchy replica).
#[derive(Clone, Debug, Default)]
pub enum HierState<S> {
    /// Nothing to transfer.
    #[default]
    None,
    /// Business leaf state.
    Leaf(S),
    /// Leader-group replica: the hierarchy view plus the slot counter.
    Leader {
        view: HierView,
        next_slot: u32,
        min_leaf: usize,
        max_leaf: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_cmd_lgid_extraction() {
        let l = LargeGroupId(4);
        let cmds = [
            LeaderCmd::MintLeaf {
                lgid: l,
                founder: Pid(1),
            },
            LeaderCmd::Contacts {
                lgid: l,
                leaf: l.leaf_gid(1),
                contacts: vec![],
                size: 0,
            },
            LeaderCmd::LeafDead {
                lgid: l,
                leaf: l.leaf_gid(1),
            },
            LeaderCmd::Split {
                lgid: l,
                leaf: l.leaf_gid(1),
            },
            LeaderCmd::Dissolve {
                lgid: l,
                leaf: l.leaf_gid(1),
                target: l.leaf_gid(2),
            },
        ];
        for c in cmds {
            assert_eq!(c.lgid(), l);
        }
    }

    #[test]
    fn hier_state_default_is_none() {
        let s: HierState<u32> = HierState::default();
        assert!(matches!(s, HierState::None));
    }

    #[test]
    fn structure_pushes_do_not_widen_every_payload() {
        // Every in-flight message is a `HierPayload`, so its largest
        // variant sets the footprint of all of them. Views and slices sit
        // behind a pointer; 88 bytes is the footprint with a `HierView`
        // inline, the most a push may cost (64-bit targets).
        assert!(std::mem::size_of::<HierPayload<String>>() <= 88);
    }

    #[test]
    fn lbcast_status_equality() {
        assert_ne!(LbcastStatus::Resilient, LbcastStatus::Complete);
    }
}
