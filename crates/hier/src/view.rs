//! The hierarchical group view and its routing structure.
//!
//! The paper's central storage claim (section 3): "a complete list of the
//! processes in a large group is not explicitly stored anywhere, bounding
//! the storage required within any single process for storing a group
//! view". Concretely:
//!
//! - leaf members store only their own leaf's `isis-core` view;
//! - each leaf *representative* (the leaf's oldest member) additionally
//!   stores a [`RoutingSlice`]: its parent's and children's contact sets in
//!   an implicit `fanout`-ary tree over leaves — `O(fanout × resiliency)`;
//! - only the *leader group* stores the full leaf list ([`HierView`]), with
//!   contact sets truncated to `resiliency` entries.
//!
//! The implicit tree (leaf `i`'s children are `fanout*i + 1 ..= fanout*i +
//! fanout`) plays the role of the paper's branch groups: it bounds every
//! process's direct communication partners by `fanout` without materialising
//! branch memberships anywhere.

use now_sim::Pid;

use isis_core::GroupId;

use crate::ids::LargeGroupId;

/// Descriptor of one leaf subgroup as known to the hierarchy: its group id
/// and a bounded set of contact processes (oldest first, so `contacts[0]`
/// is the leaf representative).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafDesc {
    /// Underlying `isis-core` group id.
    pub gid: GroupId,
    /// Bounded contact list, oldest member first.
    pub contacts: Vec<Pid>,
    /// Total member count of the leaf (may exceed `contacts.len()`).
    pub size: usize,
}

impl LeafDesc {
    /// The leaf representative (oldest member), if the leaf is non-empty.
    pub fn rep(&self) -> Option<Pid> {
        self.contacts.first().copied()
    }

    /// Estimated storage bytes.
    pub fn storage_bytes(&self) -> usize {
        8 + 4 * self.contacts.len() + 8
    }
}

/// The leader group's view of the whole hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierView {
    /// The large group.
    pub lgid: LargeGroupId,
    /// Strictly increasing structure epoch; bumped whenever the leaf list
    /// or the root changes.
    pub epoch: u64,
    /// Broadcast-tree fanout.
    pub fanout: usize,
    /// Acknowledgements required before a broadcast is reported resilient.
    pub resiliency: usize,
    /// Leaves in tree order (index 0 is the root leaf).
    pub leaves: Vec<LeafDesc>,
    /// Contact processes of the leader group itself.
    pub leader_contacts: Vec<Pid>,
}

impl HierView {
    /// An empty hierarchy (no members yet).
    pub fn empty(
        lgid: LargeGroupId,
        fanout: usize,
        resiliency: usize,
        leader_contacts: Vec<Pid>,
    ) -> HierView {
        assert!(fanout >= 1);
        HierView {
            lgid,
            epoch: 1,
            fanout,
            resiliency,
            leaves: Vec::new(),
            leader_contacts,
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Sum of leaf sizes (the large group's `size`).
    pub fn total_members(&self) -> usize {
        self.leaves.iter().map(|l| l.size).sum()
    }

    /// Index of the leaf with group id `gid`.
    pub fn index_of(&self, gid: GroupId) -> Option<usize> {
        self.leaves.iter().position(|l| l.gid == gid)
    }

    /// Child indices of leaf `i` in the implicit fanout-ary tree.
    pub fn children(&self, i: usize) -> Vec<usize> {
        let lo = self.fanout * i + 1;
        (lo..lo + self.fanout)
            .filter(|&c| c < self.leaves.len())
            .collect()
    }

    /// Parent index of leaf `i` (`None` for the root).
    pub fn parent(&self, i: usize) -> Option<usize> {
        if i == 0 {
            None
        } else {
            Some((i - 1) / self.fanout)
        }
    }

    /// The root leaf (sequencing site of the tree broadcast).
    pub fn root(&self) -> Option<&LeafDesc> {
        self.leaves.first()
    }

    /// Depth of the tree (0 for empty, 1 for a single leaf).
    pub fn depth(&self) -> usize {
        let mut d = 0;
        let mut i = self.leaves.len().saturating_sub(1);
        if self.leaves.is_empty() {
            return 0;
        }
        d += 1;
        while let Some(p) = self.parent(i) {
            i = p;
            d += 1;
        }
        d
    }

    /// The routing slice leaf `i`'s representative must store.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn slice_for(&self, i: usize) -> RoutingSlice {
        assert!(i < self.leaves.len(), "leaf index out of range");
        RoutingSlice {
            lgid: self.lgid,
            my_index: i,
            resiliency: self.resiliency,
            my_gid: self.leaves[i].gid,
            parent: self.parent(i).map(|p| self.leaves[p].clone()),
            children: self
                .children(i)
                .into_iter()
                .map(|c| self.leaves[c].clone())
                .collect(),
            leader_contacts: self.leader_contacts.clone(),
        }
    }

    /// Estimated bytes to store the full view (leader-side cost, E7).
    pub fn storage_bytes(&self) -> usize {
        24 + 4 * self.leader_contacts.len()
            + self.leaves.iter().map(LeafDesc::storage_bytes).sum::<usize>()
    }

    /// Leaves in need of a split (above `max_leaf`).
    pub fn oversized(&self, max_leaf: usize) -> Vec<GroupId> {
        self.leaves
            .iter()
            .filter(|l| l.size > max_leaf)
            .map(|l| l.gid)
            .collect()
    }

    /// Leaves in need of a merge (below `min_leaf`), excluding the case of
    /// a single remaining leaf (nothing to merge into).
    pub fn undersized(&self, min_leaf: usize) -> Vec<GroupId> {
        if self.leaves.len() <= 1 {
            return Vec::new();
        }
        self.leaves
            .iter()
            .filter(|l| l.size < min_leaf)
            .map(|l| l.gid)
            .collect()
    }

    /// The leaf with the most spare capacity, used for join placement and
    /// as a merge target. Excludes `not` (e.g. the leaf being dissolved).
    pub fn least_loaded(&self, not: Option<GroupId>) -> Option<&LeafDesc> {
        self.leaves
            .iter()
            .filter(|l| Some(l.gid) != not)
            .min_by_key(|l| (l.size, l.gid))
    }
}

/// What one leaf representative stores to route tree broadcasts: bounded by
/// `O(fanout × resiliency)` regardless of the large group's size.
///
/// A rep's slice is pushed by the leader when its own neighbourhood changes
/// (a child appended, a neighbour's rep replaced) or the tree is renumbered;
/// in between, child beacons refresh its children's contacts in place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingSlice {
    /// The large group.
    pub lgid: LargeGroupId,
    /// This leaf's index in tree order.
    pub my_index: usize,
    /// Resiliency threshold of the large group.
    pub resiliency: usize,
    /// This leaf's group id.
    pub my_gid: GroupId,
    /// Parent leaf contacts (`None` at the root).
    pub parent: Option<LeafDesc>,
    /// Child leaf contacts (at most `fanout`).
    pub children: Vec<LeafDesc>,
    /// Leader group contacts (for reports).
    pub leader_contacts: Vec<Pid>,
}

impl RoutingSlice {
    /// Whether this slice belongs to the root leaf.
    pub fn is_root(&self) -> bool {
        self.my_index == 0
    }

    /// Estimated storage bytes (bounded by fanout, the paper's claim).
    pub fn storage_bytes(&self) -> usize {
        32 + self.parent.as_ref().map_or(0, LeafDesc::storage_bytes)
            + self
                .children
                .iter()
                .map(LeafDesc::storage_bytes)
                .sum::<usize>()
            + 4 * self.leader_contacts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(nleaves: usize, fanout: usize) -> HierView {
        let lgid = LargeGroupId(1);
        HierView {
            lgid,
            epoch: 1,
            fanout,
            resiliency: 2,
            leaves: (0..nleaves)
                .map(|i| LeafDesc {
                    gid: lgid.leaf_gid(i as u32 + 1),
                    contacts: vec![Pid(i as u32 * 10), Pid(i as u32 * 10 + 1)],
                    size: 5,
                })
                .collect(),
            leader_contacts: vec![Pid(900), Pid(901)],
        }
    }

    #[test]
    fn tree_parent_child_inverse() {
        let v = view(20, 3);
        for i in 0..20 {
            for c in v.children(i) {
                assert_eq!(v.parent(c), Some(i));
            }
        }
        assert_eq!(v.parent(0), None);
    }

    #[test]
    fn children_bounded_by_fanout() {
        for fanout in 1..6 {
            let v = view(50, fanout);
            for i in 0..50 {
                assert!(v.children(i).len() <= fanout);
            }
        }
    }

    #[test]
    fn every_leaf_reachable_from_root() {
        let v = view(33, 4);
        let mut seen = [false; 33];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            seen[i] = true;
            stack.extend(v.children(i));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn depth_is_logarithmic() {
        let v = view(64, 4);
        // 64 leaves, fanout 4: depth 4 (1 + 4 + 16 + 43).
        assert_eq!(v.depth(), 4);
        assert_eq!(view(1, 4).depth(), 1);
        assert_eq!(view(0, 4).depth(), 0);
    }

    #[test]
    fn slice_contains_only_neighbourhood() {
        let v = view(20, 3);
        let s = v.slice_for(1);
        assert_eq!(s.my_index, 1);
        assert_eq!(s.parent.as_ref().unwrap().gid, v.leaves[0].gid);
        let kids: Vec<GroupId> = s.children.iter().map(|c| c.gid).collect();
        assert_eq!(
            kids,
            v.children(1)
                .into_iter()
                .map(|c| v.leaves[c].gid)
                .collect::<Vec<_>>()
        );
        assert!(!s.is_root());
        assert!(v.slice_for(0).is_root());
    }

    #[test]
    fn slice_storage_bounded_by_fanout_not_size() {
        let small = view(8, 3);
        let large = view(500, 3);
        // Pick an interior leaf with a full child set in both.
        let s_small = small.slice_for(1).storage_bytes();
        let s_large = large.slice_for(1).storage_bytes();
        assert_eq!(s_small, s_large, "slice cost independent of group size");
        // Whereas the leader-side full view grows linearly.
        assert!(large.storage_bytes() > 10 * small.storage_bytes());
    }

    #[test]
    fn split_merge_candidates() {
        let mut v = view(3, 3);
        v.leaves[1].size = 20;
        v.leaves[2].size = 1;
        assert_eq!(v.oversized(7), vec![v.leaves[1].gid]);
        assert_eq!(v.undersized(3), vec![v.leaves[2].gid]);
        // A 1-leaf view never reports undersized leaves.
        let mut single = view(1, 3);
        single.leaves[0].size = 1;
        assert!(single.undersized(3).is_empty());
    }

    #[test]
    fn least_loaded_excludes_and_tiebreaks() {
        let mut v = view(3, 3);
        v.leaves[0].size = 4;
        v.leaves[1].size = 2;
        v.leaves[2].size = 2;
        let pick = v.least_loaded(None).unwrap();
        assert_eq!(pick.gid, v.leaves[1].gid, "ties break by gid");
        let pick2 = v.least_loaded(Some(v.leaves[1].gid)).unwrap();
        assert_eq!(pick2.gid, v.leaves[2].gid);
    }

    #[test]
    fn totals_and_lookup() {
        let v = view(4, 2);
        assert_eq!(v.total_members(), 20);
        assert_eq!(v.num_leaves(), 4);
        assert_eq!(v.index_of(v.leaves[2].gid), Some(2));
        assert_eq!(v.index_of(GroupId(12345)), None);
        assert_eq!(v.root().unwrap().gid, v.leaves[0].gid);
    }
}
