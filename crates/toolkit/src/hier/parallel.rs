//! Subdivided parallel computation, hierarchical variant: work is
//! subdivided *along the tree* — each representative hands at most
//! `fanout` child subtrees their share plus splits its own leaf's share
//! among leaf members, and partial results fold back up the same paths.
//! No process talks to more than `fanout + leaf_size` others, where a
//! flat scatter would have one initiator contact all `n` members.

use std::collections::BTreeMap;

use now_sim::Pid;

use isis_core::GroupView;

use isis_hier::{LargeApp, LargeGroupId, LargeUplink};

/// The deterministic work kernel: cheap, non-trivial, verifiable. A task
/// computes `sum of kernel(i) for i in lo..hi`.
pub fn kernel(i: u64) -> u64 {
    (i.wrapping_mul(2_654_435_761) % 1_000) + 1
}

/// Reference result for `lo..hi`, for test verification.
pub fn expected_sum(lo: u64, hi: u64) -> u64 {
    (lo..hi).map(kernel).sum()
}

/// Number of leaves in the subtree rooted at `idx` of an implicit
/// `fanout`-ary tree over `n` leaves.
pub fn subtree_leaves(idx: usize, n: usize, fanout: usize) -> usize {
    if idx >= n {
        return 0;
    }
    let mut count = 0;
    let mut stack = vec![idx];
    while let Some(i) = stack.pop() {
        count += 1;
        let lo = fanout * i + 1;
        stack.extend((lo..lo + fanout).filter(|&c| c < n));
    }
    count
}

/// Wire payload of the hierarchical parallel-computation tool.
#[derive(Clone, Debug)]
pub enum HParMsg {
    /// Range assignment flowing down the tree (origin → root rep →
    /// child reps).
    Task {
        task: u64,
        origin: Pid,
        lo: u64,
        hi: u64,
    },
    /// Leaf-internal share assignment (leaf cast, split by rank).
    LeafTask { task: u64, lo: u64, hi: u64 },
    /// Leaf member → its rep: partial result.
    Part { task: u64, partial: u64 },
    /// Child rep → parent rep: folded subtree result.
    SubResult { task: u64, partial: u64 },
    /// Root rep → origin: the total.
    Total { task: u64, total: u64 },
}

/// Per-task folding state at a representative.
#[derive(Debug)]
struct Fold {
    origin: Pid,
    sum: u64,
    awaiting_children: usize,
    awaiting_members: usize,
    is_root: bool,
    parent: Option<Pid>,
}

/// A member of the hierarchical parallel-computation service.
pub struct TreeParallel {
    /// The large group.
    pub lgid: LargeGroupId,
    leaf_view: Option<GroupView>,
    next_task: u64,
    folds: BTreeMap<u64, Fold>,
    /// Completed tasks at their origins.
    pub results: BTreeMap<u64, u64>,
}

impl TreeParallel {
    /// Creates a member.
    pub fn new(lgid: LargeGroupId) -> TreeParallel {
        TreeParallel {
            lgid,
            leaf_view: None,
            next_task: 0,
            folds: BTreeMap::new(),
            results: BTreeMap::new(),
        }
    }

    /// Starts a computation over `lo..hi`. `root` is the root leaf's
    /// representative (from the directory). Returns the task id.
    pub fn run(
        &mut self,
        root: Pid,
        lo: u64,
        hi: u64,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) -> u64 {
        self.next_task += 1;
        let task = self.next_task * 1_000_000 + up.me().0 as u64;
        up.direct(
            root,
            HParMsg::Task {
                task,
                origin: up.me(),
                lo,
                hi,
            },
        );
        task
    }

    /// The total of a finished task (origin side).
    pub fn result(&self, task: u64) -> Option<u64> {
        self.results.get(&task).copied()
    }

    fn fold_in(
        &mut self,
        task: u64,
        partial: u64,
        from_child: bool,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        let Some(f) = self.folds.get_mut(&task) else {
            return;
        };
        f.sum += partial;
        if from_child {
            f.awaiting_children = f.awaiting_children.saturating_sub(1);
        } else {
            f.awaiting_members = f.awaiting_members.saturating_sub(1);
        }
        if f.awaiting_children == 0 && f.awaiting_members == 0 {
            let f = self.folds.remove(&task).expect("checked above");
            if f.is_root {
                if f.origin == up.me() {
                    self.results.insert(task, f.sum);
                } else {
                    up.direct(f.origin, HParMsg::Total { task, total: f.sum });
                }
            } else if let Some(p) = f.parent {
                up.direct(
                    p,
                    HParMsg::SubResult {
                        task,
                        partial: f.sum,
                    },
                );
            }
        }
    }
}

impl LargeApp for TreeParallel {
    type Payload = HParMsg;
    type LeafState = ();

    fn on_lbcast(
        &mut self,
        _lgid: LargeGroupId,
        _origin: Pid,
        _payload: &HParMsg,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
    }

    fn on_direct(&mut self, from: Pid, payload: &HParMsg, up: &mut LargeUplink<'_, '_, '_, Self>) {
        match payload {
            HParMsg::Task {
                task,
                origin,
                lo,
                hi,
            } => {
                // We must be a rep with a routing slice to subdivide.
                let Some(slice) = up.routing_slice(self.lgid) else {
                    up.bump("tool.hpar.no_slice");
                    return;
                };
                let Some(view) = self.leaf_view.clone() else {
                    return;
                };
                let me = up.me();
                let span = hi - lo;
                // Weights: our own leaf counts as one leaf; each child
                // subtree by its leaf count.
                let slice = slice.clone();
                let child_weights: Vec<(Pid, usize)> = slice
                    .children
                    .iter()
                    .enumerate()
                    .filter_map(|(k, c)| {
                        let idx = slice.fanout * slice.my_index + 1 + k;
                        let w = subtree_leaves(idx, slice.num_leaves, slice.fanout);
                        c.rep().map(|r| (r, w))
                    })
                    .collect();
                let total_w: usize =
                    1 + child_weights.iter().map(|(_, w)| *w).sum::<usize>();
                // Cumulative boundaries tile [lo, hi) exactly — no range
                // is lost to per-share rounding.
                let mut acc: usize = 0;
                let lo = *lo;
                let mut give = |w: usize| {
                    let s = lo + (span as u128 * acc as u128 / total_w as u128) as u64;
                    acc += w;
                    let e = lo + (span as u128 * acc as u128 / total_w as u128) as u64;
                    (s, e)
                };
                // Our leaf's share first (weight 1), split by rank.
                let (ls, le) = give(1);
                let n = view.size() as u64;
                let lspan = le - ls;
                self.folds.insert(
                    *task,
                    Fold {
                        origin: *origin,
                        sum: 0,
                        awaiting_children: child_weights.len(),
                        awaiting_members: view.size(),
                        is_root: slice.is_root(),
                        parent: if slice.is_root() { None } else { Some(from) },
                    },
                );
                for (rank, &m) in view.members.iter().enumerate() {
                    let s = ls + lspan * rank as u64 / n;
                    let e = ls + lspan * (rank as u64 + 1) / n;
                    if m == me {
                        let partial: u64 = (s..e).map(kernel).sum();
                        self.fold_in(*task, partial, false, up);
                    } else {
                        up.direct(m, HParMsg::LeafTask { task: *task, lo: s, hi: e });
                    }
                }
                // Children get the rest, weighted.
                for (rep, w) in child_weights {
                    let (s, e) = give(w);
                    up.direct(
                        rep,
                        HParMsg::Task {
                            task: *task,
                            origin: *origin,
                            lo: s,
                            hi: e,
                        },
                    );
                }
            }
            HParMsg::LeafTask { task, lo, hi } => {
                let partial: u64 = (*lo..*hi).map(kernel).sum();
                up.direct(from, HParMsg::Part { task: *task, partial });
            }
            HParMsg::Part { task, partial } => self.fold_in(*task, *partial, false, up),
            HParMsg::SubResult { task, partial } => self.fold_in(*task, *partial, true, up),
            HParMsg::Total { task, total } => {
                self.results.insert(*task, *total);
            }
        }
    }

    fn on_leaf_view(
        &mut self,
        _lgid: LargeGroupId,
        view: &GroupView,
        _up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.leaf_view = Some(view.clone());
    }

    fn payload_bytes(_p: &HParMsg) -> usize {
        40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_leaf_counts_partition_the_tree() {
        // A 13-leaf tree with fanout 3: children of the root are 1,2,3.
        let n = 13;
        let f = 3;
        let total: usize = (1..=f)
            .map(|c| subtree_leaves(c, n, f))
            .sum::<usize>()
            + 1;
        assert_eq!(total, n);
    }

    #[test]
    fn subtree_of_leafless_index_is_zero() {
        assert_eq!(subtree_leaves(99, 10, 3), 0);
    }

    #[test]
    fn kernel_is_deterministic_and_bounded() {
        assert_eq!(kernel(42), kernel(42));
        for i in 0..1_000 {
            let k = kernel(i);
            assert!((1..=1_000).contains(&k));
        }
    }

    #[test]
    fn expected_sum_is_additive() {
        assert_eq!(
            expected_sum(0, 100),
            expected_sum(0, 40) + expected_sum(40, 100)
        );
    }
}
