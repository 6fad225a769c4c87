//! Distributed transactions over the partitioned store: two-phase commit
//! whose participants are leaf subgroups. A participant leaf's rep stages
//! the writes with a total cast, so every replica locks the same keys in
//! the same order and a new rep can re-vote after a failure. Participants
//! abort a stage whose coordinator stays silent (presumed abort).

use std::collections::BTreeMap;

use now_sim::{Pid, SimDuration, SimTime};

use isis_core::{CastKind, GroupId};

use isis_hier::LargeUplink;

use super::{home_leaf, Directory, HSvcMsg, LeafServiceApp};
use crate::cohort::RETRY_TICK;
use crate::common::KvState;

/// Age at which a participant leaf's rep aborts a staged transaction that
/// is still undecided (presumed abort when the coordinator vanishes).
const TXN_ABORT_AFTER: SimDuration = SimDuration::from_secs(20);

/// Applies one transactional write. Values of the form `+n` / `-n` are
/// numeric deltas against the current value (read-modify-write under the
/// transaction's lock); anything else is a blind put.
fn apply_write(state: &mut KvState, key: &str, value: &str) {
    let delta = value
        .strip_prefix('+')
        .map(|d| d.parse::<i64>())
        .or_else(|| value.strip_prefix('-').map(|d| d.parse::<i64>().map(|v| -v)));
    match delta {
        Some(Ok(d)) => {
            let cur: i64 = state.get(key).and_then(|s| s.parse().ok()).unwrap_or(0);
            state.put(key, &(cur + d).to_string());
        }
        _ => state.put(key, value),
    }
}

/// A transaction staged at a participant leaf.
#[derive(Clone, Debug)]
pub(super) struct StagedTxn {
    coord: Pid,
    writes: Vec<(String, String)>,
    ok: bool,
    staged_at: SimTime,
}

/// One participant leaf's share of a transaction: the writes staged there,
/// and the contact list used to reach its representative.
type Share = (Vec<(String, String)>, Vec<Pid>);

/// Coordinator-side progress of an undecided transaction.
#[derive(Clone, Debug)]
pub(super) struct TxnProgress {
    shares: BTreeMap<GroupId, Share>,
    votes: BTreeMap<GroupId, bool>,
    started: SimTime,
}

impl LeafServiceApp {
    /// Begins a two-phase-commit transaction writing `writes`, with
    /// participants = the leaves owning the keys. Returns the txn id.
    pub fn begin_txn(
        &mut self,
        dir: &Directory,
        writes: &[(String, String)],
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) -> u64 {
        self.next_txn += 1;
        let txn = self.next_txn * 1_000_000 + up.me().0 as u64;
        let mut shares: BTreeMap<GroupId, Share> = BTreeMap::new();
        for (k, v) in writes {
            let (gid, contacts) = home_leaf(dir, k);
            let e = shares
                .entry(*gid)
                .or_insert_with(|| (Vec::new(), contacts.clone()));
            e.0.push((k.clone(), v.clone()));
        }
        let coord = up.me();
        for (w, contacts) in shares.values() {
            if let Some(&rep) = contacts.first() {
                up.direct(rep, HSvcMsg::Prepare { txn, coord, writes: w.clone() });
            }
        }
        let started = up.now();
        let votes = BTreeMap::new();
        self.txns.insert(txn, TxnProgress { shares, votes, started });
        up.set_timer(self.retry, RETRY_TICK);
        txn
    }

    /// Coordinator: once every participant voted, decide, tell the
    /// participants, and forget the transaction.
    fn coord_check_txn(&mut self, txn: u64, up: &mut LargeUplink<'_, '_, '_, Self>) {
        let Some(p) = self.txns.get(&txn) else {
            return;
        };
        if !p.shares.keys().all(|g| p.votes.contains_key(g)) {
            return;
        }
        let commit = p.votes.values().all(|&ok| ok);
        for (_, contacts) in p.shares.values() {
            if let Some(&rep) = contacts.first() {
                up.direct(rep, HSvcMsg::Decide { txn, commit });
            }
        }
        self.txn_results.insert(txn, commit);
        self.txns.remove(&txn);
        up.bump(if commit { "tool.txn.committed" } else { "tool.txn.aborted" });
    }

    /// Participant rep: stage a prepared transaction in the leaf, or
    /// re-vote one already staged (a duplicate prepare).
    pub(super) fn on_prepare(
        &mut self,
        txn: u64,
        coord: Pid,
        writes: &[(String, String)],
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        if !self.cohort.coordinates(up.me()) {
            return;
        }
        if let Some(st) = self.staged.get(&txn) {
            let leaf = self.cohort.view().expect("rep has view").gid;
            up.direct(coord, HSvcMsg::Vote { txn, leaf, ok: st.ok });
            return;
        }
        let writes = writes.to_vec();
        up.leaf_cast(self.lgid, CastKind::Total, HSvcMsg::Stage { txn, coord, writes });
    }

    /// Coordinator: record a participant's vote, and decide once all voted.
    pub(super) fn on_vote(
        &mut self,
        txn: u64,
        leaf: GroupId,
        ok: bool,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        if let Some(p) = self.txns.get_mut(&txn) {
            p.votes.insert(leaf, ok);
        }
        self.coord_check_txn(txn, up);
    }

    /// Participant rep: finish a staged transaction in the leaf.
    pub(super) fn on_decide(&mut self, txn: u64, commit: bool, up: &mut LargeUplink<'_, '_, '_, Self>) {
        if self.cohort.coordinates(up.me()) && self.staged.contains_key(&txn) {
            up.leaf_cast(self.lgid, CastKind::Total, HSvcMsg::Finish { txn, commit });
        }
    }

    /// Every replica of a participant leaf: lock the keys unless another
    /// transaction holds one. Delivered in the same total order at every
    /// leaf member, so the lock check is deterministic.
    pub(super) fn on_stage(
        &mut self,
        leaf: GroupId,
        txn: u64,
        coord: Pid,
        writes: &[(String, String)],
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        let conflict = writes
            .iter()
            .any(|(k, _)| self.lock_table.get(k).is_some_and(|t| *t != txn));
        if !conflict {
            for (k, _) in writes {
                self.lock_table.insert(k.clone(), txn);
            }
        }
        let staged = StagedTxn {
            coord,
            writes: writes.to_vec(),
            ok: !conflict,
            staged_at: up.now(),
        };
        self.staged.insert(txn, staged);
        if self.cohort.coordinates(up.me()) {
            up.direct(coord, HSvcMsg::Vote { txn, leaf, ok: !conflict });
        }
    }

    /// Every replica: apply (on commit) or discard a stage, and unlock.
    pub(super) fn on_finish(&mut self, txn: u64, commit: bool) {
        if let Some(st) = self.staged.remove(&txn) {
            if commit && st.ok {
                for (k, v) in &st.writes {
                    apply_write(&mut self.state, k, v);
                }
            }
            self.lock_table.retain(|_, t| *t != txn);
        }
    }

    /// A new rep of `leaf` re-votes every staged transaction.
    pub(super) fn revote(&mut self, leaf: GroupId, up: &mut LargeUplink<'_, '_, '_, Self>) {
        for (&txn, st) in &self.staged {
            up.direct(st.coord, HSvcMsg::Vote { txn, leaf, ok: st.ok });
        }
    }

    /// The retry tick: the coordinator re-prepares participants that have
    /// not voted; a participant rep aborts stages older than
    /// [`TXN_ABORT_AFTER`].
    pub(super) fn txn_tick(&mut self, up: &mut LargeUplink<'_, '_, '_, Self>) {
        let now = up.now();
        let coord = up.me();
        for (&txn, p) in &self.txns {
            if now.since(p.started) < self.retry {
                continue;
            }
            for (g, (writes, contacts)) in &p.shares {
                if let (false, Some(&rep)) = (p.votes.contains_key(g), contacts.first()) {
                    let writes = writes.clone();
                    up.direct(rep, HSvcMsg::Prepare { txn, coord, writes });
                }
            }
        }
        let stale: Vec<u64> = self
            .staged
            .iter()
            .filter(|(_, st)| now.since(st.staged_at) >= TXN_ABORT_AFTER)
            .map(|(t, _)| *t)
            .collect();
        for txn in stale {
            if self.cohort.coordinates(up.me()) {
                up.bump("tool.txn.presumed_abort");
                up.leaf_cast(self.lgid, CastKind::Total, HSvcMsg::Finish { txn, commit: false });
            }
        }
    }
}
