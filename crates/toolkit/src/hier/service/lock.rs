//! Distributed mutual exclusion: each lock lives in the replicated FIFO
//! queue of its home leaf. A waiter asks the home leaf's rep, the rep
//! totally orders the queue operation within the leaf, and grants go
//! point to point to the new head wherever it is.

use now_sim::Pid;

use isis_core::{CastKind, GroupView};

use isis_hier::LargeUplink;

use super::{home_leaf, Directory, HSvcMsg, LeafServiceApp};

impl LeafServiceApp {
    /// Requests a lock (its home leaf queues us and grants in FIFO order).
    pub fn acquire_lock(
        &mut self,
        dir: &Directory,
        lock: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        let (_, contacts) = home_leaf(dir, lock);
        if let Some(&rep) = contacts.first() {
            let (lock, waiter) = (lock.to_owned(), up.me());
            up.direct(rep, HSvcMsg::MAcquire { lock, waiter });
        }
    }

    /// Releases a held lock.
    pub fn release_lock(
        &mut self,
        dir: &Directory,
        lock: &str,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.held_locks.retain(|l| l != lock);
        let (_, contacts) = home_leaf(dir, lock);
        if let Some(&rep) = contacts.first() {
            let (lock, holder) = (lock.to_owned(), up.me());
            up.direct(rep, HSvcMsg::MRelease { lock, holder });
        }
    }

    /// Home rep: queue a waiter in the leaf.
    pub(super) fn on_acquire(&mut self, lock: &str, waiter: Pid, up: &mut LargeUplink<'_, '_, '_, Self>) {
        if self.cohort.coordinates(up.me()) {
            let lock = lock.to_owned();
            up.leaf_cast(self.lgid, CastKind::Total, HSvcMsg::MQueue { lock, waiter });
        }
    }

    /// Home rep: dequeue a holder in the leaf.
    pub(super) fn on_release(&mut self, lock: &str, holder: Pid, up: &mut LargeUplink<'_, '_, '_, Self>) {
        if self.cohort.coordinates(up.me()) {
            let lock = lock.to_owned();
            up.leaf_cast(self.lgid, CastKind::Total, HSvcMsg::MDequeue { lock, holder });
        }
    }

    /// Every replica: append a waiter; the rep grants an idle lock.
    pub(super) fn on_queue(&mut self, lock: &str, waiter: Pid, up: &mut LargeUplink<'_, '_, '_, Self>) {
        let q = self.lock_queues.entry(lock.to_owned()).or_default();
        let grant = q.is_empty();
        if !q.contains(&waiter) {
            q.push_back(waiter);
        }
        if grant && self.cohort.coordinates(up.me()) {
            up.direct(waiter, HSvcMsg::MGrant { lock: lock.to_owned() });
        }
    }

    /// Every replica: drop the holder; the rep grants the next waiter.
    pub(super) fn on_dequeue(&mut self, lock: &str, holder: Pid, up: &mut LargeUplink<'_, '_, '_, Self>) {
        let mut next = None;
        if let Some(q) = self.lock_queues.get_mut(lock) {
            if q.front() == Some(&holder) {
                q.pop_front();
                next = q.front().copied();
            }
            if q.is_empty() {
                self.lock_queues.remove(lock);
            }
        }
        if let Some(w) = next.filter(|_| self.cohort.coordinates(up.me())) {
            up.direct(w, HSvcMsg::MGrant { lock: lock.to_owned() });
        }
    }

    /// Every replica drops the lock waiters that left this leaf between
    /// `prev` and `view`. Waiters from other leaves stay queued, or a
    /// release would never reach them. The head stays too: a holder can
    /// leave the leaf alive (it migrates, or is excluded) and still holds
    /// the lock.
    pub(super) fn drop_departed_waiters(&mut self, prev: &GroupView, view: &GroupView) {
        let left = |p: &Pid| prev.contains(*p) && !view.contains(*p);
        for q in self.lock_queues.values_mut() {
            let head = q.front().copied();
            q.retain(|p| Some(*p) == head || !left(p));
        }
        self.lock_queues.retain(|_, q| !q.is_empty());
    }

    /// A new rep re-grants every current holder (grants are idempotent at
    /// the waiters).
    pub(super) fn regrant(&mut self, up: &mut LargeUplink<'_, '_, '_, Self>) {
        for (lock, q) in &self.lock_queues {
            if let Some(&h) = q.front() {
                up.direct(h, HSvcMsg::MGrant { lock: lock.clone() });
            }
        }
    }
}
