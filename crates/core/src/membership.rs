//! View changes: GBCAST realised as a flush protocol.
//!
//! Membership changes (joins, leaves, failures) are ordered with respect to
//! every broadcast by *wedging* the group, collecting each survivor's
//! unstable messages, re-delivering the union everywhere, and only then
//! installing the new view. The result is the virtual synchrony property:
//! all members that survive a view change have delivered exactly the same
//! set of messages in the old view.
//!
//! The leader of a view change is the oldest non-suspected member. Leader
//! failure during the protocol is tolerated: the next-oldest survivor
//! restarts with a higher attempt number, and members always ack the
//! highest attempt they have seen for the highest target view.

use now_sim::trace::EventKind as TraceKind;
use now_sim::Pid;

use crate::app::Application;
use crate::group::{Effect, Env, GroupRuntime, Status, ViewChangeLead};
use crate::msg::{IsisMsg, RelaySet, StabilityVector};
use crate::types::{has, GroupView, MsgId, ViewId};
use crate::vclock::VClock;

impl<A: Application> GroupRuntime<A> {
    /// Central dispatch for all group-addressed protocol messages.
    pub(crate) fn dispatch(&mut self, from: Pid, msg: crate::app::MsgOf<A>, env: &mut Env<'_, '_, A>) {
        match msg {
            IsisMsg::Cast(data) => {
                if let Some(data) = self.handle_cast(from, data, env) {
                    self.future_inbox.push((from, IsisMsg::Cast(data)));
                }
            }
            IsisMsg::AbcastOrder {
                gid,
                view,
                gseq,
                id,
            } => {
                if !self.handle_order(from, view, gseq, id, env) {
                    self.future_inbox
                        .push((from, IsisMsg::AbcastOrder { gid, view, gseq, id }));
                }
            }
            IsisMsg::CastAck { id, .. } => self.handle_cast_ack(from, id, env),
            IsisMsg::Heartbeat { stab, .. } => self.handle_heartbeat(from, stab, env),
            IsisMsg::Flush {
                attempt, proposal, ..
            } => self.handle_flush(from, attempt, proposal, env),
            IsisMsg::FlushAck {
                attempt,
                member_view,
                stab,
                buffers,
                ..
            } => self.handle_flush_ack(from, attempt, member_view, stab, buffers, env),
            IsisMsg::InstallView {
                attempt,
                view,
                relay,
                ..
            } => self.handle_install(from, attempt, view, relay, env),
            IsisMsg::SuspectReport { suspect, .. } => {
                self.heard_from(from, env.now());
                self.note_suspect(suspect, env);
            }
            IsisMsg::JoinReq { .. } => self.handle_join_req(from, env),
            IsisMsg::JoinForward { joiner, .. } => {
                self.heard_from(from, env.now());
                self.handle_join_forward(joiner, env);
            }
            IsisMsg::LeaveReq { .. } => {
                self.heard_from(from, env.now());
                self.handle_leave_req(from, env);
            }
            IsisMsg::JoinDenied { .. } | IsisMsg::Direct(_) => {
                unreachable!("handled by the process layer")
            }
        }
    }

    // ------------------------------------------------------------------
    // Failure suspicion
    // ------------------------------------------------------------------

    /// Registers a failure suspicion and reacts: lead a view change if this
    /// member is the oldest survivor, otherwise report to whoever is.
    pub(crate) fn note_suspect(&mut self, suspect: Pid, env: &mut Env<'_, '_, A>) {
        if suspect == self.me || !self.view.contains(suspect) {
            return;
        }
        let newly = self.suspects.insert(suspect);
        if !newly {
            return;
        }
        env.ctx.bump("isis.suspicions");
        self.act_on_pending_changes(env);
    }

    /// Drives the failure detector from the housekeeping tick.
    pub(crate) fn check_fd(&mut self, env: &mut Env<'_, '_, A>) {
        if !env.cfg.heartbeats_enabled || self.status == Status::Stalled {
            return;
        }
        let now = env.now();
        let timeout = env.cfg.fd_timeout;
        if now.since(self.live_since) <= timeout {
            // Every member counts as heard from at the install.
            return;
        }
        if self.heard.len() + 1 < self.view.size() {
            // The first look past the install: a member never heard from
            // since is as silent as the install is old. Built in one pass,
            // the map is as dense as one made at the install.
            let heard = std::mem::take(&mut self.heard);
            self.heard = self
                .view
                .members
                .iter()
                .filter(|&&m| m != self.me)
                .map(|&m| (m, heard.get(&m).copied().unwrap_or(self.live_since)))
                .collect();
        }
        let overdue: Vec<Pid> = self
            .heard
            .iter()
            .filter(|(p, &t)| now.since(t) > timeout && !self.suspects.contains(p))
            .map(|(&p, _)| p)
            .collect();
        for p in overdue {
            self.note_suspect(p, env);
        }
    }

    // ------------------------------------------------------------------
    // Joins and leaves
    // ------------------------------------------------------------------

    /// A non-member asked this member to be admitted.
    pub(crate) fn handle_join_req(&mut self, joiner: Pid, env: &mut Env<'_, '_, A>) {
        if self.leader() == self.me {
            self.handle_join_forward(joiner, env);
        } else {
            let leader = self.leader();
            env.send(
                leader,
                IsisMsg::JoinForward {
                    gid: self.gid,
                    joiner,
                },
            );
        }
    }

    /// The leader queues an admission.
    pub(crate) fn handle_join_forward(&mut self, joiner: Pid, env: &mut Env<'_, '_, A>) {
        if self.view.contains(joiner) {
            // The joiner may have missed its install; re-send it with fresh
            // state so joins are idempotent.
            env.effects.push(Effect::SendJoinerInstalls {
                gid: self.gid,
                attempt: self.flush_acked.1,
                view: self.view.clone(),
                joiners: vec![joiner],
            });
            return;
        }
        if self.leader() != self.me {
            let leader = self.leader();
            env.send(
                leader,
                IsisMsg::JoinForward {
                    gid: self.gid,
                    joiner,
                },
            );
            return;
        }
        if !has(&self.pending_joiners, joiner) {
            self.pending_joiners.push(joiner);
        }
        self.act_on_pending_changes(env);
    }

    /// This member wants out.
    pub(crate) fn request_leave(&mut self, env: &mut Env<'_, '_, A>) {
        if self.view.size() == 1 {
            env.effects.push(Effect::Left { gid: self.gid });
            env.effects.push(Effect::DropGroup { gid: self.gid });
            return;
        }
        self.leaving = true;
        if self.leader() == self.me {
            if !self.pending_leavers.contains(&self.me) {
                self.pending_leavers.push(self.me);
            }
            self.act_on_pending_changes(env);
        } else {
            let leader = self.leader();
            env.send(leader, IsisMsg::LeaveReq { gid: self.gid });
        }
    }

    /// The leader queues a departure.
    pub(crate) fn handle_leave_req(&mut self, leaver: Pid, env: &mut Env<'_, '_, A>) {
        if !self.view.contains(leaver) {
            return;
        }
        if !self.pending_leavers.contains(&leaver) {
            self.pending_leavers.push(leaver);
        }
        self.act_on_pending_changes(env);
    }

    /// The oldest non-suspected member.
    pub(crate) fn leader(&self) -> Pid {
        self.view
            .members
            .iter()
            .copied()
            .find(|m| !self.suspects.contains(m))
            .unwrap_or(self.me)
    }

    // ------------------------------------------------------------------
    // The flush protocol
    // ------------------------------------------------------------------

    /// Starts or restarts a view change if there are pending membership
    /// changes and this member should lead; reports to the leader
    /// otherwise.
    pub(crate) fn act_on_pending_changes(&mut self, env: &mut Env<'_, '_, A>) {
        if self.status == Status::Stalled {
            return;
        }
        let has_changes = !self.suspects.is_empty()
            || !self.pending_joiners.is_empty()
            || !self.pending_leavers.is_empty();
        if !has_changes {
            return;
        }
        if self.leader() != self.me {
            // Forward suspicions so the leader learns what we know.
            let leader = self.leader();
            for s in self.suspects.clone() {
                env.send(
                    leader,
                    IsisMsg::SuspectReport {
                        gid: self.gid,
                        suspect: s,
                    },
                );
            }
            return;
        }
        match &self.vc {
            None => self.start_flush(1, env),
            Some(vc) => {
                // Restart only if the world changed under the running
                // attempt (new suspects among its participants, or new
                // joiners/leavers not reflected in its proposal). The
                // proposal holds the first `vc.joiners` pending joiners, and
                // a later one is in neither the view nor that prefix.
                let stale = vc
                    .participants
                    .iter()
                    .any(|p| self.suspects.contains(p))
                    || self.pending_joiners.len() > vc.joiners
                    || self
                        .pending_leavers
                        .iter()
                        .any(|l| vc.proposal.contains(*l));
                if stale {
                    let round = vc.retry_round + 1;
                    self.start_flush(round, env);
                }
            }
        }
    }

    fn start_flush(&mut self, retry_round: u64, env: &mut Env<'_, '_, A>) {
        let mut leaving: Vec<Pid> = self.suspects.iter().copied().collect();
        for &l in &self.pending_leavers {
            if !leaving.contains(&l) {
                leaving.push(l);
            }
        }
        let base_view = self
            .vc
            .as_ref()
            .map(|vc| vc.max_member_view)
            .unwrap_or(self.view.view_id)
            .max(self.view.view_id);
        // No pending joiner is a view member (`handle_join_forward` answers
        // those with an install, and an install clears the list), and each
        // is queued once: the successor is the view less the leavers, then
        // every pending joiner in arrival order, built in one pass.
        let mut members: Vec<Pid> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|m| !leaving.contains(m))
            .collect();
        members.extend_from_slice(&self.pending_joiners);
        let proposal = GroupView {
            gid: self.gid,
            view_id: base_view + 1,
            members,
        };
        #[cfg(debug_assertions)]
        {
            let joining: Vec<Pid> = self
                .pending_joiners
                .iter()
                .copied()
                .filter(|j| !self.view.contains(*j))
                .collect();
            let mut rebuilt = self.view.successor(&leaving, &joining);
            rebuilt.view_id = proposal.view_id;
            debug_assert_eq!(proposal, rebuilt, "the proposal must be the view's successor");
        }

        if env.cfg.partition_safety && !proposal.is_majority_of(&self.view) {
            self.status = Status::Stalled;
            self.vc = None;
            env.ctx.bump("isis.stalls");
            env.effects.push(Effect::Stall { gid: self.gid });
            return;
        }

        let participants = self.survivors();
        let my_rank = self.view.rank_of(self.me).unwrap_or(0) as u64;
        let attempt = (retry_round << 8) | my_rank;
        self.status = Status::Wedged;
        self.flush_acked = (proposal.view_id, attempt);
        let mut vc = ViewChangeLead {
            attempt,
            retry_round,
            proposal: proposal.clone(),
            participants: participants.clone(),
            joiners: self.pending_joiners.len(),
            acks: Default::default(),
            max_member_view: self.view.view_id,
            max_ack_floor: self.my_stab().adel,
            started: env.now(),
        };
        vc.acks.insert(self.me, self.collect_unstable());
        self.vc = Some(Box::new(vc));
        env.ctx.bump("isis.flushes_started");
        let (tgid, tview) = (self.gid.0, proposal.view_id);
        env.ctx
            .trace_with(|| TraceKind::FlushBegin { gid: tgid, attempt, proposal: tview });
        for p in participants.iter().filter(|&&p| p != self.me) {
            env.send(
                *p,
                IsisMsg::Flush {
                    gid: self.gid,
                    attempt,
                    proposal: proposal.clone(),
                },
            );
        }
        self.maybe_complete_flush(env);
    }

    /// A member receives a flush request: wedge and report buffers.
    pub(crate) fn handle_flush(
        &mut self,
        from: Pid,
        attempt: u64,
        proposal: GroupView,
        env: &mut Env<'_, '_, A>,
    ) {
        self.heard_from(from, env.now());
        if proposal.view_id <= self.view.view_id {
            // Stale: the proposer is behind. If it is no longer a member,
            // tell it so it can clean up (courtesy install).
            if !self.view.contains(from) {
                env.send(
                    from,
                    IsisMsg::InstallView {
                        gid: self.gid,
                        attempt: self.flush_acked.1,
                        view: self.view.clone(),
                        relay: RelaySet::default(),
                        state: None,
                        floor: None,
                    },
                );
            }
            return;
        }
        let (acked_view, acked_attempt) = self.flush_acked;
        let accept = proposal.view_id > acked_view
            || (proposal.view_id == acked_view && attempt >= acked_attempt);
        if !accept {
            return;
        }
        // Yield our own leadership bid to a higher attempt.
        if let Some(vc) = &self.vc {
            if attempt > vc.attempt {
                self.vc = None;
            } else {
                return; // Our bid outranks theirs; they will yield to us.
            }
        }
        self.status = Status::Wedged;
        self.flush_acked = (proposal.view_id, attempt);
        env.send(
            from,
            IsisMsg::FlushAck {
                gid: self.gid,
                attempt,
                member_view: self.view.view_id,
                stab: self.my_stab(),
                buffers: self.collect_unstable(),
            },
        );
    }

    /// The leader collects a flush ack.
    pub(crate) fn handle_flush_ack(
        &mut self,
        from: Pid,
        attempt: u64,
        member_view: ViewId,
        stab: StabilityVector,
        buffers: RelaySet<A::Payload>,
        env: &mut Env<'_, '_, A>,
    ) {
        self.heard_from(from, env.now());
        let Some(vc) = &mut self.vc else { return };
        if attempt != vc.attempt {
            return;
        }
        vc.max_member_view = vc.max_member_view.max(member_view);
        vc.max_ack_floor = vc.max_ack_floor.max(stab.adel);
        vc.acks.insert(from, buffers);
        let round = vc.retry_round + 1;
        if member_view >= vc.proposal.view_id {
            // Someone is already past our target view; pick a fresh one.
            self.start_flush(round, env);
            return;
        }
        self.maybe_complete_flush(env);
    }

    fn maybe_complete_flush(&mut self, env: &mut Env<'_, '_, A>) {
        let Some(vc) = &self.vc else { return };
        let all_acked = vc
            .participants
            .iter()
            .all(|p| vc.acks.contains_key(p) || self.suspects.contains(p));
        if !all_acked {
            return;
        }
        self.complete_flush(env);
    }

    /// All survivors acked: merge buffers, deliver the union locally, send
    /// installs, and install.
    fn complete_flush(&mut self, env: &mut Env<'_, '_, A>) {
        let vc = self.vc.take().expect("complete_flush without a lead");
        let mut causal: std::collections::BTreeMap<MsgId, (VClock, A::Payload)> =
            Default::default();
        let mut fifo: std::collections::BTreeMap<MsgId, A::Payload> = Default::default();
        let mut ordered: std::collections::BTreeMap<u64, (MsgId, A::Payload)> = Default::default();
        let mut unordered: std::collections::BTreeMap<MsgId, A::Payload> = Default::default();
        for (_, buf) in vc.acks.iter() {
            for (id, vt, p) in &buf.causal {
                causal.entry(*id).or_insert_with(|| (vt.clone(), p.clone()));
            }
            for (id, p) in &buf.fifo {
                fifo.entry(*id).or_insert_with(|| p.clone());
            }
            for (g, id, p) in &buf.total_ordered {
                ordered.entry(*g).or_insert_with(|| (*id, p.clone()));
            }
            for (id, p) in &buf.total_unordered {
                unordered.entry(*id).or_insert_with(|| p.clone());
            }
        }
        // Drop unordered entries that did get an order somewhere.
        let ordered_ids: std::collections::BTreeSet<MsgId> =
            ordered.values().map(|(id, _)| *id).collect();
        // Assign final positions to orphaned ABCASTs, above every floor.
        let mut next = ordered
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
            .max(vc.max_ack_floor)
            + 1;
        for (id, p) in unordered {
            if ordered_ids.contains(&id) {
                continue;
            }
            ordered.insert(next, (id, p));
            next += 1;
        }
        let relay = RelaySet {
            causal: causal
                .into_iter()
                .map(|(id, (vt, p))| (id, vt, p))
                .collect(),
            fifo: fifo.into_iter().collect(),
            total_ordered: ordered
                .into_iter()
                .map(|(g, (id, p))| (g, id, p))
                .collect(),
            total_unordered: Vec::new(),
        };

        env.ctx.bump("isis.flushes_completed");

        // Deliver the union locally before installing.
        self.apply_relay(&relay, env);

        // Send installs to every old-view participant (including excluded
        // leavers, so they learn their exclusion).
        for p in vc.participants.iter().filter(|&&p| p != self.me) {
            env.send(
                *p,
                IsisMsg::InstallView {
                    gid: self.gid,
                    attempt: vc.attempt,
                    view: vc.proposal.clone(),
                    relay: relay.clone(),
                    state: None,
                    floor: None,
                },
            );
        }
        // Joiners get state-bearing installs once the application has been
        // brought up to date (process layer consults the app).
        let joiners: Vec<Pid> = vc
            .proposal
            .members
            .iter()
            .copied()
            .filter(|m| !self.view.contains(*m))
            .collect();

        let i_stay = vc.proposal.contains(self.me);
        if i_stay {
            self.finish_install(vc.proposal.clone(), env);
        }
        if !joiners.is_empty() {
            env.effects.push(Effect::SendJoinerInstalls {
                gid: self.gid,
                attempt: vc.attempt,
                view: vc.proposal.clone(),
                joiners,
            });
        }
        if !i_stay {
            env.effects.push(Effect::Left { gid: self.gid });
            env.effects.push(Effect::DropGroup { gid: self.gid });
        }
    }

    /// A member receives an install: deliver the relay, then switch views.
    pub(crate) fn handle_install(
        &mut self,
        from: Pid,
        _attempt: u64,
        view: GroupView,
        relay: RelaySet<A::Payload>,
        env: &mut Env<'_, '_, A>,
    ) {
        self.heard_from(from, env.now());
        if view.view_id <= self.view.view_id {
            return;
        }
        self.apply_relay(&relay, env);
        if !view.contains(self.me) {
            env.effects.push(Effect::Left { gid: self.gid });
            env.effects.push(Effect::DropGroup { gid: self.gid });
            return;
        }
        self.finish_install(view, env);
    }

    /// Installs `view` locally, emits the view event, and flushes buffered
    /// work into the new view.
    fn finish_install(&mut self, view: GroupView, env: &mut Env<'_, '_, A>) {
        self.install(view.clone(), env.now());
        env.ctx.bump("isis.views_installed");
        env.effects.push(Effect::View {
            view,
            joined: false,
        });
        // Casts buffered while wedged go out in the new view.
        let outbox = std::mem::take(&mut self.wedged_outbox);
        for (kind, payload, want_ack) in outbox {
            // Cannot fail: status is Normal after install.
            let _ = self.cast(kind, payload, want_ack, env);
        }
        // Messages that raced ahead of the install can now be processed.
        let future = std::mem::take(&mut self.future_inbox);
        for (f, m) in future {
            self.dispatch(f, m, env);
        }
    }

    /// Housekeeping driven by the process tick: flush retries and stalled
    /// leadership handover.
    pub(crate) fn tick_membership(&mut self, env: &mut Env<'_, '_, A>) {
        self.check_fd(env);
        let now = env.now();
        let retry = if let Some(vc) = &self.vc {
            now.since(vc.started) > env.cfg.flush_retry
        } else {
            false
        };
        if retry {
            let round = self.vc.as_ref().expect("checked above").retry_round + 1;
            env.ctx.bump("isis.flush_retries");
            self.start_flush(round, env);
        } else {
            self.act_on_pending_changes(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use now_sim::{Pid, SimDuration, SimTime};

    use crate::config::IsisConfig;
    use crate::testutil::{cluster, Cluster};

    fn count(c: &Cluster, name: &str) -> u64 {
        c.sim.stats().counter(name)
    }

    /// A crashed member falls silent: the survivors suspect it once its
    /// last heartbeat is `fd_timeout` old, and never suspect the members
    /// that keep heartbeating.
    #[test]
    fn a_silent_member_is_suspected_after_fd_timeout_and_heard_ones_are_not() {
        let cfg = IsisConfig::default();
        let mut c = cluster(4, cfg.clone(), 5);
        c.sim.run_for(cfg.fd_timeout * 3);
        assert_eq!(count(&c, "isis.suspicions"), 0, "heartbeats keep every member heard from");
        let crashed_at = c.sim.now();
        c.sim.crash(c.pids[3]);
        while count(&c, "isis.suspicions") == 0 {
            assert!(c.sim.now().since(crashed_at) < cfg.fd_timeout * 2, "never suspected");
            c.sim.run_for(SimDuration::from_millis(1));
        }
        let silent = c.sim.now().since(crashed_at);
        assert!(
            silent > cfg.fd_timeout - cfg.heartbeat && silent <= cfg.fd_timeout + cfg.tick,
            "suspected {silent:?} after the crash"
        );
        c.await_membership(3, SimDuration::from_secs(10));
    }

    /// Members never heard from since the install are as silent as the
    /// install is old, and `check_fd` notes them in pid order. Here the
    /// oldest member is one of them: noting it first makes the observer
    /// the leader, which starts a flush and restarts it for the second.
    /// The other order would report the second to the oldest and start one
    /// flush.
    #[test]
    fn members_silent_since_the_install_are_suspected_in_pid_order() {
        let cfg = IsisConfig::default();
        let timeout = cfg.fd_timeout;
        let mut c = cluster(5, cfg, 9);
        c.sim.run_for(timeout * 2);
        let (gid, p) = (c.gid, c.pids.clone());
        assert!(p.windows(2).all(|w| w[0] < w[1]), "members are in pid order");
        let (flushes, reports) = (count(&c, "isis.flushes_started"), count(&c, "isis.sent.suspect"));
        let suspects = c
            .sim
            .invoke(p[1], move |proc_, ctx| {
                proc_.drive(gid, ctx, |rt, env| {
                    let now = env.now();
                    // The install was two timeouts ago; since then p[2]
                    // and p[4] were heard from, p[0] and p[3] never.
                    rt.reset_liveness(SimTime(now.0 - 2 * timeout.as_micros()));
                    rt.heard_from(p[2], now);
                    rt.heard_from(p[4], now);
                    rt.check_fd(env);
                    rt.suspects.iter().copied().collect::<Vec<Pid>>()
                })
            })
            .expect("alive")
            .expect("member");
        assert_eq!(suspects, vec![c.pids[0], c.pids[3]]);
        assert_eq!(count(&c, "isis.flushes_started") - flushes, 2);
        assert_eq!(count(&c, "isis.sent.suspect") - reports, 0);
    }

    /// Installing a view records no liveness entry per member, while the
    /// storage estimate still counts one per peer: the number a 64-member
    /// group has always reported.
    #[test]
    fn install_records_no_liveness_per_member() {
        let c = cluster(64, IsisConfig::default(), 7);
        for &m in &c.pids {
            let rt = c.sim.process(m).runtime(c.gid).expect("member");
            assert!(rt.heard.len() < 63, "{m} holds a liveness entry per peer");
            assert_eq!(c.sim.process(m).membership_storage_bytes(c.gid), 1_028);
        }
    }
}
