//! The socket daemon under `cargo test`: two daemons on unix sockets host
//! four echo processes through the shared `Endpoint` (pids 0 and 2 on
//! daemon 0, pids 1 and 3 on daemon 1), and the tests check that the
//! daemon books traffic, timers and halts by the same rules as the
//! simulator.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use now_net::{Addr, Daemon, DaemonConfig};
use now_sim::trace::{EventKind, Tracer};
use now_sim::{Ctx, Pid, Process, SimDuration, TimerId};

/// Records what it receives and which timers fire; a message `n > 0` is
/// echoed back to its sender as `n - 1`.
#[derive(Default)]
struct Echo {
    got: Vec<(Pid, u64)>,
    fired: Vec<u32>,
}

impl Process for Echo {
    type Msg = u64;

    fn on_message(&mut self, from: Pid, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.got.push((from, msg));
        if msg > 0 {
            ctx.send(from, msg - 1);
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u32, _ctx: &mut Ctx<'_, u64>) {
        self.fired.push(kind);
    }
}

const ROUTING: [u32; 4] = [0, 1, 0, 1];

struct Pair {
    daemons: Vec<Daemon<Echo>>,
}

impl Pair {
    /// Boots both daemons; `tag` keeps each test's socket files apart.
    fn boot(tag: &str) -> Pair {
        let dir = std::env::temp_dir();
        let addrs: Vec<Addr> = (0..2)
            .map(|d| {
                let name = format!("now-daemon-test-{}-{tag}-{d}.sock", std::process::id());
                Addr::Unix(dir.join(name))
            })
            .collect();
        let routing = Arc::new(ROUTING.to_vec());
        let epoch = Instant::now();
        let daemons = (0..2u32)
            .map(|d| {
                let procs = (0..ROUTING.len() as u32)
                    .filter(|&p| ROUTING[p as usize] == d)
                    .map(|p| (Pid(p), Echo::default()))
                    .collect();
                let cfg = DaemonConfig {
                    index: d,
                    addrs: addrs.clone(),
                    routing: Arc::clone(&routing),
                    epoch,
                    seed: 7,
                };
                Daemon::spawn(cfg, procs).expect("daemon boots")
            })
            .collect();
        Pair { daemons }
    }

    fn daemon_of(&self, pid: Pid) -> &Daemon<Echo> {
        &self.daemons[ROUTING[pid.0 as usize] as usize]
    }

    /// `(got, fired)` of `pid`, alive or halted.
    fn state(&self, pid: Pid) -> (Vec<(Pid, u64)>, Vec<u32>) {
        self.daemon_of(pid)
            .with_core(move |core| {
                let p = core.endpoint().process(pid).expect("hosted");
                (p.got.clone(), p.fired.clone())
            })
            .expect("daemon running")
    }

    /// `(messages_sent, messages_delivered, messages_dropped)` of daemon `d`.
    fn books(&self, d: usize) -> (u64, u64, u64) {
        self.daemons[d]
            .with_core(|core| {
                let s = core.endpoint().stats();
                (s.messages_sent, s.messages_delivered, s.messages_dropped)
            })
            .expect("daemon running")
    }

    /// Polls `cond` until it holds; panics after a generous deadline.
    fn wait_for(&self, what: &str, mut cond: impl FnMut(&Pair) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond(self) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn shutdown(self) {
        for d in self.daemons {
            d.shutdown();
        }
    }
}

#[test]
fn cross_daemon_send_is_booked_on_each_side() {
    let pair = Pair::boot("cross");
    pair.daemon_of(Pid(0))
        .invoke(Pid(0), |_, ctx| ctx.send(Pid(1), 0))
        .expect("pid 0 alive");
    pair.wait_for("the delivery at pid 1", |p| !p.state(Pid(1)).0.is_empty());
    assert_eq!(pair.state(Pid(1)).0, vec![(Pid(0), 0)]);
    // The sender's daemon books the send, the receiver's the delivery.
    assert_eq!(pair.books(0), (1, 0, 0));
    assert_eq!(pair.books(1), (0, 1, 0));
    pair.shutdown();
}

#[test]
fn a_halted_process_drops_its_mail_and_its_timers() {
    let pair = Pair::boot("halt");
    pair.daemon_of(Pid(1))
        .invoke(Pid(1), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(20), 1);
            ctx.halt();
        })
        .expect("pid 1 alive");
    assert!(
        pair.daemon_of(Pid(1))
            .with_core(|core| core.proc(Pid(1)).is_none())
            .expect("daemon running"),
        "a halted process is no longer served"
    );
    // A later timer on the same daemon proves pid 1's deadline has passed.
    pair.daemon_of(Pid(3))
        .invoke(Pid(3), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(40), 2);
        })
        .expect("pid 3 alive");
    pair.daemon_of(Pid(0))
        .invoke(Pid(0), |_, ctx| ctx.send(Pid(1), 5))
        .expect("pid 0 alive");
    pair.wait_for("the control timer", |p| p.state(Pid(3)).1 == vec![2]);
    pair.wait_for("the drop at daemon 1", |p| p.books(1).2 == 1);
    assert_eq!(pair.state(Pid(1)), (vec![], vec![]), "nothing reached the halted process");
    assert_eq!(pair.books(1), (0, 0, 1));
    pair.shutdown();
}

#[test]
fn a_cancelled_timer_never_fires() {
    let pair = Pair::boot("cancel");
    pair.daemon_of(Pid(0))
        .invoke(Pid(0), |_, ctx| {
            let early = ctx.set_timer(SimDuration::from_millis(20), 1);
            ctx.set_timer(SimDuration::from_millis(40), 2);
            ctx.cancel_timer(early);
        })
        .expect("pid 0 alive");
    pair.wait_for("the later timer", |p| !p.state(Pid(0)).1.is_empty());
    assert_eq!(pair.state(Pid(0)).1, vec![2]);
    pair.shutdown();
}

#[test]
fn a_local_delivery_is_caused_by_its_send() {
    let pair = Pair::boot("trace");
    pair.daemons[0]
        .with_core(|core| core.endpoint_mut().set_tracer(Tracer::new().retain_all()))
        .expect("daemon running");
    pair.daemon_of(Pid(0))
        .invoke(Pid(0), |_, ctx| ctx.send(Pid(2), 0))
        .expect("pid 0 alive");
    pair.wait_for("the local delivery", |p| !p.state(Pid(2)).0.is_empty());
    let events = pair.daemons[0]
        .with_core(|core| core.endpoint_mut().take_tracer())
        .expect("daemon running")
        .expect("tracer attached")
        .events();
    let send = events
        .iter()
        .find(|e| e.pid == 0 && matches!(e.kind, EventKind::NetSend { to: 2, .. }))
        .expect("send traced");
    let deliver = events
        .iter()
        .find(|e| e.pid == 2 && matches!(e.kind, EventKind::NetDeliver { from: 0, .. }))
        .expect("delivery traced");
    let wire = send.seq;
    assert!(matches!(deliver.kind, EventKind::NetDeliver { send, .. } if send == wire));
    assert_eq!(deliver.cause, Some(wire));
    pair.shutdown();
}
