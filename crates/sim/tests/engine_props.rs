//! Property-based tests of the simulation engine: time monotonicity, FIFO
//! channel ordering under arbitrary jitter, determinism, and loss
//! accounting under random partitions and crashes.

use now_sim::{
    Ctx, LinkModel, NetConfig, Partition, Pid, Process, Sim, SimConfig, SimDuration, SimTime,
};
use now_sim::detprop::prelude::*;

/// Records every delivery with its arrival time.
#[derive(Default)]
struct Probe {
    got: Vec<(Pid, u64, u64)>, // (from, tag, at_us)
}

impl Process for Probe {
    type Msg = u64;

    fn on_message(&mut self, from: Pid, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.got.push((from, msg, ctx.now().as_micros()));
    }
}

fn jittery(seed: u64, jitter_us: u64) -> Sim<Probe> {
    let cfg = SimConfig {
        seed,
        net: NetConfig {
            local: LinkModel {
                base_latency: SimDuration::from_micros(100),
                per_byte: SimDuration::from_micros(0),
                jitter: SimDuration::from_micros(jitter_us),
                drop_prob: 0.0,
            },
            long_distance: LinkModel::ideal(),
            loopback: SimDuration::from_micros(1),
            fifo: true,
        },
    };
    Sim::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn fifo_holds_for_any_jitter_and_burst(
        seed in 0u64..10_000,
        jitter in 0u64..5_000,
        burst in 1usize..60,
    ) {
        let mut sim = jittery(seed, jitter);
        let nodes = sim.add_nodes(2);
        let a = sim.spawn(nodes[0], Probe::default());
        let b = sim.spawn(nodes[1], Probe::default());
        sim.invoke(a, |_, ctx| {
            for i in 0..burst as u64 {
                ctx.send(b, i);
            }
        });
        sim.run_to_quiescence(SimTime(60_000_000));
        let tags: Vec<u64> = sim.process(b).got.iter().map(|(_, t, _)| *t).collect();
        let want: Vec<u64> = (0..burst as u64).collect();
        prop_assert_eq!(tags, want);
        // Arrival times never decrease.
        let times: Vec<u64> = sim.process(b).got.iter().map(|(_, _, t)| *t).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn determinism_for_any_seed(seed in 0u64..10_000) {
        let run = || {
            let mut sim = jittery(seed, 777);
            let nodes = sim.add_nodes(3);
            let pids: Vec<Pid> = nodes.iter().map(|&n| sim.spawn(n, Probe::default())).collect();
            for i in 0..30u64 {
                let from = pids[(i % 3) as usize];
                let to = pids[((i + 1) % 3) as usize];
                sim.invoke(from, move |_, ctx| ctx.send(to, i));
            }
            sim.run_to_quiescence(SimTime(60_000_000));
            (
                sim.stats().messages_sent,
                sim.now(),
                pids.iter().map(|&p| sim.process(p).got.clone()).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn conservation_of_messages(
        seed in 0u64..10_000,
        drops in 0.0f64..0.5,
        sends in 1usize..80,
    ) {
        let cfg = SimConfig {
            seed,
            net: NetConfig {
                local: LinkModel {
                    drop_prob: drops,
                    ..LinkModel::lan()
                },
                long_distance: LinkModel::ideal(),
                loopback: SimDuration::from_micros(1),
                fifo: true,
            },
        };
        let mut sim: Sim<Probe> = Sim::new(cfg);
        let nodes = sim.add_nodes(2);
        let a = sim.spawn(nodes[0], Probe::default());
        let b = sim.spawn(nodes[1], Probe::default());
        sim.invoke(a, |_, ctx| {
            for i in 0..sends as u64 {
                ctx.send(b, i);
            }
        });
        sim.run_to_quiescence(SimTime(600_000_000));
        let st = sim.stats();
        // Every message is exactly delivered or dropped.
        prop_assert_eq!(st.messages_sent, st.messages_delivered + st.messages_dropped);
        prop_assert_eq!(st.messages_delivered as usize, sim.process(b).got.len());
    }

    #[test]
    fn partition_cells_fully_isolate(
        seed in 0u64..10_000,
        cut in prop::collection::vec(any::<bool>(), 4),
    ) {
        let mut sim = jittery(seed, 300);
        let nodes = sim.add_nodes(4);
        let pids: Vec<Pid> = nodes.iter().map(|&n| sim.spawn(n, Probe::default())).collect();
        let minority: Vec<_> = nodes
            .iter()
            .zip(&cut)
            .filter(|(_, &c)| c)
            .map(|(&n, _)| n)
            .collect();
        sim.set_partition(Partition::split(minority));
        // Everyone sends to everyone.
        for (i, &from) in pids.clone().iter().enumerate() {
            for (j, &to) in pids.clone().iter().enumerate() {
                if i != j {
                    let tag = (i * 10 + j) as u64;
                    sim.invoke(from, move |_, ctx| ctx.send(to, tag));
                }
            }
        }
        sim.run_to_quiescence(SimTime(60_000_000));
        // A message arrived iff sender and receiver are on the same side.
        for (j, &to) in pids.iter().enumerate() {
            for (i, _) in pids.iter().enumerate() {
                if i == j {
                    continue;
                }
                let tag = (i * 10 + j) as u64;
                let arrived = sim.process(to).got.iter().any(|(_, t, _)| *t == tag);
                prop_assert_eq!(arrived, cut[i] == cut[j], "tag {} cut {:?}", tag, cut);
            }
        }
    }

    #[test]
    fn crashes_never_resurrect(
        seed in 0u64..10_000,
        crash_at in 1u64..1_000_000,
    ) {
        let mut sim = jittery(seed, 500);
        let nodes = sim.add_nodes(2);
        let a = sim.spawn(nodes[0], Probe::default());
        let b = sim.spawn(nodes[1], Probe::default());
        sim.schedule_crash(b, SimTime(crash_at));
        // A steady stream across the crash point.
        for i in 0..50u64 {
            sim.invoke(a, move |_, ctx| ctx.send(b, i));
            sim.run_for(SimDuration::from_micros(50_000));
        }
        sim.run_to_quiescence(SimTime(60_000_000));
        prop_assert!(!sim.is_alive(b));
        // Everything b received arrived strictly before the crash.
        for (_, _, at) in &sim.process(b).got {
            prop_assert!(*at <= crash_at);
        }
    }
}

/// Process state and messages may hold an `Rc`: the engine is one
/// sequential loop and demands neither `Send` nor `Sync` of what it hosts.
#[test]
fn rc_state_and_messages_run_a_multicast_round() {
    use std::rc::Rc;

    struct Keeper {
        last: Rc<str>,
    }

    impl Process for Keeper {
        type Msg = Rc<str>;

        fn on_message(&mut self, _from: Pid, msg: Rc<str>, _ctx: &mut Ctx<'_, Rc<str>>) {
            self.last = msg;
        }
    }

    let mut sim: Sim<Keeper> = Sim::new(SimConfig::lan(5));
    let pids: Vec<Pid> = sim
        .add_nodes(4)
        .into_iter()
        .map(|n| sim.spawn(n, Keeper { last: Rc::from("") }))
        .collect();
    let dsts = pids[1..].to_vec();
    sim.invoke(pids[0], |_, ctx| ctx.multicast(dsts, Rc::from("quote")));
    sim.run_to_quiescence(SimTime(10_000_000));
    for p in &pids[1..] {
        assert_eq!(&*sim.process(*p).last, "quote");
    }
}
