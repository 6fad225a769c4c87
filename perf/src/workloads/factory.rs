//! `sim-factory`: the E10 manufacturing floor — work cells run two-phase
//! transactions over an inventory partitioned across leaves — driven by a
//! bench-owned loop so that formation, settling and seeding the inventory
//! land in `setup_s`.
//!
//! The sequence is `isis_apps::run_factory`'s, step for step (a test pins
//! the counts to it), on the default `IsisConfig` and a LAN. An operation
//! is a transaction begun by a cell that survives the run; it completes by
//! committing or by aborting (a lock conflict or a crashed participant
//! makes an abort a correct outcome) and fails only by staying unresolved.
//!
//! The gated size crashes no cell: with crashes some transactions never
//! resolve (README, observation 5) and the driver wants workloads on which
//! no operation fails. `crash_cells` is kept for the parity test and the
//! `toolkit.txn.*_crash3` probe; victims issue transactions until they die,
//! as load. The seed is the simulation's: it draws every LAN latency, and
//! so which transactions conflict.

use std::time::Instant;

use now_sim::trace::Tracer;
use now_sim::{Pid, Sim, SimConfig, SimDuration};

use isis_apps::drivers::{directory_of, FactoryProc};
use isis_apps::factory::{audit_keys, conservation_holds, pick_parts, Recipe};
use isis_core::IsisConfig;
use isis_hier::harness::generic_large_cluster;
use isis_hier::{LargeGroupConfig, LargeGroupId};
use isis_toolkit::hier::{Directory, LeafServiceApp};

use crate::meter::Meter;

use super::{Scale, UnitOut, Workload};

const LGID: LargeGroupId = LargeGroupId(1);

/// The workload.
pub struct Factory {
    /// Work cells.
    pub cells: usize,
    /// Distinct part types (the conflict surface).
    pub part_types: usize,
    /// Transactions each cell attempts.
    pub builds_per_cell: u64,
    /// Cells crashed during the run.
    pub crash_cells: usize,
}

impl Factory {
    /// The gated size, or a tenth of it.
    pub fn new(scale: Scale) -> Factory {
        Factory {
            cells: scale.pick(200, 40),
            part_types: 8,
            builds_per_cell: scale.pick(8, 2),
            crash_cells: 0,
        }
    }

    fn recipe(&self) -> Recipe {
        Recipe {
            part_types: self.part_types,
            initial_stock: 1_000_000,
        }
    }
}

/// A settled floor with its inventory seeded.
pub struct Floor {
    sim: Sim<FactoryProc>,
    leader: Pid,
    members: Vec<Pid>,
    /// Leaf order at seeding time: key routing stays on it for the run.
    seed_dir: Directory,
}

fn begin(sim: &mut Sim<FactoryProc>, cell: Pid, dir: Directory, writes: Vec<(String, String)>) {
    sim.invoke(cell, move |p, ctx| {
        p.with_app(ctx, |app, up| {
            app.with_business(up, |biz, lup| {
                biz.begin_txn(&dir, &writes, lup);
            });
        });
    });
}

impl Workload for Factory {
    type State = Floor;

    fn setup(&self, seed: u64, traced: bool) -> Floor {
        let (mut sim, leaders, members) = generic_large_cluster(
            self.cells,
            LargeGroupConfig::new(3, 4),
            IsisConfig::default(),
            SimConfig::lan(seed).with_jobs(1),
            |_| LeafServiceApp::new(LGID),
        );
        let leader = leaders[0];
        // A formation tail leaf below min_leaf is merged away within
        // seconds; routing is snapshotted after that.
        let deadline = sim.now() + SimDuration::from_secs(120);
        while sim.now() < deadline
            && !sim
                .process(leader)
                .app()
                .leader_view(LGID)
                .is_some_and(|v| !v.leaves.is_empty() && v.leaves.iter().all(|l| l.size >= 3))
        {
            sim.run_for(SimDuration::from_secs(1));
        }
        let seed_dir = directory_of(&sim, leader, LGID);
        begin(
            &mut sim,
            members[0],
            seed_dir.clone(),
            self.recipe().seed_writes(),
        );
        sim.run_for(SimDuration::from_secs(10));
        if traced {
            sim.set_tracer(Tracer::new().retain_all());
        }
        Floor {
            sim,
            leader,
            members,
            seed_dir,
        }
    }

    fn unit(&self, floor: Floor) -> UnitOut {
        let Floor {
            mut sim,
            leader,
            members,
            seed_dir,
        } = floor;
        let recipe = self.recipe();
        sim.stats_mut().enable_fanout_tracking();
        sim.stats_mut().reset_window();
        // Victims from the tail so the seeder survives; crashes spread over
        // the first simulated seconds of production.
        let victims: Vec<Pid> = (0..self.crash_cells.min(self.cells / 4))
            .map(|k| members[self.cells - 1 - k])
            .collect();
        for (k, &v) in victims.iter().enumerate() {
            sim.schedule_crash(v, sim.now() + SimDuration::from_secs(2 + 3 * k as u64));
        }
        let mut attempts = 0u64;
        let mut slot_us = Vec::new();

        let meter = Meter::start();
        for k in 0..self.builds_per_cell {
            // Contacts are refreshed each round; shard assignment is not.
            let fresh = directory_of(&sim, leader, LGID);
            let dir: Directory = seed_dir
                .iter()
                .map(|(gid, old)| {
                    let contacts = fresh
                        .iter()
                        .find(|(g, _)| g == gid)
                        .map_or_else(|| old.clone(), |(_, c)| c.clone());
                    (*gid, contacts)
                })
                .collect();
            for (c, &cell) in members.iter().enumerate() {
                if !sim.is_alive(cell) {
                    continue;
                }
                let t = Instant::now();
                let (a, b) = pick_parts(c, k, self.part_types);
                begin(&mut sim, cell, dir.clone(), recipe.build_writes(c, a, b));
                sim.run_for(SimDuration::from_millis(30));
                if !victims.contains(&cell) {
                    attempts += 1;
                    slot_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            sim.run_for(SimDuration::from_millis(200));
        }
        sim.run_for(SimDuration::from_secs(60));
        let cost = meter.stop();

        let live: Vec<Pid> = members
            .iter()
            .copied()
            .filter(|&m| sim.is_alive(m))
            .collect();
        let (mut committed, mut aborted) = (0u64, 0u64);
        for &m in &live {
            for &ok in sim.process(m).app().biz().txn_results.values() {
                if ok {
                    committed += 1;
                } else {
                    aborted += 1;
                }
            }
        }
        committed = committed.saturating_sub(1); // the seeding transaction
        let read = |key: &str| -> Option<i64> {
            live.iter().find_map(|&m| {
                sim.process(m)
                    .app()
                    .biz()
                    .state
                    .get(key)
                    .and_then(|v| v.parse().ok())
            })
        };
        let (part_keys, product_keys) = audit_keys(&recipe, self.cells);
        let remaining: Vec<i64> = part_keys
            .iter()
            .map(|k| read(k).unwrap_or(recipe.initial_stock))
            .collect();
        let products: i64 = product_keys.iter().map(|k| read(k).unwrap_or(0)).sum();
        let conserved = conservation_holds(&recipe, &remaining, products);
        // Victims' committed builds are in the inventory too, so products
        // may exceed the survivors' commits but never fall below them.
        let plausible = products >= committed as i64;

        let msgs = sim.stats().messages_sent;
        let max_fanout = sim.stats().max_distinct_destinations() as u64;
        UnitOut {
            cost,
            ops: attempts,
            failed: attempts.saturating_sub(committed + aborted),
            msgs,
            op_us: slot_us,
            max_fanout,
            exact: vec![
                ("msgs", msgs),
                ("committed", committed),
                ("aborted", aborted),
                ("max_fanout", max_fanout),
            ],
            events: sim
                .take_tracer()
                .map(|mut t| t.drain_events())
                .unwrap_or_default(),
            broken: if !conserved {
                Some(format!(
                    "inventory not conserved: {products} products, stock {remaining:?}"
                ))
            } else if !plausible {
                Some(format!(
                    "{products} products for {committed} committed builds"
                ))
            } else {
                None
            },
            ..UnitOut::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_loop_reproduces_the_apps_driver_on_a_small_point() {
        let w = Factory {
            cells: 24,
            part_types: 6,
            builds_per_cell: 3,
            crash_cells: 2,
        };
        let ours = w.unit(w.setup(91, false));
        let theirs = isis_apps::run_factory(24, 6, 3, 2, 91);
        assert_eq!(ours.msgs, theirs.messages);
        let count = |name: &str| ours.exact.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        assert_eq!(count("committed"), Some(theirs.committed));
        assert_eq!(count("aborted"), Some(theirs.aborted));
        assert!(theirs.conserved && ours.broken.is_none());
        // The driver also counts the victims' attempts; ours are theirs
        // minus those.
        assert!(ours.ops <= theirs.attempts);
        assert_eq!(ours.failed, 0);
    }
}
