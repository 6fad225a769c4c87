//! `chaos-sweep`: generated fault scenarios, round-robin over
//! `now_chaos::gen::FAMILIES`, each run by `run_scenario` against a tiny
//! cluster with the full monitor catalog armed.
//!
//! Set-up generates the scenarios from the seed (and resolves each one's
//! schedule, so a malformed DAG shows before the clock starts); the timed
//! section runs them. An operation is a scenario; it fails when a monitor
//! reports a violation. `run_scenario` always traces — the monitors read
//! the log — so the traced and untraced passes of this workload are the
//! same run.

use std::collections::BTreeMap;
use std::time::Instant;

use now_chaos::gen::{generate, FAMILIES};
use now_chaos::{run_scenario, Sabotage, Scenario};

use crate::meter::Meter;

use super::{Scale, UnitOut, Workload};

/// The workload.
pub struct Sweep {
    /// Scenarios per unit.
    pub scenarios: u64,
}

impl Sweep {
    /// The gated size, or a tenth of it.
    pub fn new(scale: Scale) -> Sweep {
        Sweep {
            scenarios: scale.pick(1050, 105),
        }
    }
}

impl Workload for Sweep {
    type State = Vec<Scenario>;

    fn setup(&self, seed: u64, _traced: bool) -> Vec<Scenario> {
        (0..self.scenarios)
            .map(|i| {
                let family = FAMILIES[(i % FAMILIES.len() as u64) as usize];
                let sc = generate(family, i / FAMILIES.len() as u64, seed);
                sc.schedule().expect("generated scenarios resolve");
                sc
            })
            .collect()
    }

    fn unit(&self, scenarios: Vec<Scenario>) -> UnitOut {
        let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut per_scenario_us = Vec::with_capacity(scenarios.len());
        let mut violations = 0u64;
        let mut dirty = 0u64;

        let meter = Meter::start();
        for sc in &scenarios {
            let t = Instant::now();
            let report = run_scenario(sc, Sabotage::None).expect("schedule resolved in set-up");
            per_scenario_us.push(t.elapsed().as_secs_f64() * 1e6);
            violations += report.violations.len() as u64;
            dirty += u64::from(!report.is_clean());
            for (kind, n) in report.census {
                *census.entry(kind).or_insert(0) += n;
            }
        }
        let cost = meter.stop();

        let msgs = census.get("NET_SEND").copied().unwrap_or(0);
        let events: u64 = census.values().sum();
        UnitOut {
            cost,
            ops: scenarios.len() as u64,
            failed: dirty,
            msgs,
            op_us: per_scenario_us,
            exact: vec![
                ("msgs", msgs),
                ("events", events),
                ("violations", violations),
            ],
            census: census.into_iter().collect(),
            ..UnitOut::default()
        }
    }
}
