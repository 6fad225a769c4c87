//! `now-chaos`: an adversarial scenario fuzzer for the hierarchical
//! process-group stack, with the virtual-synchrony monitors as oracles.
//!
//! The paper's reliability story rests on the virtual-synchrony
//! guarantees holding *under failures* — exactly the regime ordinary tests
//! under-sample. This crate generates deterministic hostile fault
//! schedules ([`gen`]), expressed as composable DAGs of timed fault tasks
//! ([`scenario`]), runs each against a real `isis-hier` cluster with the
//! `now-trace` monitors armed ([`run`]), delta-debugs any violating
//! schedule down to a minimal counterexample ([`mod@shrink`]), and keeps the
//! survivors as a replayable regression corpus ([`corpus`]). A coverage
//! census ([`census`]) reports which trace event kinds each scenario
//! family actually exercises, so blind spots are visible rather than
//! assumed away.
//!
//! Everything is a pure function of seeds: same scenario + same seed =
//! byte-identical run, which is what makes a one-line report
//! (`family, index, base seed`) a complete bug reproduction.
//!
//! Entry points: [`gen::generate`] → [`run::run_scenario`] →
//! [`shrink::shrink`]; `cargo run -p now-chaos --bin chaos_sweep` drives
//! the whole pipeline (and is wired into `ci.sh`).

pub mod census;
pub mod corpus;
pub mod gen;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use census::Census;
pub use run::{run_scenario, RunReport, Sabotage};
pub use scenario::{Fault, Scenario, ScheduleError, Step, Target};
pub use shrink::{shrink, ShrinkBudget, ShrinkReport};
