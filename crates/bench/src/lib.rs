//! `isis-bench` — the experiment harness: every quantitative claim in the
//! paper has an experiment here (E1–E10), plus two design ablations
//! (A1–A2), a partition scenario (EP) and availability under churn (EA).
//! `all_experiments` prints every table, or just the ids it is given;
//! `QUICK=1` shrinks the sweeps.

pub mod experiments;
pub mod harness;
pub mod par_sweep;
pub mod report;

pub use par_sweep::{jobs, par_sweep, par_sweep_jobs};
pub use report::{quick_mode, Table};
