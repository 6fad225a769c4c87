//! `isis-repro` — facade over the reproduction of Cooper & Birman,
//! "Supporting Large Scale Applications on Networks of Workstations"
//! (1989): hierarchical process groups over a virtually synchronous group
//! communication stack, on a deterministic network-of-workstations
//! simulator.
//!
//! The layers, bottom up:
//!
//! - [`sim`] (`now-sim`): deterministic discrete-event simulator.
//! - [`core`] (`isis-core`): process groups, FBCAST/CBCAST/ABCAST, views.
//! - [`hier`] (`isis-hier`): large groups — leaf subgroups, leader group,
//!   bounded-fanout tree broadcast. *The paper's contribution.*
//! - [`toolkit`] (`isis-toolkit`): the coordinator-cohort tool, one
//!   implementation over a flat group or a hierarchical leaf; over the
//!   hierarchy also a partitioned store and transactions.
//! - [`apps`] (`isis-apps`): the trading-room and factory workloads.
//!
//! See `examples/` for runnable entry points and DESIGN.md for the
//! paper-claim-to-module map.

pub use isis_apps as apps;
pub use isis_core as core;
pub use isis_hier as hier;
pub use isis_toolkit as toolkit;
pub use now_sim as sim;
