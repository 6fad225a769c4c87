//! `now-sim` — a deterministic discrete-event simulator of a network of
//! workstations (NOW), the substrate for the ISIS hierarchical process group
//! reproduction.
//!
//! The paper ("Supporting Large Scale Applications on Networks of
//! Workstations", Cooper & Birman 1989) makes claims about message counts,
//! broadcast destination counts, per-process state sizes, and failure
//! scopes. All of those are *protocol* properties; this simulator provides
//! the world in which the protocols run and the instrumentation that counts
//! them — deterministically, so experiments are exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use now_sim::{Ctx, Pid, Process, Sim, SimConfig, SimTime};
//!
//! struct Counter(u32);
//!
//! impl Process for Counter {
//!     type Msg = u32;
//!     fn on_message(&mut self, _from: Pid, msg: u32, _ctx: &mut Ctx<'_, u32>) {
//!         self.0 += msg;
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::ideal(42));
//! let node = sim.add_nodes(1)[0];
//! let p = sim.spawn(node, Counter(0));
//! sim.inject(p, 7);
//! sim.run_to_quiescence(SimTime(1_000_000));
//! assert_eq!(sim.process(p).0, 7);
//! ```

/// Re-export of the causal tracing + invariant-monitor crate, so the
/// protocol layers (which depend only on `now-sim`) can name event kinds
/// and drive tracers without a manifest change.
pub use now_trace as trace;

pub mod det_rand;
pub mod detprop;
pub mod engine;
pub mod failure;
pub mod ids;
pub mod net;
pub mod stats;
pub mod time;
pub mod transport;

pub use det_rand::{DetRng, Rng};
pub use engine::{Sim, SimConfig};
pub use transport::{Action, Ctx, Endpoint, Process, TimerFate};
pub use ids::{NodeId, Pid, SiteId, TimerId};
pub use net::{LinkModel, NetConfig, Partition};
pub use stats::{CounterId, ObservationLog, Series, SeriesId, Stats};
pub use time::{SimDuration, SimTime};
