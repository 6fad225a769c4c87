//! `isis-toolkit` — the ISIS toolkit tools in flat and hierarchical form.
//!
//! The paper argues at the level of *tools*: the coordinator-cohort
//! example costs `2n` messages per request in a flat group and the
//! hierarchy bounds it by leaf size. This crate writes that tool once
//! ([`cohort`]) and runs it over both kinds of group, so the experiments
//! can compare them directly; the hierarchical side adds the partitioned
//! store and the distributed transactions the factory floor runs.
//!
//! - [`cohort`]: the coordinator-cohort protocol and its group handle.
//! - [`flat`]: the tool over one plain `isis-core` group.
//! - [`hier`]: the leaf service, an `isis-hier` business application over
//!   leaf subgroups.
//! - [`common`]: the replicated key-value state and request language both
//!   variants share.
//!
//! # Examples
//!
//! The coordinator-cohort tool over a flat group: a client outside the
//! group sends one request, the coordinator executes it and replies, and
//! every member applies the result.
//!
//! ```
//! use isis_core::testutil::generic_cluster;
//! use isis_core::{GroupId, IsisConfig, IsisProcess};
//! use isis_toolkit::flat::FlatService;
//! use now_sim::{SimConfig, SimDuration};
//!
//! let gid = GroupId(11);
//! let (mut sim, members) = generic_cluster(
//!     3, gid, IsisConfig::default(), SimConfig::ideal(1), |_| FlatService::new(gid),
//! );
//! let node = sim.add_nodes(1)[0];
//! let client = sim.spawn(node, IsisProcess::with_defaults(FlatService::new(gid)));
//! let to = members.clone();
//! let req = sim
//!     .invoke(client, move |p, ctx| {
//!         p.with_app(ctx, |app, up| app.send_request(&to, "PUT answer 42", up))
//!     })
//!     .unwrap();
//! sim.run_for(SimDuration::from_secs(2));
//! assert_eq!(sim.process(client).app().replies[&req], "OK");
//! for &m in &members {
//!     assert_eq!(sim.process(m).app().state.get("answer").unwrap(), "42");
//! }
//! ```

pub mod cohort;
pub mod common;
pub mod flat;
pub mod hier;

pub use common::{apply_command, key_of, shard_of, KvState, ReqId};
