//! `now-net` — a real localhost transport backend for the protocol stack.
//!
//! Everything else in this workspace runs inside the deterministic
//! simulator. This crate is the production on-ramp: a [`daemon::Daemon`]
//! hosts many [`now_sim::Process`] instances in one OS process and speaks a
//! length-prefixed binary codec (see [`codec`]) over unix sockets or
//! loopback TCP to its peer daemons. The protocol crates are unchanged —
//! they only ever see a [`now_sim::Ctx`], and the daemon hosts them through
//! the same [`now_sim::Endpoint`] as the simulator; only the clock (wall
//! time) and the message fabric (real sockets) differ.
//!
//! What carries over from the simulator and what does not:
//!
//! - **carries over**: the full ISIS/hier protocol stack, the trace event
//!   stream (`NetSend`/`NetDeliver`/`ViewInstall`/…) and therefore the
//!   virtual-synchrony invariant monitors, the stats counters;
//! - **does not**: determinism. Timestamps are wall-clock microseconds,
//!   message interleavings depend on the OS scheduler, and two runs will
//!   not be byte-identical. The sim remains the verification substrate;
//!   this backend exists to show the same binaries surviving a real
//!   network fabric (the paper's "network of workstations").
//!
//! The [`cluster`] module boots several daemons on localhost, forms a
//! 64-process `isis-hier` hierarchy across them, and replays experiments
//! E1 (cast/abcast latency) and E9 (trading room) end-to-end; the
//! `now-cluster` binary is its CLI.

pub mod cluster;
pub mod codec;
pub mod daemon;
pub mod wire;

pub use cluster::{ClusterConfig, ClusterReport};
pub use codec::{decode_frame, encode_frame, CodecError, Frame, FrameBuf, MAX_FRAME_BODY};
pub use daemon::{Addr, Daemon, DaemonConfig};
pub use wire::{Wire, WireReader};
