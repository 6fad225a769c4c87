//! Hierarchical variant of the toolkit, restructured per section 4 of the
//! paper: requests are broadcast to individual subgroups, data is
//! partitioned across leaves, and no process's load grows with the size
//! of the large group.

pub mod service;

pub use service::{home_leaf, Directory, HSvcMsg, LeafServiceApp};
