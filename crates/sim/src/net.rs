//! Network model: latency, loss, and partitions.
//!
//! The paper's claims are about message *counts* and *destinations*, so the
//! latency model only needs to be plausible, not cycle-accurate. We model a
//! 1989-vintage 10 Mbit/s Ethernet LAN per site plus long-distance links
//! between sites (section 5 of the paper mentions "considerations of
//! long-distance links").

use std::collections::BTreeSet;

use crate::det_rand::Rng;

use crate::ids::NodeId;
use crate::time::SimDuration;

/// Latency/loss parameters for one class of link.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkModel {
    /// Fixed per-message latency (propagation + protocol stack).
    pub base_latency: SimDuration,
    /// Additional latency per payload byte (transmission delay).
    pub per_byte: SimDuration,
    /// Uniform jitter added on top: `U[0, jitter]`.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
}

impl LinkModel {
    /// A 10 Mbit/s shared Ethernet: ~1 ms stack latency, 0.8 us/byte.
    pub fn lan() -> LinkModel {
        LinkModel {
            base_latency: SimDuration::from_micros(1_000),
            per_byte: SimDuration::from_micros(1),
            jitter: SimDuration::from_micros(400),
            drop_prob: 0.0,
        }
    }

    /// A long-distance (inter-site) link: ~30 ms latency, some loss.
    pub fn wan() -> LinkModel {
        LinkModel {
            base_latency: SimDuration::from_millis(30),
            per_byte: SimDuration::from_micros(2),
            jitter: SimDuration::from_millis(5),
            drop_prob: 0.001,
        }
    }

    /// A zero-latency, lossless link, useful for protocol unit tests where
    /// timing is irrelevant.
    pub fn ideal() -> LinkModel {
        LinkModel {
            base_latency: SimDuration::from_micros(1),
            per_byte: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            drop_prob: 0.0,
        }
    }

    /// Samples the one-way latency for a message of `bytes` payload bytes.
    pub fn sample_latency<R: Rng>(&self, bytes: usize, rng: &mut R) -> SimDuration {
        let jitter = if self.jitter == SimDuration::ZERO {
            0
        } else {
            rng.gen_range(0..=self.jitter.as_micros())
        };
        SimDuration(
            self.base_latency.as_micros() + self.per_byte.as_micros() * bytes as u64 + jitter,
        )
    }

    /// Samples whether this message is lost.
    pub fn sample_drop<R: Rng>(&self, rng: &mut R) -> bool {
        self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob.min(1.0))
    }
}

/// Full network configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Link model used between nodes on the same site.
    pub local: LinkModel,
    /// Link model used between nodes on different sites.
    pub long_distance: LinkModel,
    /// Latency for a process sending a message to itself (loopback).
    pub loopback: SimDuration,
    /// When `true` (the default), messages between the same ordered pair of
    /// processes are delivered in send order, modelling the TCP-like
    /// transport ISIS ran over. Jitter can otherwise reorder them.
    pub fifo: bool,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            local: LinkModel::lan(),
            long_distance: LinkModel::wan(),
            loopback: SimDuration::from_micros(10),
            fifo: true,
        }
    }
}

impl NetConfig {
    /// A deterministic, jitter-free, lossless network for protocol tests.
    pub fn ideal() -> NetConfig {
        NetConfig {
            local: LinkModel::ideal(),
            long_distance: LinkModel::ideal(),
            loopback: SimDuration::from_micros(1),
            fifo: true,
        }
    }
}

/// Dynamic connectivity state: which pairs of partitions can currently talk.
///
/// Partitions are expressed as a colouring of nodes: nodes with the same
/// colour can exchange messages, nodes with different colours cannot. This
/// represents the "network partitions" of section 5.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// Nodes explicitly placed in a non-default partition cell.
    /// Nodes absent from the map are in cell 0.
    cells: std::collections::BTreeMap<NodeId, u32>,
}

impl Partition {
    /// A fully connected network.
    pub fn connected() -> Partition {
        Partition::default()
    }

    /// Places `node` in partition `cell`. Cell 0 is the default cell that
    /// all unlisted nodes occupy.
    pub fn set_cell(&mut self, node: NodeId, cell: u32) {
        if cell == 0 {
            self.cells.remove(&node);
        } else {
            self.cells.insert(node, cell);
        }
    }

    /// Splits the network: nodes in `minority` form their own cell.
    pub fn split(minority: impl IntoIterator<Item = NodeId>) -> Partition {
        let mut p = Partition::default();
        for n in minority {
            p.set_cell(n, 1);
        }
        p
    }

    /// Heals the partition, reconnecting everything.
    pub fn heal(&mut self) {
        self.cells.clear();
    }

    /// Returns the partition cell of `node`.
    pub fn cell(&self, node: NodeId) -> u32 {
        self.cells.get(&node).copied().unwrap_or(0)
    }

    /// Returns `true` when `a` and `b` can currently exchange messages.
    pub fn connected_pair(&self, a: NodeId, b: NodeId) -> bool {
        self.cell(a) == self.cell(b)
    }

    /// Returns `true` when no node is isolated from the default cell.
    pub fn is_healed(&self) -> bool {
        self.cells.is_empty()
    }

    /// Returns the set of distinct cells currently in use (including 0).
    pub fn cells_in_use(&self) -> BTreeSet<u32> {
        let mut s: BTreeSet<u32> = self.cells.values().copied().collect();
        s.insert(0);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_rand::DetRng;

    #[test]
    fn lan_latency_includes_size_component() {
        let mut rng = DetRng::seed_from_u64(1);
        let m = LinkModel {
            jitter: SimDuration::ZERO,
            ..LinkModel::lan()
        };
        let small = m.sample_latency(10, &mut rng);
        let large = m.sample_latency(1_000, &mut rng);
        assert!(large > small);
        assert_eq!(
            large.as_micros() - small.as_micros(),
            990 * m.per_byte.as_micros()
        );
    }

    #[test]
    fn ideal_link_is_deterministic() {
        let mut rng = DetRng::seed_from_u64(7);
        let m = LinkModel::ideal();
        let a = m.sample_latency(500, &mut rng);
        let b = m.sample_latency(500, &mut rng);
        assert_eq!(a, b);
        assert!(!m.sample_drop(&mut rng));
    }

    #[test]
    fn jitter_stays_within_bound() {
        let mut rng = DetRng::seed_from_u64(42);
        let m = LinkModel::lan();
        for _ in 0..200 {
            let l = m.sample_latency(0, &mut rng);
            assert!(l >= m.base_latency);
            assert!(l <= m.base_latency + m.jitter);
        }
    }

    #[test]
    fn drop_probability_is_roughly_honoured() {
        let mut rng = DetRng::seed_from_u64(3);
        let m = LinkModel {
            drop_prob: 0.5,
            ..LinkModel::lan()
        };
        let drops = (0..2_000).filter(|_| m.sample_drop(&mut rng)).count();
        assert!((800..1_200).contains(&drops), "drops={drops}");
    }

    #[test]
    fn partition_splits_and_heals() {
        let mut p = Partition::split([NodeId(1), NodeId(2)]);
        assert!(!p.connected_pair(NodeId(0), NodeId(1)));
        assert!(p.connected_pair(NodeId(1), NodeId(2)));
        assert!(p.connected_pair(NodeId(0), NodeId(3)));
        assert_eq!(p.cells_in_use().len(), 2);
        p.heal();
        assert!(p.is_healed());
        assert!(p.connected_pair(NodeId(0), NodeId(1)));
    }

    #[test]
    fn set_cell_zero_returns_node_to_default() {
        let mut p = Partition::connected();
        p.set_cell(NodeId(5), 3);
        assert!(!p.connected_pair(NodeId(5), NodeId(0)));
        p.set_cell(NodeId(5), 0);
        assert!(p.is_healed());
    }
}
