//! Configuration of a large group: the paper's three structural quantities
//! (`size`, `resiliency`, `fanout`) plus operational thresholds.

use now_sim::SimDuration;

/// Period of hierarchical housekeeping (child-leaf monitoring, gap repair,
/// forwarding retries).
pub const TICK: SimDuration = SimDuration::from_millis(100);

/// Entries kept in the root representative's stamp cache, which lets a
/// resubmitted broadcast keep the global sequence number it was first
/// given.
pub const ASSIGNED_CAP: usize = 1_024;

/// Structural and timing parameters of a large group.
///
/// The paper (section 3) defines:
/// - *resiliency*: communication survives `resiliency - 1` member failures;
///   an initiator reports success only after `resiliency` acknowledgements,
///   and critical state is replicated at `resiliency` processes;
/// - *fanout*: no process communicates directly with more than `fanout`
///   group members; when `fanout < size` a multistage broadcast is used;
/// - leaf subgroups have at least `max(resiliency, fanout)` members — here
///   relaxed to a configurable `min_leaf` with that default.
#[derive(Clone, Debug)]
pub struct LargeGroupConfig {
    /// Acks required before a broadcast is reported resilient, and the size
    /// of the leader group.
    pub resiliency: usize,
    /// Maximum direct destinations per process in the multistage broadcast.
    pub fanout: usize,
    /// Minimum leaf size; leaves below it are merged away.
    pub min_leaf: usize,
    /// Maximum leaf size; leaves above it are split.
    pub max_leaf: usize,
    /// Silence threshold after which a parent declares a child leaf dead
    /// (total leaf failure, reported to the leader).
    pub leaf_dead_timeout: SimDuration,
    /// How long a member waits on a sequence gap before requesting repair.
    pub repair_timeout: SimDuration,
}

impl LargeGroupConfig {
    /// A configuration with the paper's defaults for the given structural
    /// parameters: `min_leaf = max(resiliency, 2)`, `max_leaf = 2 *
    /// min_leaf + 1`.
    pub fn new(resiliency: usize, fanout: usize) -> LargeGroupConfig {
        assert!(resiliency >= 1, "resiliency must be at least 1");
        assert!(fanout >= 1, "fanout must be at least 1");
        let min_leaf = resiliency.max(2);
        LargeGroupConfig {
            resiliency,
            fanout,
            min_leaf,
            max_leaf: 2 * min_leaf + 1,
            leaf_dead_timeout: SimDuration::from_millis(2_000),
            repair_timeout: SimDuration::from_millis(500),
        }
    }

    /// Explicit leaf size band.
    pub fn with_leaf_band(mut self, min_leaf: usize, max_leaf: usize) -> LargeGroupConfig {
        assert!(min_leaf >= 1 && max_leaf >= min_leaf);
        self.min_leaf = min_leaf;
        self.max_leaf = max_leaf;
        self
    }

    /// The paper's small-group degenerate case: `size = fanout =
    /// resiliency` (every current ISIS group is a small group).
    pub fn small_group(size: usize) -> LargeGroupConfig {
        LargeGroupConfig::new(size, size).with_leaf_band(size, size)
    }

    /// Stretches all periodic maintenance (beacons, contact refreshes,
    /// retransmission retries) far beyond the experiment horizon, so that
    /// message-counting experiments see only event-driven traffic. Pair
    /// with `IsisConfig::quiet()`.
    pub fn counting(mut self) -> LargeGroupConfig {
        self.leaf_dead_timeout = SimDuration::from_secs(3_600);
        self.repair_timeout = SimDuration::from_secs(1_800);
        self
    }
}

impl Default for LargeGroupConfig {
    fn default() -> LargeGroupConfig {
        LargeGroupConfig::new(3, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = LargeGroupConfig::new(3, 8);
        assert_eq!(c.min_leaf, 3);
        assert_eq!(c.max_leaf, 7);
        assert_eq!(c.resiliency, 3);
        assert_eq!(c.fanout, 8);
    }

    #[test]
    fn min_leaf_never_below_two() {
        let c = LargeGroupConfig::new(1, 4);
        assert_eq!(c.min_leaf, 2);
    }

    #[test]
    fn small_group_degenerate_case() {
        let c = LargeGroupConfig::small_group(5);
        assert_eq!((c.resiliency, c.fanout), (5, 5));
        assert_eq!((c.min_leaf, c.max_leaf), (5, 5));
    }

    #[test]
    #[should_panic(expected = "resiliency")]
    fn zero_resiliency_rejected() {
        let _ = LargeGroupConfig::new(0, 4);
    }

    #[test]
    fn leaf_band_override() {
        let c = LargeGroupConfig::new(2, 4).with_leaf_band(4, 9);
        assert_eq!((c.min_leaf, c.max_leaf), (4, 9));
    }
}
