//! Tunables of the ISIS runtime.
//!
//! The timings model the paper's environment: a LAN where heartbeats every
//! 200 ms and a 1 s failure-detection timeout give sub-second membership
//! reaction without drowning the network.

use now_sim::SimDuration;

/// Internal housekeeping tick driving heartbeats, failure detection, flush
/// retries, and join retries.
pub const TICK: SimDuration = SimDuration::from_millis(50);
/// Interval between liveness/stability heartbeats to group peers.
pub const HEARTBEAT: SimDuration = SimDuration::from_millis(200);
/// Silence threshold after which a peer is suspected to have failed.
pub const FD_TIMEOUT: SimDuration = SimDuration::from_millis(1_000);
/// How long a view-change leader waits for flush acks before retrying.
pub const FLUSH_RETRY: SimDuration = SimDuration::from_millis(500);
/// How long a joiner waits for a view before re-sending its join request.
pub const JOIN_RETRY: SimDuration = SimDuration::from_millis(1_000);

/// Configuration of one ISIS process: the two switches callers set.
#[derive(Clone, Debug)]
pub struct IsisConfig {
    /// When `true`, a new view must contain a strict majority of the
    /// previous view (primary-partition rule); minority survivors stall
    /// instead of splitting the group. When `false`, the failure detector
    /// is trusted (crash-only environments).
    pub partition_safety: bool,
    /// Master switch for heartbeats; experiments that count protocol
    /// messages under a microscope can turn them off and drive membership
    /// changes explicitly.
    pub heartbeats_enabled: bool,
}

impl Default for IsisConfig {
    fn default() -> IsisConfig {
        IsisConfig {
            partition_safety: false,
            heartbeats_enabled: true,
        }
    }
}

impl IsisConfig {
    /// A configuration with no background traffic: heartbeats off, so the
    /// only messages on the wire are the ones the experiment sends.
    /// Failures must then be reported explicitly by the harness.
    pub fn quiet() -> IsisConfig {
        IsisConfig {
            heartbeats_enabled: false,
            ..IsisConfig::default()
        }
    }

    /// A configuration with the primary-partition rule enabled.
    pub fn partition_safe() -> IsisConfig {
        IsisConfig {
            partition_safety: true,
            ..IsisConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = IsisConfig::default();
        assert!(FD_TIMEOUT > HEARTBEAT * 3, "FD must outlast several heartbeats");
        assert!(TICK < HEARTBEAT);
        assert!(c.heartbeats_enabled);
        assert!(!c.partition_safety);
    }

    #[test]
    fn quiet_disables_heartbeats_only() {
        let c = IsisConfig::quiet();
        assert!(!c.heartbeats_enabled);
        assert_eq!(c.partition_safety, IsisConfig::default().partition_safety);
    }

    #[test]
    fn partition_safe_sets_flag() {
        assert!(IsisConfig::partition_safe().partition_safety);
    }
}
