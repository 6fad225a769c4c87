//! Property-based tests of the toolkit: the command language over the
//! replicated store.

use isis_toolkit::common::{apply_command, KvState};
use now_sim::detprop::prelude::*;

// ---------------------------------------------------------------------
// KvState / command language
// ---------------------------------------------------------------------

fn cmd_strategy() -> impl Strategy<Value = String> {
    let key = prop_oneof![Just("a"), Just("b"), Just("c")];
    prop_oneof![
        key.clone().prop_map(|k| format!("GET {k}")),
        (key.clone(), 0u32..100).prop_map(|(k, v)| format!("PUT {k} {v}")),
        key.clone().prop_map(|k| format!("DEL {k}")),
        (key.clone(), -50i64..50).prop_map(|(k, d)| format!("ADD {k} {d}")),
        (key, 0u32..3, 0u32..3).prop_map(|(k, o, n)| format!("CAS {k} {o} {n}")),
    ]
}

proptest! {
    #[test]
    fn command_replay_is_deterministic(cmds in prop::collection::vec(cmd_strategy(), 0..60)) {
        let mut s1 = KvState::new();
        let mut s2 = KvState::new();
        let r1: Vec<String> = cmds.iter().map(|c| apply_command(&mut s1, c)).collect();
        let r2: Vec<String> = cmds.iter().map(|c| apply_command(&mut s2, c)).collect();
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn reads_never_mutate(cmds in prop::collection::vec(cmd_strategy(), 0..40)) {
        let mut s = KvState::new();
        for c in &cmds {
            apply_command(&mut s, c);
        }
        let v0 = s.version;
        let snapshot = s.clone();
        for k in ["a", "b", "c"] {
            apply_command(&mut s, &format!("GET {k}"));
        }
        prop_assert_eq!(s.version, v0);
        prop_assert_eq!(s, snapshot);
    }

    #[test]
    fn add_is_commutative_in_total(deltas in prop::collection::vec(-100i64..100, 1..30)) {
        let mut forward = KvState::new();
        for d in &deltas {
            apply_command(&mut forward, &format!("ADD k {d}"));
        }
        let mut backward = KvState::new();
        for d in deltas.iter().rev() {
            apply_command(&mut backward, &format!("ADD k {d}"));
        }
        prop_assert_eq!(forward.get("k"), backward.get("k"));
        let total: i64 = deltas.iter().sum();
        prop_assert_eq!(forward.get("k").unwrap(), &total.to_string());
    }
}
