//! Shared building blocks of the toolkit: request identifiers, the
//! replicated key-value state used by stateful services, and deterministic
//! request routing.

use std::collections::BTreeMap;

use now_sim::Pid;

/// Identifies one client request (unique per client process).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId {
    /// The requesting process.
    pub client: Pid,
    /// Client-local sequence number.
    pub seq: u64,
}

/// A deterministic replicated key-value state, the canonical "service
/// state" replicated by the coordinator-cohort tool and the partitioned
/// store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvState {
    entries: BTreeMap<String, String>,
    /// Count of updates applied (for cheap progress checks).
    pub version: u64,
}

impl KvState {
    /// Creates an empty state.
    pub fn new() -> KvState {
        KvState::default()
    }

    /// Reads a key.
    pub fn get(&self, k: &str) -> Option<&String> {
        self.entries.get(k)
    }

    /// Writes a key.
    pub fn put(&mut self, k: &str, v: &str) {
        self.entries.insert(k.to_owned(), v.to_owned());
        self.version += 1;
    }

    /// Removes a key; returns whether it existed.
    pub fn remove(&mut self, k: &str) -> bool {
        let hit = self.entries.remove(k).is_some();
        if hit {
            self.version += 1;
        }
        hit
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &String)> {
        self.entries.iter()
    }
}

/// The canonical request language of the toolkit services: a tiny
/// deterministic command set over [`KvState`].
///
/// `GET k` / `PUT k v` / `DEL k` / `CAS k old new` / `ADD k delta`
/// (numeric read-modify-write). Unknown commands echo back, which keeps
/// pure message-counting experiments payload-agnostic.
pub fn apply_command(state: &mut KvState, body: &str) -> String {
    let mut it = body.split_whitespace();
    let cmd = it.next();
    let k = it.next().unwrap_or("");
    let mut arg = || it.next().unwrap_or("");
    match cmd {
        Some("GET") => state.get(k).cloned().unwrap_or_else(|| "<nil>".into()),
        Some("PUT") => {
            state.put(k, arg());
            "OK".into()
        }
        Some("DEL") => if state.remove(k) { "OK" } else { "<nil>" }.into(),
        Some("CAS") => {
            let (old, new) = (arg(), arg());
            let cur = state.get(k).cloned().unwrap_or_default();
            if cur == old {
                state.put(k, new);
                "OK".into()
            } else {
                format!("FAIL {cur}")
            }
        }
        Some("ADD") => {
            let delta: i64 = arg().parse().unwrap_or(0);
            let cur: i64 = state.get(k).and_then(|s| s.parse().ok()).unwrap_or(0);
            let new = (cur + delta).to_string();
            state.put(k, &new);
            new
        }
        _ => format!("ECHO {body}"),
    }
}

/// Whether a command mutates state (used by read-one/write-all variants).
pub fn is_read_only(body: &str) -> bool {
    matches!(body.split_whitespace().next(), Some("GET") | None)
}

/// Deterministic key-to-shard routing (FNV-1a), used to assign keys and
/// locks to leaves.
pub fn shard_of(key: &str, shards: usize) -> usize {
    assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Extracts the key a command addresses (for routing).
pub fn key_of(body: &str) -> Option<&str> {
    let mut it = body.split_whitespace();
    let cmd = it.next()?;
    match cmd {
        "GET" | "PUT" | "DEL" | "CAS" | "ADD" => it.next(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_basic_ops() {
        let mut s = KvState::new();
        assert_eq!(apply_command(&mut s, "GET a"), "<nil>");
        assert_eq!(apply_command(&mut s, "PUT a 1"), "OK");
        assert_eq!(apply_command(&mut s, "GET a"), "1");
        assert_eq!(apply_command(&mut s, "DEL a"), "OK");
        assert_eq!(apply_command(&mut s, "DEL a"), "<nil>");
        assert_eq!(s.version, 2);
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let mut s = KvState::new();
        apply_command(&mut s, "PUT k v1");
        assert_eq!(apply_command(&mut s, "CAS k v1 v2"), "OK");
        assert_eq!(apply_command(&mut s, "CAS k v1 v3"), "FAIL v2");
        assert_eq!(s.get("k").unwrap(), "v2");
    }

    #[test]
    fn add_is_numeric_rmw() {
        let mut s = KvState::new();
        assert_eq!(apply_command(&mut s, "ADD c 5"), "5");
        assert_eq!(apply_command(&mut s, "ADD c -2"), "3");
        assert_eq!(apply_command(&mut s, "ADD c x"), "3");
    }

    #[test]
    fn unknown_commands_echo() {
        let mut s = KvState::new();
        assert_eq!(apply_command(&mut s, "PING 123"), "ECHO PING 123");
        assert_eq!(s.version, 0);
    }

    #[test]
    fn read_only_detection() {
        assert!(is_read_only("GET x"));
        assert!(!is_read_only("PUT x 1"));
        assert!(!is_read_only("ADD x 1"));
    }

    #[test]
    fn shard_routing_is_deterministic_and_spread() {
        assert_eq!(shard_of("abc", 7), shard_of("abc", 7));
        let mut hit = [0usize; 8];
        for i in 0..800 {
            hit[shard_of(&format!("key{i}"), 8)] += 1;
        }
        for (i, &h) in hit.iter().enumerate() {
            assert!(h > 40, "shard {i} starved: {h}");
        }
    }

    #[test]
    fn key_extraction() {
        assert_eq!(key_of("PUT abc 1"), Some("abc"));
        assert_eq!(key_of("GET abc"), Some("abc"));
        assert_eq!(key_of("NOP"), None);
    }

    #[test]
    fn req_id_ordering() {
        let a = ReqId { client: Pid(1), seq: 1 };
        let b = ReqId { client: Pid(1), seq: 2 };
        assert!(a < b);
    }
}
