//! Determinism regression tests (the lints' dynamic counterpart): every
//! experiment table in EXPERIMENTS.md is an *exact* count, so two runs with
//! the same seed must be byte-identical, and the seed must actually matter
//! on a jittery network. A failure here means hidden nondeterminism crept
//! into the stack (hash-order iteration, wall-clock reads, unseeded RNG) —
//! exactly what rules R1/R2 (`clippy.toml`) exist to keep out statically.

use isis_bench::experiments as ex;
use isis_bench::harness::FLAT_GID;
use isis_core::testutil::generic_cluster;
use isis_core::{IsisConfig, IsisProcess};
use isis_toolkit::flat::FlatService;
use now_sim::{SimConfig, SimDuration};

#[test]
fn e2_is_byte_identical_across_runs() {
    assert_eq!(ex::e2(true).render(), ex::e2(true).render());
}

#[test]
fn e8_is_byte_identical_across_runs() {
    assert_eq!(ex::e8(true).render(), ex::e8(true).render());
}

/// One client request against a flat service on a jittery LAN, digested into
/// a string covering message counts, every counter, and the exact microsecond
/// the run went quiet.
fn lan_digest(seed: u64) -> String {
    let (mut sim, members) = generic_cluster(
        6,
        FLAT_GID,
        IsisConfig::quiet(),
        SimConfig::lan(seed),
        |_| FlatService::new(FLAT_GID),
    );
    let nd = sim.add_nodes(1)[0];
    let client = sim.spawn(
        nd,
        IsisProcess::new(FlatService::new(FLAT_GID), IsisConfig::quiet()),
    );
    sim.run_for(SimDuration::from_secs(2));
    sim.invoke(client, move |p, ctx| {
        p.with_app(ctx, |app, up| app.send_request(&members, "PUT k v", up))
    });
    // Step until the client holds the reply: the arrival instant depends on
    // every jittered hop along the way, so it is a sharp determinism probe.
    let deadline = sim.now() + SimDuration::from_secs(30);
    while sim.process(client).app().replies.is_empty() && sim.now() < deadline {
        assert!(sim.step(), "run went quiet before the reply arrived");
    }
    let replied_at = sim.now().as_micros();
    assert!(
        !sim.process(client).app().replies.is_empty(),
        "client never got its reply"
    );
    sim.run_for(SimDuration::from_secs(2));
    let st = sim.stats();
    let mut d = format!(
        "sent={} delivered={} dropped={} bytes={} replied_at={}",
        st.messages_sent, st.messages_delivered, st.messages_dropped, st.bytes_sent, replied_at,
    );
    for (name, v) in st.counters() {
        d.push_str(&format!(" {name}={v}"));
    }
    d
}

#[test]
fn same_seed_same_digest_different_seed_different_digest() {
    let a1 = lan_digest(4242);
    let a2 = lan_digest(4242);
    assert_eq!(a1, a2, "same seed must replay byte-identically");

    let b = lan_digest(4243);
    assert_ne!(a1, b, "seed must influence the run on a jittery network");
}
