//! Quickstart: virtually synchronous process groups in a simulated
//! network of workstations.
//!
//! Forms a five-member ISIS group, broadcasts with total order, crashes a
//! member mid-traffic, and shows that every survivor delivered exactly the
//! same message sequence — the virtual synchrony property everything else
//! in this repository builds on.
//!
//! Run with: `cargo run --example quickstart`

use isis_repro::core::testutil::cluster;
use isis_repro::core::{CastKind, IsisConfig};
use isis_repro::sim::SimDuration;

fn main() {
    // Five workstations, one process group, deterministic seed.
    let mut c = cluster(5, IsisConfig::default(), 42);
    let gid = c.gid;
    println!("group {gid} formed: {:?}", c.pids);

    // Everyone broadcasts concurrently with total order (ABCAST).
    for (i, &p) in c.pids.clone().iter().enumerate() {
        c.sim.invoke(p, move |proc_, ctx| {
            proc_
                .cast(gid, CastKind::Total, format!("hello-from-{i}"), ctx)
                .expect("the caster is a member");
        });
    }
    c.sim.run_for(SimDuration::from_secs(2));

    // Crash one member, keep broadcasting.
    let victim = c.pids[3];
    println!("crashing {victim} ...");
    c.sim.crash(victim);
    c.cast_and_settle(c.pids[0], CastKind::Total, "after-the-crash");
    c.await_membership(4, SimDuration::from_secs(60));
    c.sim.run_for(SimDuration::from_secs(5));

    // Every survivor has the identical delivery log.
    for (pid, log) in c.live_logs() {
        println!("{pid} delivered ({} msgs): {log:?}", log.len());
    }
    c.assert_identical_logs();
    println!("virtual synchrony holds: all survivors agree, in order.");

    let st = c.sim.stats();
    println!(
        "simulated {:.1}s, {} messages ({} delivered), {} view changes",
        c.sim.now().as_secs_f64(),
        st.messages_sent,
        st.messages_delivered,
        st.counter("isis.views_installed"),
    );
}
