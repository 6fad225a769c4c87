//! `now-cluster` — boot an `isis-hier` hierarchy across several daemons on
//! localhost and replay experiments E1 and E9 over real sockets.
//!
//! ```text
//! now-cluster smoke                 # 8 members / 2 daemons, short replays
//! now-cluster full                  # 64 members / 4 daemons (the paper scale)
//! now-cluster --members 16 --daemons 3 --tcp --e1 5 --e9 20
//! ```
//!
//! Exit status is non-zero when boot/formation/replay fails or the merged
//! trace violates any virtual-synchrony monitor.

use now_net::cluster::{run, ClusterConfig};

fn usage() -> ! {
    eprintln!(
        "usage: now-cluster [smoke|full] [--members N] [--daemons K] [--tcp] \
         [--e1 ROUNDS] [--e9 QUOTES] [--rate QPS] [--seed S]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ClusterConfig::smoke();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |what: &str| -> usize {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => n,
                None => {
                    eprintln!("now-cluster: {what} needs a numeric value");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "smoke" => cfg = ClusterConfig::smoke(),
            "full" => cfg = ClusterConfig::full(),
            "--members" => cfg.members = num("--members"),
            "--daemons" => cfg.daemons = num("--daemons"),
            "--tcp" => cfg.tcp = true,
            "--e1" => cfg.e1_rounds = num("--e1"),
            "--e9" => cfg.e9_quotes = num("--e9"),
            "--rate" => cfg.e9_rate = num("--rate") as u32,
            "--seed" => cfg.seed = num("--seed") as u64,
            _ => usage(),
        }
    }

    println!(
        "now-cluster: {} members + {} leaders across {} daemons ({})",
        cfg.members,
        cfg.cfg.resiliency.max(1),
        cfg.daemons,
        if cfg.tcp { "loopback tcp" } else { "unix sockets" },
    );
    match run(&cfg) {
        Ok(r) => {
            println!("formation: {} ms", r.formation_ms);
            println!(
                "E1 cast latency (trace: submit to last delivery): {}/{} rounds, \
                 p50 {} us, p99 {} us, max {} us",
                r.e1.completed, r.e1.rounds, r.e1.p50_us, r.e1.p99_us, r.e1.max_us
            );
            println!(
                "E9 trading room: {}/{} deliveries (ratio {:.3}), drain {} ms",
                r.e9.delivered,
                r.e9.expected,
                r.e9.ratio(),
                r.e9.drain_ms
            );
            println!(
                "wire: {} messages; trace: {} events, {} monitor violations",
                r.messages_sent, r.events, r.violations
            );
            if r.violations > 0 {
                eprintln!("now-cluster: FAILED (monitor violations)");
                std::process::exit(1);
            }
            println!("now-cluster: OK");
        }
        Err(e) => {
            eprintln!("now-cluster: FAILED ({e})");
            std::process::exit(1);
        }
    }
}
