//! Figure 13: mean reaction time of the profiling farm under Poisson VM
//! arrivals — (a) local information only, (b) with global information,
//! (c) sweeping the Zipf popularity tail index.

use queueing::scenarios::{paper_fractions, reaction_time_curve, ScenarioConfig};

fn main() {
    let fractions = paper_fractions();
    println!("# Figure 13(a) — local information only, Poisson arrivals, 1000 VMs/day");
    println!("servers,interference_fraction,mean_reaction_min");
    for servers in [2usize, 4, 8, 16] {
        let curve = reaction_time_curve(
            &ScenarioConfig {
                servers,
                popularity: None,
                ..Default::default()
            },
            &fractions,
        );
        for p in &curve {
            let value = p
                .mean_reaction_minutes
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "unstable".into());
            println!("{},{:.1},{}", servers, p.interference_fraction, value);
        }
    }
    println!("# Figure 13(b) — with global information (Zipf alpha = 1.5 over 200 apps)");
    println!("servers,interference_fraction,mean_reaction_min");
    for servers in [2usize, 4, 8, 16] {
        let curve = reaction_time_curve(
            &ScenarioConfig {
                servers,
                popularity: Some((200, 1.5)),
                ..Default::default()
            },
            &fractions,
        );
        for p in &curve {
            let value = p
                .mean_reaction_minutes
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "unstable".into());
            println!("{},{:.1},{}", servers, p.interference_fraction, value);
        }
    }
    println!("# Figure 13(c) — four servers, sweeping the popularity tail index alpha");
    println!("alpha,interference_fraction,mean_reaction_min");
    for (label, popularity) in [
        ("inf (no global info)", None),
        ("2.5", Some((200usize, 2.5))),
        ("2.0", Some((200, 2.0))),
        ("1.5", Some((200, 1.5))),
        ("1.0", Some((200, 1.0))),
    ] {
        let curve = reaction_time_curve(
            &ScenarioConfig {
                servers: 4,
                popularity,
                ..Default::default()
            },
            &fractions,
        );
        for p in &curve {
            let value = p
                .mean_reaction_minutes
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "unstable".into());
            println!("{},{:.1},{}", label, p.interference_fraction, value);
        }
    }
}
