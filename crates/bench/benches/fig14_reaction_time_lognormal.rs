//! Figure 14: the same reaction-time analysis under burstier, lognormally
//! distributed VM arrivals.

use queueing::scenarios::{paper_fractions, reaction_time_curve, ScenarioConfig};
use traces::ArrivalModel;

fn main() {
    let fractions = paper_fractions();
    let lognormal = ArrivalModel::Lognormal { sigma: 2.0 };
    println!("# Figure 14(a) — local information only, lognormal arrivals, 1000 VMs/day");
    println!("servers,interference_fraction,mean_reaction_min");
    for servers in [2usize, 4, 8, 16] {
        let curve = reaction_time_curve(
            &ScenarioConfig {
                servers,
                arrival_model: lognormal,
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
    println!("# Figure 14(b) — with global information (Zipf alpha = 1.5 over 200 apps)");
    println!("servers,interference_fraction,mean_reaction_min");
    for servers in [2usize, 4, 8, 16] {
        let curve = reaction_time_curve(
            &ScenarioConfig {
                servers,
                arrival_model: lognormal,
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
    println!("# Figure 14(c) — four servers, sweeping the popularity tail index alpha");
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
                arrival_model: lognormal,
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
