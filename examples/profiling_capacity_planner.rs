//! Profiling-farm capacity planner.
//!
//! "How many dedicated profiling servers do I need?" is the operational
//! question behind Figs. 13 and 14.  This example sweeps farm sizes for a
//! given VM-arrival rate and interference fraction, under both Poisson and
//! bursty lognormal arrivals, with and without global information, and
//! prints the smallest farm that keeps the mean reaction time under a target.
//!
//! Run with: `cargo run --release --example profiling_capacity_planner`

use bench::scenarios::{reaction_time_curve, ScenarioConfig};
use traces::ArrivalModel;

const TARGET_REACTION_MINUTES: f64 = 5.0;
const INTERFERENCE_FRACTION: f64 = 0.2;

fn smallest_farm(model: ArrivalModel, popularity: Option<(usize, f64)>) -> Option<(usize, f64)> {
    for servers in 1..=32usize {
        let curve = reaction_time_curve(
            &ScenarioConfig {
                servers,
                arrival_model: model,
                popularity,
                ..Default::default()
            },
            &[INTERFERENCE_FRACTION],
        );
        if let Some(minutes) = curve[0].mean_reaction_minutes {
            if minutes <= TARGET_REACTION_MINUTES {
                return Some((servers, minutes));
            }
        }
    }
    None
}

fn main() {
    println!(
        "capacity planning for 1000 new VMs/day, {:.0}% undergoing interference, \
         target mean reaction time {TARGET_REACTION_MINUTES} min\n",
        INTERFERENCE_FRACTION * 100.0
    );
    type Scenario = (&'static str, ArrivalModel, Option<(usize, f64)>);
    let scenarios: [Scenario; 4] = [
        (
            "Poisson arrivals, local info only",
            ArrivalModel::Poisson,
            None,
        ),
        (
            "Poisson arrivals, with global info (Zipf α=1.5)",
            ArrivalModel::Poisson,
            Some((200, 1.5)),
        ),
        (
            "bursty lognormal arrivals, local info only",
            ArrivalModel::Lognormal { sigma: 2.0 },
            None,
        ),
        (
            "bursty lognormal arrivals, with global info (Zipf α=1.5)",
            ArrivalModel::Lognormal { sigma: 2.0 },
            Some((200, 1.5)),
        ),
    ];
    for (label, model, popularity) in scenarios {
        match smallest_farm(model, popularity) {
            Some((servers, minutes)) => println!(
                "{label:55} -> {servers} profiling server(s), mean reaction {minutes:.1} min"
            ),
            None => println!("{label:55} -> no farm size up to 32 servers meets the target"),
        }
    }
    println!(
        "\n(The paper reports that four servers suffice at a 20% interference rate, and that \
         global information roughly halves the requirement — compare the rows above.)"
    );
}
