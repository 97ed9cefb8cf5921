//! Figure 6: breakdown of stalled cycles per instruction in production vs
//! isolation; the analyzer pinpoints the culprit resource in each scenario.

use bench::{fig6_cpi_breakdown, CloudWorkload, Fig6Scenario};

fn main() {
    println!("# Figure 6 — augmented CPI stack, isolation vs production");
    println!("workload,scenario,environment,core,l2_miss,fsb,net_disk,culprit");
    for workload in CloudWorkload::ALL {
        for scenario in Fig6Scenario::ALL {
            let cell = fig6_cpi_breakdown(workload, scenario, 7);
            for (env, stack) in [
                ("isolation", cell.isolation),
                ("production", cell.production),
            ] {
                println!(
                    "{},{},{},{:.3},{:.3},{:.3},{:.3},{}",
                    cell.workload,
                    cell.scenario,
                    env,
                    stack[0],
                    stack[1],
                    stack[2],
                    stack[3],
                    cell.culprit.map(|r| r.label()).unwrap_or("-")
                );
            }
        }
    }
}
