//! Figure 8: detection rate and false-positive rate while replaying the
//! HotMail traces with injected interference episodes, per day and workload.

use bench::{fig8_detection, CloudWorkload};

fn main() {
    println!("# Figure 8 — detection and false-positive rates over three trace days");
    println!(
        "workload,day,detection_rate_pct,false_positive_rate_pct,episodes,analyzer_invocations"
    );
    for workload in CloudWorkload::ALL {
        let result = fig8_detection(workload, 21);
        for d in &result.days {
            println!(
                "{},{},{:.0},{:.0},{},{}",
                workload.name(),
                d.day + 1,
                d.detection_rate * 100.0,
                d.false_positive_rate * 100.0,
                d.episodes,
                d.invocations
            );
        }
        println!(
            "# {}: missed episodes = {}",
            workload.name(),
            result.missed_episodes
        );
    }
}
