//! Figure 12: DeepDive's accumulated profiling time stays low and flattens
//! after the first day, unlike baselines that re-profile on every
//! performance variation.

use bench::fig12_profiling_overhead;

fn main() {
    let r = fig12_profiling_overhead(21);
    println!("# Figure 12 — accumulated profiling time over 72 hours (minutes)");
    println!("hour,deepdive,baseline_20pct,baseline_10pct,baseline_5pct");
    for (i, hour) in r.hours.iter().enumerate() {
        println!(
            "{},{:.1},{:.1},{:.1},{:.1}",
            hour, r.deepdive[i], r.baseline_20[i], r.baseline_10[i], r.baseline_5[i]
        );
    }
    println!(
        "# totals after 72 h: DeepDive {:.1} min, Baseline-20% {:.1}, Baseline-10% {:.1}, Baseline-5% {:.1}",
        r.deepdive[71], r.baseline_20[71], r.baseline_10[71], r.baseline_5[71]
    );
}
