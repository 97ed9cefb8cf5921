//! Figure 1: measured performance of a service under a fixed workload whose
//! performance periodically collapses due to co-located VMs.
//!
//! Prints the hourly throughput/latency series (the paper's Fig. 1 shape).

use bench::fig1_ec2_motivation;

fn main() {
    let points = fig1_ec2_motivation(1);
    println!("# Figure 1 — Cassandra-like service on a shared machine (3 days)");
    println!("hour,throughput_req_per_s,avg_latency_ms,interference_active");
    for p in &points {
        println!(
            "{},{:.1},{:.2},{}",
            p.hour, p.throughput_rps, p.latency_ms, p.interference_active as u8
        );
    }
    let quiet: Vec<_> = points.iter().filter(|p| !p.interference_active).collect();
    let noisy: Vec<_> = points.iter().filter(|p| p.interference_active).collect();
    let mean = |v: &Vec<&bench::Fig1Point>, f: fn(&bench::Fig1Point) -> f64| {
        v.iter().map(|p| f(p)).sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "# summary: quiet latency {:.2} ms vs interference latency {:.2} ms",
        mean(&quiet, |p| p.latency_ms),
        mean(&noisy, |p| p.latency_ms)
    );
}
