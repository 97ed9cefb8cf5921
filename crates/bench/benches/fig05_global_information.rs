//! Figure 5: observing many VMs running the same Data Analytics workload
//! lets DeepDive tell which machines suffer network interference.

use bench::fig5_global_information;

fn main() {
    let points = fig5_global_information(3, 5);
    println!("# Figure 5 — Data Analytics on nine PMs, iperf on three of them");
    println!("pm,interfered,net_stall_s_per_gi,cpi");
    for p in &points {
        println!(
            "{},{},{:.3},{:.3}",
            p.pm, p.interfered as u8, p.net_stalls, p.cpi
        );
    }
}
