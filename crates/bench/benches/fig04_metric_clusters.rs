//! Figure 4: normalized metric values cluster separately with and without
//! interference for Data Serving, Web Search and Data Analytics.

use bench::{fig4_metric_clusters, CloudWorkload};

fn main() {
    println!("# Figure 4 — metric-space clusters (L1 / L2 / memory-stall, per kilo-instruction)");
    for workload in CloudWorkload::ALL {
        let clusters = fig4_metric_clusters(workload, 3);
        println!(
            "## {} (separation score {:.2})",
            workload.name(),
            clusters.separation_score
        );
        println!("setting,l1_pki,llc_pki,stall_pki,interference");
        for p in &clusters.points {
            println!(
                "{},{:.3},{:.3},{:.3},{}",
                p.setting, p.coords[0], p.coords[1], p.coords[2], p.interference as u8
            );
        }
    }
}
