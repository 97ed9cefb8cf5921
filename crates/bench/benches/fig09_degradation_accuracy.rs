//! Figure 9: the analyzer's counter-based degradation estimate tracks the
//! client-reported degradation across interference intensities.

use bench::{fig9_degradation_accuracy, CloudWorkload};

fn main() {
    println!("# Figure 9 — client-reported vs analyzer-estimated degradation");
    println!("workload,stress_intensity,client_reported_pct,estimated_pct,abs_error_pct");
    let mut errors = Vec::new();
    for workload in CloudWorkload::ALL {
        for p in fig9_degradation_accuracy(workload, 11) {
            let err = (p.estimated - p.client_reported).abs();
            errors.push(err);
            println!(
                "{},{:.1},{:.1},{:.1},{:.1}",
                workload.name(),
                p.intensity,
                p.client_reported * 100.0,
                p.estimated * 100.0,
                err * 100.0
            );
        }
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    let worst = errors.iter().cloned().fold(0.0, f64::max);
    println!(
        "# mean absolute error {:.1}% (paper: <5%), worst {:.1}% (paper: <10%)",
        mean * 100.0,
        worst * 100.0
    );
}
