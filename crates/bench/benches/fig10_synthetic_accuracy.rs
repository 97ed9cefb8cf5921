//! Figure 10: the synthetic benchmark clone suffers roughly the same
//! degradation as the real VM it mimics, across interference intensities.

use bench::{fig10_synthetic_accuracy, CloudWorkload};
use deepdive::synthetic::SyntheticBenchmark;
use hwsim::MachineSpec;

fn main() {
    let benchmark = &SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 200, 7);
    println!("# Figure 10 — real VM vs synthetic clone degradation");
    println!(
        "workload,stress_intensity,real_degradation_pct,synthetic_degradation_pct,abs_error_pct"
    );
    let mut errors = Vec::new();
    for workload in CloudWorkload::ALL {
        for p in fig10_synthetic_accuracy(workload, benchmark, 13) {
            let err = (p.real_degradation - p.synthetic_degradation).abs();
            errors.push(err);
            println!(
                "{},{:.1},{:.1},{:.1},{:.1}",
                workload.name(),
                p.intensity,
                p.real_degradation * 100.0,
                p.synthetic_degradation * 100.0,
                err * 100.0
            );
        }
    }
    errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = errors[errors.len() / 2];
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    println!(
        "# median error {:.1}% (paper: 8%), mean error {:.1}% (paper: 10%)",
        median * 100.0,
        mean * 100.0
    );
}
