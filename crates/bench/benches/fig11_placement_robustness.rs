//! Figure 11: the placement manager predicts interference on candidate
//! destination machines with the synthetic benchmark and picks the best one
//! without performing any real migration.

use bench::fig11_placement_robustness;
use deepdive::synthetic::SyntheticBenchmark;
use hwsim::MachineSpec;

fn main() {
    let benchmark = &SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 200, 7);
    let r = fig11_placement_robustness(benchmark, 17);
    println!("# Figure 11 — interference at the chosen destination vs best/average/worst");
    println!("placement,real_interference_pct");
    println!("deepdive_choice,{:.1}", r.deepdive_choice * 100.0);
    println!("best,{:.1}", r.best * 100.0);
    println!("average,{:.1}", r.average * 100.0);
    println!("worst,{:.1}", r.worst * 100.0);
    println!("# chosen destination: {:?}", r.chosen_pm);
}
