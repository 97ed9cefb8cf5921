//! Placement advisor: use the synthetic benchmark to pick a destination for
//! an aggressive VM without migrating anything.
//!
//! The paper's placement manager (§4.3) never migrates speculatively: it
//! first mimics the candidate VM with a regression-trained synthetic
//! benchmark, runs the mimic on every candidate machine next to that
//! machine's existing tenants, and only then migrates to the machine where
//! interference did not reappear.  This example walks through exactly that
//! decision for a memory-hungry VM and three candidate machines.
//!
//! Run with: `cargo run --release --example placement_advisor`

use deepdive::metrics::BehaviorVector;
use deepdive::placement::{CandidateMachine, PlacementManager};
use deepdive::synthetic::SyntheticBenchmark;
use hwsim::contention::PlacedDemand;
use hwsim::{EpochResolver, MachineSpec};
use rand::SeedableRng;
use workloads::{AppId, DataAnalytics, DataServing, MemoryStress, WebSearch, Workload};

fn main() {
    let spec = MachineSpec::xeon_x5472();
    println!("training the synthetic benchmark for {} ...", spec.name);
    let benchmark = SyntheticBenchmark::train(spec.clone(), 250, 7);
    println!("done (training MSE {:.3e})\n", benchmark.training_error());

    // The VM we need to place: a memory-stress-like tenant.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut aggressor = MemoryStress::new(AppId(900), 256.0);
    let aggressor_demand = aggressor.next_demand(1.0, &mut rng);
    let solo = EpochResolver::new(spec.clone()).resolve(&[PlacedDemand::new(
        0,
        aggressor_demand.clone(),
        2,
        0,
    )]);
    let behavior = BehaviorVector::from_counters(&solo[0].counters);
    let inputs = benchmark.mimic(&behavior, aggressor_demand.instructions);
    println!("synthetic clone inputs mimicking the VM: {inputs:#?}\n");

    // Three candidate machines, each already hosting one cloud workload.
    let mut residents: Vec<(&str, Box<dyn Workload>)> = vec![
        (
            "candidate A (Data Serving)",
            Box::new(DataServing::with_defaults(AppId(1))),
        ),
        (
            "candidate B (Web Search)",
            Box::new(WebSearch::with_defaults(AppId(2))),
        ),
        (
            "candidate C (Data Analytics)",
            Box::new(DataAnalytics::worker(AppId(3))),
        ),
    ];
    let manager = PlacementManager::new(1.0);
    let clone_demand = inputs.demand();
    println!("predicted interference if the VM moved to each candidate:");
    let mut best: Option<(&str, f64)> = None;
    for (i, (name, workload)) in residents.iter_mut().enumerate() {
        let resident_demand = workload.next_demand(0.9, &mut rng);
        // Every candidate carries its own machine model; on a mixed fleet
        // the manager would predict against each destination's actual spec.
        let candidate = CandidateMachine {
            pm_id: cloudsim::PmId(10 + i as u64),
            spec: &spec,
            resident_demands: &[resident_demand],
            resident_vcpus: &[2],
        };
        let predicted = manager.predict_on_candidate(&clone_demand, 2, &candidate);
        println!(
            "  {name:32} -> {:.1}% worst-case slowdown",
            predicted * 100.0
        );
        if best.map(|(_, b)| predicted < b).unwrap_or(true) {
            best = Some((name, predicted));
        }
    }
    let (winner, predicted) = best.expect("three candidates evaluated");
    println!(
        "\nrecommendation: migrate to {winner} (predicted interference {:.1}%), \
         without ever test-migrating the real VM",
        predicted * 100.0
    );
}
