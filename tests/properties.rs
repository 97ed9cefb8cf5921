//! Property-based tests on cross-crate invariants.
//!
//! These check the load-bearing assumptions DeepDive relies on, over randomly
//! generated demands and placements rather than hand-picked cases:
//!
//! * the hardware substrate always produces well-formed counters and bounded
//!   achieved fractions,
//! * normalized behaviours are invariant to pure load scaling (the paper's
//!   §4.1 normalization claim),
//! * adding a co-runner never *increases* a VM's achieved fraction, and
//! * the queueing model reacts monotonically to capacity.

use deepdive::metrics::BehaviorVector;
use hwsim::contention::PlacedDemand;
use hwsim::{EpochResolver, MachineSpec, ResourceDemand};
use proptest::prelude::*;
use queueing::events::{simulate_queue, Job};

/// Strategy generating a plausible, well-formed resource demand.
fn demand_strategy() -> impl Strategy<Value = ResourceDemand> {
    (
        1.0e8..4.0e9_f64, // instructions
        0.5..1.5_f64,     // base cpi
        1.0..512.0_f64,   // working set MiB
        1.0..60.0_f64,    // l1 mpki
        0.0..1.0_f64,     // locality
        0.0..40.0_f64,    // disk MiB
        0.0..80.0_f64,    // net MiB
    )
        .prop_map(|(instr, cpi, ws, l1, locality, disk, net)| {
            ResourceDemand::builder()
                .instructions(instr)
                .base_cpi(cpi)
                .working_set_mb(ws)
                .l1_mpki(l1)
                .llc_mpki_solo((l1 * 0.2).min(l1))
                .locality(locality)
                .parallelism(2.0)
                .disk_read_mb(disk)
                .net_tx_mb(net)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counters_are_well_formed_for_any_demand(demand in demand_strategy()) {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let out = resolver.resolve(&[PlacedDemand::new(1, demand, 2, 0)]);
        prop_assert!(out[0].counters.is_well_formed());
        prop_assert!(out[0].achieved_fraction > 0.0);
        prop_assert!(out[0].achieved_fraction <= 1.0);
        prop_assert!(BehaviorVector::from_counters(&out[0].counters).is_well_formed());
    }

    #[test]
    fn normalized_behaviour_is_load_invariant(demand in demand_strategy(), scale in 0.2..1.0_f64) {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        // Only compare when neither run saturates the machine: saturation
        // legitimately changes per-instruction stalls.
        let full = resolver.resolve(&[PlacedDemand::new(1, demand.clone(), 2, 0)]);
        let scaled = resolver.resolve(&[PlacedDemand::new(1, demand.scaled_by_load(scale), 2, 0)]);
        prop_assume!(full[0].achieved_fraction > 0.999 && scaled[0].achieved_fraction > 0.999);
        let a = BehaviorVector::from_counters(&full[0].counters);
        let b = BehaviorVector::from_counters(&scaled[0].counters);
        // The metrics are not mathematically identical across loads — a busier
        // VM queues slightly longer on the (uncontended) memory bus — but the
        // deviation stays within the warning system's 10%-of-mean tolerance,
        // which is the property DeepDive actually needs.
        prop_assert!(
            a.max_relative_deviation(&b) < 0.15,
            "normalized behaviour moved by {} under pure load scaling",
            a.max_relative_deviation(&b)
        );
    }

    #[test]
    fn co_runners_never_speed_a_vm_up(victim in demand_strategy(), aggressor in demand_strategy()) {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let solo = resolver.resolve(&[PlacedDemand::new(1, victim.clone(), 2, 0)]);
        let shared = resolver.resolve(&[
                PlacedDemand::new(1, victim, 2, 0),
                PlacedDemand::new(2, aggressor, 2, 0),
            ],
        );
        prop_assert!(shared[0].achieved_fraction <= solo[0].achieved_fraction + 1e-9);
        prop_assert!(shared[0].counters.inst_retired <= solo[0].counters.inst_retired + 1e-3);
    }

    #[test]
    fn more_servers_never_increase_mean_reaction(
        njobs in 1usize..120,
        gap in 10.0..600.0_f64,
        service in 60.0..600.0_f64,
    ) {
        let jobs: Vec<Job> = (0..njobs)
            .map(|i| Job { arrival_s: i as f64 * gap, service_s: service })
            .collect();
        let few = simulate_queue(&jobs, 2);
        let many = simulate_queue(&jobs, 8);
        prop_assert!(many.mean_reaction_s() <= few.mean_reaction_s() + 1e-9);
        // Work conservation: the same total busy time either way.
        prop_assert!((many.total_busy_s() - few.total_busy_s()).abs() < 1e-6);
    }
}

#[test]
fn behaviour_of_a_vm_is_reproducible_across_identical_runs() {
    // Determinism end to end: identical seeds produce identical counters.
    let run = |demand: ResourceDemand| {
        EpochResolver::new(MachineSpec::xeon_x5472()).resolve(&[PlacedDemand::new(1, demand, 2, 0)])
    };
    let demand = ResourceDemand::builder()
        .instructions(2.0e9)
        .working_set_mb(64.0)
        .l1_mpki(30.0)
        .llc_mpki_solo(4.0)
        .parallelism(2.0)
        .build();
    let a = run(demand.clone());
    let b = run(demand);
    assert_eq!(a[0].counters, b[0].counters);
}
