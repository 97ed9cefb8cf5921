//! Spec-aware sandbox fleets: equivalence and heterogeneity-bias suites.
//!
//! Two contracts, mirroring how the resolver and warning refactors were
//! pinned:
//!
//! * **Uniform equivalence** — on a homogeneous cluster, a controller whose
//!   fleet is derived from the cluster ([`DeepDive::for_cluster`]) must make
//!   decisions bit-identical to one handed a single hard-coded pool
//!   (`SandboxFleet::new(vec![Sandbox::xeon_pool(4)])`, the paper's
//!   single-pool setup).  The fleet may only ever *add* routing, never
//!   change results where routing is trivial.
//! * **Heterogeneity bias** — on a mixed Xeon + i7 cluster, an i7-hosted
//!   memory-heavy victim under a cache/bus aggressor must be detected by the
//!   spec-matched fleet with a near-truth degradation estimate, while the
//!   hard-coded single pool replays it on the Xeon — whose FSB throttles
//!   the *isolation* run as badly as the contended production run — and
//!   under-detects to the point of missing the episode entirely.  This is
//!   the documented limitation the fleet exists to remove.

use cloudsim::{
    Cluster, ClusterSeed, EpochEngine, PmId, Sandbox, SandboxFleet, Scheduler, Vm, VmId,
};
use deepdive::analyzer::InterferenceAnalyzer;
use deepdive::controller::{DeepDive, DeepDiveConfig, DeepDiveStats, EpochEvent};
use hwsim::MachineSpec;
use proptest::prelude::*;
use workloads::{AppId, ClientEmulator, DataServing, MemoryStress};

fn serving_vm(id: u64, app: u64) -> Vm {
    Vm::new(
        VmId(id),
        Box::new(DataServing::with_defaults(AppId(app))),
        ClientEmulator::new(8_000.0, 4.0),
    )
}

/// The hard-coded single-pool fleet: four Xeons whatever the cluster holds.
fn single_xeon_pool() -> SandboxFleet {
    SandboxFleet::new(vec![Sandbox::xeon_pool(4)])
}

fn memory_tenant(id: u64, app: u64, working_set_mb: f64) -> Vm {
    Vm::new(
        VmId(id),
        Box::new(MemoryStress::new(AppId(app), working_set_mb)),
        ClientEmulator::new(1.0, 1.0),
    )
}

/// The mixed rack of the bias regression: one Xeon, two i7 nodes, with a
/// memory-heavy tenant on i7 node pm-1 (pm-2 stays free as a migration
/// destination).
fn mixed_cluster_with_i7_victim() -> Cluster {
    let mut cluster = Cluster::heterogeneous(
        &[
            (MachineSpec::xeon_x5472(), 1),
            (MachineSpec::core_i7_nehalem(), 2),
        ],
        Scheduler::default(),
    );
    cluster
        .place_on(PmId(1), memory_tenant(1, 7, 256.0))
        .unwrap();
    cluster
}

/// Learns for 50 epochs, injects a memory aggressor next to the victim on
/// pm-1, runs 40 more epochs, and returns the stats plus the aggressor's
/// final location and the per-pool profiling split.
fn run_bias_scenario(mut deepdive: DeepDive) -> (DeepDiveStats, Option<PmId>, Vec<(String, f64)>) {
    let mut cluster = mixed_cluster_with_i7_victim();
    let engine = EpochEngine::serial(ClusterSeed::new(21));
    for _ in 0..50 {
        let reports = engine.step(&mut cluster, |_| 0.9);
        deepdive.process_epoch(&mut cluster, &reports);
    }
    cluster
        .place_on(PmId(1), memory_tenant(99, 900, 512.0))
        .unwrap();
    for _ in 0..40 {
        let reports = engine.step(&mut cluster, |_| 0.9);
        deepdive.process_epoch(&mut cluster, &reports);
    }
    let pools = deepdive
        .profiling_seconds_by_pool()
        .map(|(name, s)| (name.to_string(), s))
        .collect();
    (deepdive.stats(), cluster.locate(VmId(99)), pools)
}

#[test]
fn cross_model_replay_under_detects_an_i7_hosted_victim() {
    // Production: memory-heavy victim on an i7 node next to a bus-hammering
    // aggressor.  Ground truth comes from the simulator's achieved fraction.
    let mut cluster = Cluster::homogeneous(1, MachineSpec::core_i7_nehalem(), Scheduler::default());
    cluster
        .place_on(PmId(0), memory_tenant(1, 7, 256.0))
        .unwrap();
    cluster
        .place_on(PmId(0), memory_tenant(99, 900, 512.0))
        .unwrap();
    let engine = EpochEngine::serial(ClusterSeed::new(11));
    let window = 6;
    let mut counters = Vec::new();
    let mut demands = Vec::new();
    let mut truth = 0.0;
    for _ in 0..window {
        let reports = engine.step(&mut cluster, |_| 0.9);
        let victim = reports.iter().find(|r| r.vm_id == VmId(1)).unwrap();
        counters.push(victim.counters);
        demands.push(victim.demand.clone());
        truth += 1.0 - victim.achieved_fraction;
    }
    truth /= window as f64;
    assert!(truth > 0.8, "aggressor not actually degrading: {truth}");

    let analyzer = InterferenceAnalyzer::new(0.15);
    let i7_pool = Sandbox::new(MachineSpec::core_i7_nehalem(), 2, 30.0);
    let xeon_pool = Sandbox::xeon_pool(2);

    // Spec-matched replay: near-truth estimate, interference confirmed.
    let matched = analyzer.analyze(VmId(1), &counters, &demands, &i7_pool, 2);
    assert!(
        matched.interference_confirmed,
        "matched replay missed real interference: {}",
        matched.degradation
    );
    assert!(
        (matched.degradation - truth).abs() < 0.15,
        "matched estimate {} vs ground truth {truth}",
        matched.degradation
    );

    // Cross-model replay (the old single-pool path): the Xeon's FSB
    // throttles the isolation run as badly as the contended production run,
    // so the comparison collapses and the episode is missed outright.
    let crossed = analyzer.analyze(VmId(1), &counters, &demands, &xeon_pool, 2);
    assert!(
        !crossed.interference_confirmed,
        "expected the biased path to under-detect; got {}",
        crossed.degradation
    );
    assert!(
        matched.degradation > crossed.degradation + 0.5,
        "bias did not materialize: matched {} vs crossed {}",
        matched.degradation,
        crossed.degradation
    );
}

#[test]
fn spec_matched_fleet_detects_what_the_xeon_only_sandbox_misses() {
    let config = DeepDiveConfig::default();

    // The fix: one pool per machine model, routed by the victim's host.
    let (matched, aggressor_at, pools) = run_bias_scenario(DeepDive::for_cluster(
        config.clone(),
        &mixed_cluster_with_i7_victim(),
    ));
    assert!(
        matched.interference_confirmed >= 1,
        "spec-matched fleet never confirmed: {matched:?}"
    );
    assert_eq!(matched.sandbox_spec_fallbacks, 0);
    assert!(matched.migrations >= 1, "no mitigation: {matched:?}");
    assert_ne!(aggressor_at, Some(PmId(1)), "aggressor still co-located");
    // Every profiling second was booked against the i7 pool: the victim's
    // analyses replayed on its own machine model.
    let i7_name = MachineSpec::core_i7_nehalem().name;
    for (name, seconds) in &pools {
        if *name == i7_name {
            assert!(*seconds > 0.0, "i7 pool never used: {pools:?}");
        } else {
            assert_eq!(*seconds, 0.0, "foreign pool used: {pools:?}");
        }
    }

    // A hard-coded single pool on the same cluster: every analysis falls
    // back to the Xeon pool, the degradation estimate collapses to ~0, the
    // episodes are all scored as false alarms and nothing is mitigated.
    let (biased, aggressor_at, _) = run_bias_scenario(DeepDive::new(config, single_xeon_pool()));
    assert_eq!(
        biased.interference_confirmed, 0,
        "the biased path unexpectedly detected: {biased:?}"
    );
    assert_eq!(biased.migrations, 0);
    assert_eq!(aggressor_at, Some(PmId(1)), "nothing should have moved");
    assert!(
        biased.sandbox_spec_fallbacks >= 1,
        "cross-model analyses were not counted: {biased:?}"
    );
    assert_eq!(
        biased.sandbox_spec_fallbacks, biased.analyzer_invocations,
        "every analysis of the i7-hosted victim is a cross-model fallback"
    );
    assert!(
        biased.false_alarms > matched.false_alarms,
        "under-detection should surface as false alarms: {biased:?} vs {matched:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On uniform clusters the fleet is pure plumbing: a controller with a
    /// cluster-derived fleet and one with the old hard-coded single pool
    /// must produce bit-identical event streams and stats.
    #[test]
    fn uniform_fleet_is_equivalent_to_the_single_sandbox_path(
        seed in 0u64..1024,
        vms in 1usize..7,
        learn_epochs in 20usize..40,
        post_epochs in 15usize..30,
    ) {
        let build_cluster = || {
            let mut cluster =
                Cluster::homogeneous(3, MachineSpec::xeon_x5472(), Scheduler::default());
            for i in 0..vms {
                cluster
                    .place_first_fit(serving_vm(i as u64, 1 + (i % 2) as u64))
                    .unwrap();
            }
            cluster
        };
        let config = DeepDiveConfig {
            synthetic_training_samples: 60,
            ..DeepDiveConfig::default()
        };
        let run_one = |mut deepdive: DeepDive| {
            let mut cluster = build_cluster();
            let engine = EpochEngine::serial(ClusterSeed::new(seed));
            let mut events: Vec<EpochEvent> = Vec::new();
            for _ in 0..learn_epochs {
                let reports = engine.step(&mut cluster, |_| 0.8);
                events.extend(deepdive.process_epoch(&mut cluster, &reports));
            }
            // The aggressor lands wherever first-fit puts it — identically
            // in both runs, since the clusters are clones of each other.
            let _ = cluster.place_first_fit(memory_tenant(99, 900, 512.0));
            for _ in 0..post_epochs {
                let reports = engine.step(&mut cluster, |_| 0.8);
                events.extend(deepdive.process_epoch(&mut cluster, &reports));
            }
            (events, deepdive.stats())
        };

        let (single_events, single_stats) =
            run_one(DeepDive::new(config.clone(), single_xeon_pool()));
        let (fleet_events, fleet_stats) =
            run_one(DeepDive::for_cluster(config.clone(), &build_cluster()));
        prop_assert_eq!(single_events, fleet_events);
        prop_assert_eq!(single_stats, fleet_stats);
        prop_assert_eq!(single_stats.sandbox_spec_fallbacks, 0);
    }
}
