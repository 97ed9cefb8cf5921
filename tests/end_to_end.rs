//! Cross-crate integration tests: the full DeepDive pipeline driven through
//! the public API, from counter collection to detection, attribution and
//! migration.

use cloudsim::{Cluster, ClusterSeed, EpochEngine, ExecutionMode, PmId, Scheduler, Vm, VmId};
use deepdive::controller::{DeepDive, DeepDiveConfig, EpochEvent};
use deepdive::cpi_stack::Resource;
use hwsim::MachineSpec;
use workloads::{AppId, ClientEmulator, DataAnalytics, DataServing, MemoryStress, NetworkStress};

fn serving_vm(id: u64) -> Vm {
    Vm::new(
        VmId(id),
        Box::new(DataServing::with_defaults(AppId(1))),
        ClientEmulator::new(8_000.0, 4.0),
    )
}

fn run_epochs(
    cluster: &mut Cluster,
    deepdive: &mut DeepDive,
    engine: &EpochEngine,
    epochs: usize,
    load: f64,
) -> Vec<EpochEvent> {
    let mut events = Vec::new();
    for _ in 0..epochs {
        let reports = engine.step(cluster, |_| load);
        events.extend(deepdive.process_epoch(cluster, &reports));
    }
    events
}

#[test]
fn quiet_cloud_never_migrates_and_profiling_flattens() {
    let mut cluster = Cluster::homogeneous(3, MachineSpec::xeon_x5472(), Scheduler::default());
    for i in 0..3 {
        cluster.place_first_fit(serving_vm(i)).unwrap();
    }
    let mut deepdive = DeepDive::for_cluster(DeepDiveConfig::default(), &cluster);
    let engine = EpochEngine::serial(ClusterSeed::new(1));
    run_epochs(&mut cluster, &mut deepdive, &engine, 60, 0.7);
    let mid = deepdive.stats();
    run_epochs(&mut cluster, &mut deepdive, &engine, 60, 0.7);
    let end = deepdive.stats();

    assert_eq!(end.migrations, 0, "no interference, no migration");
    assert_eq!(end.interference_confirmed, 0);
    // Once normal behaviour is learned, the analyzer goes (nearly) silent —
    // the Fig. 12 plateau.
    assert!(
        end.analyzer_invocations - mid.analyzer_invocations <= 2,
        "analyzer kept firing on a quiet cloud: {end:?}"
    );
}

#[test]
fn cache_aggressor_is_detected_attributed_and_migrated_away() {
    let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
    cluster.place_on(PmId(0), serving_vm(1)).unwrap();
    let mut deepdive = DeepDive::for_cluster(
        DeepDiveConfig {
            synthetic_training_samples: 100,
            ..DeepDiveConfig::default()
        },
        &cluster,
    );
    let engine = EpochEngine::serial(ClusterSeed::new(2));
    run_epochs(&mut cluster, &mut deepdive, &engine, 50, 0.8);

    cluster
        .place_on(
            PmId(0),
            Vm::new(
                VmId(99),
                Box::new(MemoryStress::new(AppId(900), 512.0)),
                ClientEmulator::new(1.0, 1.0),
            ),
        )
        .unwrap();
    let events = run_epochs(&mut cluster, &mut deepdive, &engine, 40, 0.8);

    // Detection with a memory-subsystem culprit.
    let confirmed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            EpochEvent::Analyzed { vm, result, .. }
                if *vm == VmId(1) && result.interference_confirmed =>
            {
                Some(result.clone())
            }
            _ => None,
        })
        .collect();
    assert!(
        !confirmed.is_empty(),
        "interference on the victim was never confirmed"
    );
    assert!(confirmed.iter().all(|r| matches!(
        r.culprit,
        Some(Resource::CacheMemory) | Some(Resource::MemoryBus)
    )));

    // Mitigation: the aggressor — not the victim — moves to the idle machine.
    assert_eq!(cluster.locate(VmId(99)), Some(PmId(1)));
    assert_eq!(cluster.locate(VmId(1)), Some(PmId(0)));
    assert!(deepdive.stats().migrations >= 1);

    // And once the aggressor is gone, the victim's performance recovers.
    let reports = engine.step(&mut cluster, |_| 0.8);
    let victim = reports.iter().find(|r| r.vm_id == VmId(1)).unwrap();
    assert!(
        victim.achieved_fraction > 0.9,
        "victim still degraded after mitigation"
    );
}

#[test]
fn network_interference_on_analytics_is_attributed_to_the_network() {
    let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
    cluster
        .place_on(
            PmId(0),
            Vm::new(
                VmId(1),
                Box::new(DataAnalytics::worker(AppId(3))),
                ClientEmulator::new(40.0, 400.0),
            ),
        )
        .unwrap();
    let mut deepdive = DeepDive::for_cluster(
        DeepDiveConfig {
            auto_migrate: false,
            analysis_cooldown: 5,
            ..DeepDiveConfig::default()
        },
        &cluster,
    );
    let engine = EpochEngine::serial(ClusterSeed::new(3));
    // Learn through several full map/shuffle/reduce cycles.
    run_epochs(&mut cluster, &mut deepdive, &engine, 60, 0.9);

    cluster
        .place_on(
            PmId(0),
            Vm::new(
                VmId(88),
                Box::new(NetworkStress::new(AppId(901), 700.0)),
                ClientEmulator::new(1.0, 1.0),
            ),
        )
        .unwrap();
    let events = run_epochs(&mut cluster, &mut deepdive, &engine, 36, 0.9);
    let culprits: Vec<Resource> = events
        .iter()
        .filter_map(|e| match e {
            EpochEvent::Analyzed { vm, result, .. }
                if *vm == VmId(1) && result.interference_confirmed =>
            {
                result.culprit
            }
            _ => None,
        })
        .collect();
    assert!(
        culprits.contains(&Resource::Network),
        "network was never blamed; culprits seen: {culprits:?}"
    );
}

#[test]
fn global_information_reduces_analyzer_invocations_for_shared_load_shifts() {
    // The same application on many VMs across machines; a simultaneous load
    // shift should not trigger per-VM analyses when global info is enabled.
    let build = |use_global: bool| {
        let mut cluster = Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..8 {
            cluster.place_first_fit(serving_vm(i)).unwrap();
        }
        let mut deepdive = DeepDive::for_cluster(
            DeepDiveConfig {
                use_global_information: use_global,
                auto_migrate: false,
                ..DeepDiveConfig::default()
            },
            &cluster,
        );
        let engine = EpochEngine::serial(ClusterSeed::new(4));
        run_epochs(&mut cluster, &mut deepdive, &engine, 40, 0.8);
        let before = deepdive.stats().analyzer_invocations;
        // Simultaneous, qualitative load shift on every instance.
        run_epochs(&mut cluster, &mut deepdive, &engine, 15, 0.25);
        deepdive.stats().analyzer_invocations - before
    };
    let with_global = build(true);
    let without_global = build(false);
    assert!(
        with_global <= without_global,
        "global information should never need more analyses ({with_global} vs {without_global})"
    );
}

#[test]
fn heterogeneous_fleet_detects_and_migrates_across_machine_models() {
    // A mixed rack (ROADMAP heterogeneous-fleet scenario): two Xeon X5472
    // machines extended with two Core i7/Nehalem nodes (the §4.4 port),
    // stepped on the pooled engine to exercise the parallel path end to end.
    //
    // The interference victim lives on an *i7* node: with the spec-aware
    // sandbox fleet there is no longer any reason to keep analyzed tenants
    // on hosts matching a hard-coded sandbox model (the pre-fleet versions
    // of this test did exactly that).  The analysis must replay in the i7
    // pool — no cross-model counter comparison — and detect the episode.
    let mut cluster = Cluster::heterogeneous(
        &[
            (MachineSpec::xeon_x5472(), 2),
            (MachineSpec::core_i7_nehalem(), 2),
        ],
        Scheduler::default(),
    );
    assert_eq!(
        *cluster.machine(PmId(3)).unwrap().spec(),
        MachineSpec::core_i7_nehalem(),
        "the i7 group must actually back the high-numbered machines"
    );
    // The analyzed tenant runs on i7 hardware; a second instance of the
    // same application runs on a Xeon node.
    cluster.place_on(PmId(2), serving_vm(1)).unwrap();
    cluster.place_on(PmId(0), serving_vm(2)).unwrap();

    // The fleet is derived from the cluster: one pool per machine model.
    let mut deepdive = DeepDive::for_cluster(DeepDiveConfig::default(), &cluster);
    assert_eq!(deepdive.sandbox_fleet().pools().len(), 2);
    let engine = EpochEngine::new(ClusterSeed::new(6), ExecutionMode::Pooled { threads: 2 });
    run_epochs(&mut cluster, &mut deepdive, &engine, 50, 0.8);

    // A cache/bus aggressor lands next to the i7-hosted victim.
    cluster
        .place_on(
            PmId(2),
            Vm::new(
                VmId(99),
                Box::new(MemoryStress::new(AppId(900), 512.0)),
                ClientEmulator::new(1.0, 1.0),
            ),
        )
        .unwrap();
    let events = run_epochs(&mut cluster, &mut deepdive, &engine, 40, 0.8);

    let stats = deepdive.stats();
    assert!(
        stats.interference_confirmed >= 1,
        "interference on the mixed fleet was never confirmed: {stats:?}"
    );
    assert_eq!(
        stats.sandbox_spec_fallbacks, 0,
        "an analysis compared counters across machine models: {stats:?}"
    );
    assert!(stats.migrations >= 1, "no mitigation happened: {stats:?}");
    // The aggressor left the victim's machine; the victims stayed put.
    assert_ne!(cluster.locate(VmId(99)), Some(PmId(2)));
    assert_eq!(cluster.locate(VmId(1)), Some(PmId(2)));
    assert_eq!(cluster.locate(VmId(2)), Some(PmId(0)));

    // Confirmed analyses of the afflicted i7 machine's tenants (victim or
    // aggressor — whichever the warning system escalated first) must also
    // attribute the episode to the memory subsystem: attribution runs on
    // the i7 pool's CPI stack, so a cross-model replay would skew it.
    // (The quantitative estimate-vs-ground-truth contract is pinned by
    // `tests/sandbox_fleet.rs`.)
    let confirmed_culprits: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            EpochEvent::Analyzed { vm, result, .. }
                if (*vm == VmId(1) || *vm == VmId(99)) && result.interference_confirmed =>
            {
                Some(result.culprit)
            }
            _ => None,
        })
        .collect();
    assert!(
        !confirmed_culprits.is_empty(),
        "no i7-hosted tenant was ever confirmed: {events:?}"
    );
    assert!(
        confirmed_culprits
            .iter()
            .all(|c| matches!(c, Some(Resource::CacheMemory) | Some(Resource::MemoryBus))),
        "memory aggressor blamed on the wrong resource: {confirmed_culprits:?}"
    );

    // Profiling time for the i7-hosted victim was booked against the i7
    // pool (the per-pool split the queueing experiments size farms from).
    let i7_name = MachineSpec::core_i7_nehalem().name;
    let i7_seconds: f64 = deepdive
        .profiling_seconds_by_pool()
        .filter(|(name, _)| *name == i7_name)
        .map(|(_, s)| s)
        .sum();
    assert!(i7_seconds > 0.0, "the i7 pool was never exercised");
}
