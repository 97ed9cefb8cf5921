//! Execution-mode equivalence and stream-independence guarantees of the
//! epoch engine.
//!
//! Two properties the parallel engine is built on:
//!
//! 1. **Mode equivalence** — `Serial` (the reference) and `Pooled`
//!    (persistent worker pool) produce bit-identical `VmEpochReport`
//!    sequences over arbitrary placements, loads and epoch counts —
//!    including thread counts that exceed or do not divide the machine
//!    count (the thread count is a throughput knob, never a results knob).
//! 2. **Stream independence** — a mid-run migration does not change any
//!    VM's subsequent demand stream, because streams are derived per
//!    `(vm, epoch)` from the cluster seed rather than threaded through a
//!    shared generator.  This was impossible to state (let alone test)
//!    before the engine refactor: with one shared `StdRng`, any placement
//!    change perturbed every later draw.

use cloudsim::{
    Cluster, ClusterSeed, EpochEngine, ExecutionMode, PmId, Scheduler, Vm, VmEpochReport, VmId,
};
use hwsim::MachineSpec;
use proptest::prelude::*;
use workloads::{
    AppId, ClientEmulator, DataAnalytics, DataServing, MemoryStress, NetworkStress, WebSearch,
};

/// Deterministic VM zoo: the workload (and its app identity) is a pure
/// function of the VM id, so two clusters built from the same ids always
/// carry identical tenants.
fn vm(i: u64) -> Vm {
    match i % 5 {
        0 => Vm::new(
            VmId(i),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        ),
        1 => Vm::new(
            VmId(i),
            Box::new(WebSearch::with_defaults(AppId(2))),
            ClientEmulator::new(1_200.0, 25.0),
        ),
        2 => Vm::new(
            VmId(i),
            Box::new(DataAnalytics::worker(AppId(3))),
            ClientEmulator::new(40.0, 400.0),
        ),
        3 => Vm::new(
            VmId(i),
            Box::new(MemoryStress::new(AppId(900), 384.0)),
            ClientEmulator::new(1.0, 1.0),
        ),
        _ => Vm::new(
            VmId(i),
            Box::new(NetworkStress::new(AppId(901), 400.0)),
            ClientEmulator::new(1.0, 1.0),
        ),
    }
}

/// Builds a mixed Xeon + Core i7 cluster and scatters `vms` VMs over it with
/// a `stride`-parameterised placement (falling back to first-fit when the
/// targeted machine is full); placements therefore vary with every proptest
/// case while staying identical across the clusters of one case.
fn build_cluster(machines: usize, vms: usize, stride: usize) -> Cluster {
    let mut cluster = Cluster::heterogeneous(
        &[
            (MachineSpec::xeon_x5472(), machines.div_ceil(2)),
            (MachineSpec::core_i7_nehalem(), machines / 2),
        ],
        Scheduler::default(),
    );
    for i in 0..vms {
        let target = PmId(((i * stride) % machines) as u64);
        if cluster.place_on(target, vm(i as u64)).is_ok() {
            continue;
        }
        // Target machine full: fall back to first-fit; a full cluster just
        // stops placing (the case still exercises whatever fit).
        if cluster.place_first_fit(vm(i as u64)).is_err() {
            break;
        }
    }
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn serial_and_sharded_runs_are_bit_identical(
        machines in 1usize..7,
        vms in 1usize..20,
        stride in 1usize..5,
        epochs in 1usize..7,
        seed in 0u64..1_000,
        base_load in 0.05f64..0.95,
    ) {
        let modes = [
            ExecutionMode::Serial,
            ExecutionMode::Pooled { threads: 2 },
            ExecutionMode::Pooled { threads: 3 },
            ExecutionMode::Pooled { threads: 8 },
        ];
        // Per-VM loads, so shards cannot get away with evaluating the
        // closure for the wrong VM; in the low-`base_load` half of the cases
        // even-id VMs idle, so every mode also replays quiescent machines.
        let load = |v: VmId| {
            if v.0.is_multiple_of(2) && base_load < 0.5 {
                0.0
            } else {
                (base_load + 0.07 * (v.0 % 8) as f64).min(1.0)
            }
        };
        let mut runs: Vec<Vec<VmEpochReport>> = Vec::new();
        for mode in modes {
            let mut cluster = build_cluster(machines, vms, stride);
            let engine = EpochEngine::new(ClusterSeed::new(seed), mode);
            let mut stepped = Vec::new();
            for _ in 0..epochs {
                stepped.extend(engine.step(&mut cluster, load));
            }
            prop_assert_eq!(cluster.epoch(), epochs as u64);
            runs.push(stepped);
        }
        let serial = &runs[0];
        prop_assert!(!serial.is_empty());
        for (mode, run) in modes.iter().zip(&runs).skip(1) {
            prop_assert_eq!(serial, run, "{:?} diverged from Serial", mode);
        }
    }
}

/// One lifecycle event per epoch, interpreted deterministically against the
/// current resident set so every cluster in a case sees the same sequence.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    /// Admit a fresh VM (ids come from a shared counter) via first-fit.
    Arrive,
    /// Remove the `pick`-th resident VM (mod population).
    Depart { pick: usize },
    /// Migrate the `pick`-th resident VM to machine `to` (mod fleet);
    /// a full destination leaves the VM in place on every cluster alike.
    Migrate { pick: usize, to: usize },
    /// No membership change this epoch (lets quiescence actually build up).
    Settle,
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        2 => Just(ChurnOp::Arrive),
        1 => (0usize..64).prop_map(|pick| ChurnOp::Depart { pick }),
        1 => (0usize..64, 0usize..8).prop_map(|(pick, to)| ChurnOp::Migrate { pick, to }),
        3 => Just(ChurnOp::Settle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sparse engine's quiescent caching must be invisible under live
    /// churn: arrivals, departures and migrations invalidate exactly the
    /// machines they touch, and every execution mode replays or resolves
    /// its way to the same bytes the dense serial sweep produces — per-epoch
    /// reports and final cluster state alike.
    #[test]
    fn sparse_and_dense_agree_under_churn(
        machines in 2usize..6,
        initial_vms in 0usize..10,
        stride in 1usize..4,
        seed in 0u64..1_000,
        base_load in 0.05f64..0.95,
        ops in proptest::collection::vec(churn_op(), 1..24),
    ) {
        // (engine-sparseness, mode) configurations; index 0 is the dense
        // serial reference everything else must match bit for bit.
        let configs = [
            (false, ExecutionMode::Serial),
            (true, ExecutionMode::Serial),
            (true, ExecutionMode::Pooled { threads: 2 }),
            (true, ExecutionMode::Pooled { threads: 3 }),
        ];
        // Loads alternate between idle and busy in 3-epoch stretches per
        // VM, so quiescent stretches genuinely occur (and end) mid-run.
        let load = |epoch: u64, v: VmId| {
            if (epoch / 3 + v.0).is_multiple_of(2) {
                0.0
            } else {
                base_load
            }
        };
        // Per-config outcome: (reports per epoch, final placement, quiescent steps).
        type ChurnRun = (Vec<Vec<VmEpochReport>>, Vec<(VmId, PmId)>, u64);
        let mut runs: Vec<ChurnRun> = Vec::new();
        for (sparse, mode) in configs {
            let mut cluster = build_cluster(machines, initial_vms, stride);
            let mut engine = EpochEngine::new(ClusterSeed::new(seed), mode);
            engine.set_sparse(sparse);
            // The resident list drives op interpretation; it is a pure
            // function of the op sequence, so every config tracks the
            // same membership.
            let mut resident: Vec<VmId> =
                cluster.machines().iter().flat_map(|m| m.vms().iter().map(|v| v.id)).collect();
            resident.sort_unstable();
            let mut next_id = resident.last().map_or(0, |v| v.0 + 1);
            let mut per_epoch = Vec::new();
            for (offset, op) in ops.iter().enumerate() {
                match *op {
                    ChurnOp::Arrive => {
                        if cluster.place_first_fit(vm(next_id)).is_ok() {
                            resident.push(VmId(next_id));
                        }
                        next_id += 1;
                    }
                    ChurnOp::Depart { pick } if !resident.is_empty() => {
                        let id = resident.remove(pick % resident.len());
                        prop_assert!(cluster.remove_vm(id).is_some());
                    }
                    ChurnOp::Migrate { pick, to } if !resident.is_empty() => {
                        let id = resident[pick % resident.len()];
                        // May fail (full/self destination): equally on
                        // every cluster, so outcomes stay aligned.
                        let _ = cluster.migrate(id, PmId((to % machines) as u64));
                    }
                    _ => {}
                }
                let epoch = offset as u64;
                per_epoch.push(engine.step(&mut cluster, |v| load(epoch, v)));
            }
            let mut placement: Vec<(VmId, PmId)> = resident
                .iter()
                .map(|&id| (id, cluster.locate(id).expect("resident VM must be placed")))
                .collect();
            placement.sort_unstable();
            runs.push((per_epoch, placement, cluster.total_quiescent_steps()));
        }
        let (dense_reports, dense_placement, dense_quiescent) = &runs[0];
        prop_assert_eq!(*dense_quiescent, 0u64, "dense mode must never use the cache");
        for ((reports, placement, _), (sparse, mode)) in runs.iter().zip(configs).skip(1) {
            prop_assert_eq!(
                dense_reports, reports,
                "sparse={} {:?} diverged from the dense serial sweep", sparse, mode
            );
            prop_assert_eq!(dense_placement, placement);
        }
    }
}

#[test]
fn migration_does_not_perturb_any_vms_demand_stream() {
    // Two identical fleets under the same engine; one suffers a mid-run
    // migration.  Every VM's demand stream — including the migrated VM's —
    // must be identical in both runs, and machines untouched by the move
    // must produce fully identical reports.
    let engine = EpochEngine::serial(ClusterSeed::new(0xD1CE));
    let build = || build_cluster(4, 8, 1);
    let mut undisturbed = build();
    let mut migrated = build();
    let moved = VmId(0);
    let src = migrated.locate(moved).expect("vm 0 placed");
    let dst = PmId(3);
    assert_ne!(src, dst, "migration must actually move the VM");

    for epoch in 0..10u64 {
        if epoch == 5 {
            migrated.migrate(moved, dst).expect("destination has room");
        }
        let base = engine.step(&mut undisturbed, |_| 0.8);
        let moved_run = engine.step(&mut migrated, |_| 0.8);
        assert_eq!(base.len(), moved_run.len(), "epoch {epoch}: VM lost");

        let find = |reports: &[VmEpochReport], id: VmId| -> VmEpochReport {
            reports
                .iter()
                .find(|r| r.vm_id == id)
                .unwrap_or_else(|| panic!("epoch {epoch}: no report for {id}"))
                .clone()
        };
        for r in &base {
            let b = find(&moved_run, r.vm_id);
            // 1. Demand streams are placement-independent for every VM.
            assert_eq!(
                r.demand, b.demand,
                "epoch {epoch}: {} drew a different demand after the migration",
                r.vm_id
            );
            // 2. Machines not involved in the migration see bit-identical
            // reports (contention on src/dst legitimately changes).
            if r.pm_id != src && r.pm_id != dst && b.pm_id == r.pm_id {
                assert_eq!(
                    *r, b,
                    "epoch {epoch}: report changed on uninvolved machine {}",
                    r.pm_id
                );
            }
        }
    }
    assert_eq!(migrated.locate(moved), Some(dst));
}
