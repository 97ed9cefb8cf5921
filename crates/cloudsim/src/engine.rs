//! The epoch engine: serial stepping of a cluster.
//!
//! [`EpochEngine`] owns the policy of stepping a [`Cluster`]: the RNG policy
//! (a [`ClusterSeed`] deriving an independent stream per `(vm, epoch)`, see
//! [`crate::rngs`]) and whether quiescent machines replay their cached
//! reports.  It walks the cluster's *occupied* machines on the calling
//! thread, in ascending index order: the cluster keeps one bit per machine,
//! set while the machine hosts a VM, so an empty machine costs a zero bit
//! and never its 128-byte struct.  The buffers and per-model resolvers a
//! step works in belong to the cluster (see [`crate::pm`]), not to the
//! engine, which is borrowed shared.  Because every VM's demand stream is a
//! pure function of its id, the epoch and the cluster seed, the reports do
//! not depend on how many machines exist or where a VM sits
//! (`tests/engine_equivalence.rs`).
//!
//! There is one entry point: [`EpochEngine::step`] advances one epoch and
//! returns its reports.  DeepDive reads every VM's counters every epoch and
//! moves VMs between epochs, so nothing advances time without reports.
//!
//! ## Service mode & sparse stepping
//!
//! By default the engine steps **sparsely**: each machine keeps a quiescent
//! report cache (see [`crate::pm`]), and an epoch in which every VM on a
//! machine is provably static at its offered load replays the cached
//! reports instead of re-running demand generation and contention
//! resolution.  The workload contract behind "provably static"
//! ([`workloads::Workload::demand_is_static_at`]) makes the replay
//! bit-identical to a dense resolve — the equivalence proptest pins sparse
//! vs dense under arrival/departure/migration churn, with the dense sweep as
//! the reference (which is why [`EpochEngine::set_sparse`] stays) — so
//! sparseness is purely a throughput knob, never a results knob.
//! [`Cluster::total_resolves`] / [`Cluster::total_quiescent_steps`] expose
//! how much work was actually skipped.  How much that is depends on the
//! loop: the share of machine steps that replay the cache (the benchmark's
//! `cloudsim.engine.replay_ratio`) read 0.90 on `engine_quiescent`, a
//! static fleet built for it, but 0.17–0.21 on `managed_hotmail`, 0.16 on
//! `service_outage_domain`, 0.09 on `service_churn_ec2` and 0.014 on
//! `interference_episodes`.  On `managed_hotmail` only about 397 of the
//! 10 000 machines are occupied in an average epoch; the occupied walk
//! skips the rest, so the cache now competes only on occupied machines.
//! Whether sparse stepping stays is ROADMAP item 16's decision.
//!
//! ## Panic policy
//!
//! A panicking `load_for` (or workload model) unwinds out of
//! [`EpochEngine::step`] before the epoch counter moves.  The cluster may be
//! left half-stepped (machines before the panicking one advanced, the rest
//! not), but the cluster epoch counter is **not** advanced.

use crate::cluster::Cluster;
use crate::pm::VmEpochReport;
use crate::rngs::ClusterSeed;
use crate::vm::VmId;

/// Steps a [`Cluster`] through epochs under a fixed seed.
///
/// The engine is deliberately separate from the cluster: the cluster owns
/// *state* (machines, placements, the epoch counter), the engine owns
/// *policy* (seed derivation and sparseness), so one cluster can be driven
/// by differently seeded engines without touching its construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochEngine {
    seed: ClusterSeed,
    /// Quiescent machines replay cached reports instead of resolving (see
    /// the [module docs](self)); bit-identical either way, on by default.
    sparse: bool,
}

impl EpochEngine {
    /// An engine deriving every stream from `seed`, stepping sparsely.
    pub const fn serial(seed: ClusterSeed) -> Self {
        Self { seed, sparse: true }
    }

    /// Toggles sparse stepping (results are unaffected — bit-identical; see
    /// the [module docs](self)).  `false` forces a dense resolve of every
    /// machine every epoch — the reference the sparse ≡ dense tests compare
    /// against.
    // simlint: test-accessor (selects the dense reference path)
    pub fn set_sparse(&mut self, sparse: bool) {
        self.sparse = sparse;
    }

    /// Advances every machine one epoch and returns all per-VM reports, in
    /// machine-index order (and placement order within a machine).
    ///
    /// `load_for` maps a VM to its offered load for this epoch (driven by
    /// the trace substrate).
    ///
    /// Work bound: the step visits only occupied machines, so machine
    /// visits ≤ occupied machines, however large the fleet.
    ///
    /// If `load_for` (or a workload model) panics, the panic unwinds from
    /// here with the epoch counter untouched (see the [module](self) docs).
    pub fn step<F>(&self, cluster: &mut Cluster, load_for: F) -> Vec<VmEpochReport>
    where
        F: Fn(VmId) -> f64,
    {
        let epoch = cluster.epoch();
        // One report per resident VM: reserving up front keeps the output
        // vector from realloc-copying its way to full size — at 10k+
        // machines that copy traffic would dominate the sparse path, whose
        // real work is only a memcpy per quiescent machine.
        let mut reports = Vec::with_capacity(cluster.vm_count());
        let (occupied, machines, scratch) = cluster.step_parts();
        for (word_index, &word) in occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let index = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Reports land straight in the output vector — no
                // per-machine allocation on either the dense or the cached
                // path.
                machines[index].step_epoch_into(
                    epoch,
                    &load_for,
                    self.seed,
                    self.sparse,
                    scratch,
                    &mut reports,
                );
            }
        }
        cluster.advance_epoch();
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm::PmId;
    use crate::scheduler::Scheduler;
    use crate::vm::Vm;
    use hwsim::MachineSpec;
    use workloads::{AppId, ClientEmulator, DataServing, MemoryStress};

    /// VM `id`: every third one a cache aggressor, the rest data serving.
    fn vm(id: u64) -> Vm {
        if id % 3 == 2 {
            Vm::new(
                VmId(id),
                Box::new(MemoryStress::new(AppId(50), 256.0)),
                ClientEmulator::new(1.0, 1.0),
            )
        } else {
            Vm::new(
                VmId(id),
                Box::new(DataServing::with_defaults(AppId(1))),
                ClientEmulator::new(8_000.0, 4.0),
            )
        }
    }

    fn cluster(machines: usize, vms: usize) -> Cluster {
        let mut c = Cluster::homogeneous(machines, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..vms {
            c.place_first_fit(vm(i as u64)).expect("cluster has room");
        }
        c
    }

    /// One step of `c`: the machines it visited and the hosts of its
    /// reports, in order.
    fn visits_and_hosts(engine: &EpochEngine, c: &mut Cluster) -> (u64, Vec<u64>) {
        let before = c.scratch().visits();
        let reports = engine.step(c, |_| 0.6);
        let hosts = reports.iter().map(|r| r.pm_id.0).collect();
        (c.scratch().visits() - before, hosts)
    }

    /// `epochs` calls of `step` under an epoch-aware load, one report batch
    /// per epoch.
    fn step_n(
        engine: &EpochEngine,
        c: &mut Cluster,
        epochs: usize,
        load: impl Fn(u64, VmId) -> f64,
    ) -> Vec<Vec<VmEpochReport>> {
        (0..epochs)
            .map(|_| {
                let epoch = c.epoch();
                engine.step(c, |vm| load(epoch, vm))
            })
            .collect()
    }

    #[test]
    fn step_advances_the_cluster_epoch() {
        let mut c = cluster(2, 2);
        let engine = EpochEngine::serial(ClusterSeed::new(1));
        assert_eq!(c.epoch(), 0);
        let first = engine.step(&mut c, |_| 0.7);
        assert_eq!(c.epoch(), 1);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].epoch, 0);
        let second = engine.step(&mut c, |_| 0.7);
        assert_eq!(second[0].epoch, 1);
    }

    #[test]
    fn reports_come_back_in_machine_then_placement_order() {
        let mut c = cluster(3, 9);
        let expected: Vec<(PmId, VmId)> = c
            .machines()
            .iter()
            .flat_map(|m| m.vms().iter().map(|v| (m.id, v.id)))
            .collect();
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        let reports = engine.step(&mut c, |_| 0.8);
        let got: Vec<(PmId, VmId)> = reports.iter().map(|r| (r.pm_id, r.vm_id)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn a_step_visits_only_occupied_machines() {
        // The work bound in `step`'s doc: visits ≤ occupied machines, not
        // the fleet size.
        let mut c = Cluster::homogeneous(10_000, MachineSpec::xeon_x5472(), Scheduler::default());
        for (id, pm) in [(0, 17), (1, 4_711), (2, 9_999)] {
            c.place_on(PmId(pm), vm(id)).expect("empty machine");
        }
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        for _ in 0..3 {
            assert_eq!(
                visits_and_hosts(&engine, &mut c),
                (3, vec![17, 4_711, 9_999])
            );
        }
        // A migration that empties machine 4 711 drops it from the next
        // step; a placement in another bitset word adds its machine, in
        // index order.
        c.migrate(VmId(1), PmId(17)).expect("machine 17 has room");
        assert_eq!(visits_and_hosts(&engine, &mut c), (2, vec![17, 17, 9_999]));
        c.place_on(PmId(64), vm(3)).expect("empty machine");
        assert_eq!(
            visits_and_hosts(&engine, &mut c),
            (3, vec![17, 17, 64, 9_999])
        );
    }

    #[test]
    fn a_mixed_model_fleet_steps_each_machine_like_a_fleet_of_its_own() {
        // Machines of a mixed fleet share one resolver per model; each must
        // still report exactly what a one-machine cluster of its own model,
        // holding the same VMs, reports.
        let (xeon, i7) = (MachineSpec::xeon_x5472(), MachineSpec::core_i7_nehalem());
        let models = [&xeon, &xeon, &i7, &i7, &xeon];
        let mut mixed = Cluster::heterogeneous(
            &[(xeon.clone(), 2), (i7.clone(), 2), (xeon.clone(), 1)],
            Scheduler::default(),
        );
        assert_eq!(mixed.scratch().models(), 2, "one resolver per model");
        let mut singles: Vec<Cluster> = models
            .iter()
            .map(|&spec| Cluster::homogeneous(1, spec.clone(), Scheduler::default()))
            .collect();
        for (pm, single) in singles.iter_mut().enumerate() {
            for k in 0..3 {
                let id = (3 * pm + k) as u64;
                mixed.place_on(PmId(pm as u64), vm(id)).expect("room");
                single.place_on(PmId(0), vm(id)).expect("room");
            }
        }
        let engine = EpochEngine::serial(ClusterSeed::new(23));
        let load = |epoch: u64, vm: VmId| 0.3 + 0.1 * ((vm.0 + epoch) % 7) as f64;
        for epoch in 0..4 {
            let from_mixed = engine.step(&mut mixed, |vm| load(epoch, vm));
            let mut from_singles = Vec::new();
            for (pm, single) in singles.iter_mut().enumerate() {
                for mut report in engine.step(single, |vm| load(epoch, vm)) {
                    report.pm_id = PmId(pm as u64);
                    from_singles.push(report);
                }
            }
            assert_eq!(from_mixed, from_singles, "epoch {epoch}");
        }
    }

    #[test]
    fn demand_streams_do_not_depend_on_placement() {
        // The same VM ids spread across different machine counts must draw
        // identical demands each epoch: the stream belongs to the VM, not to
        // its host or its neighbours.
        let engine = EpochEngine::serial(ClusterSeed::new(11));
        let mut narrow = cluster(1, 4); // all four VMs packed on one machine
                                        // Same four VM ids (and workloads), one per machine, reverse order.
        let mut wide = Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..4u64 {
            wide.place_on(PmId(3 - i), vm(i)).expect("empty machine");
        }
        for _ in 0..3 {
            let mut packed = engine.step(&mut narrow, |_| 0.9);
            let mut spread = engine.step(&mut wide, |_| 0.9);
            packed.sort_by_key(|r| r.vm_id);
            spread.sort_by_key(|r| r.vm_id);
            for (a, b) in packed.iter().zip(&spread) {
                assert_eq!(a.vm_id, b.vm_id);
                assert_eq!(a.demand, b.demand, "demand stream moved with placement");
            }
        }
    }

    #[test]
    fn sparse_and_dense_stepping_are_bit_identical() {
        let load = |epoch: u64, vm: VmId| {
            // Half the VMs go fully idle on even epochs — exactly the
            // regime where sparse stepping starts skipping machines.
            if vm.0.is_multiple_of(2) && epoch.is_multiple_of(2) {
                0.0
            } else {
                0.5
            }
        };
        let mut dense_engine = EpochEngine::serial(ClusterSeed::new(31));
        dense_engine.set_sparse(false);
        let sparse_engine = EpochEngine::serial(ClusterSeed::new(31));
        let mut dense_cluster = cluster(5, 12);
        let mut sparse_cluster = cluster(5, 12);
        let dense = step_n(&dense_engine, &mut dense_cluster, 8, load);
        let sparse = step_n(&sparse_engine, &mut sparse_cluster, 8, load);
        assert_eq!(dense, sparse);
        assert_eq!(
            dense_cluster.total_quiescent_steps(),
            0,
            "dense mode must never use the cache"
        );
    }

    #[test]
    fn a_fully_quiescent_epoch_resolves_zero_machines() {
        // All-idle DataServing VMs: static at load 0.  After the first
        // (cache-filling) epoch, no machine should resolve again.
        let mut c = Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..8u64 {
            c.place_first_fit(Vm::new(
                VmId(i),
                Box::new(DataServing::with_defaults(AppId(1))),
                ClientEmulator::new(8_000.0, 4.0),
            ))
            .expect("cluster has room");
        }
        let engine = EpochEngine::serial(ClusterSeed::new(5));
        let first = engine.step(&mut c, |_| 0.0);
        // First-fit packs the 8 VMs onto 2 machines; empty machines are
        // skipped outright, so only those 2 ever resolve.
        assert_eq!(c.total_resolves(), 2);
        assert_eq!(c.total_quiescent_steps(), 0);
        let later = step_n(&engine, &mut c, 10, |_, _| 0.0);
        assert_eq!(c.total_resolves(), 2, "quiescent epochs must not resolve");
        assert_eq!(c.total_quiescent_steps(), 20);
        // And the replayed reports differ from the resolved one only in
        // the epoch stamp.
        for (offset, batch) in later.iter().enumerate() {
            for (cached, resolved) in batch.iter().zip(&first) {
                assert_eq!(cached.epoch, 1 + offset as u64);
                let mut patched = cached.clone();
                patched.epoch = resolved.epoch;
                assert_eq!(&patched, resolved);
            }
        }
    }
}
