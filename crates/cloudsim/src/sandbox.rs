//! The sandboxed environment.
//!
//! "DeepDive clones the VM under test in a sandboxed environment that uses
//! non-work-conserving schedulers to tightly control the resource allocation"
//! (§4.2).  The clone, fed the duplicated request stream — here the demands
//! the controller recorded from the VM's own reports — then produces the
//! *isolation* counters the analyzer compares against production.
//!
//! Here a [`Sandbox`] is a small pool of dedicated physical machines of one
//! hardware model (the paper shows a handful suffice, §5.5).  Running an
//! analysis occupies one machine for as long as the replayed window lasts;
//! the pool size therefore bounds how many concurrent analyses can run,
//! which is exactly the quantity the queueing experiments of Figs. 12–14
//! study.
//!
//! Isolation counters are only directly comparable to production counters
//! when the clone runs on the *same hardware model* as the production host.
//! The paper's testbed is uniform (§5.1), so a single pool suffices there;
//! a [`crate::Cluster::heterogeneous`] fleet instead needs one pool **per
//! machine model**, selected by the victim's host spec at analysis time.
//! That is what [`SandboxFleet`] provides; a one-pool fleet is the paper's
//! single-pool setup and behaves identically to the bare [`Sandbox`].

use hwsim::contention::PlacedDemand;
use hwsim::{CounterSnapshot, EpochResolver, MachineSpec, ResourceDemand, EPOCH_SECONDS};

use crate::cluster::Cluster;
use crate::vm::VmId;

/// Result of replaying one VM's recorded demand stream in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationRun {
    /// The VM whose behaviour was reproduced.
    pub vm_id: VmId,
    /// Per-epoch counters observed in isolation (same order as the replayed
    /// demands).
    pub counters: Vec<CounterSnapshot>,
    /// Per-epoch achieved fractions in isolation.
    pub achieved_fractions: Vec<f64>,
    /// Wall-clock seconds of sandbox time the analysis consumed (cloning
    /// overhead plus one second per replayed epoch).
    pub profiling_seconds: f64,
}

impl IsolationRun {
    /// Element-wise average of the per-epoch counters.
    pub fn mean_counters(&self) -> CounterSnapshot {
        if self.counters.is_empty() {
            return CounterSnapshot::zero();
        }
        let sum = self
            .counters
            .iter()
            .fold(CounterSnapshot::zero(), |acc, c| acc.add(c));
        sum.scale(1.0 / self.counters.len() as f64)
    }
}

/// A pool of dedicated profiling machines of one hardware model.
///
/// The pool is homogeneous by construction: isolation counters are only
/// directly comparable to production counters when the clone runs on the
/// *same hardware model* as the production host (the paper's testbed is
/// uniform, §5.1).  On a [`crate::Cluster::heterogeneous`] fleet, analyses
/// of VMs hosted on a model different from `spec` carry a systematic bias —
/// e.g. a VM on a Core i7 node replayed in a Xeon sandbox compares across
/// clock rates and memory systems, and under-detects whenever the host is
/// the faster machine for the workload.  Mixed fleets should therefore hold
/// a [`SandboxFleet`] (one pool per machine model, selected by the victim's
/// host spec); a bare `Sandbox` remains the right type for uniform clusters
/// and for the queueing experiments that model a single profiling farm.
#[derive(Debug, Clone)]
pub struct Sandbox {
    /// Hardware model of the profiling machines (same as production, so that
    /// isolation counters are directly comparable).
    pub spec: MachineSpec,
    /// Number of machines in the pool.
    pub machines: usize,
    /// Fixed overhead per analysis for cloning the VM and warming it up, in
    /// seconds (the paper notes cloning time is "typically small compared to
    /// the frequency of invocation").
    pub clone_overhead_seconds: f64,
}

impl Sandbox {
    /// Creates a sandbox pool.
    ///
    /// # Panics
    /// Panics if the pool is empty or the overhead is negative.
    pub fn new(spec: MachineSpec, machines: usize, clone_overhead_seconds: f64) -> Self {
        assert!(machines > 0, "sandbox needs at least one machine");
        assert!(
            clone_overhead_seconds >= 0.0,
            "clone overhead cannot be negative"
        );
        assert!(spec.is_well_formed(), "malformed sandbox machine spec");
        Self {
            spec,
            machines,
            clone_overhead_seconds,
        }
    }

    /// Convenience constructor matching the paper's testbed: Xeon machines
    /// and a 30-second cloning overhead.
    pub fn xeon_pool(machines: usize) -> Self {
        Self::new(MachineSpec::xeon_x5472(), machines, 30.0)
    }

    /// Replays a recorded demand stream for `vm_id` on an idle sandbox
    /// machine and returns the isolation counters.
    ///
    /// The clone runs exactly the duplicated workload, alone, with the
    /// non-work-conserving scheduler — i.e. nothing else contends with it.
    pub fn run_in_isolation(
        &self,
        vm_id: VmId,
        demands: &[ResourceDemand],
        vcpus: usize,
    ) -> IsolationRun {
        assert!(vcpus > 0, "clone needs at least one vCPU");
        let mut counters = Vec::with_capacity(demands.len());
        let mut fractions = Vec::with_capacity(demands.len());
        // One resolver serves the whole replayed window: the clone runs solo,
        // so every epoch reuses the same scratch buffers.
        let mut resolver = EpochResolver::new(self.spec.clone());
        let mut outcomes = Vec::with_capacity(1);
        for demand in demands {
            resolver.resolve_into(
                &[PlacedDemand::new(vm_id.0, demand.clone(), vcpus, 0)],
                EPOCH_SECONDS,
                &mut outcomes,
            );
            let o = &outcomes[0];
            counters.push(o.counters);
            fractions.push(o.achieved_fraction);
        }
        IsolationRun {
            vm_id,
            counters,
            achieved_fractions: fractions,
            profiling_seconds: self.clone_overhead_seconds + demands.len() as f64,
        }
    }
}

/// A spec-aware set of sandbox pools for heterogeneous clusters: one
/// [`Sandbox`] per machine model present in the fleet.
///
/// The analyzer's degradation estimate divides production instruction rates
/// by isolation instruction rates, so the isolation replay must run on the
/// same machine model that hosted the victim.  A `SandboxFleet` makes that
/// routing explicit: [`SandboxFleet::pool_for`] returns the pool whose spec
/// matches the victim's host, and [`SandboxFleet::select_index`] adds the
/// fallback policy (first pool, flagged as unmatched) that reproduces the
/// old single-pool behaviour when no model matches.
///
/// A machine model's **identity is its [`MachineSpec::name`]** — pools are
/// deduplicated, routed and accounted by name, consistently with how
/// `deepdive` keys its per-model synthetic benchmarks.  Two specs sharing a
/// name are treated as one model (the first wins); give variants distinct
/// names if they must be told apart.
///
/// On a homogeneous cluster the derived fleet holds one pool;
/// `tests/sandbox_fleet.rs` pins that its decisions are bit-identical to a
/// hand-built single-pool fleet's there.
#[derive(Debug, Clone)]
pub struct SandboxFleet {
    /// The pools, in construction order; `select_index` falls back to the first.
    pools: Vec<Sandbox>,
}

impl SandboxFleet {
    /// Creates a fleet from explicit pools.
    ///
    /// # Panics
    /// Panics if the pool list is empty or two pools share a machine-model
    /// name (per-pool accounting and spec routing key on the model).
    pub fn new(pools: Vec<Sandbox>) -> Self {
        assert!(!pools.is_empty(), "a sandbox fleet needs at least one pool");
        for (i, pool) in pools.iter().enumerate() {
            assert!(
                pools[..i].iter().all(|p| p.spec.name != pool.spec.name),
                "duplicate sandbox pool for machine model {:?}",
                pool.spec.name
            );
        }
        Self { pools }
    }

    /// One pool per distinct machine model in `specs`, in first-appearance
    /// order, each with `machines_per_pool` machines and the given cloning
    /// overhead.
    ///
    /// # Panics
    /// Panics if `specs` is empty (via [`SandboxFleet::new`]) or a pool is
    /// malformed (via [`Sandbox::new`]).
    pub fn for_specs<'a>(
        specs: impl IntoIterator<Item = &'a MachineSpec>,
        machines_per_pool: usize,
        clone_overhead_seconds: f64,
    ) -> Self {
        let mut pools: Vec<Sandbox> = Vec::new();
        for spec in specs {
            // Dedup by name — the same key `new` enforces and `pool_for`
            // routes on — so a name can never reach `new` twice.
            if pools.iter().all(|p| p.spec.name != spec.name) {
                pools.push(Sandbox::new(
                    spec.clone(),
                    machines_per_pool,
                    clone_overhead_seconds,
                ));
            }
        }
        Self::new(pools)
    }

    /// Derives the fleet a cluster actually needs: one pool per machine
    /// model present in it, so every analysis can replay on the victim's
    /// host model.  This is what [`SandboxFleet::for_specs`] exists for;
    /// `deepdive`'s `DeepDive::for_cluster` calls it with its defaults.
    pub fn for_cluster(
        cluster: &Cluster,
        machines_per_pool: usize,
        clone_overhead_seconds: f64,
    ) -> Self {
        Self::for_specs(
            cluster.machines().iter().map(|m| m.spec()),
            machines_per_pool,
            clone_overhead_seconds,
        )
    }

    /// The pools, in construction order.
    pub fn pools(&self) -> &[Sandbox] {
        &self.pools
    }

    /// The pool for the machine model named by `spec`, if any (models are
    /// identified by [`MachineSpec::name`]).
    pub fn pool_for(&self, spec: &MachineSpec) -> Option<&Sandbox> {
        self.pools.iter().find(|p| p.spec.name == spec.name)
    }

    /// Selects the pool for a victim hosted on `spec` — as an index into
    /// [`SandboxFleet::pools`], so callers can keep per-pool accounting in
    /// arrays parallel to it — falling back to the first pool when no model
    /// matches.
    ///
    /// The boolean is `true` when the pool's model matches the host — i.e.
    /// the isolation counters are directly comparable to production.  A
    /// `false` means the caller is on the old cross-model path (a uniform
    /// fleet analyzing a foreign model) and the degradation estimate is
    /// biased; `deepdive` counts these as `sandbox_spec_fallbacks`.
    pub fn select_index(&self, spec: &MachineSpec) -> (usize, bool) {
        match self.pools.iter().position(|p| p.spec.name == spec.name) {
            Some(idx) => (idx, true),
            None => (0, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use hwsim::ResourceDemand;

    /// The pool `select_index` routes `spec` to, and whether it matched.
    fn select<'a>(fleet: &'a SandboxFleet, spec: &MachineSpec) -> (&'a Sandbox, bool) {
        let (idx, matched) = fleet.select_index(spec);
        (&fleet.pools()[idx], matched)
    }

    fn demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(2.0e9)
            .working_set_mb(8.0)
            .l1_mpki(25.0)
            .llc_mpki_solo(1.0)
            .parallelism(2.0)
            .build()
    }

    #[test]
    fn isolation_run_replays_every_epoch() {
        let sandbox = Sandbox::xeon_pool(4);
        let demands = vec![demand(); 5];
        let run = sandbox.run_in_isolation(VmId(3), &demands, 2);
        assert_eq!(run.vm_id, VmId(3));
        assert_eq!(run.counters.len(), 5);
        assert_eq!(run.achieved_fractions.len(), 5);
        assert!(run.achieved_fractions.iter().all(|f| *f > 0.9));
        assert!((run.profiling_seconds - 35.0).abs() < 1e-9);
    }

    #[test]
    fn isolation_counters_reflect_uncontended_execution() {
        // The same demand resolved alongside an aggressor in "production"
        // must retire fewer instructions than the sandbox replay.
        let sandbox = Sandbox::xeon_pool(1);
        let run = sandbox.run_in_isolation(VmId(1), &[demand()], 2);
        let aggressor = ResourceDemand::builder()
            .instructions(2.5e9)
            .working_set_mb(512.0)
            .l1_mpki(70.0)
            .llc_mpki_solo(40.0)
            .locality(0.0)
            .parallelism(2.0)
            .build();
        let production = EpochResolver::new(sandbox.spec.clone()).resolve(&[
            PlacedDemand::new(1, demand(), 2, 0),
            PlacedDemand::new(2, aggressor, 2, 0),
        ]);
        assert!(production[0].counters.inst_retired < run.counters[0].inst_retired);
    }

    #[test]
    fn mean_counters_average_the_window() {
        let sandbox = Sandbox::xeon_pool(1);
        let run = sandbox.run_in_isolation(VmId(1), &[demand(), demand()], 2);
        let mean = run.mean_counters();
        assert!((mean.inst_retired - run.counters[0].inst_retired).abs() < 1e-3);
    }

    #[test]
    fn empty_replay_yields_empty_run() {
        let sandbox = Sandbox::xeon_pool(1);
        let run = sandbox.run_in_isolation(VmId(1), &[], 2);
        assert!(run.counters.is_empty());
        assert_eq!(run.mean_counters(), CounterSnapshot::zero());
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_pool_rejected() {
        Sandbox::new(MachineSpec::xeon_x5472(), 0, 1.0);
    }

    #[test]
    fn fleet_routes_each_spec_to_its_own_pool() {
        let fleet = SandboxFleet::for_specs(
            [
                &MachineSpec::xeon_x5472(),
                &MachineSpec::core_i7_nehalem(),
                // Repeats collapse into the existing pool.
                &MachineSpec::xeon_x5472(),
            ],
            3,
            30.0,
        );
        assert_eq!(fleet.pools().len(), 2);
        assert!(fleet.pools().iter().all(|pool| pool.machines == 3));
        let (xeon, matched) = select(&fleet, &MachineSpec::xeon_x5472());
        assert!(matched);
        assert_eq!(xeon.spec, MachineSpec::xeon_x5472());
        let (i7, matched) = select(&fleet, &MachineSpec::core_i7_nehalem());
        assert!(matched);
        assert_eq!(i7.spec, MachineSpec::core_i7_nehalem());
    }

    #[test]
    fn uniform_fleet_falls_back_to_its_only_pool_for_foreign_models() {
        let fleet = SandboxFleet::new(vec![Sandbox::xeon_pool(2)]);
        assert!(fleet.pool_for(&MachineSpec::core_i7_nehalem()).is_none());
        let (pool, matched) = select(&fleet, &MachineSpec::core_i7_nehalem());
        assert!(!matched, "cross-model selection must be flagged");
        assert_eq!(pool.spec, MachineSpec::xeon_x5472());
    }

    #[test]
    fn fleet_for_cluster_covers_every_model_present() {
        let cluster = Cluster::heterogeneous(
            &[
                (MachineSpec::xeon_x5472(), 2),
                (MachineSpec::core_i7_nehalem(), 1),
            ],
            Scheduler::default(),
        );
        let fleet = SandboxFleet::for_cluster(&cluster, 4, 30.0);
        assert_eq!(fleet.pools().len(), 2);
        for machine in cluster.machines() {
            let (pool, matched) = select(&fleet, machine.spec());
            assert!(matched, "no pool for {}", machine.spec().name);
            assert_eq!(&pool.spec, machine.spec());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate sandbox pool")]
    fn duplicate_pool_models_rejected() {
        SandboxFleet::new(vec![Sandbox::xeon_pool(1), Sandbox::xeon_pool(2)]);
    }

    #[test]
    fn model_identity_is_the_spec_name() {
        // Two spec values sharing a name are one model: `for_specs` must
        // collapse them into a single pool (first wins) instead of pushing
        // two same-named pools into the duplicate assert, and routing must
        // accept the variant.
        let stock = MachineSpec::xeon_x5472();
        let mut overclocked = MachineSpec::xeon_x5472();
        overclocked.clock_hz *= 1.1;
        let fleet = SandboxFleet::for_specs([&stock, &overclocked], 2, 30.0);
        assert_eq!(fleet.pools().len(), 1);
        assert_eq!(fleet.pools()[0].spec, stock);
        let (pool, matched) = select(&fleet, &overclocked);
        assert!(matched, "same-named variant must route to its name's pool");
        assert_eq!(pool.spec.name, stock.name);
    }

    #[test]
    #[should_panic(expected = "at least one pool")]
    fn empty_fleet_rejected() {
        SandboxFleet::new(Vec::new());
    }
}
