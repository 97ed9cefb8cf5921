//! The end-to-end DeepDive controller.
//!
//! This module wires the warning system, the interference analyzer and the
//! placement manager into the loop of Figure 2: every epoch it receives the
//! cluster's per-VM reports, feeds counters to the warning system, invokes
//! the analyzer when a behaviour cannot be explained, updates the behaviour
//! repository with whatever the analyzer verified, and — when interference
//! is confirmed — asks the placement manager for a destination and migrates
//! the culprit VM.
//!
//! The controller also keeps the bookkeeping the evaluation needs: number of
//! analyzer invocations, confirmed detections, false alarms, migrations and
//! accumulated profiling time (Figs. 8 and 12).
//!
//! One type, three files along the loop's seam: this one holds the state,
//! its constructors and *detect* ([`DeepDive::process_epoch`], §4.1);
//! `attribute.rs` the cooldown and deferral gates, sandbox routing and the
//! analysis (§4.2); `mitigate.rs` placement, migration and its retries
//! (§4.3).

mod attribute;
mod mitigate;

use std::collections::{BTreeMap, HashMap, VecDeque};

use cloudsim::pm::VmEpochReport;
use cloudsim::{Cluster, PmId, SandboxFleet, VmId};
use hwsim::{CounterSnapshot, ResourceDemand};
use workloads::AppId;

use crate::analyzer::{AnalysisResult, InterferenceAnalyzer};
use crate::cpi_stack::Resource;
use crate::epoch_index::EpochIndex;
use crate::placement::PlacementManager;
use crate::repository::BehaviorRepository;
use crate::synthetic::SyntheticBenchmark;
use crate::warning::{WarningConfig, WarningDecision, WarningSystem};
use mitigate::PendingMigration;

/// Configuration of the end-to-end controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepDiveConfig {
    /// Operator-defined performance threshold: degradations above this are
    /// treated as interference worth acting on (§4.2).
    pub performance_threshold: f64,
    /// Warning-system configuration.
    pub warning: WarningConfig,
    /// Number of recent epochs replayed in the sandbox per analysis; an
    /// analysis needs at least one, so [`DeepDive::new`] raises `0` to `1`.
    pub analysis_window: usize,
    /// Epochs to wait after analyzing a VM before analyzing it again
    /// (a simple controller against oscillating invocations, §4.4).
    pub analysis_cooldown: u64,
    /// Epochs to wait before re-analyzing a VM whose interference was just
    /// *confirmed*.  Re-confirming an ongoing episode is pure overhead, so
    /// this is typically several times the ordinary cooldown.
    pub confirmed_cooldown: u64,
    /// Whether confirmed interference triggers an automatic migration.
    pub auto_migrate: bool,
    /// Whether the global-information check may consult peer VMs running the
    /// same application (disable to reproduce the "local only" curves).
    pub use_global_information: bool,
    /// Training samples for the synthetic benchmark (trained lazily on the
    /// first placement decision).
    pub synthetic_training_samples: usize,
    /// RNG seed for the synthetic benchmark training.
    pub seed: u64,
    /// Failure-domain spread preference for mitigation migrations: with
    /// `Some(topology)`, acceptable destinations outside the afflicted
    /// machine's power domain win over same-domain ones (see
    /// [`PlacementManager::with_spread`]).  `None` (the default) picks
    /// purely by predicted interference.
    pub spread_topology: Option<cloudsim::Topology>,
}

impl Default for DeepDiveConfig {
    fn default() -> Self {
        Self {
            performance_threshold: 0.15,
            warning: WarningConfig::default(),
            analysis_window: 5,
            analysis_cooldown: 30,
            confirmed_cooldown: 60,
            auto_migrate: true,
            use_global_information: true,
            synthetic_training_samples: 150,
            seed: 0xDEE9,
            spread_topology: None,
        }
    }
}

/// Counters the evaluation harness reads after (or during) a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeepDiveStats {
    /// Epoch-level warning evaluations performed.
    pub evaluations: u64,
    /// Analyzer invocations (bootstrap + suspected interference).
    pub analyzer_invocations: u64,
    /// Analyses that confirmed interference above the threshold.
    pub interference_confirmed: u64,
    /// Analyses that turned out to be false alarms (workload changes).
    pub false_alarms: u64,
    /// Migrations executed.
    pub migrations: u64,
    /// Total sandbox/profiling time consumed, in seconds (Fig. 12's y-axis).
    pub profiling_seconds: f64,
    /// Behaviours accepted via the global-information check.
    pub global_matches: u64,
    /// Analyses whose victim was hosted on a machine model with no matching
    /// sandbox pool, so the replay fell back to the fleet's first pool and
    /// compared counters across models.  Nonzero means biased degradation
    /// estimates; a fleet built with [`DeepDive::for_cluster`] keeps this at
    /// zero by construction.
    pub sandbox_spec_fallbacks: u64,
    /// Analyses deferred because the victim's sandbox pool was inside an
    /// outage window (each deferral episode is counted once).
    pub analyses_deferred: u64,
    /// Deferred analyses whose deadline expired with the pool still down:
    /// the controller fell back to a warning-only decision instead of
    /// analyzing against the wrong pool.
    pub degraded_decisions: u64,
    /// Mitigation migrations re-scheduled with backoff after a transient
    /// failure or a full destination.
    pub migration_retries: u64,
}

/// Events the controller emits each epoch, for logging and for the benches'
/// detection-rate accounting.
///
/// The `Analyzed` variant carries a full [`AnalysisResult`] and dwarfs the
/// others; events are transient per-epoch values that callers consume
/// immediately, so boxing it would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum EpochEvent {
    /// The analyzer ran for a VM and produced a result.
    Analyzed {
        /// The VM that was analyzed.
        vm: VmId,
        /// What the warning system said to trigger the analysis.
        trigger: WarningDecision,
        /// The analyzer's verdict.
        result: AnalysisResult,
    },
    /// A VM was migrated to mitigate confirmed interference.
    Migrated {
        /// The migrated VM.
        vm: VmId,
        /// Source machine.
        from: PmId,
        /// Destination machine.
        to: PmId,
        /// The culprit resource that motivated the move.
        culprit: Resource,
    },
    /// A migration was recommended but could not be executed.
    MigrationSkipped {
        /// The VM that should have moved.
        vm: VmId,
        /// Why the migration did not happen.
        reason: String,
    },
    /// A warning escalated to analysis, but the victim's sandbox pool is
    /// inside an outage window: the analysis waits for the pool (until
    /// `deadline`) instead of replaying against the wrong hardware.
    AnalysisDeferred {
        /// The VM whose analysis is waiting.
        vm: VmId,
        /// Epoch at which the controller stops waiting and degrades.
        deadline: u64,
    },
    /// A deferred analysis hit its deadline with the pool still down; the
    /// controller recorded a warning-only (degraded) decision and applied
    /// the ordinary cooldown instead of analyzing or panicking.
    AnalysisDegraded {
        /// The VM whose analysis was abandoned.
        vm: VmId,
    },
}

/// Everything the controller remembers about one VM between epochs: one
/// record, one owner ([`DeepDive`]'s `vms` map), one lifetime (until
/// [`DeepDive::forget_vms`]).
///
/// The window is the simulation's request-duplicating proxy: "DeepDive
/// relies on a proxy that intercepts the clients' traffic to: 1) duplicate
/// and send copies of the requests to the sandboxed environment, and 2)
/// forward the traffic to/from the production VM" (§4.2), so the sandboxed
/// clone experiences *the same workload* as the production VM.  Here "the
/// same workload" is the intrinsic [`ResourceDemand`] the production VM
/// generated each epoch, kept beside the counters that epoch produced.
#[derive(Debug, Default)]
struct VmRecord {
    /// The VM's last `analysis_window` epochs, oldest first: the counters
    /// observed in production and the demand to replay in the sandbox.
    window: VecDeque<(CounterSnapshot, ResourceDemand)>,
    /// First epoch at which the VM may be analyzed again (a simple
    /// controller against oscillating invocations, §4.4).
    cooldown_until: u64,
    /// While the VM's analysis waits out a sandbox-pool outage: the epoch
    /// at which waiting turns into a degraded (warning-only) decision.
    deferred_until: Option<u64>,
}

/// The end-to-end DeepDive system.
pub struct DeepDive {
    config: DeepDiveConfig,
    warning: WarningSystem,
    analyzer: InterferenceAnalyzer,
    repository: BehaviorRepository,
    /// One sandbox pool per machine model; each analysis replays in the pool
    /// matching the victim's host so counters are never compared across
    /// models (a uniform fleet reproduces the paper's single-pool setup).
    fleet: SandboxFleet,
    placement: PlacementManager,
    /// One trained synthetic benchmark per machine model (keyed by spec
    /// name), trained lazily the first time a placement decision needs it.
    /// A `BTreeMap` so that if per-model iteration ever reaches an RNG draw
    /// or an output, the order is the key order, never hash order.
    synthetic: BTreeMap<String, SyntheticBenchmark>,
    /// Profiling seconds consumed per sandbox pool, parallel to
    /// `fleet.pools()` — the per-farm load the Figs. 12–14 queueing
    /// experiments size profiling capacity from.
    profiling_by_pool: Vec<f64>,
    stats: DeepDiveStats,
    /// All per-VM state, dropped by [`DeepDive::forget_vms`].
    vms: HashMap<VmId, VmRecord>,
    /// Counter-derived fault schedule shared with the datacenter service;
    /// `None` (or a disabled plane) leaves every degradation path inert.
    fault_plane: Option<cloudsim::FaultPlane>,
    /// Mitigation migrations awaiting a backed-off retry, in schedule order.
    pending_migrations: Vec<PendingMigration>,
    /// This epoch's reports, indexed: behaviours, application groups,
    /// machine groups.  Reused scratch: cleared (not dropped) between
    /// epochs so the steady-state warning path performs no heap allocation.
    index: EpochIndex,
}

/// Maximum predicted interference accepted at a migration destination.
const ACCEPTABLE_DESTINATION_INTERFERENCE: f64 = 0.15;
/// Machines per pool when the fleet is derived from a cluster
/// ([`DeepDive::for_cluster`]); matches [`cloudsim::Sandbox::xeon_pool`]'s
/// historical default so uniform clusters behave identically either way.
const DEFAULT_POOL_MACHINES: usize = 4;
/// Cloning overhead for derived fleets, in seconds (the paper's testbed
/// value, as in [`cloudsim::Sandbox::xeon_pool`]).
const DEFAULT_CLONE_OVERHEAD_SECONDS: f64 = 30.0;

impl DeepDive {
    /// Creates the controller with a sandbox fleet for the analyzer.
    ///
    /// Prefer [`DeepDive::for_cluster`], which derives one pool per machine
    /// model actually present instead of hard-coding the fleet.
    pub fn new(mut config: DeepDiveConfig, fleet: SandboxFleet) -> Self {
        // Clamped once, here: the analyzer needs at least one epoch.
        config.analysis_window = config.analysis_window.max(1);
        let analyzer = InterferenceAnalyzer::new(config.performance_threshold);
        let mut placement = PlacementManager::new(ACCEPTABLE_DESTINATION_INTERFERENCE);
        if let Some(topology) = config.spread_topology {
            placement = placement.with_spread(topology);
        }
        let warning = WarningSystem::new(config.warning.clone());
        let profiling_by_pool = vec![0.0; fleet.pools().len()];
        Self {
            config,
            warning,
            analyzer,
            repository: BehaviorRepository::new(),
            fleet,
            placement,
            synthetic: BTreeMap::new(),
            profiling_by_pool,
            stats: DeepDiveStats::default(),
            vms: HashMap::new(),
            fault_plane: None,
            pending_migrations: Vec::new(),
            index: EpochIndex::default(),
        }
    }

    /// Creates the controller with the sandbox fleet the cluster actually
    /// needs: one pool per machine model present in it (four machines per
    /// pool, the paper's 30-second cloning overhead).
    ///
    /// This is the right default for any cluster — on a uniform fleet it is
    /// the paper's single-pool setup (pinned against a hand-built
    /// `Sandbox::xeon_pool(4)` fleet by `tests/sandbox_fleet.rs`), and on a
    /// mixed fleet it guarantees every analysis replays on the victim's
    /// host model (`stats().sandbox_spec_fallbacks` stays zero).
    pub fn for_cluster(config: DeepDiveConfig, cluster: &Cluster) -> Self {
        let fleet = SandboxFleet::for_cluster(
            cluster,
            DEFAULT_POOL_MACHINES,
            DEFAULT_CLONE_OVERHEAD_SECONDS,
        );
        Self::new(config, fleet)
    }

    /// Attaches the fault plane whose sandbox-outage and migration-failure
    /// schedules the controller must degrade around.  Share the plane (it
    /// is `Copy`) with the datacenter service so both layers see the same
    /// schedule.  A disabled plane is byte-for-byte inert.
    pub fn set_fault_plane(&mut self, plane: cloudsim::FaultPlane) {
        self.fault_plane = Some(plane);
    }

    /// The attached fault plane, if any.
    pub fn fault_plane(&self) -> Option<&cloudsim::FaultPlane> {
        self.fault_plane.as_ref()
    }

    /// Analyses currently waiting out a sandbox-pool outage.
    pub fn deferred_analyses(&self) -> usize {
        // A count over the records.  simlint: order-independent
        let records = self.vms.values();
        records.filter(|vm| vm.deferred_until.is_some()).count()
    }

    /// Mitigation migrations currently awaiting a backed-off retry.
    pub fn pending_migrations(&self) -> usize {
        self.pending_migrations.len()
    }

    /// The running statistics.
    pub fn stats(&self) -> DeepDiveStats {
        self.stats
    }

    /// The behaviour repository (read access for the evaluation).
    pub fn repository(&self) -> &BehaviorRepository {
        &self.repository
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeepDiveConfig {
        &self.config
    }

    /// True when the warning system still treats this application
    /// conservatively (no learned clusters yet).
    pub fn in_conservative_mode(&self, app: AppId) -> bool {
        self.warning.in_conservative_mode(app)
    }

    /// Drops everything the controller keeps per VM — the one record holding
    /// its window, cooldown and deferral — for VMs that left the datacenter
    /// for good (departed or abandoned; see
    /// `DatacenterService::departed_last_epoch`).  Without it that state
    /// grows with every session ever admitted.  Do **not** pass VMs that
    /// are merely parked between machines: they report again and their
    /// analysis windows must survive.  A pending mitigation retry whose
    /// victim is forgotten still drains on schedule (as a
    /// `MigrationSkipped`), exactly as if the VM had only stopped reporting.
    pub fn forget_vms(&mut self, gone: &[VmId]) {
        for vm in gone {
            self.vms.remove(vm);
        }
    }

    /// Number of VMs the controller currently holds state for.
    pub fn tracked_vms(&self) -> usize {
        self.vms.len()
    }

    /// Processes one epoch of cluster reports: Algorithm 1 for every VM, and
    /// Algorithm 2 (plus placement) for whatever the warning system escalates.
    ///
    /// The reports are indexed once (`EpochIndex`: behaviours, application
    /// groups, machine groups), and the warning models are refreshed **once
    /// per application per epoch**, before the per-VM loop (an O(1)
    /// generation check per app in the steady state).  Behaviours the epoch
    /// itself adds to the repository are picked up by the next epoch's
    /// refresh.  A VM whose behaviour its model accepts costs one model
    /// check; its application's other VMs are looked at only when that
    /// check fails.
    pub fn process_epoch(
        &mut self,
        cluster: &mut Cluster,
        reports: &[VmEpochReport],
    ) -> Vec<EpochEvent> {
        let mut events = Vec::new();
        if reports.is_empty() {
            return events;
        }
        let epoch = reports[0].epoch;

        // The index is a pure function of the reports.  It leaves `self`
        // for the epoch so the `&mut self` steps below can read it.
        let mut index = std::mem::take(&mut self.index);
        index.rebuild(reports);

        // Run mitigation migrations whose backoff expired before anything
        // else this epoch, so a retry sees the freshest reports.
        events.extend(self.drain_pending_migrations(cluster, reports, &index, epoch));

        // Record the epoch — counters and the duplicated request stream —
        // in every reporting VM's window.
        for r in reports {
            let window = &mut self.vms.entry(r.vm_id).or_default().window;
            window.push_back((r.counters, r.demand.clone()));
            while window.len() > self.config.analysis_window {
                window.pop_front();
            }
        }

        // One model refresh per application per epoch, O(1) when that
        // application's repository generation is unchanged.  The work list
        // is the index's application keys, ascending, so refit accounting
        // is a pure function of the reports.
        for &app in index.by_app.keys() {
            self.warning.refresh_model(app, &self.repository);
        }

        for (at, report) in reports.iter().enumerate() {
            self.stats.evaluations += 1;
            // Skip idle VMs: an empty behaviour carries no signal.
            if report.counters.inst_retired <= 0.0 {
                continue;
            }
            let behavior = index.behaviors[at];
            // Global information: the application's other VMs, idle ones
            // included.  A lazy view; `evaluate` pulls from it only once
            // the local check has failed.
            let peers = self
                .config
                .use_global_information
                .then(|| index.peers_of(report.app, at))
                .into_iter()
                .flatten();
            let decision = self.warning.evaluate(report.app, &behavior, peers);
            match decision {
                WarningDecision::NormalLocal => {}
                WarningDecision::NormalGlobal => {
                    // Workload change shared across the application's VMs:
                    // extend the set of known behaviours without profiling.
                    self.stats.global_matches += 1;
                    self.repository.record_normal(report.app, behavior, epoch);
                }
                WarningDecision::SuspectInterference | WarningDecision::Bootstrap => {
                    events.extend(self.attribute(cluster, reports, &index, report, decision));
                }
            }
        }
        self.index = index;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{ClusterSeed, EpochEngine, Scheduler};
    use hwsim::MachineSpec;
    use workloads::{ClientEmulator, DataServing, MemoryStress};

    fn serving_vm(id: u64, app: u64) -> cloudsim::Vm {
        cloudsim::Vm::new(
            VmId(id),
            Box::new(DataServing::with_defaults(AppId(app))),
            ClientEmulator::new(8_000.0, 4.0),
        )
    }

    fn aggressor_vm(id: u64) -> cloudsim::Vm {
        cloudsim::Vm::new(
            VmId(id),
            Box::new(MemoryStress::new(AppId(900), 512.0)),
            ClientEmulator::new(1.0, 1.0),
        )
    }

    /// Builds the controller the recommended way: fleet derived from the
    /// cluster's machine models (one pool per model), never hard-coded.
    fn controller(auto_migrate: bool, cluster: &Cluster) -> DeepDive {
        let config = DeepDiveConfig {
            auto_migrate,
            synthetic_training_samples: 80,
            ..Default::default()
        };
        DeepDive::for_cluster(config, cluster)
    }

    /// Runs `epochs` epochs through `engine` and returns all events.
    fn run(
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
    fn bootstrap_learns_then_goes_quiet() {
        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        run(&mut cluster, &mut dd, &engine, 60, 0.8);
        let stats = dd.stats();
        assert!(
            stats.analyzer_invocations >= 1,
            "bootstrap must invoke the analyzer"
        );
        assert!(
            stats.interference_confirmed == 0,
            "no interference was present"
        );
        assert!(
            !dd.in_conservative_mode(AppId(1)),
            "clusters should be learned by now"
        );
        // Once learned, further quiet epochs must not trigger the analyzer.
        let before = dd.stats().analyzer_invocations;
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let after = dd.stats().analyzer_invocations;
        assert!(
            after - before <= 1,
            "learned behaviour keeps firing the analyzer"
        );
    }

    #[test]
    fn injected_interference_is_detected_and_mitigated() {
        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(true, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        // Learn normal behaviour first.
        run(&mut cluster, &mut dd, &engine, 50, 0.8);
        let confirmed_before = dd.stats().interference_confirmed;
        // Inject a cache aggressor next to the victim.
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
        let events = run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let stats = dd.stats();
        assert!(
            stats.interference_confirmed > confirmed_before,
            "interference was never confirmed: {stats:?}"
        );
        // The aggressor (most aggressive on the culprit resource) must have
        // been migrated to the idle machine.
        let migrated = events.iter().any(|e| matches!(e, EpochEvent::Migrated { vm, to, .. } if *vm == VmId(99) && *to == PmId(1)));
        assert!(migrated, "aggressor was not migrated: {events:?}");
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(1)));
        assert_eq!(cluster.locate(VmId(1)), Some(PmId(0)));
    }

    #[test]
    fn profiling_time_accumulates_only_when_analyzer_runs() {
        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(4));
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let after_learning = dd.stats().profiling_seconds;
        assert!(after_learning > 0.0);
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let later = dd.stats().profiling_seconds;
        // Nearly flat once normal behaviour is known (Fig. 12's plateau).
        assert!(later - after_learning <= after_learning * 0.5 + 1e-9);
    }

    #[test]
    fn global_information_suppresses_analyses_for_shared_load_changes() {
        // Nine VMs of the same app across machines; a qualitative load shift
        // hits all of them at once.  With global information the analyzer
        // should be invoked far fewer times than nine.
        let mut cluster = Cluster::homogeneous(5, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..9 {
            cluster.place_first_fit(serving_vm(i, 1)).unwrap();
        }
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(5));
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let before = dd.stats();
        // A qualitative change: load jumps for every instance simultaneously.
        run(&mut cluster, &mut dd, &engine, 10, 0.3);
        let after = dd.stats();
        assert!(
            after.global_matches > before.global_matches
                || after.analyzer_invocations - before.analyzer_invocations < 9,
            "global information had no effect: {after:?}"
        );
    }

    #[test]
    fn a_sandbox_outage_defers_then_degrades_instead_of_analyzing() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        // The pool is down every epoch: analyses can never run, so the
        // controller must wait out the deferral window and then degrade.
        dd.set_fault_plane(FaultPlane::new(
            3,
            FaultConfig {
                sandbox_outage_per_epoch: 1.0,
                outage_epochs: (1, 1),
                ..FaultConfig::disabled()
            },
        ));
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        let mut events = Vec::new();
        for _ in 0..60 {
            let reports = engine.step(&mut cluster, |_| 0.8);
            events.extend(dd.process_epoch(&mut cluster, &reports));
        }
        let stats = dd.stats();
        assert_eq!(
            stats.analyzer_invocations, 0,
            "never analyze against a downed pool"
        );
        assert!(
            stats.analyses_deferred >= 1,
            "warnings must defer: {stats:?}"
        );
        assert!(
            stats.degraded_decisions >= 1,
            "deadlines must degrade: {stats:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, EpochEvent::AnalysisDeferred { vm, .. } if *vm == VmId(1))));
        assert!(events
            .iter()
            .any(|e| matches!(e, EpochEvent::AnalysisDegraded { vm } if *vm == VmId(1))));
    }

    /// Tags each event with its epoch, one token per event, so a golden can
    /// pin the order of decisions as well as their counts.
    fn timeline(events: &[(u64, EpochEvent)]) -> String {
        let tokens: Vec<String> = events
            .iter()
            .map(|(epoch, event)| match event {
                EpochEvent::Analyzed { vm, result, .. } => {
                    let verdict = if result.interference_confirmed {
                        "!"
                    } else {
                        ""
                    };
                    format!("{epoch}:analyzed({}){verdict}", vm.0)
                }
                EpochEvent::Migrated { vm, from, to, .. } => {
                    format!("{epoch}:migrated({},{}>{})", vm.0, from.0, to.0)
                }
                EpochEvent::MigrationSkipped { vm, .. } => format!("{epoch}:skipped({})", vm.0),
                EpochEvent::AnalysisDeferred { vm, deadline } => {
                    format!("{epoch}:deferred({},{deadline})", vm.0)
                }
                EpochEvent::AnalysisDegraded { vm } => format!("{epoch}:degraded({})", vm.0),
            })
            .collect();
        tokens.join(" ")
    }

    #[test]
    fn golden_run_under_sandbox_outages_and_flaky_migrations() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        // One victim, an aggressor landing beside it at epoch 50, two empty
        // machines to flee to, a sandbox pool that is down about half the
        // time and migrations that fail every other attempt.  The fault seed
        // is chosen so one run walks every branch of the deferral and retry
        // state machines: a deferral that expires into a degraded decision
        // (0 → 12), deferrals that *resume* into an analysis once the pool
        // is back (42 → 43, 80 → 87), and a failed migration whose retry
        // *succeeds* (73 → 74).  Values printed by the pre-split controller.
        let mut cluster = Cluster::homogeneous(3, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(true, &cluster);
        dd.set_fault_plane(FaultPlane::new(
            16,
            FaultConfig {
                sandbox_outage_per_epoch: 0.2,
                outage_epochs: (2, 4),
                migration_failure: 0.5,
                ..FaultConfig::disabled()
            },
        ));
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        let mut events = Vec::new();
        for epoch in 0..150 {
            if epoch == 50 {
                cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
            }
            let reports = engine.step(&mut cluster, |_| 0.8);
            let emitted = dd.process_epoch(&mut cluster, &reports);
            events.extend(emitted.into_iter().map(|e| (epoch, e)));
        }
        assert_eq!(
            timeline(&events),
            "0:deferred(1,12) 12:degraded(1) 42:deferred(1,54) 43:analyzed(1) \
             50:analyzed(99) 73:analyzed(1)! 73:skipped(99) 74:migrated(99,0>1) \
             80:deferred(99,92) 87:analyzed(99)"
        );
        let count = |pred: fn(&EpochEvent) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
        assert_eq!(
            [
                count(|e| matches!(e, EpochEvent::Analyzed { .. })),
                count(|e| matches!(e, EpochEvent::Migrated { .. })),
                count(|e| matches!(e, EpochEvent::MigrationSkipped { .. })),
                count(|e| matches!(e, EpochEvent::AnalysisDeferred { .. })),
                count(|e| matches!(e, EpochEvent::AnalysisDegraded { .. })),
            ],
            [4, 1, 1, 3, 1]
        );
        assert_eq!(
            dd.stats(),
            DeepDiveStats {
                evaluations: 250,
                analyzer_invocations: 4,
                interference_confirmed: 1,
                false_alarms: 3,
                migrations: 1,
                profiling_seconds: 136.0,
                global_matches: 0,
                sandbox_spec_fallbacks: 0,
                analyses_deferred: 3,
                degraded_decisions: 1,
                migration_retries: 1,
            }
        );
        assert_eq!((dd.deferred_analyses(), dd.pending_migrations()), (0, 0));
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(1)));
    }

    #[test]
    fn forgetting_a_vm_drops_its_history_and_its_deferred_analysis() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        cluster.place_on(PmId(0), serving_vm(2, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        // The pool is always down, so both bootstrap analyses defer.
        dd.set_fault_plane(FaultPlane::new(
            3,
            FaultConfig {
                sandbox_outage_per_epoch: 1.0,
                outage_epochs: (1, 1),
                ..FaultConfig::disabled()
            },
        ));
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        run(&mut cluster, &mut dd, &engine, 3, 0.8);
        assert_eq!((dd.tracked_vms(), dd.deferred_analyses()), (2, 2));
        // VM 1's session ends while its analysis is still waiting.
        cluster.remove_vm(VmId(1));
        dd.forget_vms(&[VmId(1)]);
        assert_eq!((dd.tracked_vms(), dd.deferred_analyses()), (1, 1));
        // The survivor's window and deferral are untouched.
        run(&mut cluster, &mut dd, &engine, 3, 0.8);
        assert_eq!((dd.tracked_vms(), dd.deferred_analyses()), (1, 1));
        assert_eq!(dd.stats().analyses_deferred, 2);
        // Nothing of VM 1 is left: one record is all there ever was ...
        assert!(!dd.vms.contains_key(&VmId(1)));
        // ... so when the id re-appears it starts over: a one-epoch window,
        // no cooldown, and a *new* deferral (counted) rather than the old
        // one's deadline.
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        run(&mut cluster, &mut dd, &engine, 1, 0.8);
        let reborn = &dd.vms[&VmId(1)];
        assert_eq!(
            (
                reborn.window.len(),
                reborn.cooldown_until,
                reborn.deferred_until
            ),
            (1, 0, Some(6 + 12))
        );
        assert_eq!((dd.tracked_vms(), dd.deferred_analyses()), (2, 2));
        assert_eq!(dd.stats().analyses_deferred, 3);
    }

    #[test]
    fn two_victims_confirmed_in_one_epoch_mitigate_their_machine_once() {
        // Two tenants of different applications share PM 0 with one memory
        // aggressor.  Bootstrap synchronised their cooldowns, so both
        // confirm interference in the same epoch.  The first confirmation
        // moves the aggressor; the second must not re-decide the machine
        // from reports that still list the aggressor as resident.
        let mut cluster = Cluster::homogeneous(3, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        cluster.place_on(PmId(0), serving_vm(2, 2)).unwrap();
        let mut dd = controller(true, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        run(&mut cluster, &mut dd, &engine, 50, 0.8);
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();

        let mut double_confirmations = 0;
        for _ in 0..40 {
            let reports = engine.step(&mut cluster, |_| 0.8);
            let mut location: HashMap<VmId, PmId> =
                reports.iter().map(|r| (r.vm_id, r.pm_id)).collect();
            let events = dd.process_epoch(&mut cluster, &reports);
            let confirmed = events.iter().filter(|e| {
                matches!(e, EpochEvent::Analyzed { result, .. } if result.interference_confirmed)
            });
            double_confirmations += usize::from(confirmed.count() == 2);
            let mut moved = Vec::new();
            for event in &events {
                match event {
                    EpochEvent::Migrated { vm, from, to, .. } => {
                        assert_eq!(location[vm], *from, "moved from where it was not");
                        assert!(!moved.contains(vm), "{vm:?} moved twice in one epoch");
                        moved.push(*vm);
                        location.insert(*vm, *to);
                    }
                    EpochEvent::MigrationSkipped { reason, .. } => {
                        assert!(
                            !reason.contains("is already on"),
                            "asked to migrate a VM to where it is: {reason}"
                        );
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(
            double_confirmations, 1,
            "scenario must confirm both at once"
        );
        assert_eq!(dd.stats().migrations, 1);
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(1)));
        assert_eq!(cluster.locate(VmId(1)), Some(PmId(0)));
        assert_eq!(cluster.locate(VmId(2)), Some(PmId(0)));
    }

    #[test]
    fn failed_migrations_retry_with_backoff_until_the_budget_runs_out() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(true, &cluster);
        // Every migration attempt fails transiently: the episode must back
        // off through the retry budget and then give up loudly.
        dd.set_fault_plane(FaultPlane::new(
            9,
            FaultConfig {
                migration_failure: 1.0,
                ..FaultConfig::disabled()
            },
        ));
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        run(&mut cluster, &mut dd, &engine, 50, 0.8);
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
        let events = run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let stats = dd.stats();
        assert!(stats.interference_confirmed >= 1, "{stats:?}");
        assert_eq!(stats.migrations, 0, "no migration can succeed: {events:?}");
        assert!(
            stats.migration_retries >= 1,
            "failures must be retried: {stats:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                EpochEvent::MigrationSkipped { reason, .. }
                    if reason == "migration retry budget exhausted"
            )),
            "budget exhaustion must be reported: {events:?}"
        );
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(0)), "nothing moved");
    }

    #[test]
    fn mitigation_respects_the_aggressors_real_vcpu_count() {
        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        // Machine 1 keeps two of its eight cores free: room for a default
        // 2-vCPU VM, not for the 4-vCPU aggressor below.
        for id in 10..13 {
            cluster.place_on(PmId(1), serving_vm(id, 2)).unwrap();
        }
        let mut dd = controller(true, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        // Machine 1's tenants idle — at the shared `run` helper's uniform
        // load placement rejects machine 1 for interference and the width
        // never matters.
        let step = |cluster: &mut Cluster, dd: &mut DeepDive, epochs: usize| {
            let mut events = Vec::new();
            for _ in 0..epochs {
                let reports = engine.step(cluster, |vm| if vm.0 >= 10 { 0.0 } else { 0.8 });
                events.extend(dd.process_epoch(cluster, &reports));
            }
            events
        };
        step(&mut cluster, &mut dd, 50);
        let wide_aggressor = cloudsim::Vm::with_shape(
            VmId(99),
            4,
            2_048.0,
            Box::new(MemoryStress::new(AppId(900), 512.0)),
            ClientEmulator::new(1.0, 1.0),
        );
        cluster.place_on(PmId(0), wide_aggressor).unwrap();
        let placement = |c: &Cluster| -> Vec<Vec<VmId>> {
            let ids = c.machines().iter();
            ids.map(|m| m.vms().iter().map(|vm| vm.id).collect())
                .collect()
        };
        let before = placement(&cluster);
        let confirmed_before = dd.stats().interference_confirmed;
        let events = step(&mut cluster, &mut dd, 40);
        let stats = dd.stats();
        assert_eq!(
            stats.interference_confirmed - confirmed_before,
            1,
            "{stats:?}"
        );
        // No destination has four free cores, so the decision is one skip:
        // no doomed migration attempt, hence nothing to retry.
        assert_eq!((stats.migrations, stats.migration_retries), (0, 0));
        let skips: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                EpochEvent::MigrationSkipped { reason, .. } => Some(reason.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(skips.len(), 1, "{events:?}");
        assert_ne!(skips[0], "destination ran out of capacity");
        assert_eq!(placement(&cluster), before, "placement must be untouched");
    }

    #[test]
    fn a_disabled_fault_plane_leaves_the_controller_unchanged() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let run_once = |attach_disabled_plane: bool| {
            let mut cluster =
                Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
            cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
            let mut dd = controller(true, &cluster);
            if attach_disabled_plane {
                dd.set_fault_plane(FaultPlane::new(55, FaultConfig::disabled()));
            }
            let engine = EpochEngine::serial(ClusterSeed::new(3));
            let mut events = run(&mut cluster, &mut dd, &engine, 50, 0.8);
            cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
            events.extend(run(&mut cluster, &mut dd, &engine, 30, 0.8));
            (events, dd.stats(), cluster.locate(VmId(99)))
        };
        assert_eq!(run_once(false), run_once(true));
    }

    #[test]
    fn a_zero_analysis_window_behaves_like_a_window_of_one() {
        // Regression: the proxy window was clamped to 1 but the counter
        // history was trimmed to the raw 0, so the first analysis got an
        // empty window and panicked inside the analyzer.
        let run_with = |analysis_window: usize| {
            let mut cluster =
                Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
            cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
            let config = DeepDiveConfig {
                analysis_window,
                ..Default::default()
            };
            let mut dd = DeepDive::for_cluster(config, &cluster);
            let engine = EpochEngine::serial(ClusterSeed::new(2));
            // The first epoch is the bootstrap analysis; three more follow.
            (run(&mut cluster, &mut dd, &engine, 4, 0.8), dd.stats())
        };
        let (events, stats) = run_with(0);
        assert!(stats.analyzer_invocations >= 1, "bootstrap must analyze");
        assert_eq!((events, stats), run_with(1));
    }

    #[test]
    fn stats_start_at_zero() {
        let cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        let dd = controller(true, &cluster);
        assert_eq!(dd.stats(), DeepDiveStats::default());
        assert!(dd.repository().known_apps().is_empty());
        assert!(dd.profiling_seconds_by_pool().all(|(_, s)| s == 0.0));
    }

    #[test]
    fn for_cluster_derives_one_pool_per_machine_model() {
        let mixed = Cluster::heterogeneous(
            &[
                (MachineSpec::xeon_x5472(), 2),
                (MachineSpec::core_i7_nehalem(), 2),
            ],
            Scheduler::default(),
        );
        let dd = DeepDive::for_cluster(DeepDiveConfig::default(), &mixed);
        let fleet = dd.sandbox_fleet();
        assert_eq!(fleet.pools().len(), 2);
        for machine in mixed.machines() {
            assert!(
                fleet.pool_for(machine.spec()).is_some(),
                "no pool for {}",
                machine.spec().name
            );
        }
        // Hard-coding the fleet stays possible but explicit.
        let uniform = DeepDive::new(
            DeepDiveConfig::default(),
            SandboxFleet::new(vec![cloudsim::Sandbox::xeon_pool(4)]),
        );
        assert_eq!(uniform.sandbox_fleet().pools().len(), 1);
    }

    #[test]
    fn pooled_controller_run_is_bit_identical_to_serial() {
        use cloudsim::ExecutionMode;

        // Three apps across three machines plus an aggressor, long enough to
        // cover bootstrap, multi-app refits, confirmed interference,
        // benchmark training (lazy beside the serial engine, eager beside
        // the pooled one) and migration — the full control plane.
        let build = || {
            let mut cluster =
                Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
            for i in 0..5 {
                cluster
                    .place_first_fit(serving_vm(i, 1 + i % 3))
                    .expect("room");
            }
            // First-fit packs two VMs per machine, so PM 2 has one slot
            // left for the aggressor and PM 3 stays free as a destination.
            cluster.place_on(PmId(2), aggressor_vm(99)).unwrap();
            cluster
        };

        let serial_engine = EpochEngine::serial(ClusterSeed::new(5));
        let mut serial_cluster = build();
        let mut serial_dd = controller(true, &serial_cluster);
        let serial_events = run(&mut serial_cluster, &mut serial_dd, &serial_engine, 50, 0.8);

        let pooled_engine =
            EpochEngine::new(ClusterSeed::new(5), ExecutionMode::Pooled { threads: 3 });
        let mut pooled_cluster = build();
        let mut pooled_dd = controller(true, &pooled_cluster);
        pooled_dd.pretrain_benchmarks(&pooled_cluster);
        let pooled_events = run(&mut pooled_cluster, &mut pooled_dd, &pooled_engine, 50, 0.8);

        assert_eq!(serial_events, pooled_events, "event streams diverged");
        assert_eq!(serial_dd.stats(), pooled_dd.stats(), "stats diverged");
        assert_eq!(
            serial_cluster.locate(VmId(99)),
            pooled_cluster.locate(VmId(99)),
            "final placements diverged"
        );
    }

    #[test]
    fn profiling_time_is_accounted_against_the_matching_pool() {
        // One i7-hosted tenant on a mixed cluster: every analysis must book
        // its profiling seconds against the i7 pool, none against the Xeon
        // pool, and no spec fallbacks may occur.
        let mut cluster = Cluster::heterogeneous(
            &[
                (MachineSpec::xeon_x5472(), 1),
                (MachineSpec::core_i7_nehalem(), 1),
            ],
            Scheduler::default(),
        );
        cluster.place_on(PmId(1), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(7));
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let stats = dd.stats();
        assert!(stats.analyzer_invocations >= 1);
        assert_eq!(stats.sandbox_spec_fallbacks, 0);
        let by_pool: Vec<(String, f64)> = dd
            .profiling_seconds_by_pool()
            .map(|(name, s)| (name.to_string(), s))
            .collect();
        let i7 = MachineSpec::core_i7_nehalem();
        let total: f64 = by_pool.iter().map(|(_, s)| s).sum();
        assert!((total - stats.profiling_seconds).abs() < 1e-9);
        for (name, seconds) in &by_pool {
            if *name == i7.name {
                assert!(*seconds > 0.0, "i7 pool never used: {by_pool:?}");
            } else {
                assert_eq!(*seconds, 0.0, "wrong pool charged: {by_pool:?}");
            }
        }
    }
    #[test]
    fn streams_are_identical_across_insertion_orders() {
        // Two controllers over byte-identical clusters, but with their
        // per-model synthetic benchmarks inserted in opposite orders
        // (xeon→i7 vs i7→xeon) and the tenants placed in opposite orders.
        // If any control-plane decision leaked map insertion/iteration
        // order — the bug class the `synthetic` BTreeMap and the epoch
        // index's sorted keys exist to prevent — the event or stat
        // streams would diverge.
        let xeon = MachineSpec::xeon_x5472();
        let i7 = MachineSpec::core_i7_nehalem();
        let build = |reversed: bool| {
            let mut cluster =
                Cluster::heterogeneous(&[(xeon.clone(), 1), (i7.clone(), 1)], Scheduler::default());
            let placements = [(PmId(0), 1u64, 1u64), (PmId(1), 2, 2)];
            let order: Vec<_> = if reversed {
                placements.iter().rev().collect()
            } else {
                placements.iter().collect()
            };
            for &&(pm, vm, app) in &order {
                cluster.place_on(pm, serving_vm(vm, app)).unwrap();
            }
            cluster
        };
        let xeon_only = Cluster::homogeneous(1, xeon.clone(), Scheduler::default());
        let i7_only = Cluster::homogeneous(1, i7.clone(), Scheduler::default());
        let config = DeepDiveConfig {
            auto_migrate: true,
            synthetic_training_samples: 80,
            ..Default::default()
        };

        let mut cluster_a = build(false);
        let mut dd_a = DeepDive::for_cluster(config.clone(), &cluster_a);
        dd_a.pretrain_benchmarks(&xeon_only);
        dd_a.pretrain_benchmarks(&i7_only);

        let mut cluster_b = build(true);
        let mut dd_b = DeepDive::for_cluster(config, &cluster_b);
        dd_b.pretrain_benchmarks(&i7_only);
        dd_b.pretrain_benchmarks(&xeon_only);

        let engine_a = EpochEngine::serial(ClusterSeed::new(11));
        let engine_b = EpochEngine::serial(ClusterSeed::new(11));
        let mut events_a = run(&mut cluster_a, &mut dd_a, &engine_a, 50, 0.8);
        let mut events_b = run(&mut cluster_b, &mut dd_b, &engine_b, 50, 0.8);
        // Inject the same aggressor into both and keep going: confirmed
        // interference, migration planning and refits all replay the same
        // decision path over the differently-populated internal maps.
        cluster_a.place_on(PmId(0), aggressor_vm(99)).unwrap();
        cluster_b.place_on(PmId(0), aggressor_vm(99)).unwrap();
        events_a.extend(run(&mut cluster_a, &mut dd_a, &engine_a, 40, 0.8));
        events_b.extend(run(&mut cluster_b, &mut dd_b, &engine_b, 40, 0.8));

        assert_eq!(events_a, events_b, "event streams diverged");
        assert_eq!(dd_a.stats(), dd_b.stats(), "stats diverged");
        assert_eq!(
            cluster_a.locate(VmId(99)),
            cluster_b.locate(VmId(99)),
            "final placements diverged"
        );
    }
}
