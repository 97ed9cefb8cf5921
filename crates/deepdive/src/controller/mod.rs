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
//! `attribute.rs` sandbox routing and the analysis (§4.2); `mitigate.rs`
//! placement, migration and its retries (§4.3).  `records.rs` is the per-VM
//! memory they share: each VM's analysis window and its phase, whose one
//! transition function gates every analysis (cooldown and deferral).

mod attribute;
mod mitigate;
mod records;

use std::collections::BTreeMap;

use cloudsim::pm::VmEpochReport;
use cloudsim::{Cluster, PmId, SandboxFleet, VmId};
use workloads::AppId;

use crate::analyzer::{AnalysisResult, InterferenceAnalyzer};
use crate::cpi_stack::Resource;
use crate::epoch_index::EpochIndex;
use crate::placement::PlacementManager;
use crate::repository::BehaviorRepository;
use crate::synthetic::SyntheticBenchmark;
use crate::warning::{WarningConfig, WarningDecision, WarningSystem};
use mitigate::PendingMigration;
use records::{Ring, VmRecords};

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
    /// first placement decision); training needs at least eight, so
    /// [`DeepDive::new`] raises fewer to `8`.
    pub synthetic_training_samples: usize,
    /// RNG seed for the synthetic benchmark training.
    pub seed: u64,
    /// Failure-domain spread preference for mitigation migrations: with
    /// `Some(topology)`, acceptable destinations outside the afflicted
    /// machine's power domain win over same-domain ones (see
    /// `PlacementManager::with_spread`).  `None` (the default) picks
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
    /// outage window, each deferral once; a deferral that lapsed while its
    /// VM was quiet is over, so the VM's next deferral counts anew.
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
    /// All per-VM state — the phase (cooldown or deferral) and the
    /// analysis window, in one slab — dropped by [`DeepDive::forget_vms`].
    vms: VmRecords,
    /// Counter-derived fault schedule shared with the datacenter service;
    /// `None` (or a disabled plane) leaves every degradation path inert.
    fault_plane: Option<cloudsim::FaultPlane>,
    /// Mitigation migrations awaiting a backed-off retry, in schedule order.
    pending_migrations: Vec<PendingMigration>,
    /// This epoch's reports, indexed: behaviours, application groups and,
    /// once a mitigation asks, machine groups.  Reused scratch: cleared
    /// (not dropped) between epochs so the steady-state warning path
    /// performs no heap allocation.
    index: EpochIndex,
    /// This epoch's window ring of every report, parallel to the reports.
    report_rings: Vec<Ring>,
    /// This epoch's decisions other than `NormalLocal`, by report index —
    /// the only ones the controller acts on.  Reused scratch.
    decisions: Vec<(u32, WarningDecision)>,
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
    ///
    /// # Panics
    ///
    /// If `config.performance_threshold` lies outside (0, 1).
    pub fn new(mut config: DeepDiveConfig, fleet: SandboxFleet) -> Self {
        // Clamped once, here: the analyzer needs at least one epoch, and
        // training the synthetic benchmark at least eight samples.
        config.analysis_window = config.analysis_window.max(1);
        config.synthetic_training_samples = config.synthetic_training_samples.max(8);
        let analyzer = InterferenceAnalyzer::new(config.performance_threshold);
        let mut placement = PlacementManager::new(ACCEPTABLE_DESTINATION_INTERFERENCE);
        if let Some(topology) = config.spread_topology {
            placement = placement.with_spread(topology);
        }
        let warning = WarningSystem::new(config.warning.clone());
        let profiling_by_pool = vec![0.0; fleet.pools().len()];
        let vms = VmRecords::new(config.analysis_window);
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
            vms,
            fault_plane: None,
            pending_migrations: Vec::new(),
            index: EpochIndex::default(),
            report_rings: Vec::new(),
            decisions: Vec::new(),
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
    /// schedules the controller must degrade around; those are the only
    /// streams it reads.  Which machines may take a migrated VM it reads
    /// from the cluster's down and draining bits, which a
    /// [`cloudsim::service::DatacenterService`] sweeping the same plane
    /// keeps — share the plane (it is `Copy`) with that service so both
    /// layers see one schedule.  A disabled plane is byte-for-byte inert.
    pub fn set_fault_plane(&mut self, plane: cloudsim::FaultPlane) {
        self.fault_plane = Some(plane);
    }

    /// The running statistics.
    pub fn stats(&self) -> DeepDiveStats {
        self.stats
    }

    /// The behaviour repository (read access for the evaluation).
    pub fn repository(&self) -> &BehaviorRepository {
        &self.repository
    }

    /// True when the warning system still treats this application
    /// conservatively (no learned clusters yet).
    pub fn in_conservative_mode(&self, app: AppId) -> bool {
        self.warning.in_conservative_mode(app)
    }

    /// Drops everything the controller keeps per VM — its phase, with any
    /// cooldown or deferral, and its window's slot, which the next new VM
    /// reuses from `Watching` — for VMs that left the datacenter for good
    /// (departed or abandoned; see `DatacenterService::departed_last_epoch`);
    /// without it that state grows with every session ever admitted.  Do
    /// **not** pass VMs merely parked between machines: they report again
    /// and their windows must survive.  A pending mitigation retry whose
    /// victim is forgotten still drains on schedule (as a
    /// `MigrationSkipped`), exactly as if the VM had only stopped reporting.
    pub(crate) fn forget_vms(&mut self, gone: &[VmId]) {
        for &vm in gone {
            self.vms.forget(vm, &self.config);
        }
    }

    /// Number of VMs the controller currently holds state for.
    // simlint: test-accessor (the leak checks of the closed-loop tests)
    pub fn tracked_vms(&self) -> usize {
        self.vms.len()
    }

    /// Processes one epoch of cluster reports: Algorithm 1 for every VM, and
    /// Algorithm 2 (plus placement) for whatever the warning system escalates.
    ///
    /// Each report costs one record probe (its window row) and one model
    /// check.  The reports are indexed once (`EpochIndex`: behaviours and
    /// application groups; machine groups only if a mitigation needs them),
    /// and the warning models are refreshed **once per application per
    /// epoch**, before the sweep (an O(1) generation check per app in the
    /// steady state).  Behaviours the epoch itself adds to the repository
    /// are picked up by the next epoch's refresh, so every decision is a
    /// pure function of the refreshed models and the index: the sweep
    /// decides application group by application group, one model lookup
    /// per group, and only the decisions other than `NormalLocal` are then
    /// acted on, in report order.  A VM's application's other VMs are
    /// looked at only when its own model check fails.
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
        events.extend(self.drain_pending_migrations(cluster, reports, &mut index, epoch));

        // Record the epoch — counters and the duplicated request stream —
        // in every reporting VM's window.
        self.vms.record_epoch(reports, &mut self.report_rings);

        // One model refresh per application per epoch, O(1) when that
        // application's repository generation is unchanged.  The work list
        // is the index's application keys, ascending, so refit accounting
        // is a pure function of the reports.
        for &app in index.by_app.keys() {
            self.warning.refresh_model(app, &self.repository);
        }

        // Algorithm 1, one application group at a time: one model lookup,
        // and the group's other members as each VM's peers, idle ones
        // included.  Idle VMs are skipped: an empty behaviour carries no
        // signal.
        self.stats.evaluations += reports.len() as u64;
        for (app, group) in index.by_app.iter() {
            let warning = self.warning.for_app(app);
            for (at_group, &at) in group.iter().enumerate() {
                if reports[at as usize].counters.inst_retired <= 0.0 {
                    continue;
                }
                // A lazy view; `evaluate` pulls from it only once the local
                // check has failed.
                let peers = self
                    .config
                    .use_global_information
                    .then(|| {
                        let (before, rest) = group.split_at(at_group);
                        before.iter().chain(&rest[1..])
                    })
                    .into_iter()
                    .flatten()
                    .map(|&peer| &index.behaviors[peer as usize]);
                let decision = warning.evaluate(&index.behaviors[at as usize], peers);
                if decision != WarningDecision::NormalLocal {
                    self.decisions.push((at, decision));
                }
            }
        }

        let mut decisions = std::mem::take(&mut self.decisions);
        // Report indices are distinct: one order.
        decisions.sort_unstable_by_key(|&(at, _)| at);
        for &(at, decision) in &decisions {
            let report = &reports[at as usize];
            if decision == WarningDecision::NormalGlobal {
                // Workload change shared across the application's VMs:
                // extend the set of known behaviours without profiling.
                self.stats.global_matches += 1;
                let behavior = index.behaviors[at as usize];
                self.repository.record_normal(report.app, behavior, epoch);
            } else {
                let ring = self.report_rings[at as usize];
                events.extend(self.attribute(cluster, reports, &mut index, report, ring, decision));
            }
        }
        decisions.clear();
        self.decisions = decisions;
        self.index = index;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};

    use cloudsim::{ClusterSeed, EpochEngine, Scheduler};
    use hwsim::{CounterSnapshot, MachineSpec, ResourceDemand};
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

    /// Analyses currently waiting out a sandbox-pool outage.
    fn deferred_analyses(dd: &DeepDive) -> usize {
        // A free slot is `Watching`, so every slot can be counted.
        let phases = dd.vms.phases().iter();
        phases
            .filter(|phase| matches!(phase, records::VmPhase::Deferred { .. }))
            .count()
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
        assert_eq!(
            (deferred_analyses(&dd), dd.pending_migrations.len()),
            (0, 0)
        );
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(1)));
    }

    #[test]
    fn a_deferral_that_lapsed_while_the_vm_was_quiet_defers_its_next_warning() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        // One victim learns its behaviour with the sandbox pool up.  Then
        // the pool goes down for good, and an aggressor beside the victim
        // for epochs 70–71 defers its analysis until epoch 82.  The victim
        // is quiet when that deadline passes, so its next warning — a
        // second aggressor at epoch 120 — must start a fresh deferral
        // rather than degrade on sight on the stale deadline.
        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        let mut events = Vec::new();
        for epoch in 0..140u64 {
            match epoch {
                70 => {
                    dd.set_fault_plane(FaultPlane::new(
                        3,
                        FaultConfig {
                            sandbox_outage_per_epoch: 1.0,
                            outage_epochs: (1, 1),
                            ..FaultConfig::disabled()
                        },
                    ));
                    cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
                }
                72 => {
                    cluster.remove_vm(VmId(99));
                }
                120 => cluster.place_on(PmId(0), aggressor_vm(98)).unwrap(),
                _ => {}
            }
            let reports = engine.step(&mut cluster, |_| 0.8);
            let emitted = dd.process_epoch(&mut cluster, &reports);
            events.extend(emitted.into_iter().map(|e| (epoch, e)));
        }
        // VM 1 waits at 120 like the newcomer 98, and both degrade at 132.
        assert_eq!(
            timeline(&events),
            "0:analyzed(1) 30:analyzed(1) 70:deferred(1,82) 70:deferred(99,82) \
             120:deferred(1,132) 120:deferred(98,132) 132:degraded(1) 132:degraded(98)"
        );
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
        assert_eq!((dd.tracked_vms(), deferred_analyses(&dd)), (2, 2));
        // VM 1's session ends while its analysis is still waiting.
        cluster.remove_vm(VmId(1));
        dd.forget_vms(&[VmId(1)]);
        assert_eq!((dd.tracked_vms(), deferred_analyses(&dd)), (1, 1));
        // The survivor's window and deferral are untouched.
        run(&mut cluster, &mut dd, &engine, 3, 0.8);
        assert_eq!((dd.tracked_vms(), deferred_analyses(&dd)), (1, 1));
        assert_eq!(dd.stats().analyses_deferred, 2);
        // Nothing of VM 1 is left: one record is all there ever was ...
        assert_eq!(dd.vms.ring(VmId(1)), None);
        // ... so when the id re-appears it starts over: a one-epoch window,
        // no cooldown, and a *new* deferral (counted) rather than the old
        // one's deadline.
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        run(&mut cluster, &mut dd, &engine, 1, 0.8);
        let ring = dd.vms.ring(VmId(1)).unwrap();
        assert_eq!(
            (dd.vms.window(ring).count(), dd.vms.phase(ring)),
            (1, records::VmPhase::Deferred { deadline: 6 + 12 })
        );
        assert_eq!((dd.tracked_vms(), deferred_analyses(&dd)), (2, 2));
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
    fn mitigation_never_lands_on_a_down_or_draining_machine() {
        use cloudsim::faults::{FaultConfig, FaultPlane};
        use cloudsim::service::{DatacenterService, ServiceConfig};
        use traces::VmSession;

        // Drains only, with a 40-epoch notice, swept by the service into
        // the cluster's draining bits (all the machine state mitigation
        // reads).  Fault seed 91 has machine 1 — the first of two equally
        // empty destinations — draining through epochs 35..75 and machines
        // 0 and 2 open throughout, so victim and aggressor stay together
        // and mitigation must pass machine 1 over.
        let plane = FaultPlane::new(
            91,
            FaultConfig {
                machine_drain_per_epoch: 0.02,
                drain_notice_epochs: 40,
                maintenance_epochs: (1, 1),
                ..FaultConfig::disabled()
            },
        );
        // A victim from epoch 0 and a tenant landing beside it at epoch 49,
        // both busy past the run; the service builds only cloud workloads,
        // so the tenant is swapped for an aggressor under its own id.
        let sessions = [0.0, 48.5]
            .map(|arrival_s| VmSession {
                arrival_s,
                lifetime_s: 1_000.0,
                active_load: 0.8,
                app_rank: 2,
            })
            .to_vec();
        let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(3, 3), sessions);
        svc.set_fault_plane(plane);
        let mut dd = controller(true, svc.cluster());
        dd.set_fault_plane(plane);
        let mut migrations = 0;
        for epoch in 0..90 {
            let reports = svc.step_epoch();
            for event in dd.process_epoch(svc.cluster_mut(), &reports) {
                if let EpochEvent::Migrated { to, .. } = event {
                    migrations += 1;
                    assert!(
                        !plane.machine_down(to, epoch) && !plane.machine_draining(to, epoch),
                        "migrated onto {to} at epoch {epoch}, which accepts no placements"
                    );
                }
            }
            if epoch == 49 {
                let cluster = svc.cluster_mut();
                assert_eq!(cluster.locate(VmId(1)), Some(PmId(0)));
                cluster.remove_vm(VmId(1));
                cluster.place_on(PmId(0), aggressor_vm(1)).unwrap();
            }
        }
        assert_eq!(svc.audit(), Vec::<String>::new());
        assert_eq!(migrations, 1);
        assert_eq!(svc.cluster().locate(VmId(1)), Some(PmId(2)));
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

    /// Like `run`, but the tenants with ids from 10 up idle: they hold room
    /// on their machines without interfering, so placement weighs capacity
    /// rather than predicted interference there.
    fn run_beside_idle_tenants(
        cluster: &mut Cluster,
        dd: &mut DeepDive,
        engine: &EpochEngine,
        epochs: usize,
    ) -> Vec<EpochEvent> {
        let mut events = Vec::new();
        for _ in 0..epochs {
            let reports = engine.step(cluster, |vm| if vm.0 >= 10 { 0.0 } else { 0.8 });
            events.extend(dd.process_epoch(cluster, &reports));
        }
        events
    }

    fn placement(cluster: &Cluster) -> Vec<Vec<VmId>> {
        let machines = cluster.machines().iter();
        machines
            .map(|m| m.vms().iter().map(|vm| vm.id).collect())
            .collect()
    }

    /// The reasons of every `MigrationSkipped` event.
    fn skip_reasons(events: &[EpochEvent]) -> Vec<&str> {
        events
            .iter()
            .filter_map(|e| match e {
                EpochEvent::MigrationSkipped { reason, .. } => Some(reason.as_str()),
                _ => None,
            })
            .collect()
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
        run_beside_idle_tenants(&mut cluster, &mut dd, &engine, 50);
        let wide_aggressor = cloudsim::Vm::with_shape(
            VmId(99),
            4,
            2_048.0,
            Box::new(MemoryStress::new(AppId(900), 512.0)),
            ClientEmulator::new(1.0, 1.0),
        );
        cluster.place_on(PmId(0), wide_aggressor).unwrap();
        let before = placement(&cluster);
        let confirmed_before = dd.stats().interference_confirmed;
        let events = run_beside_idle_tenants(&mut cluster, &mut dd, &engine, 40);
        let stats = dd.stats();
        assert_eq!(
            stats.interference_confirmed - confirmed_before,
            1,
            "{stats:?}"
        );
        // No destination has four free cores, so the decision is one skip:
        // no doomed migration attempt, hence nothing to retry.
        assert_eq!((stats.migrations, stats.migration_retries), (0, 0));
        let skips = skip_reasons(&events);
        assert_eq!(skips.len(), 1, "{events:?}");
        assert_ne!(skips[0], "destination ran out of capacity");
        assert_eq!(placement(&cluster), before, "placement must be untouched");
    }

    #[test]
    fn candidates_without_capacity_are_skipped() {
        // Machine 1 is full, so it is never a candidate: the decision is
        // one skip, with no migration attempted and nothing to retry.
        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        for id in 10..14 {
            cluster.place_on(PmId(1), serving_vm(id, 2)).unwrap();
        }
        let mut dd = controller(true, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        run_beside_idle_tenants(&mut cluster, &mut dd, &engine, 50);
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
        let before = placement(&cluster);
        let events = run_beside_idle_tenants(&mut cluster, &mut dd, &engine, 40);
        let stats = dd.stats();
        assert!(stats.interference_confirmed >= 1, "{stats:?}");
        assert_eq!((stats.migrations, stats.migration_retries), (0, 0));
        let skips = skip_reasons(&events);
        assert!(!skips.is_empty(), "{events:?}");
        assert!(skips
            .iter()
            .all(|&r| r != "destination ran out of capacity"));
        assert_eq!(placement(&cluster), before, "placement must be untouched");
    }

    #[test]
    fn mitigation_skips_a_destination_without_free_memory() {
        // Machines 1 and 2 each host one idle tenant and predict the same
        // interference, so the lowest id, machine 1, is the best-predicted
        // destination.  Its tenant holds 7 000 of the Xeon's 8 192 MiB: six
        // cores are free but the 2 048 MiB aggressor does not fit.  Judged
        // by free cores alone, every retry picks machine 1 and fails with
        // `NoCapacity`; judged by admission, the aggressor lands on 2.
        let mut cluster = Cluster::homogeneous(3, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let memory_heavy = cloudsim::Vm::with_shape(
            VmId(10),
            2,
            7_000.0,
            Box::new(DataServing::with_defaults(AppId(2))),
            ClientEmulator::new(8_000.0, 4.0),
        );
        cluster.place_on(PmId(1), memory_heavy).unwrap();
        cluster.place_on(PmId(2), serving_vm(11, 2)).unwrap();
        let mut dd = controller(true, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        run_beside_idle_tenants(&mut cluster, &mut dd, &engine, 50);
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
        let events = run_beside_idle_tenants(&mut cluster, &mut dd, &engine, 40);
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(2)), "{events:?}");
        let stats = dd.stats();
        assert_eq!((stats.migrations, stats.migration_retries), (1, 0));
        assert!(skip_reasons(&events).is_empty(), "{events:?}");
    }

    #[test]
    fn a_lone_one_vcpu_tenant_is_replayed_at_its_own_width() {
        // No neighbour, so nothing can interfere: the sandbox clone must run
        // as wide as the tenant does in production, or the isolation run's
        // extra vCPU reads as degradation.
        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        let narrow = cloudsim::Vm::with_shape(
            VmId(1),
            1,
            2_048.0,
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        );
        cluster.place_on(PmId(0), narrow).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        let events = run(&mut cluster, &mut dd, &engine, 60, 0.8);
        let degradations: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                EpochEvent::Analyzed { result, .. } => Some(result.degradation),
                _ => None,
            })
            .collect();
        assert!(!degradations.is_empty(), "bootstrap must analyze");
        assert!(degradations.iter().all(|&d| d < 0.05), "{degradations:?}");
        assert_eq!(dd.stats().interference_confirmed, 0, "{:?}", dd.stats());
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
    fn too_few_training_samples_mitigate_like_the_fewest_training_accepts() {
        // Regression: fewer than eight samples passed `DeepDive::new` and
        // then panicked in the synthetic benchmark's training, at the run's
        // first mitigation.
        let run_with = |synthetic_training_samples: usize| {
            let mut cluster =
                Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
            cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
            let config = DeepDiveConfig {
                synthetic_training_samples,
                ..Default::default()
            };
            let mut dd = DeepDive::for_cluster(config, &cluster);
            let engine = EpochEngine::serial(ClusterSeed::new(3));
            let mut events = run(&mut cluster, &mut dd, &engine, 50, 0.8);
            cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
            events.extend(run(&mut cluster, &mut dd, &engine, 40, 0.8));
            (events, dd.stats(), cluster.locate(VmId(99)))
        };
        let (events, stats, aggressor_on) = run_with(0);
        assert_eq!((stats.migrations, aggressor_on), (1, Some(PmId(1))));
        assert_eq!((events, stats, aggressor_on), run_with(8));
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
                fleet.select_index(machine.spec()).1,
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
    fn pretrained_and_lazily_trained_benchmarks_decide_identically() {
        // Three apps across three machines plus an aggressor, long enough to
        // cover bootstrap, multi-app refits, confirmed interference,
        // benchmark training (lazy in one run, eager `pretrain_benchmarks`
        // in the other) and migration — the full control plane.
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

        let engine = EpochEngine::serial(ClusterSeed::new(5));
        let mut lazy_cluster = build();
        let mut lazy_dd = controller(true, &lazy_cluster);
        let lazy_events = run(&mut lazy_cluster, &mut lazy_dd, &engine, 50, 0.8);

        let mut eager_cluster = build();
        let mut eager_dd = controller(true, &eager_cluster);
        eager_dd.pretrain_benchmarks(&eager_cluster);
        let eager_events = run(&mut eager_cluster, &mut eager_dd, &engine, 50, 0.8);

        assert_eq!(lazy_events, eager_events, "event streams diverged");
        assert_eq!(lazy_dd.stats(), eager_dd.stats(), "stats diverged");
        assert_eq!(
            lazy_cluster.locate(VmId(99)),
            eager_cluster.locate(VmId(99)),
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

    #[test]
    fn the_sweep_probes_each_record_once_and_looks_up_each_model_once() {
        // Twelve tenants of three applications on four machines, and a
        // memory aggressor beside three of them after bootstrap: bootstrap
        // analyses, quiet epochs, confirmed interference and mitigation.
        let mut cluster = Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
        for vm in 0..12u64 {
            cluster
                .place_on(PmId(vm % 4), serving_vm(vm + 1, 1 + vm % 3))
                .unwrap();
        }
        let mut dd = controller(true, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        for epoch in 0..70 {
            if epoch == 40 {
                cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
            }
            let reports = engine.step(&mut cluster, |_| 0.8);
            let apps: std::collections::BTreeSet<AppId> = reports.iter().map(|r| r.app).collect();
            let (probes, lookups) = (dd.vms.probes(), dd.warning.model_lookups());
            let events = dd.process_epoch(&mut cluster, &reports);
            // Escalations that got past their cooldown; the ones it gated
            // count as none, which only tightens the bound.
            let escalations = events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        EpochEvent::Analyzed { .. }
                            | EpochEvent::AnalysisDeferred { .. }
                            | EpochEvent::AnalysisDegraded { .. }
                    )
                })
                .count() as u64;
            let probes = dd.vms.probes() - probes;
            assert!(
                probes <= reports.len() as u64 + 2 * escalations,
                "epoch {epoch}: {probes} record probes for {} reports and {escalations} escalations",
                reports.len()
            );
            let lookups = dd.warning.model_lookups() - lookups;
            assert!(
                lookups <= apps.len() as u64,
                "epoch {epoch}: {lookups} model lookups for {} applications",
                apps.len()
            );
        }
        let stats = dd.stats();
        assert!(stats.interference_confirmed >= 1, "{stats:?}");
        assert!(stats.analyzer_invocations >= 12, "{stats:?}");
    }

    /// The window an analysis of `vm` would replay now, oldest epoch
    /// first; `None` while the controller holds no record for it.
    fn replay_window(dd: &DeepDive, vm: VmId) -> Option<Vec<(CounterSnapshot, ResourceDemand)>> {
        let ring = dd.vms.ring(vm)?;
        Some(dd.vms.window(ring).cloned().collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn replayed_windows_match_a_per_vm_deque_reference(
            analysis_window in 1usize..7,
            // Per epoch: which of twelve VM ids report (a clear bit is a VM
            // that skips the epoch, as a parked evacuee does), and two masks
            // whose conjunction is forgotten before the epoch.
            steps in proptest::collection::vec((0u16..4096, 0u16..4096, 0u16..4096), 1..40),
        ) {
            let mut cluster =
                Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
            cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
            let template = EpochEngine::serial(ClusterSeed::new(5)).step(&mut cluster, |_| 0.8)[0].clone();
            let config = DeepDiveConfig {
                analysis_window,
                ..Default::default()
            };
            let mut dd = DeepDive::for_cluster(config, &cluster);
            // The pool is always down: every escalation defers, so the
            // stream exercises the records without running the sandbox.
            dd.set_fault_plane(cloudsim::FaultPlane::new(
                3,
                cloudsim::faults::FaultConfig {
                    sandbox_outage_per_epoch: 1.0,
                    outage_epochs: (1, 1),
                    ..cloudsim::faults::FaultConfig::disabled()
                },
            ));
            let mut reference: HashMap<VmId, VecDeque<(CounterSnapshot, ResourceDemand)>> =
                HashMap::new();
            for (epoch, &(present, forget_a, forget_b)) in steps.iter().enumerate() {
                let epoch = epoch as u64;
                // About one id in four is forgotten; it may report again at
                // once, a fresh VM under a recycled id.
                let gone: Vec<VmId> = (0..12u64)
                    .filter(|id| forget_a & forget_b & (1 << id) != 0)
                    .map(VmId)
                    .collect();
                dd.forget_vms(&gone);
                for vm in &gone {
                    reference.remove(vm);
                }
                let reports: Vec<VmEpochReport> = (0..12u64)
                    .filter(|id| present & (1 << id) != 0)
                    .map(|id| {
                        let mut report = template.clone();
                        report.vm_id = VmId(id);
                        report.app = AppId(1 + id % 3);
                        report.epoch = epoch;
                        report.counters.cpu_unhalted = (epoch * 100 + id) as f64;
                        report.demand.instructions = (epoch * 1000 + id) as f64;
                        // Every third VM idles every other epoch.
                        if id % 3 == 0 && epoch % 2 == 1 {
                            report.counters.inst_retired = 0.0;
                        }
                        report
                    })
                    .collect();
                dd.process_epoch(&mut cluster, &reports);
                for r in &reports {
                    let window = reference.entry(r.vm_id).or_default();
                    window.push_back((r.counters, r.demand.clone()));
                    if window.len() > analysis_window {
                        window.pop_front();
                    }
                }
                proptest::prop_assert_eq!(dd.tracked_vms(), reference.len());
                for id in 0..12u64 {
                    let expected = reference.get(&VmId(id)).map(|w| w.iter().cloned().collect());
                    proptest::prop_assert_eq!(
                        replay_window(&dd, VmId(id)),
                        expected,
                        "vm {} at epoch {}",
                        id,
                        epoch
                    );
                }
            }
        }
    }

    /// FNV-1a over `text`, continuing from `hash`.
    fn fold(hash: u64, text: &str) -> u64 {
        text.bytes().fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    #[test]
    fn a_small_world_with_parked_vms_folds_to_the_recorded_digest() {
        use crate::service::ManagedDatacenter;
        use cloudsim::faults::{FaultConfig, FaultPlane};
        use cloudsim::service::{DatacenterService, ServiceConfig};
        use traces::VmSession;

        // Three machines, fourteen long busy sessions and frequent crashes:
        // evacuees often find no room and park in the service's retry queue,
        // skipping epochs before they report again with their windows
        // intact.  Sandbox outages and failing migrations run beside them.
        let sessions: Vec<VmSession> = (0..14)
            .map(|i| VmSession {
                arrival_s: i as f64 * 0.25,
                lifetime_s: 900.0 + 40.0 * i as f64,
                active_load: 0.85,
                app_rank: 1 + i % 3,
            })
            .collect();
        let service = DatacenterService::new(ServiceConfig::xeon_fleet(3, 8), sessions);
        let config = DeepDiveConfig {
            performance_threshold: 0.03,
            analysis_cooldown: 12,
            confirmed_cooldown: 24,
            synthetic_training_samples: 60,
            // Conservative mode lasts long enough for parked VMs to be
            // analysed after they come back.
            warning: WarningConfig {
                min_behaviors_for_clustering: 150,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut dc = ManagedDatacenter::new(service, config);
        dc.set_fault_plane(FaultPlane::new(
            4,
            FaultConfig {
                machine_crash_per_epoch: 0.03,
                repair_epochs: (3, 9),
                migration_failure: 0.2,
                sandbox_outage_per_epoch: 0.05,
                outage_epochs: (2, 6),
                ..FaultConfig::disabled()
            },
        ));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut last_seen: HashMap<VmId, u64> = HashMap::new();
        let mut gaps = 0;
        for epoch in 0..240u64 {
            let (reports, events) = dc.step_epoch();
            for r in &reports {
                if last_seen
                    .insert(r.vm_id, epoch)
                    .is_some_and(|last| last + 1 < epoch)
                {
                    gaps += 1;
                }
            }
            for event in &events {
                digest = fold(digest, &format!("{epoch}:{event:?};"));
            }
        }
        digest = fold(digest, &format!("{:?}", dc.controller_stats()));
        let service = dc.service_stats();
        assert!(service.retries > 0, "no VM ever parked: {service:?}");
        assert!(gaps > 0, "no VM skipped an epoch and reported again");
        let stats = dc.controller_stats();
        assert_eq!(
            (
                gaps,
                service.retries,
                stats.analyzer_invocations,
                stats.migrations,
                stats.global_matches
            ),
            (60, 216, 88, 4, 641)
        );
        // Every event and the final stats, folded; recorded before the
        // per-VM windows moved into one slab.
        assert_eq!(digest, 0x0011_52bc_eeed_955d);
    }
}
