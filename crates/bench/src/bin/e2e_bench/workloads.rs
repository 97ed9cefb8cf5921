//! The five workloads: generated inputs, fleet construction and the
//! one-epoch drivers the harness times.
//!
//! Every workload is a closed loop with one client on one thread: the
//! harness issues epoch *e + 1* only after epoch *e* returned.  Run length
//! is a fixed epoch count derived from `--seconds`, so both sides of a
//! comparison do identical simulated work and every simulated statistic
//! repeats exactly for a seed.

use std::collections::VecDeque;

use cloudsim::audit;
use cloudsim::faults::{FaultConfig, FaultPlane, Topology};
use cloudsim::service::{DatacenterService, ServiceConfig, ServiceStats};
use cloudsim::{Cluster, ClusterSeed, EpochEngine, PmId, Scheduler, Vm, VmEpochReport, VmId};
use deepdive::controller::{DeepDive, DeepDiveConfig, DeepDiveStats, EpochEvent};
use deepdive::ManagedDatacenter;
use hwsim::MachineSpec;
use traces::VmSession;
use workloads::{
    AppId, ClientEmulator, DataServing, DiskStress, MemoryStress, NetworkStress, WebSearch,
    Workload as TenantWorkload,
};

use crate::trace::{self, Counts, Tracer};

/// `--seconds` value the frozen epoch counts below are calibrated for
/// (`run_seconds` in `BENCHMARK.json`).
pub const NOMINAL_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ManagedHotmail,
    InterferenceEpisodes,
    ServiceChurnEc2,
    ServiceOutageDomain,
    EngineQuiescent,
}

/// Fleet size and run length of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub machines: usize,
    /// Sessions arriving over the whole run (session workloads only): the
    /// stated input size every seed's stream is resized to.
    pub sessions: usize,
    pub warmup: u64,
    pub timed: u64,
    /// Epochs an injected aggressor stays (`interference_episodes` only).
    pub episode_epochs: u64,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ManagedHotmail,
        Workload::InterferenceEpisodes,
        Workload::ServiceChurnEc2,
        Workload::ServiceOutageDomain,
        Workload::EngineQuiescent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ManagedHotmail => "managed_hotmail",
            Workload::InterferenceEpisodes => "interference_episodes",
            Workload::ServiceChurnEc2 => "service_churn_ec2",
            Workload::ServiceOutageDomain => "service_outage_domain",
            Workload::EngineQuiescent => "engine_quiescent",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ManagedHotmail => {
                "Full closed loop (service + light faults + controller) on the canonical \
                 10k-machine fleet; the quiet warning sweep dominates. Fault schedule and \
                 session count are the same for every seed"
            }
            Workload::InterferenceEpisodes => {
                "Ground-truth aggressors beside tenants every epoch: analyzer, sandbox replay, \
                 placement and migration do the work; service and faults are absent"
            }
            Workload::ServiceChurnEc2 => {
                "Bursty arrivals and departures through the service alone: event queue, hint \
                 queue, next-fit, the engine's active path; bypasses controller and faults. \
                 Same session count for every seed"
            }
            Workload::ServiceOutageDomain => {
                "Same service layer under domain outages and drains with spread placement: \
                 evacuation bursts set the tail; bypasses the controller. Fault schedule and \
                 session count are the same for every seed"
            }
            Workload::EngineQuiescent => {
                "Static fleet, 10% of machines active: the engine's replay and report \
                 materialisation path alone; controller, service and faults absent"
            }
        }
    }

    /// The frozen parameters: full size scaled to `seconds`, or the
    /// `--quick` smoke size (about 200 machines, at most 80 epochs).
    pub fn shape(self, quick: bool, seconds: u64) -> Shape {
        // (machines, sessions per epoch, warm-up epochs, timed epochs)
        let (machines, per_epoch, warmup, timed) = match self {
            Workload::ManagedHotmail => (10_000, 6.5, 300, 1_500),
            Workload::InterferenceEpisodes => (1_024, 0.0, 60, 2_700),
            Workload::ServiceChurnEc2 => (10_000, 50.0, 200, 4_000),
            Workload::ServiceOutageDomain => (10_000, 46.0, 200, 800),
            Workload::EngineQuiescent => (10_000, 0.0, 1, 4_000),
        };
        let (machines, per_epoch, warmup, timed, episode_epochs) = if quick {
            // Arrivals shrink less than the fleet so the few epochs of a
            // smoke run still see arrivals, departures and evacuations.
            (200, per_epoch * 0.2, warmup.min(20), 60, 20)
        } else {
            let timed = (timed * seconds.max(1) / NOMINAL_SECONDS).max(1);
            (machines, per_epoch, warmup, timed, 60)
        };
        Shape {
            machines,
            sessions: (per_epoch * (warmup + timed) as f64) as usize,
            warmup,
            timed,
            episode_epochs,
        }
    }

    /// Time compression applied to the preset session stream.
    fn compression(self) -> f64 {
        match self {
            Workload::ServiceChurnEc2 => 60.0,
            _ => 48.0,
        }
    }

    /// The fault schedule the workload runs under, if any.  Its seed is
    /// fixed, not derived from `--seed`: `service_outage_domain` sees about
    /// a hundred domain outages a run and spends most of its time in them,
    /// so their Poisson count alone spread `vm_epochs_per_s` by 16% across
    /// seeds and would force a bound that hides real regressions.
    pub fn fault_plane(self) -> Option<FaultPlane> {
        let config = match self {
            Workload::ManagedHotmail => FaultConfig::light(),
            Workload::ServiceOutageDomain => FaultConfig {
                machine_drain_per_epoch: 0.004,
                drain_notice_epochs: 8,
                maintenance_epochs: (4, 12),
                ..FaultConfig::domain_outages(Topology::conventional())
            },
            _ => return None,
        };
        Some(FaultPlane::new(0xFA17, config))
    }

    /// The tenant mix sharing a machine, for the resolver unit-cost probe.
    pub fn tenant_mix(self) -> Vec<Box<dyn TenantWorkload>> {
        let mut mix: Vec<Box<dyn TenantWorkload>> = vec![
            Box::new(DataServing::with_defaults(AppId(1))),
            Box::new(WebSearch::with_defaults(AppId(2))),
        ];
        if self == Workload::InterferenceEpisodes {
            mix.push(Box::new(MemoryStress::new(AppId(AGGRESSOR_APP), 384.0)));
        } else {
            mix.push(Box::new(DataServing::with_defaults(AppId(1))));
            mix.push(Box::new(WebSearch::with_defaults(AppId(2))));
        }
        mix
    }
}

/// The harness's first transform on a preset stream: divide every arrival
/// instant and lifetime by `k`, so a run of a few thousand epochs covers the
/// whole arrive → active → idle → depart life cycle, not only the ramp-up.
fn compress(mut sessions: Vec<VmSession>, k: f64) -> Vec<VmSession> {
    for session in &mut sessions {
        session.arrival_s /= k;
        session.lifetime_s /= k;
    }
    sessions
}

/// The harness's other transform: keep exactly `keep` sessions, evenly
/// spaced through the stream.  The presets' volume wobbles with the seed
/// (the Hotmail day scale alone is ±10%, and the controller's cost grows
/// faster than linearly with it), so the stream is requested with headroom
/// and cut to the workload's stated input size; shape and burstiness stay
/// the seed's own.
fn resize(sessions: Vec<VmSession>, keep: usize) -> Vec<VmSession> {
    let n = sessions.len();
    if n <= keep {
        return sessions;
    }
    (0..keep).map(|i| sessions[i * n / keep]).collect()
}

/// Requested peak rate over the stated mean rate: enough that every seed's
/// stream reaches the stated size.  The Hotmail preset thins arrivals by its
/// diurnal intensity (0.25 to 1.0, lowest in the early hours a short run
/// covers) and scales each day by ±10%; a unit test pins the margin.
const STREAM_HEADROOM: f64 = 2.5;

/// VMs per machine of the static engine fleet (the Xeon's real capacity
/// with 2-vCPU VMs), as in the `datacenter_throughput` bench.
const VMS_PER_MACHINE: u64 = 4;

/// Offered load of the static fleet with `permille / 1000` of the machines
/// busy — the `datacenter_throughput` bench's function, so the
/// `engine_quiescent` row stays comparable with `BENCH_datacenter.json`.
fn static_fleet_load(vm: VmId, permille: u64) -> f64 {
    let machine = vm.0 / VMS_PER_MACHINE;
    if machine % 1000 < permille {
        0.6 + 0.05 * (vm.0 % 4) as f64
    } else {
        0.0
    }
}

fn data_serving(id: u64, app: u64) -> Vm {
    Vm::new(
        VmId(id),
        Box::new(DataServing::with_defaults(AppId(app))),
        ClientEmulator::new(8_000.0, 4.0),
    )
}

fn web_search(id: u64, app: u64) -> Vm {
    Vm::new(
        VmId(id),
        Box::new(WebSearch::with_defaults(AppId(app))),
        ClientEmulator::new(1_200.0, 25.0),
    )
}

/// Aggressor VM ids start here, far above any tenant id.
const AGGRESSOR_BASE: u64 = 1_000_000;
/// First of the three aggressor application ids.
const AGGRESSOR_APP: u64 = 900;
/// Applications per tenant family in `interference_episodes`.
const APPS_PER_FAMILY: u64 = 64;

fn aggressor(epoch: u64) -> Vm {
    let workload: Box<dyn TenantWorkload> = match epoch % 3 {
        0 => Box::new(MemoryStress::new(AppId(AGGRESSOR_APP), 384.0)),
        1 => Box::new(NetworkStress::new(AppId(AGGRESSOR_APP + 1), 900.0)),
        _ => Box::new(DiskStress::new(AppId(AGGRESSOR_APP + 2), 80.0)),
    };
    Vm::new(
        VmId(AGGRESSOR_BASE + epoch),
        workload,
        ClientEmulator::new(1.0, 1.0),
    )
}

/// One injected interference episode and what became of it.
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    pub victim: VmId,
    pub aggressor: VmId,
    pub landed: u64,
    /// Epoch of the first confirmed analysis of the victim while the
    /// aggressor was resident.
    pub confirmed_at: Option<u64>,
}

/// `interference_episodes`: a static tenant fleet, one new aggressor per
/// epoch beside a scheduled victim, and the controller reacting.
pub struct Episodes {
    cluster: Cluster,
    engine: EpochEngine,
    controller: DeepDive,
    /// Machines hosting a tenant pair; the rest start empty as migration
    /// headroom.
    tenant_machines: u64,
    schedule_offset: u64,
    episode_epochs: u64,
    /// Episodes whose aggressor is resident, in landing order.
    active: VecDeque<Episode>,
    /// Episodes whose aggressor has left, in departure order.
    pub finished: Vec<Episode>,
    /// Aggressors the victim's machine had no room for.
    pub skipped: u64,
}

impl Episodes {
    fn new(seed: u64, shape: &Shape) -> Self {
        let mut cluster = Cluster::homogeneous(
            shape.machines,
            MachineSpec::xeon_x5472(),
            Scheduler::default(),
        );
        let tenant_machines = (shape.machines * 3 / 4) as u64;
        for m in 0..tenant_machines {
            let app = m % APPS_PER_FAMILY;
            for vm in [
                data_serving(2 * m, 1 + app),
                web_search(2 * m + 1, 101 + app),
            ] {
                // An empty 8-core machine always admits two 2-vCPU tenants.
                let placed = cluster.place_on(PmId(m), vm);
                debug_assert!(placed.is_ok());
            }
        }
        let mut controller = DeepDive::for_cluster(DeepDiveConfig::default(), &cluster);
        controller.pretrain_benchmarks(&cluster);
        Self {
            cluster,
            engine: EpochEngine::serial(ClusterSeed::new(seed)),
            controller,
            tenant_machines,
            schedule_offset: seed.wrapping_mul(31),
            episode_epochs: shape.episode_epochs,
            active: VecDeque::new(),
            finished: Vec::new(),
            skipped: 0,
        }
    }

    /// Retires expired aggressors and lands this epoch's next to its
    /// scheduled victim, wherever the controller has moved that victim.
    fn inject(&mut self, epoch: u64) -> Counts {
        let mut removed = 0;
        while let Some(front) = self.active.front() {
            if front.landed + self.episode_epochs > epoch {
                break;
            }
            if let Some(episode) = self.active.pop_front() {
                self.cluster.remove_vm(episode.aggressor);
                self.finished.push(episode);
                removed += 1;
            }
        }
        let slot = (epoch.wrapping_mul(7919).wrapping_add(self.schedule_offset))
            % self.tenant_machines.max(1);
        let victim = VmId(2 * slot);
        let vm = aggressor(epoch);
        let aggressor_id = vm.id;
        let landed = self
            .cluster
            .locate(victim)
            .is_some_and(|pm| self.cluster.place_on(pm, vm).is_ok());
        if landed {
            self.active.push_back(Episode {
                victim,
                aggressor: aggressor_id,
                landed: epoch,
                confirmed_at: None,
            });
        } else {
            self.skipped += 1;
        }
        vec![("placed", u64::from(landed)), ("removed", removed)]
    }

    fn step(&mut self, tracer: &mut Option<Tracer>) -> Vec<VmEpochReport> {
        let epoch = self.cluster.epoch();
        let t0 = open(tracer);
        let injected = self.inject(epoch);
        close(tracer, epoch, trace::INJECT, t0, || injected);

        let tenant_load = 0.6 + 0.25 * (epoch as f64 / 200.0).sin();
        let reports = engine_step(&self.engine, &mut self.cluster, tracer, |vm| {
            if vm.0 >= AGGRESSOR_BASE {
                1.0
            } else {
                tenant_load
            }
        });

        let events = controller_step(&mut self.controller, &mut self.cluster, &reports, tracer);
        for event in &events {
            let EpochEvent::Analyzed { vm, result, .. } = event else {
                continue;
            };
            if !result.interference_confirmed {
                continue;
            }
            for episode in self.active.iter_mut() {
                if episode.victim == *vm && episode.confirmed_at.is_none() {
                    episode.confirmed_at = Some(epoch);
                }
            }
        }
        reports
    }
}

/// A workload's whole simulated state, stepped one closed-loop epoch at a
/// time.
pub enum World {
    /// `managed_hotmail`, untraced: the library's own closed loop.
    Managed(Box<ManagedDatacenter>),
    /// `managed_hotmail`, traced: the three calls
    /// [`ManagedDatacenter::step_epoch`] makes, issued by the harness so a
    /// span can sit around each.  Must reproduce [`World::Managed`] bit for
    /// bit (checked through `sim_digest`).
    Decomposed {
        service: Box<DatacenterService>,
        controller: Box<DeepDive>,
    },
    Episodes(Box<Episodes>),
    Service(Box<DatacenterService>),
    Engine {
        cluster: Cluster,
        engine: EpochEngine,
    },
}

/// What building a world cost on the input side.
pub struct Built {
    pub world: World,
    /// Host seconds spent generating the session stream.
    pub generate_s: f64,
    pub sessions: usize,
}

/// The workload's session stream for `seed`: the preset, resized to the
/// stated input size and compressed.  Empty for the static-fleet workloads.
pub fn sessions_for(workload: Workload, seed: u64, shape: &Shape) -> Vec<VmSession> {
    let k = workload.compression();
    let horizon_days = (shape.warmup + shape.timed) as f64 * k / 86_400.0;
    let rate_per_day = STREAM_HEADROOM * shape.sessions as f64 / horizon_days;
    let sessions = match workload {
        Workload::ManagedHotmail | Workload::ServiceOutageDomain => {
            traces::hotmail_sessions(rate_per_day, horizon_days, seed)
        }
        Workload::ServiceChurnEc2 => traces::ec2_sessions(rate_per_day, horizon_days, seed),
        Workload::InterferenceEpisodes | Workload::EngineQuiescent => return Vec::new(),
    };
    compress(resize(sessions, shape.sessions), k)
}

/// Generates the workload's inputs from `seed` and constructs its fleet
/// (and controller).  `decomposed` selects the traced `managed_hotmail`
/// driver; every other workload ignores it.
pub fn build(workload: Workload, seed: u64, shape: &Shape, decomposed: bool) -> Built {
    let clock = std::time::Instant::now();
    let sessions = sessions_for(workload, seed, shape);
    let generate_s = clock.elapsed().as_secs_f64();
    let session_count = sessions.len();
    let plane = workload.fault_plane();
    let fleet = ServiceConfig::xeon_fleet(shape.machines, seed);
    let world = match workload {
        Workload::ManagedHotmail => {
            let topology = Topology::conventional();
            let service = DatacenterService::new(fleet.with_spread(topology), sessions);
            let config = DeepDiveConfig {
                spread_topology: Some(topology),
                ..DeepDiveConfig::default()
            };
            if decomposed {
                let mut service = Box::new(service);
                let mut controller = Box::new(DeepDive::for_cluster(config, service.cluster()));
                if let Some(plane) = plane {
                    service.set_fault_plane(plane);
                    controller.set_fault_plane(plane);
                }
                World::Decomposed {
                    service,
                    controller,
                }
            } else {
                let mut managed = Box::new(ManagedDatacenter::new(service, config));
                if let Some(plane) = plane {
                    managed.set_fault_plane(plane);
                }
                World::Managed(managed)
            }
        }
        Workload::ServiceChurnEc2 => {
            World::Service(Box::new(DatacenterService::new(fleet, sessions)))
        }
        Workload::ServiceOutageDomain => {
            let mut service = Box::new(DatacenterService::new(
                fleet.with_spread(Topology::conventional()),
                sessions,
            ));
            if let Some(plane) = plane {
                service.set_fault_plane(plane);
            }
            World::Service(service)
        }
        Workload::InterferenceEpisodes => World::Episodes(Box::new(Episodes::new(seed, shape))),
        Workload::EngineQuiescent => {
            let mut cluster = Cluster::homogeneous(
                shape.machines,
                MachineSpec::xeon_x5472(),
                Scheduler::default(),
            );
            for i in 0..shape.machines as u64 * VMS_PER_MACHINE {
                let vm = if i % 2 == 0 {
                    data_serving(i, 1)
                } else {
                    web_search(i, 2)
                };
                // Four 2-vCPU VMs exactly fill an 8-core machine.
                let placed = cluster.place_on(PmId(i / VMS_PER_MACHINE), vm);
                debug_assert!(placed.is_ok());
            }
            World::Engine {
                cluster,
                engine: EpochEngine::serial(ClusterSeed::new(seed)),
            }
        }
    };
    Built {
        world,
        generate_s,
        sessions: session_count,
    }
}

/// Stat totals observed at one instant; the run diffs two of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub service: Option<ServiceStats>,
    pub controller: Option<DeepDiveStats>,
    pub resolves: u64,
    pub quiescent_steps: u64,
}

impl World {
    /// Advances one closed-loop epoch and returns its reports.  With a
    /// tracer, one span is recorded per call into a layer; without one, no
    /// clock is read and no stat is copied.
    pub fn step(&mut self, tracer: &mut Option<Tracer>) -> Vec<VmEpochReport> {
        match self {
            World::Managed(managed) => managed.step_epoch().0,
            World::Decomposed {
                service,
                controller,
            } => {
                let epoch = service.cluster().epoch();
                let reports = service_step(service, tracer);
                let events = controller_step(controller, service.cluster_mut(), &reports, tracer);
                let t0 = open(tracer);
                let mut notes = 0;
                for event in &events {
                    if let EpochEvent::Migrated { from, .. } = event {
                        service.note_capacity_freed(*from);
                        notes += 1;
                    }
                }
                close(tracer, epoch, trace::FEEDBACK, t0, || {
                    vec![("notes", notes)]
                });
                reports
            }
            World::Episodes(episodes) => episodes.step(tracer),
            World::Service(service) => service_step(service, tracer),
            World::Engine { cluster, engine } => {
                engine_step(engine, cluster, tracer, |vm| static_fleet_load(vm, 100))
            }
        }
    }

    pub fn cluster(&self) -> &Cluster {
        match self {
            World::Managed(managed) => managed.service().cluster(),
            World::Decomposed { service, .. } | World::Service(service) => service.cluster(),
            World::Episodes(episodes) => &episodes.cluster,
            World::Engine { cluster, .. } => cluster,
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        let (service, controller) = match self {
            World::Managed(managed) => (
                Some(managed.service_stats()),
                Some(managed.controller_stats()),
            ),
            World::Decomposed {
                service,
                controller,
            } => (Some(service.stats()), Some(controller.stats())),
            World::Episodes(episodes) => (None, Some(episodes.controller.stats())),
            World::Service(service) => (Some(service.stats()), None),
            World::Engine { .. } => (None, None),
        };
        Snapshot {
            service,
            controller,
            resolves: self.cluster().total_resolves(),
            quiescent_steps: self.cluster().total_quiescent_steps(),
        }
    }

    /// Structural invariant violations (empty = consistent).
    pub fn audit(&self) -> Vec<String> {
        match self {
            World::Managed(managed) => managed.service().audit(),
            World::Decomposed { service, .. } | World::Service(service) => service.audit(),
            World::Episodes(_) | World::Engine { .. } => audit::check_cluster(self.cluster()),
        }
    }

    /// Placement errors the service has absorbed so far (zero for worlds
    /// without one).
    pub fn placement_errors(&self) -> u64 {
        match self {
            World::Managed(managed) => managed.service_stats().placement_errors,
            World::Decomposed { service, .. } | World::Service(service) => {
                service.stats().placement_errors
            }
            World::Episodes(_) | World::Engine { .. } => 0,
        }
    }

    pub fn episodes(&self) -> Option<&Episodes> {
        match self {
            World::Episodes(episodes) => Some(episodes),
            _ => None,
        }
    }
}

/// Start of a span: a clock reading when tracing, nothing otherwise.
fn open(tracer: &Option<Tracer>) -> u64 {
    tracer.as_ref().map_or(0, Tracer::now_ns)
}

/// End of a span; `counts` is only evaluated when tracing.
fn close(
    tracer: &mut Option<Tracer>,
    epoch: u64,
    name: &'static str,
    start_ns: u64,
    counts: impl FnOnce() -> Counts,
) {
    if let Some(tracer) = tracer {
        let end_ns = tracer.now_ns();
        tracer.record(epoch, name, start_ns, end_ns, counts());
    }
}

fn service_step(
    service: &mut DatacenterService,
    tracer: &mut Option<Tracer>,
) -> Vec<VmEpochReport> {
    let epoch = service.cluster().epoch();
    let before = tracer.is_some().then(|| service.stats());
    let t0 = open(tracer);
    let reports = service.step_epoch();
    close(tracer, epoch, trace::SERVICE_STEP, t0, || {
        let after = service.stats();
        let before = before.unwrap_or(after);
        vec![
            ("reports", reports.len() as u64),
            ("arrivals", after.arrivals - before.arrivals),
            ("departures", after.departures - before.departures),
            ("rejections", after.rejections - before.rejections),
            ("retries", after.retries - before.retries),
            ("abandonments", after.abandonments - before.abandonments),
            ("evacuations", after.evacuations - before.evacuations),
            (
                "drain_migrations",
                after.drain_migrations - before.drain_migrations,
            ),
            ("crashes", after.crashes - before.crashes),
            (
                "placement_errors",
                after.placement_errors - before.placement_errors,
            ),
        ]
    });
    reports
}

fn engine_step(
    engine: &EpochEngine,
    cluster: &mut Cluster,
    tracer: &mut Option<Tracer>,
    load_for: impl Fn(VmId) -> f64 + Sync,
) -> Vec<VmEpochReport> {
    let epoch = cluster.epoch();
    let t0 = open(tracer);
    let reports = engine.step(cluster, load_for);
    close(tracer, epoch, trace::ENGINE_STEP, t0, || {
        vec![("reports", reports.len() as u64)]
    });
    reports
}

fn controller_step(
    controller: &mut DeepDive,
    cluster: &mut Cluster,
    reports: &[VmEpochReport],
    tracer: &mut Option<Tracer>,
) -> Vec<EpochEvent> {
    let epoch = reports.first().map_or(cluster.epoch(), |r| r.epoch);
    let before = tracer.is_some().then(|| controller.stats());
    let t0 = open(tracer);
    let events = controller.process_epoch(cluster, reports);
    close(tracer, epoch, trace::CONTROLLER, t0, || {
        let after = controller.stats();
        let before = before.unwrap_or(after);
        let kind =
            |matches: fn(&EpochEvent) -> bool| events.iter().filter(|e| matches(e)).count() as u64;
        vec![
            ("evaluations", after.evaluations - before.evaluations),
            (
                "global_matches",
                after.global_matches - before.global_matches,
            ),
            (
                "confirmed",
                after.interference_confirmed - before.interference_confirmed,
            ),
            (
                "analyzed",
                kind(|e| matches!(e, EpochEvent::Analyzed { .. })),
            ),
            (
                "migrated",
                kind(|e| matches!(e, EpochEvent::Migrated { .. })),
            ),
            (
                "migration_skipped",
                kind(|e| matches!(e, EpochEvent::MigrationSkipped { .. })),
            ),
            (
                "deferred",
                kind(|e| matches!(e, EpochEvent::AnalysisDeferred { .. })),
            ),
            (
                "degraded",
                kind(|e| matches!(e, EpochEvent::AnalysisDegraded { .. })),
            ),
        ]
    });
    events
}
