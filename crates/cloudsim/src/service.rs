//! The event-driven datacenter front end.
//!
//! Everything below the engine treats the cluster as a fixed population:
//! `step` sweeps whatever VMs are placed.  A real datacenter is a
//! *process* — VMs arrive, run hot for a while, go idle, and eventually
//! depart — and the interesting throughput question is how fast the
//! simulator sustains that churn at fleet scale.  [`DatacenterService`] is
//! that front end: it consumes [`traces::VmSession`] lifecycles (the
//! Hotmail and EC2 presets in `traces::arrivals`, or any custom stream),
//! schedules them on a deterministic event queue
//! ([`queueing::EventQueue`]), batches the arrivals/idles/departures that
//! fall inside each epoch, and drives the sparse [`EpochEngine`] over the
//! resulting cluster.
//!
//! The lifecycle model is deliberately simple and exactly matches the
//! quiescence contract: a VM runs at its session's `active_load` for the
//! first part of its lifetime, then idles at load `0.0` (where the preset
//! workloads are provably static, so the sparse engine stops resolving its
//! host) until it departs.  With heavy-tailed lifetimes this converges to
//! the regime the sparse engine is built for — a small active working set
//! on top of a large quiescent fleet.
//!
//! ## Determinism
//!
//! The service is bit-reproducible: sessions are pre-sorted, the event
//! queue breaks same-instant ties in push order, VM ids are assigned
//! densely in arrival order, and placement is a pure function of the event
//! sequence (a free-slot hint queue with lazy revalidation, falling back to
//! a full first-fit scan before ever rejecting an arrival).
//!
//! ## Faults, retries and degradation
//!
//! Attaching a [`FaultPlane`] ([`DatacenterService::set_fault_plane`])
//! makes machine failure part of the event loop.  At every epoch boundary,
//! before lifecycle events apply, the service sweeps the plane's
//! counter-derived schedule: a machine entering a down window — its own
//! crash, a whole-rack or power-domain outage, or the offline phase of a
//! maintenance drain — is **evacuated** (residents re-placed across the
//! surviving fleet), and a machine leaving its window rejoins empty (its
//! quiescent cache was invalidated by the drain's generation bump) as a
//! fresh placement hint.  Evacuees that find no capacity, and rejected
//! arrivals (with or without a fault plane), are never dropped: they enter
//! a *bounded retry queue* with epoch-based exponential backoff
//! ([`RETRY_ATTEMPT_LIMIT`] attempts, doubling waits capped at
//! [`RETRY_BACKOFF_CAP_EPOCHS`] epochs) and either land when capacity frees
//! or are counted as abandoned.  All fault handling runs serially between
//! engine steps as a pure function of the epoch index, so runs stay
//! bit-identical across Serial/Pooled execution — and a disabled
//! plane (or none) changes nothing, byte for byte.
//!
//! ## Drain protocol
//!
//! A maintenance drain is the graceful counterpart to a crash.  During the
//! notice window ([`FaultPlane::machine_draining`]) the machine keeps
//! stepping its residents but accepts no new placements, and the service
//! migrates residents out *incrementally*: each notice epoch it moves
//! `ceil(residents / epochs_remaining)` VMs, so the evacuation load is
//! spread over the whole window instead of spiking in one epoch.
//! Stragglers still resident when the machine goes offline are evacuated
//! instantly, exactly like a crash — but the down edge is counted as a
//! `maintenance_windows` stat, not a crash.
//!
//! ## Failure-domain spread
//!
//! With [`ServiceConfig::spread`] set to a [`Topology`], placement becomes
//! *spread-aware*: a two-pass next-fit scan first offers machines whose
//! power domain holds the application's minimum VM count, and only falls
//! back to any surviving machine when every minimum-count domain is full.
//! This keeps each application's VMs spread across failure domains — so a
//! rack or domain outage clips every app instead of erasing one — while
//! never rejecting a placeable VM ([`crate::audit::check_spread`] is
//! advisory for exactly this reason).  Spread is strictly opt-in and
//! orthogonal to the fault plane: it changes placement whether or not
//! faults are enabled, and leaving it `None` preserves the hint-queue +
//! next-fit policy byte for byte.

use std::collections::{BTreeMap, VecDeque};

use hwsim::{MachineSpec, EPOCH_SECONDS};
use queueing::EventQueue;
use traces::VmSession;
use workloads::{AppId, ClientEmulator, DataServing, WebSearch, Workload};

use crate::audit;
use crate::cluster::{Cluster, ClusterError};
use crate::engine::EpochEngine;
use crate::faults::{FaultPlane, Topology};
use crate::pm::{PmId, VmEpochReport};
use crate::rngs::ClusterSeed;
use crate::scheduler::Scheduler;
use crate::vm::{Vm, VmId};

/// Fraction of each VM's lifetime spent at its active load before it idles
/// at load zero.  The idle tail is where the sparse engine earns its keep.
const ACTIVE_FRACTION: f64 = 0.3;

/// Configuration of the datacenter front end.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of physical machines in the (homogeneous) fleet.
    pub machines: usize,
    /// Hardware model of every machine.
    pub spec: MachineSpec,
    /// Placement policy / admission checker.
    pub scheduler: Scheduler,
    /// Cluster seed driving every VM's demand streams.
    pub seed: ClusterSeed,
    /// Failure-domain spread policy: `Some(topology)` makes placement
    /// prefer the power domain currently holding the fewest of the
    /// arriving application's VMs (best-effort — capacity pressure falls
    /// back to any surviving machine).  `None` (the default) keeps the
    /// plain hint-queue + next-fit policy byte for byte.
    pub spread: Option<Topology>,
}

impl ServiceConfig {
    /// A Xeon X5472 fleet with default scheduling, 30% active lifetimes,
    /// no spread policy.
    pub fn xeon_fleet(machines: usize, seed: u64) -> Self {
        Self {
            machines,
            spec: MachineSpec::xeon_x5472(),
            scheduler: Scheduler::default(),
            seed: ClusterSeed::new(seed),
            spread: None,
        }
    }

    /// Enables failure-domain spread placement under `topology`.
    pub fn with_spread(mut self, topology: Topology) -> Self {
        self.spread = Some(topology);
        self
    }
}

/// Most placement attempts a parked VM gets before it is abandoned.
pub const RETRY_ATTEMPT_LIMIT: u32 = 6;

/// Longest epoch wait between two retry attempts (backoff doubles from one
/// epoch up to this cap).
pub const RETRY_BACKOFF_CAP_EPOCHS: u64 = 32;

/// Counters the service accumulates while running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// VMs successfully admitted and placed.
    pub arrivals: u64,
    /// VMs that left at the end of their session.
    pub departures: u64,
    /// Arrivals turned away because no machine could admit the VM.
    pub rejections: u64,
    /// VM-epochs simulated (sum of resident VMs over stepped epochs).
    pub vm_epochs: u64,
    /// Largest number of VMs resident at once.
    pub peak_resident: usize,
    /// Machines that entered an *unplanned* down window (own crash, rack
    /// outage, or power-domain outage).
    pub crashes: u64,
    /// Machines that went offline for *planned* maintenance (the drain
    /// notice expired); disjoint from `crashes`.
    pub maintenance_windows: u64,
    /// Machines that came back from a down window (crash or maintenance).
    pub repairs: u64,
    /// VMs re-placed immediately when their host went down.
    pub evacuations: u64,
    /// Drain notice windows the fleet entered (one per machine per drain).
    pub drains: u64,
    /// VMs migrated off a draining machine gracefully, before it went
    /// offline.
    pub drain_migrations: u64,
    /// Machine-epochs spent inside drain notice windows (still serving).
    pub draining_machine_epochs: u64,
    /// Placement attempts made from the retry queue (successes included).
    pub retries: u64,
    /// Parked VMs that eventually landed through the retry queue.
    pub retry_admissions: u64,
    /// Epochs parked VMs spent waiting before a successful retry (sum).
    pub retry_wait_epochs: u64,
    /// Parked VMs dropped after exhausting [`RETRY_ATTEMPT_LIMIT`].
    pub abandonments: u64,
    /// Unexpected placement errors recorded (see
    /// [`DatacenterService::errors`]) instead of aborting the run.
    pub placement_errors: u64,
    /// Machine-epochs spent inside crash windows (availability accounting).
    pub down_machine_epochs: u64,
}

/// A non-fatal fault the service absorbed and recorded instead of
/// panicking — an arrival must never abort the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Placement returned something other than `NoCapacity`; the service
    /// skipped the machine and kept scanning.
    UnexpectedPlacement {
        /// The VM whose placement failed.
        vm: VmId,
        /// The machine that produced the error.
        pm: PmId,
        /// The underlying cluster error.
        error: ClusterError,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnexpectedPlacement { vm, pm, error } => {
                write!(f, "placing {vm} on {pm} failed unexpectedly: {error}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a parked VM needs to try placement again.
#[derive(Debug)]
enum RetryPayload {
    /// A rejected arrival: session index into the stream.  The VM shell is
    /// rebuilt per attempt (construction is pure) and its lifecycle starts
    /// at the epoch it finally lands.
    Arrival(usize),
    /// An evacuee from a crashed machine: the drained VM itself.  Its
    /// lifecycle events and load slot stay live while it waits.
    Evacuee(Vm),
}

/// One entry in the bounded retry queue.
#[derive(Debug)]
struct RetryEntry {
    vm: VmId,
    payload: RetryPayload,
    /// Placement attempts already failed from the queue.
    attempts: u32,
    /// Earliest epoch the next attempt may run.
    next_epoch: u64,
    /// Epoch the VM was parked (for wait accounting).
    parked_epoch: u64,
}

/// A scheduled lifecycle transition.
#[derive(Debug, Clone, Copy)]
enum SessionEvent {
    /// Admit session `i` of the stream.
    Arrive(usize),
    /// Drop the VM's offered load to zero (it keeps its placement).
    GoIdle(VmId),
    /// Remove the VM from the cluster.
    Depart(VmId),
}

/// The event-driven datacenter: session stream in, epochs out.
#[derive(Debug)]
pub struct DatacenterService {
    cluster: Cluster,
    engine: EpochEngine,
    config: ServiceConfig,
    sessions: Vec<VmSession>,
    events: EventQueue<SessionEvent>,
    /// Offered load per VM, indexed by the densely assigned `VmId` — a
    /// plain vector, not a map, because the engine's `load_for` closure is
    /// the hottest lookup in the simulation (one call per resident VM per
    /// epoch).
    loads: Vec<f64>,
    /// Machine indices that freed capacity recently; tried (with lazy
    /// revalidation) before the first-fit scan.
    free_hint: VecDeque<usize>,
    /// Where the last successful scan placement landed; the next scan
    /// resumes here (next-fit), so steady-state placement cost stays O(1)
    /// amortized instead of rescanning the full fleet per arrival.
    scan_cursor: usize,
    stats: ServiceStats,
    /// Counter-derived fault schedule; `None` (or a disabled plane) leaves
    /// the fault path entirely inert.
    fault_plane: Option<FaultPlane>,
    /// Edge-detection mirror of the plane's down windows, indexed by
    /// machine.  Placement skips machines marked down.
    down: Vec<bool>,
    /// Edge-detection mirror of the plane's drain notice windows.
    /// Placement skips draining machines; the drain sweep migrates their
    /// residents out incrementally.
    draining: Vec<bool>,
    /// Per-application resident counts by power domain, maintained only
    /// when [`ServiceConfig::spread`] is set (the spread scan's working
    /// state).  `BTreeMap` for deterministic iteration.
    app_domains: BTreeMap<AppId, Vec<u32>>,
    /// Parked VMs (rejected arrivals and stranded evacuees) waiting out
    /// their backoff.
    retry: VecDeque<RetryEntry>,
    /// Non-fatal faults absorbed so far, in occurrence order.
    errors: Vec<ServiceError>,
    /// VMs that left for good (departed or abandoned) during the latest
    /// [`DatacenterService::step_epoch`]; cleared at the start of the next.
    departed: Vec<VmId>,
}

impl DatacenterService {
    /// Builds the fleet and schedules every session's arrival.
    ///
    /// Sessions may arrive in any order; the event queue orders them.  The
    /// engine defaults to sparse serial stepping — swap it via
    /// [`DatacenterService::engine_mut`] for pooled or dense runs.
    ///
    /// # Panics
    /// Panics if `machines` is zero (the cluster constructor's contract).
    pub fn new(config: ServiceConfig, sessions: Vec<VmSession>) -> Self {
        let cluster = Cluster::homogeneous(config.machines, config.spec.clone(), config.scheduler);
        let engine = EpochEngine::serial(config.seed);
        let mut events = EventQueue::new();
        for (index, session) in sessions.iter().enumerate() {
            events.push(session.arrival_s, SessionEvent::Arrive(index));
        }
        let machines = config.machines;
        Self {
            cluster,
            engine,
            config,
            sessions,
            events,
            loads: Vec::new(),
            free_hint: VecDeque::new(),
            scan_cursor: 0,
            stats: ServiceStats::default(),
            fault_plane: None,
            down: vec![false; machines],
            draining: vec![false; machines],
            app_domains: BTreeMap::new(),
            retry: VecDeque::new(),
            errors: Vec::new(),
            departed: Vec::new(),
        }
    }

    /// Attaches a fault plane.  A disabled plane is byte-for-byte inert:
    /// the run is identical to one with no plane at all.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.fault_plane = Some(plane);
    }

    /// The attached fault plane, if any.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault_plane.as_ref()
    }

    /// True while `pm` is inside a down window (always false without an
    /// enabled fault plane).
    pub fn machine_down(&self, pm: PmId) -> bool {
        self.down.get(pm.0 as usize).copied().unwrap_or(false)
    }

    /// True while `pm` is inside a maintenance drain's notice window —
    /// still serving, but being migrated off and closed to new placements.
    pub fn machine_draining(&self, pm: PmId) -> bool {
        self.draining.get(pm.0 as usize).copied().unwrap_or(false)
    }

    /// VMs currently parked in the retry queue.
    pub fn parked(&self) -> usize {
        self.retry.len()
    }

    /// Non-fatal faults absorbed so far (see [`ServiceError`]).
    pub fn errors(&self) -> &[ServiceError] {
        &self.errors
    }

    /// Runs the cluster invariant audit ([`audit::check_cluster`]) plus the
    /// service-level invariants: parked VMs are not simultaneously
    /// resident, and machines inside a crash window host nothing.  Returns
    /// one message per violation (empty = consistent).
    pub fn audit(&self) -> Vec<String> {
        let mut findings = audit::check_cluster(&self.cluster);
        for entry in &self.retry {
            if self.cluster.locate(entry.vm).is_some() {
                findings.push(format!(
                    "{} is parked for retry but still resident",
                    entry.vm
                ));
            }
        }
        for (index, down) in self.down.iter().enumerate() {
            if !down {
                continue;
            }
            let pm = PmId(index as u64);
            if let Some(machine) = self.cluster.machine(pm) {
                if machine.vm_count() > 0 {
                    findings.push(format!(
                        "{pm} is inside a crash window but hosts {} VMs",
                        machine.vm_count()
                    ));
                }
            }
        }
        findings
    }

    /// Runs the advisory failure-domain spread check
    /// ([`audit::check_spread`]) under the configured spread topology.
    /// Always empty when spread placement is off.  Not part of
    /// [`DatacenterService::audit`] because capacity pressure legitimately
    /// forces co-location — assert emptiness only with known headroom.
    pub fn audit_spread(&self) -> Vec<String> {
        match &self.config.spread {
            Some(topology) => audit::check_spread(&self.cluster, topology),
            None => Vec::new(),
        }
    }

    /// The cluster being driven.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access, for a controller layered on top (DeepDive
    /// migrates VMs between epochs).  The service's placement hints are
    /// only hints — every candidate is revalidated at admission time — so
    /// external mutation cannot corrupt placement, only make the next
    /// arrival's scan marginally longer.  Pair controller-driven
    /// migrations with [`DatacenterService::note_capacity_freed`] to keep
    /// the hints warm.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The stepping engine (sparse serial by default).
    pub fn engine(&self) -> &EpochEngine {
        &self.engine
    }

    /// Mutable engine access — switch execution mode or toggle sparse
    /// stepping without rebuilding the service.
    pub fn engine_mut(&mut self) -> &mut EpochEngine {
        &mut self.engine
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The VMs that left the datacenter for good during the latest
    /// [`DatacenterService::step_epoch`]: sessions whose departure fired
    /// (resident or parked) and parked VMs abandoned after their retry
    /// budget.  None of them reports again, so a controller keeping per-VM
    /// state drops it for exactly these ids.  Evacuees waiting in the retry
    /// queue are *not* listed — they are still in the system.
    pub fn departed_last_epoch(&self) -> &[VmId] {
        &self.departed
    }

    /// Tells the placement hint queue that `pm` freed some capacity — the
    /// hook a migration controller calls for each machine it moved a VM
    /// *off* (departures handled by the service itself do this
    /// automatically).
    pub fn note_capacity_freed(&mut self, pm: PmId) {
        // Spread placement scans by domain count and never consults the
        // hint queue; don't let it grow unbounded.
        if self.config.spread.is_some() {
            return;
        }
        let index = pm.0 as usize;
        if index < self.config.machines {
            self.free_hint.push_back(index);
        }
    }

    /// Sweeps the fault plane (crash drains and repairs), applies every
    /// lifecycle event due at or before the next epoch's start, runs due
    /// retry attempts, then steps the cluster one epoch and returns its
    /// reports.
    ///
    /// An arrival that no machine can admit counts as a rejection and is
    /// parked in the retry queue (its idle/departure events are scheduled
    /// only once it lands).
    pub fn step_epoch(&mut self) -> Vec<VmEpochReport> {
        let epoch = self.cluster.epoch();
        self.departed.clear();
        self.apply_faults(epoch);
        self.apply_due_events();
        self.apply_retries(epoch);
        let resident = self.cluster.vm_count();
        self.stats.vm_epochs += resident as u64;
        self.stats.peak_resident = self.stats.peak_resident.max(resident);
        let loads = std::mem::take(&mut self.loads);
        let reports = self
            .engine
            .step(&mut self.cluster, |vm| loads[vm.0 as usize]);
        self.loads = loads;
        reports
    }

    /// Runs `epochs` epochs, discarding reports, and returns the stats
    /// accumulated so far.
    pub fn run_epochs(&mut self, epochs: u64) -> ServiceStats {
        for _ in 0..epochs {
            self.step_epoch();
        }
        self.stats
    }

    /// True once every session has been admitted (or rejected and either
    /// re-admitted or abandoned), the retry queue is empty, and every
    /// admitted VM has departed.
    pub fn drained(&self) -> bool {
        self.events.is_empty() && self.retry.is_empty() && self.cluster.vm_count() == 0
    }

    /// Sweeps the fault plane's down and drain windows once per epoch: a
    /// machine entering a down window is evacuated (residents re-placed or
    /// parked), a machine leaving one rejoins as a fresh placement hint,
    /// and draining machines have a slice of their residents migrated out.
    /// Inert with no plane or a disabled one.
    fn apply_faults(&mut self, epoch: u64) {
        let Some(plane) = self.fault_plane else {
            return;
        };
        if !plane.is_enabled() {
            return;
        }
        for index in 0..self.config.machines {
            let pm = PmId(index as u64);
            let now_down = plane.machine_down(pm, epoch);
            // Flip the flag *before* handling the edge so evacuation never
            // re-places a VM onto the machine that is going down.
            let was_down = std::mem::replace(&mut self.down[index], now_down);
            if now_down {
                self.stats.down_machine_epochs += 1;
                if !was_down {
                    if plane.in_maintenance(pm, epoch) {
                        self.stats.maintenance_windows += 1;
                    } else {
                        self.stats.crashes += 1;
                    }
                    self.evacuate_machine(pm, epoch);
                }
            } else if was_down {
                self.stats.repairs += 1;
                self.note_capacity_freed(pm);
            }
        }
        if plane.config().machine_drain_per_epoch > 0.0 {
            for index in 0..self.config.machines {
                let pm = PmId(index as u64);
                let now_draining = plane.machine_draining(pm, epoch);
                let was = std::mem::replace(&mut self.draining[index], now_draining);
                if now_draining {
                    self.stats.draining_machine_epochs += 1;
                    if !was {
                        self.stats.drains += 1;
                    }
                    self.drain_step(pm, epoch, &plane);
                }
            }
        }
    }

    /// Empties a machine entering a down window and re-places its residents
    /// on the surviving fleet; VMs that find no room are parked for retry.
    fn evacuate_machine(&mut self, pm: PmId, epoch: u64) {
        for vm in self.cluster.drain_machine(pm) {
            self.note_spread_removed(pm, vm.app_id());
            let id = vm.id;
            match self.place_vm(vm) {
                Ok(_) => self.stats.evacuations += 1,
                Err(evacuee) => self.park(RetryEntry {
                    vm: id,
                    payload: RetryPayload::Evacuee(evacuee),
                    attempts: 0,
                    next_epoch: epoch + 1,
                    parked_epoch: epoch,
                }),
            }
        }
    }

    /// One notice epoch of a maintenance drain: migrate
    /// `ceil(residents / epochs_remaining)` residents off `pm` so the
    /// machine empties smoothly by the time it goes offline.  Migrations
    /// that find no room park for retry like crash evacuees.
    fn drain_step(&mut self, pm: PmId, epoch: u64, plane: &FaultPlane) {
        let residents: Vec<VmId> = match self.cluster.machine(pm) {
            Some(machine) => machine.vms().iter().map(|vm| vm.id).collect(),
            None => return,
        };
        if residents.is_empty() {
            return;
        }
        let remaining = plane.drain_remaining(pm, epoch).max(1);
        let batch = residents.len().div_ceil(remaining as usize);
        for id in residents.into_iter().take(batch) {
            let Some(vm) = self.cluster.remove_vm(id) else {
                continue;
            };
            self.note_spread_removed(pm, vm.app_id());
            match self.place_vm(vm) {
                Ok(_) => self.stats.drain_migrations += 1,
                Err(evacuee) => self.park(RetryEntry {
                    vm: id,
                    payload: RetryPayload::Evacuee(evacuee),
                    attempts: 0,
                    next_epoch: epoch + 1,
                    parked_epoch: epoch,
                }),
            }
        }
    }

    fn park(&mut self, entry: RetryEntry) {
        self.retry.push_back(entry);
    }

    /// Runs every due retry attempt in park order.  Successes land (an
    /// arrival's lifecycle starts at the landing epoch; an evacuee's events
    /// stayed live); failures back off exponentially until
    /// [`RETRY_ATTEMPT_LIMIT`], then the VM is abandoned.
    fn apply_retries(&mut self, epoch: u64) {
        if self.retry.is_empty() {
            return;
        }
        let mut due = Vec::new();
        for entry in std::mem::take(&mut self.retry) {
            if entry.next_epoch > epoch {
                self.retry.push_back(entry);
            } else {
                due.push(entry);
            }
        }
        for entry in due {
            self.stats.retries += 1;
            let RetryEntry {
                vm: id,
                payload,
                attempts,
                parked_epoch,
                ..
            } = entry;
            let (vm, session_index) = match payload {
                RetryPayload::Arrival(index) => {
                    (Self::session_vm(id, &self.sessions[index]), Some(index))
                }
                RetryPayload::Evacuee(vm) => (vm, None),
            };
            match self.place_vm(vm) {
                Ok(_) => {
                    self.stats.retry_admissions += 1;
                    self.stats.retry_wait_epochs += epoch - parked_epoch;
                    if let Some(index) = session_index {
                        let session = self.sessions[index];
                        self.loads[id.0 as usize] = session.active_load.clamp(0.0, 1.0);
                        self.stats.arrivals += 1;
                        self.schedule_lifecycle(id, &session, epoch as f64 * EPOCH_SECONDS);
                    }
                }
                Err(returned) => {
                    let attempts = attempts + 1;
                    if attempts >= RETRY_ATTEMPT_LIMIT {
                        self.stats.abandonments += 1;
                        self.departed.push(id);
                        // An abandoned evacuee's stale GoIdle/Depart events
                        // fire harmlessly: the VM is neither resident nor
                        // parked by then.
                        continue;
                    }
                    let wait = (1u64 << attempts).min(RETRY_BACKOFF_CAP_EPOCHS);
                    let payload = match session_index {
                        Some(index) => RetryPayload::Arrival(index),
                        None => RetryPayload::Evacuee(returned),
                    };
                    self.park(RetryEntry {
                        vm: id,
                        payload,
                        attempts,
                        next_epoch: epoch + wait,
                        parked_epoch,
                    });
                }
            }
        }
    }

    fn apply_due_events(&mut self) {
        // Events due strictly inside a past epoch land at this boundary:
        // an arrival at t = 3.7 is resident from epoch 4 on.
        let boundary = self.cluster.epoch() as f64 * EPOCH_SECONDS;
        while let Some((_, event)) = self.events.pop_due(boundary) {
            match event {
                SessionEvent::Arrive(index) => self.admit(index),
                SessionEvent::GoIdle(vm) => {
                    self.loads[vm.0 as usize] = 0.0;
                }
                SessionEvent::Depart(vm) => {
                    if let Some(pm) = self.cluster.locate(vm) {
                        if let Some(removed) = self.cluster.remove_vm(vm) {
                            self.note_spread_removed(pm, removed.app_id());
                        }
                        self.stats.departures += 1;
                        self.departed.push(vm);
                        self.note_capacity_freed(pm);
                    } else if let Some(pos) = self.retry.iter().position(|e| e.vm == vm) {
                        // The session ended while the VM sat parked (an
                        // evacuee that never found a new home): its stay is
                        // over, count the departure.
                        self.retry.remove(pos);
                        self.stats.departures += 1;
                        self.departed.push(vm);
                    }
                }
            }
        }
    }

    fn admit(&mut self, index: usize) {
        let session = self.sessions[index];
        let id = VmId(self.loads.len() as u64);
        // Keep VM ids dense in arrival order even across rejections, so
        // replays with different capacity stay comparable.
        self.loads.push(0.0);
        match self.place_vm(Self::session_vm(id, &session)) {
            Ok(_) => {
                self.loads[id.0 as usize] = session.active_load.clamp(0.0, 1.0);
                self.stats.arrivals += 1;
                self.schedule_lifecycle(id, &session, session.arrival_s);
            }
            Err(_) => {
                self.stats.rejections += 1;
                let epoch = self.cluster.epoch();
                self.park(RetryEntry {
                    vm: id,
                    payload: RetryPayload::Arrival(index),
                    attempts: 0,
                    next_epoch: epoch + 1,
                    parked_epoch: epoch,
                });
            }
        }
    }

    /// Schedules a VM's idle and departure transitions from `start_s` — its
    /// arrival instant on first admission, or the landing epoch's boundary
    /// when a parked arrival finally places.
    fn schedule_lifecycle(&mut self, id: VmId, session: &VmSession, start_s: f64) {
        let active_s = session.lifetime_s * ACTIVE_FRACTION;
        self.events
            .push(start_s + active_s, SessionEvent::GoIdle(id));
        self.events
            .push(start_s + session.lifetime_s, SessionEvent::Depart(id));
    }

    /// The workload mix behind a session: cloud apps that are provably
    /// static when idle, keyed by popularity rank so VMs of the same app
    /// share an [`AppId`] (what lets DeepDive reuse behaviour across them).
    fn session_vm(id: VmId, session: &VmSession) -> Vm {
        let app = AppId(session.app_rank as u64);
        let workload: Box<dyn Workload> = if session.app_rank.is_multiple_of(2) {
            Box::new(DataServing::with_defaults(app))
        } else {
            Box::new(WebSearch::with_defaults(app))
        };
        let client = ClientEmulator::new(workload.peak_request_rate(), 4.0);
        Vm::new(id, workload, client)
    }

    /// Places a VM: freed-capacity hints first (lazily revalidated — stale,
    /// still-full, crashed or draining entries are simply dropped), then a
    /// next-fit scan resuming at the last placement, wrapping once around
    /// the whole fleet before giving up.  Machines that are down or
    /// draining are skipped.  With [`ServiceConfig::spread`] set the hint
    /// queue is bypassed and the scan becomes the two-pass spread scan
    /// ([`DatacenterService::place_spread`]).  Returns the hosting machine,
    /// or the VM back on a genuine reject (no surviving machine admits it
    /// right now).
    ///
    /// A placement error other than `NoCapacity` is a fault, not a
    /// rejection: it is recorded in [`DatacenterService::errors`], counted
    /// in `placement_errors`, and the scan keeps going — an arrival never
    /// aborts the simulation.
    fn place_vm(&mut self, mut vm: Vm) -> Result<PmId, Vm> {
        if let Some(topology) = self.config.spread {
            return self.place_spread(vm, topology);
        }
        while let Some(index) = self.free_hint.pop_front() {
            if self.down[index] || self.draining[index] {
                continue;
            }
            let pm = PmId(index as u64);
            match self.cluster.place_on_returning(pm, vm) {
                Ok(()) => {
                    // The machine may still have room; keep it warm for
                    // the next arrival.
                    self.free_hint.push_front(index);
                    return Ok(pm);
                }
                Err((returned, ClusterError::NoCapacity { .. })) => vm = returned,
                Err((returned, error)) => {
                    self.record_placement_error(returned.id, pm, error);
                    vm = returned;
                }
            }
        }
        let n = self.config.machines;
        for probe in 0..n {
            let index = (self.scan_cursor + probe) % n;
            if self.down[index] || self.draining[index] {
                continue;
            }
            let pm = PmId(index as u64);
            match self.cluster.place_on_returning(pm, vm) {
                Ok(()) => {
                    self.scan_cursor = index;
                    return Ok(pm);
                }
                Err((returned, ClusterError::NoCapacity { .. })) => vm = returned,
                Err((returned, error)) => {
                    self.record_placement_error(returned.id, pm, error);
                    vm = returned;
                }
            }
        }
        Err(vm)
    }

    /// The spread-aware scan: pass 1 offers only machines whose power
    /// domain currently holds the application's minimum VM count, pass 2
    /// falls back to any surviving machine.  Both passes are next-fit from
    /// the shared cursor, skip down/draining machines, and record
    /// non-capacity errors like the plain scan.
    fn place_spread(&mut self, mut vm: Vm, topology: Topology) -> Result<PmId, Vm> {
        let app = vm.app_id();
        let n = self.config.machines;
        let domains = topology.domains_in_fleet(n).max(1);
        let counts: Vec<u32> = {
            let existing = self.app_domains.get(&app);
            (0..domains)
                .map(|d| existing.and_then(|c| c.get(d)).copied().unwrap_or(0))
                .collect()
        };
        let min_count = counts.iter().copied().min().unwrap_or(0);
        for pass in 0..2 {
            for probe in 0..n {
                let index = (self.scan_cursor + probe) % n;
                if self.down[index] || self.draining[index] {
                    continue;
                }
                let pm = PmId(index as u64);
                let domain = topology.domain_of(pm) as usize;
                if pass == 0 && counts.get(domain).copied().unwrap_or(0) != min_count {
                    continue;
                }
                match self.cluster.place_on_returning(pm, vm) {
                    Ok(()) => {
                        self.scan_cursor = index;
                        self.note_spread_placed(pm, app);
                        return Ok(pm);
                    }
                    Err((returned, ClusterError::NoCapacity { .. })) => vm = returned,
                    Err((returned, error)) => {
                        self.record_placement_error(returned.id, pm, error);
                        vm = returned;
                    }
                }
            }
        }
        Err(vm)
    }

    /// Bumps the spread bookkeeping for a VM of `app` landing on `pm`.
    /// No-op unless spread placement is configured.
    fn note_spread_placed(&mut self, pm: PmId, app: AppId) {
        let Some(topology) = self.config.spread else {
            return;
        };
        let domain = topology.domain_of(pm) as usize;
        let counts = self.app_domains.entry(app).or_default();
        if counts.len() <= domain {
            counts.resize(domain + 1, 0);
        }
        counts[domain] += 1;
    }

    /// Drops the spread bookkeeping for a VM of `app` leaving `pm` (depart,
    /// evacuation, or drain migration).  No-op unless spread placement is
    /// configured.
    fn note_spread_removed(&mut self, pm: PmId, app: AppId) {
        let Some(topology) = self.config.spread else {
            return;
        };
        let domain = topology.domain_of(pm) as usize;
        if let Some(count) = self
            .app_domains
            .get_mut(&app)
            .and_then(|counts| counts.get_mut(domain))
        {
            *count = count.saturating_sub(1);
        }
    }

    fn record_placement_error(&mut self, vm: VmId, pm: PmId, error: ClusterError) {
        self.stats.placement_errors += 1;
        self.errors
            .push(ServiceError::UnexpectedPlacement { vm, pm, error });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sessions(specs: &[(f64, f64, f64, usize)]) -> Vec<VmSession> {
        specs
            .iter()
            .map(
                |&(arrival_s, lifetime_s, active_load, app_rank)| VmSession {
                    arrival_s,
                    lifetime_s,
                    active_load,
                    app_rank,
                },
            )
            .collect()
    }

    #[test]
    fn vms_arrive_idle_and_depart_on_schedule() {
        let service_sessions = sessions(&[
            (0.0, 10.0, 0.8, 1),
            (0.5, 4.0, 0.6, 2), // departs at 4.5 → gone from epoch 5
            (3.0, 100.0, 0.7, 1),
        ]);
        let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(2, 1), service_sessions);
        let first = svc.step_epoch(); // epoch 0: arrivals at t <= 0.0
        assert_eq!(first.len(), 1);
        let second = svc.step_epoch(); // epoch 1: the t = 0.5 arrival joined
        assert_eq!(second.len(), 2);
        let mut reports = Vec::new();
        let mut departed = Vec::new();
        for _ in 2..7 {
            reports.push(svc.step_epoch());
            departed.push(svc.departed_last_epoch().to_vec());
        }
        // Epoch 4 still has VM 1 (departs at 4.5 → removed at epoch 5).
        assert_eq!(reports[2].len(), 3, "epoch 4: all three resident");
        assert_eq!(reports[3].len(), 2, "epoch 5: VM 1 departed");
        // The departure is listed for the epoch it happened in, only.
        assert_eq!(departed, [vec![], vec![], vec![], vec![VmId(1)], vec![]]);
        let stats = svc.stats();
        assert_eq!(stats.arrivals, 3);
        assert_eq!(stats.departures, 1);
        assert_eq!(stats.rejections, 0);
        assert_eq!(stats.peak_resident, 3);
    }

    #[test]
    fn active_vms_go_idle_after_their_active_fraction() {
        // One VM, 10 s lifetime, 30% active → load 0.9 through epoch 3,
        // then 0.0 from epoch 4 (idle event at t = 3.0 applies at its
        // boundary... the event lands at the first boundary >= 3.0).
        let mut svc = DatacenterService::new(
            ServiceConfig::xeon_fleet(1, 2),
            sessions(&[(0.0, 10.0, 0.9, 2)]),
        );
        let mut offered = Vec::new();
        for _ in 0..6 {
            let reports = svc.step_epoch();
            offered.push(reports[0].offered_load);
        }
        assert_eq!(offered[..3], [0.9, 0.9, 0.9]);
        assert_eq!(offered[3..], [0.0, 0.0, 0.0]);
        // Once idle, the sparse engine stops resolving the machine.
        let resolves_when_idle = svc.cluster().total_resolves();
        svc.run_epochs(5);
        assert_eq!(svc.cluster().total_resolves(), resolves_when_idle);
        assert!(svc.cluster().total_quiescent_steps() >= 5);
    }

    #[test]
    fn a_full_fleet_rejects_and_recovers_capacity_on_departure() {
        // One Xeon machine admits four 2-vCPU VMs; offer six, two overflow
        // and park in the retry queue (backed off to epochs 2, 4, 8, 16,
        // 32, 64 after the epoch-1 rejection).
        let mut specs: Vec<(f64, f64, f64, usize)> =
            (0..6).map(|i| (i as f64 * 0.01, 50.0, 0.5, 1)).collect();
        // A late VM arrives after the four residents depart.
        specs.push((60.0, 5.0, 0.5, 1));
        let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(1, 3), sessions(&specs));
        svc.run_epochs(55);
        let mid = svc.stats();
        assert_eq!(mid.arrivals, 4);
        assert_eq!(mid.rejections, 2);
        assert_eq!(mid.departures, 4);
        assert_eq!(svc.parked(), 2, "rejected arrivals wait, they don't vanish");
        // The epoch-64 retry lands on the drained fleet: recovery after
        // retry, not a permanent loss.
        svc.run_epochs(60);
        let done = svc.stats();
        assert_eq!(
            done.arrivals, 7,
            "freed capacity must admit late and retried VMs"
        );
        assert_eq!(done.departures, 7);
        assert_eq!(done.rejections, 2);
        assert_eq!(done.retry_admissions, 2);
        assert_eq!(done.retries, 12, "six attempts per parked VM");
        assert_eq!(done.abandonments, 0);
        assert_eq!(svc.parked(), 0);
        assert!(svc.drained());
    }

    #[test]
    fn parked_vms_abandon_after_the_retry_budget() {
        // Residents outlive every backoff step (2..64), so the two parked
        // arrivals exhaust their six attempts and are abandoned.
        let specs: Vec<(f64, f64, f64, usize)> =
            (0..6).map(|i| (i as f64 * 0.01, 200.0, 0.5, 1)).collect();
        let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(1, 4), sessions(&specs));
        let mut gone = Vec::new();
        for _ in 0..80 {
            svc.step_epoch();
            gone.extend_from_slice(svc.departed_last_epoch());
        }
        assert_eq!(gone, [VmId(4), VmId(5)], "abandoned VMs left for good");
        let stats = svc.stats();
        assert_eq!(stats.rejections, 2);
        assert_eq!(stats.retries, 12);
        assert_eq!(stats.retry_admissions, 0);
        assert_eq!(stats.abandonments, 2);
        assert_eq!(svc.parked(), 0);
        // The abandoned sessions scheduled no lifecycle events; the run
        // still drains once the residents depart.
        svc.run_epochs(125);
        assert_eq!(svc.stats().departures, 4);
        assert!(svc.drained());
    }

    #[test]
    fn crashes_evacuate_residents_and_the_audit_stays_clean() {
        let stream = traces::hotmail_sessions(20_000.0, 0.01, 5);
        let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(8, 21), stream);
        svc.set_fault_plane(FaultPlane::new(77, crate::faults::FaultConfig::light()));
        for _ in 0..400 {
            svc.step_epoch();
            assert_eq!(svc.audit(), Vec::<String>::new());
        }
        let stats = svc.stats();
        assert!(stats.crashes > 0, "light faults over 400 epochs must crash");
        assert!(stats.repairs > 0, "crash windows are finite");
        assert!(stats.down_machine_epochs > 0);
        assert!(
            stats.evacuations + stats.retries > 0,
            "crashed machines held VMs at some point"
        );
        assert!(stats.arrivals >= stats.departures);
    }

    #[test]
    fn maintenance_drains_are_gentler_than_crashes_at_equal_downtime() {
        // Same start rate and offline windows; the only difference is the
        // 8-epoch drain notice. Disruption (instant evacuations + parked
        // retries) must drop when machines leave gracefully.
        let stream = traces::hotmail_sessions(20_000.0, 0.01, 5);
        let run = |config: crate::faults::FaultConfig| {
            let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(8, 21), stream.clone());
            svc.set_fault_plane(FaultPlane::new(77, config));
            for _ in 0..400 {
                svc.step_epoch();
                assert_eq!(svc.audit(), Vec::<String>::new());
            }
            svc.stats()
        };
        let crash = run(crate::faults::FaultConfig::light());
        let drain = run(crate::faults::FaultConfig::maintenance());
        assert!(crash.crashes > 0);
        assert_eq!(crash.drain_migrations, 0, "no drains configured");
        assert_eq!(drain.crashes, 0, "planned maintenance never crashes");
        assert!(drain.maintenance_windows > 0, "drains must go offline");
        assert!(drain.drains > 0);
        assert!(
            drain.drain_migrations > 0,
            "notice windows must migrate residents gracefully: {drain:?}"
        );
        assert!(drain.draining_machine_epochs >= drain.drains);
        // The graceful run displaces fewer VMs instantly: most residents
        // left during the notice, so offline-edge evacuations shrink.
        assert!(
            drain.evacuations < crash.evacuations,
            "drain {drain:?} vs crash {crash:?}"
        );
    }

    #[test]
    fn spread_placement_spreads_an_app_across_power_domains() {
        // 8 machines, 2 per rack, 2 racks per domain → power domain 0 holds
        // machines 0..4, domain 1 holds 4..8.  Six 2-vCPU VMs of one app
        // fit comfortably anywhere (a Xeon holds four each).
        let topo = Topology::new(2, 2);
        let specs: Vec<(f64, f64, f64, usize)> =
            (0..6).map(|i| (i as f64 * 0.01, 500.0, 0.5, 1)).collect();
        // Plain next-fit packs the app into domain 0's first two machines.
        let mut packed = DatacenterService::new(ServiceConfig::xeon_fleet(8, 3), sessions(&specs));
        packed.run_epochs(2);
        assert_eq!(packed.stats().arrivals, 6);
        assert!(packed.audit_spread().is_empty(), "spread off → no findings");
        assert_eq!(
            audit::check_spread(packed.cluster(), &topo).len(),
            1,
            "next-fit concentrates the app in one domain"
        );
        // The spread scan balances the same stream across both domains.
        let mut spread = DatacenterService::new(
            ServiceConfig::xeon_fleet(8, 3).with_spread(topo),
            sessions(&specs),
        );
        spread.run_epochs(2);
        assert_eq!(spread.stats().arrivals, 6);
        assert_eq!(spread.stats().rejections, 0);
        assert_eq!(spread.audit(), Vec::<String>::new());
        assert_eq!(spread.audit_spread(), Vec::<String>::new());
        let per_domain: Vec<usize> = [0..4usize, 4..8]
            .into_iter()
            .map(|range| {
                range
                    .filter_map(|i| spread.cluster().machine(PmId(i as u64)))
                    .map(|m| m.vm_count())
                    .sum()
            })
            .collect();
        assert_eq!(per_domain, vec![3, 3], "placement alternates domains");
    }

    #[test]
    fn spread_placement_survives_faults_with_a_clean_audit() {
        let topo = Topology::new(2, 2);
        let stream = traces::hotmail_sessions(20_000.0, 0.01, 9);
        let mut svc =
            DatacenterService::new(ServiceConfig::xeon_fleet(8, 21).with_spread(topo), stream);
        svc.set_fault_plane(FaultPlane::new(
            77,
            crate::faults::FaultConfig::rack_outages(topo),
        ));
        for _ in 0..400 {
            svc.step_epoch();
            assert_eq!(svc.audit(), Vec::<String>::new());
        }
        let stats = svc.stats();
        assert!(stats.crashes > 0, "rack outages must fell machines");
        assert!(stats.arrivals > 0);
    }

    #[test]
    fn a_disabled_fault_plane_changes_nothing_byte_for_byte() {
        let stream = traces::hotmail_sessions(30_000.0, 0.008, 13);
        let run = |plane: Option<FaultPlane>| {
            let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(6, 17), stream.clone());
            if let Some(plane) = plane {
                svc.set_fault_plane(plane);
            }
            let mut all = Vec::new();
            for _ in 0..200 {
                all.push(svc.step_epoch());
            }
            (all, svc.stats())
        };
        let bare = run(None);
        let disabled = run(Some(FaultPlane::new(
            123,
            crate::faults::FaultConfig::disabled(),
        )));
        assert_eq!(bare, disabled);
    }

    #[test]
    fn unexpected_placement_errors_are_recorded_not_fatal() {
        let mut svc = DatacenterService::new(
            ServiceConfig::xeon_fleet(1, 6),
            sessions(&[(0.0, 10.0, 0.5, 1)]),
        );
        svc.step_epoch();
        assert!(svc.errors().is_empty());
        svc.record_placement_error(VmId(9), PmId(4), ClusterError::UnknownPm(PmId(4)));
        assert_eq!(svc.stats().placement_errors, 1);
        assert_eq!(svc.errors().len(), 1);
        let shown = svc.errors()[0].to_string();
        assert!(shown.contains("failed unexpectedly"), "got: {shown}");
        // The simulation keeps stepping normally afterwards.
        svc.run_epochs(15);
        assert!(svc.drained());
    }

    #[test]
    fn the_run_is_bit_reproducible_and_dense_equals_sparse() {
        let stream = traces::hotmail_sessions(40_000.0, 0.005, 11);
        assert!(stream.len() > 20, "want a busy little stream");
        let run = |sparse: bool| {
            let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(12, 7), stream.clone());
            svc.engine_mut().set_sparse(sparse);
            let mut all = Vec::new();
            for _ in 0..400 {
                all.push(svc.step_epoch());
            }
            (all, svc.stats())
        };
        let (sparse_reports, sparse_stats) = run(true);
        let (dense_reports, dense_stats) = run(false);
        assert_eq!(sparse_reports, dense_reports);
        assert_eq!(sparse_stats, dense_stats);
        assert!(sparse_stats.arrivals > 0);
        assert!(sparse_stats.vm_epochs > 0);
    }

    #[test]
    fn note_capacity_freed_keeps_external_migrations_warm() {
        let mut svc = DatacenterService::new(
            ServiceConfig::xeon_fleet(3, 9),
            sessions(&[(0.0, 100.0, 0.5, 1), (20.0, 100.0, 0.5, 1)]),
        );
        svc.step_epoch();
        // Externally migrate VM 0 from machine 0 to machine 2, as the
        // DeepDive controller would, then report the freed source.
        let vm = VmId(0);
        let from = svc.cluster().locate(vm).expect("vm 0 resident");
        svc.cluster_mut()
            .migrate(vm, PmId(2))
            .expect("room on pm 2");
        svc.note_capacity_freed(from);
        // The next arrival (t = 20) lands on the freed machine first.
        svc.run_epochs(25);
        assert_eq!(svc.cluster().locate(VmId(1)), Some(from));
    }
}
