//! The closed loop under faults: `ManagedDatacenter` (service + fault
//! plane + DeepDive controller) on a few hundred machines.
//!
//! The chaos suite (`fault_tolerance.rs`) stops at the service; this suite
//! puts the controller on top — the warning sweep over a fleet where one
//! application dominates (the Hotmail preset's Zipf), tenants evacuated
//! from crashed machines mid-window, analyses deferred and degraded around
//! a sandbox outage — and checks what the loop promises (these tenants
//! never interfere enough to confirm, so mitigation itself stays with the
//! controller's unit tests and the `interference_episodes` benchmark):
//!
//! * the service's invariant audit stays clean after every epoch;
//! * Serial and Pooled stepping agree on every controller event, both
//!   stats structs and the final placement;
//! * the run's counters equal the values recorded before the controller's
//!   epoch index replaced its hash-map scratch (a speed-only change);
//! * the controller holds per-VM state for no more VMs than are still in
//!   the system — departed sessions take theirs with them.

use cloudsim::faults::{FaultConfig, FaultPlane};
use cloudsim::service::{DatacenterService, ServiceConfig, ServiceStats};
use cloudsim::{ExecutionMode, PmId, VmId};
use deepdive::controller::{DeepDiveConfig, DeepDiveStats, EpochEvent};
use deepdive::ManagedDatacenter;
use traces::VmSession;

const MACHINES: usize = 200;
const EPOCHS: u64 = 240;
/// Arrival times and lifetimes shrink by this factor, so a 240-epoch run
/// sees sessions arrive, work, idle and depart (the preset's median
/// lifetime is two hours).
const COMPRESSION: f64 = 48.0;

fn sessions() -> Vec<VmSession> {
    traces::hotmail_sessions(30_000.0, 0.1, 7)
        .into_iter()
        .map(|s| VmSession {
            arrival_s: s.arrival_s / COMPRESSION,
            lifetime_s: s.lifetime_s / COMPRESSION,
            ..s
        })
        .collect()
}

struct Outcome {
    events: Vec<EpochEvent>,
    service: ServiceStats,
    controller: DeepDiveStats,
    placement: Vec<(PmId, Vec<VmId>)>,
    tracked_vms: usize,
    in_system: usize,
}

fn run(mode: ExecutionMode) -> Outcome {
    let mut service = DatacenterService::new(ServiceConfig::xeon_fleet(MACHINES, 7), sessions());
    service.engine_mut().set_mode(mode);
    let mut dc = ManagedDatacenter::new(service, DeepDiveConfig::default());
    dc.set_fault_plane(FaultPlane::new(1, FaultConfig::light()));
    let mut events = Vec::new();
    for epoch in 0..EPOCHS {
        let (reports, epoch_events) = dc.step_epoch();
        assert_eq!(reports.len(), dc.service().cluster().vm_count());
        assert_eq!(
            dc.service().audit(),
            Vec::<String>::new(),
            "invariants violated after epoch {epoch}"
        );
        events.extend(epoch_events);
    }
    let cluster = dc.service().cluster();
    Outcome {
        events,
        service: dc.service_stats(),
        controller: dc.controller_stats(),
        placement: cluster
            .machines()
            .iter()
            .map(|m| (m.id, m.vms().iter().map(|vm| vm.id).collect()))
            .collect(),
        tracked_vms: dc.controller().tracked_vms(),
        in_system: cluster.vm_count() + dc.service().parked(),
    }
}

#[test]
fn the_managed_loop_survives_faults_identically_in_every_mode_and_forgets_the_departed() {
    let serial = run(ExecutionMode::Serial);
    let pooled = run(ExecutionMode::Pooled { threads: 3 });
    assert_eq!(serial.events, pooled.events, "event streams diverged");
    assert_eq!(serial.service, pooled.service, "service stats diverged");
    assert_eq!(
        serial.controller, pooled.controller,
        "controller stats diverged"
    );
    assert_eq!(
        serial.placement, pooled.placement,
        "final placements diverged"
    );

    // Recorded at commit 1e5d306 (per-VM hash-map scratch, eager peer
    // copies, per-machine report scans): this run is a speed-only change.
    assert_eq!(serial.events.len(), GOLDEN_EVENTS);
    assert_eq!(serial.controller, golden_controller_stats());
    assert_eq!(serial.service, golden_service_stats());

    // Leak guard: state only for VMs still resident or parked.
    assert!(
        serial.tracked_vms <= serial.in_system,
        "controller tracks {} VMs, {} are in the system",
        serial.tracked_vms,
        serial.in_system
    );
}

/// 207 `Analyzed`, 43 `AnalysisDeferred` (fault seed 1 puts a sandbox
/// outage inside the run), 20 `AnalysisDegraded`.
const GOLDEN_EVENTS: usize = 270;

fn golden_controller_stats() -> DeepDiveStats {
    DeepDiveStats {
        evaluations: 103_406,
        analyzer_invocations: 207,
        interference_confirmed: 0,
        false_alarms: 207,
        migrations: 0,
        profiling_seconds: 6802.0,
        global_matches: 8,
        sandbox_spec_fallbacks: 0,
        analyses_deferred: 43,
        degraded_decisions: 20,
        migration_retries: 0,
    }
}

fn golden_service_stats() -> ServiceStats {
    ServiceStats {
        arrivals: 932,
        departures: 434,
        rejections: 0,
        vm_epochs: 103_406,
        peak_resident: 646,
        crashes: 190,
        maintenance_windows: 0,
        repairs: 179,
        evacuations: 404,
        drains: 0,
        drain_migrations: 0,
        draining_machine_epochs: 0,
        retries: 0,
        retry_admissions: 0,
        retry_wait_epochs: 0,
        abandonments: 0,
        placement_errors: 0,
        down_machine_epochs: 1473,
    }
}
