//! Chaos suite: randomized fault + churn schedules through every engine.
//!
//! The fault plane's whole contract is that machine crashes, evacuations,
//! retries and repairs are *simulation inputs*, not sources of
//! nondeterminism or corruption.  These properties drive randomized
//! fault schedules against randomized session churn and assert, for every
//! schedule:
//!
//! * **Invariants hold after every epoch** — no VM resident on two
//!   machines or lost, id→index maps consistent, capacity accounting
//!   exact, parked VMs not resident, crashed machines empty
//!   ([`DatacenterService::audit`]).
//! * **Execution modes are bit-identical** — Serial and Pooled stepping
//!   (at two thread counts) produce byte-identical report streams, stats,
//!   retry queues and final placements under the same fault schedule.
//! * **A disabled plane is inert** — attaching a fault plane whose rates
//!   are all zero reproduces the plane-less service trajectory byte for
//!   byte (the fault layer costs nothing when unused).

use cloudsim::faults::{FaultConfig, FaultPlane, Topology};
use cloudsim::service::{DatacenterService, ServiceConfig, ServiceStats};
use cloudsim::{ExecutionMode, VmEpochReport};
use proptest::prelude::*;

/// One run: build the service, attach the plane, step `epochs` epochs
/// auditing after each, and return the full trajectory.
fn run_chaos(
    mode: ExecutionMode,
    machines: usize,
    cluster_seed: u64,
    trace_seed: u64,
    plane: Option<FaultPlane>,
    epochs: u64,
) -> (Vec<Vec<VmEpochReport>>, ServiceStats, usize) {
    let stream = traces::hotmail_sessions(25_000.0, 0.01, trace_seed);
    let mut svc = DatacenterService::new(ServiceConfig::xeon_fleet(machines, cluster_seed), stream);
    svc.engine_mut().set_mode(mode);
    if let Some(plane) = plane {
        svc.set_fault_plane(plane);
    }
    let mut trajectory = Vec::new();
    for _ in 0..epochs {
        trajectory.push(svc.step_epoch());
        let findings = svc.audit();
        assert_eq!(findings, Vec::<String>::new(), "invariants violated");
    }
    (trajectory, svc.stats(), svc.parked())
}

/// Strategy over fault configurations from "calm" to "hostile" (rates far
/// above anything realistic, to force crash pile-ups and retry storms).
/// Correlated modes ride along: random topologies so small fleets span one
/// or several racks/domains, rack and domain outage streams, and planned
/// drains with short notice windows.  Rack/domain outages and maintenance
/// offline windows reuse the repair/outage window draws — the schedule
/// derivation is identical, only the KIND tag differs.
fn fault_config_strategy() -> impl Strategy<Value = FaultConfig> {
    let base = (
        0.0..0.05_f64, // machine crash rate per epoch
        1..6_u64,      // repair window min
        0..12_u64,     // repair window extra
        0.0..0.5_f64,  // migration failure rate
        0.0..0.02_f64, // sandbox outage rate
        1..4_u64,      // outage window min
        0..8_u64,      // outage window extra
    );
    let correlated = (
        1..4_usize,    // machines per rack
        1..3_usize,    // racks per power domain
        0.0..0.02_f64, // rack outage rate per epoch
        0.0..0.01_f64, // domain outage rate per epoch
        0.0..0.06_f64, // drain start rate per epoch
        1..4_u64,      // drain notice window
    );
    (base, correlated).prop_map(
        |(
            (crash, repair_min, repair_extra, migration, outage, outage_min, outage_extra),
            (machines_per_rack, racks_per_domain, rack, domain, drain, notice),
        )| {
            FaultConfig {
                machine_crash_per_epoch: crash,
                repair_epochs: (repair_min, repair_min + repair_extra),
                migration_failure: migration,
                sandbox_outage_per_epoch: outage,
                outage_epochs: (outage_min, outage_min + outage_extra),
                topology: Topology::new(machines_per_rack, racks_per_domain),
                rack_outage_per_epoch: rack,
                rack_outage_epochs: (repair_min, repair_min + repair_extra),
                domain_outage_per_epoch: domain,
                domain_outage_epochs: (outage_min, outage_min + outage_extra),
                machine_drain_per_epoch: drain,
                drain_notice_epochs: notice,
                maintenance_epochs: (repair_min, repair_min + repair_extra),
            }
        },
    )
}

proptest! {
    // Each case steps three full service runs; keep the count modest so
    // the suite stays inside the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial and Pooled stepping agree byte for byte on the
    /// entire trajectory — reports, stats, retry queue depth — under the
    /// same randomized fault + churn schedule, and every epoch of every
    /// mode passes the invariant audit.
    #[test]
    fn every_execution_mode_survives_chaos_bit_identically(
        config in fault_config_strategy(),
        fault_seed in 0..u64::MAX,
        cluster_seed in 0..1_000_u64,
        trace_seed in 0..1_000_u64,
        machines in 3..8_usize,
    ) {
        let plane = Some(FaultPlane::new(fault_seed, config));
        let epochs = 120;
        let serial = run_chaos(
            ExecutionMode::Serial, machines, cluster_seed, trace_seed, plane, epochs,
        );
        for threads in [2, 3] {
            let pooled = run_chaos(
                ExecutionMode::Pooled { threads }, machines, cluster_seed, trace_seed, plane, epochs,
            );
            prop_assert_eq!(&serial, &pooled, "Serial and Pooled {{ {} }} diverged", threads);
        }
        // Accounting sanity: every admitted VM is somewhere — departed,
        // resident, parked, or abandoned (an abandoned evacuee was admitted
        // once; its departure never fires).
        let (trajectory, stats, parked) = serial;
        let resident = trajectory.last().map_or(0, |r| r.len()) as u64;
        prop_assert!(stats.arrivals >= stats.departures);
        prop_assert!(
            stats.arrivals <= stats.departures + resident + parked as u64 + stats.abandonments,
            "VMs leaked: {:?} resident={} parked={}", stats, resident, parked
        );
    }

    /// A plane with all rates zero reproduces the plane-less trajectory
    /// byte for byte: the fault layer is free when disabled.
    #[test]
    fn a_disabled_plane_reproduces_the_fault_free_trajectory(
        fault_seed in 0..u64::MAX,
        cluster_seed in 0..1_000_u64,
        trace_seed in 0..1_000_u64,
        machines in 3..8_usize,
    ) {
        let disabled = Some(FaultPlane::new(fault_seed, FaultConfig::disabled()));
        let bare = run_chaos(
            ExecutionMode::Serial, machines, cluster_seed, trace_seed, None, 100,
        );
        let gated = run_chaos(
            ExecutionMode::Serial, machines, cluster_seed, trace_seed, disabled, 100,
        );
        prop_assert_eq!(bare, gated);
    }
}

/// One deterministic, always-run smoke of the nastiest corner: a fleet so
/// overloaded and crash-prone that evacuations, retries, abandonments and
/// repairs all fire — with the audit green throughout.
#[test]
fn a_hostile_schedule_exercises_every_fault_path() {
    let config = FaultConfig {
        machine_crash_per_epoch: 0.03,
        repair_epochs: (3, 10),
        migration_failure: 0.3,
        sandbox_outage_per_epoch: 0.01,
        outage_epochs: (4, 10),
        ..FaultConfig::disabled()
    };
    let (_, stats, _) = run_chaos(
        ExecutionMode::Serial,
        4,
        7,
        7,
        Some(FaultPlane::new(0xC0FFEE, config)),
        400,
    );
    assert!(
        stats.crashes > 0,
        "hostile schedule never crashed: {stats:?}"
    );
    assert!(stats.repairs > 0, "machines never repaired: {stats:?}");
    assert!(stats.down_machine_epochs > 0);
    assert!(
        stats.evacuations > 0 || stats.retries > 0,
        "crashes never displaced a VM: {stats:?}"
    );
}

/// The correlated corner of the hostile smoke: rack and domain outage
/// streams plus planned maintenance drains, all firing at once over a
/// two-rack/two-domain fleet.  Every mode agrees byte for byte, the audit
/// is green after every epoch, and both fault families leave fingerprints
/// in the stats (correlated windows fell machines; drains migrate VMs
/// gracefully during the notice window instead of crashing them).
#[test]
fn correlated_outages_and_drains_survive_chaos_bit_identically() {
    let config = FaultConfig {
        topology: Topology::new(2, 1),
        rack_outage_per_epoch: 0.01,
        rack_outage_epochs: (3, 8),
        domain_outage_per_epoch: 0.005,
        domain_outage_epochs: (4, 10),
        machine_drain_per_epoch: 0.02,
        drain_notice_epochs: 3,
        maintenance_epochs: (3, 8),
        migration_failure: 0.2,
        ..FaultConfig::disabled()
    };
    let plane = Some(FaultPlane::new(0xDECAF, config));
    let epochs = 400;
    let serial = run_chaos(ExecutionMode::Serial, 4, 11, 11, plane, epochs);
    for threads in [2, 3] {
        let pooled = run_chaos(ExecutionMode::Pooled { threads }, 4, 11, 11, plane, epochs);
        assert_eq!(serial, pooled, "Serial and Pooled {{ {threads} }} diverged");
    }

    let (_, stats, _) = serial;
    // Correlated windows: with no independent crash stream configured,
    // every hard down-edge here is a rack or domain outage.
    assert!(
        stats.crashes > 0,
        "correlated outages never felled a machine: {stats:?}"
    );
    assert!(stats.repairs > 0, "outage windows never ended: {stats:?}");
    // Drains: notice windows opened, machines went into maintenance, and
    // at least one resident VM was migrated off gracefully.
    assert!(stats.drains > 0, "no drain ever started: {stats:?}");
    assert!(
        stats.maintenance_windows > 0,
        "no drain reached its offline window: {stats:?}"
    );
    assert!(
        stats.drain_migrations > 0,
        "drains never migrated a resident VM: {stats:?}"
    );
    assert!(stats.draining_machine_epochs > 0);
}
