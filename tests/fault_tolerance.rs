//! Chaos suite: randomized fault + churn schedules through the service.
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
//! * **The cluster sees the plane's schedule** — after every epoch each
//!   machine's down and draining bits, which the service's sweep keeps in
//!   the cluster, equal the plane's pointwise answers, including for
//!   planes attached mid-run.
//! * **Runs are reproducible** — re-running the same fault schedule
//!   produces byte-identical report streams, stats and retry queues.
//! * **A disabled plane is inert** — attaching a fault plane whose rates
//!   are all zero reproduces the plane-less service trajectory byte for
//!   byte (the fault layer costs nothing when unused).

use cloudsim::faults::{FaultConfig, FaultPlane, Topology};
use cloudsim::service::{DatacenterService, ServiceConfig, ServiceStats};
use cloudsim::{PmId, VmEpochReport};
use proptest::prelude::*;

/// One run: build the service (spread-placing over the plane's topology
/// when `spread` is set and a plane is given), attach the plane before
/// epoch `attach_epoch`, step `epochs` epochs, and return the full
/// trajectory.  After every epoch the audit must be clean and the
/// cluster's down and draining bits must equal the plane's pointwise
/// answers for that epoch.
fn run_chaos(
    machines: usize,
    cluster_seed: u64,
    trace_seed: u64,
    plane: Option<FaultPlane>,
    attach_epoch: u64,
    epochs: u64,
    spread: bool,
) -> (Vec<Vec<VmEpochReport>>, ServiceStats, usize) {
    let stream = traces::hotmail_sessions(25_000.0, 0.01, trace_seed);
    let mut config = ServiceConfig::xeon_fleet(machines, cluster_seed);
    if let (true, Some(plane)) = (spread, plane) {
        config = config.with_spread(plane.config().topology);
    }
    let mut svc = DatacenterService::new(config, stream);
    let mut trajectory = Vec::new();
    for epoch in 0..epochs {
        if epoch == attach_epoch {
            if let Some(plane) = plane {
                svc.set_fault_plane(plane);
            }
        }
        trajectory.push(svc.step_epoch());
        let findings = svc.audit();
        assert_eq!(findings, Vec::<String>::new(), "invariants violated");
        if let Some(plane) = plane.filter(|_| epoch >= attach_epoch) {
            let cluster = svc.cluster();
            for pm in (0..machines as u64).map(PmId) {
                assert_eq!(
                    (cluster.machine_down(pm), cluster.machine_draining(pm)),
                    (
                        plane.machine_down(pm, epoch),
                        plane.machine_draining(pm, epoch)
                    ),
                    "{pm} at epoch {epoch}: cluster bits vs the plane's (down, draining)"
                );
            }
        }
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
    // Each case steps one full service run; keep the count modest so the
    // suite stays inside the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under a randomized fault + churn schedule every epoch passes the
    /// invariant audit and the fault-flag check, and no admitted VM is
    /// lost.  The plane may be attached mid-run.
    #[test]
    fn random_fault_schedules_survive_chaos(
        config in fault_config_strategy(),
        fault_seed in 0..u64::MAX,
        cluster_seed in 0..1_000_u64,
        trace_seed in 0..1_000_u64,
        machines in 3..8_usize,
        attach_epoch in 0..40_u64,
        spread in 0..2_u8,
    ) {
        let plane = Some(FaultPlane::new(fault_seed, config));
        let epochs = 120;
        let (trajectory, stats, parked) =
            run_chaos(machines, cluster_seed, trace_seed, plane, attach_epoch, epochs, spread == 1);
        // Accounting sanity: every admitted VM is somewhere — departed,
        // resident, parked, or abandoned (an abandoned evacuee was admitted
        // once; its departure never fires).
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
        let bare = run_chaos(machines, cluster_seed, trace_seed, None, 0, 100, false);
        let gated = run_chaos(machines, cluster_seed, trace_seed, disabled, 0, 100, false);
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
        4,
        7,
        7,
        Some(FaultPlane::new(0xC0FFEE, config)),
        0,
        400,
        false,
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
/// two-rack/two-domain fleet.  Two runs of the schedule agree byte for
/// byte, the audit is green after every epoch, and both fault families
/// leave fingerprints in the stats (correlated windows fell machines;
/// drains migrate VMs gracefully during the notice window instead of
/// crashing them).
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
    // Both placement policies: plain next-fit and failure-domain spread.
    for spread in [false, true] {
        let first = run_chaos(4, 11, 11, plane, 0, epochs, spread);
        // A second run in the same process: any state that leaked between
        // services, or any per-instance hash order, would show up here.
        assert_eq!(
            first,
            run_chaos(4, 11, 11, plane, 0, epochs, spread),
            "reruns diverged (spread: {spread})"
        );

        let (_, stats, _) = first;
        // Correlated windows: with no independent crash stream configured,
        // every hard down-edge here is a rack or domain outage.
        assert!(
            stats.crashes > 0,
            "correlated outages never felled a machine: {stats:?}"
        );
        assert!(stats.repairs > 0, "outage windows never ended: {stats:?}");
        // Drains: notice windows opened, machines went into maintenance,
        // and at least one resident VM was migrated off gracefully.
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
}
