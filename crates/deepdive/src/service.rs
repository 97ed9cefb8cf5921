//! DeepDive driving a live, churning datacenter.
//!
//! The controller loop in [`crate::controller`] assumes somebody else
//! steps the cluster and hands it reports.  [`ManagedDatacenter`] is that
//! somebody at datacenter scale: it owns a
//! [`cloudsim::service::DatacenterService`] (VM sessions arriving, idling
//! and departing per a trace, stepped by the sparse epoch engine) and a
//! [`DeepDive`] controller, and closes the loop each epoch —
//!
//! 1. the service applies due arrivals/idles/departures and steps one
//!    epoch, producing the per-VM reports, and the controller forgets the
//!    VMs that left for good;
//! 2. the controller's warning system sweeps the reports, analyzes
//!    suspects in the sandbox and (optionally) migrates confirmed victims;
//! 3. every machine a migration freed is reported back to the service's
//!    placement hints, so the next arrival finds the hole without a scan.
//!
//! The composition stays deterministic end to end: the service is
//! bit-reproducible by construction and the controller is a pure function
//! of the report stream and its own seed.

use cloudsim::service::{DatacenterService, ServiceStats};
use cloudsim::VmEpochReport;

use crate::controller::{DeepDive, DeepDiveConfig, DeepDiveStats, EpochEvent};

/// A churning datacenter with the DeepDive control loop on top.
pub struct ManagedDatacenter {
    service: DatacenterService,
    controller: DeepDive,
}

impl ManagedDatacenter {
    /// Wraps a datacenter service with a controller built for its fleet
    /// (one sandbox pool per machine model, as
    /// [`DeepDive::for_cluster`] derives).
    pub fn new(service: DatacenterService, config: DeepDiveConfig) -> Self {
        let controller = DeepDive::for_cluster(config, service.cluster());
        Self {
            service,
            controller,
        }
    }

    /// Attaches one shared fault plane to **both** layers: the service
    /// sweeps its machine crash/repair windows, the controller degrades
    /// around its sandbox outages and transient migration failures.  The
    /// plane is `Copy`, so both sides read the same counter-derived
    /// schedule; a disabled plane is byte-for-byte inert.
    pub fn set_fault_plane(&mut self, plane: cloudsim::FaultPlane) {
        self.service.set_fault_plane(plane);
        self.controller.set_fault_plane(plane);
    }

    /// The datacenter front end.
    pub fn service(&self) -> &DatacenterService {
        &self.service
    }

    /// The DeepDive controller.
    pub fn controller(&self) -> &DeepDive {
        &self.controller
    }

    /// Service-side counters (arrivals, departures, rejections, VM-epochs).
    pub fn service_stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Controller-side counters (warnings, analyses, migrations).
    pub fn controller_stats(&self) -> DeepDiveStats {
        self.controller.stats()
    }

    /// One closed-loop epoch: churn, step, sweep, mitigate.  Returns the
    /// controller's events alongside the epoch's reports.
    pub fn step_epoch(&mut self) -> (Vec<VmEpochReport>, Vec<EpochEvent>) {
        let reports = self.service.step_epoch();
        // Sessions that ended take their controller state with them;
        // parked evacuees keep theirs, they report again.
        self.controller
            .forget_vms(self.service.departed_last_epoch());
        let events = self
            .controller
            .process_epoch(self.service.cluster_mut(), &reports);
        for event in &events {
            if let EpochEvent::Migrated { from, .. } = event {
                // The migration left a hole on the source machine; keep
                // the service's placement hints warm so the next arrival
                // lands there without rescanning the fleet.
                self.service.note_capacity_freed(*from);
            }
        }
        (reports, events)
    }

    /// Runs `epochs` closed-loop epochs, discarding per-epoch output.
    pub fn run_epochs(&mut self, epochs: u64) -> (ServiceStats, DeepDiveStats) {
        for _ in 0..epochs {
            self.step_epoch();
        }
        (self.service.stats(), self.controller.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::service::ServiceConfig;
    use traces::VmSession;

    fn busy_sessions(count: usize) -> Vec<VmSession> {
        (0..count)
            .map(|i| VmSession {
                arrival_s: i as f64 * 0.25,
                lifetime_s: 400.0,
                active_load: 0.85,
                app_rank: 1 + i % 3,
            })
            .collect()
    }

    #[test]
    fn the_closed_loop_runs_and_keeps_both_sides_consistent() {
        let service = DatacenterService::new(ServiceConfig::xeon_fleet(4, 21), busy_sessions(10));
        let mut dc = ManagedDatacenter::new(service, DeepDiveConfig::default());
        let (service_stats, controller_stats) = dc.run_epochs(40);
        assert_eq!(service_stats.arrivals, 10);
        assert_eq!(service_stats.rejections, 0);
        assert!(service_stats.vm_epochs > 0);
        assert!(
            controller_stats.evaluations > 0,
            "the warning system must sweep every epoch"
        );
        // Whatever the controller did, the cluster and service agree on
        // who is resident.
        assert_eq!(dc.service().cluster().vm_count(), 10);
    }

    #[test]
    fn the_fault_plane_reaches_both_layers_and_the_loop_survives_chaos() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let service = DatacenterService::new(ServiceConfig::xeon_fleet(4, 33), busy_sessions(10));
        let mut dc = ManagedDatacenter::new(service, DeepDiveConfig::default());
        dc.set_fault_plane(FaultPlane::new(11, FaultConfig::light()));
        assert!(dc.service().fault_plane().is_some());
        assert!(dc.controller().fault_plane().is_some());
        let (service_stats, _) = dc.run_epochs(300);
        assert!(
            service_stats.crashes > 0,
            "light faults must crash a machine"
        );
        assert_eq!(
            dc.service().audit(),
            Vec::<String>::new(),
            "chaos must not corrupt the cluster"
        );
    }

    #[test]
    fn the_managed_loop_is_deterministic() {
        let run = || {
            let service = DatacenterService::new(ServiceConfig::xeon_fleet(3, 5), busy_sessions(8));
            let mut dc = ManagedDatacenter::new(service, DeepDiveConfig::default());
            let mut log = Vec::new();
            for _ in 0..30 {
                let (reports, events) = dc.step_epoch();
                log.push((reports, events.len()));
            }
            (log, dc.service_stats(), dc.controller_stats())
        };
        assert_eq!(run(), run());
    }
}
