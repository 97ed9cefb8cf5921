//! Cluster invariant auditing: the checks that make chaos testing honest.
//!
//! The fault plane deliberately drives the cluster through its nastiest
//! transitions — crash drains, evacuations, retried placements, repairs —
//! and a bug in any of them would silently corrupt the bookkeeping the
//! whole simulation rests on.  [`check_cluster`] sweeps a [`Cluster`] and
//! verifies:
//!
//! * **No VM is resident on two machines** — every VM id appears on at most
//!   one machine's resident list.
//! * **No VM is lost** — every machine-resident VM is located by the
//!   cluster's O(1) id→machine index, the index points back at the hosting
//!   machine, and the index holds no phantom entries (its count equals the
//!   scanned resident count).
//! * **Machine ids are indices** — machine `i` carries `PmId(i)`, which is
//!   what lets [`Cluster::machine`] index its list directly.
//! * **Domain counts are exact** — when the cluster keeps per-application
//!   power-domain counts for spread placement, they equal a recount from
//!   the machines' resident lists.
//! * **The occupied set is exact** — the bitset the epoch engine walks
//!   has a bit set for exactly the machines with residents.
//! * **A down machine hosts nothing** — no machine whose down bit is set
//!   has a resident.
//! * **Capacity accounting is exact** — per machine, resident vCPUs never
//!   exceed the spec's cores and `cloudsim::pm::PhysicalMachine::free_cores`
//!   equals spec cores minus resident vCPUs.
//!
//! Findings come back as human-readable strings (empty = clean); the chaos
//! suite asserts emptiness after every epoch, and
//! [`crate::service::DatacenterService::audit`] layers the service-level
//! invariants (parked VMs are not resident, the down and draining bits are
//! the fault calendar's) on top.
//!
//! The tests' `check_spread` is a separate, *advisory* check of the
//! failure-domain spread policy: an application with two or more VMs
//! should not have all of them behind one power domain.  It is not part of
//! the hard invariant audit because capacity pressure can legitimately
//! force co-location — the spread constraint is best-effort by design.
//!

use std::collections::{BTreeMap, BTreeSet};

use crate::cluster::Cluster;
use crate::pm::PmId;
use crate::vm::VmId;
use workloads::AppId;

/// Sweeps every machine and the location index; returns one message per
/// violated invariant (empty when the cluster is consistent).
pub fn check_cluster(cluster: &Cluster) -> Vec<String> {
    let mut findings = Vec::new();
    let mut seen_vms: BTreeSet<VmId> = BTreeSet::new();
    let mut scanned = 0usize;
    let tracked = cluster.tracked_domains();
    let domains = tracked.map_or(0, |(topology, _)| {
        topology.domains_in_fleet(cluster.machines().len())
    });
    let mut recount: BTreeMap<AppId, Vec<u32>> = BTreeMap::new();
    let mut occupied = vec![0u64; cluster.machines().len().div_ceil(64)];

    for (index, machine) in cluster.machines().iter().enumerate() {
        if machine.id != PmId(index as u64) {
            findings.push(format!("machine {index} carries id {}", machine.id));
        }

        if !machine.vms().is_empty() {
            occupied[index / 64] |= 1 << (index % 64);
            if cluster.machine_down(machine.id) {
                findings.push(format!(
                    "{} is down but hosts {} VMs",
                    machine.id,
                    machine.vm_count()
                ));
            }
        }
        let mut used_vcpus = 0usize;
        for vm in machine.vms() {
            scanned += 1;
            used_vcpus += vm.vcpus;
            if !seen_vms.insert(vm.id) {
                findings.push(format!("{} is resident on two machines", vm.id));
            }
            match cluster.locate(vm.id) {
                Some(pm) if pm == machine.id => {}
                Some(pm) => findings.push(format!(
                    "{} is resident on {} but the location index says {}",
                    vm.id, machine.id, pm
                )),
                None => findings.push(format!(
                    "{} is resident on {} but lost from the location index",
                    vm.id, machine.id
                )),
            }
            if let Some((topology, _)) = tracked {
                let counts = recount
                    .entry(vm.app_id())
                    .or_insert_with(|| vec![0; domains]);
                counts[topology.domain_of(machine.id) as usize] += 1;
            }
        }

        if used_vcpus > machine.spec().cores {
            findings.push(format!(
                "{} overcommitted: {} resident vCPUs on {} cores",
                machine.id,
                used_vcpus,
                machine.spec().cores
            ));
        }
        let expected_free = machine.spec().cores.saturating_sub(used_vcpus);
        if machine.free_cores() != expected_free {
            findings.push(format!(
                "{} capacity accounting drifted: free_cores() = {}, expected {}",
                machine.id,
                machine.free_cores(),
                expected_free
            ));
        }
    }

    if let Some((_, kept)) = tracked {
        // Applications whose VMs have all left keep a row of zeros.
        let kept: BTreeMap<AppId, Vec<u32>> = kept
            .iter()
            .filter(|(_, counts)| counts.iter().any(|&n| n > 0))
            .map(|(app, counts)| (*app, counts.clone()))
            .collect();
        if kept != recount {
            findings.push(format!(
                "domain counts drifted: kept {kept:?}, recount {recount:?}"
            ));
        }
    }

    if cluster.occupied() != occupied.as_slice() {
        findings.push(format!(
            "occupied-machine set drifted: kept {:x?}, recount {occupied:x?}",
            cluster.occupied()
        ));
    }

    if cluster.vm_count() != scanned {
        findings.push(format!(
            "location index tracks {} VMs but machines host {} (phantom or lost entries)",
            cluster.vm_count(),
            scanned
        ));
    }

    findings
}

/// Checks the failure-domain spread policy under `topology`: every
/// application with two or more resident VMs should span at least two
/// power domains, provided the fleet itself does (a single-domain fleet
/// cannot spread anything and audits clean by definition).  Returns one
/// message per concentrated application.
///
/// This is advisory, not a hard invariant — under capacity pressure the
/// service places wherever room exists rather than reject, so callers
/// assert emptiness only in scenarios with known headroom.
#[cfg(test)]
pub(crate) fn check_spread(cluster: &Cluster, topology: &crate::faults::Topology) -> Vec<String> {
    let mut fleet_domains: BTreeSet<u64> = BTreeSet::new();
    let mut apps: BTreeMap<AppId, (usize, BTreeSet<u64>)> = BTreeMap::new();
    for machine in cluster.machines() {
        let domain = topology.domain_of(machine.id);
        fleet_domains.insert(domain);
        for vm in machine.vms() {
            let entry = apps.entry(vm.app_id()).or_default();
            entry.0 += 1;
            entry.1.insert(domain);
        }
    }
    if fleet_domains.len() < 2 {
        return Vec::new();
    }
    apps.iter()
        .filter(|(_, (count, domains))| *count >= 2 && domains.len() < 2)
        .map(|(app, (count, domains))| {
            let domain = domains.first().copied().unwrap_or(0);
            format!(
                "{app:?} concentrates all {count} of its VMs in power domain \
                 {domain} of a {}-domain fleet",
                fleet_domains.len()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::faults::Topology;
    use crate::scheduler::Scheduler;
    use crate::vm::Vm;
    use hwsim::MachineSpec;
    use workloads::{AppId, ClientEmulator, DataServing};

    fn vm(id: u64) -> Vm {
        Vm::new(
            VmId(id),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        )
    }

    #[test]
    fn a_consistent_cluster_audits_clean() {
        let mut cluster = Cluster::homogeneous(3, MachineSpec::xeon_x5472(), Scheduler::default());
        // One machine per power domain, so every move below crosses one.
        cluster.track_domains(Topology::new(1, 1));
        for i in 0..7 {
            cluster.place_first_fit(vm(i)).unwrap();
        }
        cluster.migrate(VmId(0), PmId(2)).unwrap();
        cluster.remove_vm(VmId(3)).unwrap();
        assert_eq!(check_cluster(&cluster), Vec::<String>::new());
        assert_eq!(cluster.domain_counts(AppId(1)), [2, 3, 1]);
    }

    #[test]
    fn a_drained_machine_audits_clean() {
        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.track_domains(Topology::new(1, 1));
        for i in 0..5 {
            cluster.place_first_fit(vm(i)).unwrap();
        }
        for i in 0..4 {
            cluster.remove_vm(VmId(i)).unwrap();
        }
        assert_eq!(check_cluster(&cluster), Vec::<String>::new());
        assert_eq!(cluster.vm_count(), 1);
        assert_eq!(cluster.domain_counts(AppId(1)), [0, 1]);
    }

    #[test]
    fn an_empty_cluster_audits_clean() {
        let cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        assert!(check_cluster(&cluster).is_empty());
    }

    #[test]
    fn the_spread_check_fires_on_a_concentrated_app() {
        // Four machines, one per rack, two racks per domain → machines
        // {0, 1} form domain 0, {2, 3} domain 1.
        let topo = Topology::new(1, 2);
        let mut cluster = Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
        // Both of app 1's VMs land in domain 0: a violation.
        cluster.place_on(PmId(0), vm(0)).unwrap();
        cluster.place_on(PmId(1), vm(1)).unwrap();
        let findings = check_spread(&cluster, &topo);
        assert_eq!(findings.len(), 1, "got: {findings:?}");
        assert!(findings[0].contains("power domain 0"), "got: {findings:?}");
        // Moving one VM across the domain boundary clears it.
        cluster.migrate(VmId(1), PmId(2)).unwrap();
        assert_eq!(check_spread(&cluster, &topo), Vec::<String>::new());
    }

    #[test]
    fn the_spread_check_ignores_singletons_and_single_domain_fleets() {
        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), vm(0)).unwrap();
        cluster.place_on(PmId(0), vm(1)).unwrap();
        // Both machines share the one domain: nothing can be spread.
        assert!(check_spread(&cluster, &Topology::new(2, 1)).is_empty());
        // Two domains, but app 1 has a co-located pair → fires; a lone VM
        // of another app never does.
        let topo = Topology::new(1, 1);
        assert_eq!(check_spread(&cluster, &topo).len(), 1);
        cluster.remove_vm(VmId(1)).unwrap();
        assert!(check_spread(&cluster, &topo).is_empty());
    }
}
