//! Reusable, allocation-free epoch resolver.
//!
//! Resolving an epoch is the hottest function in the whole simulation: every
//! epoch of every machine in every bench kernel funnels through it, and the
//! original one-shot implementation re-allocated roughly a dozen intermediate
//! vectors per call (per-group membership lists, demand reference slices,
//! miss vectors, per-device outcome vectors, the result itself) and
//! re-derived cache-group membership with one filtering pass per group.
//!
//! [`EpochResolver`] replaced it: a stateful object built once per
//! [`MachineSpec`] that owns every scratch buffer the pipeline needs and
//! exposes [`EpochResolver::resolve_into`], which writes outcomes into a
//! caller-provided vector.  After the first call on a machine the resolver
//! performs **zero heap allocations per epoch**, and cache-group membership
//! is derived in a single pass over the placements instead of one pass per
//! group.  The arithmetic is performed in exactly the same order as the
//! original allocating path, so outcomes are bit-identical to the old
//! pipeline (with the net-stall clamp fix that landed alongside the refactor
//! applied to both) — a property pinned by the `resolver_equivalence`
//! proptest suite.
//!
//! Every call site holds a resolver: the `cloudsim` physical machine, the
//! sandbox replayer, synthetic-benchmark training and placement keep one and
//! call `resolve_into` every epoch; one-off callers (figures, tests) build
//! one per machine model and call [`EpochResolver::resolve`].

use crate::cache::{resolve_cache_group_members_into, CacheScratch};
use crate::contention::{EpochOutcome, PlacedDemand, StallBreakdown};
use crate::core::core_cycles;
use crate::counters::CounterSnapshot;
use crate::disk::{resolve_disk_into, DiskOutcome};
use crate::machine::MachineSpec;
use crate::membus::resolve_bus;
use crate::nic::{resolve_nic_into, NicOutcome};
use crate::{CACHE_LINE_BYTES, EPOCH_SECONDS};

/// Fraction of memory references that are loads (vs. stores); used only to
/// derive the `mem_load` counter from the memory-reference rate.
const LOAD_FRACTION: f64 = 0.7;

/// A reusable epoch-resolution pipeline for one machine model.
///
/// Owns all the scratch state resolving an epoch needs, so that repeated
/// calls — the steady state of every simulated machine — allocate nothing.
///
/// # Example
///
/// ```
/// use hwsim::{EpochResolver, MachineSpec, ResourceDemand};
/// use hwsim::contention::PlacedDemand;
///
/// let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
/// let demand = ResourceDemand::builder().instructions(1.0e9).build();
/// let mut outcomes = Vec::new();
/// for epoch in 0..3 {
///     let placements = [PlacedDemand::new(epoch, demand.clone(), 2, 0)];
///     resolver.resolve_into(&placements, 1.0, &mut outcomes);
///     assert_eq!(outcomes.len(), 1);
/// }
/// ```
#[derive(Debug)]
pub struct EpochResolver {
    spec: MachineSpec,
    /// Per-cache-group membership lists (indices into the placement slice).
    group_members: Vec<Vec<usize>>,
    effective_mpki: Vec<f64>,
    llc_misses: Vec<f64>,
    ifetch_misses: Vec<f64>,
    cache_scratch: CacheScratch,
    disk_out: Vec<DiskOutcome>,
    nic_out: Vec<NicOutcome>,
}

impl EpochResolver {
    /// Builds a resolver for one machine model.
    ///
    /// # Panics
    /// Panics if the spec is malformed.
    pub fn new(spec: MachineSpec) -> Self {
        assert!(
            spec.is_well_formed(),
            "malformed machine spec: {:?}",
            spec.name
        );
        let groups = spec.cache_groups();
        Self {
            spec,
            group_members: (0..groups).map(|_| Vec::new()).collect(),
            effective_mpki: Vec::new(),
            llc_misses: Vec::new(),
            ifetch_misses: Vec::new(),
            cache_scratch: CacheScratch::new(),
            disk_out: Vec::new(),
            nic_out: Vec::new(),
        }
    }

    /// The machine model this resolver was built for.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Convenience wrapper around [`EpochResolver::resolve_into`] using the
    /// default epoch duration and a fresh output vector.
    pub fn resolve(&mut self, placements: &[PlacedDemand]) -> Vec<EpochOutcome> {
        let mut out = Vec::with_capacity(placements.len());
        self.resolve_into(placements, EPOCH_SECONDS, &mut out);
        out
    }

    /// Resolves one epoch of execution for every VM placed on the machine,
    /// writing one [`EpochOutcome`] per placement into `out` (cleared first,
    /// index-aligned with `placements`).
    ///
    /// # Panics
    /// Panics if any demand is malformed, a placement names a cache group the
    /// machine does not have, a placement has zero vCPUs, or the epoch
    /// duration is not positive.
    pub fn resolve_into(
        &mut self,
        placements: &[PlacedDemand],
        epoch_seconds: f64,
        out: &mut Vec<EpochOutcome>,
    ) {
        let spec = &self.spec;
        assert!(epoch_seconds > 0.0, "epoch must have positive duration");
        for p in placements {
            assert!(
                p.demand.is_well_formed(),
                "malformed demand for VM {}: {:?}",
                p.vm_id,
                p.demand
            );
            assert!(
                p.cache_group < spec.cache_groups(),
                "VM {} placed on cache group {} but machine has {}",
                p.vm_id,
                p.cache_group,
                spec.cache_groups()
            );
            assert!(p.vcpus > 0, "VM {} placed with zero vCPUs", p.vm_id);
        }
        out.clear();
        if placements.is_empty() {
            return;
        }

        // --- Shared cache: resolve each cache group independently. ----------
        // One pass over the placements derives every group's membership.
        for members in self.group_members.iter_mut() {
            members.clear();
        }
        for (i, p) in placements.iter().enumerate() {
            self.group_members[p.cache_group].push(i);
        }
        self.effective_mpki.clear();
        self.effective_mpki.resize(placements.len(), 0.0);
        for members in self.group_members.iter() {
            if members.is_empty() {
                continue;
            }
            resolve_cache_group_members_into(
                spec.shared_cache_mb,
                placements,
                members,
                &mut self.cache_scratch,
            );
            for (slot, outcome) in members.iter().zip(&self.cache_scratch.outcomes) {
                self.effective_mpki[*slot] = outcome.effective_mpki;
            }
        }

        // --- Memory interconnect: machine-wide shared channel. --------------
        self.llc_misses.clear();
        self.llc_misses.extend(
            placements
                .iter()
                .zip(&self.effective_mpki)
                .map(|(p, &mpki)| mpki / 1_000.0 * p.demand.instructions),
        );
        self.ifetch_misses.clear();
        self.ifetch_misses.extend(
            placements
                .iter()
                .map(|p| p.demand.ifetch_mpki / 1_000.0 * p.demand.instructions),
        );
        let bus_traffic_mb: f64 = self
            .llc_misses
            .iter()
            .zip(&self.ifetch_misses)
            .map(|(&d, &i)| (d + i) * CACHE_LINE_BYTES / (1024.0 * 1024.0))
            .sum();
        let bus = resolve_bus(spec.memory_bandwidth_mbps, bus_traffic_mb, epoch_seconds);

        // --- Disk and NIC: machine-wide shared devices. ----------------------
        resolve_disk_into(
            spec.disk_seq_mbps,
            spec.disk_rand_mbps,
            placements,
            epoch_seconds,
            &mut self.disk_out,
        );
        resolve_nic_into(spec.nic_mbps, placements, epoch_seconds, &mut self.nic_out);
        let disk = &self.disk_out;
        let nic = &self.nic_out;

        // --- Per-VM assembly. ------------------------------------------------
        out.extend(placements.iter().enumerate().map(|(i, p)| {
            let d = &p.demand;
            let core = core_cycles(d.instructions, d.base_cpi, d.branch_mpki);

            let llc_accesses = d.l1_mpki / 1_000.0 * d.instructions;
            let llc_miss = self.llc_misses[i];
            let llc_hit = (llc_accesses - llc_miss).max(0.0);

            // Off-core stall cycles: shared-cache hits at the LLC latency,
            // misses at the memory latency, and the interconnect queueing
            // surcharge on top of every miss.
            let llc_hit_cycles = llc_hit * spec.shared_cache_hit_cycles;
            let llc_miss_cycles = llc_miss * spec.memory_latency_cycles;
            let bus_queue_cycles = llc_miss * spec.memory_latency_cycles * bus.queueing_overhead();

            let parallelism = d.parallelism.max(1.0).min(p.vcpus as f64);
            let to_seconds = |cycles: f64| cycles / (spec.clock_hz * parallelism);

            let breakdown = StallBreakdown {
                core_seconds: to_seconds(core.total()),
                llc_miss_seconds: to_seconds(llc_hit_cycles + llc_miss_cycles),
                bus_queue_seconds: to_seconds(bus_queue_cycles),
                disk_seconds: disk[i].stall_seconds,
                net_seconds: nic[i].stall_seconds,
            };

            let needed = breakdown.total();
            let achieved_fraction = if needed <= 0.0 {
                1.0
            } else {
                (epoch_seconds / needed).min(1.0)
            };

            // Scale all event counts by the fraction of the demanded work
            // that actually completed within the epoch.  The I/O stall
            // counters are additionally clamped by the fraction of the I/O
            // the device completed: a saturated disk or NIC cannot have been
            // waited on for traffic that never got through.
            let f = achieved_fraction;
            let inst_retired = d.instructions * f;
            let cpu_cycles =
                (core.total() + llc_hit_cycles + llc_miss_cycles + bus_queue_cycles) * f;
            let counters = CounterSnapshot {
                cpu_unhalted: cpu_cycles,
                inst_retired,
                l1d_repl: llc_accesses * f,
                l2_ifetch: d.ifetch_mpki / 1_000.0 * d.instructions * f,
                l2_lines_in: llc_miss * f,
                mem_load: d.mem_refs_per_instr * inst_retired * LOAD_FRACTION,
                resource_stalls: (llc_hit_cycles + llc_miss_cycles + bus_queue_cycles) * f,
                bus_tran_any: (llc_miss + self.ifetch_misses[i]) * f,
                bus_trans_ifetch: self.ifetch_misses[i] * f,
                bus_tran_brd: llc_miss * f,
                bus_req_out: llc_miss * spec.memory_latency_cycles * bus.latency_multiplier * f,
                br_miss_pred: d.branch_mpki / 1_000.0 * inst_retired,
                disk_stall_seconds: disk[i].stall_seconds
                    * f.min(disk[i].completed_fraction).clamp(0.0, 1.0),
                net_stall_seconds: nic[i].stall_seconds
                    * f.min(nic[i].completed_fraction).clamp(0.0, 1.0),
            };
            debug_assert!(
                counters.is_well_formed(),
                "produced malformed counters: {counters:?}"
            );

            EpochOutcome {
                vm_id: p.vm_id,
                counters,
                achieved_fraction,
                demanded_instructions: d.instructions,
                breakdown,
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::ResourceDemand;

    fn demand(instr: f64, ws: f64) -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(instr)
            .working_set_mb(ws)
            .l1_mpki(30.0)
            .llc_mpki_solo(4.0)
            .disk_read_mb(10.0)
            .net_tx_mb(20.0)
            .parallelism(2.0)
            .build()
    }

    #[test]
    fn reused_resolver_matches_a_fresh_one() {
        let spec = MachineSpec::xeon_x5472();
        let mut resolver = EpochResolver::new(spec.clone());
        let mut out = Vec::new();
        let fresh = |placements: &[PlacedDemand], epoch_seconds: f64| {
            let mut out = Vec::new();
            EpochResolver::new(spec.clone()).resolve_into(placements, epoch_seconds, &mut out);
            out
        };
        let first = [
            PlacedDemand::new(1, demand(2.0e9, 8.0), 2, 0),
            PlacedDemand::new(2, demand(3.0e9, 256.0), 2, 1),
        ];
        let second = [PlacedDemand::new(9, demand(1.0e9, 64.0), 4, 3)];
        // Interleave two different placements through the same resolver and
        // check each against a resolver built for that call alone: reuse
        // must not leak state.
        for _ in 0..3 {
            resolver.resolve_into(&first, 1.0, &mut out);
            assert_eq!(out, fresh(&first, 1.0));
            resolver.resolve_into(&second, 0.5, &mut out);
            assert_eq!(out, fresh(&second, 0.5));
        }
    }

    #[test]
    fn empty_placements_clear_the_output() {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let mut out = vec![];
        resolver.resolve_into(
            &[PlacedDemand::new(1, demand(1.0e9, 4.0), 2, 0)],
            1.0,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        resolver.resolve_into(&[], 1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "malformed machine spec")]
    fn malformed_spec_is_rejected_at_construction() {
        let mut spec = MachineSpec::xeon_x5472();
        spec.cores_per_cache_group = 3;
        EpochResolver::new(spec);
    }
}
