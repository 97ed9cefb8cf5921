//! Equivalence suite for the reusable [`EpochResolver`].
//!
//! The resolver refactor is a pure optimisation: it must change *no
//! observable outcome*.  This suite pins that property by keeping a frozen
//! copy of the pre-refactor allocating pipeline (`reference_resolve` below —
//! the body of the one-shot entry point the resolver replaced, composed from
//! the public per-device model functions) and asserting, over arbitrary
//! well-formed placements, that a **reused** resolver produces bit-identical
//! [`EpochOutcome`]s: exact `f64` equality via `PartialEq`, not approximate
//! comparison.
//!
//! One deliberate behaviour change landed in the same PR and is *included*
//! in the reference: `net_stall_seconds` now clamps on the NIC's completed
//! fraction exactly like the disk counter (it used to clamp on 1.0 only).
//! That counter bugfix is pinned separately by
//! `saturated_io_stall_counters_clamp_on_the_completed_fraction` in
//! `contention.rs`; this suite guarantees the *refactor* added no drift on
//! top of it.
//!
//! Coverage includes empty placements, empty cache groups, multi-group
//! placements on both machine models, and oversubscribed demands (cache,
//! bus, disk and NIC all driven past saturation), with the resolver's
//! scratch state deliberately polluted by interleaved resolves of different
//! placements.

use hwsim::cache::resolve_cache_group;
use hwsim::contention::{EpochOutcome, PlacedDemand, StallBreakdown};
use hwsim::core::core_cycles;
use hwsim::counters::CounterSnapshot;
use hwsim::disk::resolve_disk;
use hwsim::membus::resolve_bus;
use hwsim::nic::resolve_nic;
use hwsim::{EpochResolver, MachineSpec, ResourceDemand, CACHE_LINE_BYTES};
use proptest::prelude::*;

/// Fraction of memory references that are loads — must match the resolver.
const LOAD_FRACTION: f64 = 0.7;

/// Frozen copy of the pre-refactor allocating resolution pipeline.
fn reference_resolve(
    spec: &MachineSpec,
    placements: &[PlacedDemand],
    epoch_seconds: f64,
) -> Vec<EpochOutcome> {
    assert!(spec.is_well_formed());
    assert!(epoch_seconds > 0.0);
    if placements.is_empty() {
        return Vec::new();
    }

    // Shared cache: resolve each cache group independently.
    let mut effective_mpki = vec![0.0_f64; placements.len()];
    for group in 0..spec.cache_groups() {
        let members: Vec<usize> = placements
            .iter()
            .enumerate()
            .filter(|(_, p)| p.cache_group == group)
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            continue;
        }
        let demands: Vec<&ResourceDemand> =
            members.iter().map(|&i| &placements[i].demand).collect();
        let outcomes = resolve_cache_group(spec.shared_cache_mb, &demands);
        for (slot, outcome) in members.iter().zip(outcomes) {
            effective_mpki[*slot] = outcome.effective_mpki;
        }
    }

    // Memory interconnect: machine-wide shared channel.
    let llc_misses: Vec<f64> = placements
        .iter()
        .zip(&effective_mpki)
        .map(|(p, &mpki)| mpki / 1_000.0 * p.demand.instructions)
        .collect();
    let ifetch_misses: Vec<f64> = placements
        .iter()
        .map(|p| p.demand.ifetch_mpki / 1_000.0 * p.demand.instructions)
        .collect();
    let bus_traffic_mb: f64 = llc_misses
        .iter()
        .zip(&ifetch_misses)
        .map(|(&d, &i)| (d + i) * CACHE_LINE_BYTES / (1024.0 * 1024.0))
        .sum();
    let bus = resolve_bus(spec.memory_bandwidth_mbps, bus_traffic_mb, epoch_seconds);

    // Disk and NIC: machine-wide shared devices.
    let demand_refs: Vec<&ResourceDemand> = placements.iter().map(|p| &p.demand).collect();
    let disk = resolve_disk(
        spec.disk_seq_mbps,
        spec.disk_rand_mbps,
        &demand_refs,
        epoch_seconds,
    );
    let nic = resolve_nic(spec.nic_mbps, &demand_refs, epoch_seconds);

    // Per-VM assembly.
    placements
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let d = &p.demand;
            let core = core_cycles(d.instructions, d.base_cpi, d.branch_mpki);

            let llc_accesses = d.l1_mpki / 1_000.0 * d.instructions;
            let llc_miss = llc_misses[i];
            let llc_hit = (llc_accesses - llc_miss).max(0.0);

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
                bus_tran_any: (llc_miss + ifetch_misses[i]) * f,
                bus_trans_ifetch: ifetch_misses[i] * f,
                bus_tran_brd: llc_miss * f,
                bus_req_out: llc_miss * spec.memory_latency_cycles * bus.latency_multiplier * f,
                br_miss_pred: d.branch_mpki / 1_000.0 * inst_retired,
                disk_stall_seconds: disk[i].stall_seconds
                    * f.min(disk[i].completed_fraction).clamp(0.0, 1.0),
                net_stall_seconds: nic[i].stall_seconds
                    * f.min(nic[i].completed_fraction).clamp(0.0, 1.0),
            };

            EpochOutcome {
                vm_id: p.vm_id,
                counters,
                achieved_fraction,
                demanded_instructions: d.instructions,
                breakdown,
            }
        })
        .collect()
}

/// Strategy generating one well-formed demand, spanning cache-friendly,
/// cache-thrashing and I/O-saturating profiles (disk and NIC ranges go far
/// past the Xeon's per-epoch capacity to exercise oversubscription).
fn demand_strategy() -> impl Strategy<Value = ResourceDemand> {
    (
        (
            1.0e7..2.0e10_f64, // instructions
            0.4..2.0_f64,      // base cpi
            0.05..0.6_f64,     // mem refs / instr
            0.1..80.0_f64,     // l1 mpki
            0.0..1.0_f64,      // locality (llc_mpki_solo derived below)
            0.5..1024.0_f64,   // working set MiB
        ),
        (
            0.0..12.0_f64,  // branch mpki
            0.0..3.0_f64,   // ifetch mpki
            1.0..8.0_f64,   // parallelism
            0.0..400.0_f64, // disk read MiB (capacity ~100 MiB/epoch)
            0.0..400.0_f64, // disk write MiB
            0.0..1.0_f64,   // disk seq fraction
            0.0..600.0_f64, // net tx MiB (capacity 125 MiB/epoch)
            0.0..600.0_f64, // net rx MiB
        ),
    )
        .prop_map(
            |((instr, cpi, refs, l1, locality, ws), (branch, ifetch, par, dr, dw, seq, tx, rx))| {
                ResourceDemand::builder()
                    .instructions(instr)
                    .base_cpi(cpi)
                    .mem_refs_per_instr(refs)
                    .l1_mpki(l1)
                    .llc_mpki_solo(l1 * locality * 0.5)
                    .working_set_mb(ws)
                    .locality(locality)
                    .branch_mpki(branch)
                    .ifetch_mpki(ifetch)
                    .parallelism(par)
                    .disk_read_mb(dr)
                    .disk_write_mb(dw)
                    .disk_seq_fraction(seq)
                    .net_tx_mb(tx)
                    .net_rx_mb(rx)
                    .build()
            },
        )
}

/// Strategy generating a placement list of 0..=8 VMs.  Cache groups are drawn
/// from 0..2, valid on both machine models; with up to 8 VMs over 2+ groups
/// this covers empty groups, solo groups and crowded groups alike.
fn placements_strategy() -> impl Strategy<Value = Vec<PlacedDemand>> {
    (
        0usize..=8,
        (
            (demand_strategy(), 1usize..=4, 0usize..2),
            (demand_strategy(), 1usize..=4, 0usize..2),
            (demand_strategy(), 1usize..=4, 0usize..2),
            (demand_strategy(), 1usize..=4, 0usize..2),
            (demand_strategy(), 1usize..=4, 0usize..2),
            (demand_strategy(), 1usize..=4, 0usize..2),
            (demand_strategy(), 1usize..=4, 0usize..2),
            (demand_strategy(), 1usize..=4, 0usize..2),
        ),
    )
        .prop_map(|(n, slots)| {
            let (a, b, c, d, e, f, g, h) = slots;
            [a, b, c, d, e, f, g, h]
                .into_iter()
                .take(n)
                .enumerate()
                .map(|(i, (demand, vcpus, group))| {
                    PlacedDemand::new(i as u64, demand, vcpus, group)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A reused `EpochResolver` (scratch polluted by an interleaved resolve
    /// of a different placement) produces outcomes bit-identical to the
    /// frozen pre-refactor path, on both machine models.
    #[test]
    fn resolver_is_bit_identical_to_the_prerefactor_path(
        placements in placements_strategy(),
        pollution in placements_strategy(),
        epoch in 0.25..4.0_f64,
    ) {
        for spec in [MachineSpec::xeon_x5472(), MachineSpec::core_i7_nehalem()] {
            let expected = reference_resolve(&spec, &placements, epoch);

            let mut resolver = EpochResolver::new(spec.clone());
            let mut out = Vec::new();
            // Pollute every scratch buffer with an unrelated resolve first:
            // reuse must not leak state between epochs.
            resolver.resolve_into(&pollution, 1.0, &mut out);
            resolver.resolve_into(&placements, epoch, &mut out);
            prop_assert_eq!(&out, &expected);
        }
    }

    /// Outcomes stay index-aligned with placements and well-formed even under
    /// heavy oversubscription.
    #[test]
    fn resolved_outcomes_stay_aligned_and_well_formed(
        placements in placements_strategy(),
    ) {
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let mut out = Vec::new();
        resolver.resolve_into(&placements, 1.0, &mut out);
        prop_assert_eq!(out.len(), placements.len());
        for (o, p) in out.iter().zip(&placements) {
            prop_assert_eq!(o.vm_id, p.vm_id);
            prop_assert!(o.counters.is_well_formed());
            prop_assert!(o.achieved_fraction > 0.0 && o.achieved_fraction <= 1.0);
        }
    }
}
