//! Shared last-level-cache contention model.
//!
//! The paper's canonical interference example is two VMs that "thrash in the
//! shared hardware cache when running together, but fit nicely in it when
//! each is running in isolation" (§1).  This module reproduces that effect:
//! VMs mapped to the same cache group compete for its capacity in proportion
//! to their access intensity, and a VM whose occupancy falls below what it
//! enjoyed alone sees its miss rate inflate.
//!
//! The model is deliberately simple — a proportional-occupancy partition with
//! a locality-weighted linear miss inflation — but it has the three
//! properties DeepDive's detection logic depends on:
//!
//! 1. running alone reproduces the solo miss rate exactly,
//! 2. adding a co-runner never *decreases* a VM's miss rate, and
//! 3. the inflation is monotone in the co-runners' access intensity and
//!    working-set size.

use crate::demand::AsDemand;

/// Per-VM result of resolving one cache group for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheOutcome {
    /// Effective shared-cache occupancy in MiB.
    pub occupancy_mb: f64,
    /// Effective misses per kilo-instruction after contention.
    pub effective_mpki: f64,
    /// The miss rate the VM would see running alone on this machine.
    pub solo_mpki: f64,
}

/// Reusable scratch buffers for [`resolve_cache_group_members_into`].
///
/// Constructed once (typically inside an `EpochResolver`) and reused across
/// epochs so resolving a cache group performs no heap allocation once the
/// buffers have grown to the machine's VM count.
#[derive(Debug, Default)]
pub(crate) struct CacheScratch {
    intensities: Vec<f64>,
    occupancy: Vec<f64>,
    capped: Vec<bool>,
    active: Vec<usize>,
    /// Outcomes of the most recent resolve, aligned with the member list it
    /// was given.
    pub outcomes: Vec<CacheOutcome>,
}

impl CacheScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resolves shared-cache contention for all demands mapped to one cache group.
///
/// `cache_mb` is the capacity of the group.  The slice may be empty (returns
/// an empty vector) or contain a single demand (returns the solo behaviour).
// simlint: test-accessor (the frozen reference in tests/resolver_equivalence.rs)
pub fn resolve_cache_group<D: AsDemand>(cache_mb: f64, demands: &[D]) -> Vec<CacheOutcome> {
    let members: Vec<usize> = (0..demands.len()).collect();
    let mut scratch = CacheScratch::new();
    resolve_cache_group_members_into(cache_mb, demands, &members, &mut scratch);
    scratch.outcomes
}

/// Resolves shared-cache contention for the subset of `demands` selected by
/// `members` (indices into `demands`), leaving one [`CacheOutcome`] per member
/// in `scratch.outcomes` (same order as `members`).
///
/// This is the allocation-free core of [`resolve_cache_group`]: the caller
/// owns the scratch buffers and the demand slice can be any placement record
/// implementing [`AsDemand`], so per-group membership never has to be
/// materialized as a fresh `Vec<&ResourceDemand>`.
pub(crate) fn resolve_cache_group_members_into<D: AsDemand>(
    cache_mb: f64,
    demands: &[D],
    members: &[usize],
    scratch: &mut CacheScratch,
) {
    assert!(cache_mb > 0.0, "cache capacity must be positive");
    scratch.outcomes.clear();
    if members.is_empty() {
        return;
    }

    // Access intensity: how hard each VM pushes on the shared cache.  L1
    // misses per kilo-instruction times the instruction volume gives the
    // number of shared-cache accesses this epoch.
    scratch.intensities.clear();
    scratch.intensities.extend(members.iter().map(|&i| {
        let d = demands[i].as_demand();
        (d.l1_mpki / 1_000.0 * d.instructions).max(0.0)
    }));

    partition_capacity(cache_mb, demands, members, scratch);

    for (j, &i) in members.iter().enumerate() {
        let d = demands[i].as_demand();
        let occ = scratch.occupancy[j];
        let solo_occ = d.working_set_mb.min(cache_mb);
        let solo_mpki = d.llc_mpki_solo;
        let effective_mpki = if solo_occ <= 0.0 || occ >= solo_occ {
            solo_mpki
        } else {
            // Fraction of the working set the VM can no longer keep
            // resident compared to running alone.
            let lost = 1.0 - occ / solo_occ;
            // Accesses that used to hit in the shared cache and now miss.
            // High temporal locality shields the VM: the hot fraction of
            // its accesses keeps hitting even in a smaller occupancy.
            let hitting_mpki = (d.l1_mpki - solo_mpki).max(0.0);
            let extra = hitting_mpki * lost * (1.0 - d.locality);
            (solo_mpki + extra).min(d.l1_mpki)
        };
        scratch.outcomes.push(CacheOutcome {
            occupancy_mb: occ,
            effective_mpki,
            solo_mpki,
        });
    }
}

/// Splits the cache capacity across the member VMs proportionally to access
/// intensity, without giving any VM more than its working set.  Surplus from
/// VMs whose working sets are smaller than their proportional share is
/// redistributed to the remaining VMs (two passes are sufficient for a fixed
/// point because the set of capped VMs only grows).  The result is left in
/// `scratch.occupancy`, aligned with `members`.
fn partition_capacity<D: AsDemand>(
    cache_mb: f64,
    demands: &[D],
    members: &[usize],
    scratch: &mut CacheScratch,
) {
    let n = members.len();
    scratch.occupancy.clear();
    scratch.occupancy.resize(n, 0.0);
    scratch.capped.clear();
    scratch.capped.resize(n, false);
    let occupancy = &mut scratch.occupancy;
    let capped = &mut scratch.capped;
    let active = &mut scratch.active;
    let intensities = &scratch.intensities;
    let working_set = |j: usize| demands[members[j]].as_demand().working_set_mb;
    let mut remaining = cache_mb;

    // Iterate until no newly-capped VM appears (at most n rounds).
    for _ in 0..n.max(1) {
        active.clear();
        active.extend((0..n).filter(|&j| !capped[j]));
        if active.is_empty() || remaining <= 0.0 {
            break;
        }
        let total_intensity: f64 = active.iter().map(|&j| intensities[j]).sum();
        let mut newly_capped = false;
        for &j in active.iter() {
            let share = if total_intensity > 0.0 {
                remaining * intensities[j] / total_intensity
            } else {
                remaining / active.len() as f64
            };
            let want = working_set(j);
            if want <= share {
                occupancy[j] = want;
                capped[j] = true;
                newly_capped = true;
            }
        }
        if newly_capped {
            remaining = cache_mb - occupancy.iter().sum::<f64>();
            continue;
        }
        // No one capped: hand out the proportional shares and finish.
        for &j in active.iter() {
            occupancy[j] = if total_intensity > 0.0 {
                remaining * intensities[j] / total_intensity
            } else {
                remaining / active.len() as f64
            };
        }
        return;
    }
    // Give any still-unassigned VMs an even split of what is left.
    active.clear();
    active.extend((0..n).filter(|&j| !capped[j] && occupancy[j] == 0.0));
    if !active.is_empty() {
        let each = (cache_mb - occupancy.iter().sum::<f64>()).max(0.0) / active.len() as f64;
        for &j in active.iter() {
            occupancy[j] = each.min(working_set(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::ResourceDemand;

    fn vm(ws_mb: f64, l1_mpki: f64, llc_mpki: f64, locality: f64) -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(1.0e9)
            .working_set_mb(ws_mb)
            .l1_mpki(l1_mpki)
            .llc_mpki_solo(llc_mpki)
            .locality(locality)
            .build()
    }

    #[test]
    fn empty_group_resolves_to_nothing() {
        let empty: [&ResourceDemand; 0] = [];
        assert!(resolve_cache_group(12.0, &empty).is_empty());
    }

    #[test]
    fn solo_vm_sees_solo_miss_rate() {
        let d = vm(8.0, 20.0, 1.0, 0.5);
        let out = resolve_cache_group(12.0, &[&d]);
        assert_eq!(out.len(), 1);
        assert!((out[0].effective_mpki - 1.0).abs() < 1e-12);
        assert!((out[0].effective_mpki - out[0].solo_mpki).abs() < 1e-12);
        assert!((out[0].occupancy_mb - 8.0).abs() < 1e-9);
    }

    #[test]
    fn two_small_working_sets_fit_without_inflation() {
        let a = vm(4.0, 20.0, 1.0, 0.5);
        let b = vm(4.0, 20.0, 1.0, 0.5);
        let out = resolve_cache_group(12.0, &[&a, &b]);
        for o in &out {
            assert!(
                (o.effective_mpki - 1.0).abs() < 1e-9,
                "no thrash expected: {:?}",
                o
            );
        }
    }

    #[test]
    fn aggressor_inflates_victim_miss_rate() {
        let victim = vm(8.0, 25.0, 1.0, 0.5);
        let aggressor = vm(512.0, 40.0, 30.0, 0.0);
        let solo = resolve_cache_group(12.0, &[&victim]);
        let together = resolve_cache_group(12.0, &[&victim, &aggressor]);
        assert!(
            together[0].effective_mpki > solo[0].effective_mpki,
            "victim must miss more next to the aggressor"
        );
        assert!(together[0].effective_mpki <= victim.l1_mpki);
        // The aggressor already missed everywhere alone; co-location cannot
        // make it much worse than its own L1 miss stream.
        assert!(together[1].effective_mpki <= aggressor.l1_mpki + 1e-9);
    }

    #[test]
    fn higher_locality_shields_the_victim() {
        let aggressor = vm(512.0, 40.0, 30.0, 0.0);
        let low_locality = vm(8.0, 25.0, 1.0, 0.1);
        let high_locality = vm(8.0, 25.0, 1.0, 0.9);
        let low = resolve_cache_group(12.0, &[&low_locality, &aggressor]);
        let high = resolve_cache_group(12.0, &[&high_locality, &aggressor]);
        assert!(low[0].effective_mpki > high[0].effective_mpki);
    }

    #[test]
    fn occupancy_never_exceeds_capacity_or_working_set() {
        let a = vm(6.0, 30.0, 2.0, 0.4);
        let b = vm(20.0, 10.0, 3.0, 0.6);
        let c = vm(3.0, 50.0, 1.0, 0.2);
        let out = resolve_cache_group(12.0, &[&a, &b, &c]);
        let total: f64 = out.iter().map(|o| o.occupancy_mb).sum();
        assert!(
            total <= 12.0 + 1e-9,
            "total occupancy {total} exceeds capacity"
        );
        for (o, d) in out.iter().zip([&a, &b, &c]) {
            assert!(o.occupancy_mb <= d.working_set_mb + 1e-9);
            assert!(o.occupancy_mb >= 0.0);
        }
    }

    #[test]
    fn inflation_is_monotone_in_aggressor_intensity() {
        let victim = vm(8.0, 25.0, 1.0, 0.5);
        let mild = vm(64.0, 10.0, 8.0, 0.0);
        let harsh = vm(512.0, 60.0, 40.0, 0.0);
        let with_mild = resolve_cache_group(12.0, &[&victim, &mild]);
        let with_harsh = resolve_cache_group(12.0, &[&victim, &harsh]);
        assert!(with_harsh[0].effective_mpki >= with_mild[0].effective_mpki);
    }

    #[test]
    #[should_panic(expected = "cache capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let d = vm(1.0, 1.0, 1.0, 0.5);
        resolve_cache_group(0.0, &[&d]);
    }
}
