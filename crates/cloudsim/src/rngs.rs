//! Deterministic, order-independent RNG streams for the cluster simulation.
//!
//! Before the epoch engine existed, one `StdRng` was threaded sequentially
//! through every machine and VM: each demand draw consumed from the same
//! shared stream, so a VM's inputs depended on *where it sat in the
//! iteration order*.  Any placement change — a migration, a removal, even
//! reordering machines — silently perturbed every later VM's stream.
//!
//! [`ClusterSeed`] replaces that with counter-based derivation: an
//! independent [`StdRng`] per `(vm, epoch)` pair, obtained by hashing the
//! cluster seed, the VM id and the epoch index through SplitMix64-style
//! finalizers.  A VM's demand sequence is therefore a pure function of its
//! identity, the epoch and the cluster seed — independent of which machine
//! hosts it, of what else is placed, and of the order in which machines are
//! stepped.  That property is what lets a migration leave every other VM's
//! stream untouched (`tests/engine_equivalence.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::vm::VmId;

/// SplitMix64 finalizer: a full-avalanche 64-bit mix (every input bit flips
/// each output bit with probability ≈ 1/2), the same construction the `rand`
/// shim uses to expand seeds.
///
/// Public because other crates derive their own counter-based streams from
/// it (e.g. `deepdive`'s synthetic-benchmark trainer hashes
/// `(training seed, sample index)` so every training sample gets an
/// independent stream).
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The root seed of a simulated cluster: the single knob that determines
/// every VM's demand stream for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterSeed(u64);

impl ClusterSeed {
    /// Wraps a root seed.
    pub const fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The derived 64-bit seed of the `(vm, epoch)` stream.
    ///
    /// Two finalizer layers keep the three inputs from interacting
    /// additively: the VM id is avalanched before it touches the root seed,
    /// so `(vm: 1, epoch: 0)` and `(vm: 0, epoch: 1)` (and every other
    /// colliding sum) land in unrelated streams.
    pub(crate) const fn stream_seed(self, vm: VmId, epoch: u64) -> u64 {
        splitmix64(splitmix64(self.0 ^ splitmix64(vm.0)) ^ epoch)
    }

    /// An independent, stable generator for one VM's demand draws in one
    /// epoch.  Pure function of `(self, vm, epoch)` — callers may derive it
    /// in any order, from any thread, any number of times.
    pub(crate) fn vm_epoch_rng(self, vm: VmId, epoch: u64) -> StdRng {
        StdRng::seed_from_u64(self.stream_seed(vm, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let seed = ClusterSeed::new(42);
        let a: Vec<u64> = {
            let mut r = seed.vm_epoch_rng(VmId(7), 3);
            (0..8).map(|_| r.gen_range(0..1_000_000u64)).collect()
        };
        let b: Vec<u64> = {
            let mut r = seed.vm_epoch_rng(VmId(7), 3);
            (0..8).map(|_| r.gen_range(0..1_000_000u64)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_across_vm_epoch_and_seed() {
        let base = ClusterSeed::new(1).stream_seed(VmId(1), 1);
        assert_ne!(base, ClusterSeed::new(1).stream_seed(VmId(2), 1));
        assert_ne!(base, ClusterSeed::new(1).stream_seed(VmId(1), 2));
        assert_ne!(base, ClusterSeed::new(2).stream_seed(VmId(1), 1));
    }

    #[test]
    fn additive_collisions_do_not_alias() {
        // (vm, epoch) pairs with equal vm + epoch sums must still get
        // distinct streams — the failure mode of a naive seed ^ vm ^ epoch.
        let seed = ClusterSeed::new(9);
        let mut seen = std::collections::HashSet::new();
        for vm in 0..32u64 {
            for epoch in 0..32u64 {
                assert!(
                    seen.insert(seed.stream_seed(VmId(vm), epoch)),
                    "stream collision at vm {vm}, epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn derivation_is_order_independent() {
        // Deriving other streams in between must not affect a stream.
        let seed = ClusterSeed::new(5);
        let direct: f64 = seed.vm_epoch_rng(VmId(3), 10).gen_range(0.0..1.0);
        let _noise: f64 = seed.vm_epoch_rng(VmId(99), 2).gen_range(0.0..1.0);
        let again: f64 = seed.vm_epoch_rng(VmId(3), 10).gen_range(0.0..1.0);
        assert_eq!(direct, again);
    }
}
