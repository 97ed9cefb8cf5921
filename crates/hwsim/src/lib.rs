#![forbid(unsafe_code)]
//! # hwsim — hardware substrate for the DeepDive reproduction
//!
//! DeepDive (Novakovic et al., USENIX ATC 2013) reads nothing but *low-level
//! metrics*: hardware performance counters plus `iostat`/`netstat`-style I/O
//! stall approximations (Table 1 of the paper).  The original system obtained
//! those metrics from Xen running on Intel Xeon X5472 servers.  This crate is
//! the substitute for that hardware: a discrete-epoch simulator of a physical
//! machine (PM) with cores, private caches, a shared last-level cache, a
//! front-side bus (or QuickPath interconnect), a disk and a network interface.
//!
//! The simulator's job is to turn the *resource demands* of the virtual
//! machines placed on a PM into
//!
//! 1. the amount of work each VM actually completes in the epoch (which the
//!    evaluation harness uses as client-visible ground truth), and
//! 2. a [`counters::CounterSnapshot`] per VM — the only thing the `deepdive`
//!    crate is allowed to look at.
//!
//! Interference is therefore *emergent*: when the combined working sets of
//! co-located VMs exceed the shared cache, or their combined bandwidth demand
//! exceeds the memory bus / disk / NIC capacity, stall cycles grow and
//! retired instructions drop — exactly the signal structure DeepDive's
//! warning system and CPI-stack analyzer rely on.
//!
//! ## Module map
//!
//! * [`counters`] — the Table 1 counter set and snapshot arithmetic.
//! * [`demand`] — [`demand::ResourceDemand`], the per-epoch demand vector a
//!   workload model hands to the machine.
//! * [`machine`] — [`machine::MachineSpec`] (Xeon X5472 and Core i7 models)
//!   and cache-group topology.
//! * [`cache`] — shared-cache occupancy and miss-rate inflation model.
//! * [`membus`] — FSB/QPI bandwidth and queueing-delay model.
//! * [`disk`] — disk model with seek inflation under sharing.
//! * [`nic`] — NIC fair-share bandwidth model.
//! * [`core`] — in-core execution model (base CPI, branch misses).
//! * [`contention`] — epoch-resolution types ([`contention::PlacedDemand`],
//!   [`contention::EpochOutcome`]).
//! * [`resolver`] — [`resolver::EpochResolver`], the reusable allocation-free
//!   resolution pipeline: one per machine model, `resolve` for a one-off
//!   answer, `resolve_into` every epoch on the hot path.
//!
//! ## Example
//!
//! ```
//! use hwsim::machine::MachineSpec;
//! use hwsim::demand::ResourceDemand;
//! use hwsim::contention::PlacedDemand;
//! use hwsim::resolver::EpochResolver;
//!
//! let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
//! // A cache-friendly VM alone on the machine...
//! let friendly = ResourceDemand::builder()
//!     .instructions(2.0e9)
//!     .working_set_mb(4.0)
//!     .build();
//! let alone = resolver.resolve(&[PlacedDemand::new(0, friendly.clone(), 2, 0)]);
//! // ...and the same VM next to a cache-thrashing aggressor.
//! let aggressor = ResourceDemand::builder()
//!     .instructions(2.0e9)
//!     .working_set_mb(512.0)
//!     .llc_mpki_solo(30.0)
//!     .build();
//! let together = resolver.resolve(&[
//!     PlacedDemand::new(0, friendly, 2, 0),
//!     PlacedDemand::new(1, aggressor, 2, 0),
//! ]);
//! assert!(together[0].counters.inst_retired <= alone[0].counters.inst_retired);
//! ```

pub mod cache;
pub mod contention;
pub mod core;
pub mod counters;
pub mod demand;
pub mod disk;
pub mod machine;
pub mod membus;
pub mod nic;
pub mod resolver;

pub use contention::{EpochOutcome, PlacedDemand};
pub use counters::CounterSnapshot;
pub use demand::ResourceDemand;
pub use machine::MachineSpec;
pub use resolver::EpochResolver;

/// Duration of one simulation epoch, in seconds.
///
/// DeepDive collects counters over short monitoring epochs; the paper's
/// prototype samples at a one-second granularity, which we adopt throughout.
pub const EPOCH_SECONDS: f64 = 1.0;

/// Cache line size in bytes, used to convert miss counts into bus traffic.
pub const CACHE_LINE_BYTES: f64 = 64.0;
