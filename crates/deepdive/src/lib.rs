#![forbid(unsafe_code)]
//! # deepdive — transparent interference detection and management
//!
//! This crate is the reproduction of the paper's contribution: a system that
//! identifies and manages performance interference between co-located VMs
//! using nothing but low-level metrics (hardware counters and I/O stall
//! statistics), with no application cooperation.
//!
//! The three components mirror §4 of the paper:
//!
//! * the **warning system** ([`warning`]) runs continuously and cheaply in
//!   the VMM: it normalizes each VM's counters by instructions retired,
//!   matches them against previously learned *normal behaviour* clusters
//!   (local information) and against the behaviour of other VMs running the
//!   same application (global information), and escalates only genuinely
//!   unexplained deviations;
//! * the **interference analyzer** ([`analyzer`]) is the expensive
//!   ground-truth path: it clones the suspect VM into a sandbox, replays the
//!   duplicated request stream, compares instructions retired in production
//!   vs. isolation to estimate the degradation, and attributes it to a
//!   culprit resource with an augmented CPI stack ([`cpi_stack`]).  On
//!   heterogeneous clusters the controller holds a
//!   [`cloudsim::SandboxFleet`] — one pool per machine model — and routes
//!   each analysis to the pool matching the victim's host, since comparing
//!   counters across models biases the estimate (build it with
//!   [`controller::DeepDive::for_cluster`]);
//! * the **placement manager** ([`placement`]) mitigates confirmed
//!   interference: it picks the VM most aggressive on the culprit resource,
//!   predicts — using a regression-trained synthetic benchmark
//!   ([`synthetic`]) — how that VM would interfere on each candidate
//!   destination machine, and migrates it to the best one.
//!
//! [`controller`] wires the three together into the end-to-end loop driven
//! by the cluster simulator, and [`repository`] stores the learned
//! behaviours (≈5 KB per VM per day, §5.5).
//!
//! ## The control-plane hot path: generations and warm starts
//!
//! The warning system touches every VM every epoch, so its refresh path is
//! built to cost nothing in the steady state and a handful of EM iterations
//! otherwise:
//!
//! * [`repository::BehaviorRepository`] keeps a per-application **generation
//!   counter** (bumped on every record, even at capacity) over ring-buffered
//!   entries with O(1) eviction, and lends its stores out as
//!   `&AppBehaviors` — the hot path never clones history;
//! * [`warning::WarningSystem::refresh_model`] short-circuits in O(1) when
//!   the generation is unchanged; when the repository grew, it re-fits
//!   **warm-started** from the previous mixture
//!   ([`analytics::constrained::fit_constrained_warm`]) and falls back to a
//!   full cold fit every [`warning::WarningConfig::cold_refit_interval`]
//!   refits so warm-start drift cannot accumulate;
//! * [`controller::DeepDive::process_epoch`] indexes the epoch's reports
//!   once (behaviours beside the reports, report indices grouped by
//!   application and by machine), refreshes each application's model
//!   **once per epoch** before the per-VM loop, and consults a VM's
//!   same-application peers only when its local check fails — the quiet
//!   sweep is one model check per VM, allocates nothing and hashes nothing
//!   but the per-VM history lookup;
//! * [`synthetic::SyntheticBenchmark::train`] draws each training sample
//!   from its own counter-derived RNG stream, so the model is a pure
//!   function of `(spec, samples, seed)`.
//!
//! `e2e_bench` measures this path inside the closed loop
//! (`deepdive.warning.quiet_ns_per_eval`, `deepdive.controller.*` on the
//! `managed_hotmail` and `interference_episodes` workloads);
//! `tests/warning_equivalence.rs` pins that warm and cold refreshes make
//! equivalent decisions.
//!
//! ## Quick start
//!
//! ```
//! use cloudsim::{Cluster, ClusterSeed, EpochEngine, Scheduler, Vm, VmId, PmId};
//! use deepdive::controller::{DeepDive, DeepDiveConfig};
//! use hwsim::MachineSpec;
//! use workloads::{AppId, ClientEmulator, DataServing, MemoryStress};
//!
//! // A one-machine cloud with a victim and a cache-thrashing aggressor.
//! let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
//! cluster.place_on(PmId(0), Vm::new(
//!     VmId(1),
//!     Box::new(DataServing::with_defaults(AppId(1))),
//!     ClientEmulator::new(8_000.0, 4.0),
//! )).unwrap();
//!
//! // The sandbox fleet is derived from the cluster: one pool per machine
//! // model present, so analyses never compare counters across models.
//! let mut deepdive = DeepDive::for_cluster(DeepDiveConfig::default(), &cluster);
//! // One seed determines every VM's demand stream; the engine can also run
//! // `ExecutionMode::Pooled { threads }` with bit-identical results.
//! let engine = EpochEngine::serial(ClusterSeed::new(1));
//!
//! // Learn normal behaviour for a while...
//! for _ in 0..30 {
//!     let reports = engine.step(&mut cluster, |_| 0.8);
//!     deepdive.process_epoch(&mut cluster, &reports);
//! }
//! // ...then interference can be injected and will be detected and mitigated.
//! ```

pub mod analyzer;
pub mod controller;
pub mod cpi_stack;
mod epoch_index;
pub mod metrics;
pub mod placement;
pub mod repository;
pub mod service;
pub mod synthetic;
pub mod warning;

pub use analyzer::{AnalysisResult, InterferenceAnalyzer};
pub use controller::{DeepDive, DeepDiveConfig, DeepDiveStats};
pub use cpi_stack::{CpiStack, Resource};
pub use metrics::BehaviorVector;
pub use placement::{PlacementDecision, PlacementManager};
pub use repository::BehaviorRepository;
pub use service::ManagedDatacenter;
pub use synthetic::{SyntheticBenchmark, SyntheticClone};
pub use warning::{WarningDecision, WarningSystem};
