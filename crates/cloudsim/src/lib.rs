//! # cloudsim — virtualization substrate (the IaaS "cloud")
//!
//! The paper deploys DeepDive on a 10-server Xen testbed: VMs are pinned to
//! dedicated core pairs, client traffic flows through a proxy that can
//! duplicate requests towards a sandboxed clone, and the placement manager
//! migrates VMs between physical machines (§4, §5.1).  None of that
//! infrastructure exists here, so this crate provides the equivalent
//! simulated objects (all but the proxy: the request stream it would
//! duplicate is each report's `demand`, and `deepdive`'s controller keeps
//! the window of them it replays):
//!
//! * [`vm`] — a virtual machine: identity, size, attached workload and
//!   client emulator.
//! * [`pm`] — a physical machine: a [`hwsim::MachineSpec`] plus the VMs
//!   currently hosted on it; stepping an epoch resolves contention and
//!   yields per-VM reports (counters + client-side ground truth).
//! * [`scheduler`] — vCPU/cache-group placement policies (packed vs spread)
//!   and admission checks.
//! * [`cluster`] — the datacenter: a set of PMs (homogeneous or mixed
//!   hardware) and VM migration.
//! * [`rngs`] — [`rngs::ClusterSeed`]: counter-based derivation of one
//!   independent RNG stream per `(vm, epoch)`, making every VM's demand
//!   sequence a pure function of its id, the epoch and the cluster seed —
//!   independent of placement and stepping order.
//! * [`pool`] — [`pool::WorkerPool`]: persistent worker threads with
//!   per-worker queues and a barrier-style `scatter_map`, the execution
//!   substrate behind pooled stepping; plus [`pool::split_balanced`], the
//!   engine's shard partitioner.
//! * [`engine`] — [`engine::EpochEngine`]: epoch stepping as a policy
//!   object — [`engine::ExecutionMode::Serial`] (the reference every test
//!   compares against) or [`engine::ExecutionMode::Pooled`] (persistent
//!   [`pool::WorkerPool`]) — with bit-identical output in both modes and
//!   one entry point: `step` advances an epoch and returns its reports.
//! * [`service`] — [`service::DatacenterService`]: the event-driven
//!   datacenter front end — VM sessions arrive, run hot, go idle and
//!   depart per a `traces` session stream, batched between epochs and fed
//!   to the sparse engine (see `engine`'s "Service mode & sparse
//!   stepping").
//! * [`sandbox`] — the sandboxed environment: dedicated machines on which a
//!   recorded demand stream is re-run in isolation (non-work-conserving,
//!   nothing co-located).  [`sandbox::Sandbox`] is one pool of a single
//!   machine model; [`sandbox::SandboxFleet`] holds one pool per model in a
//!   mixed-hardware cluster and routes each analysis to the pool matching
//!   the victim's host, so counters are never compared across models.
//! * [`faults`] — [`faults::FaultPlane`]: a counter-derived, topology-aware
//!   fault schedule (machine crash/repair windows, correlated rack and
//!   power-domain outages over a [`faults::Topology`], planned maintenance
//!   drains with graceful notice windows, transient migration failures,
//!   sandbox pool outages) that is a pure function of `(fault seed, kind,
//!   entity, epoch)` — same SplitMix64 discipline as [`rngs::ClusterSeed`],
//!   so fault runs stay bit-identical across execution modes.
//! * [`audit`] — [`audit::check_cluster`]: the cluster invariant sweep (no
//!   VM lost or doubly resident, id→index maps consistent, capacity
//!   accounting exact) the chaos suite asserts after every epoch; plus
//!   [`audit::check_spread`], the advisory failure-domain spread check.
//!
//! DeepDive (crate `deepdive`) consumes only the [`pm::VmEpochReport`]s'
//! counter snapshots and app identities; the client observations and stall
//! breakdowns in the same struct are evaluation-only ground truth.

pub mod audit;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod pm;
pub mod pool;
pub mod rngs;
pub mod sandbox;
pub mod scheduler;
pub mod service;
pub mod vm;

pub use cluster::Cluster;
pub use engine::{EpochEngine, ExecutionMode};
pub use faults::{FaultConfig, FaultPlane, Topology};
pub use pm::{PhysicalMachine, PmId, VmEpochReport};
pub use pool::WorkerPool;
pub use rngs::ClusterSeed;
pub use sandbox::{Sandbox, SandboxFleet};
pub use scheduler::{PlacementPolicy, Scheduler};
pub use service::{DatacenterService, ServiceConfig, ServiceError, ServiceStats};
pub use vm::{Vm, VmId};
