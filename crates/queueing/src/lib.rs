#![forbid(unsafe_code)]
//! # queueing — the profiling-farm scalability model (Figs. 13–14)
//!
//! The paper models DeepDive's interference analyzer as a queue: new VMs
//! arrive at the datacenter (1000 per day), a configurable fraction of them
//! eventually undergoes interference and therefore needs a profiling run on
//! one of `k` dedicated sandbox machines, and the question is how quickly
//! DeepDive can *react* — i.e. how long a VM waits before its analysis
//! completes — as a function of the interference rate, the number of
//! profiling servers, the arrival process (Poisson vs. bursty lognormal) and
//! the application-popularity distribution that determines how often global
//! information lets DeepDive skip a full profiling run.
//!
//! * [`events`] — a deterministic multi-server FCFS queue simulator.
//! * [`profiler_farm`] — DeepDive-specific job generation: which arrivals
//!   need profiling, how long a run takes, and when global information
//!   shortens it.
//! * [`scenarios`] — the parameter sweeps that regenerate each curve of
//!   Figs. 13 and 14.
//! * [`schedule`] — a deterministic time-ordered event queue (stable ties,
//!   total float order), the primitive behind the event-driven datacenter
//!   service in `cloudsim`.

pub mod events;
pub mod profiler_farm;
pub mod scenarios;
pub mod schedule;

pub use events::{simulate_queue, Job};
pub use scenarios::{reaction_time_curve, ScenarioConfig};
pub use schedule::EventQueue;
