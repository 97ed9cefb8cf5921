#![forbid(unsafe_code)]
//! # bench — experiment harness regenerating every figure of the paper
//!
//! Each figure or table of DeepDive's evaluation has a corresponding bench
//! target under `benches/`: a plain `fn main()` that prints one
//! [`Figure::render`] — the experiment re-run on the simulated substrate,
//! formatted as the series/rows the paper reports.  A unit test compares
//! every rendering with its committed golden, and integration tests assert
//! the *qualitative* claims (who wins, what is detected, which resource is
//! blamed) under `cargo test`:
//!
//! * [`setup`] — builders for the victim/aggressor VMs and clusters used
//!   across experiments.
//! * [`figures`] — one function per figure, returning plain data.
//! * `render` — one renderer per figure ([`Figure`]).
//!
//! ## The profiling-farm scalability model (§5.5, Figs. 13–14)
//!
//! The paper models DeepDive's interference analyzer as a queue: new VMs
//! arrive at the datacenter (1000 per day), a configurable fraction of them
//! eventually undergoes interference and therefore needs a profiling run on
//! one of `k` dedicated sandbox machines, and the question is how quickly
//! DeepDive can *react* — i.e. how long a VM waits before its analysis
//! completes — as a function of the interference rate, the number of
//! profiling servers, the arrival process (Poisson vs. bursty lognormal) and
//! the application-popularity distribution that determines how often global
//! information lets DeepDive skip a full profiling run.  The model is an
//! offline M/G/k simulation fed synthetic `traces` arrivals; it shares no
//! state with the closed loop, so it lives here, beside the figures that
//! print it:
//!
//! * [`events`] — a deterministic multi-server FCFS queue simulator.
//! * `profiler_farm` — DeepDive-specific job generation: which arrivals
//!   need profiling, how long a run takes, and when global information
//!   shortens it.
//! * [`scenarios`] — the parameter sweeps that regenerate each curve of
//!   Figs. 13 and 14.
//!
//! Performance is measured elsewhere: `src/bin/e2e_bench/` is the one
//! benchmark (`BENCHMARK.json` at the workspace root is its contract) and
//! times the closed loop end to end and layer by layer; this library holds
//! no timing code and writes no files.

pub mod events;
pub mod figures;
mod profiler_farm;
mod render;
pub mod scenarios;
pub mod setup;

pub use figures::*;
pub use render::Figure;
pub use setup::*;
