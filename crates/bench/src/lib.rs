#![forbid(unsafe_code)]
//! # bench — experiment harness regenerating every figure of the paper
//!
//! Each figure or table of DeepDive's evaluation has a corresponding bench
//! target under `benches/`: a plain `fn main()` that re-runs the experiment
//! on the simulated substrate and prints the same series/rows the paper
//! reports.
//!
//! The heavy lifting lives here, in plain library code, so integration tests
//! can assert the *qualitative* claims (who wins, what is detected, which
//! resource is blamed) under `cargo test`:
//!
//! * [`setup`] — builders for the victim/aggressor VMs and clusters used
//!   across experiments.
//! * [`figures`] — one function per figure, returning printable data.
//!
//! Performance is measured elsewhere: `src/bin/e2e_bench/` is the one
//! benchmark (`BENCHMARK.json` at the workspace root is its contract) and
//! times the closed loop end to end and layer by layer; this library holds
//! no timing code and writes no files.

pub mod figures;
pub mod setup;

pub use figures::*;
pub use setup::*;
