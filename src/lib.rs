#![forbid(unsafe_code)]
//! Umbrella package for the DeepDive reproduction workspace.
//!
//! Reproduces *DeepDive: Transparently Identifying and Managing Performance
//! Interference in Virtualized Environments* (Novakovic et al., USENIX ATC
//! '13) as a deterministic simulation: a warning system that watches
//! normalized per-VM hardware metrics, a sandboxed interference analyzer
//! that confirms and attributes interference, and a placement manager that
//! evaluates migrations with a regression-trained synthetic benchmark —
//! without ever test-migrating the real VM.
//!
//! This package holds no code.  It owns the repository-level `examples/`
//! and `tests/`, which name the member crates they use directly (`hwsim`,
//! `workloads`, `traces`, `cloudsim`, `deepdive`, `bench`), and its
//! `default-members` make plain `cargo build` / `cargo test` cover the
//! whole workspace.
//!
//! `ARCHITECTURE.md` at the repository root is the one map of the
//! workspace: the crate layers and their dependency graph, the control
//! loop, the determinism contract, the simlint rule table, the dependency
//! shims, the benchmark data flow and which test suite pins what.
//!
//! # Building and testing
//!
//! The workspace is fully self-contained (no crates.io access needed).
//! From the repository root:
//!
//! ```text
//! cargo build --release      # builds all 12 workspace crates
//! cargo test -q              # unit, integration, figure-golden and doc tests (CI prints the count)
//! cargo bench --no-run       # compiles the 13 figure/table benches
//! cargo bench                # prints every paper figure's data series; times nothing
//! cargo run --example quickstart
//! cargo run -p simlint       # static analysis: determinism, unsafety and `pub`-surface contracts
//! cargo doc --workspace --no-deps   # rustdoc; CI denies warnings
//! cargo clippy --workspace --all-targets -- -D warnings
//! cargo fmt --check
//! ```
//!
//! Everything is seeded: the same seeds give the same counters, decisions
//! and figures on every platform, and no test depends on wall-clock time.
