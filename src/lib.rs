#![forbid(unsafe_code)]
//! Umbrella crate for the DeepDive reproduction workspace.
//!
//! Reproduces *DeepDive: Transparently Identifying and Managing Performance
//! Interference in Virtualized Environments* (Novakovic et al., USENIX ATC
//! '13) as a deterministic simulation: a warning system that watches
//! normalized per-VM hardware metrics, a sandboxed interference analyzer
//! that confirms and attributes interference, and a placement manager that
//! evaluates migrations with a regression-trained synthetic benchmark —
//! without ever test-migrating the real VM.
//!
//! A one-page map of the workspace — layer diagram, determinism contract,
//! simlint rule table, bench/validator data flow — lives in
//! `ARCHITECTURE.md` at the repository root.
//!
//! # Building and testing
//!
//! The workspace is fully self-contained (no crates.io access needed; see
//! *Dependency shims* below). From the repository root:
//!
//! ```text
//! cargo build --release      # builds all 17 workspace crates
//! cargo test -q              # ~560 unit + integration + doc tests, < 30 s
//! cargo bench --no-run       # compiles the benches (13 figure/table + 4 throughput)
//! cargo bench                # re-runs every paper experiment with timings
//! cargo run --example quickstart
//! cargo run -p simlint       # static analysis: determinism + unsafety contracts
//! cargo doc --workspace --no-deps   # rustdoc; CI denies warnings
//! cargo clippy --workspace --all-targets -- -D warnings
//! cargo fmt --check
//! ```
//!
//! # Workspace layout and dependency graph
//!
//! Leaf crates at the top; each crate depends only on the ones above it:
//!
//! ```text
//! hwsim                                  (machine + counter substrate)
//!   └─► workloads                        (cloud + stress workloads)
//! analytics                              (clustering, regression, dists)
//!   └─► traces ─► queueing               (arrival traces; queueing model)
//! hwsim + workloads + traces + queueing
//!   └─► cloudsim                         (VMs, PMs, service, sandbox)
//! hwsim + workloads + cloudsim + analytics
//!   └─► deepdive                         (the paper's contribution)
//! everything
//!   └─► bench                            (per-figure experiment harness)
//! ```
//!
//! `simlint` (the static-analysis binary, see below) stands alone: it
//! depends on no workspace crate and nothing depends on it.
//!
//! The root package (`deepdive-repro`) re-exports every member so the
//! repository-level `examples/` and `tests/` can exercise the whole system
//! through one dependency.
//!
//! # The epoch-stepping hot path
//!
//! Everything the simulation does funnels through resolving one epoch of
//! hardware contention per machine, so that pipeline is built for reuse and
//! for parallelism:
//!
//! * **Allocation-free resolution** — `hwsim::EpochResolver` is a stateful
//!   object (one per machine model) owning every scratch buffer resolution
//!   needs — per-cache-group membership lists, effective-MPKI/miss vectors,
//!   per-device outcome buffers — and exposing
//!   `resolve_into(&mut self, placements, epoch_seconds, &mut out)`.
//!   Steady-state resolution performs **zero heap allocations**; there is
//!   no stateless entry point — one-off callers build a resolver and call
//!   `resolve`.  `cloudsim::pm::PhysicalMachine` holds its own resolver
//!   plus demand/placement buffers across epochs; the sandbox replayer
//!   and `deepdive`'s synthetic-benchmark training reuse one resolver
//!   across all their solo runs. Measured by `e2e_bench`'s
//!   `hwsim.resolver.ns_per_vm` probe; pinned bit-identical to the
//!   pre-refactor pipeline by
//!   `crates/hwsim/tests/resolver_equivalence.rs`.
//! * **Order-independent RNG streams** — `cloudsim::rngs::ClusterSeed`
//!   derives an independent `StdRng` per `(vm, epoch)` via SplitMix64-style
//!   hashing of `(cluster seed, vm id, epoch)`, so a VM's demand sequence
//!   is a pure function of its identity — not of its placement, its
//!   neighbours, or the order machines are stepped in. A mid-run migration
//!   cannot perturb any other VM's stream (pinned by
//!   `tests/engine_equivalence.rs`).
//! * **The parallel epoch engine** — `cloudsim::engine::EpochEngine` steps
//!   a cluster under `ExecutionMode::Serial` (one thread; the reference
//!   every other configuration is compared against) or
//!   `ExecutionMode::Pooled { threads }`: a persistent
//!   `cloudsim::WorkerPool` with per-worker queues and an epoch-barrier
//!   scatter, stepping balanced contiguous machine shards
//!   (`pool::split_balanced` — exactly `threads` shards whenever enough
//!   machines exist) and merging reports in machine-index order, output
//!   **bit-identical** across both modes (a proptest pins Serial vs
//!   Pooled at several thread counts). The pool joins its workers on
//!   drop, and a panicking shard reaches the barrier first, then re-raises
//!   the original payload without poisoning the workers
//!   (`tests/pool_lifecycle.rs`). One entry point: `EpochEngine::step`
//!   advances one epoch and returns its reports — DeepDive reads every
//!   VM's counters every epoch, so nothing steps without them. Dense stepping
//!   (`set_sparse(false)`) stays as the reference the sparse path is
//!   pinned bit-identical to.  Callers name the mode in code
//!   (`ExecutionMode::available_parallelism()` for "every core"); no
//!   environment variable selects it.  `e2e_bench` times the serial
//!   engine only — pooled scaling is unmeasured until a benchmark
//!   workload is added for it.
//! * **O(1) bookkeeping** — `cloudsim::Cluster` keeps id→index maps so VM
//!   location and machine lookups are O(1) per migration instead of scans.
//! * **Incremental control plane** — the warning path (every VM, every
//!   epoch) is generation-checked and warm-started:
//!   `deepdive::BehaviorRepository` keeps a per-application generation
//!   counter (ring-buffer entries, O(1) eviction) and hands out
//!   `&AppBehaviors` borrows instead of clones, so
//!   `WarningSystem::refresh_model` is O(1) while the repository is
//!   unchanged; when it grew, the constrained EM refit is warm-started
//!   from the previous mixture (`analytics::GaussianMixture::fit_warm`,
//!   ~10 iterations vs a 100-iteration k-means++ cold fit), with a full
//!   cold refit every `WarningConfig::cold_refit_interval` refits to
//!   bound drift.  `DeepDive::process_epoch` refreshes once per
//!   application per epoch (not per VM) and runs the whole sweep out of
//!   reusable scratch, so the steady-state warning path allocates
//!   nothing.  Measured by `e2e_bench`'s
//!   `deepdive.warning.quiet_ns_per_eval` and `deepdive.controller.*`
//!   on the `managed_hotmail` and `interference_episodes` workloads.
//!   The control plane is single-threaded — parallelism lives in the
//!   epoch engine only: synthetic-benchmark training
//!   (`SyntheticBenchmark::train`, eager through
//!   `DeepDive::pretrain_benchmarks` or lazy on a model's first
//!   mitigation) is one serial loop over per-sample SplitMix64 streams,
//!   a pure function of `(spec, samples, seed)`.
//! * **Spec-aware sandbox fleets** — the analyzer's degradation estimate
//!   divides production instruction rates by isolation rates, which is
//!   only sound when the clone replays on the victim's host machine
//!   model.  `cloudsim::SandboxFleet` therefore holds one sandbox pool
//!   per model in the cluster (`DeepDive::for_cluster` derives it; on
//!   homogeneous clusters that is the paper's single pool, pinned
//!   bit-identical to a hand-built one by `tests/sandbox_fleet.rs`),
//!   and the controller routes each analysis to the matching pool,
//!   trains one synthetic benchmark per model, predicts placements
//!   against each candidate's own spec, and accounts profiling seconds
//!   per pool.  Cross-model fallbacks — the old biased path, which can
//!   miss ~98%-degradation episodes outright when the victim's host is
//!   the faster machine for the workload — are counted in
//!   `DeepDiveStats::sandbox_spec_fallbacks`.
//!
//! # Service mode & sparse stepping
//!
//! Fixed fleets stepped in a loop are the benchmark shape; a datacenter is
//! a *service*: VMs arrive, run hot, go idle and depart continuously, and
//! at any instant most machines host only quiet tenants.  Two pieces make
//! that shape first-class:
//!
//! * **The event-driven front end** — `cloudsim::service::DatacenterService`
//!   owns a cluster plus a `queueing::EventQueue` of `traces::VmSession`
//!   lifecycles (the Hotmail and EC2 arrival presets in `traces::arrivals`,
//!   or any custom stream).  Between epochs it drains every due event —
//!   arrivals place VMs first-fit from a rotating scan cursor, lifetime
//!   expiries remove them, hot sessions go idle — then steps the engine
//!   once over the surviving fleet; `ServiceStats` tracks arrivals,
//!   departures, rejections, VM-epochs and the peak resident population.
//!   `deepdive::ManagedDatacenter` closes the control loop on top: the
//!   service's per-epoch reports feed `DeepDive::process_epoch`, and
//!   confirmed-interference migrations feed capacity hints back to the
//!   placement cursor.
//! * **Sparse (quiescent-aware) stepping** — a machine whose tenants all
//!   report demand-static workloads at their current loads (idle cloud
//!   apps, constant stressors) resolves once, caches its per-VM reports,
//!   and replays them byte-for-byte until membership, offered loads, or
//!   placement generation change (`EpochEngine::set_sparse`, default on;
//!   dense mode remains as the reference the sparse path is compared
//!   against).  The sparse path is pinned bit-identical to dense serial
//!   stepping across both execution modes under randomized
//!   arrival/departure/migration churn (`tests/engine_equivalence.rs`).
//!   The per-epoch sparse step is measured by `e2e_bench`'s
//!   `engine_quiescent` workload (10k machines, 10% active) and the
//!   service loop by `service_churn_ec2`.
//!
//! # Fault model
//!
//! Real datacenters lose machines, botch migrations and take analysis
//! infrastructure offline; the reproduction injects all three as
//! *deterministic simulation inputs* rather than leaving robustness
//! untested:
//!
//! * **The fault plane** — `cloudsim::FaultPlane` is a stateless, `Copy`
//!   schedule: every draw is a SplitMix64 hash of `(fault seed, fault
//!   kind, entity id, epoch)`, so whether machine *m* crashes at epoch *e*
//!   is a pure function of the seed — independent of execution mode,
//!   thread count, query order, or how often the question is asked.
//!   `cloudsim::FaultConfig` sets the rates: machine crash probability and
//!   repair windows, transient migration-failure probability, and
//!   sandbox-pool outage probability and durations.  A plane with all
//!   rates zero (`FaultConfig::disabled`) is byte-for-byte inert, and
//!   attaching no plane at all costs nothing.
//! * **Topology and correlated failures** — `cloudsim::Topology` maps
//!   machine ids to racks and power domains by pure id arithmetic
//!   (`rack = pm / machines_per_rack`, `domain = rack / racks_per_domain`),
//!   so the mapping is stable as the fleet grows.  The plane draws
//!   *correlated* outage windows on the rack and domain streams — one
//!   draw fells every machine behind the failed switch or power feed —
//!   and *planned maintenance drains*: a per-machine notice window during
//!   which the machine keeps serving but accepts no new placements and
//!   migrates residents off incrementally, followed by an offline window.
//!   A drained machine is never crashed; its VMs move gracefully instead
//!   of evacuating in a burst (`ServiceStats::drain_migrations` vs
//!   `evacuations` quantifies the difference).
//! * **Failure-domain spread** — `ServiceConfig::with_spread(topology)`
//!   makes arrival placement prefer machines in power domains where the
//!   app currently has its *fewest* VMs (two-pass next-fit; falls back to
//!   any surviving machine under capacity pressure), and
//!   `deepdive::PlacementManager::with_spread` biases interference
//!   migrations toward acceptable cross-domain destinations.
//!   `cloudsim::audit::check_spread` is the advisory invariant: any app
//!   with ≥ 2 VMs all in one power domain is flagged
//!   (`DatacenterService::audit_spread`).
//! * **Crash handling in the service** — when a machine's crash window
//!   opens, `DatacenterService` drains it and evacuates the residents
//!   first-fit across the surviving fleet; VMs that do not fit park in a
//!   bounded retry queue with exponential backoff (capped, and abandoned
//!   after `RETRY_ATTEMPT_LIMIT` failed placements).  Rejected arrivals
//!   ride the same queue instead of being dropped on the floor.  Repaired
//!   machines rejoin with their placement caches invalidated.
//!   `ServiceStats` accounts the whole story: crashes, repairs,
//!   evacuations, retries, retry admissions, abandonments and
//!   down-machine-epochs.  Unexpected placement errors surface as typed
//!   `cloudsim::ServiceError` records (`DatacenterService::errors`), never
//!   as panics.
//! * **Controller degradation** — during a sandbox-pool outage, `DeepDive`
//!   defers confirmed-warning analyses with a deadline (12 epochs, kept in
//!   the VM's one controller record); if the outage outlives
//!   the deadline the controller falls back to warning-only operation for
//!   that VM (a *degraded decision*, with the usual cooldown) instead of
//!   blocking or crashing.  Transiently failed and capacity-blocked
//!   migrations retry with exponential backoff, three times at most.
//!   `DeepDiveStats` counts
//!   deferred analyses, degraded decisions and migration retries, and the
//!   epoch event stream reports each transition.
//! * **Invariant auditing** — `cloudsim::audit::check_cluster` sweeps a
//!   cluster for structural corruption (double-resident VMs, phantom
//!   residents, capacity-accounting drift, id-map disagreements);
//!   `DatacenterService::audit` extends it with fault-layer invariants
//!   (parked VMs are not resident, crashed machines are empty).  The
//!   chaos suite runs the audit after every epoch of every randomized
//!   schedule.
//!
//! Measured by `e2e_bench`'s `service_outage_domain` workload (domain
//! outages plus maintenance drains on 10k machines) and the
//! `cloudsim.faults.*` metrics on it and on `managed_hotmail`; that a
//! drain is gentler than a crash (zero crashes, no emergency evacuation)
//! is pinned by the drain-vs-crash unit test in `cloudsim::service`.
//!
//! # Test-suite map
//!
//! * per-crate unit tests — each module tests its own invariants (~470
//!   tests across the 9 functional crates and the shims),
//! * `tests/end_to_end.rs` — the full pipeline: learn → detect →
//!   attribute → migrate → recover,
//! * `tests/paper_claims.rs` — the paper's headline qualitative claims
//!   (Fig. 8 detection rates, Fig. 10 clone accuracy, Fig. 11 placement,
//!   Fig. 12 overhead, Figs. 13/14 reaction times),
//! * `tests/properties.rs` — seeded property tests over cross-crate
//!   invariants (well-formed counters, load-scaling invariance,
//!   contention monotonicity, queueing monotonicity),
//! * `tests/persistence.rs` — repository JSON round-trip and the §5.5
//!   "≈5 KB per VM per day" footprint bound,
//! * `tests/engine_equivalence.rs` — proptest: serial and pooled stepping
//!   bit-identical over arbitrary placements/loads/epochs (including thread counts that exceed or do
//!   not divide the machine count), sparse stepping bit-identical to dense under randomized
//!   arrival/departure/migration churn in every mode, and migrations
//!   never perturb other VMs' demand streams,
//! * `tests/pool_lifecycle.rs` — worker-pool guarantees: drop joins every
//!   worker (no leaked threads across repeated construction), degenerate
//!   clusters step on the calling thread, and a panicking shard
//!   propagates its original payload after the barrier without advancing the epoch or poisoning the pool,
//! * `tests/fault_tolerance.rs` — the chaos suite: randomized fault +
//!   churn schedules (including random topologies, correlated rack/domain
//!   outages and maintenance drains) through every execution mode with
//!   the invariant audit green after every epoch, Serial/Pooled
//!   bit-identical under chaos, a disabled plane reproducing the
//!   fault-free trajectory byte for byte, and deterministic hostile
//!   schedules exercising every fault path (crashes, repairs,
//!   evacuations, retries, correlated outages, drain migrations),
//! * `tests/warning_equivalence.rs` — proptest: warm-started and forced-cold
//!   model refreshes produce equivalent warning *decisions* (detections
//!   always, divergence bounded) over randomized growing repositories, and
//!   an unchanged repository generation makes refreshes free,
//! * `tests/sandbox_fleet.rs` — spec-aware fleet contracts: on uniform
//!   clusters the derived fleet is bit-identical to a hand-built
//!   single-pool fleet (proptest), and on a mixed Xeon+i7 cluster the
//!   spec-matched fleet detects an i7-hosted victim that a hard-coded
//!   Xeon-only pool under-detects to zero,
//! * `crates/bench/tests/figures_smoke.rs` — every figure entry point runs
//!   under plain `cargo test`, not only under `cargo bench`.
//!
//! CI runs the suite once (the pooled engine needs no lane of its own:
//! its tests construct `ExecutionMode::Pooled` explicitly), with the
//! fault-tolerance chaos suite also called out as a named step, and then
//! runs all five `e2e_bench` workloads at `--quick` size under their
//! digest, failed-epoch and audit checks.
//!
//! Everything is seeded: a `cloudsim::ClusterSeed` determines every VM's
//! demand stream per `(vm, epoch)`, so the same seed gives the same
//! counters and decisions on every platform, at every thread count, under
//! any placement history. No test depends on wall-clock time or thread
//! order.
//!
//! # Static analysis: the determinism and unsafety contracts
//!
//! The runtime tests above prove the *current* tree is deterministic; the
//! `simlint` crate keeps the next PR from quietly breaking it.
//! `cargo run -p simlint` lexes every non-shim `.rs` file (nested block
//! comments, raw strings, char/byte literals, `#[cfg(test)]` spans — so a
//! `HashMap` in a doc comment never trips a rule) and enforces:
//!
//! * **`wall-clock`** — no `Instant::now`/`SystemTime` outside
//!   `crates/bench` and the worker pool's park-timeout path
//!   (`crates/cloudsim/src/pool.rs`).  Simulated time comes from epochs,
//!   never the host clock.
//! * **`safety-comment`** — every `unsafe` carries a `// SAFETY:` comment
//!   (or `# Safety` doc section) adjacent to its statement.
//! * **`hashmap-iteration`** — no iteration over `HashMap`/`HashSet`
//!   (`.iter()`, `.keys()`, `.values()`, `.drain(`, `for … in &map`, …)
//!   in the order-sensitive crates, unless the flagged line — or the line
//!   directly above it — carries a `// simlint: order-independent`
//!   comment stating why hash order cannot reach an observable output.
//!   Iterate a `BTreeMap`, or collect-and-sort, instead.
//! * **`forbid-unsafe`** — every functional crate except `cloudsim` (the
//!   one audited unsafe island, `pool.rs`) declares
//!   `#![forbid(unsafe_code)]` at its crate root.
//! * **`unwrap-budget`** — `.unwrap()`/`.expect(` counts in non-test
//!   library code ratchet against `crates/simlint/unwrap_budget.txt`.
//!   Over budget fails; *under* budget also fails until the baseline is
//!   shrunk to match, so the committed numbers always state the true
//!   ceiling and only move down.
//!
//! Findings print as `file:line: rule-id: message` and exit nonzero.  CI
//! runs the binary before the test lanes, and
//! `crates/simlint/tests/self_check.rs` asserts the committed tree lints
//! clean from inside `cargo test`.
//!
//! # Dependency shims
//!
//! The build environment has no network access, so the handful of external
//! crates the code uses (`rand`, `rand_distr`, `proptest`) are vendored as
//! minimal in-tree stand-ins under `crates/shims/`, exposing exactly the API
//! surface this workspace exercises; swapping those back to the real crates
//! is a `[workspace.dependencies]` edit away. The `serde` and `serde_json`
//! crates beside them are not stand-ins for their namesakes: they are the
//! workspace's own JSON value model and text codec (no traits, no derives),
//! used by `BehaviorRepository::{to_json, from_json}` and `e2e_bench`'s
//! result lines, and keep the names because the benchmark's manifest does.
//!
//! # Crates
//!
//! * [`hwsim`] — physical-machine / performance-counter substrate,
//! * [`workloads`] — cloud and stress workload models,
//! * [`cloudsim`] — VMs, PMs, cluster, sandbox and migration,
//! * [`analytics`] — clustering, regression and distributions,
//! * [`traces`] — load-intensity, interference and arrival traces,
//! * [`deepdive`] — the warning system, interference analyzer and placement
//!   manager (the paper's contribution),
//! * [`queueing`] — the profiling-farm queueing simulator,
//! * [`mod@bench`] — the experiment harness regenerating every figure.

pub use analytics;
pub extern crate bench;
pub use cloudsim;
pub use deepdive;
pub use hwsim;
pub use queueing;
pub use traces;
pub use workloads;
