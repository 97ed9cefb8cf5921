//! Datacenter-scale throughput: the sparse, activity-tracked epoch engine
//! vs the dense sweep, and the event-driven [`DatacenterService`] front end.
//!
//! The dense engine resolves every machine every epoch, so fleet cost is
//! O(machines) regardless of how many VMs are actually doing anything.  At
//! datacenter scale the steady state is the opposite: a small active
//! working set on top of a large quiescent majority (idle VMs whose
//! workloads are provably static at load zero).  The sparse engine
//! replays each quiescent machine's cached epoch report — a memcpy plus an
//! epoch-stamp patch — and only runs the contention resolver for machines
//! whose demand can still change, while staying bit-identical to the dense
//! sweep (property-tested under churn in `tests/engine_equivalence.rs`).
//!
//! Two measurement families:
//!
//! * **engine rows** — fixed fleets of 10k and 100k Xeon machines at real
//!   density (four 2-vCPU VMs each) with an `activity` fraction of the
//!   machines held busy and the rest idle-static, dense vs sparse through
//!   both per-epoch `step` and the report-free `advance_epochs` bulk path.
//!   Each row's `speedup_vs_dense` is against the dense baseline of its
//!   own API; advance rows additionally carry `speedup_vs_dense_sweep`,
//!   the ratio against the per-epoch dense sweep with materialized
//!   reports — the engine's only mode before sparse stepping existed, and
//!   the baseline for the headline claim: at 10% activity on 10k machines
//!   the sparse bulk path must sustain ≥ 10× the old dense sweep's
//!   VM-epochs/sec.
//! * **service rows** — the full event loop: `traces` session streams
//!   (Hotmail diurnal and bursty EC2 presets) arrive, run hot, go idle and
//!   depart through [`DatacenterService`]; the row reports sustained
//!   VM-arrivals/sec and VM-epochs/sec of the whole pipeline.
//! * **fault rows** — the same stream (spread placement on, so the
//!   fault-free baseline isolates the fault machinery) stepped over a
//!   fixed horizon under a blast-radius sweep: fault-free baseline (not
//!   dumped), a disabled [`FaultPlane`] (idle overhead, must stay within a
//!   few percent), [`FaultConfig::light`] (independent machine crashes,
//!   blast radius 1), [`FaultConfig::rack_outages`] (whole racks at once),
//!   [`FaultConfig::domain_outages`] (whole power domains), and
//!   [`FaultConfig::maintenance`] (planned drains with graceful notice).
//!   All fault scenarios share the same start rate and window lengths, so
//!   expected machine downtime matches while the blast radius — and hence
//!   evacuation burstiness, retry latency and cascade-induced
//!   abandonments — grows; the drain row must show lower disruption
//!   (instant evacuations) than the equivalent-crash `light` row.
//!
//! A parallel row can only beat serial when the OS grants more than one
//! hardware thread, so every engine row carries `available_parallelism`
//! and `threads > 1` rows on a single-core runner carry
//! `"overhead_only": true` (enforced by `check_bench_json`).
//!
//! Results are printed as a table and dumped to `BENCH_datacenter.json` at
//! the workspace root; `--smoke` (the CI step) shrinks fleets and budgets.

use std::time::{Duration, Instant};

use cloudsim::faults::{FaultConfig, FaultPlane, Topology};
use cloudsim::service::{DatacenterService, ServiceConfig, ServiceStats};
use cloudsim::{Cluster, ClusterSeed, EpochEngine, ExecutionMode, PmId, Scheduler, Vm, VmId};
use criterion::{criterion_group, Criterion};
use hwsim::MachineSpec;
use workloads::{AppId, ClientEmulator, DataServing, WebSearch, Workload};

/// VMs per machine: the Xeon X5472's real capacity with 2-vCPU VMs.
const VMS_PER_MACHINE: usize = 4;

/// Cloud-app tenant mix.  Both families are provably static at load zero,
/// so a machine whose VMs all idle goes quiescent under the sparse engine.
fn tenant(i: u64) -> Vm {
    let workload: Box<dyn Workload> = if i.is_multiple_of(2) {
        Box::new(DataServing::with_defaults(AppId(1)))
    } else {
        Box::new(WebSearch::with_defaults(AppId(2)))
    };
    let client = if i.is_multiple_of(2) {
        ClientEmulator::new(8_000.0, 4.0)
    } else {
        ClientEmulator::new(1_200.0, 25.0)
    };
    Vm::new(VmId(i), workload, client)
}

/// A `machines`-machine Xeon fleet at real density.  Placement is direct
/// (`PmId == i / 4`), so building a 100k-machine fleet stays O(machines).
fn fleet(machines: usize) -> Cluster {
    let mut cluster =
        Cluster::homogeneous(machines, MachineSpec::xeon_x5472(), Scheduler::default());
    for i in 0..(machines * VMS_PER_MACHINE) as u64 {
        let pm = PmId(i / VMS_PER_MACHINE as u64);
        cluster.place_on(pm, tenant(i)).expect("fleet has room");
    }
    cluster
}

/// Offered load with `activity_permille / 1000` of the machines busy.
///
/// VM ids are dense (`machine index == vm / 4`), so striding the machine
/// index spreads the active set evenly across the fleet.  Active VMs get a
/// per-VM load in `[0.6, 0.8)`; idle VMs offer zero, where their workloads
/// are static and the sparse engine can go quiescent.
fn offered_load(vm: VmId, activity_permille: u64) -> f64 {
    let machine = vm.0 / VMS_PER_MACHINE as u64;
    if machine % 1000 < activity_permille {
        0.6 + 0.05 * (vm.0 % 4) as f64
    } else {
        0.0
    }
}

struct EngineRow {
    machines: usize,
    vms: usize,
    mode: &'static str,
    activity: f64,
    threads: usize,
    epochs_per_sec: f64,
    vm_epochs_per_sec: f64,
    /// Speedup against the dense baseline of the *same* API (step rows vs
    /// dense step, advance rows vs dense advance) — isolates the sparse
    /// win from the separate saving of not packaging reports.
    speedup_vs_dense: f64,
    /// Advance rows only: speedup against the per-epoch dense sweep with
    /// materialized reports — the engine's pre-sparse behavior, i.e. "the
    /// wall" the sparse service mode replaces.
    speedup_vs_dense_sweep: Option<f64>,
}

struct ServiceRow {
    preset: &'static str,
    machines: usize,
    epochs_per_sec: f64,
    vm_epochs_per_sec: f64,
    vm_arrivals_per_sec: f64,
    peak_resident: usize,
}

/// One fault-plane scenario against the fault-free baseline of the same
/// stream: what the crash/evacuation/retry machinery costs and delivers.
struct FaultRow {
    /// `"disabled"` (plane attached, every rate zero — the idle-overhead
    /// row, which must stay within a few percent of fault-free), `"light"`
    /// (independent machine crashes), `"rack"` / `"domain"` (correlated
    /// outages felling a whole rack / power domain per draw), or `"drain"`
    /// (planned maintenance with a graceful notice window).
    scenario: &'static str,
    machines: usize,
    /// Machines taken down by one fault draw: 1 for independent crashes
    /// and drains, `machines_per_rack` / `machines_per_domain()` for the
    /// correlated scenarios.
    blast_radius: usize,
    epochs_per_sec: f64,
    /// Slowdown vs the fault-free run of the same stream, in percent
    /// (negative = measured faster, i.e. inside noise).
    overhead_pct: f64,
    /// Machine-epochs outside down windows, as a percentage.
    availability_pct: f64,
    /// Mean epochs a displaced VM waited in the retry queue before landing
    /// (zero when every evacuation placed immediately).
    evacuation_latency_epochs: f64,
    crashes: u64,
    evacuations: u64,
    /// VMs migrated off draining machines gracefully (zero in every
    /// crash-only scenario).
    drain_migrations: u64,
    /// Parked VMs that exhausted their retry budget — the cascade cost of
    /// correlated evacuation bursts overwhelming surviving capacity.
    abandonments: u64,
}

/// Steps `cluster` for at least `budget` (always ≥ 1 epoch) and returns
/// (epochs/sec).  The warm-up epoch grows resolver buffers and, in sparse
/// mode, fills the quiescent caches, so the timed region measures the
/// steady state both engines would sustain.
fn measure_engine(
    machines: usize,
    mode: ExecutionMode,
    sparse: bool,
    activity_permille: u64,
    budget: Duration,
) -> f64 {
    let mut cluster = fleet(machines);
    let mut engine = EpochEngine::new(ClusterSeed::new(machines as u64), mode);
    engine.set_sparse(sparse);
    criterion::black_box(engine.step(&mut cluster, |vm| offered_load(vm, activity_permille)));
    let start = Instant::now();
    let mut epochs = 0u64;
    loop {
        criterion::black_box(engine.step(&mut cluster, |vm| offered_load(vm, activity_permille)));
        epochs += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    epochs as f64 / start.elapsed().as_secs_f64()
}

/// Epochs per bulk-advance call: loads are held fixed across the batch
/// (the documented [`EpochEngine::advance_epochs`] contract), so the
/// quiescent check amortizes to ~nothing per epoch.
const ADVANCE_BATCH: u64 = 16;

/// Same measurement through the report-free [`EpochEngine::advance_epochs`]
/// bulk path — the throughput entry point for callers that do not consume
/// per-epoch reports.  Sparse advance visits a quiescent machine once per
/// batch instead of copying its reports once per epoch, which is where the
/// order-of-magnitude win over the dense sweep lives.
fn measure_advance(machines: usize, sparse: bool, activity_permille: u64, budget: Duration) -> f64 {
    let mut cluster = fleet(machines);
    let mut engine = EpochEngine::serial(ClusterSeed::new(machines as u64));
    engine.set_sparse(sparse);
    criterion::black_box(engine.step(&mut cluster, |vm| offered_load(vm, activity_permille)));
    let start = Instant::now();
    let mut epochs = 0u64;
    loop {
        let summary = engine.advance_epochs(&mut cluster, ADVANCE_BATCH, |vm| {
            offered_load(vm, activity_permille)
        });
        criterion::black_box(summary.vm_epochs);
        epochs += ADVANCE_BATCH;
        if start.elapsed() >= budget {
            break;
        }
    }
    epochs as f64 / start.elapsed().as_secs_f64()
}

/// Dense-vs-sparse pairs at a given fleet size and activity fraction, for
/// both the per-epoch report-returning path and the bulk-advance path.
/// Each pair's speedup is against its own dense baseline, so the sparse
/// win is never conflated with the (separate) saving of not packaging
/// reports.
fn engine_pair(
    machines: usize,
    activity_permille: u64,
    budget: Duration,
    rows: &mut Vec<EngineRow>,
) {
    let vms = machines * VMS_PER_MACHINE;
    let activity = activity_permille as f64 / 1000.0;
    let dense = measure_engine(
        machines,
        ExecutionMode::Serial,
        false,
        activity_permille,
        budget,
    );
    let sparse = measure_engine(
        machines,
        ExecutionMode::Serial,
        true,
        activity_permille,
        budget,
    );
    let dense_advance = measure_advance(machines, false, activity_permille, budget);
    let sparse_advance = measure_advance(machines, true, activity_permille, budget);
    for (mode, rate, baseline, vs_sweep) in [
        ("dense", dense, dense, None),
        ("sparse", sparse, dense, None),
        (
            "dense-advance",
            dense_advance,
            dense_advance,
            Some(dense_advance / dense),
        ),
        (
            "sparse-advance",
            sparse_advance,
            dense_advance,
            Some(sparse_advance / dense),
        ),
    ] {
        rows.push(EngineRow {
            machines,
            vms,
            mode,
            activity,
            threads: 1,
            epochs_per_sec: rate,
            vm_epochs_per_sec: rate * vms as f64,
            speedup_vs_dense: rate / baseline,
            speedup_vs_dense_sweep: vs_sweep,
        });
    }
}

/// Drives a preset session stream through the service for at least
/// `budget` and reports sustained rates of the whole pipeline (event
/// application + placement + sparse stepping).
fn measure_service(
    preset: &'static str,
    machines: usize,
    sessions: Vec<traces::VmSession>,
    budget: Duration,
) -> ServiceRow {
    let mut service = DatacenterService::new(
        ServiceConfig::xeon_fleet(machines, machines as u64),
        sessions,
    );
    // Warm-up: admit the first wave and fill resolver buffers.
    service.step_epoch();
    let before = service.stats();
    let start = Instant::now();
    let mut epochs = 0u64;
    loop {
        criterion::black_box(service.step_epoch().len());
        epochs += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = service.stats();
    ServiceRow {
        preset,
        machines,
        epochs_per_sec: epochs as f64 / elapsed,
        vm_epochs_per_sec: (stats.vm_epochs - before.vm_epochs) as f64 / elapsed,
        vm_arrivals_per_sec: (stats.arrivals - before.arrivals) as f64 / elapsed,
        peak_resident: stats.peak_resident,
    }
}

/// Steps the same session stream for a fixed epoch count with an optional
/// fault plane attached and returns (epochs/sec, final stats, total epochs
/// stepped including the warm-up).  Fixed epochs — not a time budget —
/// because the fault rows compare *rates across runs* and convert
/// `down_machine_epochs` into an availability percentage, both of which
/// need identical horizons.
fn measure_fault_service(
    machines: usize,
    topology: Topology,
    sessions: Vec<traces::VmSession>,
    plane: Option<FaultPlane>,
    epochs: u64,
) -> (f64, ServiceStats, u64) {
    // Spread placement is on for every run of the family — including the
    // fault-free baseline — so the overhead column isolates the fault
    // machinery instead of conflating it with the placement policy.
    let mut service = DatacenterService::new(
        ServiceConfig::xeon_fleet(machines, machines as u64).with_spread(topology),
        sessions,
    );
    if let Some(plane) = plane {
        service.set_fault_plane(plane);
    }
    service.step_epoch();
    let start = Instant::now();
    for _ in 0..epochs {
        criterion::black_box(service.step_epoch().len());
    }
    let rate = epochs as f64 / start.elapsed().as_secs_f64();
    (rate, service.stats(), epochs + 1)
}

/// The fault family: one fault-free baseline (not dumped — it only anchors
/// the overhead column), then the same stream under the blast-radius
/// sweep — disabled plane (idle overhead must stay under a few percent),
/// independent crashes, whole-rack outages, whole-power-domain outages,
/// and planned maintenance drains.  All fault scenarios share the start
/// rate and window lengths, so expected machine downtime is comparable
/// while the failure-domain size (and the drain's graceful notice) is the
/// variable under test.
fn fault_rows(smoke: bool) -> Vec<FaultRow> {
    // Epochs are 1 s of simulated time, so the horizon only needs to cover
    // the stepped window; the peak arrival rate is sized so the fleet
    // carries a substantial resident population for the whole measurement
    // without saturating (rejections would conflate admission-retry latency
    // with evacuation latency).  The topology is scaled to the fleet so
    // both runs span several racks and power domains.
    let (machines, epochs, rate_per_day, horizon_days, topology) = if smoke {
        (200, 120, 500_000.0, 0.002, Topology::new(10, 4))
    } else {
        (2_000, 1_000, 600_000.0, 0.02, Topology::conventional())
    };
    let stream = || traces::hotmail_sessions(rate_per_day, horizon_days, 7);
    // Each scenario is measured twice and keeps the faster rate: the first
    // run of the process pays allocator and cache warmup that later runs do
    // not, which would otherwise masquerade as (negative) fault overhead.
    let best_of_two = |plane: Option<FaultPlane>| {
        let (first, _, _) = measure_fault_service(machines, topology, stream(), plane, epochs);
        let (second, stats, total_epochs) =
            measure_fault_service(machines, topology, stream(), plane, epochs);
        (first.max(second), stats, total_epochs)
    };
    let (baseline, _, _) = best_of_two(None);
    [
        ("disabled", FaultConfig::disabled(), 1),
        ("light", FaultConfig::light(), 1),
        (
            "rack",
            FaultConfig::rack_outages(topology),
            topology.machines_per_rack,
        ),
        (
            "domain",
            FaultConfig::domain_outages(topology),
            topology.machines_per_domain(),
        ),
        ("drain", FaultConfig::maintenance(), 1),
    ]
    .into_iter()
    .map(|(scenario, config, blast_radius)| {
        let plane = FaultPlane::new(0xFA17, config);
        let (rate, stats, total_epochs) = best_of_two(Some(plane));
        let machine_epochs = (machines as u64 * total_epochs) as f64;
        let evacuation_latency_epochs = if stats.retry_admissions > 0 {
            stats.retry_wait_epochs as f64 / stats.retry_admissions as f64
        } else {
            0.0
        };
        FaultRow {
            scenario,
            machines,
            blast_radius,
            epochs_per_sec: rate,
            overhead_pct: (baseline / rate - 1.0) * 100.0,
            availability_pct: 100.0 * (1.0 - stats.down_machine_epochs as f64 / machine_epochs),
            evacuation_latency_epochs,
            crashes: stats.crashes,
            evacuations: stats.evacuations,
            drain_migrations: stats.drain_migrations,
            abandonments: stats.abandonments,
        }
    })
    .collect()
}

fn run_measurements(smoke: bool) -> (Vec<EngineRow>, Vec<ServiceRow>) {
    // Smoke keeps CI fast but walks the exact same code paths; the dense
    // 100k sweep is the one genuinely expensive row, so it gets its own
    // (smaller) budget that still fits ≥ 1 epoch.
    let (small, large, budget) = if smoke {
        (200, 1_000, Duration::from_millis(20))
    } else {
        (10_000, 100_000, Duration::from_millis(1_500))
    };
    let mut engine_rows = Vec::new();
    // The headline: 10% activity, where sparse must clear 10× dense.
    engine_pair(small, 100, budget, &mut engine_rows);
    // Worst case for sparse: everything active, caches never hit — this
    // row bounds the bookkeeping overhead (speedup ≈ 1.0).
    engine_pair(small, 1_000, budget, &mut engine_rows);
    // Fleet-scale: the same sparse win must survive 10× more machines.
    engine_pair(large, 100, budget, &mut engine_rows);
    // One pooled sparse row: exercises the scatter_map dispatch path at
    // scale (on a single-core runner this measures overhead only and the
    // dump says so).
    const LANES: usize = 4;
    let pooled_mode = ExecutionMode::Pooled { threads: LANES };
    let pooled = measure_engine(small, pooled_mode, true, 100, budget);
    let dense_small = engine_rows[0].epochs_per_sec;
    engine_rows.push(EngineRow {
        machines: small,
        vms: small * VMS_PER_MACHINE,
        mode: "sparse-pooled",
        activity: 0.1,
        threads: LANES,
        epochs_per_sec: pooled,
        vm_epochs_per_sec: pooled * (small * VMS_PER_MACHINE) as f64,
        speedup_vs_dense: pooled / dense_small,
        speedup_vs_dense_sweep: None,
    });

    // The service front end: diurnal Hotmail and bursty EC2 streams sized
    // so the fleet stays busy for the whole measured window.
    let (rate_per_day, horizon_days) = if smoke {
        (40_000.0, 0.05)
    } else {
        (2_000_000.0, 2.0)
    };
    let service_rows = vec![
        measure_service(
            "hotmail",
            small,
            traces::hotmail_sessions(rate_per_day, horizon_days, 7),
            budget,
        ),
        measure_service(
            "ec2",
            small,
            traces::ec2_sessions(rate_per_day, horizon_days, 7),
            budget,
        ),
        measure_service(
            "hotmail",
            large,
            traces::hotmail_sessions(rate_per_day * 4.0, horizon_days, 7),
            budget,
        ),
    ];
    (engine_rows, service_rows)
}

fn print_table(engine_rows: &[EngineRow], service_rows: &[ServiceRow], fault_rows: &[FaultRow]) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("# Datacenter throughput — sparse vs dense stepping ({cores} core(s) available)");
    println!(
        "machines,vms,mode,activity,threads,epochs_per_sec,vm_epochs_per_sec,\
         speedup_vs_dense,speedup_vs_dense_sweep"
    );
    for r in engine_rows {
        println!(
            "{},{},{},{:.2},{},{:.1},{:.0},{:.2},{}",
            r.machines,
            r.vms,
            r.mode,
            r.activity,
            r.threads,
            r.epochs_per_sec,
            r.vm_epochs_per_sec,
            r.speedup_vs_dense,
            r.speedup_vs_dense_sweep
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}"))
        );
    }
    println!("# DatacenterService event loop");
    println!("preset,machines,epochs_per_sec,vm_epochs_per_sec,vm_arrivals_per_sec,peak_resident");
    for r in service_rows {
        println!(
            "{},{},{:.1},{:.0},{:.1},{}",
            r.preset,
            r.machines,
            r.epochs_per_sec,
            r.vm_epochs_per_sec,
            r.vm_arrivals_per_sec,
            r.peak_resident
        );
    }
    println!("# Fault plane — blast-radius sweep vs the fault-free baseline");
    println!(
        "scenario,machines,blast_radius,epochs_per_sec,overhead_pct,availability_pct,\
         evacuation_latency_epochs,crashes,evacuations,drain_migrations,abandonments"
    );
    for r in fault_rows {
        println!(
            "{},{},{},{:.1},{:.2},{:.3},{:.2},{},{},{},{}",
            r.scenario,
            r.machines,
            r.blast_radius,
            r.epochs_per_sec,
            r.overhead_pct,
            r.availability_pct,
            r.evacuation_latency_epochs,
            r.crashes,
            r.evacuations,
            r.drain_migrations,
            r.abandonments
        );
    }
}

/// Dumps the rows to `BENCH_datacenter.json` at the workspace root so
/// successive PRs can track the sparse-engine trajectory.
fn dump_json(
    engine_rows: &[EngineRow],
    service_rows: &[ServiceRow],
    fault_rows: &[FaultRow],
    smoke: bool,
) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut entries: Vec<String> = engine_rows
        .iter()
        .map(|r| {
            // A multi-threaded row measured on a single-core runner records
            // coordination overhead, not scaling — say so in the row itself
            // (check_bench_json rejects dumps that omit the flag).
            let overhead_only = r.threads > 1 && cores == 1;
            let vs_sweep = r.speedup_vs_dense_sweep.map_or(String::new(), |s| {
                format!("\"speedup_vs_dense_sweep\": {s:.2}, ")
            });
            format!(
                "  {{\"kind\": \"engine\", \"machines\": {}, \"vms\": {}, \"mode\": \"{}\", \
                 \"activity\": {}, \"threads\": {}, \"epochs_per_sec\": {:.1}, \
                 \"vm_epochs_per_sec\": {:.0}, \"speedup_vs_dense\": {:.2}, {vs_sweep}\
                 \"available_parallelism\": {cores}, \"overhead_only\": {overhead_only}}}",
                r.machines,
                r.vms,
                r.mode,
                r.activity,
                r.threads,
                r.epochs_per_sec,
                r.vm_epochs_per_sec,
                r.speedup_vs_dense
            )
        })
        .collect();
    entries.extend(service_rows.iter().map(|r| {
        format!(
            "  {{\"kind\": \"service\", \"preset\": \"{}\", \"machines\": {}, \
             \"epochs_per_sec\": {:.1}, \"vm_epochs_per_sec\": {:.0}, \
             \"vm_arrivals_per_sec\": {:.1}, \"peak_resident\": {}, \
             \"available_parallelism\": {cores}}}",
            r.preset,
            r.machines,
            r.epochs_per_sec,
            r.vm_epochs_per_sec,
            r.vm_arrivals_per_sec,
            r.peak_resident
        )
    }));
    entries.extend(fault_rows.iter().map(|r| {
        format!(
            "  {{\"kind\": \"fault\", \"scenario\": \"{}\", \"machines\": {}, \
             \"blast_radius\": {}, \"epochs_per_sec\": {:.1}, \"overhead_pct\": {:.2}, \
             \"availability_pct\": {:.3}, \"evacuation_latency_epochs\": {:.2}, \
             \"crashes\": {}, \"evacuations\": {}, \"drain_migrations\": {}, \
             \"abandonments\": {}, \"available_parallelism\": {cores}}}",
            r.scenario,
            r.machines,
            r.blast_radius,
            r.epochs_per_sec,
            r.overhead_pct,
            r.availability_pct,
            r.evacuation_latency_epochs,
            r.crashes,
            r.evacuations,
            r.drain_migrations,
            r.abandonments
        )
    }));
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    bench::write_dump("datacenter", smoke, &json);
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("datacenter_throughput");
    group.sample_size(10);
    for (name, sparse) in [
        ("epoch_1k_machines_dense", false),
        ("epoch_1k_machines_sparse", true),
    ] {
        let mut cluster = fleet(1_000);
        let mut engine = EpochEngine::serial(ClusterSeed::new(1_000));
        engine.set_sparse(sparse);
        engine.step(&mut cluster, |vm| offered_load(vm, 100));
        group.bench_function(name, |b| {
            b.iter(|| engine.step(&mut cluster, |vm| offered_load(vm, 100)).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (engine_rows, service_rows) = run_measurements(smoke);
    let fault_rows = fault_rows(smoke);
    print_table(&engine_rows, &service_rows, &fault_rows);
    // Smoke runs dump too (to the .smoke.json sibling): CI validates the
    // freshly written file with `cargo run -p bench --bin check_bench_json`,
    // so a bench that breaks its own dump fails the build instead of
    // silently corrupting the cross-PR trajectory.
    dump_json(&engine_rows, &service_rows, &fault_rows, smoke);
    benches();
}
