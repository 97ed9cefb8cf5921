//! Cluster stepping throughput: epochs/sec through the [`EpochEngine`] at
//! production fleet sizes — serial vs the persistent worker pool.
//!
//! This is the scaling item the engine refactor unlocks: with per-`(vm,
//! epoch)` RNG streams, machines are data-independent within an epoch, so
//! the engine can step balanced contiguous machine shards in parallel and
//! merge reports in machine order — bit-identical to serial, but using
//! every core.  The bench steps 64-, 256- and 512-machine Xeon fleets at
//! the testbed's real density (four 2-vCPU VMs per 8-core machine, mixed
//! serving/search/analytics/stress tenants) through `Serial` (the
//! reference), `Pooled { 2, 4, 8 }` (persistent workers, barrier handoff)
//! and the `CLOUDSIM_THREADS` env-default mode.
//! A parallel run can only beat serial when the OS actually grants more
//! than one hardware thread, so each JSON record carries
//! `available_parallelism`, and rows with `threads > 1` on a single-core
//! runner additionally carry `"overhead_only": true` — they measure pure
//! coordination overhead and say nothing about multi-core scaling
//! (`check_bench_json` enforces the flag).
//!
//! The run also measures migration churn (`Cluster::migrate` round-trips per
//! second) to back the `PhysicalMachine::remove_vm` linear-scan decision:
//! at four VMs per machine the scan sustains millions of migrations/sec,
//! orders of magnitude beyond any plausible migration rate.
//!
//! Results are printed as a table and dumped to `BENCH_cluster.json` at the
//! workspace root; `--smoke` (the CI step) shrinks the measurement budget.

use std::time::{Duration, Instant};

use cloudsim::{Cluster, ClusterSeed, EpochEngine, ExecutionMode, PmId, Scheduler, Vm, VmId};
use criterion::{criterion_group, Criterion};
use hwsim::MachineSpec;
use workloads::{
    AppId, ClientEmulator, DataAnalytics, DataServing, MemoryStress, WebSearch, Workload,
};

/// VMs per machine: the Xeon X5472's real capacity with 2-vCPU VMs.
const VMS_PER_MACHINE: usize = 4;

/// Deterministic tenant mix, one workload family per slot index.
fn tenant(i: u64) -> Vm {
    let workload: Box<dyn Workload> = match i % 4 {
        0 => Box::new(DataServing::with_defaults(AppId(1))),
        1 => Box::new(WebSearch::with_defaults(AppId(2))),
        2 => Box::new(DataAnalytics::worker(AppId(3))),
        _ => Box::new(MemoryStress::new(AppId(900), 256.0)),
    };
    let client = match i % 4 {
        0 => ClientEmulator::new(8_000.0, 4.0),
        1 => ClientEmulator::new(1_200.0, 25.0),
        2 => ClientEmulator::new(40.0, 400.0),
        _ => ClientEmulator::new(1.0, 1.0),
    };
    Vm::new(VmId(i), workload, client)
}

/// A `machines`-machine Xeon fleet filled to its real density.
fn fleet(machines: usize) -> Cluster {
    let mut cluster =
        Cluster::homogeneous(machines, MachineSpec::xeon_x5472(), Scheduler::default());
    for i in 0..(machines * VMS_PER_MACHINE) as u64 {
        cluster.place_first_fit(tenant(i)).expect("fleet has room");
    }
    cluster
}

/// The dump's `mode` label and `threads` column for an execution mode.
fn mode_columns(mode: ExecutionMode) -> (String, usize) {
    match mode {
        ExecutionMode::Serial => ("serial".to_string(), 1),
        ExecutionMode::Pooled { threads } => (format!("pooled-{threads}"), threads),
    }
}

struct Measurement {
    machines: usize,
    vms: usize,
    label: String,
    threads: usize,
    epochs_per_sec: f64,
    speedup_vs_serial: f64,
}

/// Steps `cluster` under `mode` for at least `budget` and returns epochs/sec.
fn measure_epochs_per_sec(machines: usize, mode: ExecutionMode, budget: Duration) -> f64 {
    let mut cluster = fleet(machines);
    let engine = EpochEngine::new(ClusterSeed::new(machines as u64), mode);
    // Warm-up: grow every machine's resolver buffers before timing.
    criterion::black_box(engine.step(&mut cluster, |_| 0.7));
    let start = Instant::now();
    let mut epochs = 0u64;
    while start.elapsed() < budget {
        criterion::black_box(engine.step(&mut cluster, |v| 0.4 + 0.05 * (v.0 % 8) as f64));
        epochs += 1;
    }
    epochs as f64 / start.elapsed().as_secs_f64()
}

/// Migration churn through `Cluster::migrate` / `PhysicalMachine::remove_vm`:
/// round-trips one VM between two machines at real density for `budget`.
fn measure_migrations_per_sec(budget: Duration) -> f64 {
    let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
    for i in 0..4u64 {
        cluster.place_on(PmId(0), tenant(i)).expect("room on pm-0");
    }
    for i in 4..7u64 {
        cluster.place_on(PmId(1), tenant(i)).expect("room on pm-1");
    }
    let start = Instant::now();
    let mut moves = 0u64;
    while start.elapsed() < budget {
        cluster.migrate(VmId(0), PmId(1)).expect("pm-1 has a slot");
        cluster.migrate(VmId(0), PmId(0)).expect("pm-0 has a slot");
        moves += 2;
    }
    moves as f64 / start.elapsed().as_secs_f64()
}

fn run_measurements(budget: Duration) -> Vec<Measurement> {
    let mut results = Vec::new();
    for machines in [64usize, 256, 512] {
        // The thread-count matrix, plus whatever CLOUDSIM_THREADS selects.
        let mut modes = vec![
            ExecutionMode::Serial,
            ExecutionMode::Pooled { threads: 2 },
            ExecutionMode::Pooled { threads: 4 },
            ExecutionMode::Pooled { threads: 8 },
        ];
        let env_mode = ExecutionMode::from_env();
        if !modes.contains(&env_mode) {
            modes.push(env_mode);
        }
        let mut serial_rate = None;
        for mode in modes {
            let rate = measure_epochs_per_sec(machines, mode, budget);
            if mode == ExecutionMode::Serial {
                serial_rate = Some(rate);
            }
            let (label, threads) = mode_columns(mode);
            results.push(Measurement {
                machines,
                vms: machines * VMS_PER_MACHINE,
                label,
                threads,
                epochs_per_sec: rate,
                speedup_vs_serial: rate / serial_rate.expect("serial measured first"),
            });
        }
    }
    results
}

fn print_table(results: &[Measurement], migrations_per_sec: f64) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("# Cluster throughput — EpochEngine serial vs pooled ({cores} core(s) available)");
    if cores == 1 {
        println!("# NOTE: single-core runner; parallel rows measure coordination overhead only.");
    }
    println!("machines,vms,mode,threads,epochs_per_sec,vm_epochs_per_sec,speedup_vs_serial");
    for r in results {
        println!(
            "{},{},{},{},{:.1},{:.0},{:.2}",
            r.machines,
            r.vms,
            r.label,
            r.threads,
            r.epochs_per_sec,
            r.epochs_per_sec * r.vms as f64,
            r.speedup_vs_serial
        );
    }
    println!(
        "# migration churn: {:.2}M migrations/sec through Cluster::migrate \
         (remove_vm linear scan at {VMS_PER_MACHINE} VMs/machine)",
        migrations_per_sec / 1.0e6
    );
}

/// Dumps the measurements to `BENCH_cluster.json` at the workspace root so
/// successive PRs can track the scaling trajectory.
fn dump_json(results: &[Measurement], migrations_per_sec: f64, smoke: bool) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut entries: Vec<String> = results
        .iter()
        .map(|r| {
            // A multi-threaded row measured on a single-core runner records
            // coordination overhead, not scaling — say so in the row itself
            // (check_bench_json rejects dumps that omit the flag).
            let overhead_only = r.threads > 1 && cores == 1;
            format!(
                "  {{\"machines\": {}, \"vms\": {}, \"mode\": \"{}\", \"threads\": {}, \
                 \"epochs_per_sec\": {:.1}, \"speedup_vs_serial\": {:.2}, \
                 \"available_parallelism\": {cores}, \"overhead_only\": {overhead_only}}}",
                r.machines, r.vms, r.label, r.threads, r.epochs_per_sec, r.speedup_vs_serial
            )
        })
        .collect();
    entries.push(format!(
        "  {{\"migration_churn_per_sec\": {migrations_per_sec:.0}, \
         \"available_parallelism\": {cores}}}"
    ));
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    bench::write_dump("cluster", smoke, &json);
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_throughput");
    group.sample_size(10);
    let cases = [
        ("epoch_64_machines_serial", ExecutionMode::Serial),
        (
            "epoch_64_machines_pooled_4",
            ExecutionMode::Pooled { threads: 4 },
        ),
    ];
    for (name, mode) in cases {
        let mut cluster = fleet(64);
        let engine = EpochEngine::new(ClusterSeed::new(64), mode);
        group.bench_function(name, |b| {
            b.iter(|| engine.step(&mut cluster, |_| 0.7).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(300)
    };
    let results = run_measurements(budget);
    let migrations_per_sec = measure_migrations_per_sec(budget.min(Duration::from_millis(100)));
    print_table(&results, migrations_per_sec);
    // Smoke runs dump too (to the .smoke.json sibling): CI validates the
    // freshly written file with `cargo run -p bench --bin check_bench_json`,
    // so a bench that breaks its own dump fails the build instead of
    // silently corrupting the cross-PR trajectory.
    dump_json(&results, migrations_per_sec, smoke);
    benches();
}
