//! One run of one workload: set-up, the timed closed loop, output checks,
//! and the metrics derived from it (end-to-end when untraced, per-layer
//! from the recorded spans when traced).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cloudsim::faults::FaultPlane;
use cloudsim::{PmId, VmEpochReport};
use hwsim::contention::PlacedDemand;
use hwsim::{EpochResolver, MachineSpec, EPOCH_SECONDS};

use crate::metrics::{median, percentile, ratio};
use crate::trace::{self, Tracer};
use crate::workloads::{build, Built, Shape, Snapshot, Workload, World};

/// Fewest and most set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const SETUP_REPEATS_MAX: usize = 15;

#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub quick: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every check held: the stream reached its stated size, no epoch failed
    /// and the final audit is clean.
    pub correct: bool,
    /// Fold of every timed epoch's report count and `inst_retired` bits plus
    /// the final stats: equal digests mean equal simulated behaviour.
    pub sim_digest: u64,
    pub timed_wall_s: f64,
    /// Samples behind the epoch percentiles.
    pub samples: usize,
    /// `(name, value)` in table order: [`crate::metrics::END_TO_END`] when
    /// untraced, [`crate::metrics::PER_LAYER`] when traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why the run is not `correct`, one line per failed check.
    pub findings: Vec<String>,
    pub tracer: Option<Tracer>,
}

fn fold(digest: &mut u64, word: u64) {
    *digest = (digest.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
}

fn fold_reports(digest: &mut u64, epoch: u64, reports: &[VmEpochReport]) {
    fold(digest, epoch);
    fold(digest, reports.len() as u64);
    for report in reports {
        fold(digest, report.counters.inst_retired.to_bits());
    }
}

/// Generates inputs, builds the world and runs the warm-up epochs; returns
/// what was built and the host seconds all of it took.
fn set_up(spec: &RunSpec, shape: &Shape) -> (Built, f64) {
    let clock = Instant::now();
    let mut built = build(spec.workload, spec.seed, shape, spec.traced);
    let mut untraced = None;
    for _ in 0..shape.warmup {
        std::hint::black_box(built.world.step(&mut untraced));
    }
    let setup_s = clock.elapsed().as_secs_f64();
    (built, setup_s)
}

/// `setup_s`: the median of the run's own set-up and of repeats made after
/// the timed region — at least `SETUP_REPEATS` in all, and cheap set-ups
/// until a second of them has been sampled.  Repeating afterwards keeps the
/// timed region and the peak resident set those of a process that set up
/// once; the traced run reports no `setup_s` and never repeats.
fn median_setup_s(spec: &RunSpec, shape: &Shape, first: f64) -> f64 {
    let mut times = vec![first];
    while !spec.quick
        && (times.len() < SETUP_REPEATS
            || (times.len() < SETUP_REPEATS_MAX && times.iter().sum::<f64>() < 1.0))
    {
        times.push(set_up(spec, shape).1);
    }
    median(&times)
}

/// Peak resident set of this process in MiB (`VmHWM`), zero where
/// `/proc/self/status` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn run(spec: &RunSpec) -> RunResult {
    let shape = spec.workload.shape(spec.quick, spec.seconds);

    let (built, first_setup_s) = set_up(spec, &shape);
    let Built {
        mut world,
        generate_s,
        sessions,
    } = built;

    let mut tracer = spec.traced.then(Tracer::new);
    let mut findings = Vec::new();
    // (`--quick` covers only the preset's thin early hours and may fall short.)
    if !spec.quick && sessions != shape.sessions {
        findings.push(format!(
            "the seed's stream has {sessions} sessions, short of the stated {}",
            shape.sessions
        ));
    }
    let mut digest = 0u64;
    let mut epoch_ms = Vec::with_capacity(shape.timed as usize);
    let mut vm_epochs = 0u64;
    let mut failed = 0u64;
    let first_timed_epoch = world.cluster().epoch();
    let start = world.snapshot();
    let mut placement_errors = start.service.map_or(0, |s| s.placement_errors);

    let region = Instant::now();
    for index in 0..shape.timed {
        let epoch = world.cluster().epoch();
        let root_start = tracer.as_ref().map(Tracer::now_ns);
        let clock = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| world.step(&mut tracer)));
        let elapsed = clock.elapsed();
        let Ok(reports) = outcome else {
            // The world may be half-updated: every remaining epoch fails.
            failed += shape.timed - index;
            findings.push(format!("epoch {epoch}: the driver call panicked"));
            break;
        };
        if let (Some(tracer), Some(root_start)) = (tracer.as_mut(), root_start) {
            let root_end = tracer.now_ns();
            let counts = vec![("reports", reports.len() as u64)];
            tracer.record(epoch, trace::EPOCH, root_start, root_end, counts);
        }
        epoch_ms.push(elapsed.as_secs_f64() * 1e3);
        vm_epochs += reports.len() as u64;
        fold_reports(&mut digest, epoch, &reports);

        let resident = world.cluster().vm_count();
        let errors = world.placement_errors();
        if reports.len() != resident || errors > placement_errors {
            failed += 1;
            if findings.len() < 8 {
                findings.push(format!(
                    "epoch {epoch}: {} reports for {resident} resident VMs, \
                     {errors} placement errors (was {placement_errors})",
                    reports.len()
                ));
            }
        }
        placement_errors = errors;
    }
    let timed_wall_s = region.elapsed().as_secs_f64();

    let end = world.snapshot();
    for finding in world.audit() {
        findings.push(format!("audit: {finding}"));
    }
    for word in format!("{:?} {:?}", end.service, end.controller).bytes() {
        fold(&mut digest, u64::from(word));
    }

    let samples = epoch_ms.len();
    let metrics = match &tracer {
        None => {
            epoch_ms.sort_by(f64::total_cmp);
            // Read before the repeated set-ups raise it.
            let peak_rss = peak_rss_mib();
            drop(world);
            vec![
                ("vm_epochs_per_s", ratio(vm_epochs as f64, timed_wall_s)),
                ("epoch_ms_p50", percentile(&epoch_ms, 0.5)),
                ("setup_s", median_setup_s(spec, &shape, first_setup_s)),
                ("peak_rss_mib", peak_rss),
            ]
        }
        Some(tracer) => per_layer(&Observed {
            spec,
            shape: &shape,
            world: &world,
            tracer,
            start: &start,
            end: &end,
            first_timed_epoch,
            vm_epochs,
            timed_wall_s,
            generate_s,
            sessions,
        }),
    };

    RunResult {
        attempted: shape.timed,
        failed,
        correct: findings.is_empty(),
        sim_digest: digest,
        timed_wall_s,
        samples,
        metrics,
        findings,
        tracer,
    }
}

/// Everything the per-layer metrics are derived from.
struct Observed<'a> {
    spec: &'a RunSpec,
    shape: &'a Shape,
    world: &'a World,
    tracer: &'a Tracer,
    start: &'a Snapshot,
    end: &'a Snapshot,
    first_timed_epoch: u64,
    vm_epochs: u64,
    timed_wall_s: f64,
    generate_s: f64,
    sessions: usize,
}

/// Ascending durations in ms of the named spans that satisfy `class`.
fn class_ms(tracer: &Tracer, name: &str, class: impl Fn(&trace::Span) -> bool) -> Vec<f64> {
    let mut durations: Vec<f64> = tracer
        .named(name)
        .filter(|s| class(s))
        .map(|s| s.duration_s() * 1e3)
        .collect();
    durations.sort_by(f64::total_cmp);
    durations
}

/// Median duration in ms of the named spans that satisfy `class`.
fn class_p50_ms(tracer: &Tracer, name: &str, class: impl Fn(&trace::Span) -> bool) -> f64 {
    percentile(&class_ms(tracer, name, class), 0.5)
}

/// The `p`-th percentile in ms of every span with the given name.
fn percentile_ms(tracer: &Tracer, name: &str, p: f64) -> f64 {
    percentile(&class_ms(tracer, name, |_| true), p)
}

fn per_layer(o: &Observed) -> Vec<(&'static str, f64)> {
    let tracer = o.tracer;
    let epoch_s = tracer.busy_s(trace::EPOCH);
    let service_s = tracer.busy_s(trace::SERVICE_STEP);
    let engine_s = tracer.busy_s(trace::ENGINE_STEP);
    let controller_s = tracer.busy_s(trace::CONTROLLER);
    let feedback_s = tracer.busy_s(trace::FEEDBACK);
    let inject_s = tracer.busy_s(trace::INJECT);
    // Self time of the root: its duration minus what its children cover.
    let self_s = (epoch_s - service_s - engine_s - controller_s - feedback_s - inject_s).max(0.0);

    let service = o.start.service.zip(o.end.service);
    let svc = |field: fn(&cloudsim::ServiceStats) -> u64| {
        service.map_or(0.0, |(a, b)| (field(&b) - field(&a)) as f64)
    };
    let controller = o.start.controller.zip(o.end.controller);
    let ctl = |field: fn(&deepdive::DeepDiveStats) -> u64| {
        controller.map_or(0.0, |(a, b)| (field(&b) - field(&a)) as f64)
    };

    let faulted = |s: &trace::Span| s.count("evacuations") + s.count("drain_migrations") > 0;
    let analyzing = |s: &trace::Span| s.count("analyzed") > 0;
    let quiet_p50_ms = class_p50_ms(tracer, trace::CONTROLLER, |s| !analyzing(s));
    let (quiet_s, quiet_evals) = tracer
        .named(trace::CONTROLLER)
        .filter(|s| !analyzing(s))
        .fold((0.0, 0u64), |(s, n), span| {
            (s + span.duration_s(), n + span.count("evaluations"))
        });
    // Marginal cost of analysing: each analysis epoch against the quiet
    // epoch before it (the quiet cost drifts with the resident population,
    // so a run-wide baseline would misprice it).
    let mut last_quiet_ms = quiet_p50_ms;
    let mut marginal_ms = 0.0;
    for span in tracer.named(trace::CONTROLLER) {
        let ms = span.duration_s() * 1e3;
        if analyzing(span) {
            marginal_ms += ms - last_quiet_ms;
        } else {
            last_quiet_ms = ms;
        }
    }
    let skipped: u64 = tracer
        .named(trace::CONTROLLER)
        .map(|s| s.count("migration_skipped"))
        .sum();

    let resolves = (o.end.resolves - o.start.resolves) as f64;
    let quiescent = (o.end.quiescent_steps - o.start.quiescent_steps) as f64;
    let machine_epochs = (o.shape.machines as u64 * o.shape.timed) as f64;
    let evaluations = ctl(|s| s.evaluations);
    let invocations = ctl(|s| s.analyzer_invocations);
    let confirmed = ctl(|s| s.interference_confirmed);
    let migrations = ctl(|s| s.migrations);
    let arrivals = svc(|s| s.arrivals);
    let rejections = svc(|s| s.rejections);
    let profiling_sim_s =
        controller.map_or(0.0, |(a, b)| b.profiling_seconds - a.profiling_seconds);

    // Ground truth of `interference_episodes`: episodes that landed in the
    // timed region and ran their full length.
    let (episodes, detected, reaction_p50) = o.world.episodes().map_or((0.0, 0.0, 0.0), |e| {
        let complete: Vec<_> = e
            .finished
            .iter()
            .filter(|ep| ep.landed >= o.first_timed_epoch)
            .collect();
        let reactions: Vec<f64> = complete
            .iter()
            .filter_map(|ep| ep.confirmed_at.map(|at| (at - ep.landed) as f64))
            .collect();
        (
            complete.len() as f64,
            reactions.len() as f64,
            median(&reactions),
        )
    });

    let fault_plane = o.spec.workload.fault_plane();

    vec![
        ("traces.generate_s", o.generate_s),
        ("traces.sessions", o.sessions as f64),
        ("cloudsim.service.busy_s", service_s),
        ("cloudsim.service.share", ratio(service_s, epoch_s)),
        (
            "cloudsim.service.step_ms_calm_p50",
            class_p50_ms(tracer, trace::SERVICE_STEP, |s| !faulted(s)),
        ),
        (
            "cloudsim.service.step_ms_fault_p50",
            class_p50_ms(tracer, trace::SERVICE_STEP, faulted),
        ),
        (
            "cloudsim.service.step_ms_p99",
            percentile_ms(tracer, trace::SERVICE_STEP, 0.99),
        ),
        ("cloudsim.service.arrivals", arrivals),
        ("cloudsim.service.departures", svc(|s| s.departures)),
        ("cloudsim.service.rejections", rejections),
        ("cloudsim.service.retries", svc(|s| s.retries)),
        ("cloudsim.service.abandonments", svc(|s| s.abandonments)),
        ("cloudsim.service.evacuations", svc(|s| s.evacuations)),
        (
            "cloudsim.service.drain_migrations",
            svc(|s| s.drain_migrations),
        ),
        (
            "cloudsim.service.placement_errors",
            svc(|s| s.placement_errors),
        ),
        (
            "cloudsim.service.peak_resident",
            o.end.service.map_or(0.0, |s| s.peak_resident as f64),
        ),
        (
            "cloudsim.service.placed_ratio",
            ratio(arrivals, arrivals + rejections),
        ),
        (
            "cloudsim.faults.query_ns",
            fault_plane.map_or(0.0, |plane| probe_fault_query_ns(&plane, o.shape.machines)),
        ),
        ("cloudsim.faults.crashes", svc(|s| s.crashes)),
        (
            "cloudsim.faults.down_machine_epochs",
            svc(|s| s.down_machine_epochs),
        ),
        (
            "cloudsim.faults.availability_pct",
            if fault_plane.is_some() {
                100.0 * (1.0 - ratio(svc(|s| s.down_machine_epochs), machine_epochs))
            } else {
                0.0
            },
        ),
        (
            "cloudsim.faults.retry_wait_epochs_mean",
            ratio(svc(|s| s.retry_wait_epochs), svc(|s| s.retry_admissions)),
        ),
        ("cloudsim.engine.busy_s", engine_s),
        ("cloudsim.engine.share", ratio(engine_s, epoch_s)),
        ("cloudsim.engine.resolves", resolves),
        ("cloudsim.engine.quiescent_steps", quiescent),
        (
            "cloudsim.engine.replay_ratio",
            ratio(quiescent, resolves + quiescent),
        ),
        (
            "cloudsim.engine.ns_per_vm_epoch",
            ratio(engine_s * 1e9, o.vm_epochs as f64),
        ),
        (
            "hwsim.resolver.ns_per_vm",
            probe_resolver_ns_per_vm(o.spec.workload, o.spec.quick),
        ),
        ("deepdive.controller.busy_s", controller_s),
        ("deepdive.controller.share", ratio(controller_s, epoch_s)),
        (
            "deepdive.controller.ns_per_eval",
            ratio(controller_s * 1e9, evaluations),
        ),
        ("deepdive.controller.process_ms_quiet_p50", quiet_p50_ms),
        (
            "deepdive.controller.process_ms_analysis_p50",
            class_p50_ms(tracer, trace::CONTROLLER, analyzing),
        ),
        (
            "deepdive.controller.process_ms_p99",
            percentile_ms(tracer, trace::CONTROLLER, 0.99),
        ),
        ("deepdive.controller.deferred", ctl(|s| s.analyses_deferred)),
        (
            "deepdive.controller.degraded",
            ctl(|s| s.degraded_decisions),
        ),
        (
            "deepdive.controller.migration_retries",
            ctl(|s| s.migration_retries),
        ),
        ("deepdive.warning.evaluations", evaluations),
        (
            "deepdive.warning.quiet_ns_per_eval",
            ratio(quiet_s * 1e9, quiet_evals as f64),
        ),
        ("deepdive.warning.global_matches", ctl(|s| s.global_matches)),
        (
            "deepdive.warning.escalation_ratio",
            ratio(invocations, evaluations),
        ),
        ("deepdive.analyzer.invocations", invocations),
        ("deepdive.analyzer.confirmed", confirmed),
        ("deepdive.analyzer.false_alarms", ctl(|s| s.false_alarms)),
        (
            "deepdive.analyzer.confirm_ratio",
            ratio(confirmed, invocations),
        ),
        ("deepdive.analyzer.profiling_sim_s", profiling_sim_s),
        (
            "deepdive.analyzer.spec_fallbacks",
            ctl(|s| s.sandbox_spec_fallbacks),
        ),
        (
            "deepdive.analyzer.marginal_ms_per_analysis",
            ratio(marginal_ms, invocations),
        ),
        ("deepdive.placement.migrations", migrations),
        ("deepdive.placement.skipped", skipped as f64),
        (
            "deepdive.placement.migrate_ratio",
            ratio(migrations, confirmed),
        ),
        ("deepdive.detection.episodes", episodes),
        ("deepdive.detection.recall", ratio(detected, episodes)),
        ("deepdive.detection.reaction_epochs_p50", reaction_p50),
        ("deepdive.service.feedback_s", feedback_s),
        ("deepdive.service.self_s", self_s),
        ("harness.inject_s", inject_s),
        (
            "harness.inject_skipped",
            o.world.episodes().map_or(0.0, |e| e.skipped as f64),
        ),
        (
            "harness.epoch_ms_p90",
            percentile_ms(tracer, trace::EPOCH, 0.9),
        ),
        (
            "harness.epoch_ms_p99",
            percentile_ms(tracer, trace::EPOCH, 0.99),
        ),
        ("harness.timed_wall_s", o.timed_wall_s),
    ]
}

/// Unit-cost probe: one [`FaultPlane::machine_down`] query, averaged over
/// `machines` × 64 epochs of the workload's own schedule.
fn probe_fault_query_ns(plane: &FaultPlane, machines: usize) -> f64 {
    const EPOCHS: u64 = 64;
    let clock = Instant::now();
    let mut down = 0u64;
    for epoch in 0..EPOCHS {
        for pm in 0..machines as u64 {
            down += u64::from(plane.machine_down(PmId(pm), epoch));
        }
    }
    std::hint::black_box(down);
    ratio(
        clock.elapsed().as_secs_f64() * 1e9,
        (machines as u64 * EPOCHS) as f64,
    )
}

/// Unit-cost probe: [`EpochResolver::resolve_into`] on one machine holding
/// the workload's tenant mix, per resolved VM.
fn probe_resolver_ns_per_vm(workload: Workload, quick: bool) -> f64 {
    use rand::SeedableRng;
    let calls: u64 = if quick { 2_000 } else { 200_000 };
    let spec = MachineSpec::xeon_x5472();
    let groups = spec.cache_groups().max(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let placements: Vec<PlacedDemand> = workload
        .tenant_mix()
        .iter_mut()
        .enumerate()
        .map(|(i, tenant)| {
            PlacedDemand::new(i as u64, tenant.next_demand(0.7, &mut rng), 2, i % groups)
        })
        .collect();
    let mut resolver = EpochResolver::new(spec);
    let mut outcomes = Vec::with_capacity(placements.len());
    let clock = Instant::now();
    for _ in 0..calls {
        resolver.resolve_into(
            std::hint::black_box(&placements),
            EPOCH_SECONDS,
            &mut outcomes,
        );
        std::hint::black_box(&outcomes);
    }
    ratio(
        clock.elapsed().as_secs_f64() * 1e9,
        (calls * placements.len() as u64) as f64,
    )
}
