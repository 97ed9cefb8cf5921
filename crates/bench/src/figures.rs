//! One function per paper figure.
//!
//! Each function re-runs the corresponding experiment on the simulated
//! substrate and returns plain data that the bench targets print as the
//! figure's rows/series.  Absolute numbers differ from the paper (our
//! substrate is a simulator, not the authors' Xeon testbed), but the
//! qualitative shape — what separates, what is detected, which resource is
//! blamed, who wins — is asserted by the integration tests.

use cloudsim::{ClusterSeed, EpochEngine, PmId, Sandbox, Vm, VmId};
use deepdive::analyzer::InterferenceAnalyzer;
use deepdive::controller::{DeepDive, DeepDiveConfig, EpochEvent};
use deepdive::cpi_stack::{CpiStack, Resource};
use deepdive::metrics::BehaviorVector;
use deepdive::placement::{CandidateMachine, PlacementManager};
use deepdive::synthetic::SyntheticBenchmark;
use deepdive::warning::WarningConfig;
use hwsim::contention::PlacedDemand;
use hwsim::{CounterSnapshot, EpochResolver, MachineSpec, ResourceDemand};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traces::{InterferenceSchedule, LoadTrace};
use workloads::{
    AppId, ClientEmulator, DataAnalytics, DataServing, NetworkStress, WebSearch, Workload,
};

use crate::setup::{victim_cluster, xeon_cluster, CloudWorkload, StressKind};

// The workload configuration types used by the variant sweeps.
use workloads::data_analytics::DataAnalyticsConfig;
use workloads::data_serving::DataServingConfig;
use workloads::web_search::WebSearchConfig;

/// Epochs simulated per trace hour in the trace-driven experiments.  One
/// epoch is one second of "hardware time"; sampling a few epochs per hour
/// keeps the three-day experiments fast while preserving the dynamics.
pub const EPOCHS_PER_HOUR: usize = 4;

// ---------------------------------------------------------------------------
// Figure 1 — EC2 motivation
// ---------------------------------------------------------------------------

/// One hourly sample of the Fig. 1 trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Point {
    /// Hour since the start of the three-day run.
    pub hour: usize,
    /// Client-observed throughput (requests/second).
    pub throughput_rps: f64,
    /// Client-observed average latency (ms).
    pub latency_ms: f64,
    /// Whether an interference episode was active this hour (ground truth).
    pub interference_active: bool,
}

/// Reproduces Fig. 1: a Data Serving VM under a fixed workload whose
/// performance periodically collapses when a co-located aggressor appears.
pub fn fig1_ec2_motivation(seed: u64) -> Vec<Fig1Point> {
    let schedule = InterferenceSchedule::generate(3, 3, 3_600, 2 * 3_600, seed);
    let mut cluster = victim_cluster(CloudWorkload::DataServing, 1);
    let engine = EpochEngine::serial(ClusterSeed::new(seed));
    let mut points = Vec::with_capacity(72);
    let mut aggressor_placed = false;
    for hour in 0..72usize {
        let t = hour as u64 * 3_600;
        let intensity = schedule.intensity_at(t);
        if intensity > 0.0 && !aggressor_placed {
            cluster
                .place_on(PmId(0), StressKind::Memory.vm(99, 0.5 + 0.5 * intensity))
                .expect("room for the aggressor");
            aggressor_placed = true;
        } else if intensity == 0.0 && aggressor_placed {
            cluster.remove_vm(VmId(99));
            aggressor_placed = false;
        }
        let reports = engine.step(&mut cluster, |_| 0.7);
        let victim = reports
            .iter()
            .find(|r| r.vm_id == VmId(1))
            .expect("victim report");
        points.push(Fig1Point {
            hour,
            throughput_rps: victim.observation.throughput_rps,
            latency_ms: victim.observation.latency_ms,
            interference_active: intensity > 0.0,
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 4 — local metric clusters / Figure 7 — Core i7 port
// ---------------------------------------------------------------------------

/// One point of the Fig. 4 / Fig. 7 metric-space scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPoint {
    /// Experimental setting label.
    pub setting: String,
    /// Normalized metric coordinates (the three plotted axes).
    pub coords: [f64; 3],
    /// Whether interference was injected for this point.
    pub interference: bool,
}

/// Result of a metric-cluster experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricClusters {
    /// All points (interference and non-interference).
    pub points: Vec<MetricPoint>,
    /// Separation score: distance between the group centroids divided by the
    /// summed within-group spread.  Values well above 1 mean the groups are
    /// easily separable, which is the figure's claim.
    pub separation_score: f64,
}

fn behavior_axes(counters: &CounterSnapshot, axes: [usize; 3]) -> [f64; 3] {
    let b = BehaviorVector::from_counters(counters);
    [b.values[axes[0]], b.values[axes[1]], b.values[axes[2]]]
}

fn separation_score(points: &[MetricPoint]) -> f64 {
    let groups: [Vec<&MetricPoint>; 2] = [
        points.iter().filter(|p| !p.interference).collect(),
        points.iter().filter(|p| p.interference).collect(),
    ];
    if groups[0].is_empty() || groups[1].is_empty() {
        return 0.0;
    }
    let centroid = |g: &Vec<&MetricPoint>| -> [f64; 3] {
        let mut c = [0.0; 3];
        for p in g {
            for (cd, &pv) in c.iter_mut().zip(&p.coords) {
                *cd += pv;
            }
        }
        for v in c.iter_mut() {
            *v /= g.len() as f64;
        }
        c
    };
    let spread = |g: &Vec<&MetricPoint>, c: &[f64; 3]| -> f64 {
        if g.len() < 2 {
            return 0.0;
        }
        (g.iter()
            .map(|p| {
                p.coords
                    .iter()
                    .zip(c)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            })
            .sum::<f64>()
            / g.len() as f64)
            .sqrt()
    };
    let (c0, c1) = (centroid(&groups[0]), centroid(&groups[1]));
    let dist = c0
        .iter()
        .zip(&c1)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let denom = spread(&groups[0], &c0) + spread(&groups[1], &c1);
    if denom <= 1e-12 {
        f64::INFINITY
    } else {
        dist / denom
    }
}

/// Builds the workload-configuration variants used as "different experimental
/// settings" in Fig. 4 (load intensities × qualitative knobs).
fn workload_variants(workload: CloudWorkload) -> Vec<(String, Box<dyn Workload>)> {
    let mut variants: Vec<(String, Box<dyn Workload>)> = Vec::new();
    match workload {
        CloudWorkload::DataServing => {
            for &skew in &[0.6, 0.8, 1.0] {
                for &writes in &[0.02, 0.2] {
                    variants.push((
                        format!("skew={skew},writes={writes}"),
                        Box::new(DataServing::new(
                            AppId(1),
                            DataServingConfig {
                                key_popularity_skew: skew,
                                write_fraction: writes,
                                ..DataServingConfig::default()
                            },
                        )),
                    ));
                }
            }
        }
        CloudWorkload::WebSearch => {
            for &skew in &[0.6, 0.8, 1.0] {
                variants.push((
                    format!("word-skew={skew}"),
                    Box::new(WebSearch::new(
                        AppId(2),
                        WebSearchConfig {
                            word_popularity_skew: skew,
                            ..WebSearchConfig::default()
                        },
                    )),
                ));
            }
        }
        CloudWorkload::DataAnalytics => {
            for &remote in &[0.3, 0.6, 0.9] {
                variants.push((
                    format!("remote-fetch={remote}"),
                    Box::new(DataAnalytics::new(
                        AppId(3),
                        workloads::data_analytics::AnalyticsRole::Worker,
                        DataAnalyticsConfig {
                            remote_fetch_fraction: remote,
                            ..DataAnalyticsConfig::default()
                        },
                    )),
                ));
            }
        }
    }
    variants
}

/// Runs the Fig. 4 experiment for one workload on the given machine model,
/// projecting onto the given behaviour-vector axes.
fn metric_cluster_experiment(
    workload: CloudWorkload,
    spec: &MachineSpec,
    axes: [usize; 3],
    seed: u64,
) -> MetricClusters {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut resolver = EpochResolver::new(spec.clone());
    let mut points = Vec::new();
    let loads = [0.3, 0.6, 0.9];
    for (label, mut wl) in workload_variants(workload) {
        for &load in &loads {
            // Warm through one analytics cycle so phase-dependent workloads
            // contribute several distinct-but-normal behaviours.
            for step in 0..3 {
                let demand = wl.next_demand(load, &mut rng);
                if demand.instructions <= 0.0 {
                    continue;
                }
                // Without interference: the VM alone on the machine.
                let solo = resolver.resolve(&[PlacedDemand::new(1, demand.clone(), 2, 0)]);
                points.push(MetricPoint {
                    setting: format!("{label},load={load},step={step}"),
                    coords: behavior_axes(&solo[0].counters, axes),
                    interference: false,
                });
                // With injected memory-stress interference of varying size.
                for &intensity in &[0.5, 1.0] {
                    let ws = 6.0 + intensity * (512.0 - 6.0);
                    let aggressor = ResourceDemand::builder()
                        .instructions(2.5e9)
                        .working_set_mb(ws)
                        .l1_mpki(70.0)
                        .llc_mpki_solo(3.0 + 45.0 * (ws / 128.0).min(1.0))
                        .locality(0.0)
                        .parallelism(2.0)
                        .build();
                    let contended = resolver.resolve(&[
                        PlacedDemand::new(1, demand.clone(), 2, 0),
                        PlacedDemand::new(2, aggressor, 2, 0),
                    ]);
                    points.push(MetricPoint {
                        setting: format!("{label},load={load},step={step},stress={intensity}"),
                        coords: behavior_axes(&contended[0].counters, axes),
                        interference: true,
                    });
                }
            }
        }
    }
    let separation_score = separation_score(&points);
    MetricClusters {
        points,
        separation_score,
    }
}

/// Fig. 4: normalized L1 / L2 / memory-stall metrics for one workload, with
/// and without interference, on the Xeon testbed.
pub fn fig4_metric_clusters(workload: CloudWorkload, seed: u64) -> MetricClusters {
    // Axes: l1_misses_pki (1), llc_lines_in_pki (2), stall_cycles_pki (4).
    metric_cluster_experiment(workload, &MachineSpec::xeon_x5472(), [1, 2, 4], seed)
}

/// Fig. 7: the same separability demonstrated on the Core i7/Nehalem port,
/// using the overall CPI, L3 and QPI axes the paper plots.
pub fn fig7_i7_port(seed: u64) -> MetricClusters {
    // Axes: cpi (0), llc_lines_in_pki (2 — "L3"), bus_outstanding_pki (6 — "QPI").
    metric_cluster_experiment(
        CloudWorkload::DataServing,
        &MachineSpec::core_i7_nehalem(),
        [0, 2, 6],
        seed,
    )
}

// ---------------------------------------------------------------------------
// Figure 5 — global information
// ---------------------------------------------------------------------------

/// One PM's Data Analytics worker in the Fig. 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// Physical machine index.
    pub pm: usize,
    /// Whether an iperf aggressor runs on this PM (ground truth).
    pub interfered: bool,
    /// Mean normalized network-stall metric over the shuffle phase.
    pub net_stalls: f64,
    /// Mean cycles per instruction over the shuffle phase.
    pub cpi: f64,
}

/// Fig. 5: nine PMs run the same Data Analytics workload; iperf aggressors on
/// a subset of PMs make those PMs' metrics deviate from the rest.
pub fn fig5_global_information(interfered_pms: usize, seed: u64) -> Vec<Fig5Point> {
    assert!(interfered_pms <= 9, "at most nine PMs in this experiment");
    let mut cluster = xeon_cluster(9);
    for pm in 0..9u64 {
        let vm = Vm::new(
            VmId(pm + 1),
            Box::new(DataAnalytics::worker(AppId(3))),
            ClientEmulator::new(40.0, 400.0),
        );
        cluster.place_on(PmId(pm), vm).expect("capacity");
        if (pm as usize) < interfered_pms {
            let iperf = Vm::new(
                VmId(100 + pm),
                Box::new(NetworkStress::new(AppId(901), 600.0)),
                ClientEmulator::new(1.0, 1.0),
            );
            cluster.place_on(PmId(pm), iperf).expect("capacity");
        }
    }
    let engine = EpochEngine::serial(ClusterSeed::new(seed));
    // Run a full map/shuffle/reduce cycle and accumulate each worker's
    // behaviour during the shuffle epochs (where network interference can
    // manifest).
    let mut sums = vec![(0.0_f64, 0.0_f64, 0usize); 9];
    for epoch in 0..12 {
        let reports = engine.step(&mut cluster, |_| 0.9);
        // Shuffle epochs for the default config are epochs 6..9 of the cycle.
        if !(6..9).contains(&epoch) {
            continue;
        }
        for r in &reports {
            if r.vm_id.0 >= 100 {
                continue; // skip the aggressors themselves
            }
            let b = BehaviorVector::from_counters(&r.counters);
            let slot = (r.vm_id.0 - 1) as usize;
            sums[slot].0 += b.values[9]; // net stall per GI
            sums[slot].1 += b.values[0]; // cpi
            sums[slot].2 += 1;
        }
    }
    sums.iter()
        .enumerate()
        .map(|(pm, (net, cpi, n))| Fig5Point {
            pm,
            interfered: pm < interfered_pms,
            net_stalls: if *n > 0 { net / *n as f64 } else { 0.0 },
            cpi: if *n > 0 { cpi / *n as f64 } else { 0.0 },
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 6 — CPI-stack breakdown and culprit identification
// ---------------------------------------------------------------------------

/// The three interference scenarios of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Scenario {
    /// Scenario A: last-level-cache interference.
    LastLevelCache,
    /// Scenario B: front-side-bus (memory interconnect) interference.
    FrontSideBus,
    /// Scenario C: I/O interference (disk or network, per workload pairing).
    Io,
}

impl Fig6Scenario {
    /// All scenarios in the paper's order.
    pub const ALL: [Fig6Scenario; 3] = [
        Fig6Scenario::LastLevelCache,
        Fig6Scenario::FrontSideBus,
        Fig6Scenario::Io,
    ];

    /// Scenario label used in the printed output.
    pub fn name(&self) -> &'static str {
        match self {
            Fig6Scenario::LastLevelCache => "Scenario A (LLC)",
            Fig6Scenario::FrontSideBus => "Scenario B (FSB)",
            Fig6Scenario::Io => "Scenario C (I/O)",
        }
    }

    /// The resources the analyzer is expected to blame in this scenario.
    pub fn expected_culprits(&self, workload: CloudWorkload) -> Vec<Resource> {
        match self {
            Fig6Scenario::LastLevelCache => vec![Resource::CacheMemory, Resource::MemoryBus],
            Fig6Scenario::FrontSideBus => vec![Resource::MemoryBus, Resource::CacheMemory],
            Fig6Scenario::Io => match workload {
                CloudWorkload::DataAnalytics => vec![Resource::Network, Resource::Disk],
                _ => vec![Resource::Disk, Resource::Network],
            },
        }
    }

    /// The aggressor VM used to create this scenario for a given victim.
    fn aggressor(&self, workload: CloudWorkload) -> Vm {
        match self {
            // A moderate working set thrashes the shared cache without
            // saturating the bus.
            Fig6Scenario::LastLevelCache => StressKind::Memory.vm(99, 0.06),
            // A huge working set floods the interconnect.
            Fig6Scenario::FrontSideBus => StressKind::Memory.vm(99, 1.0),
            Fig6Scenario::Io => match workload {
                CloudWorkload::DataAnalytics => StressKind::Network.vm(99, 1.0),
                _ => StressKind::Disk.vm(99, 1.0),
            },
        }
    }
}

/// Per-component stalled cycles per instruction, in Fig. 6's four categories.
pub type StackCpi = [f64; 4];

/// Result of one Fig. 6 cell (one workload × one scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Cell {
    /// The victim workload.
    pub workload: &'static str,
    /// The scenario.
    pub scenario: &'static str,
    /// Isolation breakdown: [Core, L2 miss, FSB, Net+Disk] cycles/instr.
    pub isolation: StackCpi,
    /// Production breakdown in the same categories.
    pub production: StackCpi,
    /// The resource the analyzer blames.
    pub culprit: Option<Resource>,
    /// The resources the scenario is expected to implicate.
    pub expected: Vec<Resource>,
}

fn stack_to_fig6(stack: &CpiStack, clock_hz: f64, instructions: f64) -> StackCpi {
    let per = stack.per_instruction(clock_hz, instructions);
    // per is [(Core, v), (CacheMemory, v), (MemoryBus, v), (Disk, v), (Network, v)]
    [per[0].1, per[1].1, per[2].1, per[3].1 + per[4].1]
}

/// Fig. 6: stalled-cycles-per-instruction breakdown in isolation vs
/// production for one workload and scenario, plus the analyzer's culprit.
pub fn fig6_cpi_breakdown(workload: CloudWorkload, scenario: Fig6Scenario, seed: u64) -> Fig6Cell {
    let spec = MachineSpec::xeon_x5472();
    let epochs = 12usize;
    // One engine for both runs: the victim's per-(vm, epoch) streams are
    // identical in isolation and production by construction.
    let engine = EpochEngine::serial(ClusterSeed::new(seed));
    // Isolation run.
    let mut solo = victim_cluster(workload, 1);
    let mut iso_counters = Vec::new();
    for _ in 0..epochs {
        let reports = engine.step(&mut solo, |_| 1.0);
        iso_counters.push(reports[0].counters);
    }
    // Production run with the scenario aggressor.
    let mut prod = victim_cluster(workload, 1);
    prod.place_on(PmId(0), scenario.aggressor(workload))
        .expect("capacity");
    let mut prod_counters = Vec::new();
    for _ in 0..epochs {
        let reports = engine.step(&mut prod, |_| 1.0);
        let victim = reports.iter().find(|r| r.vm_id == VmId(1)).unwrap();
        prod_counters.push(victim.counters);
    }
    let mean = |cs: &[CounterSnapshot]| {
        cs.iter()
            .fold(CounterSnapshot::zero(), |a, c| a.add(c))
            .scale(1.0 / cs.len() as f64)
    };
    let iso_mean = mean(&iso_counters);
    let prod_mean = mean(&prod_counters);
    let iso_stack = CpiStack::from_counters(&iso_mean, &spec);
    let prod_stack = CpiStack::from_counters(&prod_mean, &spec);
    let culprit = CpiStack::dominant_culprit(&prod_stack, &iso_stack).map(|(r, _)| r);
    Fig6Cell {
        workload: workload.name(),
        scenario: scenario.name(),
        isolation: stack_to_fig6(&iso_stack, spec.clock_hz, iso_mean.inst_retired),
        production: stack_to_fig6(&prod_stack, spec.clock_hz, prod_mean.inst_retired),
        culprit,
        expected: scenario.expected_culprits(workload),
    }
}

// ---------------------------------------------------------------------------
// Figure 8 — detection and false-positive rates / Figure 12 — overhead
// ---------------------------------------------------------------------------

/// One day of the Fig. 8 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Day {
    /// Day index (0-based).
    pub day: usize,
    /// Fraction of qualifying interference episodes detected (1.0 = all).
    pub detection_rate: f64,
    /// Fraction of analyzer invocations that were unnecessary (no
    /// interference present).
    pub false_positive_rate: f64,
    /// Number of qualifying interference episodes that day.
    pub episodes: usize,
    /// Number of analyzer invocations that day.
    pub invocations: usize,
}

/// Full result of the trace-driven detection experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// Per-day rates (three days).
    pub days: Vec<Fig8Day>,
    /// Cumulative profiling minutes per hour (DeepDive line of Fig. 12).
    pub cumulative_profiling_minutes: Vec<f64>,
    /// Whether any qualifying episode went completely undetected.
    pub missed_episodes: usize,
}

/// Runs the three-day HotMail-trace experiment for one workload: DeepDive
/// monitors a victim VM while memory-stress episodes from an EC2-style
/// schedule are injected, and we score detections and false positives
/// (Fig. 8) plus the accumulated profiling time (Fig. 12's DeepDive line).
pub fn fig8_detection(workload: CloudWorkload, seed: u64) -> Fig8Result {
    let trace = LoadTrace::diurnal(3, 0.3, 0.9, seed);
    let schedule = InterferenceSchedule::generate(3, 3, 2 * 3_600, 4 * 3_600, seed ^ 0xEC2);
    let mut cluster = victim_cluster(workload, 2);
    let config = DeepDiveConfig {
        analysis_window: 4,
        analysis_cooldown: 2,
        confirmed_cooldown: 6,
        auto_migrate: true,
        synthetic_training_samples: 120,
        performance_threshold: 0.12,
        warning: WarningConfig {
            min_behaviors_for_clustering: 8,
            ..WarningConfig::default()
        },
        ..DeepDiveConfig::default()
    };
    let mut deepdive = DeepDive::for_cluster(config, &cluster);
    let engine = EpochEngine::serial(ClusterSeed::new(seed));

    let hours = 72usize;
    let mut aggressor_placed = false;
    // Per-episode detection bookkeeping: (episode index, detected?).
    let mut episode_detected = vec![false; schedule.episodes.len()];
    // Per-episode client-degradation accumulators: an episode "qualifies" as
    // a performance crisis when its *average* client-reported degradation
    // exceeds 20%, matching how the paper labels crises (§5.1).
    let mut episode_degradation = vec![(0.0_f64, 0usize); schedule.episodes.len()];
    let mut invocations_per_day = [0usize; 3];
    let mut false_positives_per_day = [0usize; 3];
    let mut cumulative_profiling_minutes = Vec::with_capacity(hours);

    for hour in 0..hours {
        let day = hour / 24;
        let t = hour as u64 * 3_600;
        let load = trace.load_at_hour(hour);
        let active_episode = schedule.episodes.iter().position(|e| e.contains(t));
        match active_episode {
            Some(idx) => {
                if !aggressor_placed {
                    let intensity = schedule.episodes[idx].intensity;
                    let victim_home = cluster.locate(VmId(1)).expect("victim is placed");
                    cluster
                        .place_on(
                            victim_home,
                            StressKind::Memory.vm(99, 0.5 + 0.5 * intensity),
                        )
                        .expect("capacity for the aggressor");
                    aggressor_placed = true;
                }
            }
            None => {
                if aggressor_placed {
                    cluster.remove_vm(VmId(99));
                    aggressor_placed = false;
                }
            }
        }
        for _ in 0..EPOCHS_PER_HOUR {
            let reports = engine.step(&mut cluster, |_| load);
            // Ground truth: does the victim suffer >20% client degradation?
            let victim = reports.iter().find(|r| r.vm_id == VmId(1)).unwrap();
            let baseline = victim_baseline_latency(workload);
            let degradation = ((victim.observation.latency_ms - baseline) / baseline).max(0.0);
            if let Some(idx) = active_episode {
                episode_degradation[idx].0 += degradation;
                episode_degradation[idx].1 += 1;
            }
            let events = deepdive.process_epoch(&mut cluster, &reports);
            for event in &events {
                if let EpochEvent::Analyzed { vm, result, .. } = event {
                    if *vm != VmId(1) {
                        continue;
                    }
                    invocations_per_day[day] += 1;
                    match active_episode {
                        Some(idx) if result.interference_confirmed => {
                            episode_detected[idx] = true;
                        }
                        Some(_) => {}
                        None => false_positives_per_day[day] += 1,
                    }
                }
            }
        }
        cumulative_profiling_minutes.push(deepdive.stats().profiling_seconds / 60.0);
    }

    let episode_qualified: Vec<bool> = episode_degradation
        .iter()
        .map(|(sum, n)| *n > 0 && sum / *n as f64 > 0.20)
        .collect();
    let mut days = Vec::with_capacity(3);
    let mut missed = 0usize;
    for day in 0..3usize {
        let day_start = day as u64 * 86_400;
        let day_end = day_start + 86_400;
        let mut qualifying = 0usize;
        let mut detected = 0usize;
        for (idx, e) in schedule.episodes.iter().enumerate() {
            if e.start_s >= day_start && e.start_s < day_end && episode_qualified[idx] {
                qualifying += 1;
                if episode_detected[idx] {
                    detected += 1;
                } else {
                    missed += 1;
                }
            }
        }
        let detection_rate = if qualifying == 0 {
            1.0
        } else {
            detected as f64 / qualifying as f64
        };
        let false_positive_rate = if invocations_per_day[day] == 0 {
            0.0
        } else {
            false_positives_per_day[day] as f64 / invocations_per_day[day] as f64
        };
        days.push(Fig8Day {
            day,
            detection_rate,
            false_positive_rate,
            episodes: qualifying,
            invocations: invocations_per_day[day],
        });
    }
    Fig8Result {
        days,
        cumulative_profiling_minutes,
        missed_episodes: missed,
    }
}

fn victim_baseline_latency(workload: CloudWorkload) -> f64 {
    match workload {
        CloudWorkload::DataServing => 4.0,
        CloudWorkload::WebSearch => 25.0,
        CloudWorkload::DataAnalytics => 400.0,
    }
}

/// One series of the Fig. 12 comparison: cumulative profiling minutes per
/// hour for DeepDive and for the naive baselines that re-profile whenever
/// client-visible performance varies by more than a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Result {
    /// Hour indices (0..72).
    pub hours: Vec<usize>,
    /// DeepDive's cumulative profiling minutes.
    pub deepdive: Vec<f64>,
    /// Baseline-5% cumulative profiling minutes.
    pub baseline_5: Vec<f64>,
    /// Baseline-10% cumulative profiling minutes.
    pub baseline_10: Vec<f64>,
    /// Baseline-20% cumulative profiling minutes.
    pub baseline_20: Vec<f64>,
}

/// Fig. 12: DeepDive's accumulated profiling time against baselines that
/// trigger the analyzer on every performance variation above 5/10/20%.
///
/// The baselines watch the client-visible throughput (which follows the
/// HotMail load trace) and latency; because load changes hourly, they cannot
/// tell workload changes from interference and re-profile constantly.
pub fn fig12_profiling_overhead(seed: u64) -> Fig12Result {
    let workload = CloudWorkload::DataServing;
    let deepdive_run = fig8_detection(workload, seed);
    // Baselines: replay the same trace and count invocations.
    let trace = LoadTrace::diurnal(3, 0.3, 0.9, seed);
    let schedule = InterferenceSchedule::generate(3, 3, 2 * 3_600, 4 * 3_600, seed ^ 0xEC2);
    let per_invocation_minutes = 35.0 / 60.0;
    let thresholds = [0.05, 0.10, 0.20];
    let mut baselines: Vec<Vec<f64>> = (0..3).map(|_| Vec::with_capacity(72)).collect();
    let mut cumulative = [0.0_f64; 3];
    let mut previous_throughput: Option<f64> = None;
    for hour in 0..72usize {
        let t = hour as u64 * 3_600;
        let load = trace.load_at_hour(hour);
        // Client-visible throughput this hour (degraded when an episode is
        // active, mirroring the live run).
        let degradation = if schedule.intensity_at(t) > 0.0 {
            0.35
        } else {
            0.0
        };
        let throughput = 8_000.0 * load * (1.0 - degradation);
        if let Some(prev) = previous_throughput {
            let variation = (throughput - prev).abs() / prev.max(1.0);
            for (b, &threshold) in thresholds.iter().enumerate() {
                if variation > threshold {
                    cumulative[b] += per_invocation_minutes * EPOCHS_PER_HOUR as f64;
                }
            }
        }
        previous_throughput = Some(throughput);
        for b in 0..3 {
            baselines[b].push(cumulative[b]);
        }
    }
    Fig12Result {
        hours: (0..72).collect(),
        deepdive: deepdive_run.cumulative_profiling_minutes,
        baseline_5: baselines[0].clone(),
        baseline_10: baselines[1].clone(),
        baseline_20: baselines[2].clone(),
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — analyzer accuracy
// ---------------------------------------------------------------------------

/// One bar group of Fig. 9: client-reported vs analyzer-estimated slowdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Point {
    /// Stress intensity in `[0, 1]` (maps onto the paper's parameter sweep).
    pub intensity: f64,
    /// Client-reported performance degradation (latency / completion-time
    /// slowdown, as a fraction).
    pub client_reported: f64,
    /// Analyzer-estimated slowdown from counters alone.
    pub estimated: f64,
}

/// Fig. 9: for one workload, sweep the paired stress workload's intensity and
/// compare client-reported degradation with the analyzer's estimate.
pub fn fig9_degradation_accuracy(workload: CloudWorkload, seed: u64) -> Vec<Fig9Point> {
    let stress = workload.paired_stress();
    let analyzer = InterferenceAnalyzer::new(0.05);
    // Counters are interpreted with the sandbox pool's machine model — the
    // Xeon here, matching the victim cluster below.
    let sandbox = Sandbox::xeon_pool(2);
    let window = 8usize;
    let mut points = Vec::new();
    for &intensity in &[0.2, 0.4, 0.6, 0.8, 1.0] {
        let engine = EpochEngine::serial(ClusterSeed::new(seed));
        // Baseline (isolation) run.
        let mut solo = victim_cluster(workload, 1);
        let mut baseline_latency = 0.0;
        for _ in 0..window {
            let reports = engine.step(&mut solo, |_| 1.0);
            baseline_latency += reports[0].observation.latency_ms;
        }
        baseline_latency /= window as f64;

        // Production run with the aggressor: same engine, so the victim
        // draws the same demand stream as in the baseline.
        let mut prod = victim_cluster(workload, 1);
        prod.place_on(PmId(0), stress.vm(99, intensity))
            .expect("capacity");
        let mut demands = Vec::new();
        let mut counters = Vec::new();
        let mut prod_latency = 0.0;
        for _ in 0..window {
            let reports = engine.step(&mut prod, |_| 1.0);
            let victim = reports.iter().find(|r| r.vm_id == VmId(1)).unwrap();
            demands.push(victim.demand.clone());
            counters.push(victim.counters);
            prod_latency += victim.observation.latency_ms;
        }
        prod_latency /= window as f64;

        let client_reported = ((prod_latency - baseline_latency) / baseline_latency).max(0.0);
        let result = analyzer.analyze(VmId(1), &counters, &demands, &sandbox, 2);
        // Convert the instruction-rate degradation into the same slowdown
        // domain the clients report (latency inflation).
        let estimated = if result.degradation >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - result.degradation) - 1.0
        };
        points.push(Fig9Point {
            intensity,
            client_reported,
            estimated,
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 10 — synthetic benchmark accuracy
// ---------------------------------------------------------------------------

/// One bar group of Fig. 10: the degradation suffered by the real VM vs by
/// its synthetic representation under the same interference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Point {
    /// Stress intensity in `[0, 1]`.
    pub intensity: f64,
    /// Degradation of the real VM (fraction of lost work).
    pub real_degradation: f64,
    /// Degradation of the synthetic clone under the same co-location.
    pub synthetic_degradation: f64,
}

/// Fig. 10: how closely the synthetic benchmark's degradation under
/// interference tracks the real VM's.
pub fn fig10_synthetic_accuracy(
    workload: CloudWorkload,
    benchmark: &SyntheticBenchmark,
    seed: u64,
) -> Vec<Fig10Point> {
    let mut resolver = EpochResolver::new(benchmark.spec.clone());
    let stress = workload.paired_stress();
    let mut rng = StdRng::seed_from_u64(seed);
    // Representative demand and behaviour of the real VM at full load.
    let mut wl = workload.workload();
    let demand = wl.next_demand(1.0, &mut rng);
    let solo = resolver.resolve(&[PlacedDemand::new(1, demand.clone(), 2, 0)]);
    let behavior = BehaviorVector::from_counters(&solo[0].counters);
    let clone_demand = benchmark.mimic(&behavior, demand.instructions).demand();
    let clone_solo = resolver.resolve(&[PlacedDemand::new(1, clone_demand.clone(), 2, 0)]);

    let mut points = Vec::new();
    for &intensity in &[0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut stress_wl = match stress {
            StressKind::Memory => StressKind::Memory.vm(99, intensity),
            StressKind::Network => StressKind::Network.vm(99, intensity),
            StressKind::Disk => StressKind::Disk.vm(99, intensity),
        };
        let stress_demand = stress_wl.workload.next_demand(1.0, &mut rng);
        let mut degradation = |victim: &ResourceDemand, baseline: f64| -> f64 {
            let out = resolver.resolve(&[
                PlacedDemand::new(1, victim.clone(), 2, 0),
                PlacedDemand::new(2, stress_demand.clone(), 2, 0),
            ]);
            ((baseline - out[0].achieved_fraction) / baseline).max(0.0)
        };
        points.push(Fig10Point {
            intensity,
            real_degradation: degradation(&demand, solo[0].achieved_fraction),
            synthetic_degradation: degradation(&clone_demand, clone_solo[0].achieved_fraction),
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 11 — placement robustness
// ---------------------------------------------------------------------------

/// Result of the placement-robustness experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Result {
    /// Real interference measured at the destination DeepDive picked.
    pub deepdive_choice: f64,
    /// Real interference at the best possible destination.
    pub best: f64,
    /// Average real interference across all destinations.
    pub average: f64,
    /// Real interference at the worst destination.
    pub worst: f64,
    /// The candidate DeepDive selected.
    pub chosen_pm: Option<PmId>,
}

/// Fig. 11: the placement manager predicts, via the synthetic benchmark,
/// which of three candidate PMs (each running one cloud workload) should
/// receive an aggressive memory-stress VM, and we compare the *real*
/// interference at that choice against the best / average / worst placements.
pub fn fig11_placement_robustness(benchmark: &SyntheticBenchmark, seed: u64) -> Fig11Result {
    let spec = benchmark.spec.clone();
    let mut resolver = EpochResolver::new(spec.clone());
    let manager = PlacementManager::new(1.0);
    let mut rng = StdRng::seed_from_u64(seed);

    // The aggressive VM to place: a large memory-stress kernel.
    let mut aggressor = StressKind::Memory.vm(50, 0.6);
    let aggressor_demand = aggressor.workload.next_demand(1.0, &mut rng);
    let solo = resolver.resolve(&[PlacedDemand::new(1, aggressor_demand.clone(), 2, 0)]);
    let aggressor_behavior = BehaviorVector::from_counters(&solo[0].counters);
    let clone_demand = benchmark
        .mimic(&aggressor_behavior, aggressor_demand.instructions)
        .demand();

    // Three candidates, each running one cloud workload at substantial load.
    let mut resident_demands = Vec::new();
    let mut real_interference = Vec::new();
    for workload in CloudWorkload::ALL.iter() {
        let mut wl = workload.workload();
        let resident_demand = wl.next_demand(0.9, &mut rng);
        let resident_solo =
            resolver.resolve(&[PlacedDemand::new(1, resident_demand.clone(), 2, 0)]);
        // Ground truth: actually co-locate the real aggressor.
        let together = resolver.resolve(&[
            PlacedDemand::new(1, resident_demand.clone(), 2, 0),
            PlacedDemand::new(2, aggressor_demand.clone(), 2, 0),
        ]);
        let real = ((resident_solo[0].achieved_fraction - together[0].achieved_fraction)
            / resident_solo[0].achieved_fraction)
            .max(0.0);
        real_interference.push(real);
        resident_demands.push(resident_demand);
    }

    // DeepDive's prediction-based choice.
    let predictions: Vec<(PmId, f64)> = resident_demands
        .iter()
        .enumerate()
        .map(|(i, resident)| {
            let candidate = CandidateMachine {
                pm_id: PmId(10 + i as u64),
                spec: &spec,
                resident_demands: std::slice::from_ref(resident),
                free_cores: 6,
            };
            let predicted = manager.predict_on_candidate(&clone_demand, 2, &candidate);
            (candidate.pm_id, predicted)
        })
        .collect();
    let chosen_pm = predictions
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite predictions"))
        .map(|(pm, _)| *pm);
    let chosen_idx = chosen_pm.map(|pm| (pm.0 - 10) as usize);

    let best = real_interference
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let worst = real_interference.iter().cloned().fold(0.0, f64::max);
    let average = real_interference.iter().sum::<f64>() / real_interference.len() as f64;
    Fig11Result {
        deepdive_choice: chosen_idx.map(|i| real_interference[i]).unwrap_or(f64::NAN),
        best,
        average,
        worst,
        chosen_pm,
    }
}

// ---------------------------------------------------------------------------
// §5.5 — memory overhead
// ---------------------------------------------------------------------------

/// Behaviour-repository footprint for a VM analyzed once per hour for a day,
/// in bytes (the paper bounds this at 5 KB).
pub fn memory_overhead_bytes_per_vm_day() -> usize {
    use deepdive::repository::BehaviorRepository;
    let mut repo = BehaviorRepository::new();
    let app = AppId(1);
    for hour in 0..24u64 {
        let behavior = BehaviorVector::from_vec(&[hour as f64; deepdive::metrics::DIMENSIONS]);
        repo.record_normal(app, behavior, hour * 3_600);
    }
    repo.footprint_bytes(app)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shows_degradation_only_during_episodes() {
        let points = fig1_ec2_motivation(1);
        assert_eq!(points.len(), 72);
        let quiet: Vec<&Fig1Point> = points.iter().filter(|p| !p.interference_active).collect();
        let noisy: Vec<&Fig1Point> = points.iter().filter(|p| p.interference_active).collect();
        assert!(!quiet.is_empty() && !noisy.is_empty());
        let mean = |ps: &[&Fig1Point], f: fn(&Fig1Point) -> f64| {
            ps.iter().map(|p| f(p)).sum::<f64>() / ps.len() as f64
        };
        assert!(mean(&noisy, |p| p.latency_ms) > mean(&quiet, |p| p.latency_ms));
        assert!(mean(&noisy, |p| p.throughput_rps) < mean(&quiet, |p| p.throughput_rps));
    }

    #[test]
    fn fig4_clusters_are_separable_for_every_workload() {
        for workload in CloudWorkload::ALL {
            let clusters = fig4_metric_clusters(workload, 3);
            assert!(
                clusters.separation_score > 1.0,
                "{} separation score {}",
                workload.name(),
                clusters.separation_score
            );
        }
    }

    #[test]
    fn fig5_interfered_machines_deviate() {
        let points = fig5_global_information(3, 5);
        let interfered: Vec<&Fig5Point> = points.iter().filter(|p| p.interfered).collect();
        let clean: Vec<&Fig5Point> = points.iter().filter(|p| !p.interfered).collect();
        let mean_net =
            |ps: &[&Fig5Point]| ps.iter().map(|p| p.net_stalls).sum::<f64>() / ps.len() as f64;
        assert!(mean_net(&interfered) > 2.0 * mean_net(&clean).max(1e-9));
    }

    #[test]
    fn fig6_culprit_matches_each_scenario() {
        for workload in CloudWorkload::ALL {
            for scenario in Fig6Scenario::ALL {
                let cell = fig6_cpi_breakdown(workload, scenario, 7);
                let culprit = cell.culprit.expect("a culprit must be identified");
                assert!(
                    cell.expected.contains(&culprit),
                    "{} / {}: culprit {:?} not in expected {:?} (iso {:?} prod {:?})",
                    cell.workload,
                    cell.scenario,
                    culprit,
                    cell.expected,
                    cell.isolation,
                    cell.production
                );
            }
        }
    }

    #[test]
    fn fig9_estimates_are_close_to_client_reports() {
        for workload in CloudWorkload::ALL {
            let points = fig9_degradation_accuracy(workload, 11);
            let mean_error = points
                .iter()
                .map(|p| (p.estimated - p.client_reported).abs())
                .sum::<f64>()
                / points.len() as f64;
            assert!(
                mean_error < 0.15,
                "{}: mean |estimate - client| = {mean_error}",
                workload.name()
            );
        }
    }

    #[test]
    fn memory_overhead_stays_under_five_kilobytes() {
        assert!(memory_overhead_bytes_per_vm_day() < 5 * 1024);
    }
}
