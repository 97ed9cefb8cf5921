//! A trace-driven datacenter run: diurnal load, episodic interference, and
//! DeepDive managing it end to end.
//!
//! A mixed fleet — three Xeon X5472 machines plus two Core i7/Nehalem nodes
//! (the paper's §4.4 port) — hosts Data Serving, Web Search and Data
//! Analytics VMs.  Client load follows a HotMail-style diurnal trace;
//! EC2-style interference episodes inject a memory-stress aggressor next to
//! a tenant, alternating between the Xeon-hosted Data Serving VM and the
//! i7-hosted Data Analytics worker.  DeepDive's spec-aware sandbox fleet
//! (one pool per machine model, derived from the cluster) routes each
//! analysis to the pool matching the victim's host, so both targets are
//! analyzed without cross-model counter bias; the run ends with a report of
//! detections, false alarms, migrations and the per-pool profiling
//! overhead.  Epochs are stepped by a seeded `EpochEngine`, so every run
//! prints identical numbers.
//!
//! Run with: `cargo run --release --example datacenter_interference`

use cloudsim::{Cluster, ClusterSeed, EpochEngine, PmId, Scheduler, Vm, VmId};
use deepdive::controller::{DeepDive, DeepDiveConfig, EpochEvent};
use hwsim::MachineSpec;
use traces::{InterferenceSchedule, LoadTrace};
use workloads::{AppId, ClientEmulator, DataAnalytics, DataServing, MemoryStress, WebSearch};

const EPOCHS_PER_HOUR: usize = 4;

fn main() {
    // Three Xeon machines (pm-0..2) extended with two Core i7 nodes (pm-3,
    // pm-4): one datacenter generation does not retire when the next lands.
    let mut cluster = Cluster::heterogeneous(
        &[
            (MachineSpec::xeon_x5472(), 3),
            (MachineSpec::core_i7_nehalem(), 2),
        ],
        Scheduler::default(),
    );
    // Tenants: a key-value store, a search node and two analytics workers
    // (the analytics pair lands on the i7 nodes).  The sandbox fleet below
    // is derived from this cluster — one Xeon pool and one i7 pool — so
    // interference episodes can target tenants on either machine model and
    // every analysis replays on hardware matching the victim's host.
    cluster
        .place_on(
            PmId(0),
            Vm::new(
                VmId(1),
                Box::new(DataServing::with_defaults(AppId(1))),
                ClientEmulator::new(8_000.0, 4.0),
            ),
        )
        .unwrap();
    cluster
        .place_on(
            PmId(1),
            Vm::new(
                VmId(2),
                Box::new(WebSearch::with_defaults(AppId(2))),
                ClientEmulator::new(1_200.0, 25.0),
            ),
        )
        .unwrap();
    cluster
        .place_on(
            PmId(3),
            Vm::new(
                VmId(3),
                Box::new(DataAnalytics::worker(AppId(3))),
                ClientEmulator::new(40.0, 400.0),
            ),
        )
        .unwrap();
    cluster
        .place_on(
            PmId(4),
            Vm::new(
                VmId(4),
                Box::new(DataAnalytics::worker(AppId(3))),
                ClientEmulator::new(40.0, 400.0),
            ),
        )
        .unwrap();

    let trace = LoadTrace::diurnal(3, 0.3, 0.9, 7);
    let schedule = InterferenceSchedule::generate(3, 2, 2 * 3_600, 4 * 3_600, 11);
    println!(
        "three-day run on a {}-machine mixed Xeon+i7 fleet, {} interference episodes scheduled, \
         {:.0}% of the time under interference",
        cluster.machines().len(),
        schedule.episodes.len(),
        schedule.coverage() * 100.0
    );

    let config = DeepDiveConfig {
        analysis_window: 4,
        analysis_cooldown: 4,
        ..DeepDiveConfig::default()
    };
    // One sandbox pool per machine model in the cluster, selected by each
    // victim's host spec at analysis time.
    let mut deepdive = DeepDive::for_cluster(config, &cluster);
    println!(
        "sandbox fleet: {} pools ({})",
        deepdive.sandbox_fleet().pools().len(),
        deepdive
            .sandbox_fleet()
            .pools()
            .iter()
            .map(|p| p.spec.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    // One cluster seed drives every VM's demand stream.
    let engine = EpochEngine::serial(ClusterSeed::new(3));

    let mut aggressor_placed = false;
    let mut episodes_seen = 0usize;
    for hour in 0..72usize {
        let t = hour as u64 * 3_600;
        let load = trace.load_at_hour(hour);
        let episode = schedule.active_at(t);
        if episode.is_some() && !aggressor_placed {
            // Episodes alternate targets: the Xeon-hosted Data Serving VM
            // and the i7-hosted Data Analytics worker — the fleet analyzes
            // both without cross-model bias.  The target may have been
            // migrated during a previous episode; chase its current home.
            let target = if episodes_seen.is_multiple_of(2) {
                VmId(1)
            } else {
                VmId(3)
            };
            let home = cluster.locate(target).unwrap();
            if cluster
                .place_on(
                    home,
                    Vm::new(
                        VmId(99),
                        Box::new(MemoryStress::new(AppId(900), 384.0)),
                        ClientEmulator::new(1.0, 1.0),
                    ),
                )
                .is_ok()
            {
                aggressor_placed = true;
                episodes_seen += 1;
                println!(
                    "hour {hour:2}: interference episode begins (aggressor lands on {home}, \
                     next to {target})"
                );
            }
        } else if episode.is_none() && aggressor_placed {
            cluster.remove_vm(VmId(99));
            aggressor_placed = false;
            println!("hour {hour:2}: interference episode ends (aggressor terminated)");
        }
        for _ in 0..EPOCHS_PER_HOUR {
            let reports = engine.step(&mut cluster, |_| load);
            for event in deepdive.process_epoch(&mut cluster, &reports) {
                match event {
                    EpochEvent::Analyzed { vm, result, .. } if result.interference_confirmed => {
                        println!(
                            "hour {hour:2}:   detected interference on {vm} (degradation {:.0}%, culprit {:?})",
                            result.degradation * 100.0,
                            result.culprit.map(|r| r.label())
                        );
                    }
                    EpochEvent::Migrated { vm, from, to, .. } => {
                        println!("hour {hour:2}:   migrated {vm} from {from} to {to}");
                    }
                    _ => {}
                }
            }
        }
    }

    let stats = deepdive.stats();
    println!("\n== three-day summary ==");
    println!("analyzer invocations : {}", stats.analyzer_invocations);
    println!("confirmed detections : {}", stats.interference_confirmed);
    println!("false alarms         : {}", stats.false_alarms);
    println!("global-info matches  : {}", stats.global_matches);
    println!("migrations           : {}", stats.migrations);
    println!(
        "profiling time       : {:.1} min over 3 days",
        stats.profiling_seconds / 60.0
    );
    for (pool, seconds) in deepdive.profiling_seconds_by_pool() {
        println!("  {:32} : {:.1} min", pool, seconds / 60.0);
    }
    println!(
        "cross-model fallbacks: {} (0 = every analysis replayed on its host's model)",
        stats.sandbox_spec_fallbacks
    );
    println!(
        "repository footprint : {} bytes across {} applications",
        deepdive.repository().total_footprint_bytes(),
        deepdive.repository().known_apps().len()
    );
}
