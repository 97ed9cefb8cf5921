//! Quickstart: detect and attribute interference between two co-located VMs.
//!
//! A Data Serving VM runs alone on a simulated Xeon server while DeepDive
//! learns its normal behaviour; a cache-thrashing aggressor then lands on the
//! same machine, DeepDive's warning system notices the unexplained deviation,
//! the analyzer confirms interference and pinpoints the culprit resource, and
//! the placement manager migrates the aggressor to an idle machine.
//!
//! Run with: `cargo run --example quickstart`

use cloudsim::{Cluster, ClusterSeed, EpochEngine, PmId, Scheduler, Vm, VmId};
use deepdive::controller::{DeepDive, DeepDiveConfig, EpochEvent};
use hwsim::MachineSpec;
use workloads::{AppId, ClientEmulator, DataServing, MemoryStress};

fn main() {
    // A tiny cloud: two Xeon X5472 machines, one Data Serving tenant.
    let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
    cluster
        .place_on(
            PmId(0),
            Vm::new(
                VmId(1),
                Box::new(DataServing::with_defaults(AppId(1))),
                ClientEmulator::new(8_000.0, 4.0),
            ),
        )
        .expect("machine 0 is empty");

    // The sandbox fleet is derived from the cluster: one pool per machine
    // model present (a single Xeon pool here).  On a mixed-hardware cluster
    // the same constructor adds a pool per model and routes each analysis
    // to the pool matching the victim's host.
    let mut deepdive = DeepDive::for_cluster(DeepDiveConfig::default(), &cluster);
    // One cluster seed drives every VM's demand stream; serial stepping is
    // plenty for two machines (Pooled mode would be bit-identical anyway).
    let engine = EpochEngine::serial(ClusterSeed::new(42));

    println!("== phase 1: learning normal behaviour (no interference) ==");
    for epoch in 0..50 {
        let reports = engine.step(&mut cluster, |_| 0.8);
        let events = deepdive.process_epoch(&mut cluster, &reports);
        for event in events {
            if let EpochEvent::Analyzed { vm, result, .. } = event {
                println!(
                    "epoch {epoch:3}: analyzer ran for {vm} -> degradation {:.1}% ({})",
                    result.degradation * 100.0,
                    if result.interference_confirmed {
                        "interference"
                    } else {
                        "normal"
                    }
                );
            }
        }
    }
    println!(
        "learned {} normal behaviours for the application; analyzer ran {} times\n",
        deepdive.repository().normal_count(AppId(1)),
        deepdive.stats().analyzer_invocations
    );

    println!("== phase 2: a cache-thrashing aggressor lands on the same machine ==");
    cluster
        .place_on(
            PmId(0),
            Vm::new(
                VmId(99),
                Box::new(MemoryStress::new(AppId(900), 512.0)),
                ClientEmulator::new(1.0, 1.0),
            ),
        )
        .expect("machine 0 still has two free cores");

    for epoch in 50..100 {
        let reports = engine.step(&mut cluster, |_| 0.8);
        let victim = reports.iter().find(|r| r.vm_id == VmId(1)).unwrap();
        let events = deepdive.process_epoch(&mut cluster, &reports);
        for event in events {
            match event {
                EpochEvent::Analyzed { vm, result, .. } if result.interference_confirmed => {
                    println!(
                        "epoch {epoch:3}: CONFIRMED interference on {vm}: degradation {:.1}%, culprit {:?} \
                         (victim latency this epoch: {:.1} ms)",
                        result.degradation * 100.0,
                        result.culprit.map(|r| r.label()),
                        victim.observation.latency_ms
                    );
                }
                EpochEvent::Migrated {
                    vm,
                    from,
                    to,
                    culprit,
                } => {
                    println!(
                        "epoch {epoch:3}: migrated {vm} from {from} to {to} to relieve the {} pressure",
                        culprit.label()
                    );
                }
                _ => {}
            }
        }
    }

    let stats = deepdive.stats();
    println!("\n== summary ==");
    println!("analyzer invocations : {}", stats.analyzer_invocations);
    println!("confirmed detections : {}", stats.interference_confirmed);
    println!("false alarms         : {}", stats.false_alarms);
    println!("migrations           : {}", stats.migrations);
    println!(
        "profiling time       : {:.1} min",
        stats.profiling_seconds / 60.0
    );
    println!(
        "aggressor now on     : {:?}",
        cluster.locate(VmId(99)).map(|pm| pm.to_string())
    );
}
