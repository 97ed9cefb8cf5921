//! Lifecycle and panic-policy guarantees of the pooled epoch engine.
//!
//! The persistent worker pool behind `ExecutionMode::Pooled` carries three
//! promises beyond bit-identical results (those live in
//! `tests/engine_equivalence.rs`):
//!
//! 1. **Clean shutdown** — dropping a pooled engine joins every worker;
//!    constructing engines in a loop leaks no threads.
//! 2. **Degenerate clusters degrade gracefully** — VM-less and
//!    single-machine clusters step entirely on the calling thread.
//! 3. **Panic containment** — a panicking `load_for` in a shard propagates
//!    its original payload to the caller *after* the shard barrier, leaves the
//!    cluster epoch counter un-advanced, and does **not** poison the pool:
//!    the very next step on the same engine works and stays bit-identical
//!    to serial.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cloudsim::{Cluster, ClusterSeed, EpochEngine, ExecutionMode, Scheduler, Vm, VmId};
use hwsim::MachineSpec;
use workloads::{AppId, ClientEmulator, DataServing};

fn cluster(machines: usize, vms: usize) -> Cluster {
    let mut c = Cluster::homogeneous(machines, MachineSpec::xeon_x5472(), Scheduler::default());
    for i in 0..vms {
        let vm = Vm::new(
            VmId(i as u64),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        );
        c.place_first_fit(vm).expect("cluster has room");
    }
    c
}

#[test]
fn dropping_pooled_engines_joins_all_workers() {
    // Repeated construction must not accumulate threads: every engine's
    // pool exposes a liveness probe that stops upgrading once its workers
    // have exited, which can only happen if drop really joins them.
    let mut probes = Vec::new();
    for round in 0..24 {
        let engine = EpochEngine::new(
            ClusterSeed::new(round),
            ExecutionMode::Pooled { threads: 4 },
        );
        let pool = engine.worker_pool().expect("pooled engine owns a pool");
        assert_eq!(pool.workers(), 3, "4 lanes = 3 workers + calling thread");
        probes.push(pool.liveness());
        let mut c = cluster(6, 10);
        let reports = engine.step(&mut c, |_| 0.6);
        assert_eq!(reports.len(), 10);
    }
    for (round, probe) in probes.iter().enumerate() {
        assert!(
            probe.upgrade().is_none(),
            "engine {round} leaked pool workers after drop"
        );
    }
}

#[test]
fn degenerate_clusters_step_on_the_calling_thread() {
    let engine = EpochEngine::new(ClusterSeed::new(1), ExecutionMode::Pooled { threads: 8 });
    // Empty cluster (machines but no VMs — Cluster rejects zero machines at
    // construction): no reports, epoch still counts.
    let mut empty = cluster(2, 0);
    let reports = engine.step(&mut empty, |_| 0.5);
    assert!(reports.is_empty(), "VM-less step produced reports");
    assert_eq!(empty.epoch(), 1);
    // One machine: serial path, identical to a serial engine's output.
    let serial = EpochEngine::serial(ClusterSeed::new(1));
    let mut single_pooled = cluster(1, 2);
    let mut single_serial = cluster(1, 2);
    for _ in 0..3 {
        assert_eq!(
            engine.step(&mut single_pooled, |_| 0.7),
            serial.step(&mut single_serial, |_| 0.7),
            "single-machine divergence"
        );
    }
}

#[test]
fn shard_panic_propagates_without_poisoning_the_pool() {
    let engine = EpochEngine::new(ClusterSeed::new(7), ExecutionMode::Pooled { threads: 4 });
    let pool_probe = engine
        .worker_pool()
        .expect("pooled engine owns a pool")
        .liveness();

    // A load closure that blows up for one specific VM: some shards finish,
    // the one holding VM 5 panics.
    let mut c = cluster(8, 16);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        engine.step(&mut c, |vm| {
            if vm.0 == 5 {
                panic!("load trace corrupted for vm {}", vm.0);
            }
            0.5
        });
    }));
    let payload = crashed.expect_err("the shard panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .expect("original payload, not a join wrapper");
    assert_eq!(message, "load trace corrupted for vm 5");

    // The failed step must not have advanced the epoch counter, and the
    // pool's workers must all still be alive.
    assert_eq!(c.epoch(), 0, "failed step advanced the epoch");
    assert!(
        pool_probe.upgrade().is_some(),
        "a shard panic killed pool workers"
    );

    // The engine remains fully usable and bit-identical to serial: compare
    // a post-panic run against a fresh serial run over the same horizon.
    // (The panicking call half-stepped some machines' internal workload
    // state, so rebuild the cluster for the comparison.)
    let mut after_panic = cluster(8, 16);
    let mut reference = cluster(8, 16);
    let serial = EpochEngine::serial(ClusterSeed::new(7));
    for _ in 0..3 {
        assert_eq!(
            engine.step(&mut after_panic, |_| 0.5),
            serial.step(&mut reference, |_| 0.5),
            "post-panic pooled stepping diverged from serial"
        );
    }
}

#[test]
fn scatter_map_panic_reraises_the_original_payload_and_keeps_the_pool() {
    use cloudsim::WorkerPool;

    let pool = WorkerPool::new(3);
    let probe = pool.liveness();
    let mut items: Vec<u64> = (0..64).collect();

    // Two tasks panic; the policy re-raises the lowest-index payload after
    // every worker reached the barrier (no worker is still touching the
    // arena when the caller unwinds).
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        pool.scatter_map(&mut items, &|item: &mut u64| {
            if *item == 11 || *item == 40 {
                panic!("map task {item} failed");
            }
            *item * 2
        })
    }));
    let payload = crashed.expect_err("the map panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .expect("original payload, not a join wrapper");
    assert_eq!(message, "map task 11 failed", "lowest index wins");

    // The pool survives and the very next scatter_map works end to end.
    assert!(
        probe.upgrade().is_some(),
        "a map panic killed the pool's workers"
    );
    let doubled = pool.scatter_map(&mut items, &|item: &mut u64| *item * 2);
    assert_eq!(doubled.len(), 64);
    assert!((0..64).all(|i| doubled[i] == i as u64 * 2));
}

#[test]
fn scatter_map_panic_leaks_no_arena_slots() {
    use std::sync::Arc;

    use cloudsim::WorkerPool;

    // Every completed task clones this Arc into its result slot.  If the
    // unwind path forgot to drop initialized slots (or dropped one twice,
    // which would abort), the strong count could never return to 1.
    let token = Arc::new(());
    let pool = WorkerPool::new(3);
    let mut items: Vec<usize> = (0..128).collect();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        pool.scatter_map(&mut items, &|item: &mut usize| {
            if *item == 77 {
                panic!("slot 77");
            }
            Arc::clone(&token)
        })
    }));
    assert!(crashed.is_err(), "the map panic must propagate");
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "unwinding leaked (or double-freed) result slots"
    );

    // A clean pass over the same pool accounts for every slot exactly once.
    let results = pool.scatter_map(&mut items, &|_: &mut usize| Arc::clone(&token));
    assert_eq!(Arc::strong_count(&token), 1 + results.len());
    drop(results);
    assert_eq!(Arc::strong_count(&token), 1);
}
