//! Mitigate (§4.3): once interference is confirmed, pick the resident of
//! the afflicted machine that is most aggressive on the culprit resource,
//! predict its interference on every destination that can admit it with
//! the synthetic-benchmark mimic, and migrate it — retrying with backoff
//! when the migration fails transiently or the destination filled up.

use std::collections::BTreeMap;

use cloudsim::cluster::ClusterError;
use cloudsim::pm::{PhysicalMachine, VmEpochReport};
use cloudsim::{Cluster, VmId};
use hwsim::{MachineSpec, ResourceDemand};

use super::{DeepDive, DeepDiveConfig, EpochEvent};
use crate::cpi_stack::Resource;
use crate::epoch_index::EpochIndex;
use crate::placement::{CandidateMachine, PlacementManager, ResidentVm};
use crate::synthetic::SyntheticBenchmark;

/// Retry budget for failed mitigation migrations (transient failures and
/// full destinations back off exponentially, then give up).
const MIGRATION_RETRY_ATTEMPTS: u32 = 3;

/// A mitigation migration parked for a backed-off retry after a transient
/// failure or a full destination.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingMigration {
    /// The interference victim whose episode is being mitigated (the VM to
    /// move is re-decided from fresh reports at retry time).
    victim: VmId,
    culprit: Resource,
    /// Attempts already consumed, the original try included.
    attempts: u32,
    /// Earliest epoch the retry may run.
    next_epoch: u64,
}

impl DeepDive {
    /// Trains the synthetic benchmark for every machine model in `cluster`
    /// up front instead of lazily on the first placement decision per
    /// model.  Already-trained models are kept.
    ///
    /// Training is a pure function of `(spec, samples, seed)`, so eager and
    /// lazy training produce bit-identical benchmarks; pretraining only
    /// moves the cost out of the first mitigation episode.
    pub fn pretrain_benchmarks(&mut self, cluster: &Cluster) {
        for machine in cluster.machines() {
            Self::benchmark_for(&mut self.synthetic, &self.config, machine.spec());
        }
    }

    /// The synthetic benchmark for `spec`'s server type, trained on first
    /// use.  Takes the fields it needs rather than `&mut self` so the
    /// returned borrow leaves the rest of the controller usable.
    fn benchmark_for<'a>(
        synthetic: &'a mut BTreeMap<String, SyntheticBenchmark>,
        config: &DeepDiveConfig,
        spec: &MachineSpec,
    ) -> &'a SyntheticBenchmark {
        synthetic.entry(spec.name.clone()).or_insert_with(|| {
            SyntheticBenchmark::train(spec.clone(), config.synthetic_training_samples, config.seed)
        })
    }

    /// Runs every pending-migration retry whose backoff expired, deciding
    /// the move afresh from this epoch's reports.
    pub(super) fn drain_pending_migrations(
        &mut self,
        cluster: &mut Cluster,
        reports: &[VmEpochReport],
        index: &mut EpochIndex,
        epoch: u64,
    ) -> Vec<EpochEvent> {
        let mut events = Vec::new();
        if self.pending_migrations.is_empty() {
            return events;
        }
        let mut due = Vec::new();
        self.pending_migrations.retain(|pending| {
            if pending.next_epoch <= epoch {
                due.push(*pending);
                false
            } else {
                true
            }
        });
        for pending in due {
            match reports.iter().find(|r| r.vm_id == pending.victim) {
                Some(victim) => events.extend(self.mitigate(
                    cluster,
                    reports,
                    index,
                    victim,
                    pending.culprit,
                    pending.attempts,
                )),
                None => events.push(skipped(
                    pending.victim,
                    "victim stopped reporting before the migration retry",
                )),
            }
        }
        events
    }

    /// Reports that moving `vm` failed for a `reason` worth retrying, then
    /// books a backed-off retry of the victim's episode — or reports the
    /// budget exhausted.  `attempt` counts tries already consumed (the
    /// original included); waits double per attempt (1, 2, 4, … epochs).
    fn schedule_migration_retry(
        &mut self,
        vm: VmId,
        reason: &str,
        victim: &VmEpochReport,
        culprit: Resource,
        attempt: u32,
    ) -> Vec<EpochEvent> {
        let failed = skipped(vm, reason);
        if attempt >= MIGRATION_RETRY_ATTEMPTS {
            let exhausted = skipped(victim.vm_id, "migration retry budget exhausted");
            return vec![failed, exhausted];
        }
        self.stats.migration_retries += 1;
        self.pending_migrations.push(PendingMigration {
            victim: victim.vm_id,
            culprit,
            attempts: attempt + 1,
            next_epoch: victim.epoch + (1u64 << attempt.min(16)),
        });
        vec![failed]
    }

    /// Mitigates confirmed interference on the machine hosting `victim`.
    /// `attempt` is zero on the first try and counts up across
    /// backed-off retries of the same episode.  `index` is this epoch's
    /// index over `reports`; the first mitigation of an epoch groups its
    /// reports by machine.
    pub(super) fn mitigate(
        &mut self,
        cluster: &mut Cluster,
        reports: &[VmEpochReport],
        index: &mut EpochIndex,
        victim: &VmEpochReport,
        culprit: Resource,
        attempt: u32,
    ) -> Vec<EpochEvent> {
        let pm = victim.pm_id;
        let epoch = victim.epoch;
        let index = index.with_machines(reports);
        let by_machine = index.by_machine();
        // Residents of the afflicted machine, from this epoch's reports.
        // An earlier mitigation this epoch may already have moved one of
        // them (bootstrap synchronises cooldowns, so co-located victims
        // confirm together): the reports then describe a machine that no
        // longer exists, and re-deciding from them would pick the departed
        // aggressor again — or, with it filtered out, an innocent tenant.
        let group = by_machine.group(pm);
        if group
            .iter()
            .any(|&at| cluster.locate(reports[at as usize].vm_id) != Some(pm))
        {
            return vec![skipped(
                victim.vm_id,
                "machine membership changed since this epoch's reports",
            )];
        }
        let residents: Vec<ResidentVm> = group
            .iter()
            .map(|&at| {
                let r = &reports[at as usize];
                ResidentVm {
                    vm_id: r.vm_id,
                    counters: r.counters,
                    behavior: index.behaviors[at as usize],
                    demand: r.demand.clone(),
                    vcpus: r.vcpus,
                }
            })
            .collect();
        let aggressor = match PlacementManager::select_aggressor(&residents, culprit) {
            Some(vm) if residents.len() >= 2 => vm,
            _ => return vec![skipped(victim.vm_id, "no co-located VM to migrate away")],
        };
        let moved = aggressor.vm_id;
        // The membership check above placed every resident on `pm`.
        let host = cluster.machine(pm);
        let Some(mover) = host.and_then(|h| h.vms().iter().find(|vm| vm.id == moved)) else {
            return vec![skipped(moved, "the aggressor left its machine")];
        };
        // Candidate destinations: every other machine accepting placements
        // — neither down nor draining, as the cluster's bits say — each
        // with its own hardware model and its residents' latest demands
        // and widths, so predictions run against the destination's actual
        // spec.  Both are copied out once in machine-group order — parallel
        // to the index's member list — so every candidate's residents are
        // one slice.
        let members = by_machine.members();
        let demands: Vec<ResourceDemand> = members
            .iter()
            .map(|&at| reports[at as usize].demand.clone())
            .collect();
        let widths: Vec<usize> = members
            .iter()
            .map(|&at| reports[at as usize].vcpus)
            .collect();
        let open = |m: &PhysicalMachine| {
            m.id != pm && !cluster.machine_down(m.id) && !cluster.machine_draining(m.id)
        };
        if !cluster.machines().iter().any(open) {
            return vec![skipped(victim.vm_id, "no candidate destination machine")];
        }
        // Only machines whose scheduler admits the aggressor are candidates:
        // the same check `migrate` makes, cores and memory both.
        let candidates: Vec<CandidateMachine> = cluster
            .machines()
            .iter()
            .filter(|m| open(m))
            .filter(|m| m.scheduler().admits(m.spec(), m.vms(), mover))
            .map(|m| {
                let span = by_machine.span(m.id);
                CandidateMachine {
                    pm_id: m.id,
                    spec: m.spec(),
                    resident_demands: &demands[span.clone()],
                    resident_vcpus: &widths[span],
                }
            })
            .collect();

        // Train the synthetic benchmark lazily, once per server type: the
        // mimic inverts behaviours observed on the afflicted machine, so it
        // is trained on that machine's model (use `pretrain_benchmarks` to
        // move this cost out of the episode entirely).  Reports come from
        // machines in `cluster`, so the fallback to the fleet's first pool
        // model is belt-and-braces.
        let host_spec = host.map_or(&self.fleet.pools()[0].spec, |m| m.spec());
        let benchmark = Self::benchmark_for(&mut self.synthetic, &self.config, host_spec);

        let decision = self.placement.decide(aggressor, pm, &candidates, benchmark);
        let Some(destination) = decision else {
            return vec![skipped(
                moved,
                "every candidate destination would interfere too much",
            )];
        };
        // A transiently failing migration (the fault plane's per-(vm, epoch)
        // stream) is retried with backoff, like a full destination — never
        // silently dropped.
        let transient_failure = self
            .fault_plane
            .is_some_and(|plane| plane.migration_fails(moved, epoch));
        let retry_reason = if transient_failure {
            "transient migration failure"
        } else {
            match cluster.migrate(moved, destination) {
                Ok(()) => {
                    self.stats.migrations += 1;
                    return vec![EpochEvent::Migrated {
                        vm: moved,
                        from: pm,
                        to: destination,
                        culprit,
                    }];
                }
                Err(ClusterError::NoCapacity { .. }) => "destination ran out of capacity",
                Err(e) => return vec![skipped(moved, &e.to_string())],
            }
        };
        self.schedule_migration_retry(moved, retry_reason, victim, culprit, attempt)
    }
}

/// The event for a migration that was recommended but did not happen.
fn skipped(vm: VmId, reason: &str) -> EpochEvent {
    EpochEvent::MigrationSkipped {
        vm,
        reason: reason.to_string(),
    }
}
