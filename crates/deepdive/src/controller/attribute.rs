//! Attribute (§4.2, Algorithm 2): a warning the warning system could not
//! explain replays the VM's recorded window on the sandbox pool matching
//! its host, compares production with isolation, teaches the repository
//! whatever the run verified, and hands confirmed interference to
//! mitigation.  Whether the analysis runs at all — the per-VM cooldown and
//! the deferral that waits out a sandbox-pool outage — is the VM's phase,
//! which `records.rs` steps; this file routes and acts on the outcome.
//!
//! On heterogeneous clusters the controller holds a [`SandboxFleet`] — one
//! sandbox pool per machine model — and routes every analysis to the pool
//! matching the victim's host, so isolation counters are never compared
//! across machine models.  Profiling time is accounted both in total and
//! per pool ([`DeepDive::profiling_seconds_by_pool`], the per-farm load of
//! the Figs. 12–14 queueing picture), and analyses that had to fall back to
//! a mismatched pool are counted in
//! [`DeepDiveStats::sandbox_spec_fallbacks`](super::DeepDiveStats).  Build
//! the controller with [`DeepDive::for_cluster`] to derive the fleet from
//! the cluster's actual machine models.

use cloudsim::pm::VmEpochReport;
use cloudsim::{Cluster, SandboxFleet};
use hwsim::{CounterSnapshot, ResourceDemand};

use super::records::{Event, Outcome, Ring};
use super::{DeepDive, EpochEvent};
use crate::analyzer::AnalysisResult;
use crate::epoch_index::EpochIndex;
use crate::warning::WarningDecision;

impl DeepDive {
    /// The sandbox fleet backing the analyzer.
    pub fn sandbox_fleet(&self) -> &SandboxFleet {
        &self.fleet
    }

    /// Profiling seconds consumed per sandbox pool, as `(machine model,
    /// seconds)` in pool order.  The sum equals
    /// [`DeepDiveStats::profiling_seconds`](super::DeepDiveStats); the split
    /// is what sizes each per-model profiling farm in the Figs. 12–14
    /// queueing picture.
    pub fn profiling_seconds_by_pool(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.fleet
            .pools()
            .iter()
            .zip(&self.profiling_by_pool)
            .map(|(pool, &seconds)| (pool.spec.name.as_str(), seconds))
    }

    /// Handles one warning the warning system escalated (`trigger` is
    /// `SuspectInterference` or `Bootstrap`): pool routing, the phase's
    /// verdict on it, analysis, and — when interference is confirmed and
    /// `auto_migrate` is on — mitigation.  `ring` is the VM's window as
    /// `process_epoch` left it after writing this epoch's row.  Returns the
    /// events produced.
    pub(super) fn attribute(
        &mut self,
        cluster: &mut Cluster,
        reports: &[VmEpochReport],
        index: &mut EpochIndex,
        report: &VmEpochReport,
        ring: Ring,
        trigger: WarningDecision,
    ) -> Vec<EpochEvent> {
        let vm = report.vm_id;
        let epoch = report.epoch;
        // Route the analysis to the sandbox pool matching the victim's host
        // model — once: the outage check, the replay and the per-pool
        // accounting all use this index.  Reports come from machines in
        // `cluster`, so the first-pool fallback is belt-and-braces; a fleet
        // with no pool for the host's model answers `matched == false`.
        let (pool_idx, matched) = cluster
            .machine(report.pm_id)
            .map_or((0, true), |host| self.fleet.select_index(host.spec()));
        let pool_up = !self
            .fault_plane
            .is_some_and(|plane| plane.sandbox_down(pool_idx, epoch));
        // A downed pool is waited for rather than replayed against the
        // wrong hardware, and past the deadline the warning degrades to a
        // warning-only decision rather than panic or analyze blind.
        let escalation = Event::Escalation { epoch, pool_up };
        match self.vms.step(ring, escalation, &self.config) {
            Outcome::Analyze => {}
            Outcome::Skip | Outcome::Wait => return Vec::new(),
            Outcome::Defer { deadline } => {
                self.stats.analyses_deferred += 1;
                return vec![EpochEvent::AnalysisDeferred { vm, deadline }];
            }
            Outcome::Degrade => {
                self.stats.degraded_decisions += 1;
                return vec![EpochEvent::AnalysisDegraded { vm }];
            }
        }
        let (counters, replay): (Vec<CounterSnapshot>, Vec<ResourceDemand>) =
            self.vms.window(ring).cloned().unzip();
        // The clone runs as wide as the VM.
        let result = self.run_analysis(report, pool_idx, matched, &counters, &replay);
        let confirmed = result.interference_confirmed;
        let verdict = Event::Verdict { epoch, confirmed };
        self.vms.step(ring, verdict, &self.config);
        let mitigation = match result.culprit {
            Some(culprit) if confirmed && self.config.auto_migrate => {
                self.mitigate(cluster, reports, index, report, culprit, 0)
            }
            _ => Vec::new(),
        };
        let mut events = vec![EpochEvent::Analyzed {
            vm,
            trigger,
            result,
        }];
        events.extend(mitigation);
        events
    }

    /// Runs the interference analyzer for `report`'s VM, at its own width,
    /// in sandbox pool `pool_idx` — `counters` in production against
    /// `replay` in isolation, the two halves of the VM's window — and
    /// updates the repository.
    fn run_analysis(
        &mut self,
        report: &VmEpochReport,
        pool_idx: usize,
        matched: bool,
        counters: &[CounterSnapshot],
        replay: &[ResourceDemand],
    ) -> AnalysisResult {
        self.stats.analyzer_invocations += 1;
        if !matched {
            // Cross-model replay: the estimate is biased (the old
            // single-pool behaviour on mixed fleets); surface it in stats.
            self.stats.sandbox_spec_fallbacks += 1;
        }
        let result = self.analyzer.analyze(
            report.vm_id,
            counters,
            replay,
            &self.fleet.pools()[pool_idx],
            report.vcpus,
        );
        self.stats.profiling_seconds += result.profiling_seconds;
        self.profiling_by_pool[pool_idx] += result.profiling_seconds;
        // Every isolation epoch is a verified normal behaviour — the set S
        // the analyzer hands the warning system (§4.1).
        for behavior in &result.isolation_behaviors {
            self.repository
                .record_normal(report.app, *behavior, report.epoch);
        }
        if result.interference_confirmed {
            self.stats.interference_confirmed += 1;
            self.repository.record_interference(
                report.app,
                result.production_behavior,
                report.epoch,
            );
        } else {
            self.stats.false_alarms += 1;
            // A false alarm means the production behaviour is genuinely
            // normal (e.g. a workload change): learn it.
            self.repository
                .record_normal(report.app, result.production_behavior, report.epoch);
        }
        result
    }
}
