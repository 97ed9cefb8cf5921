//! The warning system (§4.1, Algorithm 1).
//!
//! The warning system is DeepDive's cheap, always-on first line: every epoch
//! it reads each VM's normalized behaviour and decides between three
//! outcomes that mirror Figure 3 of the paper:
//!
//! * the behaviour falls inside a learned *normal* cluster — no action
//!   (Fig. 3a);
//! * the behaviour is new, but most other VMs running the same application
//!   moved the same way at the same time — a workload change, extend the
//!   set of normal behaviours and do not escalate (Fig. 3b);
//! * the behaviour is far from both — suspect interference and invoke the
//!   analyzer (Fig. 3c).
//!
//! Clusters and per-metric thresholds `MT` come from the constrained EM fit
//! in the `analytics` crate, re-fit whenever the repository gains new
//! verified behaviours.  Before any verified behaviour exists the system
//! runs in the paper's *conservative mode*: everything escalates, which
//! bootstraps learning and guarantees no interference goes undetected.
//!
//! ## Incremental refresh
//!
//! [`WarningSystem::refresh_model`] is built to be called every epoch for
//! every application and still cost nothing in the steady state:
//!
//! * the repository keeps a per-application **generation counter**, so an
//!   unchanged repository short-circuits the refresh in O(1) — no clone, no
//!   labelled-point extraction, no fit;
//! * when the repository *did* grow, the refit is **warm-started** from the
//!   previous model's mixture components
//!   ([`analytics::constrained::fit_constrained_warm`]), converging in a
//!   handful of EM iterations instead of a full from-scratch fit;
//! * every [`WarningConfig::cold_refit_interval`]-th refit of an
//!   application's model falls back to a full k-means++-seeded cold fit, so
//!   warm-start drift cannot accumulate indefinitely.

use std::collections::HashMap;

use analytics::constrained::{fit_constrained, fit_constrained_warm, ConstrainedModel};
use workloads::AppId;

use crate::metrics::BehaviorVector;
use crate::repository::BehaviorRepository;

/// EM iteration budget for warm-started refits.  Warm starts resume from the
/// previous local optimum, so a handful of iterations suffices (cold fits
/// budget 100).
const WARM_REFIT_ITERS: usize = 10;

/// Outcome of the warning system's per-epoch check for one VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarningDecision {
    /// Behaviour matches a learned normal cluster (Fig. 3a).
    NormalLocal,
    /// Behaviour is new but shared by most peers running the same code —
    /// treated as a workload change (Fig. 3b).
    NormalGlobal,
    /// Behaviour is unexplained: invoke the interference analyzer (Fig. 3c).
    SuspectInterference,
    /// No knowledge about this application yet: conservative mode, invoke the
    /// analyzer to start learning.
    Bootstrap,
}

/// Mixture components fitted per application.
const CLUSTERS_PER_APP: usize = 3;
/// σ-multiplier used to derive the metric thresholds `MT`.
const SIGMA_MULTIPLIER: f64 = 3.0;
/// Fraction of peers that must exhibit the same new behaviour for the
/// global check to call it a workload change.
const GLOBAL_QUORUM: f64 = 0.6;
/// Maximum relative deviation between a VM's behaviour and a peer's for
/// them to count as "behaving similarly".
const GLOBAL_SIMILARITY: f64 = 0.25;

/// Configuration of the warning system.
#[derive(Debug, Clone, PartialEq)]
pub struct WarningConfig {
    /// Minimum number of verified normal behaviours before leaving
    /// conservative mode.
    pub min_behaviors_for_clustering: usize,
    /// Seed for the clustering initialization.
    pub seed: u64,
    /// Refits per application between full cold refits: after
    /// `cold_refit_interval - 1` consecutive warm-started refits the next
    /// one re-fits from a fresh k-means++ initialization, bounding how far
    /// warm-start drift can accumulate.  `1` (or `0`) disables warm starts
    /// entirely — every refit is cold, the pre-incremental behaviour.
    pub cold_refit_interval: u64,
}

impl Default for WarningConfig {
    fn default() -> Self {
        Self {
            min_behaviors_for_clustering: 8,
            seed: 0xDEE9_D1DE,
            cold_refit_interval: 32,
        }
    }
}

/// One application's fitted model plus the bookkeeping that drives the
/// incremental refresh.
#[derive(Debug)]
struct AppModel {
    model: ConstrainedModel,
    /// Repository generation the model was fitted at; an equal generation
    /// means the model is current and the refresh is a no-op.
    generation: u64,
    /// Consecutive warm-started refits since the last cold fit.
    warm_refits_since_cold: u64,
}

/// The warning system: per-application cluster models plus the decision
/// procedure of Algorithm 1.
#[derive(Debug)]
pub struct WarningSystem {
    config: WarningConfig,
    models: HashMap<u64, AppModel>,
    /// Reused labelled-point buffer for refits (the only refresh scratch).
    labelled_scratch: Vec<analytics::constrained::LabelledBehaviour>,
    /// Full from-scratch fits performed (bookkeeping for tests/benches).
    cold_refits: u64,
    /// Warm-started fits performed.
    warm_refits: u64,
}

impl WarningSystem {
    /// Creates a warning system with the given configuration.
    pub fn new(config: WarningConfig) -> Self {
        Self {
            config,
            models: HashMap::new(),
            labelled_scratch: Vec::new(),
            cold_refits: 0,
            warm_refits: 0,
        }
    }

    /// Creates a warning system with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(WarningConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &WarningConfig {
        &self.config
    }

    /// Re-fits the cluster model for an application from the repository if
    /// the repository has changed since the last fit.
    ///
    /// O(1) when the application's repository generation is unchanged (the
    /// steady-state epoch path — no clone, no refit).  When the repository
    /// did change, the refit is warm-started from the previous model, with a
    /// full cold refit every [`WarningConfig::cold_refit_interval`] refits to
    /// bound warm-start drift.  The generation check also means churn in a
    /// repository that is *at capacity* (length constant, contents rotating)
    /// correctly triggers refits — the pre-generation length check went
    /// permanently stale there.
    pub fn refresh_model(&mut self, app: AppId, repository: &BehaviorRepository) {
        let behaviors = repository.behaviors(app);
        if behaviors.len() < self.config.min_behaviors_for_clustering {
            self.models.remove(&app.0);
            return;
        }
        let generation = behaviors.generation();
        if self
            .models
            .get(&app.0)
            .is_some_and(|m| m.generation == generation)
        {
            return; // Model is current: O(1) refresh.
        }
        behaviors.labelled_into(&mut self.labelled_scratch);
        let warm_source = self.models.get(&app.0).filter(|m| {
            m.warm_refits_since_cold + 1 < self.config.cold_refit_interval
                && m.model.mixture.k() > 0
        });
        let (model, warm_refits_since_cold) = match warm_source {
            Some(prev) => (
                fit_constrained_warm(
                    &self.labelled_scratch,
                    &prev.model.mixture,
                    SIGMA_MULTIPLIER,
                    WARM_REFIT_ITERS,
                ),
                prev.warm_refits_since_cold + 1,
            ),
            None => (
                fit_constrained(
                    &self.labelled_scratch,
                    CLUSTERS_PER_APP,
                    SIGMA_MULTIPLIER,
                    self.config.seed ^ app.0,
                ),
                0,
            ),
        };
        if warm_refits_since_cold == 0 {
            self.cold_refits += 1;
        } else {
            self.warm_refits += 1;
        }
        self.models.insert(
            app.0,
            AppModel {
                model,
                generation,
                warm_refits_since_cold,
            },
        );
    }

    /// `(cold, warm)` refit counts since construction — lets tests and
    /// benches verify that unchanged generations perform no work and that
    /// the warm/cold cadence follows the configured interval.
    pub fn refit_counts(&self) -> (u64, u64) {
        (self.cold_refits, self.warm_refits)
    }

    /// True when the application is still in conservative (bootstrap) mode.
    pub fn in_conservative_mode(&self, app: AppId) -> bool {
        !self.models.contains_key(&app.0)
    }

    /// Algorithm 1: classifies one VM's current behaviour.
    ///
    /// * `behavior` — the VM's normalized behaviour this epoch.
    /// * `peers` — the current behaviours of *other* VMs running the same
    ///   application (across all PMs), used for the global check.
    ///
    /// As in the paper, peers are consulted only after the local check has
    /// failed: `peers` is not turned into an iterator, let alone pulled
    /// from, for a `Bootstrap` or `NormalLocal` decision, so a caller can
    /// hand in a lazy view over a large application group at no cost.
    pub fn evaluate<'a>(
        &self,
        app: AppId,
        behavior: &BehaviorVector,
        peers: impl IntoIterator<Item = &'a BehaviorVector>,
    ) -> WarningDecision {
        let Some(state) = self.models.get(&app.0) else {
            return WarningDecision::Bootstrap;
        };
        // Local check: does the behaviour match a learned normal cluster
        // within the per-metric thresholds MT?
        if state.model.accepts(&behavior.values) {
            return WarningDecision::NormalLocal;
        }
        // Global check: are most peers deviating in the same way right now?
        let (mut total, mut similar) = (0usize, 0usize);
        for peer in peers {
            total += 1;
            if behavior.max_relative_deviation(peer) <= GLOBAL_SIMILARITY {
                similar += 1;
            }
        }
        if total > 0 {
            let quorum = (total as f64 * GLOBAL_QUORUM).ceil() as usize;
            if similar >= quorum.max(1) {
                return WarningDecision::NormalGlobal;
            }
        }
        WarningDecision::SuspectInterference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DIMENSIONS;

    fn behavior(cpi: f64, llc: f64) -> BehaviorVector {
        let mut v = vec![0.5; DIMENSIONS];
        v[0] = cpi;
        v[2] = llc;
        BehaviorVector::from_vec(&v)
    }

    /// Repository with a tight cluster of normal behaviours around
    /// (cpi=1.5, llc=0.5) and one labelled interference point far away.
    fn trained_repository(app: AppId) -> BehaviorRepository {
        let mut repo = BehaviorRepository::new();
        for i in 0..20 {
            let jitter = (i % 5) as f64 * 0.01;
            repo.record_normal(app, behavior(1.5 + jitter, 0.5 + jitter), i);
        }
        repo.record_interference(app, behavior(4.0, 6.0), 99);
        repo
    }

    #[test]
    fn unknown_app_starts_in_conservative_mode() {
        let ws = WarningSystem::with_defaults();
        let d = ws.evaluate(AppId(1), &behavior(1.5, 0.5), &[]);
        assert_eq!(d, WarningDecision::Bootstrap);
        assert!(ws.in_conservative_mode(AppId(1)));
    }

    #[test]
    fn learned_behaviour_is_accepted_locally() {
        let app = AppId(1);
        let repo = trained_repository(app);
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        assert!(!ws.in_conservative_mode(app));
        let d = ws.evaluate(app, &behavior(1.51, 0.52), &[]);
        assert_eq!(d, WarningDecision::NormalLocal);
    }

    #[test]
    fn interference_like_behaviour_is_escalated() {
        let app = AppId(1);
        let repo = trained_repository(app);
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        let d = ws.evaluate(app, &behavior(4.0, 6.0), &[]);
        assert_eq!(d, WarningDecision::SuspectInterference);
    }

    #[test]
    fn global_quorum_downgrades_shared_deviations_to_workload_change() {
        let app = AppId(1);
        let repo = trained_repository(app);
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        // A new behaviour well outside the learned clusters...
        let new_behavior = behavior(2.6, 1.8);
        // ...but most peers look exactly the same right now (a request-mix
        // change hitting every instance of the application).
        let peers = vec![
            behavior(2.62, 1.81),
            behavior(2.58, 1.79),
            behavior(2.61, 1.8),
        ];
        assert_eq!(
            ws.evaluate(app, &new_behavior, &peers),
            WarningDecision::NormalGlobal
        );
        // If only a minority of peers deviates the same way, it is suspicious.
        let minority = vec![behavior(2.6, 1.8), behavior(1.5, 0.5), behavior(1.5, 0.5)];
        assert_eq!(
            ws.evaluate(app, &new_behavior, &minority),
            WarningDecision::SuspectInterference
        );
    }

    /// A peer view that counts how many behaviours `evaluate` pulled.
    fn counted<'a>(
        peers: &'a [BehaviorVector],
        pulls: &'a std::cell::Cell<usize>,
    ) -> impl Iterator<Item = &'a BehaviorVector> {
        peers.iter().inspect(|_| pulls.set(pulls.get() + 1))
    }

    #[test]
    fn peers_are_pulled_only_after_a_local_miss() {
        let app = AppId(1);
        let repo = trained_repository(app);
        let mut ws = WarningSystem::with_defaults();
        let peers = vec![
            behavior(2.62, 1.81),
            behavior(2.58, 1.79),
            behavior(1.5, 0.5),
        ];
        let pulls = std::cell::Cell::new(0);

        // No model yet: Bootstrap without looking at anybody.
        let d = ws.evaluate(app, &behavior(2.6, 1.8), counted(&peers, &pulls));
        assert_eq!((d, pulls.get()), (WarningDecision::Bootstrap, 0));

        ws.refresh_model(app, &repo);
        // The local check passes: still nobody consulted.
        let d = ws.evaluate(app, &behavior(1.51, 0.52), counted(&peers, &pulls));
        assert_eq!((d, pulls.get()), (WarningDecision::NormalLocal, 0));

        // A local miss reads every peer exactly once, quorum or not.
        let d = ws.evaluate(app, &behavior(2.6, 1.8), counted(&peers, &pulls));
        assert_eq!(
            (d, pulls.get()),
            (WarningDecision::NormalGlobal, peers.len())
        );
        pulls.set(0);
        let d = ws.evaluate(app, &behavior(4.0, 6.0), counted(&peers, &pulls));
        assert_eq!(
            (d, pulls.get()),
            (WarningDecision::SuspectInterference, peers.len())
        );
    }

    #[test]
    fn a_peer_iterator_decides_like_a_peer_slice() {
        let app = AppId(1);
        let repo = trained_repository(app);
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        let new_behavior = behavior(2.6, 1.8);
        let quorum = vec![
            behavior(2.62, 1.81),
            behavior(2.58, 1.79),
            behavior(2.61, 1.8),
        ];
        let minority = vec![behavior(2.6, 1.8), behavior(1.5, 0.5), behavior(1.5, 0.5)];
        let cases = [
            (&quorum, WarningDecision::NormalGlobal),
            (&minority, WarningDecision::SuspectInterference),
            (&Vec::new(), WarningDecision::SuspectInterference),
        ];
        for (peers, expected) in cases {
            assert_eq!(ws.evaluate(app, &new_behavior, peers), expected);
            // The same peers as a filtered, mapped view over a larger
            // group — the shape the controller hands in.
            let padded: Vec<(bool, BehaviorVector)> = std::iter::once((false, new_behavior))
                .chain(peers.iter().map(|p| (true, *p)))
                .collect();
            let view = padded.iter().filter(|(keep, _)| *keep).map(|(_, p)| p);
            assert_eq!(ws.evaluate(app, &new_behavior, view), expected);
        }
    }

    #[test]
    fn refresh_is_a_no_op_until_new_data_arrives() {
        let app = AppId(1);
        let repo = trained_repository(app);
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        let before = ws.refit_counts();
        ws.refresh_model(app, &repo);
        assert_eq!(ws.refit_counts(), before);
        assert!(!ws.in_conservative_mode(app));
    }

    #[test]
    fn unchanged_generation_performs_no_refit() {
        let app = AppId(1);
        let mut repo = trained_repository(app);
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        assert_eq!(ws.refit_counts(), (1, 0), "first refresh is a cold fit");
        // Any number of refreshes against an unchanged repository is free.
        for _ in 0..100 {
            ws.refresh_model(app, &repo);
        }
        assert_eq!(ws.refit_counts(), (1, 0), "unchanged generation refitted");
        // New data ⇒ exactly one (warm) refit.
        repo.record_normal(app, behavior(1.52, 0.51), 100);
        ws.refresh_model(app, &repo);
        ws.refresh_model(app, &repo);
        assert_eq!(ws.refit_counts(), (1, 1));
    }

    #[test]
    fn cold_refit_interval_bounds_consecutive_warm_refits() {
        let app = AppId(1);
        let mut repo = trained_repository(app);
        let mut ws = WarningSystem::new(WarningConfig {
            cold_refit_interval: 4,
            ..Default::default()
        });
        for i in 0..12u64 {
            ws.refresh_model(app, &repo);
            repo.record_normal(app, behavior(1.5, 0.5), 200 + i);
        }
        let (cold, warm) = ws.refit_counts();
        // Cadence: cold, warm, warm, warm, cold, ... — 3 of 12 are cold.
        assert_eq!((cold, warm), (3, 9));
    }

    #[test]
    fn interval_of_one_disables_warm_starts() {
        let app = AppId(1);
        let mut repo = trained_repository(app);
        let mut ws = WarningSystem::new(WarningConfig {
            cold_refit_interval: 1,
            ..Default::default()
        });
        for i in 0..5u64 {
            ws.refresh_model(app, &repo);
            repo.record_normal(app, behavior(1.5, 0.5), 200 + i);
        }
        assert_eq!(ws.refit_counts(), (5, 0));
    }

    #[test]
    fn capacity_churn_still_triggers_refits() {
        // Regression: the pre-generation staleness check compared entry
        // *counts*, so a repository at capacity (length constant, contents
        // rotating) never refreshed its model again.
        let app = AppId(3);
        let mut repo = BehaviorRepository::with_capacity(16);
        for i in 0..16u64 {
            repo.record_normal(app, behavior(1.5, 0.5), i);
        }
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        let before = ws.refit_counts();
        // The store is full: every further record evicts one entry and the
        // length stays 16, but the contents move to a new operating point.
        for i in 0..16u64 {
            repo.record_normal(app, behavior(2.5 + i as f64 * 0.01, 1.5), 100 + i);
            ws.refresh_model(app, &repo);
        }
        let after = ws.refit_counts();
        assert!(
            after.0 + after.1 > before.0 + before.1,
            "full-capacity churn never refitted: {before:?} -> {after:?}"
        );
        // And the model actually tracked the move.
        assert_eq!(
            ws.evaluate(app, &behavior(2.58, 1.5), &[]),
            WarningDecision::NormalLocal
        );
    }

    #[test]
    fn too_few_behaviours_keep_conservative_mode() {
        let app = AppId(2);
        let mut repo = BehaviorRepository::new();
        for i in 0..3 {
            repo.record_normal(app, behavior(1.5, 0.5), i);
        }
        let mut ws = WarningSystem::with_defaults();
        ws.refresh_model(app, &repo);
        assert!(ws.in_conservative_mode(app));
        assert_eq!(
            ws.evaluate(app, &behavior(1.5, 0.5), &[]),
            WarningDecision::Bootstrap
        );
    }
}
