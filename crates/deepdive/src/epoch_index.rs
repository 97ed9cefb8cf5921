//! The controller's per-epoch index over one epoch's reports.
//!
//! [`EpochIndex::rebuild`] reads `&[VmEpochReport]` once and leaves three
//! things behind, all in buffers that keep their allocations across epochs:
//!
//! * every report's [`BehaviorVector`], in a `Vec` parallel to the reports;
//! * report indices grouped by **application** — the global-information
//!   check's peer groups, and (its sorted keys) the warning system's refresh
//!   work list;
//! * report indices grouped by **machine** — the residents of an afflicted
//!   machine and of every candidate destination during mitigation.
//!
//! Both groupings are in CSR form ([`Groups`]): distinct keys in ascending
//! order, one span per key into one flat vector of report indices, report
//! order kept inside a group.  Nothing here hashes, so no consumer can
//! observe a per-process order.

use cloudsim::pm::VmEpochReport;
use cloudsim::PmId;
use workloads::AppId;

use crate::metrics::BehaviorVector;

/// Report indices grouped by key, CSR style.
#[derive(Debug)]
pub(crate) struct Groups<K> {
    /// Distinct keys, ascending.
    keys: Vec<K>,
    /// `keys.len() + 1` offsets into `members`: group `g` is
    /// `members[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    /// Report indices, grouped by key, ascending inside a group.
    members: Vec<u32>,
    /// `(key, report index)` pairs the rebuild sorts.  The pairs are
    /// distinct, so the unstable sort has exactly one result; reports that
    /// already arrive grouped (the engine emits them machine by machine)
    /// sort in one linear pass.
    pairs: Vec<(K, u32)>,
}

impl<K> Default for Groups<K> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            starts: Vec::new(),
            members: Vec::new(),
            pairs: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> Groups<K> {
    fn rebuild(&mut self, keys: impl Iterator<Item = K>) {
        self.pairs.clear();
        self.pairs
            .extend(keys.enumerate().map(|(i, key)| (key, i as u32)));
        self.pairs.sort_unstable();
        self.keys.clear();
        self.starts.clear();
        self.members.clear();
        for &(key, report) in &self.pairs {
            if self.keys.last() != Some(&key) {
                self.keys.push(key);
                self.starts.push(self.members.len());
            }
            self.members.push(report);
        }
        self.starts.push(self.members.len());
    }

    /// The distinct keys, ascending.
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Every report index, grouped by key in key order.
    pub(crate) fn members(&self) -> &[u32] {
        &self.members
    }

    /// Where `key`'s group sits in [`Groups::members`]; empty for a key
    /// with no report this epoch.
    pub(crate) fn span(&self, key: K) -> std::ops::Range<usize> {
        match self.keys.binary_search(&key) {
            Ok(group) => self.starts[group]..self.starts[group + 1],
            Err(_) => 0..0,
        }
    }

    /// The report indices of `key`'s group, in report order.
    pub(crate) fn group(&self, key: K) -> &[u32] {
        &self.members[self.span(key)]
    }
}

/// One epoch's reports, indexed for the controller.
#[derive(Debug, Default)]
pub(crate) struct EpochIndex {
    /// Behaviour of `reports[i]`.
    pub(crate) behaviors: Vec<BehaviorVector>,
    /// Reports grouped by application.
    pub(crate) by_app: Groups<AppId>,
    /// Reports grouped by hosting machine.
    pub(crate) by_machine: Groups<PmId>,
}

impl EpochIndex {
    /// Re-indexes `reports`, replacing whatever the previous epoch left.
    pub(crate) fn rebuild(&mut self, reports: &[VmEpochReport]) {
        assert!(
            u32::try_from(reports.len()).is_ok(),
            "an epoch holds at most u32::MAX reports"
        );
        self.behaviors.clear();
        self.behaviors.extend(
            reports
                .iter()
                .map(|r| BehaviorVector::from_counters(&r.counters)),
        );
        self.by_app.rebuild(reports.iter().map(|r| r.app));
        self.by_machine.rebuild(reports.iter().map(|r| r.pm_id));
    }

    /// Behaviours of the other reports running `app` — the peers of report
    /// `me` for the global-information check, idle ones included.  The
    /// group lookup happens on the first pull, so building the view for a
    /// VM whose local check passes costs nothing.
    pub(crate) fn peers_of(
        &self,
        app: AppId,
        me: usize,
    ) -> impl Iterator<Item = &BehaviorVector> + '_ {
        std::iter::once(app)
            .flat_map(|app| self.by_app.group(app))
            .filter(move |&&report| report as usize != me)
            .map(|&report| &self.behaviors[report as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_report_order_and_sort_keys() {
        let mut groups = Groups::default();
        groups.rebuild([7u64, 3, 7, 9, 3, 7].into_iter());
        assert_eq!(groups.keys(), &[3, 7, 9]);
        assert_eq!(groups.group(3), &[1, 4]);
        assert_eq!(groups.group(7), &[0, 2, 5]);
        assert_eq!(groups.group(9), &[3]);
        assert!(groups.group(8).is_empty());
        assert_eq!(groups.members(), &[1, 4, 0, 2, 5, 3]);
        assert_eq!(groups.span(7), 2..5);
        // A rebuild forgets the previous epoch entirely.
        groups.rebuild(std::iter::empty());
        assert!(groups.keys().is_empty());
        assert!(groups.group(7).is_empty());
    }
}
