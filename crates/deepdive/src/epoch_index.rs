//! The controller's per-epoch index over one epoch's reports.
//!
//! [`EpochIndex::rebuild`] reads `&[VmEpochReport]` once and leaves two
//! things behind, all in buffers that keep their allocations across epochs:
//!
//! * every report's [`BehaviorVector`], in a `Vec` parallel to the reports;
//! * report indices grouped by **application** — the warning sweep's unit
//!   of work: one model lookup per group, the group itself as the
//!   global-information check's peers, and (its sorted keys) the refresh
//!   work list.
//!
//! Report indices grouped by **machine** — the residents of an afflicted
//! machine and of every candidate destination during mitigation — are
//! built only when a mitigation asks for them ([`EpochIndex::with_machines`]);
//! a quiet epoch never groups by machine.
//!
//! Both groupings are in CSR form ([`Groups`]): distinct keys in ascending
//! order, one span per key into one flat vector of report indices, report
//! order kept inside a group.  They are built by counting, not by a
//! comparison sort: each key keeps a persistent dense id, so a rebuild is
//! one probe per report, a sort of the distinct keys only and two linear
//! passes.  The id table hashes, but nothing iterates it, so no consumer
//! can observe a per-process order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use cloudsim::pm::VmEpochReport;
use cloudsim::PmId;
use workloads::AppId;

use crate::metrics::BehaviorVector;

/// A fixed multiplicative hasher for the controller's integer-keyed tables
/// (VM records, dense key ids).  Ids are small integers chosen by the
/// simulation, not by an adversary, so SipHash's flood resistance buys
/// nothing on a path that probes once per report.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A `HashMap` keyed through [`MulHasher`].
pub(crate) type MulMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

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
    /// The persistent dense id of every key ever grouped.
    ids: MulMap<K, u32>,
    /// The key of each dense id.
    id_keys: Vec<K>,
    /// Per dense id: the group's size while counting, then its write
    /// cursor while scattering; zero between rebuilds.
    cursors: Vec<u32>,
    /// This rebuild's dense id of every report.
    report_ids: Vec<u32>,
    /// This rebuild's distinct dense ids, sorted by key.
    present: Vec<u32>,
}

impl<K> Default for Groups<K> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            starts: Vec::new(),
            members: Vec::new(),
            ids: MulMap::default(),
            id_keys: Vec::new(),
            cursors: Vec::new(),
            report_ids: Vec::new(),
            present: Vec::new(),
        }
    }
}

impl<K: Ord + Hash + Copy> Groups<K> {
    fn rebuild(&mut self, keys: impl Iterator<Item = K>) {
        self.report_ids.clear();
        self.present.clear();
        for key in keys {
            let next = self.id_keys.len() as u32;
            let id = *self.ids.entry(key).or_insert(next) as usize;
            if id == self.id_keys.len() {
                self.id_keys.push(key);
                self.cursors.push(0);
            }
            if self.cursors[id] == 0 {
                self.present.push(id as u32);
            }
            self.cursors[id] += 1;
            self.report_ids.push(id as u32);
        }
        // Only the distinct keys are sorted; they are distinct, so the
        // unstable sort has exactly one result.
        let id_keys = &self.id_keys;
        self.present
            .sort_unstable_by_key(|&id| id_keys[id as usize]);
        self.keys.clear();
        self.starts.clear();
        let mut end = 0u32;
        for &id in &self.present {
            self.keys.push(self.id_keys[id as usize]);
            self.starts.push(end as usize);
            let size = std::mem::replace(&mut self.cursors[id as usize], end);
            end += size;
        }
        self.starts.push(end as usize);
        self.members.clear();
        self.members.resize(end as usize, 0);
        for (report, &id) in self.report_ids.iter().enumerate() {
            let cursor = &mut self.cursors[id as usize];
            self.members[*cursor as usize] = report as u32;
            *cursor += 1;
        }
        for &id in &self.present {
            self.cursors[id as usize] = 0;
        }
    }

    /// The distinct keys, ascending.
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Every group as `(key, report indices)`, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &[u32])> + '_ {
        self.keys
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&key, span)| (key, &self.members[span[0]..span[1]]))
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
    /// Reports grouped by hosting machine, once [`EpochIndex::with_machines`]
    /// has run this epoch.
    by_machine: Groups<PmId>,
    /// Whether `by_machine` groups this epoch's reports.
    machines_current: bool,
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
        self.machines_current = false;
    }

    /// The index with `reports` grouped by machine as well.  The first call
    /// after a rebuild groups them; later calls that epoch are free.
    /// `reports` must be the slice the index was rebuilt from.
    pub(crate) fn with_machines(&mut self, reports: &[VmEpochReport]) -> &Self {
        debug_assert_eq!(reports.len(), self.behaviors.len());
        if !self.machines_current {
            self.by_machine.rebuild(reports.iter().map(|r| r.pm_id));
            self.machines_current = true;
        }
        self
    }

    /// Reports grouped by hosting machine; only valid on the index
    /// [`EpochIndex::with_machines`] returned.
    pub(crate) fn by_machine(&self) -> &Groups<PmId> {
        assert!(
            self.machines_current,
            "machine groups are built on demand by `with_machines`"
        );
        &self.by_machine
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
        let spans: Vec<(u64, &[u32])> = groups.iter().collect();
        assert_eq!(spans, [(3, &[1, 4][..]), (7, &[0, 2, 5]), (9, &[3])]);
        // A rebuild forgets the previous epoch entirely.
        groups.rebuild(std::iter::empty());
        assert!(groups.keys().is_empty());
        assert!(groups.group(7).is_empty());
        // Keys keep their dense ids across rebuilds; new keys get new ones,
        // and the groups come out in key order whatever the ids.
        groups.rebuild([9u64, 1, 9, 3].into_iter());
        assert_eq!(groups.keys(), &[1, 3, 9]);
        assert_eq!(groups.members(), &[1, 3, 0, 2]);
        assert_eq!(groups.id_keys, [7, 3, 9, 1]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn counted_groups_match_a_sort_of_the_pairs(
            epochs in proptest::collection::vec(
                proptest::collection::vec(0u64..24, 0..50),
                1..5,
            ),
        ) {
            let mut groups = Groups::default();
            for keys in &epochs {
                groups.rebuild(keys.iter().copied());
                let mut pairs: Vec<(u64, u32)> =
                    keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
                pairs.sort_unstable();
                let mut distinct: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
                distinct.dedup();
                let members: Vec<u32> = pairs.iter().map(|&(_, i)| i).collect();
                proptest::prop_assert_eq!(groups.keys(), &distinct[..]);
                proptest::prop_assert_eq!(groups.members(), &members[..]);
                for (key, group) in groups.iter() {
                    proptest::prop_assert!(group.iter().all(|&i| keys[i as usize] == key));
                }
            }
        }
    }
}
