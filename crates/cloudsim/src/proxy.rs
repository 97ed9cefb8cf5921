//! Request-duplicating proxy.
//!
//! In the paper "DeepDive relies on a proxy that intercepts the clients'
//! traffic to: 1) duplicate and send copies of the requests to the sandboxed
//! environment, and 2) forward the traffic to/from the production VM" (§4.2).
//! The sandboxed clone therefore experiences *the same workload* as the
//! production VM.
//!
//! In the simulation, "the same workload" is exactly the per-epoch intrinsic
//! [`hwsim::ResourceDemand`] the production VM generated.  The proxy records
//! a sliding window of those demands for every VM so the interference
//! analyzer can replay the most recent window in the sandbox and compare
//! counters.

use std::collections::{HashMap, VecDeque};

use hwsim::ResourceDemand;

use crate::pm::VmEpochReport;
use crate::vm::VmId;

/// Sliding window of recent request streams (as demands) per VM.
#[derive(Debug, Default)]
pub struct RequestProxy {
    window: usize,
    recorded: HashMap<VmId, VecDeque<ResourceDemand>>,
}

impl RequestProxy {
    /// Creates a proxy retaining `window` epochs of traffic per VM.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "proxy window must be at least one epoch");
        Self {
            window,
            recorded: HashMap::new(),
        }
    }

    /// Records the traffic (demand) observed for a VM this epoch.
    pub fn record(&mut self, vm_id: VmId, demand: ResourceDemand) {
        let entry = self.recorded.entry(vm_id).or_default();
        entry.push_back(demand);
        while entry.len() > self.window {
            entry.pop_front();
        }
    }

    /// Records every report of an epoch in one call.
    pub fn record_reports(&mut self, reports: &[VmEpochReport]) {
        for r in reports {
            self.record(r.vm_id, r.demand.clone());
        }
    }

    /// The recorded demand stream for a VM (oldest first); empty if unknown.
    pub fn replay(&self, vm_id: VmId) -> Vec<ResourceDemand> {
        self.recorded
            .get(&vm_id)
            .map(|d| d.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The most recent `n` recorded demands for a VM (oldest first).
    pub fn replay_last(&self, vm_id: VmId, n: usize) -> Vec<ResourceDemand> {
        self.recorded
            .get(&vm_id)
            .map(|d| d.iter().skip(d.len().saturating_sub(n)).cloned().collect())
            .unwrap_or_default()
    }

    /// Drops everything recorded for a VM (e.g. after it is terminated).
    pub fn forget(&mut self, vm_id: VmId) {
        self.recorded.remove(&vm_id);
    }

    /// Number of epochs currently recorded for a VM.
    pub fn recorded_epochs(&self, vm_id: VmId) -> usize {
        self.recorded.get(&vm_id).map(|d| d.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(i: f64) -> ResourceDemand {
        ResourceDemand::builder().instructions(i).build()
    }

    #[test]
    fn records_and_replays_in_order() {
        let mut proxy = RequestProxy::new(4);
        for i in 0..3 {
            proxy.record(VmId(1), demand(i as f64));
        }
        let replay = proxy.replay(VmId(1));
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[0].instructions, 0.0);
        assert_eq!(replay[2].instructions, 2.0);
    }

    #[test]
    fn window_evicts_oldest_entries() {
        let mut proxy = RequestProxy::new(2);
        for i in 0..5 {
            proxy.record(VmId(1), demand(i as f64));
        }
        let replay = proxy.replay(VmId(1));
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0].instructions, 3.0);
        assert_eq!(replay[1].instructions, 4.0);
    }

    #[test]
    fn replay_last_returns_tail() {
        let mut proxy = RequestProxy::new(10);
        for i in 0..6 {
            proxy.record(VmId(1), demand(i as f64));
        }
        let tail = proxy.replay_last(VmId(1), 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].instructions, 4.0);
        // Asking for more than recorded returns everything.
        assert_eq!(proxy.replay_last(VmId(1), 100).len(), 6);
    }

    #[test]
    fn unknown_vm_replays_nothing() {
        let proxy = RequestProxy::new(4);
        assert!(proxy.replay(VmId(42)).is_empty());
        assert_eq!(proxy.recorded_epochs(VmId(42)), 0);
    }

    #[test]
    fn forget_drops_history() {
        let mut proxy = RequestProxy::new(4);
        proxy.record(VmId(1), demand(1.0));
        proxy.forget(VmId(1));
        assert!(proxy.replay(VmId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_window_rejected() {
        RequestProxy::new(0);
    }
}
