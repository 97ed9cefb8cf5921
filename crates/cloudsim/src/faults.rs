//! Deterministic, topology-aware fault injection: machine crashes, rack and
//! power-domain outages, planned maintenance drains, transient migration
//! failures and sandbox-pool outages — all as pure functions of identity and
//! time.
//!
//! The paper's evaluation (and this reproduction through the service mode)
//! assumes an idealized datacenter: machines never fail, the sandbox is
//! always reachable, migrations always succeed.  A production-scale service
//! cannot — so [`FaultPlane`] makes failure a first-class, *deterministic*
//! event, following the exact discipline [`crate::rngs::ClusterSeed`]
//! established for demand streams: every fault draw is derived by hashing
//! `(fault seed, fault kind, entity id, epoch)` through SplitMix64
//! finalizers, so a fault schedule is a pure function of identity and time —
//! never of placement history or stepping order.  The same seed produces
//! the same crashes on every platform, which is what lets the chaos suite
//! (`tests/fault_tolerance.rs`) check a run's down and draining flags
//! against the plane's pointwise answers *under* injected faults.
//!
//! ## Physical topology
//!
//! Real incidents are correlated: a top-of-rack switch or rack PDU takes a
//! whole rack at once, a power-domain failure takes every rack behind the
//! same feed.  [`Topology`] gives every machine a fixed physical position,
//! derived deterministically from its id alone:
//!
//! ```text
//! rack(pm)   = pm / machines_per_rack
//! domain(pm) = rack(pm) / racks_per_domain
//! ```
//!
//! Because the mapping depends only on the machine id (never on fleet
//! size), growing the fleet appends new racks and domains without moving
//! any existing machine — schedules drawn for the old machines are stable
//! under fleet growth.
//!
//! ## Fault streams and the schedule-derivation formula
//!
//! Every stream draws one 64-bit cell per `(kind, entity, epoch)`:
//!
//! ```text
//! draw(kind, entity, epoch) =
//!     splitmix64(splitmix64(seed ^ kind ^ splitmix64(entity)) ^ epoch)
//! ```
//!
//! where `kind` is a per-stream domain-separation tag and `entity` is a
//! machine, rack, domain, VM or sandbox-pool id depending on the stream.
//! Bernoulli events map the draw onto `[0, 1)` (53 mantissa bits) and
//! compare against the configured rate; window lengths take the draw modulo
//! the inclusive `(min, max)` range.  Overlapping windows union.
//!
//! ## The pointwise reference and the service's calendar
//!
//! Window membership has two implementations that agree bit for bit.
//!
//! * **[`FaultPlane`] is the stateless reference.**  Each query scans the
//!   bounded set of start epochs whose windows could still cover `t`, so
//!   the plane holds no state, is `Copy`, and answers any `(entity,
//!   epoch)` in any order.  Its machine streams are read only through
//!   the service's calendar below; pointwise, the library asks it only
//!   [`FaultPlane::sandbox_down`] and [`FaultPlane::migration_fails`]
//!   (the controller), and tests and `e2e_bench`'s query probe ask
//!   [`FaultPlane::machine_down`].  Which machines take VMs lives in the
//!   [`crate::Cluster`]'s down and draining bits, which the service's
//!   sweep writes from the calendar and placement, migration and the
//!   controller read.
//! * **The service reads a crate-private fault calendar.**  Asking the
//!   reference about every machine every epoch re-derives the same cells
//!   over and over, so `DatacenterService` keeps a calendar over its fleet
//!   instead.  Each epoch it draws every machine, rack and domain start
//!   cell of that epoch exactly once — one finalizer per cell, with the
//!   entity's inner hash precomputed.  Per entity it keeps the end of the
//!   latest window opened, so "down at `t`" is `until > t`.  Rack and
//!   domain state reach machines by index division.  A drain keeps its
//!   deadline and queues its offline window until that begins.  A
//!   calendar built mid-run first back-fills one maximum window length, so
//!   it reads the same as one built at epoch 0.
//!
//! A unit proptest pins calendar ≡ reference per machine per epoch over
//! random configs, topologies, start epochs and epoch gaps.
//!
//! | stream | entity | config knobs (units) |
//! |---|---|---|
//! | machine crash windows | machine id | [`FaultConfig::machine_crash_per_epoch`] (probability/epoch), [`FaultConfig::repair_epochs`] (epochs) |
//! | rack outage windows | rack id | [`FaultConfig::rack_outage_per_epoch`], [`FaultConfig::rack_outage_epochs`] |
//! | power-domain outage windows | domain id | [`FaultConfig::domain_outage_per_epoch`], [`FaultConfig::domain_outage_epochs`] |
//! | maintenance drains | machine id | [`FaultConfig::machine_drain_per_epoch`], [`FaultConfig::drain_notice_epochs`] (epochs of notice), [`FaultConfig::maintenance_epochs`] (offline epochs) |
//! | transient migration failures | VM id | [`FaultConfig::migration_failure`] |
//! | sandbox-pool outages | pool index | [`FaultConfig::sandbox_outage_per_epoch`], [`FaultConfig::outage_epochs`] |
//!
//! [`FaultPlane::machine_down`] is the union of the first three streams
//! plus the *offline* phase of a maintenance drain — one predicate the
//! service consults, whatever the blast radius behind it.
//!
//! ## Crashes vs drains
//!
//! A **crash** is instant: the window opens, the machine is gone, and every
//! resident must be evacuated in the same epoch (or parked).  A
//! **maintenance drain** is planned and graceful: a drain starting at epoch
//! `s` first opens a *notice window* of [`FaultConfig::drain_notice_epochs`]
//! epochs (`[s, s + notice)`) during which the machine keeps running its
//! residents but accepts no new placements and the service migrates
//! residents out a few per epoch ([`FaultPlane::machine_draining`]); only
//! then does the machine go offline for a `maintenance_epochs`-drawn
//! window (`[s + notice, s + notice + len)`, reported by
//! [`FaultPlane::machine_down`] and counted by the service as maintenance,
//! not a crash).  Any resident still on the machine when the notice
//! expires is evacuated instantly, like a crash.  A machine that is down
//! never reports as draining — outage takes precedence.
//!
//! ## Building a correlated schedule
//!
//! Rack outages produce *correlated* crashes: every machine in the rack is
//! down for exactly the same window.
//!
//! ```
//! use cloudsim::faults::{FaultConfig, FaultPlane, Topology};
//! use cloudsim::pm::PmId;
//!
//! // 4 machines per rack, 2 racks per power domain.
//! let config = FaultConfig {
//!     topology: Topology::new(4, 2),
//!     rack_outage_per_epoch: 0.01,
//!     rack_outage_epochs: (4, 8),
//!     ..FaultConfig::disabled()
//! };
//! let plane = FaultPlane::new(7, config);
//!
//! // Machines 0..4 share rack 0: they are always down together.
//! let mut saw_outage = false;
//! let mut saw_rack0_alone = false;
//! for epoch in 0..2_000 {
//!     let rack0_down = plane.machine_down(PmId(0), epoch);
//!     saw_outage |= rack0_down;
//!     for m in 1..4 {
//!         assert_eq!(plane.machine_down(PmId(m), epoch), rack0_down);
//!     }
//!     // Machine 4 is in rack 1: its schedule is independent.
//!     saw_rack0_alone |= rack0_down && !plane.machine_down(PmId(4), epoch);
//! }
//! assert!(saw_outage, "1% outage rate must fire within 2000 epochs");
//! assert!(saw_rack0_alone, "rack 1 must be up during some rack-0 outage");
//! ```
//!
//! A plane built with [`FaultPlane::disabled`] (or any all-zero-rate
//! config) never fires: attaching it to a service or controller is
//! guaranteed to change nothing, byte for byte.

use std::collections::VecDeque;

use crate::pm::PmId;
use crate::rngs::splitmix64;
use crate::vm::VmId;

/// Domain-separation tags, one per fault stream, XOR-folded into the seed so
/// the streams never alias each other (or the demand streams, which hash a
/// different shape entirely).
const KIND_CRASH_START: u64 = 0x6372_6173_685f_7374;
const KIND_CRASH_LEN: u64 = 0x6372_6173_685f_6c6e;
const KIND_MIGRATION: u64 = 0x6d69_6772_5f66_6c70;
const KIND_OUTAGE_START: u64 = 0x6f75_745f_7374_6172;
const KIND_OUTAGE_LEN: u64 = 0x6f75_745f_6c65_6e67;
const KIND_RACK_START: u64 = 0x7261_636b_5f73_7461;
const KIND_RACK_LEN: u64 = 0x7261_636b_5f6c_656e;
const KIND_DOMAIN_START: u64 = 0x646f_6d5f_7374_6172;
const KIND_DOMAIN_LEN: u64 = 0x646f_6d5f_6c65_6e67;
const KIND_DRAIN_START: u64 = 0x6472_6169_6e5f_7374;
const KIND_MAINT_LEN: u64 = 0x6d61_696e_745f_6c6e;

/// The fleet's physical layout: machines pack into racks, racks into power
/// domains, both derived from the machine id alone.
///
/// * `rack(pm) = pm / machines_per_rack`
/// * `domain(pm) = rack(pm) / racks_per_domain`
///
/// The mapping never depends on fleet size, so a machine's rack and domain
/// are stable under fleet growth: new machines append new racks/domains
/// without relocating anyone (pinned by unit test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Machines per rack (≥ 1).  `1` degenerates every rack to a single
    /// machine, making rack outages equivalent to independent crashes.
    pub machines_per_rack: usize,
    /// Racks per power domain (≥ 1).
    pub racks_per_domain: usize,
}

impl Topology {
    /// A conventional layout: 40 machines per rack, 8 racks per power
    /// domain (320 machines behind one feed).
    pub const fn conventional() -> Self {
        Self {
            machines_per_rack: 40,
            racks_per_domain: 8,
        }
    }

    /// Builds a topology.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub const fn new(machines_per_rack: usize, racks_per_domain: usize) -> Self {
        assert!(machines_per_rack >= 1, "machines_per_rack must be >= 1");
        assert!(racks_per_domain >= 1, "racks_per_domain must be >= 1");
        Self {
            machines_per_rack,
            racks_per_domain,
        }
    }

    /// The rack holding `pm`.
    pub(crate) fn rack_of(&self, pm: PmId) -> u64 {
        pm.0 / self.machines_per_rack as u64
    }

    /// The power domain holding `pm`.
    pub fn domain_of(&self, pm: PmId) -> u64 {
        self.rack_of(pm) / self.racks_per_domain as u64
    }

    /// Machines sharing one power domain (the domain-level blast radius).
    pub(crate) fn machines_per_domain(&self) -> usize {
        self.machines_per_rack * self.racks_per_domain
    }

    /// Number of distinct power domains covering a fleet of `machines`
    /// machines with dense ids `0..machines` (zero for an empty fleet).
    pub(crate) fn domains_in_fleet(&self, machines: usize) -> usize {
        machines.div_ceil(self.machines_per_domain())
    }
}

impl Default for Topology {
    /// Defaults to [`Topology::conventional`].
    fn default() -> Self {
        Self::conventional()
    }
}

/// Rates and window shapes of every fault kind.
///
/// Rates are per-entity per-epoch probabilities in `[0, 1]`; window lengths
/// are inclusive `(min, max)` epoch ranges with `1 <= min <= max`.  The
/// maxima bound the pointwise reference's window scans (each
/// [`FaultPlane::machine_down`] rescans up to a maximum window of start
/// epochs per stream), so keep them modest (tens of epochs, not
/// thousands); the service's per-epoch fault sweep does not depend on
/// them.  Defaults ([`FaultConfig::disabled`]) are all zero rates —
/// faults are strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Physical layout driving the rack/domain streams (and available to
    /// consumers for spread-aware placement).
    pub topology: Topology,
    /// Probability a crash window starts on a given machine in a given
    /// epoch.  Default 0.
    pub machine_crash_per_epoch: f64,
    /// Inclusive range of crash-window lengths, in epochs (time to repair).
    /// Default `(1, 1)`.
    pub repair_epochs: (u64, u64),
    /// Probability a whole-rack outage window starts on a given rack in a
    /// given epoch.  Every machine in the rack is down for the window.
    /// Default 0.
    pub rack_outage_per_epoch: f64,
    /// Inclusive range of rack-outage lengths, in epochs.  Default `(1, 1)`.
    pub rack_outage_epochs: (u64, u64),
    /// Probability a whole-power-domain outage window starts on a given
    /// domain in a given epoch.  Default 0.
    pub domain_outage_per_epoch: f64,
    /// Inclusive range of domain-outage lengths, in epochs.
    /// Default `(1, 1)`.
    pub domain_outage_epochs: (u64, u64),
    /// Probability a planned maintenance drain starts on a given machine in
    /// a given epoch.  Default 0.
    pub machine_drain_per_epoch: f64,
    /// Epochs of advance notice a drain gives before the machine goes
    /// offline (≥ 1): the window in which the service migrates residents
    /// out gracefully.  Default 1.
    pub drain_notice_epochs: u64,
    /// Inclusive range of the offline window that follows a drain's notice
    /// period, in epochs.  Default `(1, 1)`.
    pub maintenance_epochs: (u64, u64),
    /// Probability any individual migration attempt transiently fails.
    /// Default 0.
    pub migration_failure: f64,
    /// Probability an outage window starts on a given sandbox pool in a
    /// given epoch.  Default 0.
    pub sandbox_outage_per_epoch: f64,
    /// Inclusive range of sandbox-outage lengths, in epochs.
    /// Default `(1, 1)`.
    pub outage_epochs: (u64, u64),
}

impl FaultConfig {
    /// All rates zero: a plane with this config never fires.
    pub const fn disabled() -> Self {
        Self {
            topology: Topology::conventional(),
            machine_crash_per_epoch: 0.0,
            repair_epochs: (1, 1),
            rack_outage_per_epoch: 0.0,
            rack_outage_epochs: (1, 1),
            domain_outage_per_epoch: 0.0,
            domain_outage_epochs: (1, 1),
            machine_drain_per_epoch: 0.0,
            drain_notice_epochs: 1,
            maintenance_epochs: (1, 1),
            migration_failure: 0.0,
            sandbox_outage_per_epoch: 0.0,
            outage_epochs: (1, 1),
        }
    }

    /// A modest always-something-happening preset for tests and benches:
    /// occasional independent crashes repaired within 4–12 epochs, one in
    /// twelve migrations failing transiently, rare double-digit sandbox
    /// outages.  Blast radius 1 — the uncorrelated baseline the correlated
    /// presets below are compared against.
    pub const fn light() -> Self {
        Self {
            machine_crash_per_epoch: 0.004,
            repair_epochs: (4, 12),
            migration_failure: 0.08,
            sandbox_outage_per_epoch: 0.002,
            outage_epochs: (8, 24),
            ..Self::disabled()
        }
    }

    /// Rack-correlated outages with the same expected machine downtime as
    /// [`FaultConfig::light`] (same start rate and window lengths, applied
    /// per rack instead of per machine), so availability matches while the
    /// blast radius grows to `topology.machines_per_rack` machines at once.
    #[cfg(test)]
    pub(crate) const fn rack_outages(topology: Topology) -> Self {
        Self {
            topology,
            rack_outage_per_epoch: 0.004,
            rack_outage_epochs: (4, 12),
            migration_failure: 0.08,
            sandbox_outage_per_epoch: 0.002,
            outage_epochs: (8, 24),
            ..Self::disabled()
        }
    }

    /// Power-domain-correlated outages: same expected machine downtime as
    /// [`FaultConfig::light`], blast radius
    /// `topology.machines_per_domain()` machines at once.
    pub const fn domain_outages(topology: Topology) -> Self {
        Self {
            topology,
            domain_outage_per_epoch: 0.004,
            domain_outage_epochs: (4, 12),
            migration_failure: 0.08,
            sandbox_outage_per_epoch: 0.002,
            outage_epochs: (8, 24),
            ..Self::disabled()
        }
    }

    /// Planned maintenance at the same start rate and offline windows as
    /// [`FaultConfig::light`]'s crashes, but with an 8-epoch drain notice:
    /// the graceful counterpart to `light`, isolating what advance warning
    /// buys (lower disruption at equal machine downtime).
    #[cfg(test)]
    pub(crate) const fn maintenance() -> Self {
        Self {
            machine_drain_per_epoch: 0.004,
            drain_notice_epochs: 8,
            maintenance_epochs: (4, 12),
            migration_failure: 0.08,
            sandbox_outage_per_epoch: 0.002,
            outage_epochs: (8, 24),
            ..Self::disabled()
        }
    }
}

impl Default for FaultConfig {
    /// Defaults to [`FaultConfig::disabled`]: faults are strictly opt-in.
    fn default() -> Self {
        Self::disabled()
    }
}

/// The deterministic fault schedule: a seed plus a [`FaultConfig`].
///
/// Every query is a pure function of `(seed, fault kind, entity id, epoch)`
/// — the plane holds no mutable state, is `Copy`, and may be queried from
/// any thread in any order without perturbing any outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlane {
    seed: u64,
    config: FaultConfig,
}

impl FaultPlane {
    /// Wraps a fault seed and config.
    ///
    /// # Panics
    /// Panics if a rate is outside `[0, 1]`, a window range is empty or
    /// inverted, the drain notice is zero, or the topology has a zero
    /// dimension.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        for (name, rate) in [
            ("machine_crash_per_epoch", config.machine_crash_per_epoch),
            ("rack_outage_per_epoch", config.rack_outage_per_epoch),
            ("domain_outage_per_epoch", config.domain_outage_per_epoch),
            ("machine_drain_per_epoch", config.machine_drain_per_epoch),
            ("migration_failure", config.migration_failure),
            ("sandbox_outage_per_epoch", config.sandbox_outage_per_epoch),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} must be a probability in [0, 1], got {rate}"
            );
        }
        for (name, (min, max)) in [
            ("repair_epochs", config.repair_epochs),
            ("rack_outage_epochs", config.rack_outage_epochs),
            ("domain_outage_epochs", config.domain_outage_epochs),
            ("maintenance_epochs", config.maintenance_epochs),
            ("outage_epochs", config.outage_epochs),
        ] {
            assert!(
                min >= 1 && min <= max,
                "{name} must satisfy 1 <= min <= max, got ({min}, {max})"
            );
        }
        assert!(
            config.drain_notice_epochs >= 1,
            "drain_notice_epochs must be >= 1, got {}",
            config.drain_notice_epochs
        );
        assert!(
            config.topology.machines_per_rack >= 1 && config.topology.racks_per_domain >= 1,
            "topology dimensions must be >= 1, got {:?}",
            config.topology
        );
        Self { seed, config }
    }

    /// A plane that never fires (seed irrelevant by construction).
    pub fn disabled() -> Self {
        Self::new(0, FaultConfig::disabled())
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when at least one fault kind has a nonzero rate.  A disabled
    /// plane's consumers may (and the service does) skip their fault sweeps
    /// entirely — the contract that attaching a disabled plane changes
    /// nothing.
    pub(crate) fn is_enabled(&self) -> bool {
        self.config.machine_crash_per_epoch > 0.0
            || self.config.rack_outage_per_epoch > 0.0
            || self.config.domain_outage_per_epoch > 0.0
            || self.config.machine_drain_per_epoch > 0.0
            || self.config.migration_failure > 0.0
            || self.config.sandbox_outage_per_epoch > 0.0
    }

    /// The raw 64-bit draw of one `(kind, entity, epoch)` cell — the same
    /// two-layer finalizer shape as [`crate::rngs::ClusterSeed::stream_seed`],
    /// with the kind tag folded into the seed so fault streams never alias
    /// each other across kinds.
    fn draw(&self, kind: u64, entity: u64, epoch: u64) -> u64 {
        splitmix64(self.prefix(kind, entity) ^ epoch)
    }

    /// The epoch-independent inner layer of [`FaultPlane::draw`]: one
    /// finalizer away from every cell of the `(kind, entity)` stream.
    fn prefix(&self, kind: u64, entity: u64) -> u64 {
        splitmix64(self.seed ^ kind ^ splitmix64(entity))
    }

    /// Maps a draw onto `[0, 1)` (53 mantissa bits, the standard ldexp
    /// construction).
    fn unit(draw: u64) -> f64 {
        (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw of one cell.
    fn fires(&self, kind: u64, entity: u64, epoch: u64, rate: f64) -> bool {
        rate > 0.0 && Self::unit(self.draw(kind, entity, epoch)) < rate
    }

    /// Window length in `[min, max]` for a window starting at `epoch`.
    fn window_len(&self, kind: u64, entity: u64, epoch: u64, range: (u64, u64)) -> u64 {
        let (min, max) = range;
        min + self.draw(kind, entity, epoch) % (max - min + 1)
    }

    /// Whether a window stream (start-rate + length-range) covers `epoch`:
    /// true when any start in the bounded lookback opens a window still
    /// live at `epoch`.  Overlapping windows union.
    fn in_window(
        &self,
        start_kind: u64,
        len_kind: u64,
        entity: u64,
        epoch: u64,
        rate: f64,
        range: (u64, u64),
    ) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let earliest = epoch.saturating_sub(range.1 - 1);
        (earliest..=epoch).any(|start| {
            self.fires(start_kind, entity, start, rate)
                && start + self.window_len(len_kind, entity, start, range) > epoch
        })
    }

    /// True when rack `rack` is inside a whole-rack outage window at
    /// `epoch`.  Every machine in the rack reports
    /// [`FaultPlane::machine_down`] for the full window.
    fn rack_down(&self, rack: u64, epoch: u64) -> bool {
        self.in_window(
            KIND_RACK_START,
            KIND_RACK_LEN,
            rack,
            epoch,
            self.config.rack_outage_per_epoch,
            self.config.rack_outage_epochs,
        )
    }

    /// True when power domain `domain` is inside an outage window at
    /// `epoch`.
    fn domain_down(&self, domain: u64, epoch: u64) -> bool {
        self.in_window(
            KIND_DOMAIN_START,
            KIND_DOMAIN_LEN,
            domain,
            epoch,
            self.config.domain_outage_per_epoch,
            self.config.domain_outage_epochs,
        )
    }

    /// True when `pm` is inside the *offline* phase of a maintenance drain
    /// at `epoch` — the window following the drain notice.  Offline lengths
    /// are drawn from [`FaultConfig::maintenance_epochs`] per drain start.
    fn in_maintenance(&self, pm: PmId, epoch: u64) -> bool {
        let rate = self.config.machine_drain_per_epoch;
        if rate <= 0.0 {
            return false;
        }
        let notice = self.config.drain_notice_epochs;
        let (_, max_len) = self.config.maintenance_epochs;
        // A drain starting at `s` is offline over [s+notice, s+notice+len).
        let earliest = epoch.saturating_sub(notice + max_len - 1);
        let latest = epoch.saturating_sub(notice);
        if epoch < notice {
            return false;
        }
        (earliest..=latest).any(|start| {
            self.fires(KIND_DRAIN_START, pm.0, start, rate)
                && start
                    + notice
                    + self.window_len(KIND_MAINT_LEN, pm.0, start, self.config.maintenance_epochs)
                    > epoch
        })
    }

    /// True when `pm` is inside the *notice* phase of a maintenance drain
    /// at `epoch`: the machine still runs its residents, but the service
    /// should be migrating them out and placing nothing new on it.  A
    /// machine that is down never reports as draining (outage wins).
    pub fn machine_draining(&self, pm: PmId, epoch: u64) -> bool {
        self.drain_remaining(pm, epoch) > 0 && !self.machine_down(pm, epoch)
    }

    /// Epochs left in `pm`'s drain notice window at `epoch` (including the
    /// current one): `1` means the machine goes offline next epoch, `0`
    /// means no drain notice covers `epoch`.  With overlapping drains the
    /// latest deadline wins.
    fn drain_remaining(&self, pm: PmId, epoch: u64) -> u64 {
        let rate = self.config.machine_drain_per_epoch;
        if rate <= 0.0 {
            return 0;
        }
        let notice = self.config.drain_notice_epochs;
        let earliest = epoch.saturating_sub(notice - 1);
        (earliest..=epoch)
            .filter(|&start| self.fires(KIND_DRAIN_START, pm.0, start, rate))
            .map(|start| start + notice - epoch)
            .max()
            .unwrap_or(0)
    }

    /// True when `pm` is down at `epoch` and cannot host or step VMs: the
    /// union of its own crash windows, its rack's outage windows, its power
    /// domain's outage windows, and the offline phase of any maintenance
    /// drain.  Pure function of `(seed, pm, epoch)`, answered by rescanning
    /// every stream's lookback; the service reads the same answer from its
    /// fault calendar instead (see the module docs).
    pub fn machine_down(&self, pm: PmId, epoch: u64) -> bool {
        self.in_window(
            KIND_CRASH_START,
            KIND_CRASH_LEN,
            pm.0,
            epoch,
            self.config.machine_crash_per_epoch,
            self.config.repair_epochs,
        ) || self.rack_down(self.config.topology.rack_of(pm), epoch)
            || self.domain_down(self.config.topology.domain_of(pm), epoch)
            || self.in_maintenance(pm, epoch)
    }

    /// True when the migration attempt for `vm` at `epoch` transiently
    /// fails.  One draw per `(vm, epoch)` cell: retrying the same VM in a
    /// later epoch gets a fresh draw, retrying within the same epoch does
    /// not (the failure is a property of the epoch's conditions).
    pub fn migration_fails(&self, vm: VmId, epoch: u64) -> bool {
        self.fires(KIND_MIGRATION, vm.0, epoch, self.config.migration_failure)
    }

    /// True when sandbox pool `pool` (index into the fleet's pool list) is
    /// inside an outage window at `epoch`.
    pub fn sandbox_down(&self, pool: usize, epoch: u64) -> bool {
        self.in_window(
            KIND_OUTAGE_START,
            KIND_OUTAGE_LEN,
            pool as u64,
            epoch,
            self.config.sandbox_outage_per_epoch,
            self.config.outage_epochs,
        )
    }
}

/// One stream's start cells over entities `0..n`, each keyed by its
/// precomputed [`FaultPlane::prefix`] so a cell costs one finalizer.
#[derive(Debug, Clone)]
struct StartCells {
    rate: f64,
    prefix: Vec<u64>,
}

impl StartCells {
    /// No entities at all when the stream is off, so it draws nothing.
    fn new(plane: &FaultPlane, kind: u64, rate: f64, entities: usize) -> Self {
        let entities = if rate > 0.0 { entities as u64 } else { 0 };
        Self {
            rate,
            prefix: (0..entities).map(|e| plane.prefix(kind, e)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Entities whose window starts at `epoch` ([`FaultPlane::fires`]).
    fn fired(&self, epoch: u64) -> impl Iterator<Item = usize> + '_ {
        self.prefix
            .iter()
            .enumerate()
            .filter(move |(_, &prefix)| FaultPlane::unit(splitmix64(prefix ^ epoch)) < self.rate)
            .map(|(entity, _)| entity)
    }
}

/// A crash, rack or domain window stream: per entity, the end of the
/// latest window opened so far.  Windows union, so "inside a window at
/// `t`" is exactly `until > t` once every start up to `t` is drawn.
#[derive(Debug, Clone)]
struct WindowEnds {
    starts: StartCells,
    len_kind: u64,
    range: (u64, u64),
    until: Vec<u64>,
}

impl WindowEnds {
    fn new(
        plane: &FaultPlane,
        start_kind: u64,
        len_kind: u64,
        rate: f64,
        range: (u64, u64),
        entities: usize,
    ) -> Self {
        let starts = StartCells::new(plane, start_kind, rate, entities);
        let until = vec![0; starts.len()];
        Self {
            starts,
            len_kind,
            range,
            until,
        }
    }

    fn draw(&mut self, plane: &FaultPlane, epoch: u64) {
        for entity in self.starts.fired(epoch) {
            let end = epoch + plane.window_len(self.len_kind, entity as u64, epoch, self.range);
            let until = &mut self.until[entity];
            *until = (*until).max(end);
        }
    }

    fn covers(&self, entity: u64, epoch: u64) -> bool {
        self.until
            .get(entity as usize)
            .is_some_and(|&until| until > epoch)
    }
}

/// The service's stateful view of a [`FaultPlane`]'s machine streams —
/// crashes, rack and domain outages, maintenance drains — over a fleet of
/// dense machine ids.  [`FaultCalendar::advance_to`] draws each
/// `(entity, epoch)` start cell exactly once, where the plane's pointwise
/// queries rescan every stream's lookback on every call; the answers are
/// the plane's, bit for bit (pinned by a proptest below), at the one epoch
/// the calendar stands on.
#[derive(Debug, Clone)]
pub(crate) struct FaultCalendar {
    plane: FaultPlane,
    /// Every start cell at or before this epoch is drawn; queries answer
    /// for this epoch.
    epoch: u64,
    crashes: WindowEnds,
    racks: WindowEnds,
    domains: WindowEnds,
    drains: StartCells,
    /// Per machine, `start + notice` of the latest drain drawn so far —
    /// drains are drawn in start order, so also the latest deadline: the
    /// notice window covers `t` while this exceeds `t`.
    drain_deadline: Vec<u64>,
    /// Per machine, the end of the latest maintenance offline window that
    /// has begun.
    offline_until: Vec<u64>,
    /// Offline windows drawn but not yet begun, `(start + notice, machine,
    /// end)`.  They are pushed in start order and share one notice, so they
    /// begin in push order and a FIFO suffices.
    offline_pending: VecDeque<(u64, usize, u64)>,
}

impl FaultCalendar {
    /// A calendar for machines `0..machines` standing on `first_epoch`,
    /// back-filled from far enough before it that every window still open
    /// there is known — so a plane attached mid-run reads the same as one
    /// attached at epoch 0.
    pub(crate) fn new(plane: FaultPlane, machines: usize, first_epoch: u64) -> Self {
        let config = plane.config;
        let topology = config.topology;
        let drains = StartCells::new(
            &plane,
            KIND_DRAIN_START,
            config.machine_drain_per_epoch,
            machines,
        );
        let drained = drains.len();
        // No window is longer than its stream's maximum (a maintenance
        // window ends at most notice + maximum after its drain starts).
        let lookback = config
            .repair_epochs
            .1
            .max(config.rack_outage_epochs.1)
            .max(config.domain_outage_epochs.1)
            .max(config.drain_notice_epochs + config.maintenance_epochs.1);
        let start = first_epoch.saturating_sub(lookback);
        let mut calendar = Self {
            plane,
            epoch: start,
            crashes: WindowEnds::new(
                &plane,
                KIND_CRASH_START,
                KIND_CRASH_LEN,
                config.machine_crash_per_epoch,
                config.repair_epochs,
                machines,
            ),
            racks: WindowEnds::new(
                &plane,
                KIND_RACK_START,
                KIND_RACK_LEN,
                config.rack_outage_per_epoch,
                config.rack_outage_epochs,
                machines.div_ceil(topology.machines_per_rack),
            ),
            domains: WindowEnds::new(
                &plane,
                KIND_DOMAIN_START,
                KIND_DOMAIN_LEN,
                config.domain_outage_per_epoch,
                config.domain_outage_epochs,
                topology.domains_in_fleet(machines),
            ),
            drains,
            drain_deadline: vec![0; drained],
            offline_until: vec![0; drained],
            offline_pending: VecDeque::new(),
        };
        calendar.draw(start);
        calendar.advance_to(first_epoch);
        calendar
    }

    /// Moves the calendar to `epoch`, drawing every skipped epoch in order.
    ///
    /// # Panics
    /// Panics if `epoch` is before the calendar's current epoch.
    pub(crate) fn advance_to(&mut self, epoch: u64) {
        assert!(
            epoch >= self.epoch,
            "fault calendar cannot move back from epoch {} to {epoch}",
            self.epoch
        );
        for next in self.epoch + 1..=epoch {
            self.draw(next);
        }
        self.epoch = epoch;
    }

    /// Draws every start cell of `epoch` and begins the offline windows
    /// due by then.
    fn draw(&mut self, epoch: u64) {
        let plane = &self.plane;
        self.crashes.draw(plane, epoch);
        self.racks.draw(plane, epoch);
        self.domains.draw(plane, epoch);
        let notice = plane.config.drain_notice_epochs;
        for pm in self.drains.fired(epoch) {
            self.drain_deadline[pm] = epoch + notice;
            let offline = plane.window_len(
                KIND_MAINT_LEN,
                pm as u64,
                epoch,
                plane.config.maintenance_epochs,
            );
            self.offline_pending
                .push_back((epoch + notice, pm, epoch + notice + offline));
        }
        while let Some(&(begins, pm, end)) = self.offline_pending.front() {
            if begins > epoch {
                break;
            }
            self.offline_pending.pop_front();
            let until = &mut self.offline_until[pm];
            *until = (*until).max(end);
        }
    }

    /// [`FaultPlane::machine_down`] at the calendar's epoch.
    pub(crate) fn machine_down(&self, pm: PmId) -> bool {
        let topology = &self.plane.config.topology;
        self.crashes.covers(pm.0, self.epoch)
            || self.racks.covers(topology.rack_of(pm), self.epoch)
            || self.domains.covers(topology.domain_of(pm), self.epoch)
            || self.in_maintenance(pm)
    }

    /// [`FaultPlane::in_maintenance`] at the calendar's epoch.
    pub(crate) fn in_maintenance(&self, pm: PmId) -> bool {
        self.offline_until
            .get(pm.0 as usize)
            .is_some_and(|&until| until > self.epoch)
    }

    /// [`FaultPlane::drain_remaining`] at the calendar's epoch.
    pub(crate) fn drain_remaining(&self, pm: PmId) -> u64 {
        self.drain_deadline
            .get(pm.0 as usize)
            .map_or(0, |&deadline| deadline.saturating_sub(self.epoch))
    }

    /// [`FaultPlane::machine_draining`] at the calendar's epoch.
    pub(crate) fn machine_draining(&self, pm: PmId) -> bool {
        self.drain_remaining(pm) > 0 && !self.machine_down(pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chaotic() -> FaultPlane {
        FaultPlane::new(
            0xFA17,
            FaultConfig {
                machine_crash_per_epoch: 0.05,
                repair_epochs: (2, 6),
                migration_failure: 0.2,
                sandbox_outage_per_epoch: 0.03,
                outage_epochs: (3, 9),
                ..FaultConfig::disabled()
            },
        )
    }

    fn correlated() -> FaultPlane {
        FaultPlane::new(
            0xFA17,
            FaultConfig {
                topology: Topology::new(4, 2),
                rack_outage_per_epoch: 0.02,
                rack_outage_epochs: (2, 5),
                domain_outage_per_epoch: 0.01,
                domain_outage_epochs: (2, 4),
                machine_drain_per_epoch: 0.02,
                drain_notice_epochs: 3,
                maintenance_epochs: (2, 5),
                ..FaultConfig::disabled()
            },
        )
    }

    #[test]
    fn disabled_plane_never_fires() {
        let plane = FaultPlane::disabled();
        assert!(!plane.is_enabled());
        for epoch in 0..512 {
            assert!(!plane.machine_down(PmId(epoch % 7), epoch));
            assert!(!plane.machine_draining(PmId(epoch % 7), epoch));
            assert!(!plane.migration_fails(VmId(epoch), epoch));
            assert!(!plane.sandbox_down((epoch % 3) as usize, epoch));
        }
    }

    #[test]
    fn queries_are_pure_and_order_independent() {
        let plane = chaotic();
        let sweep = |order_noise: bool| {
            let mut log = Vec::new();
            for epoch in 0..200u64 {
                if order_noise {
                    // Interleaved foreign queries must not perturb anything.
                    let _ = plane.machine_down(PmId(99), epoch + 7);
                    let _ = plane.migration_fails(VmId(1234), epoch);
                }
                log.push((
                    plane.machine_down(PmId(3), epoch),
                    plane.migration_fails(VmId(17), epoch),
                    plane.sandbox_down(1, epoch),
                ));
            }
            log
        };
        assert_eq!(sweep(false), sweep(true));
    }

    #[test]
    fn crash_windows_last_their_drawn_length() {
        let plane = chaotic();
        let (min_len, max_len) = plane.config().repair_epochs;
        // Every observed down-stretch must be at least `min_len` long unless
        // truncated by epoch 0, and every window must eventually end.
        let mut run = 0u64;
        let mut runs = Vec::new();
        for epoch in 0..4000u64 {
            if plane.machine_down(PmId(5), epoch) {
                run += 1;
            } else if run > 0 {
                runs.push((epoch - run, run));
                run = 0;
            }
        }
        assert!(!runs.is_empty(), "no crash windows in 4000 epochs at 5%");
        for (start, len) in &runs {
            if *start > 0 {
                assert!(
                    *len >= min_len,
                    "window at {start} shorter ({len}) than min {min_len}"
                );
            }
            // Unions of overlapping windows may exceed max_len, but not by
            // more than another full window per overlapping start; sanity
            // bound generously.
            assert!(*len <= 50 * max_len, "implausibly long window: {len}");
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plane = chaotic();
        let epochs = 20_000u64;
        let failures = (0..epochs)
            .filter(|&e| plane.migration_fails(VmId(42), e))
            .count() as f64;
        let rate = failures / epochs as f64;
        assert!(
            (rate - 0.2).abs() < 0.02,
            "migration failure rate {rate} far from configured 0.2"
        );
    }

    #[test]
    fn streams_differ_across_entities_and_kinds() {
        let plane = chaotic();
        let downs: Vec<bool> = (0..300).map(|e| plane.machine_down(PmId(1), e)).collect();
        let other: Vec<bool> = (0..300).map(|e| plane.machine_down(PmId(2), e)).collect();
        assert_ne!(downs, other, "two machines share a crash schedule");
        let outages: Vec<bool> = (0..300).map(|e| plane.sandbox_down(1, e)).collect();
        assert_ne!(downs, outages, "crash and outage streams alias");
    }

    #[test]
    fn topology_derivation_is_stable_under_fleet_growth() {
        let topo = Topology::new(4, 2);
        // Pin the mapping exactly: it is id-arithmetic, so growing the
        // fleet can never relocate an existing machine.
        let expect: [(u64, u64, u64); 6] = [
            (0, 0, 0),
            (3, 0, 0),
            (4, 1, 0),
            (7, 1, 0),
            (8, 2, 1),
            (31, 7, 3),
        ];
        for (pm, rack, domain) in expect {
            assert_eq!(topo.rack_of(PmId(pm)), rack, "rack of pm {pm}");
            assert_eq!(topo.domain_of(PmId(pm)), domain, "domain of pm {pm}");
        }
        // A 100× larger fleet maps the same ids identically (growth appends
        // new racks/domains; it never renumbers old machines).
        for pm in 0..64u64 {
            let (r, d) = (topo.rack_of(PmId(pm)), topo.domain_of(PmId(pm)));
            assert_eq!(r, pm / 4);
            assert_eq!(d, pm / 8);
            assert!(d <= r, "domains coarsen racks");
        }
        assert_eq!(topo.machines_per_domain(), 8);
        assert_eq!(topo.domains_in_fleet(0), 0);
        assert_eq!(topo.domains_in_fleet(8), 1);
        assert_eq!(topo.domains_in_fleet(9), 2);
        assert_eq!(topo.domains_in_fleet(64), 8);
    }

    #[test]
    fn rack_outages_fell_the_whole_rack_together() {
        let plane = correlated();
        let topo = plane.config().topology;
        // Crash/drain streams are machine-keyed, so compare rack membership
        // through rack_down directly *and* through machine_down with the
        // machine-level streams disabled.
        let rack_only = FaultPlane::new(
            0xFA17,
            FaultConfig {
                topology: topo,
                rack_outage_per_epoch: plane.config().rack_outage_per_epoch,
                rack_outage_epochs: plane.config().rack_outage_epochs,
                ..FaultConfig::disabled()
            },
        );
        let mut saw_down = false;
        for epoch in 0..2_000u64 {
            for rack in 0..3u64 {
                let rack_state = rack_only.rack_down(rack, epoch);
                saw_down |= rack_state;
                for slot in 0..topo.machines_per_rack as u64 {
                    let pm = PmId(rack * topo.machines_per_rack as u64 + slot);
                    assert_eq!(
                        rack_only.machine_down(pm, epoch),
                        rack_state,
                        "machine {pm} disagrees with its rack {rack} at {epoch}"
                    );
                }
            }
        }
        assert!(saw_down, "2% rack outages must fire in 2000 epochs");
    }

    #[test]
    fn domain_outages_fell_every_rack_behind_the_feed() {
        let topo = Topology::new(2, 3);
        let plane = FaultPlane::new(
            99,
            FaultConfig {
                topology: topo,
                domain_outage_per_epoch: 0.02,
                domain_outage_epochs: (2, 4),
                ..FaultConfig::disabled()
            },
        );
        let mut saw_down = false;
        for epoch in 0..2_000u64 {
            let domain_state = plane.domain_down(0, epoch);
            saw_down |= domain_state;
            for pm in 0..topo.machines_per_domain() as u64 {
                assert_eq!(plane.machine_down(PmId(pm), epoch), domain_state);
            }
        }
        assert!(saw_down, "domain outages must fire in 2000 epochs");
    }

    #[test]
    fn drains_give_notice_then_go_offline() {
        let plane = correlated();
        let notice = plane.config().drain_notice_epochs;
        let (min_off, _) = plane.config().maintenance_epochs;
        let mut saw_drain = false;
        for pm in 0..16u64 {
            let pm = PmId(pm);
            for start in 1..1_500u64 {
                if !plane.fires(KIND_DRAIN_START, pm.0, start, 0.02) {
                    continue;
                }
                saw_drain = true;
                // Notice phase: draining (unless an unrelated outage covers
                // the epoch) with a countdown reaching 1 just before
                // offline.
                assert!(plane.drain_remaining(pm, start) >= notice);
                // ≥ 1 (not == 1): an overlapping later drain extends the
                // deadline.
                assert!(
                    plane.drain_remaining(pm, start + notice - 1) >= 1,
                    "countdown must still cover the last notice epoch"
                );
                // Offline phase: down for at least the minimum window.
                for off in 0..min_off {
                    assert!(
                        plane.in_maintenance(pm, start + notice + off),
                        "{pm} not offline {off} epochs into maintenance"
                    );
                    assert!(plane.machine_down(pm, start + notice + off));
                    assert!(
                        !plane.machine_draining(pm, start + notice + off),
                        "down machines must not report draining"
                    );
                }
            }
        }
        assert!(saw_drain, "2% drains must fire across 16 machines");
    }

    #[test]
    fn drain_notice_is_never_down_without_another_fault() {
        // Drains alone: the notice phase must leave the machine up.
        let plane = FaultPlane::new(
            5,
            FaultConfig {
                machine_drain_per_epoch: 0.03,
                drain_notice_epochs: 4,
                maintenance_epochs: (3, 6),
                ..FaultConfig::disabled()
            },
        );
        let mut draining_epochs = 0u64;
        for epoch in 0..3_000u64 {
            if plane.machine_draining(PmId(2), epoch) {
                draining_epochs += 1;
                assert!(!plane.machine_down(PmId(2), epoch));
            }
        }
        assert!(draining_epochs > 0, "no drain notice observed");
    }

    /// One window stream's rate and length range; half the ranges have
    /// `min == max`, and the rates run high enough for windows to overlap.
    fn window_strategy() -> impl Strategy<Value = (f64, (u64, u64))> {
        (0.01..0.5_f64, 1..6_u64, prop_oneof![Just(0_u64), 0..8_u64])
            .prop_map(|(rate, min, extra)| (rate, (min, min + extra)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The calendar answers every machine query exactly as the
        /// pointwise reference does, per machine per epoch: any subset of
        /// the four machine streams, topologies down to 1 × 1, fleets
        /// ending in a partial rack or domain, calendars started at epoch 0
        /// or long after it (the back-fill), and epochs that repeat or skip.
        #[test]
        fn the_calendar_matches_the_pointwise_reference(
            streams in 1..16_u32,
            crash in window_strategy(),
            rack in window_strategy(),
            domain in window_strategy(),
            drain in window_strategy(),
            notice in 1..12_u64,
            topology in (1..5_usize, 1..4_usize),
            machines in 1..24_usize,
            first_epoch in prop_oneof![Just(0_u64), 0..8_u64, 40..400_u64],
            gaps in proptest::collection::vec(prop_oneof![3 => 0..2_u64, 1 => 2..30_u64], 1..40),
            seed in 0..u64::MAX,
        ) {
            let on = |bit: u32, rate: f64| if streams & bit != 0 { rate } else { 0.0 };
            let plane = FaultPlane::new(
                seed,
                FaultConfig {
                    topology: Topology::new(topology.0, topology.1),
                    machine_crash_per_epoch: on(1, crash.0),
                    repair_epochs: crash.1,
                    rack_outage_per_epoch: on(2, rack.0),
                    rack_outage_epochs: rack.1,
                    domain_outage_per_epoch: on(4, domain.0),
                    domain_outage_epochs: domain.1,
                    machine_drain_per_epoch: on(8, drain.0),
                    drain_notice_epochs: notice,
                    maintenance_epochs: drain.1,
                    ..FaultConfig::disabled()
                },
            );
            let mut calendar = FaultCalendar::new(plane, machines, first_epoch);
            let mut epoch = first_epoch;
            for gap in gaps {
                for pm in (0..machines as u64).map(PmId) {
                    prop_assert_eq!(
                        (
                            calendar.machine_down(pm),
                            calendar.in_maintenance(pm),
                            calendar.drain_remaining(pm),
                            calendar.machine_draining(pm),
                        ),
                        (
                            plane.machine_down(pm, epoch),
                            plane.in_maintenance(pm, epoch),
                            plane.drain_remaining(pm, epoch),
                            plane.machine_draining(pm, epoch),
                        ),
                        "{} at epoch {}",
                        pm,
                        epoch
                    );
                }
                epoch += gap;
                calendar.advance_to(epoch);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn out_of_range_rates_are_rejected() {
        FaultPlane::new(
            1,
            FaultConfig {
                migration_failure: 1.5,
                ..FaultConfig::disabled()
            },
        );
    }

    #[test]
    #[should_panic(expected = "1 <= min <= max")]
    fn inverted_windows_are_rejected() {
        FaultPlane::new(
            1,
            FaultConfig {
                repair_epochs: (9, 3),
                ..FaultConfig::disabled()
            },
        );
    }

    #[test]
    #[should_panic(expected = "drain_notice_epochs")]
    fn zero_drain_notice_is_rejected() {
        FaultPlane::new(
            1,
            FaultConfig {
                drain_notice_epochs: 0,
                ..FaultConfig::disabled()
            },
        );
    }

    #[test]
    #[should_panic(expected = "machines_per_rack")]
    fn zero_topology_dimensions_are_rejected() {
        Topology::new(0, 4);
    }
}
