//! Diurnal load-intensity traces in the style of the HotMail traces.
//!
//! The paper replays Microsoft HotMail load traces from September 2009:
//! hourly averages of the aggregated load across thousands of servers,
//! normalized so that the maximum number of active sessions stays within the
//! testbed's capacity (§5.1).  We generate a synthetic equivalent with the
//! same relevant structure: a strong diurnal cycle (quiet nights, busy
//! afternoons), mild day-to-day variation, and small per-hour noise, scaled
//! into `[min_load, max_load]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A load-intensity trace sampled at one-hour granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    /// Load level per hour, each in `[0, 1]` (fraction of peak capacity).
    pub hourly_load: Vec<f64>,
}

impl LoadTrace {
    /// Generates a diurnal trace spanning `days` days.
    ///
    /// * `min_load` / `max_load` — the trough and peak of the diurnal cycle.
    /// * `seed` — RNG seed for the hour-level noise and day-level variation.
    ///
    /// # Panics
    /// Panics if the bounds are not `0 ≤ min < max ≤ 1` or `days` is zero.
    pub fn diurnal(days: usize, min_load: f64, max_load: f64, seed: u64) -> Self {
        assert!(days > 0, "trace must span at least one day");
        assert!(
            (0.0..1.0).contains(&min_load) && min_load < max_load && max_load <= 1.0,
            "load bounds must satisfy 0 <= min < max <= 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hourly = Vec::with_capacity(days * 24);
        for _day in 0..days {
            // Day-to-day amplitude wobble of up to ±10%.
            let day_scale = 1.0 + rng.gen_range(-0.1..=0.1);
            for hour in 0..24 {
                // Peak around 15:00, trough around 03:00 local time.
                let phase = (hour as f64 - 15.0) / 24.0 * std::f64::consts::TAU;
                let diurnal = 0.5 * (1.0 + phase.cos());
                let noise = rng.gen_range(-0.03..=0.03);
                let level = min_load + (max_load - min_load) * (diurnal * day_scale + noise);
                hourly.push(level.clamp(0.0, 1.0));
            }
        }
        Self {
            hourly_load: hourly,
        }
    }

    /// A constant-load trace (used for the EC2 motivation experiment, where
    /// the workload and resources are fixed and only interference varies).
    pub fn constant(days: usize, load: f64) -> Self {
        assert!(days > 0, "trace must span at least one day");
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        Self {
            hourly_load: vec![load; days * 24],
        }
    }

    /// Load level at a given epoch (one epoch = one second), holding each
    /// hourly value for the whole hour and wrapping around at the end of the
    /// trace.
    pub fn load_at_epoch(&self, epoch: u64) -> f64 {
        let hour = (epoch / 3_600) as usize % self.hourly_load.len();
        self.hourly_load[hour]
    }

    /// Load level for a given hour index (wrapping).
    pub fn load_at_hour(&self, hour: usize) -> f64 {
        self.hourly_load[hour % self.hourly_load.len()]
    }

    /// Number of hours in the trace.
    pub fn hours(&self) -> usize {
        self.hourly_load.len()
    }

    /// Peak load in the trace.
    pub fn peak(&self) -> f64 {
        self.hourly_load.iter().cloned().fold(0.0, f64::max)
    }

    /// Trough load in the trace.
    pub fn trough(&self) -> f64 {
        self.hourly_load.iter().cloned().fold(1.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_trace_has_expected_length_and_range() {
        let t = LoadTrace::diurnal(3, 0.2, 0.9, 1);
        assert_eq!(t.hours(), 72);
        assert!(t.hourly_load.iter().all(|l| (0.0..=1.0).contains(l)));
        assert!(t.peak() > 0.7, "peak {}", t.peak());
        assert!(t.trough() < 0.4, "trough {}", t.trough());
    }

    #[test]
    fn afternoon_is_busier_than_night() {
        let t = LoadTrace::diurnal(3, 0.2, 0.9, 7);
        // Average 15:00 load across days vs average 03:00 load.
        let afternoon: f64 = (0..3).map(|d| t.load_at_hour(d * 24 + 15)).sum::<f64>() / 3.0;
        let night: f64 = (0..3).map(|d| t.load_at_hour(d * 24 + 3)).sum::<f64>() / 3.0;
        assert!(
            afternoon > night + 0.3,
            "afternoon {afternoon} vs night {night}"
        );
    }

    #[test]
    fn epoch_lookup_holds_hourly_value_and_wraps() {
        let t = LoadTrace::diurnal(1, 0.2, 0.8, 3);
        assert_eq!(t.load_at_epoch(0), t.load_at_hour(0));
        assert_eq!(t.load_at_epoch(3_599), t.load_at_hour(0));
        assert_eq!(t.load_at_epoch(3_600), t.load_at_hour(1));
        // Wraps after 24 hours.
        assert_eq!(t.load_at_epoch(24 * 3_600), t.load_at_hour(0));
    }

    #[test]
    fn constant_trace_is_flat() {
        let t = LoadTrace::constant(2, 0.6);
        assert_eq!(t.hours(), 48);
        assert!(t.hourly_load.iter().all(|l| (*l - 0.6).abs() < 1e-12));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            LoadTrace::diurnal(2, 0.1, 0.9, 5),
            LoadTrace::diurnal(2, 0.1, 0.9, 5)
        );
        assert_ne!(
            LoadTrace::diurnal(2, 0.1, 0.9, 5),
            LoadTrace::diurnal(2, 0.1, 0.9, 6)
        );
    }

    #[test]
    #[should_panic(expected = "load bounds")]
    fn invalid_bounds_rejected() {
        LoadTrace::diurnal(1, 0.9, 0.5, 1);
    }
}
