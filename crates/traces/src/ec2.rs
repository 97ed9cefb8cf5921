//! EC2-style interference-episode schedules.
//!
//! Section 5.1: the authors rented Amazon EC2 instances, ran their Data
//! Serving workload for three days, and labelled every interval whose
//! client-reported degradation exceeded 20% as a performance crisis.  Those
//! time slots — and the measured degradation depths — then drive *when* and
//! *how hard* the stress workloads are switched on in the testbed
//! experiments (Figs. 1 and 8).
//!
//! This module generates the equivalent schedule: a set of non-overlapping
//! episodes at random times of day, each with a duration and an intensity in
//! a configurable range.  The intensity is later mapped onto a stress
//! workload input (working-set size, Mbps, MB/s) by the evaluation harness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One contiguous period during which a co-located aggressor is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceEpisode {
    /// Episode start, in seconds from the beginning of the schedule.
    pub start_s: u64,
    /// Episode duration in seconds.
    pub duration_s: u64,
    /// Interference intensity in `[0, 1]`; 0 maps to the mildest stress
    /// configuration the paper uses, 1 to the harshest.
    pub intensity: f64,
}

impl InterferenceEpisode {
    /// Episode end (exclusive), in seconds.
    pub fn end_s(&self) -> u64 {
        self.start_s + self.duration_s
    }

    /// True when `t` (seconds) falls inside the episode.
    pub fn contains(&self, t: u64) -> bool {
        t >= self.start_s && t < self.end_s()
    }
}

/// A full schedule of interference episodes over an experiment horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceSchedule {
    /// Episodes ordered by start time, non-overlapping.
    pub episodes: Vec<InterferenceEpisode>,
    /// Total schedule horizon in seconds.
    pub horizon_s: u64,
}

impl InterferenceSchedule {
    /// Generates a schedule of `episodes_per_day` episodes per day over
    /// `days` days, each lasting between `min_duration_s` and
    /// `max_duration_s`, with intensities uniform in `[0.1, 1.0]`.
    ///
    /// Episodes are placed at random offsets and pushed forward if they would
    /// overlap a previous episode, mirroring the sporadic, non-overlapping
    /// crises visible in the paper's Figure 1.
    ///
    /// # Panics
    /// Panics on a zero horizon, zero episodes, or inverted duration bounds.
    pub fn generate(
        days: usize,
        episodes_per_day: usize,
        min_duration_s: u64,
        max_duration_s: u64,
        seed: u64,
    ) -> Self {
        assert!(days > 0, "schedule must span at least one day");
        assert!(episodes_per_day > 0, "need at least one episode per day");
        assert!(
            min_duration_s > 0 && min_duration_s <= max_duration_s,
            "invalid duration bounds"
        );
        let horizon_s = days as u64 * 86_400;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut episodes: Vec<InterferenceEpisode> = Vec::new();
        for day in 0..days as u64 {
            for _ in 0..episodes_per_day {
                let duration = rng.gen_range(min_duration_s..=max_duration_s);
                let latest_start = 86_400_u64.saturating_sub(duration).max(1);
                let mut start = day * 86_400 + rng.gen_range(0..latest_start);
                // Push forward past any previously placed overlapping episode.
                loop {
                    let overlaps = episodes
                        .iter()
                        .find(|e| start < e.end_s() && start + duration > e.start_s);
                    match overlaps {
                        Some(e) => start = e.end_s() + 60,
                        None => break,
                    }
                }
                if start + duration > horizon_s {
                    continue; // Dropped: would run past the horizon.
                }
                episodes.push(InterferenceEpisode {
                    start_s: start,
                    duration_s: duration,
                    intensity: rng.gen_range(0.1..=1.0),
                });
            }
        }
        episodes.sort_by_key(|e| e.start_s);
        Self {
            episodes,
            horizon_s,
        }
    }

    /// The active episode at time `t` (seconds), if any.
    pub fn active_at(&self, t: u64) -> Option<&InterferenceEpisode> {
        self.episodes.iter().find(|e| e.contains(t))
    }

    /// Interference intensity at time `t`; zero outside every episode.
    pub fn intensity_at(&self, t: u64) -> f64 {
        self.active_at(t).map(|e| e.intensity).unwrap_or(0.0)
    }

    /// Fraction of the horizon covered by episodes.
    pub fn coverage(&self) -> f64 {
        if self.horizon_s == 0 {
            return 0.0;
        }
        let covered: u64 = self.episodes.iter().map(|e| e.duration_s).sum();
        covered as f64 / self.horizon_s as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_volume_of_episodes() {
        let s = InterferenceSchedule::generate(3, 4, 600, 1_800, 1);
        assert!(s.episodes.len() >= 9, "got {}", s.episodes.len());
        assert!(s.episodes.len() <= 12);
        assert_eq!(s.horizon_s, 3 * 86_400);
    }

    #[test]
    fn episodes_do_not_overlap_and_are_sorted() {
        let s = InterferenceSchedule::generate(3, 6, 600, 3_600, 7);
        for w in s.episodes.windows(2) {
            assert!(w[0].end_s() <= w[1].start_s, "episodes overlap: {:?}", w);
        }
    }

    #[test]
    fn intensity_is_zero_outside_episodes_and_positive_inside() {
        let s = InterferenceSchedule::generate(1, 2, 600, 1_200, 3);
        let e = &s.episodes[0];
        assert!(s.intensity_at(e.start_s) > 0.0);
        assert!(s.intensity_at(e.end_s()) == 0.0 || s.active_at(e.end_s()).is_some());
        if e.start_s > 0 {
            assert_eq!(s.intensity_at(e.start_s - 1), 0.0);
        }
    }

    #[test]
    fn coverage_is_a_sane_fraction() {
        let s = InterferenceSchedule::generate(3, 4, 600, 1_800, 11);
        assert!(s.coverage() > 0.0);
        assert!(s.coverage() < 0.5, "coverage {}", s.coverage());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            InterferenceSchedule::generate(2, 3, 600, 1_200, 5),
            InterferenceSchedule::generate(2, 3, 600, 1_200, 5)
        );
    }

    #[test]
    fn episode_contains_is_half_open() {
        let e = InterferenceEpisode {
            start_s: 100,
            duration_s: 50,
            intensity: 0.5,
        };
        assert!(e.contains(100));
        assert!(e.contains(149));
        assert!(!e.contains(150));
        assert!(!e.contains(99));
    }

    #[test]
    #[should_panic(expected = "invalid duration bounds")]
    fn inverted_durations_rejected() {
        InterferenceSchedule::generate(1, 1, 100, 50, 1);
    }
}
