//! VM-arrival traces for the profiling-scalability experiments.
//!
//! Figures 13 and 14 model a datacenter receiving 1000 new VMs per day.
//! Each arriving VM runs some application; how many *other* VMs run the same
//! application follows a Zipf/Pareto popularity distribution (the paper
//! sweeps the tail index α from 1.0 to 2.5, plus the "no global information"
//! case where every VM is unique).  The arrival instants follow either a
//! Poisson process (Fig. 13) or a burstier lognormal process (Fig. 14).
//!
//! This module turns those ingredients into a concrete [`VmArrival`] stream
//! consumed by the queueing simulator — and, for the event-driven
//! datacenter front end, into full [`VmSession`] lifecycles (arrival,
//! active lifetime at some load, departure) via the [`hotmail_sessions`]
//! and [`ec2_sessions`] presets.

use analytics::distributions::{lognormal_arrivals, lognormal_durations, poisson_arrivals, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hotmail::LoadTrace;

/// Which inter-arrival process generates the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless arrivals (Fig. 13).
    Poisson,
    /// Bursty lognormal arrivals with the given sigma (Fig. 14; the paper
    /// calls this the "burstier VM-arrival distribution").
    Lognormal {
        /// Shape parameter of the lognormal inter-arrival distribution.
        sigma: f64,
    },
}

/// One VM arriving at the datacenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmArrival {
    /// Arrival time in seconds from the start of the experiment.
    pub arrival_s: f64,
    /// Application (popularity rank) the VM runs; VMs with the same
    /// `app_rank` run the same code, which is what lets DeepDive reuse
    /// behaviour learned from one of them for the others.
    pub app_rank: usize,
}

/// Generates an arrival stream.
///
/// * `arrivals_per_day` — mean arrival rate (the paper uses 1000/day).
/// * `horizon_days` — experiment length.
/// * `model` — Poisson or lognormal inter-arrivals.
/// * `popularity` — `Some((n_apps, alpha))` draws each VM's application from
///   a Zipf distribution over `n_apps` ranks with tail index `alpha`;
///   `None` models the "no global information" case where every VM runs a
///   distinct application (each arrival gets a unique rank).
/// * `seed` — RNG seed.
pub fn generate_arrivals(
    arrivals_per_day: f64,
    horizon_days: f64,
    model: ArrivalModel,
    popularity: Option<(usize, f64)>,
    seed: u64,
) -> Vec<VmArrival> {
    assert!(arrivals_per_day > 0.0, "arrival rate must be positive");
    assert!(horizon_days > 0.0, "horizon must be positive");
    let horizon_s = horizon_days * 86_400.0;
    let times = match model {
        ArrivalModel::Poisson => poisson_arrivals(arrivals_per_day, horizon_s, seed),
        ArrivalModel::Lognormal { sigma } => {
            lognormal_arrivals(arrivals_per_day, horizon_s, sigma, seed)
        }
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed));
    let zipf = popularity.map(|(n, alpha)| Zipf::new(n, alpha));
    times
        .into_iter()
        .enumerate()
        .map(|(i, arrival_s)| VmArrival {
            arrival_s,
            app_rank: match &zipf {
                Some(z) => z.sample(&mut rng),
                // Unique application per VM: global information never helps.
                None => i + 1,
            },
        })
        .collect()
}

/// One VM's full lifecycle at the datacenter front end: it arrives, runs
/// its application at `active_load` until its lifetime elapses, and then
/// departs.  Consumed by the event-driven datacenter service, which turns
/// sessions into placements, per-epoch offered loads and deallocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSession {
    /// Arrival time in seconds from the start of the experiment.
    pub arrival_s: f64,
    /// How long the VM stays, in seconds (heavy-tailed in both presets:
    /// most sessions are short, a few near-permanent).
    pub lifetime_s: f64,
    /// Offered load in `[0, 1]` while the VM is alive.
    pub active_load: f64,
    /// Application (popularity rank) the VM runs; same meaning as
    /// [`VmArrival::app_rank`].
    pub app_rank: usize,
}

/// Hotmail-style session preset: Poisson arrivals thinned by the diurnal
/// load pattern of Fig. 2 (nights and weekends arrive fewer VMs), lognormal
/// lifetimes with a 2-hour median, and per-VM active loads that track the
/// diurnal intensity at arrival time.  Applications follow a concentrated
/// Zipf (α = 1.8, 500 apps) — mail-farm fleets run many instances of few
/// binaries.
///
/// `arrivals_per_day` is the **peak** rate; diurnal thinning brings the
/// realized average below it.  Sessions come back sorted by arrival.
pub fn hotmail_sessions(arrivals_per_day: f64, horizon_days: f64, seed: u64) -> Vec<VmSession> {
    let trace_days = horizon_days.ceil().max(1.0) as usize;
    let trace = LoadTrace::diurnal(trace_days, 0.25, 1.0, seed);
    let base = poisson_arrivals(arrivals_per_day, horizon_days * 86_400.0, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x4077));
    let zipf = Zipf::new(500, 1.8);
    let kept: Vec<f64> = base
        .into_iter()
        .filter(|&t| {
            let intensity = trace.load_at_epoch(t as u64);
            rng.gen_range(0.0..1.0) < intensity
        })
        .collect();
    let lifetimes = lognormal_durations(7_200.0, 1.2, kept.len(), seed.wrapping_add(0x11fe));
    kept.into_iter()
        .zip(lifetimes)
        .map(|(arrival_s, lifetime_s)| VmSession {
            arrival_s,
            lifetime_s,
            active_load: (trace.load_at_epoch(arrival_s as u64) * rng.gen_range(0.8..=1.0))
                .clamp(0.0, 1.0),
            app_rank: zipf.sample(&mut rng),
        })
        .collect()
}

/// EC2-style session preset: bursty lognormal arrivals (σ = 2 gaps — the
/// clumpy "burstier workload behaviors" of Fig. 14), heavier-tailed
/// lifetimes (1-hour median, σ = 2: lots of short-lived instances plus a
/// long-running tail) and a flat Zipf over many applications (α = 1.1,
/// 2000 apps — public-cloud tenants are diverse).  Active loads are drawn
/// uniformly from `[0.3, 0.9]` per VM, independent of arrival time.
///
/// Sessions come back sorted by arrival.
pub fn ec2_sessions(arrivals_per_day: f64, horizon_days: f64, seed: u64) -> Vec<VmSession> {
    let arrivals = lognormal_arrivals(arrivals_per_day, horizon_days * 86_400.0, 2.0, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xec2));
    let zipf = Zipf::new(2_000, 1.1);
    let lifetimes = lognormal_durations(3_600.0, 2.0, arrivals.len(), seed.wrapping_add(0x11fe));
    arrivals
        .into_iter()
        .zip(lifetimes)
        .map(|(arrival_s, lifetime_s)| VmSession {
            arrival_s,
            lifetime_s,
            active_load: rng.gen_range(0.3..=0.9),
            app_rank: zipf.sample(&mut rng),
        })
        .collect()
}

/// Fraction of arrivals whose application has already been seen earlier in
/// the stream — exactly the fraction of analyzer invocations that global
/// information can skip once the first VM of each application is profiled.
pub fn repeat_fraction(arrivals: &[VmArrival]) -> f64 {
    if arrivals.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::HashSet::new();
    let mut repeats = 0usize;
    for a in arrivals {
        if !seen.insert(a.app_rank) {
            repeats += 1;
        }
    }
    repeats as f64 / arrivals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_stream_matches_requested_rate() {
        let arr = generate_arrivals(1_000.0, 3.0, ArrivalModel::Poisson, Some((200, 1.5)), 1);
        assert!((2_600..3_400).contains(&arr.len()), "got {}", arr.len());
        assert!(arr.windows(2).all(|w| w[1].arrival_s >= w[0].arrival_s));
    }

    #[test]
    fn unique_apps_never_repeat() {
        let arr = generate_arrivals(500.0, 1.0, ArrivalModel::Poisson, None, 2);
        assert_eq!(repeat_fraction(&arr), 0.0);
        let ranks: std::collections::HashSet<usize> = arr.iter().map(|a| a.app_rank).collect();
        assert_eq!(ranks.len(), arr.len());
    }

    #[test]
    fn heavier_tails_mean_more_repeats() {
        let light = generate_arrivals(1_000.0, 2.0, ArrivalModel::Poisson, Some((500, 1.0)), 3);
        let heavy = generate_arrivals(1_000.0, 2.0, ArrivalModel::Poisson, Some((500, 2.5)), 3);
        // With α = 2.5 almost all VMs run the handful of head applications,
        // so far more arrivals are repeats than under α = 1.0.
        assert!(repeat_fraction(&heavy) > repeat_fraction(&light));
        assert!(
            repeat_fraction(&heavy) > 0.8,
            "heavy {}",
            repeat_fraction(&heavy)
        );
    }

    #[test]
    fn lognormal_stream_is_generated_and_ordered() {
        let arr = generate_arrivals(
            1_000.0,
            1.0,
            ArrivalModel::Lognormal { sigma: 2.0 },
            Some((100, 1.5)),
            4,
        );
        assert!(!arr.is_empty());
        assert!(arr.windows(2).all(|w| w[1].arrival_s >= w[0].arrival_s));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_arrivals(200.0, 1.0, ArrivalModel::Poisson, Some((50, 1.2)), 9);
        let b = generate_arrivals(200.0, 1.0, ArrivalModel::Poisson, Some((50, 1.2)), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn repeat_fraction_of_empty_stream_is_zero() {
        assert_eq!(repeat_fraction(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_rejected() {
        generate_arrivals(0.0, 1.0, ArrivalModel::Poisson, None, 1);
    }

    #[test]
    fn hotmail_sessions_are_sorted_deterministic_and_diurnally_thinned() {
        let sessions = hotmail_sessions(4_000.0, 2.0, 17);
        assert!(!sessions.is_empty());
        assert!(sessions
            .windows(2)
            .all(|w| w[1].arrival_s >= w[0].arrival_s));
        assert_eq!(sessions, hotmail_sessions(4_000.0, 2.0, 17));
        for s in &sessions {
            assert!(s.lifetime_s > 0.0);
            assert!((0.0..=1.0).contains(&s.active_load));
            assert!(s.app_rank >= 1 && s.app_rank <= 500);
        }
        // Thinning keeps strictly fewer VMs than the peak-rate stream, but
        // the diurnal trough (0.25) bounds how many it can drop.
        let n = sessions.len() as f64;
        assert!(n < 8_000.0, "thinning must discard some arrivals, got {n}");
        assert!(n > 2_000.0 * 0.8, "thinning dropped too much, got {n}");
    }

    #[test]
    fn ec2_sessions_are_burstier_and_more_diverse_than_hotmail() {
        let hotmail = hotmail_sessions(2_000.0, 2.0, 23);
        let ec2 = ec2_sessions(2_000.0, 2.0, 23);
        assert!(!ec2.is_empty());
        assert!(ec2.windows(2).all(|w| w[1].arrival_s >= w[0].arrival_s));
        assert_eq!(ec2, ec2_sessions(2_000.0, 2.0, 23));
        let spread = |s: &[VmSession]| {
            s.iter()
                .map(|v| v.app_rank)
                .collect::<std::collections::HashSet<_>>()
                .len() as f64
                / s.len() as f64
        };
        assert!(
            spread(&ec2) > spread(&hotmail),
            "EC2 app mix must be flatter: {} vs {}",
            spread(&ec2),
            spread(&hotmail)
        );
        let gaps = |s: &[VmSession]| s.iter().map(|v| v.arrival_s).collect::<Vec<_>>();
        assert!(
            analytics::distributions::burstiness(&gaps(&ec2))
                > analytics::distributions::burstiness(&gaps(&hotmail)),
            "lognormal arrivals must clump more than thinned Poisson"
        );
    }
}
