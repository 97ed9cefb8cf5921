//! Random processes behind the VM-arrival traces: Zipf application
//! popularity, Poisson and lognormal VM-arrival processes, and lognormal
//! session lifetimes.
//!
//! Figures 13 and 14 of the paper drive the profiling-farm queueing model
//! with: (i) a Poisson VM-arrival process, (ii) a lognormal arrival process
//! for the "burstier" scenario, and (iii) a Zipf/Pareto distribution of how
//! many VMs run the same application (the global-information experiments,
//! with tail index α from 1.0 to 2.5).  All samplers are seeded and
//! deterministic for reproducibility; [`crate::arrivals`] is their only
//! consumer.
//!
//! The two continuous laws are sampled by hand over the workspace `rand`
//! stand-in: the exponential by inverse transform, the normal under the
//! lognormal by Box–Muller.  Both match their laws exactly, and the draw
//! order is part of every trace's bits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf distribution over ranks `1..=n` with exponent `alpha`.
///
/// Used to model application popularity: a handful of tenants run their code
/// on a large number of VMs while the long tail runs a few VMs each (§5.5).
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    /// `cumulative[k]` is the probability of a rank at most `k + 1`.
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf distribution over `n` ranks with tail index `alpha > 0`.
    pub(crate) fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "Zipf exponent must be positive and finite"
        );
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cumulative.push(acc);
        }
        // Guard against floating-point drift in the final bucket.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self { cumulative }
    }

    /// Samples a rank in `1..=n`.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self.cumulative.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(idx) => idx + 1,
            Err(idx) => (idx + 1).min(self.cumulative.len()),
        }
    }
}

/// Generates arrival times (seconds from 0) over a horizon for a Poisson
/// process with the given mean arrivals per day.
pub(crate) fn poisson_arrivals(arrivals_per_day: f64, horizon_seconds: f64, seed: u64) -> Vec<f64> {
    assert!(
        arrivals_per_day > 0.0 && arrivals_per_day.is_finite(),
        "arrival rate must be positive and finite"
    );
    assert!(horizon_seconds > 0.0, "horizon must be positive");
    let rate_per_second = arrivals_per_day / 86_400.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut arrivals = Vec::new();
    loop {
        t += exponential(&mut rng, rate_per_second);
        if t > horizon_seconds {
            break;
        }
        arrivals.push(t);
    }
    arrivals
}

/// Generates arrival times over a horizon with lognormally distributed
/// inter-arrival gaps whose *mean* matches the requested daily rate.
///
/// `sigma` controls burstiness (the paper uses this to model "burstier
/// workload behaviors", Fig. 14); larger sigma means heavier clumping.
pub(crate) fn lognormal_arrivals(
    arrivals_per_day: f64,
    horizon_seconds: f64,
    sigma: f64,
    seed: u64,
) -> Vec<f64> {
    assert!(
        arrivals_per_day > 0.0 && arrivals_per_day.is_finite(),
        "arrival rate must be positive and finite"
    );
    assert!(horizon_seconds > 0.0, "horizon must be positive");
    assert!(
        sigma > 0.0 && sigma.is_finite(),
        "lognormal sigma must be positive and finite"
    );
    let mean_gap = 86_400.0 / arrivals_per_day;
    // For LogNormal(mu, sigma), mean = exp(mu + sigma^2 / 2); pick mu so the
    // mean inter-arrival gap matches the Poisson case.
    let mu = mean_gap.ln() - sigma * sigma / 2.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut arrivals = Vec::new();
    loop {
        t += lognormal(&mut rng, mu, sigma);
        if t > horizon_seconds {
            break;
        }
        arrivals.push(t);
    }
    arrivals
}

/// Samples `count` lognormally distributed durations (seconds) with the
/// given **median** and shape `sigma`.
///
/// Used for VM session lifetimes in the datacenter service model: lifetime
/// distributions in production traces are heavy-tailed, with most sessions
/// short and a long tail of near-permanent VMs.  The median (not the mean)
/// is the natural anchor for a lognormal — `exp(mu)` exactly.
pub(crate) fn lognormal_durations(median_s: f64, sigma: f64, count: usize, seed: u64) -> Vec<f64> {
    assert!(
        median_s > 0.0 && median_s.is_finite(),
        "median duration must be positive and finite"
    );
    assert!(
        sigma > 0.0 && sigma.is_finite(),
        "lognormal sigma must be positive and finite"
    );
    let mu = median_s.ln();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| lognormal(&mut rng, mu, sigma)).collect()
}

/// One exponential draw with rate `lambda` (mean `1/lambda`), by inverse
/// transform; `1 - u` is in (0, 1], so the log is finite.
fn exponential(rng: &mut StdRng, lambda: f64) -> f64 {
    let u = rng.gen_f64();
    -(1.0 - u).ln() / lambda
}

/// One lognormal draw, `exp(N(mu, sigma^2))`.
fn lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// One standard-normal draw via Box–Muller (two uniforms, the first
/// redrawn while it is zero).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = loop {
        let u = rng.gen_f64();
        if u > 0.0 {
            break u;
        }
    };
    let u2 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::burstiness;

    /// Each rank's probability: the steps of the cumulative table.
    fn probabilities(z: &Zipf) -> Vec<f64> {
        let mut below = 0.0;
        z.cumulative
            .iter()
            .map(|&c| c - std::mem::replace(&mut below, c))
            .collect()
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decay() {
        let p = probabilities(&Zipf::new(100, 1.5));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&q| q > 0.0));
        assert!(p[0] > p[1]);
        assert!(p[1] > p[49]);
    }

    #[test]
    fn zipf_higher_alpha_concentrates_mass_on_head() {
        let light = probabilities(&Zipf::new(1000, 1.0));
        let heavy = probabilities(&Zipf::new(1000, 2.5));
        assert!(heavy[0] > light[0]);
    }

    #[test]
    fn zipf_samples_respect_rank_range_and_skew() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 51];
        for _ in 0..20_000 {
            let k = z.sample(&mut rng);
            assert!((1..=50).contains(&k));
            counts[k] += 1;
        }
        assert!(counts[1] > counts[10]);
        assert!(counts[1] > counts[40]);
    }

    #[test]
    fn lognormal_durations_anchor_on_the_median() {
        let durations = lognormal_durations(7_200.0, 1.5, 10_001, 8);
        assert_eq!(durations.len(), 10_001);
        assert!(durations.iter().all(|&d| d > 0.0));
        let mut sorted = durations.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        assert!(
            (5_000.0..10_000.0).contains(&median),
            "sample median {median} strayed from 7200"
        );
        // Heavy tail: the mean sits well above the median.
        let mean: f64 = durations.iter().sum::<f64>() / durations.len() as f64;
        assert!(mean > 1.5 * median, "mean {mean} vs median {median}");
        assert_eq!(durations, lognormal_durations(7_200.0, 1.5, 10_001, 8));
    }

    #[test]
    fn poisson_arrival_count_is_close_to_rate() {
        // 1000 VMs/day over 3 days should give roughly 3000 arrivals.
        let arrivals = poisson_arrivals(1_000.0, 3.0 * 86_400.0, 42);
        assert!(
            (2_700..3_300).contains(&arrivals.len()),
            "got {}",
            arrivals.len()
        );
        assert!(
            arrivals.windows(2).all(|w| w[1] >= w[0]),
            "arrivals must be sorted"
        );
    }

    #[test]
    fn lognormal_matches_mean_rate_but_is_burstier() {
        let poisson = poisson_arrivals(1_000.0, 3.0 * 86_400.0, 7);
        let lognormal = lognormal_arrivals(1_000.0, 3.0 * 86_400.0, 2.0, 7);
        // Similar volume...
        let ratio = lognormal.len() as f64 / poisson.len() as f64;
        assert!((0.6..1.4).contains(&ratio), "volume ratio {ratio}");
        // ...but much burstier inter-arrival gaps.
        assert!(burstiness(&lognormal) > burstiness(&poisson) * 1.5);
    }

    #[test]
    fn arrival_processes_are_deterministic_per_seed() {
        assert_eq!(
            poisson_arrivals(100.0, 86_400.0, 5),
            poisson_arrivals(100.0, 86_400.0, 5)
        );
        assert_ne!(
            poisson_arrivals(100.0, 86_400.0, 5),
            poisson_arrivals(100.0, 86_400.0, 6)
        );
    }

    #[test]
    fn burstiness_of_regular_sequence_is_zero() {
        let regular: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(burstiness(&regular) < 1e-12);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let (mu, sigma) = (1.0, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| lognormal(&mut rng, mu, sigma)).sum::<f64>() / n as f64;
        let expected = (mu + sigma * sigma / 2.0_f64).exp();
        assert!(
            (mean / expected - 1.0).abs() < 0.02,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(exponential(&mut rng, 1.0) >= 0.0);
            assert!(lognormal(&mut rng, 0.0, 1.0) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_zero_ranks() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn poisson_rejects_zero_rate() {
        poisson_arrivals(0.0, 10.0, 1);
    }
}
