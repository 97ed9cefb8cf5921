//! Normalized behaviour vectors — DeepDive's view of a VM.
//!
//! The warning system reasons about VMs as points in an N-dimensional metric
//! space (§4.1, Fig. 3).  A [`BehaviorVector`] is one such point: a fixed set
//! of dimensions derived from the Table 1 counters, each normalized by the
//! amount of work performed (instructions retired) so that pure
//! load-intensity changes do not move the point.

use hwsim::CounterSnapshot;

/// Names of the metric-space dimensions, in vector order.
pub const DIMENSION_NAMES: [&str; 10] = [
    "cpi",
    "l1_misses_pki",
    "llc_lines_in_pki",
    "mem_loads_pki",
    "stall_cycles_pki",
    "bus_transactions_pki",
    "bus_outstanding_pki",
    "branch_misses_pki",
    "disk_stall_s_per_gi",
    "net_stall_s_per_gi",
];

/// Number of dimensions in the metric space.
pub const DIMENSIONS: usize = DIMENSION_NAMES.len();

/// A VM behaviour: one point in DeepDive's normalized metric space.
///
/// `Copy`: the vector is a small fixed-size array, so the controller's
/// steady-state epoch path can pass behaviours around without heap traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorVector {
    /// The dimension values, in [`DIMENSION_NAMES`] order.
    pub values: [f64; DIMENSIONS],
}

impl BehaviorVector {
    /// Derives the behaviour vector from a raw counter snapshot.
    ///
    /// Counts become per-kilo-instruction rates; I/O stall seconds become
    /// seconds per billion instructions; the first dimension is the plain
    /// CPI.  An idle snapshot (no instructions retired) maps to the origin.
    pub fn from_counters(counters: &CounterSnapshot) -> Self {
        if counters.inst_retired <= 0.0 {
            return Self {
                values: [0.0; DIMENSIONS],
            };
        }
        let pki = |v: f64| v * 1_000.0 / counters.inst_retired;
        let per_gi = |v: f64| v * 1.0e9 / counters.inst_retired;
        Self {
            values: [
                counters.cpi(),
                pki(counters.l1d_repl),
                pki(counters.l2_lines_in),
                pki(counters.mem_load),
                pki(counters.resource_stalls),
                pki(counters.bus_tran_any),
                pki(counters.bus_req_out),
                pki(counters.br_miss_pred),
                per_gi(counters.disk_stall_seconds),
                per_gi(counters.net_stall_seconds),
            ],
        }
    }

    /// The dimension values as a `Vec`, for the clustering code.
    pub fn to_vec(&self) -> Vec<f64> {
        self.values.to_vec()
    }

    /// Builds a behaviour from a plain vector.
    ///
    /// # Panics
    /// Panics if `values` does not have exactly [`DIMENSIONS`] entries.
    pub fn from_vec(values: &[f64]) -> Self {
        assert_eq!(
            values.len(),
            DIMENSIONS,
            "behaviour vector needs {DIMENSIONS} dimensions"
        );
        let mut out = [0.0; DIMENSIONS];
        out.copy_from_slice(values);
        Self { values: out }
    }

    /// Largest relative per-dimension deviation between two behaviours,
    /// using `other` as the reference (with a small floor to keep
    /// near-zero dimensions from exploding).
    pub fn max_relative_deviation(&self, other: &BehaviorVector) -> f64 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs() / b.abs().max(0.05))
            .fold(0.0, f64::max)
    }

    /// Euclidean distance to another behaviour.
    pub fn distance(&self, other: &BehaviorVector) -> f64 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Approximate serialized footprint in bytes (used for the §5.5 memory
    /// overhead accounting: one f64 per dimension).
    pub fn footprint_bytes(&self) -> usize {
        DIMENSIONS * std::mem::size_of::<f64>()
    }

    /// True when every dimension is finite and non-negative.
    pub fn is_well_formed(&self) -> bool {
        self.values.iter().all(|v| v.is_finite() && *v >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters(scale: f64) -> CounterSnapshot {
        CounterSnapshot {
            cpu_unhalted: 3.0e9 * scale,
            inst_retired: 2.0e9 * scale,
            l1d_repl: 5.0e7 * scale,
            l2_ifetch: 1.0e6 * scale,
            l2_lines_in: 4.0e6 * scale,
            mem_load: 5.6e8 * scale,
            resource_stalls: 9.0e8 * scale,
            bus_tran_any: 5.0e6 * scale,
            bus_trans_ifetch: 4.0e5 * scale,
            bus_tran_brd: 4.0e6 * scale,
            bus_req_out: 1.2e9 * scale,
            br_miss_pred: 8.0e6 * scale,
            disk_stall_seconds: 0.02 * scale,
            net_stall_seconds: 0.04 * scale,
        }
    }

    #[test]
    fn vector_has_documented_dimensionality() {
        let b = BehaviorVector::from_counters(&sample_counters(1.0));
        assert_eq!(b.to_vec().len(), DIMENSIONS);
        assert_eq!(DIMENSION_NAMES.len(), DIMENSIONS);
        assert!(b.is_well_formed());
    }

    #[test]
    fn normalization_makes_load_scaling_invisible() {
        let half = BehaviorVector::from_counters(&sample_counters(0.5));
        let full = BehaviorVector::from_counters(&sample_counters(1.0));
        assert!(
            half.distance(&full) < 1e-9,
            "distance {}",
            half.distance(&full)
        );
    }

    #[test]
    fn idle_counters_map_to_origin() {
        let b = BehaviorVector::from_counters(&CounterSnapshot::zero());
        assert!(b.values.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn cpi_is_first_dimension() {
        let b = BehaviorVector::from_counters(&sample_counters(1.0));
        assert!((b.values[0] - 1.5).abs() < 1e-12);
        assert_eq!(DIMENSION_NAMES[0], "cpi");
    }

    #[test]
    fn max_relative_deviation_flags_the_changed_dimension() {
        let base = BehaviorVector::from_counters(&sample_counters(1.0));
        let mut shifted = base;
        shifted.values[2] *= 4.0; // quadruple the LLC miss rate
        assert!(shifted.max_relative_deviation(&base) >= 3.0);
        assert!(base.max_relative_deviation(&base) < 1e-12);
    }

    #[test]
    fn footprint_matches_dimension_count() {
        let b = BehaviorVector::from_counters(&sample_counters(1.0));
        assert_eq!(b.footprint_bytes(), DIMENSIONS * 8);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn from_vec_rejects_wrong_length() {
        BehaviorVector::from_vec(&[1.0, 2.0]);
    }
}
