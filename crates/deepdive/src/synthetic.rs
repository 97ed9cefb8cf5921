//! The synthetic benchmark (§4.3).
//!
//! To evaluate a migration *without actually migrating*, DeepDive runs "a
//! novel synthetic benchmark that can mimic the behavior of an arbitrary VM":
//! a collection of loops exercising cache, memory, disk and network whose
//! iteration counts are chosen so that the benchmark reproduces the metric
//! values collected from the real VM.  Training the mapping from benchmark
//! inputs to metric values is done once per server type with "a standard
//! regression algorithm"; mimicking a VM then amounts to inverting that
//! mapping for the VM's observed metrics.
//!
//! In this reproduction the "loops" are a parameterized
//! [`hwsim::ResourceDemand`] generator ([`BenchmarkInputs`]), the training
//! runs are solo executions on the target machine model, the regression is
//! `regression::LinearRegression`, and the inversion is the bounded
//! least-squares search in `regression::invert_inputs`.

use crate::regression::{invert_inputs, LinearRegression};
use cloudsim::rngs::splitmix64;
use hwsim::{EpochResolver, MachineSpec, ResourceDemand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::BehaviorVector;

/// Tunable knobs of the synthetic benchmark — the inputs whose values the
/// training phase learns to map onto metric values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkInputs {
    /// Instructions executed per epoch (the compute loop's iteration count).
    pub instructions: f64,
    /// Working-set size touched by the memory loop, in MiB.
    pub working_set_mb: f64,
    /// Memory-access aggressiveness in `[0, 1]` (how many of the loop's
    /// accesses miss the private caches).
    pub memory_intensity: f64,
    /// Disk transfer rate exercised by the I/O loop, in MiB per epoch.
    pub disk_mb: f64,
    /// Network transfer rate exercised by the communication thread, in MiB
    /// per epoch (split evenly between send and receive).
    pub net_mb: f64,
    /// Number of parallel loop threads.
    pub parallelism: f64,
}

impl BenchmarkInputs {
    /// Bounds of the input space used for both training and inversion:
    /// `(min, max)` per field in declaration order.
    pub(crate) const BOUNDS: [(f64, f64); 6] = [
        (0.1e9, 6.0e9), // instructions
        (1.0, 512.0),   // working set MiB
        (0.0, 1.0),     // memory intensity
        (0.0, 60.0),    // disk MiB / epoch
        (0.0, 120.0),   // net MiB / epoch
        (1.0, 2.0),     // parallelism
    ];

    /// The inputs as a vector (training/inversion representation).
    pub(crate) fn to_vec(self) -> Vec<f64> {
        vec![
            self.instructions,
            self.working_set_mb,
            self.memory_intensity,
            self.disk_mb,
            self.net_mb,
            self.parallelism,
        ]
    }

    /// Builds inputs from the vector representation.
    ///
    /// # Panics
    /// Panics if `v` does not have six entries.
    pub(crate) fn from_vec(v: &[f64]) -> Self {
        assert_eq!(v.len(), 6, "benchmark inputs have six knobs");
        Self {
            instructions: v[0],
            working_set_mb: v[1],
            memory_intensity: v[2],
            disk_mb: v[3],
            net_mb: v[4],
            parallelism: v[5],
        }
    }

    /// The resource demand the benchmark's loops generate per epoch for these
    /// input values.
    pub fn demand(&self) -> ResourceDemand {
        let intensity = self.memory_intensity.clamp(0.0, 1.0);
        let cache_pressure = (self.working_set_mb / 128.0).min(1.0);
        ResourceDemand::builder()
            .instructions(self.instructions.max(0.0))
            .base_cpi(0.7)
            .mem_refs_per_instr(0.25 + 0.35 * intensity)
            .l1_mpki(5.0 + 65.0 * intensity)
            .llc_mpki_solo(0.5 + 42.0 * intensity * cache_pressure)
            .working_set_mb(self.working_set_mb.max(1.0))
            .locality((1.0 - intensity).clamp(0.0, 1.0))
            .branch_mpki(3.0)
            .parallelism(self.parallelism.clamp(1.0, 8.0))
            .disk_read_mb(self.disk_mb.max(0.0) * 0.5)
            .disk_write_mb(self.disk_mb.max(0.0) * 0.5)
            .disk_seq_fraction(0.7)
            .net_tx_mb(self.net_mb.max(0.0) * 0.5)
            .net_rx_mb(self.net_mb.max(0.0) * 0.5)
            .build()
    }
}

/// A trained synthetic benchmark for one server type.
#[derive(Debug, Clone)]
pub struct SyntheticBenchmark {
    /// The machine model the benchmark was trained for.
    pub spec: MachineSpec,
    model: LinearRegression,
    training_error: f64,
}

impl SyntheticBenchmark {
    /// Trains the benchmark for a server type (§4.3's once-per-server-type
    /// training phase): samples the input space, runs each sample solo on the
    /// machine model, and fits inputs → normalized metrics.
    ///
    /// Each sample draws from its own counter-derived RNG stream — a pure
    /// function of `(seed, sample index)`, the same SplitMix64 construction
    /// as `cloudsim::ClusterSeed` — so the fitted model is a pure function
    /// of `(spec, samples, seed)`.
    ///
    /// # Panics
    /// Panics if `samples` is smaller than the number of input knobs.
    pub fn train(spec: MachineSpec, samples: usize, seed: u64) -> Self {
        assert!(samples >= 8, "training needs at least a handful of samples");
        // One resolver serves every training run: each sample is a solo
        // resolve on the same machine model, so all scratch is shared.
        let mut resolver = EpochResolver::new(spec.clone());
        let (inputs, outputs): (Vec<_>, Vec<_>) = (0..samples)
            .map(|index| resolve_sample(seed, index, &mut resolver))
            .unzip();
        let model = LinearRegression::fit(&inputs, &outputs, 1e-6);
        let training_error = model.mse(&inputs, &outputs);
        Self {
            spec,
            model,
            training_error,
        }
    }

    /// Mean squared error of the trained regression on its own training set
    /// (useful as a sanity check on the fit quality).
    pub fn training_error(&self) -> f64 {
        self.training_error
    }

    /// Finds benchmark inputs that mimic a target behaviour — the learned
    /// inverse mapping of §4.3.
    ///
    /// `instructions_per_epoch` is the work rate observed on the real VM
    /// (e.g. its latest `inst_retired`). The behaviour vector is normalized
    /// per instruction, so the amount of work is *not* recoverable from it —
    /// yet it determines how much load the clone puts on shared resources,
    /// and therefore how much interference it suffers and causes. The clone
    /// must replay the real VM's rate, so that knob is pinned rather than
    /// searched.
    ///
    /// The regression inversion gives a good starting point; a short direct
    /// refinement against the machine model then compensates for the
    /// non-linearities (cache-capacity and bus-saturation knees) that a
    /// linear model cannot capture.  The paper notes that "more
    /// sophisticated workload synthesizers" exist but are unnecessary; this
    /// cheap refinement plays that role.
    pub fn mimic(&self, target: &BehaviorVector, instructions_per_epoch: f64) -> BenchmarkInputs {
        let mut bounds = BenchmarkInputs::BOUNDS;
        let pinned = instructions_per_epoch.clamp(bounds[0].0, bounds[0].1);
        bounds[0] = (pinned, pinned);
        let (raw, _err) = invert_inputs(&self.model, &target.to_vec(), &bounds, 80);
        self.refine(BenchmarkInputs::from_vec(&raw), target, &bounds, 12)
    }

    /// Coordinate-descent refinement of benchmark inputs directly against the
    /// machine model, minimizing the worst-dimension relative deviation from
    /// the target behaviour.
    fn refine(
        &self,
        start: BenchmarkInputs,
        target: &BehaviorVector,
        bounds: &[(f64, f64); 6],
        rounds: usize,
    ) -> BenchmarkInputs {
        // The refinement probes the machine model dozens of times; one
        // resolver shared across all probes keeps them allocation-free.
        let mut resolver = EpochResolver::new(self.spec.clone());
        let mut objective = |inputs: &BenchmarkInputs| -> f64 {
            run_solo_with(&mut resolver, inputs).max_relative_deviation(target)
        };
        let mut current = start.to_vec();
        let mut best = objective(&BenchmarkInputs::from_vec(&current));
        for round in 0..rounds {
            let scale = 0.5_f64.powi(round as i32 / 2);
            let mut improved = false;
            for dim in 0..current.len() {
                let (lo, hi) = bounds[dim];
                let step = (hi - lo) * 0.25 * scale;
                for candidate in [
                    (current[dim] - step).clamp(lo, hi),
                    (current[dim] + step).clamp(lo, hi),
                ] {
                    let mut trial = current.clone();
                    trial[dim] = candidate;
                    let err = objective(&BenchmarkInputs::from_vec(&trial));
                    if err + 1e-12 < best {
                        best = err;
                        current = trial;
                        improved = true;
                    }
                }
            }
            if !improved && scale < 0.1 {
                break;
            }
        }
        BenchmarkInputs::from_vec(&current)
    }
}

/// Draws and resolves one training sample from its own counter-derived
/// stream: a pure function of `(seed, index)`, independent of every other
/// sample.
fn resolve_sample(seed: u64, index: usize, resolver: &mut EpochResolver) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(index as u64)));
    let raw: Vec<f64> = BenchmarkInputs::BOUNDS
        .iter()
        .map(|(lo, hi)| rng.gen_range(*lo..=*hi))
        .collect();
    let sample = BenchmarkInputs::from_vec(&raw);
    let behavior = run_solo_with(resolver, &sample);
    (raw, behavior.to_vec())
}

/// Runs the benchmark with given inputs alone on `resolver`'s machine model
/// and returns the observed normalized behaviour (training and refinement
/// share one resolver across their runs).
fn run_solo_with(resolver: &mut EpochResolver, inputs: &BenchmarkInputs) -> BehaviorVector {
    let vcpus = inputs.parallelism.ceil().max(1.0) as usize;
    BehaviorVector::from_counters(&resolver.resolve_solo(0, &inputs.demand(), vcpus).counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> SyntheticBenchmark {
        SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 200, 7)
    }

    fn run_solo(spec: &MachineSpec, inputs: &BenchmarkInputs) -> BehaviorVector {
        run_solo_with(&mut EpochResolver::new(spec.clone()), inputs)
    }

    fn memory_heavy_inputs() -> BenchmarkInputs {
        BenchmarkInputs {
            instructions: 2.0e9,
            working_set_mb: 256.0,
            memory_intensity: 0.8,
            disk_mb: 0.0,
            net_mb: 0.0,
            parallelism: 2.0,
        }
    }

    fn io_heavy_inputs() -> BenchmarkInputs {
        BenchmarkInputs {
            instructions: 0.5e9,
            working_set_mb: 8.0,
            memory_intensity: 0.1,
            disk_mb: 30.0,
            net_mb: 80.0,
            parallelism: 1.0,
        }
    }

    #[test]
    fn inputs_round_trip_through_vec() {
        let i = memory_heavy_inputs();
        assert_eq!(BenchmarkInputs::from_vec(&i.to_vec()), i);
    }

    #[test]
    fn demand_reflects_the_knobs() {
        let mem = memory_heavy_inputs().demand();
        let io = io_heavy_inputs().demand();
        assert!(mem.llc_mpki_solo > io.llc_mpki_solo);
        assert!(io.disk_total_mb() > mem.disk_total_mb());
        assert!(io.net_total_mb() > mem.net_total_mb());
        assert!(mem.is_well_formed() && io.is_well_formed());
    }

    #[test]
    fn mimic_recovers_behaviour_of_known_inputs() {
        // Generate a target behaviour from known inputs, ask the benchmark to
        // mimic it, and check the mimicked behaviour is close (Fig. 10's
        // ~10% average error bound is the reference point).
        let bench = trained();
        for target_inputs in [memory_heavy_inputs(), io_heavy_inputs()] {
            let target = run_solo(&bench.spec, &target_inputs);
            let mimicked_inputs = bench.mimic(&target, target_inputs.instructions);
            let mimicked = run_solo(&bench.spec, &mimicked_inputs);
            let deviation = mimicked.max_relative_deviation(&target);
            assert!(
                deviation < 0.6,
                "mimicked behaviour deviates {deviation} from target ({target_inputs:?})"
            );
        }
    }

    #[test]
    fn mimicked_inputs_respect_bounds() {
        let bench = trained();
        let target = run_solo(&bench.spec, &memory_heavy_inputs());
        let inputs = bench
            .mimic(&target, memory_heavy_inputs().instructions)
            .to_vec();
        for (v, (lo, hi)) in inputs.iter().zip(&BenchmarkInputs::BOUNDS) {
            assert!(v >= lo && v <= hi, "input {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn training_reproduces_the_recorded_serial_model_bits() {
        // Bit patterns printed by the serial trainer at the last commit that
        // also had a scoped-thread and a pooled one (PR 15's tree): the one
        // training path left is that serial one.
        let bench = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 64, 11);
        let weights = &bench.model.weights;
        assert_eq!(bench.training_error().to_bits(), 0x419d_5e69_789a_9e0a);
        assert_eq!(weights[0][0].to_bits(), 0x3e49_e263_6007_ab07);
        assert_eq!(weights[9][5].to_bits(), 0xbf87_8289_c761_df6a);
    }

    #[test]
    fn mimicked_inputs_match_the_bits_recorded_before_the_inversion_rewrite() {
        // Golden bits printed by `mimic` while `invert_inputs` still built a
        // prediction vector and a trial copy per probe: the rewritten error
        // closure must keep every sum in its original order.  Targets are
        // the solo behaviours of three stressors at 2 vCPUs, six inputs each.
        use workloads::{AppId, DiskStress, MemoryStress, NetworkStress, Workload};
        let bench = trained();
        let mut rng = StdRng::seed_from_u64(0);
        let stressors: [Box<dyn Workload>; 3] = [
            Box::new(MemoryStress::new(AppId(1), 384.0)),
            Box::new(NetworkStress::new(AppId(2), 900.0)),
            Box::new(DiskStress::new(AppId(3), 80.0)),
        ];
        let mut resolver = EpochResolver::new(bench.spec.clone());
        let mut bits = Vec::new();
        for mut stressor in stressors {
            let demand = stressor.next_demand(1.0, &mut rng);
            let solo = resolver.resolve_solo(0, &demand, 2);
            let target = BehaviorVector::from_counters(&solo.counters);
            let inputs = bench.mimic(&target, demand.instructions).to_vec();
            bits.extend(inputs.iter().map(|v| v.to_bits()));
        }
        #[rustfmt::skip]
        const GOLDEN: [u64; 18] = [
            0x41e2a05f20000000, 0x4080000000000000, 0x3ff0000000000000, // memory
            0x402e000000000000, 0x405e000000000000, 0x3ff0000000000000,
            0x41b1e1a300000000, 0x3ff0000000000000, 0x3fbf010000010000, // network
            0x0000000000000000, 0x404b2fffffffc400, 0x4000000000000000,
            0x41a7d78400000000, 0x3ff0000000000000, 0x3fbef00000010000, // disk
            0x404157ffffffe200, 0x3ffdfffffff88000, 0x4000000000000000,
        ];
        assert_eq!(bits, GOLDEN);
    }

    #[test]
    fn training_error_is_reported_and_finite() {
        let bench = trained();
        assert!(bench.training_error().is_finite());
        assert!(bench.training_error() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "handful of samples")]
    fn too_few_training_samples_rejected() {
        SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 2, 1);
    }
}
