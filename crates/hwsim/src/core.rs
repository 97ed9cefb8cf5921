//! In-core execution model.
//!
//! The "core" component of the paper's augmented CPI stack (§4.2) is the time
//! a VM spends actually executing instructions and hitting in its private
//! caches — everything that is *not* a shared-resource stall.  We model it as
//! a base CPI plus a branch-misprediction penalty; private L1 misses that hit
//! in the shared cache are charged to the off-core component by the
//! contention resolver, matching the paper's definition of `T_core`.

/// Cycles lost per mispredicted branch (pipeline refill on Core-2-era parts).
pub(crate) const BRANCH_MISS_PENALTY_CYCLES: f64 = 15.0;

/// Cycle cost of executing a given number of instructions in-core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreCost {
    /// Cycles spent on useful execution at the base CPI.
    pub execution_cycles: f64,
    /// Cycles lost to branch mispredictions.
    pub branch_stall_cycles: f64,
}

impl CoreCost {
    /// Total in-core cycles.
    pub fn total(&self) -> f64 {
        self.execution_cycles + self.branch_stall_cycles
    }
}

/// Computes the in-core cycle cost of retiring `instructions` with the given
/// base CPI and branch misprediction rate (mispredictions per kilo-instruction).
pub fn core_cycles(instructions: f64, base_cpi: f64, branch_mpki: f64) -> CoreCost {
    let instructions = instructions.max(0.0);
    let execution_cycles = instructions * base_cpi.max(0.0);
    let branch_stall_cycles =
        instructions * branch_mpki.max(0.0) / 1_000.0 * BRANCH_MISS_PENALTY_CYCLES;
    CoreCost {
        execution_cycles,
        branch_stall_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_instructions_cost_nothing() {
        let c = core_cycles(0.0, 1.0, 10.0);
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn execution_cycles_scale_with_cpi() {
        let a = core_cycles(1.0e9, 0.5, 0.0);
        let b = core_cycles(1.0e9, 1.0, 0.0);
        assert!((b.execution_cycles - 2.0 * a.execution_cycles).abs() < 1e-3);
    }

    #[test]
    fn branch_penalty_is_additive() {
        let no_miss = core_cycles(1.0e9, 0.8, 0.0);
        let misses = core_cycles(1.0e9, 0.8, 10.0);
        let expected_extra = 1.0e9 * 10.0 / 1_000.0 * BRANCH_MISS_PENALTY_CYCLES;
        assert!((misses.total() - no_miss.total() - expected_extra).abs() < 1.0);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let c = core_cycles(-5.0, -1.0, -2.0);
        assert_eq!(c.total(), 0.0);
    }
}
