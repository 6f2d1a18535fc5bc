//! Multi-bit upset (MBU) injection — extension beyond the paper.
//!
//! Shrinking geometries make *multi*-bit upsets (one particle flipping
//! several adjacent flip-flops in the same cycle) increasingly relevant;
//! the paper's framework handles them with the same classification
//! semantics, only the injection step changes: `S'_t = S_t ⊕ mask`.
//! Notably, TMR — which corrects every single-bit flip — is defeated by
//! an MBU hitting two copies of the same bit, which the tests
//! demonstrate.

use seugrade_netlist::FfIndex;

use crate::{FaultOutcome, Grader};

/// A multi-bit fault: flip every listed flip-flop at the start of one
/// cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiFault {
    /// Flip-flops hit (distinct; order irrelevant).
    pub ffs: Vec<FfIndex>,
    /// Injection cycle.
    pub cycle: u32,
}

impl MultiFault {
    /// Creates a multi-bit fault descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `ffs` is empty or contains duplicates.
    #[must_use]
    pub fn new(ffs: Vec<FfIndex>, cycle: u32) -> Self {
        assert!(!ffs.is_empty(), "multi-fault needs at least one flip-flop");
        let mut sorted = ffs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ffs.len(), "duplicate flip-flop in multi-fault");
        MultiFault { ffs, cycle }
    }

    /// Number of bits flipped.
    #[must_use]
    pub fn multiplicity(&self) -> usize {
        self.ffs.len()
    }

    /// All adjacent `k`-bit faults for a given cycle count (models a
    /// particle strike spanning `k` physically neighbouring flip-flops
    /// under the netlist's flip-flop ordering).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds `num_ffs`.
    #[must_use]
    pub fn adjacent_pairs(num_ffs: usize, num_cycles: usize, k: usize) -> Vec<MultiFault> {
        assert!(k >= 1 && k <= num_ffs, "invalid multiplicity {k}");
        let mut list = Vec::new();
        for cycle in 0..num_cycles as u32 {
            for start in 0..=(num_ffs - k) {
                list.push(MultiFault::new(
                    (start..start + k).map(FfIndex::new).collect(),
                    cycle,
                ));
            }
        }
        list
    }
}

impl Grader {
    /// Grades one multi-bit fault with the compiled serial loop of
    /// [`classify_serial`](Self::classify_serial); only the injection
    /// differs. This is the production path of MBU campaigns
    /// (`Engine::run` of a multi-bit plan), not a reference: verdicts
    /// are checked against [`Oracle::classify_multi`](crate::Oracle::classify_multi).
    ///
    /// # Panics
    ///
    /// Panics if the cycle or any flip-flop index is out of range.
    #[must_use]
    pub fn classify_multi(&self, fault: &MultiFault) -> FaultOutcome {
        self.serial(&fault.ffs, fault.cycle)
    }
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::generators;
    use seugrade_sim::Testbench;

    use crate::{FaultClass, GradingSummary, Oracle};
    use super::*;

    #[test]
    fn adjacent_enumeration_shape() {
        let list = MultiFault::adjacent_pairs(5, 4, 2);
        assert_eq!(list.len(), 4 * 4);
        assert!(list.iter().all(|f| f.multiplicity() == 2));
        let singles = MultiFault::adjacent_pairs(5, 4, 1);
        assert_eq!(singles.len(), 20);
    }

    #[test]
    fn double_fault_in_counter_still_fails() {
        let circuit = generators::counter(4);
        let tb = Testbench::constant_low(0, 8);
        let g = Grader::new(&circuit, &tb);
        for f in MultiFault::adjacent_pairs(4, 8, 2) {
            let o = g.classify_multi(&f);
            assert_eq!(o.class, FaultClass::Failure);
            assert_eq!(o.detect_cycle, Some(f.cycle));
        }
    }

    #[test]
    fn tmr_survives_singles_but_not_all_doubles() {
        use seugrade_harden::tmr;
        let plain = generators::lfsr(5, &[4, 2]);
        let hardened = tmr(&plain);
        let tb = Testbench::constant_low(0, 16);
        let mut oracle = Oracle::new(&hardened, &tb);

        // All single faults heal (silent).
        let singles = MultiFault::adjacent_pairs(hardened.num_ffs(), 16, 1);
        let s = GradingSummary::from_outcomes(&oracle.run_multi(&singles));
        assert_eq!(s.count(FaultClass::Failure), 0);

        // Adjacent doubles can hit two copies of the same bit (the TMR
        // layout interleaves copies), defeating the voter.
        let doubles = MultiFault::adjacent_pairs(hardened.num_ffs(), 16, 2);
        let d = GradingSummary::from_outcomes(&oracle.run_multi(&doubles));
        assert!(
            d.count(FaultClass::Failure) > 0,
            "MBUs must defeat interleaved TMR: {d}"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ffs_rejected() {
        let _ = MultiFault::new(vec![FfIndex::new(1), FfIndex::new(1)], 0);
    }

    #[test]
    fn multi_verdicts_match_the_oracle_under_every_policy() {
        use seugrade_sim::TracePolicy;
        let circuit = generators::lfsr(6, &[5, 2]);
        let tb = Testbench::constant_low(0, 20);
        let mut faults = MultiFault::adjacent_pairs(6, 20, 2);
        faults.extend(MultiFault::adjacent_pairs(6, 20, 1));
        let reference = Oracle::new(&circuit, &tb).run_multi(&faults);
        for k in [1, 7, 20, 32, 64] {
            let g = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
            let graded: Vec<FaultOutcome> = faults.iter().map(|f| g.classify_multi(f)).collect();
            assert_eq!(graded, reference, "K={k}");
        }
    }
}
