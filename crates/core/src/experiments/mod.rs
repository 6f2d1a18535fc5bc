//! Reproduction drivers for every table and figure of the paper.
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | T1 | Table 1 (synthesis results) | [`table1`] / [`table1_for`] |
//! | T2 | Table 2 (time results) | [`table2_for`] |
//! | F1 | Figure 1 (time-mux instrument) | [`figure1`] |
//! | C1 | §III classification percentages | [`classification_for`] |
//! | S1 | §III speed comparison | [`speed_for`] |
//! | X1 | §III crossover claim | [`crossover_for`] |
//! | A1 | ablation study (extension) | [`ablations_for`] |
//! | A2 | statistical sampling (extension) | [`sampling_for`] |
//!
//! Each driver returns a structured result with a `render()` method that
//! prints the measured numbers side by side with the paper's published
//! values (from [`paper`](crate::paper)); the `repro` binary in
//! `seugrade-bench` is a thin CLI over these functions.

mod ablations;
mod classification;
mod crossover;
mod figure1;
mod sampling_exp;
mod speed;
mod table1;
mod table2;

pub use ablations::{ablations_for, AblationRow, Ablations};
pub use classification::{classification_for, Classification};
pub use crossover::{crossover_for, viper_crossover_cycles, Crossover, CrossoverPoint};
pub use figure1::{figure1, Figure1};
pub use sampling_exp::{sampling_for, SamplingStudy};
pub use speed::{speed_for, SpeedComparison, SpeedRow};
pub use table1::{table1, table1_for, Table1, Table1Row};
pub use table2::{table2_for, Table2, Table2Row};

use seugrade_circuits::{stimuli, viper};
use seugrade_emulation::campaign::AutonomousCampaign;

/// Builds the paper's reference campaign: the Viper (b14-like) processor,
/// 160 instruction vectors, the exhaustive 34,400-fault list.
///
/// This grades every fault through the sharded `seugrade-engine`
/// runtime (bit-identical to the oracle at any thread count),
/// which takes a couple of hundred milliseconds in release builds.
#[must_use]
pub fn paper_campaign() -> AutonomousCampaign {
    let circuit = viper::viper();
    let tb = stimuli::paper_testbench();
    AutonomousCampaign::new(&circuit, &tb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_dimensions() {
        let c = paper_campaign();
        assert_eq!(c.faults().len(), crate::paper::B14_FAULTS);
        assert_eq!(c.num_ffs(), crate::paper::B14_FFS);
        assert_eq!(c.num_cycles(), crate::paper::B14_CYCLES);
    }
}
