//! Experiment S1 — speed comparison across evaluation methods (§III).
//!
//! The paper's headline claim: autonomous emulation is orders of
//! magnitude faster than fault simulation (1300 µs/fault on a 2005
//! workstation) and than host-controlled emulation [2] (≈100 µs/fault).
//! This experiment reports, for one campaign:
//!
//! - our own software fault simulators, **measured** (serial on a fault
//!   sample, bit-parallel exhaustive);
//! - the host-link model of [2];
//! - the three autonomous techniques' modelled emulation times;
//! - the paper's published constants for the 2005 baselines.

use std::time::Instant;

use seugrade_emulation::campaign::{AutonomousCampaign, Technique};
use seugrade_emulation::hostlink::HostLinkModel;
use seugrade_engine::{CampaignPlan, Engine, ShardPolicy};
use seugrade_faultsim::{FaultList, Grader};
use seugrade_netlist::Netlist;
use seugrade_sim::Testbench;

use crate::paper;
use crate::tables::{fixed, Align, TextTable};

/// Where a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Wall-clock measured in this process.
    Measured,
    /// Computed by a calibrated model.
    Modelled,
    /// Quoted from the paper.
    Paper,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Measured => "measured",
            Source::Modelled => "model",
            Source::Paper => "paper (2005)",
        }
    }
}

/// One comparison row.
#[derive(Clone, Debug)]
pub struct SpeedRow {
    /// Method label.
    pub label: String,
    /// Average µs per fault.
    pub us_per_fault: f64,
    /// Provenance.
    pub source: Source,
}

/// The full comparison.
#[derive(Clone, Debug)]
pub struct SpeedComparison {
    /// Rows, slowest first.
    pub rows: Vec<SpeedRow>,
}

/// Builds the speed comparison for a campaign.
///
/// `serial_sample` bounds the number of faults timed with the serial
/// simulator (it exists to keep the slowest engine's measurement
/// affordable; the µs/fault extrapolates linearly).
#[must_use]
pub fn speed_for(
    circuit: &Netlist,
    tb: &Testbench,
    campaign: &AutonomousCampaign,
    serial_sample: usize,
) -> SpeedComparison {
    let grader = Grader::new(circuit, tb);
    let mut rows = Vec::new();

    // Paper baselines.
    rows.push(SpeedRow {
        label: "fault simulation (workstation)".into(),
        us_per_fault: paper::FAULT_SIM_US_PER_FAULT,
        source: Source::Paper,
    });
    rows.push(SpeedRow {
        label: "host-controlled emulation [2]".into(),
        us_per_fault: paper::HOST_EMULATION_US_PER_FAULT,
        source: Source::Paper,
    });

    // Measured: serial software fault simulation on a sample.
    let sample = FaultList::sampled(
        circuit.num_ffs(),
        tb.num_cycles(),
        serial_sample,
        paper::B14_CYCLES as u64,
    );
    if !sample.is_empty() {
        let start = Instant::now();
        let outcomes = grader.run_serial(sample.as_slice());
        let dt = start.elapsed();
        assert_eq!(outcomes.len(), sample.len());
        rows.push(SpeedRow {
            label: "fault simulation (this host, serial)".into(),
            us_per_fault: dt.as_secs_f64() * 1e6 / sample.len() as f64,
            source: Source::Measured,
        });
    }

    // Measured: bit-parallel software fault simulation, exhaustive, on
    // one engine thread.
    let engine = Engine::for_circuit(circuit, tb);
    let one_thread = engine.run(&CampaignPlan::builder(circuit, tb).threads(1).build());
    let outcomes = one_thread.outcomes();
    rows.push(SpeedRow {
        label: "fault simulation (this host, 64-way parallel)".into(),
        us_per_fault: one_thread.stats().us_per_fault(),
        source: Source::Measured,
    });

    // Measured: the sharded multi-threaded engine, exhaustive.
    let plan = CampaignPlan::builder(circuit, tb)
        .policy(ShardPolicy { threads: 0, serial_below: 0 })
        .build();
    let engine_run = engine.run(&plan);
    let threads = engine_run.stats().threads;
    rows.push(SpeedRow {
        label: format!("fault simulation (this host, engine, {threads} threads)"),
        us_per_fault: engine_run.stats().us_per_fault(),
        source: Source::Measured,
    });

    // Modelled: host-controlled emulation on this campaign.
    let host = HostLinkModel::paper_reference();
    rows.push(SpeedRow {
        label: "host-controlled emulation (model)".into(),
        us_per_fault: host.us_per_fault(outcomes, tb.num_cycles()),
        source: Source::Modelled,
    });

    // Modelled: the three autonomous techniques.
    for technique in Technique::ALL {
        let report = campaign.run(technique);
        rows.push(SpeedRow {
            label: format!("autonomous {}", technique.label()),
            us_per_fault: report.timing.us_per_fault(),
            source: Source::Modelled,
        });
    }

    rows.sort_by(|a, b| b.us_per_fault.total_cmp(&a.us_per_fault));
    SpeedComparison { rows }
}

impl SpeedComparison {
    /// Renders the comparison, slowest method first.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            ("method", Align::Left),
            ("us/fault", Align::Right),
            ("source", Align::Left),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.label.clone(),
                fixed(row.us_per_fault, 3),
                row.source.label().to_owned(),
            ]);
        }
        format!("Speed comparison (one fault-grading campaign)\n{}", t.render())
    }

    /// Looks up a row by label prefix.
    #[must_use]
    pub fn find(&self, prefix: &str) -> Option<&SpeedRow> {
        self.rows.iter().find(|r| r.label.starts_with(prefix))
    }

    /// Speedup of the fastest autonomous technique over the paper's
    /// fault-simulation constant — the "orders of magnitude" claim.
    #[must_use]
    pub fn orders_of_magnitude_vs_simulation(&self) -> f64 {
        let fastest = self
            .rows
            .iter()
            .filter(|r| r.label.starts_with("autonomous"))
            .map(|r| r.us_per_fault)
            .fold(f64::INFINITY, f64::min);
        (paper::FAULT_SIM_US_PER_FAULT / fastest).log10()
    }
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::generators;

    use super::*;

    #[test]
    fn comparison_contains_all_methods() {
        let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
        let tb = Testbench::constant_low(0, 16);
        let campaign = AutonomousCampaign::new(&circuit, &tb);
        let s = speed_for(&circuit, &tb, &campaign, 32);
        assert!(s.rows.len() >= 8);
        assert!(s.find("fault simulation (workstation)").is_some());
        assert!(s.find("fault simulation (this host, engine").is_some());
        assert!(s.find("autonomous Time Multiplex.").is_some());
        // Sorted descending.
        for pair in s.rows.windows(2) {
            assert!(pair[0].us_per_fault >= pair[1].us_per_fault);
        }
        assert!(s.render().contains("us/fault"));
    }

    #[test]
    fn autonomous_beats_2005_baselines() {
        let circuit = generators::lfsr(10, &[9, 6]);
        let tb = Testbench::constant_low(0, 24);
        let campaign = AutonomousCampaign::new(&circuit, &tb);
        let s = speed_for(&circuit, &tb, &campaign, 16);
        let tmux = s.find("autonomous Time Multiplex.").unwrap().us_per_fault;
        assert!(tmux < paper::HOST_EMULATION_US_PER_FAULT);
        assert!(s.orders_of_magnitude_vs_simulation() > 2.0, "orders of magnitude");
    }
}
