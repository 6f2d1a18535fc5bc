//! Dump a golden run and a faulty run of a circuit as VCD waveforms for
//! inspection in GTKWave or any VCD viewer.
//!
//! ```text
//! cargo run --release --example waveforms
//! # -> target/golden.vcd, target/faulty.vcd
//! ```

use std::fs;

use seugrade::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = registry::build("b06s").expect("registered circuit");
    let tb = Testbench::random(circuit.num_inputs(), 64, 3);

    // Golden waveform.
    let vcd = seugrade_sim::vcd::dump_golden(&circuit, &tb);
    fs::create_dir_all("target")?;
    fs::write("target/golden.vcd", &vcd)?;
    println!(
        "wrote target/golden.vcd ({} bytes, {} signals)",
        vcd.len(),
        circuit.num_inputs() + circuit.num_outputs() + circuit.num_ffs()
    );

    // Pick an interesting fault (first failure) and print its story.
    let run = CampaignPlan::builder(&circuit, &tb).build().execute();
    let (faults, outcomes) = run.into_single().expect("exhaustive plans grade single faults");
    if let Some((fault, outcome)) = faults
        .iter()
        .zip(&outcomes)
        .find(|(_, o)| o.class == FaultClass::Failure)
    {
        println!(
            "first failing fault: {fault} -> detected at cycle {}",
            outcome.detect_cycle.expect("failure has a detection cycle")
        );
        // Faulty waveform: golden + faulty + per-output diff scopes.
        let vcd = seugrade_sim::vcd::dump_fault(&circuit, &tb, fault.ff, fault.cycle as usize);
        fs::write("target/faulty.vcd", &vcd)?;
        println!("wrote target/faulty.vcd ({} bytes)", vcd.len());
    }
    let silent = outcomes
        .iter()
        .filter(|o| o.class == FaultClass::Silent)
        .count();
    println!(
        "{silent}/{} faults are silent — their effect vanished before any output saw it",
        outcomes.len()
    );
    Ok(())
}
