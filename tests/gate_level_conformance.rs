//! The instrumented netlists, driven cycle by cycle like the FPGA
//! controller would, must classify exactly like the software oracle.
//! This is the evidence that the three netlist transforms implement the
//! paper's techniques.

use seugrade::prelude::*;
use seugrade_emulation::gate_level::{run_mask_scan, run_state_scan, run_time_mux};

fn oracle(circuit: &Netlist, tb: &Testbench) -> Vec<FaultOutcome> {
    let grader = Grader::new(circuit, tb);
    let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
    grader.run_serial(faults.as_slice())
}

#[test]
fn mask_scan_gate_level_matches_oracle() {
    for (name, cycles) in [("b01s", 20), ("b06s", 16), ("b02s", 24)] {
        let circuit = registry::build(name).expect("registered");
        let tb = Testbench::random(circuit.num_inputs(), cycles, 31);
        let oracle = oracle(&circuit, &tb);
        let hw = run_mask_scan(&circuit, &tb);
        for (k, (h, o)) in hw.iter().zip(&oracle).enumerate() {
            assert_eq!(*h, o.detect_cycle, "{name} fault #{k}");
        }
    }
}

#[test]
fn state_scan_gate_level_matches_oracle() {
    for (name, cycles) in [("b01s", 18), ("b06s", 14)] {
        let circuit = registry::build(name).expect("registered");
        let tb = Testbench::random(circuit.num_inputs(), cycles, 37);
        let oracle = oracle(&circuit, &tb);
        let hw = run_state_scan(&circuit, &tb);
        for (k, (h, o)) in hw.iter().zip(&oracle).enumerate() {
            assert!(h.agrees_with(o), "{name} fault #{k}: {h:?} vs {o:?}");
        }
    }
}

#[test]
fn time_mux_gate_level_matches_oracle_with_cycles() {
    for (name, cycles) in [("b01s", 18), ("b02s", 20), ("b06s", 14)] {
        let circuit = registry::build(name).expect("registered");
        let tb = Testbench::random(circuit.num_inputs(), cycles, 41);
        let oracle = oracle(&circuit, &tb);
        let hw = run_time_mux(&circuit, &tb);
        for (k, (h, o)) in hw.iter().zip(&oracle).enumerate() {
            assert!(h.agrees_with(o), "{name} fault #{k}: {h:?} vs {o:?}");
        }
    }
}

/// A mid-size control circuit (53 flip-flops) through the full
/// time-multiplexed hardware schedule.
#[test]
fn time_mux_gate_level_on_b13s() {
    let circuit = registry::build("b13s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 10, 43);
    let oracle = oracle(&circuit, &tb);
    let hw = run_time_mux(&circuit, &tb);
    let mut failures = 0;
    for (k, (h, o)) in hw.iter().zip(&oracle).enumerate() {
        assert!(h.agrees_with(o), "fault #{k}: {h:?} vs {o:?}");
        if o.class == FaultClass::Failure {
            failures += 1;
        }
    }
    assert!(failures > 0, "test bench should expose some failures");
}

/// Generated circuits keep the transforms honest beyond the hand-written
/// benchmarks.
#[test]
fn gate_level_on_generated_circuits() {
    use seugrade::generators::{random_sequential, RandomCircuitConfig};
    for seed in [1, 2, 3] {
        let cfg = RandomCircuitConfig {
            num_ffs: 8,
            num_gates: 50,
            num_outputs: 3,
            observability_num: 3,
            ..Default::default()
        };
        let circuit = random_sequential(&cfg, seed);
        let tb = Testbench::random(circuit.num_inputs(), 15, seed);
        let oracle = oracle(&circuit, &tb);
        let tm = run_time_mux(&circuit, &tb);
        let ss = run_state_scan(&circuit, &tb);
        let ms = run_mask_scan(&circuit, &tb);
        for (k, o) in oracle.iter().enumerate() {
            assert!(tm[k].agrees_with(o), "tm seed {seed} fault #{k}");
            assert!(ss[k].agrees_with(o), "ss seed {seed} fault #{k}");
            assert_eq!(ms[k], o.detect_cycle, "ms seed {seed} fault #{k}");
        }
    }
}
