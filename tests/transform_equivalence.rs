//! Equivalence-checker-driven validation of every transform, plus
//! MBU / report-export integration coverage.

use seugrade::prelude::*;
use seugrade::instrument::{mask_scan, state_scan};

/// Transforms whose idle behaviour must equal the original circuit,
/// checked with the random-simulation equivalence checker (control
/// inputs default to low under `equiv_check`'s random benches only for
/// appended inputs — so restrict to transforms whose added inputs being
/// random still cannot corrupt: none. Instead check interface-identical
/// transforms here).
#[test]
fn tmr_is_equivalent_to_original() {
    for name in ["b01s", "b02s", "b06s", "b09s", "counter8", "lfsr16"] {
        let circuit = registry::build(name).expect("registered");
        let hardened = tmr(&circuit);
        assert_eq!(
            equiv_check(&circuit, &hardened, 48, 6),
            Ok(()),
            "{name} TMR must be transparent"
        );
    }
}

#[test]
fn dwc_is_equivalent_on_original_outputs() {
    for name in ["b01s", "b06s", "b13s"] {
        let circuit = registry::build(name).expect("registered");
        let protected = dwc(&circuit);
        // equiv_check compares min(outputs) positions: the alarm is
        // appended last, so the functional outputs are covered.
        assert_eq!(
            equiv_check(&circuit, &protected, 48, 6),
            Ok(()),
            "{name} DWC must be transparent"
        );
    }
}

#[test]
fn pruning_preserves_function() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let pruned = circuit.pruned().into_netlist();
        assert_eq!(
            equiv_check(&circuit, &pruned, 32, 4),
            Ok(()),
            "{name} pruning must preserve behaviour"
        );
    }
}

#[test]
fn snl_roundtrip_preserves_function() {
    for name in ["viper", "b03s", "b13s"] {
        let circuit = registry::build(name).expect("registered");
        let text = seugrade_netlist::text::emit(&circuit);
        let back = seugrade_netlist::text::parse(&text).expect("parses");
        assert_eq!(equiv_check(&circuit, &back, 24, 3), Ok(()), "{name}");
    }
}

#[test]
fn equiv_checker_catches_seeded_bug() {
    // Sanity: the checker is not vacuous. Re-emit b06s with one gate
    // kind flipped in the SNL text and require a counterexample.
    let circuit = registry::build("b06s").expect("registered");
    let text = seugrade_netlist::text::emit(&circuit);
    let buggy_text = text.replacen("gate xor", "gate xnor", 1);
    assert_ne!(text, buggy_text, "fixture contains an xor gate");
    let buggy = seugrade_netlist::text::parse(&buggy_text).expect("parses");
    let err = equiv_check(&circuit, &buggy, 48, 8).expect_err("bug must be caught");
    assert!(err.to_string().contains("differs"));
}

#[test]
fn instrumented_circuits_with_live_controls_diverge() {
    // Driving the added control inputs with garbage corrupts the run —
    // shown by co-simulating manually with scan_en held high.
    let circuit = registry::build("counter8").expect("registered");
    let inst = state_scan::instrument(&circuit);
    let p = inst.ports().clone();
    let sim = CompiledSim::new(inst.netlist());
    let mut st = sim.new_state();
    let reference = CompiledSim::new(&circuit)
        .run_golden(&Testbench::constant_low(circuit.num_inputs(), 8));
    let mut inputs = vec![false; inst.netlist().num_inputs()];
    inputs[p.load_state.unwrap()] = true; // keep loading the zero shadow
    let mut diverged = false;
    for t in 0..8 {
        sim.set_inputs(&mut st, &inputs);
        sim.eval(&mut st);
        let out = sim.outputs_lane(&st, 0);
        if &out[..circuit.num_outputs()] != reference.output_at(t) {
            diverged = true;
            break;
        }
        sim.step(&mut st);
    }
    assert!(diverged, "load_state held high must freeze the counter");
    // mask_scan is referenced to keep both transforms under test here.
    let _ = mask_scan::instrument(&circuit);
}

#[test]
fn mbu_pipeline_on_viper_subset() {
    // Double faults on the Viper: adjacent-pair MBUs in the first 40
    // cycles; verify counts and that doubles are at least as harmful as
    // the worse of their constituent singles in aggregate.
    let circuit = viper::viper();
    let tb = stimuli::viper_program(24, 3);
    let engine = Engine::for_circuit(&circuit, &tb);
    let grade = |faults: Vec<MultiFault>| {
        let plan = CampaignPlan::builder(&circuit, &tb).multi(faults).build();
        engine.run(&plan).summary().clone()
    };

    let s1 = grade(MultiFault::adjacent_pairs(circuit.num_ffs(), 4, 1));
    let s2 = grade(MultiFault::adjacent_pairs(circuit.num_ffs(), 4, 2));
    assert_eq!(s1.total(), 215 * 4);
    assert_eq!(s2.total(), 214 * 4);
    assert!(
        s2.percent(FaultClass::Failure) >= s1.percent(FaultClass::Failure) - 1.0,
        "doubles fail at least as often: {s1} vs {s2}"
    );
}

#[test]
fn report_exports_are_consistent() {
    let circuit = registry::build("b09s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 30, 7);
    let run = CampaignPlan::builder(&circuit, &tb).build().execute();
    let (faults, outcomes) = run.into_single().expect("exhaustive plans grade single faults");

    let csv = report::to_csv(faults.as_slice(), &outcomes);
    assert_eq!(csv.lines().count(), faults.len() + 1);

    let hist = report::detection_latency_histogram(faults.as_slice(), &outcomes);
    let failures: usize = hist.iter().sum();
    let summary = GradingSummary::from_outcomes(&outcomes);
    assert_eq!(failures, summary.count(FaultClass::Failure));

    let rows = report::per_ff_breakdown(circuit.num_ffs(), faults.as_slice(), &outcomes);
    let total: usize = rows.iter().map(|r| r.iter().sum::<usize>()).sum();
    assert_eq!(total, faults.len());

    let mean = report::mean_classify_latency(faults.as_slice(), &outcomes, 30);
    assert!(mean >= 0.0 && mean < 30.0, "{mean}");
}
