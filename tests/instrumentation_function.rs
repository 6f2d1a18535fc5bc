//! Functional-preservation checks for every netlist transform in the
//! workspace: instrumented or hardened circuits must behave exactly like
//! the original when the added machinery is idle.

use seugrade::prelude::*;
use seugrade::instrument::{mask_scan, state_scan, time_mux};

fn golden(circuit: &Netlist, tb: &Testbench) -> TraceWindow {
    CompiledSim::new(circuit).run_golden(tb)
}

/// Drives an instrumented circuit with control inputs low (or, for
/// time-mux, in golden free-run mode) and compares original outputs.
fn check_transparent(
    circuit: &Netlist,
    inst_netlist: &Netlist,
    tb: &Testbench,
    fixed_controls: &[(usize, bool)],
) {
    let reference = golden(circuit, tb);
    let sim = CompiledSim::new(inst_netlist);
    let mut st = sim.new_state();
    let mut inputs = vec![false; inst_netlist.num_inputs()];
    for t in 0..tb.num_cycles() {
        inputs[..tb.num_inputs()].copy_from_slice(tb.cycle(t));
        for &(idx, v) in fixed_controls {
            inputs[idx] = v;
        }
        sim.set_inputs(&mut st, &inputs);
        sim.eval(&mut st);
        let out = sim.outputs_lane(&st, 0);
        assert_eq!(
            &out[..circuit.num_outputs()],
            reference.output_at(t),
            "{} cycle {t}",
            inst_netlist.name()
        );
        sim.step(&mut st);
    }
}

#[test]
fn instrumented_circuits_are_transparent_when_idle() {
    for name in ["b01s", "b02s", "b03s", "b06s", "b09s", "b13s", "lfsr16", "counter8"] {
        let circuit = registry::build(name).expect("registered");
        let tb = Testbench::random(circuit.num_inputs(), 40, 3);

        let ms = mask_scan::instrument(&circuit);
        check_transparent(&circuit, ms.netlist(), &tb, &[]);

        let ss = state_scan::instrument(&circuit);
        check_transparent(&circuit, ss.netlist(), &tb, &[]);

        let tm = time_mux::instrument(&circuit);
        let p = tm.ports();
        // Golden free-run: golden enabled and selected.
        let controls = [
            (p.ena_golden.unwrap(), true),
            (p.sel_faulty.unwrap(), false),
        ];
        check_transparent(&circuit, tm.netlist(), &tb, &controls);
    }
}

#[test]
fn viper_instrumentation_is_transparent() {
    let circuit = viper::viper();
    let tb = stimuli::viper_program(24, 3);
    let ms = mask_scan::instrument(&circuit);
    check_transparent(&circuit, ms.netlist(), &tb, &[]);
    let tm = time_mux::instrument(&circuit);
    let p = tm.ports();
    let controls = [
        (p.ena_golden.unwrap(), true),
        (p.sel_faulty.unwrap(), false),
    ];
    check_transparent(&circuit, tm.netlist(), &tb, &controls);
}

#[test]
fn hardened_circuits_are_transparent() {
    for name in ["b01s", "b06s", "b13s", "counter8"] {
        let circuit = registry::build(name).expect("registered");
        let tb = Testbench::random(circuit.num_inputs(), 40, 5);
        let reference = golden(&circuit, &tb);

        let t = tmr(&circuit);
        let tt = golden(&t, &tb);
        let d = dwc(&circuit);
        let dd = golden(&d, &tb);
        for cycle in 0..tb.num_cycles() {
            assert_eq!(tt.output_at(cycle), reference.output_at(cycle), "{name} tmr");
            assert_eq!(
                &dd.output_at(cycle)[..circuit.num_outputs()],
                reference.output_at(cycle),
                "{name} dwc"
            );
            assert!(!dd.output_at(cycle)[circuit.num_outputs()], "{name} dwc alarm quiet");
        }
    }
}

#[test]
fn instrumentation_overheads_are_structural() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let n = circuit.num_ffs();
        assert_eq!(mask_scan::instrument(&circuit).netlist().num_ffs(), 2 * n, "{name}");
        assert_eq!(state_scan::instrument(&circuit).netlist().num_ffs(), 2 * n, "{name}");
        assert_eq!(time_mux::instrument(&circuit).netlist().num_ffs(), 4 * n, "{name}");
        assert_eq!(tmr(&circuit).num_ffs(), 3 * n, "{name}");
        assert_eq!(dwc(&circuit).num_ffs(), 2 * n, "{name}");
    }
}

#[test]
fn instrumented_netlists_survive_text_roundtrip() {
    let circuit = registry::build("b06s").expect("registered");
    for inst in [
        mask_scan::instrument(&circuit).netlist().clone(),
        state_scan::instrument(&circuit).netlist().clone(),
        time_mux::instrument(&circuit).netlist().clone(),
    ] {
        let text = seugrade_netlist::text::emit(&inst);
        let back = seugrade_netlist::text::parse(&text).expect("parses");
        assert_eq!(back.num_cells(), inst.num_cells());
        assert_eq!(back.num_ffs(), inst.num_ffs());
        let tb = Testbench::random(inst.num_inputs(), 12, 9);
        assert_eq!(
            CompiledSim::new(&inst).run_golden(&tb),
            CompiledSim::new(&back).run_golden(&tb)
        );
    }
}
