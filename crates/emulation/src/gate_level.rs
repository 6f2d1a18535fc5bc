//! Gate-level campaign execution — the ground truth for the
//! instrumentation transforms.
//!
//! These runners drive the **instrumented netlists** cycle by cycle with
//! exactly the control schedules the autonomous controller would apply
//! (the same schedules the [`controller`](crate::controller) timing
//! models count), observing only what real hardware could observe:
//! primary outputs, the `state_diff` flag and the scan chains. The test
//! suites then require the verdicts to match the software oracle
//! ([`Grader`](seugrade_faultsim::Grader)) fault for fault — detection
//! cycles included — which is the evidence that the three transforms
//! implement the paper's semantics.
//!
//! Two deliberate modelling notes:
//!
//! - circuit reset between mask-scan replays uses the FPGA's global
//!   set/reset (GSR); the runner pokes the circuit flip-flops back to
//!   their initial values, which is what GSR does without consuming
//!   emulation cycles;
//! - mask-scan injection at cycle 0 corrupts the *initial* state, which
//!   real hardware does by configuring a flipped reset value; the runner
//!   models it as a poke after reset.

use seugrade_faultsim::{FaultClass, FaultOutcome};
use seugrade_netlist::Netlist;
use seugrade_sim::{broadcast, CompiledSim, SimState, Testbench};

use crate::instrument::{mask_scan, state_scan, time_mux, InstrumentedCircuit, PortMap};

/// Shared driver state for one instrumented circuit.
struct Rig {
    sim: CompiledSim,
    st: SimState,
    ports: PortMap,
    inputs: Vec<bool>,
    num_orig_outputs: usize,
}

impl Rig {
    fn new(inst: &InstrumentedCircuit) -> Self {
        let sim = CompiledSim::new(inst.netlist());
        let st = sim.new_state();
        Rig {
            inputs: vec![false; inst.netlist().num_inputs()],
            num_orig_outputs: inst.ports().num_orig_outputs,
            ports: inst.ports().clone(),
            sim,
            st,
        }
    }

    fn clear_controls(&mut self) {
        for i in self.ports.num_orig_inputs..self.inputs.len() {
            self.inputs[i] = false;
        }
    }

    fn set(&mut self, idx: Option<usize>, v: bool) {
        self.inputs[idx.expect("port exists for this technique")] = v;
    }

    fn set_functional(&mut self, vector: &[bool]) {
        self.inputs[..vector.len()].copy_from_slice(vector);
    }

    /// eval + read outputs + step.
    fn clock(&mut self) -> Vec<bool> {
        let v = self.inputs.clone();
        self.sim.set_inputs(&mut self.st, &v);
        self.sim.eval(&mut self.st);
        let out = self.sim.outputs_lane(&self.st, 0);
        self.sim.step(&mut self.st);
        out
    }

    /// eval + read outputs, no step.
    fn peek(&mut self) -> Vec<bool> {
        let v = self.inputs.clone();
        self.sim.set_inputs(&mut self.st, &v);
        self.sim.eval(&mut self.st);
        self.sim.outputs_lane(&self.st, 0)
    }

    fn orig_outputs<'o>(&self, out: &'o [bool]) -> &'o [bool] {
        &out[..self.num_orig_outputs]
    }
}

/// Gate-level verdict of one fault, as observable in hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateVerdict {
    /// Output mismatch first seen at this cycle.
    Failure(u32),
    /// No mismatch; end state differed from the golden end state.
    Latent,
    /// No mismatch; time-mux variant records the convergence cycle,
    /// state-scan only knows convergence happened (`None`).
    Silent(Option<u32>),
}

impl GateVerdict {
    /// The corresponding grading class.
    #[must_use]
    pub fn class(self) -> FaultClass {
        match self {
            GateVerdict::Failure(_) => FaultClass::Failure,
            GateVerdict::Latent => FaultClass::Latent,
            GateVerdict::Silent(_) => FaultClass::Silent,
        }
    }

    /// Checks agreement with an oracle outcome. Mask-scan verdicts carry
    /// only failure information, so `classes` restricts the comparison.
    #[must_use]
    pub fn agrees_with(self, oracle: &FaultOutcome) -> bool {
        match self {
            GateVerdict::Failure(u) => {
                oracle.class == FaultClass::Failure && oracle.detect_cycle == Some(u)
            }
            GateVerdict::Latent => oracle.class == FaultClass::Latent,
            GateVerdict::Silent(None) => oracle.class == FaultClass::Silent,
            GateVerdict::Silent(Some(u)) => {
                oracle.class == FaultClass::Silent && oracle.converge_cycle == Some(u)
            }
        }
    }
}

fn original_ff_inits(circuit: &Netlist) -> Vec<bool> {
    circuit.ff_init_values()
}

/// Runs the **mask-scan** campaign at gate level.
///
/// Returns, per fault in cycle-major exhaustive order, `Some(u)` when an
/// output mismatch was detected at cycle `u` and `None` otherwise
/// (mask-scan natively distinguishes only failure / no-failure).
#[must_use]
pub fn run_mask_scan(circuit: &Netlist, tb: &Testbench) -> Vec<Option<u32>> {
    let inst = mask_scan::instrument(circuit);
    let golden = CompiledSim::new(circuit).run_golden(tb);
    let inits = original_ff_inits(circuit);
    let n_ff = circuit.num_ffs();
    let n_cycles = tb.num_cycles();
    let mut rig = Rig::new(&inst);
    let mut results = vec![None; n_ff * n_cycles];

    for i in 0..n_ff {
        // Position the mask: insert a 1 for ff 0, shift it along after.
        rig.clear_controls();
        rig.set(rig.ports.scan_en, true);
        rig.set(rig.ports.scan_in, i == 0);
        rig.clock();
        rig.clear_controls();

        for t in 0..n_cycles {
            // GSR: restore the functional flip-flops to reset values.
            for (k, &init) in inits.iter().enumerate() {
                let ff = rig.ports.circuit_ffs[k];
                rig.sim.set_ff_raw(&mut rig.st, ff, broadcast(init));
            }
            if t == 0 {
                // Injection into the initial state (flipped reset value).
                rig.sim.flip_ff_lane(&mut rig.st, rig.ports.circuit_ffs[i], 0);
            }
            for u in 0..n_cycles {
                rig.set_functional(tb.cycle(u));
                // inject during cycle t-1 corrupts the state at cycle t.
                rig.set(rig.ports.inject, t > 0 && u + 1 == t);
                let out = rig.clock();
                if rig.orig_outputs(&out) != golden.output_at(u) {
                    results[u_idx(t, i, n_ff)] = Some(u as u32);
                    break;
                }
            }
            rig.clear_controls();
        }
    }
    results
}

fn u_idx(t: usize, ff: usize, n_ff: usize) -> usize {
    t * n_ff + ff
}

/// Runs the **state-scan** campaign at gate level.
///
/// Returns verdicts in cycle-major exhaustive order; silent faults carry
/// no convergence cycle (the technique only compares end states).
#[must_use]
pub fn run_state_scan(circuit: &Netlist, tb: &Testbench) -> Vec<GateVerdict> {
    let inst = state_scan::instrument(circuit);
    let golden = CompiledSim::new(circuit).run_golden(tb);
    let n_ff = circuit.num_ffs();
    let n_cycles = tb.num_cycles();
    let mut rig = Rig::new(&inst);
    let mut results = vec![GateVerdict::Latent; n_ff * n_cycles];

    for t in 0..n_cycles {
        for i in 0..n_ff {
            // Faulty state to insert: golden S_t with bit i flipped.
            let mut target = golden.state_at(t).to_vec();
            target[i] = !target[i];
            // Scan in MSB-first (chain tail holds the last flip-flop).
            rig.clear_controls();
            rig.set(rig.ports.scan_en, true);
            for k in (0..n_ff).rev() {
                rig.set(rig.ports.scan_in, target[k]);
                rig.clock();
            }
            rig.clear_controls();
            // Transfer into the circuit flip-flops.
            rig.set(rig.ports.load_state, true);
            rig.clock();
            rig.clear_controls();
            // Run from the injection cycle.
            let mut verdict = None;
            for u in t..n_cycles {
                rig.set_functional(tb.cycle(u));
                let out = rig.clock();
                if rig.orig_outputs(&out) != golden.output_at(u) {
                    verdict = Some(GateVerdict::Failure(u as u32));
                    break;
                }
            }
            let verdict = verdict.unwrap_or_else(|| {
                // Capture the end state and scan it out for comparison.
                rig.set(rig.ports.capture, true);
                rig.clock();
                rig.clear_controls();
                rig.set(rig.ports.scan_en, true);
                let mut end_state = vec![false; n_ff];
                for k in (0..n_ff).rev() {
                    let out = rig.peek();
                    end_state[k] = out[rig.ports.scan_out.expect("scan_out")];
                    rig.clock();
                }
                rig.clear_controls();
                if end_state == golden.final_state() {
                    GateVerdict::Silent(None)
                } else {
                    GateVerdict::Latent
                }
            });
            results[u_idx(t, i, n_ff)] = verdict;
        }
    }
    results
}

/// Runs the **time-multiplexed** campaign at gate level.
///
/// Returns full verdicts (with detection *and* convergence cycles) in
/// cycle-major exhaustive order — the only technique that observes both
/// in hardware, which is why it can terminate every non-latent fault
/// early.
#[must_use]
pub fn run_time_mux(circuit: &Netlist, tb: &Testbench) -> Vec<GateVerdict> {
    let inst = time_mux::instrument(circuit);
    let n_ff = circuit.num_ffs();
    let n_cycles = tb.num_cycles();
    let mut rig = Rig::new(&inst);
    let mut results = vec![GateVerdict::Latent; n_ff * n_cycles];
    let state_diff_port = inst.ports().state_diff.expect("time-mux state_diff");

    for t in 0..n_cycles {
        // Invariant at this point: golden = S_t, checkpoint = S_t.
        for i in 0..n_ff {
            // Mask positioning: one shift per fault (insert a fresh 1 for
            // ff 0; the stale 1 from the previous sweep falls off the
            // chain tail).
            rig.clear_controls();
            rig.set(rig.ports.scan_en, true);
            rig.set(rig.ports.scan_in, i == 0);
            rig.clock();
            rig.clear_controls();
            // Inject: faulty := golden ^ mask (single cycle).
            rig.set(rig.ports.inject, true);
            rig.clock();
            rig.clear_controls();
            // Alternating emulation from cycle t.
            let mut verdict = None;
            for u in t..n_cycles {
                // Golden half-cycle: capture reference outputs.
                rig.set_functional(tb.cycle(u));
                rig.set(rig.ports.sel_faulty, false);
                rig.set(rig.ports.ena_golden, true);
                rig.set(rig.ports.ena_faulty, false);
                let golden_out = rig.clock();
                // Faulty half-cycle: compare.
                rig.set(rig.ports.sel_faulty, true);
                rig.set(rig.ports.ena_golden, false);
                rig.set(rig.ports.ena_faulty, true);
                let faulty_out = rig.clock();
                if rig.orig_outputs(&faulty_out) != rig.orig_outputs(&golden_out) {
                    verdict = Some(GateVerdict::Failure(u as u32));
                    break;
                }
                // Convergence check: combinational state_diff flag.
                rig.clear_controls();
                let flags = rig.peek();
                if !flags[state_diff_port] {
                    verdict = Some(GateVerdict::Silent(Some(u as u32)));
                    break;
                }
            }
            results[u_idx(t, i, n_ff)] = verdict.unwrap_or(GateVerdict::Latent);
            // Restore golden from the checkpoint.
            rig.clear_controls();
            rig.set(rig.ports.load_state, true);
            rig.clock();
            rig.clear_controls();
        }
        // Advance the golden machine to S_{t+1} and re-checkpoint.
        rig.set_functional(tb.cycle(t));
        rig.set(rig.ports.sel_faulty, false);
        rig.set(rig.ports.ena_golden, true);
        rig.clock();
        rig.clear_controls();
        rig.set(rig.ports.save_state, true);
        rig.clock();
        rig.clear_controls();
    }
    results
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::{registry, generators};
    use seugrade_faultsim::{FaultList, Grader};
    use seugrade_sim::Testbench;

    use super::*;

    fn oracle(circuit: &Netlist, tb: &Testbench) -> Vec<FaultOutcome> {
        let g = Grader::new(circuit, tb);
        let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
        g.run_serial(faults.as_slice())
    }

    #[test]
    fn mask_scan_matches_oracle_failures() {
        for name in ["b01s", "b02s"] {
            let circuit = registry::build(name).unwrap();
            let tb = Testbench::random(circuit.num_inputs(), 16, 5);
            let oracle = oracle(&circuit, &tb);
            let hw = run_mask_scan(&circuit, &tb);
            assert_eq!(hw.len(), oracle.len());
            for (k, (h, o)) in hw.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    *h,
                    o.detect_cycle,
                    "{name} fault #{k}: hw {h:?} vs oracle {o:?}"
                );
            }
        }
    }

    #[test]
    fn state_scan_matches_oracle_classes() {
        for name in ["b01s", "b02s"] {
            let circuit = registry::build(name).unwrap();
            let tb = Testbench::random(circuit.num_inputs(), 14, 7);
            let oracle = oracle(&circuit, &tb);
            let hw = run_state_scan(&circuit, &tb);
            for (k, (h, o)) in hw.iter().zip(&oracle).enumerate() {
                assert!(
                    h.agrees_with(o),
                    "{name} fault #{k}: hw {h:?} vs oracle {o:?}"
                );
            }
        }
    }

    #[test]
    fn time_mux_matches_oracle_exactly() {
        for name in ["b01s", "b02s", "b06s"] {
            let circuit = registry::build(name).unwrap();
            let tb = Testbench::random(circuit.num_inputs(), 12, 9);
            let oracle = oracle(&circuit, &tb);
            let hw = run_time_mux(&circuit, &tb);
            for (k, (h, o)) in hw.iter().zip(&oracle).enumerate() {
                assert!(
                    h.agrees_with(o),
                    "{name} fault #{k}: hw {h:?} vs oracle {o:?}"
                );
            }
        }
    }

    #[test]
    fn time_mux_on_shift_register_detection_cycles() {
        let circuit = generators::shift_register(4);
        let tb = Testbench::random(1, 10, 11);
        let oracle = oracle(&circuit, &tb);
        let hw = run_time_mux(&circuit, &tb);
        for (h, o) in hw.iter().zip(&oracle) {
            assert!(h.agrees_with(o), "hw {h:?} vs oracle {o:?}");
        }
    }

    #[test]
    fn verdict_class_mapping() {
        assert_eq!(GateVerdict::Failure(3).class(), FaultClass::Failure);
        assert_eq!(GateVerdict::Latent.class(), FaultClass::Latent);
        assert_eq!(GateVerdict::Silent(None).class(), FaultClass::Silent);
    }
}
