//! Fault-tolerance hardening transforms.
//!
//! Fault grading exists to guide *hardening*: the paper's introduction
//! motivates early identification of weak areas so the design can be
//! re-engineered before fabrication. This crate closes that loop with
//! two classic SEU countermeasures, implemented as netlist transforms
//! that can be pushed straight back through the grading pipeline:
//!
//! - [`tmr`] — triple modular redundancy on every flip-flop with
//!   per-flip-flop majority voters: single bit-flips are corrected the
//!   next cycle, so graded failure rates collapse;
//! - [`dwc`] — duplication with comparison: a second copy of the state
//!   plus a mismatch alarm output, detecting (not correcting) SEUs.
//!
//! # Example
//!
//! ```
//! use seugrade_circuits::generators;
//! use seugrade_harden::tmr;
//!
//! let plain = generators::counter(4);
//! let hardened = tmr(&plain);
//! assert_eq!(hardened.num_ffs(), 12, "every flip-flop triplicated");
//! assert_eq!(hardened.num_outputs(), plain.num_outputs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use seugrade_netlist::{CellKind, GateKind, Netlist, NetlistBuilder, SigId};

/// Applies triple modular redundancy to every flip-flop.
///
/// Each original flip-flop becomes three copies fed by the same next-state
/// function; their outputs are merged by a 2-of-3 majority voter which
/// replaces the original flip-flop output everywhere (including in the
/// next-state feedback, so a corrupted copy is re-synchronized from the
/// voted value on the next clock). A single SEU in any copy therefore
/// never propagates and heals in one cycle.
///
/// Interface (inputs/outputs) is unchanged; flip-flop count triples; the
/// new flip-flop order is `[ff0_a, ff0_b, ff0_c, ff1_a, …]`.
///
/// # Panics
///
/// Panics if the circuit has no flip-flops.
#[must_use]
pub fn tmr(old: &Netlist) -> Netlist {
    assert!(old.num_ffs() > 0, "tmr needs at least one flip-flop");
    let mut b = NetlistBuilder::new(format!("{}_tmr", old.name()));
    let mut map = vec![SigId::new(0); old.num_cells()];

    for (sig, name) in old.inputs().iter().zip(old.input_names()) {
        map[sig.index()] = b.input(name.clone());
    }

    // Triplicated flip-flops + voters.
    let mut copies: Vec<[SigId; 3]> = Vec::with_capacity(old.num_ffs());
    for (k, &ff) in old.ffs().iter().enumerate() {
        let CellKind::Dff { init } = old.cell(ff).kind() else { unreachable!() };
        let trio = [b.dff(init), b.dff(init), b.dff(init)];
        for (c, q) in trio.iter().enumerate() {
            b.name_signal(*q, format!("u{k}_tmr{c}"));
        }
        let ab = b.and2(trio[0], trio[1]);
        let bc = b.and2(trio[1], trio[2]);
        let ac = b.and2(trio[0], trio[2]);
        let vote = b.gate(GateKind::Or, &[ab, bc, ac]);
        b.name_signal(vote, format!("u{k}_vote"));
        map[ff.index()] = vote;
        copies.push(trio);
    }

    for (sig, cell) in old.iter_cells() {
        if let CellKind::Const(v) = cell.kind() {
            map[sig.index()] = b.constant(v);
        }
    }
    let order = old.levelize().expect("validated netlist");
    for &sig in order.order() {
        let cell = old.cell(sig);
        let CellKind::Gate(kind) = cell.kind() else { unreachable!() };
        let pins: Vec<_> = cell.pins().iter().map(|p| map[p.index()]).collect();
        map[sig.index()] = b.gate(kind, &pins);
    }

    for (trio, &ff) in copies.iter().zip(old.ffs()) {
        let d = map[old.cell(ff).pins()[0].index()];
        for q in trio {
            b.connect_dff(*q, d).expect("tmr dff wiring");
        }
    }

    for (name, sig) in old.outputs() {
        b.output(name.clone(), map[sig.index()]);
    }
    b.finish().expect("tmr netlist is valid")
}

/// Applies duplication with comparison.
///
/// The whole register bank is duplicated (sharing the next-state logic);
/// a comparator OR-reduces the per-flip-flop mismatches into a new
/// `dwc_alarm` output appended after the original outputs. SEUs are
/// *detected* (alarm raised while the copies disagree) but not corrected.
///
/// Flip-flop order is `[ff0_main, ff0_shadow, ff1_main, …]`.
///
/// # Panics
///
/// Panics if the circuit has no flip-flops.
#[must_use]
pub fn dwc(old: &Netlist) -> Netlist {
    assert!(old.num_ffs() > 0, "dwc needs at least one flip-flop");
    let mut b = NetlistBuilder::new(format!("{}_dwc", old.name()));
    let mut map = vec![SigId::new(0); old.num_cells()];

    for (sig, name) in old.inputs().iter().zip(old.input_names()) {
        map[sig.index()] = b.input(name.clone());
    }

    let mut pairs: Vec<(SigId, SigId)> = Vec::with_capacity(old.num_ffs());
    for (k, &ff) in old.ffs().iter().enumerate() {
        let CellKind::Dff { init } = old.cell(ff).kind() else { unreachable!() };
        let main = b.dff(init);
        let shadow = b.dff(init);
        b.name_signal(main, format!("u{k}_main"));
        b.name_signal(shadow, format!("u{k}_shadow"));
        map[ff.index()] = main;
        pairs.push((main, shadow));
    }

    for (sig, cell) in old.iter_cells() {
        if let CellKind::Const(v) = cell.kind() {
            map[sig.index()] = b.constant(v);
        }
    }
    let order = old.levelize().expect("validated netlist");
    for &sig in order.order() {
        let cell = old.cell(sig);
        let CellKind::Gate(kind) = cell.kind() else { unreachable!() };
        let pins: Vec<_> = cell.pins().iter().map(|p| map[p.index()]).collect();
        map[sig.index()] = b.gate(kind, &pins);
    }

    let mut mismatches = Vec::with_capacity(old.num_ffs());
    for ((main, shadow), &ff) in pairs.iter().zip(old.ffs()) {
        let d = map[old.cell(ff).pins()[0].index()];
        b.connect_dff(*main, d).expect("dwc main wiring");
        b.connect_dff(*shadow, d).expect("dwc shadow wiring");
        mismatches.push(b.xor2(*main, *shadow));
    }
    let alarm = if mismatches.len() == 1 {
        b.buf(mismatches[0])
    } else {
        b.gate(GateKind::Or, &mismatches)
    };

    for (name, sig) in old.outputs() {
        b.output(name.clone(), map[sig.index()]);
    }
    b.output("dwc_alarm", alarm);
    b.finish().expect("dwc netlist is valid")
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::generators;
    use seugrade_faultsim::{FaultClass, FaultList, GradingSummary, Oracle};
    use seugrade_sim::{CompiledSim, Testbench};

    use super::*;

    #[test]
    fn tmr_preserves_function() {
        for name in ["b01s", "b02s", "b06s"] {
            let plain = seugrade_circuits::registry::build(name).unwrap();
            let hard = tmr(&plain);
            let tb = Testbench::random(plain.num_inputs(), 50, 3);
            let a = CompiledSim::new(&plain).run_golden(&tb);
            let b = CompiledSim::new(&hard).run_golden(&tb);
            for t in 0..50 {
                assert_eq!(a.output_at(t), b.output_at(t), "{name} cycle {t}");
            }
        }
    }

    #[test]
    fn dwc_preserves_function_and_is_quiet() {
        let plain = generators::lfsr(6, &[5, 4]);
        let hard = dwc(&plain);
        let tb = Testbench::constant_low(0, 40);
        let a = CompiledSim::new(&plain).run_golden(&tb);
        let b = CompiledSim::new(&hard).run_golden(&tb);
        for t in 0..40 {
            let outs = b.output_at(t);
            assert_eq!(a.output_at(t), &outs[..outs.len() - 1], "cycle {t}");
            assert!(!outs[outs.len() - 1], "alarm quiet in fault-free run");
        }
    }

    #[test]
    fn tmr_eliminates_failures() {
        // LFSR: unhardened, every fault is an immediate failure;
        // hardened, every fault must be silent (voted away next cycle).
        let plain = generators::lfsr(6, &[5, 4]);
        let tb = Testbench::constant_low(0, 20);
        let faults = FaultList::exhaustive(6, 20);
        let plain_sum =
            GradingSummary::from_outcomes(&Oracle::new(&plain, &tb).run(faults.as_slice()));
        assert_eq!(plain_sum.count(FaultClass::Failure), 120);

        let hard = tmr(&plain);
        let hard_faults = FaultList::exhaustive(18, 20);
        let hard_sum =
            GradingSummary::from_outcomes(&Oracle::new(&hard, &tb).run(hard_faults.as_slice()));
        assert_eq!(hard_sum.count(FaultClass::Failure), 0, "{hard_sum}");
        assert_eq!(hard_sum.count(FaultClass::Silent), 18 * 20);
    }

    #[test]
    fn dwc_raises_alarm_on_fault() {
        // A fault in a main flip-flop must trip the alarm output, i.e.
        // grade as Failure in the hardened circuit.
        let plain = generators::counter(4);
        let hard = dwc(&plain);
        let tb = Testbench::constant_low(0, 10);
        let faults = FaultList::exhaustive(8, 10);
        let outcomes = Oracle::new(&hard, &tb).run(faults.as_slice());
        let summary = GradingSummary::from_outcomes(&outcomes);
        assert_eq!(
            summary.count(FaultClass::Failure),
            80,
            "every copy flip is detected: {summary}"
        );
    }

    #[test]
    fn tmr_cost_is_three_x_ffs() {
        let plain = generators::counter(5);
        let hard = tmr(&plain);
        assert_eq!(hard.num_ffs(), 15);
        assert!(hard.num_gates() > plain.num_gates(), "voters added");
    }

    #[test]
    fn transforms_reject_combinational_circuits() {
        let mut b = NetlistBuilder::new("comb");
        let a = b.input("a");
        b.output("y", a);
        let n = b.finish().unwrap();
        assert!(std::panic::catch_unwind(|| tmr(&n)).is_err());
        assert!(std::panic::catch_unwind(|| dwc(&n)).is_err());
    }
}
