//! The independent oracle: fault verdicts from the event-driven
//! simulator and the paper's definitions alone.
//!
//! Every production path — both faulty kernels, both collapse modes,
//! every engine entry point — grades against the same compiled
//! simulator and golden store, so a bug there would agree with itself.
//! [`Oracle`] shares none of that evaluation code. It runs
//! [`EventSim`] (per-gate events in level order), takes its golden
//! values from `EventSim`'s own fault-free run, and classifies each
//! faulty run by the definitions at the [crate root](crate):
//!
//! - **failure** — the first cycle whose outputs differ from golden;
//! - otherwise **silent** — the first cycle after whose step the state
//!   equals golden;
//! - otherwise **latent**.
//!
//! A faulty run starts from the golden state at its injection cycle
//! ([`EventSim::load_state`]), so a verdict costs the cycles up to its
//! decision, not a replay from reset. The oracle is a reference for
//! tests, not a fast path: one machine, one fault at a time.

use seugrade_netlist::{FfIndex, Netlist, SigId};
use seugrade_sim::{EventSim, Testbench, TraceWindow};

use crate::{Fault, FaultOutcome, MultiFault};

/// The event-driven reference grader for one (circuit, test bench)
/// pair. See the [module docs](self).
///
/// # Example
///
/// ```
/// use seugrade_circuits::generators;
/// use seugrade_faultsim::{FaultClass, FaultList, Oracle};
/// use seugrade_sim::Testbench;
///
/// // Every counter bit is an output: each flip fails at once.
/// let circuit = generators::counter(4);
/// let tb = Testbench::constant_low(0, 10);
/// let mut oracle = Oracle::new(&circuit, &tb);
/// let faults = FaultList::exhaustive(4, 10);
/// for (f, o) in faults.iter().zip(oracle.run(faults.as_slice())) {
///     assert_eq!(o.class, FaultClass::Failure);
///     assert_eq!(o.detect_cycle, Some(f.cycle));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Oracle {
    sim: EventSim,
    tb: Testbench,
    golden: TraceWindow,
    outputs: Vec<SigId>,
    ffs: Vec<SigId>,
}

impl Oracle {
    /// Builds the oracle and runs its golden machine once.
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the netlist's inputs.
    #[must_use]
    pub fn new(netlist: &Netlist, tb: &Testbench) -> Self {
        assert_eq!(
            tb.num_inputs(),
            netlist.num_inputs(),
            "test bench width does not match circuit"
        );
        let mut sim = EventSim::new(netlist);
        let golden = sim.run_golden(tb);
        Oracle {
            sim,
            tb: tb.clone(),
            golden,
            outputs: netlist.outputs().iter().map(|&(_, s)| s).collect(),
            ffs: netlist.ffs().to_vec(),
        }
    }

    /// The golden run: outputs of every cycle, states `0..=cycles`.
    #[must_use]
    pub fn golden(&self) -> &TraceWindow {
        &self.golden
    }

    /// The verdict of one single-bit upset.
    ///
    /// # Panics
    ///
    /// Panics if the fault's cycle is outside the test bench or its
    /// flip-flop outside the circuit.
    pub fn classify(&mut self, fault: Fault) -> FaultOutcome {
        self.classify_flips(&[fault.ff], fault.cycle)
    }

    /// The verdict of one multi-bit upset.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`classify`](Self::classify).
    pub fn classify_multi(&mut self, fault: &MultiFault) -> FaultOutcome {
        self.classify_flips(&fault.ffs, fault.cycle)
    }

    /// The verdicts of a fault list, in order.
    pub fn run(&mut self, faults: &[Fault]) -> Vec<FaultOutcome> {
        faults.iter().map(|&f| self.classify(f)).collect()
    }

    /// The verdicts of a multi-bit fault list, in order.
    pub fn run_multi(&mut self, faults: &[MultiFault]) -> Vec<FaultOutcome> {
        faults.iter().map(|f| self.classify_multi(f)).collect()
    }

    /// Flips `ffs` in the golden state at the start of `cycle` and runs
    /// the faulty machine until the definitions decide it.
    fn classify_flips(&mut self, ffs: &[FfIndex], cycle: u32) -> FaultOutcome {
        let n_cycles = self.tb.num_cycles();
        let t = cycle as usize;
        assert!(t < n_cycles, "fault cycle out of range");
        self.sim.load_state(self.golden.state_at(t));
        for &ff in ffs {
            self.sim.flip_ff(ff);
        }
        for u in t..n_cycles {
            self.sim.set_inputs(self.tb.cycle(u));
            if !self.holds(&self.outputs, self.golden.output_at(u)) {
                return FaultOutcome::failure(u as u32);
            }
            self.sim.step();
            if self.holds(&self.ffs, self.golden.state_at(u + 1)) {
                return FaultOutcome::silent(u as u32);
            }
        }
        FaultOutcome::latent()
    }

    /// True when the simulator's `signals` carry `values`.
    fn holds(&self, signals: &[SigId], values: &[bool]) -> bool {
        signals.iter().zip(values).all(|(&s, &v)| self.sim.value(s) == v)
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use crate::FaultClass;
    use super::*;

    fn fault(ff: usize, cycle: u32) -> Fault {
        Fault::new(FfIndex::new(ff), cycle)
    }

    #[test]
    fn shift_register_fails_when_the_flip_reaches_the_output() {
        let (w, cycles) = (6, 20);
        let n = seugrade_circuits::generators::shift_register(w);
        let tb = Testbench::random(1, cycles, 3);
        let mut oracle = Oracle::new(&n, &tb);
        for i in 0..w {
            for t in 0..cycles as u32 {
                let o = oracle.classify(fault(i, t));
                let arrival = t + (w - 1 - i) as u32;
                if arrival < cycles as u32 {
                    assert_eq!(o, FaultOutcome::failure(arrival), "ff{i}@{t}");
                } else {
                    assert_eq!(o.class, FaultClass::Latent, "ff{i}@{t}");
                }
            }
        }
    }

    #[test]
    fn an_overwritten_flip_is_silent_at_its_own_cycle() {
        let mut b = NetlistBuilder::new("overwrite");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, a).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let mut oracle = Oracle::new(&n, &Testbench::random(1, 8, 5));
        for t in 0..8 {
            assert_eq!(oracle.classify(fault(0, t)), FaultOutcome::silent(t));
        }
    }

    #[test]
    fn an_unobserved_held_flip_is_latent() {
        let mut b = NetlistBuilder::new("latent");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, q).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let mut oracle = Oracle::new(&n, &Testbench::random(1, 8, 5));
        for t in 0..8 {
            assert_eq!(oracle.classify(fault(0, t)), FaultOutcome::latent());
        }
    }

    #[test]
    fn a_masked_flip_converges_when_the_mask_drops() {
        // q <= q AND a, a = 1,1,0,0: the flip dies the cycle `a` drops.
        let mut b = NetlistBuilder::new("mask");
        let a = b.input("a");
        let q = b.dff(true);
        let g = b.and2(q, a);
        b.connect_dff(q, g).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let tb = Testbench::new(vec![vec![true], vec![true], vec![false], vec![false]]);
        assert_eq!(Oracle::new(&n, &tb).classify(fault(0, 0)), FaultOutcome::silent(2));
    }

    #[test]
    fn a_one_bit_multi_fault_is_the_single_fault() {
        let n = seugrade_circuits::registry::build("b06s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 15, 3);
        let mut oracle = Oracle::new(&n, &tb);
        for f in crate::FaultList::exhaustive(n.num_ffs(), 15).iter() {
            let multi = MultiFault::new(vec![f.ff], f.cycle);
            assert_eq!(oracle.classify_multi(&multi), oracle.classify(f), "{f}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_cycle_out_of_range_panics() {
        let n = seugrade_circuits::generators::counter(2);
        let _ = Oracle::new(&n, &Testbench::constant_low(0, 4)).classify(fault(0, 99));
    }
}
