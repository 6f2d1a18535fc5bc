//! Activity-driven (event) simulator — the engine of the fault-grading
//! oracle.

use seugrade_netlist::{CellKind, FfIndex, Netlist, SigId};

use crate::{Testbench, TraceWindow};

/// A straightforward event-driven two-valued simulator.
///
/// Functionally identical to [`CompiledSim`](crate::CompiledSim) (lane 0)
/// but implemented with a completely different evaluation strategy
/// (per-gate events propagated in level order instead of a full compiled
/// sweep). The test suites simulate every circuit on both engines and
/// require identical traces; a divergence indicates a bug in one engine.
/// The fault-grading oracle (`seugrade_faultsim::Oracle`) runs on it, so
/// its verdicts share no evaluation code with the production graders.
///
/// # Example
///
/// ```
/// use seugrade_netlist::NetlistBuilder;
/// use seugrade_sim::{CompiledSim, EventSim, Testbench};
///
/// # fn main() -> Result<(), seugrade_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("x");
/// let a = b.input("a");
/// let q = b.dff(false);
/// let g = b.xor2(a, q);
/// b.connect_dff(q, g)?;
/// b.output("y", g);
/// let n = b.finish()?;
///
/// let tb = Testbench::random(1, 16, 7);
/// let fast = CompiledSim::new(&n).run_golden(&tb);
/// let slow = EventSim::new(&n).run_golden(&tb);
/// assert_eq!(fast, slow);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct EventSim {
    netlist: Netlist,
    level_of: Vec<u32>,
    fanout: Vec<Vec<SigId>>,
    values: Vec<bool>,
    /// Per-level worklists, reused across eval calls.
    dirty: Vec<Vec<SigId>>,
    in_queue: Vec<bool>,
    /// Gate pin values and latched next state, reused across calls.
    pins: Vec<bool>,
    next: Vec<bool>,
    events_processed: u64,
}

impl EventSim {
    /// Builds an event simulator for a netlist (cloned internally).
    ///
    /// # Panics
    ///
    /// Panics on combinational loops (excluded by netlist validation).
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let lv = netlist.levelize().expect("acyclic netlist");
        let n = netlist.num_cells();
        let mut level_of = vec![0u32; n];
        for (id, _) in netlist.iter_cells() {
            level_of[id.index()] = lv.level(id);
        }
        let depth = lv.depth() as usize;
        let mut sim = EventSim {
            fanout: netlist.fanout_map(),
            level_of,
            values: vec![false; n],
            dirty: vec![Vec::new(); depth + 1],
            in_queue: vec![false; n],
            pins: Vec::new(),
            next: vec![false; netlist.num_ffs()],
            events_processed: 0,
            netlist: netlist.clone(),
        };
        sim.reset();
        sim
    }

    /// Resets flip-flops to initial values, inputs low, and re-settles.
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = false;
        }
        // Every gate must be evaluated once to establish a consistent
        // initial picture (e.g. a NOT of an all-low cone is high even
        // though nothing "changed").
        let mut gates = Vec::new();
        for (id, cell) in self.netlist.iter_cells() {
            match cell.kind() {
                CellKind::Const(v) => self.values[id.index()] = v,
                CellKind::Dff { init } => self.values[id.index()] = init,
                CellKind::Input => {}
                CellKind::Gate(_) => gates.push(id),
            }
        }
        for g in gates {
            self.schedule(g);
        }
        self.settle();
    }

    fn schedule(&mut self, id: SigId) {
        if !self.in_queue[id.index()] {
            self.in_queue[id.index()] = true;
            let lvl = self.level_of[id.index()] as usize;
            self.dirty[lvl].push(id);
        }
    }

    fn schedule_fanout(&mut self, id: SigId) {
        for k in 0..self.fanout[id.index()].len() {
            let c = self.fanout[id.index()][k];
            if matches!(self.netlist.cell(c).kind(), CellKind::Gate(_)) {
                self.schedule(c);
            }
        }
    }

    fn settle(&mut self) {
        for lvl in 0..self.dirty.len() {
            while let Some(id) = self.dirty[lvl].pop() {
                self.in_queue[id.index()] = false;
                self.events_processed += 1;
                let cell = self.netlist.cell(id);
                let CellKind::Gate(kind) = cell.kind() else {
                    continue;
                };
                self.pins.clear();
                self.pins.extend(cell.pins().iter().map(|p| self.values[p.index()]));
                let new = kind.eval_bool(&self.pins);
                if new != self.values[id.index()] {
                    self.values[id.index()] = new;
                    // Fanout gates are at strictly higher levels, so the
                    // per-level sweep visits them later in this settle.
                    self.schedule_fanout(id);
                }
            }
        }
    }

    /// Sets signal `sig` to `bit` and schedules its fan-out if it changed.
    fn drive(&mut self, sig: SigId, bit: bool) {
        if self.values[sig.index()] != bit {
            self.values[sig.index()] = bit;
            self.schedule_fanout(sig);
        }
    }

    /// Applies an input vector and settles combinational logic.
    ///
    /// Only gates in the fan-out cone of *changed* inputs are re-evaluated
    /// (the "activity" in activity-driven).
    ///
    /// # Panics
    ///
    /// Panics if `vector` length differs from the input count.
    pub fn set_inputs(&mut self, vector: &[bool]) {
        assert_eq!(vector.len(), self.netlist.num_inputs(), "input vector width");
        for (k, &bit) in vector.iter().enumerate() {
            self.drive(self.netlist.inputs()[k], bit);
        }
        self.settle();
    }

    /// Latches flip-flops (`Q <= D`) and settles the new state.
    pub fn step(&mut self) {
        // Two-phase: read all D values first, then commit.
        for k in 0..self.next.len() {
            let d = self.netlist.cell(self.netlist.ffs()[k]).pins()[0];
            self.next[k] = self.values[d.index()];
        }
        for k in 0..self.next.len() {
            self.drive(self.netlist.ffs()[k], self.next[k]);
        }
        self.settle();
    }

    /// Loads a flip-flop vector (in [`FfIndex`] order) and settles: only
    /// the cones of flip-flops whose value changes are re-evaluated. The
    /// inputs keep their last applied values.
    ///
    /// # Panics
    ///
    /// Panics if `state` length differs from the flip-flop count.
    pub fn load_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.next.len(), "state vector width");
        for (k, &bit) in state.iter().enumerate() {
            self.drive(self.netlist.ffs()[k], bit);
        }
        self.settle();
    }

    /// Current value of a signal.
    #[must_use]
    pub fn value(&self, sig: SigId) -> bool {
        self.values[sig.index()]
    }

    /// Current primary-output vector.
    #[must_use]
    pub fn outputs(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|(_, s)| self.values[s.index()])
            .collect()
    }

    /// Current flip-flop vector in [`FfIndex`] order.
    #[must_use]
    pub fn state(&self) -> Vec<bool> {
        self.netlist
            .ffs()
            .iter()
            .map(|f| self.values[f.index()])
            .collect()
    }

    /// Flips one flip-flop (SEU injection) and settles.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    pub fn flip_ff(&mut self, ff: FfIndex) {
        let sig = self.netlist.ff_signal(ff);
        self.values[sig.index()] ^= true;
        self.schedule_fanout(sig);
        self.settle();
    }

    /// Total gate evaluations performed so far (activity metric).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs the full test bench from reset, recording every cycle's
    /// outputs and state as one whole-run [`TraceWindow`].
    pub fn run_golden(&mut self, tb: &Testbench) -> TraceWindow {
        self.reset();
        let mut outputs = Vec::with_capacity(tb.num_cycles());
        let mut states = Vec::with_capacity(tb.num_cycles() + 1);
        states.push(self.state());
        for vector in tb.iter() {
            self.set_inputs(vector);
            outputs.push(self.outputs());
            self.step();
            states.push(self.state());
        }
        TraceWindow::new(0, outputs, states)
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use crate::{CompiledSim, SplitMix64};
    use super::*;

    #[test]
    fn matches_compiled_on_counter() {
        let mut b = NetlistBuilder::new("cnt");
        let q0 = b.dff(false);
        let q1 = b.dff(true);
        let n0 = b.not(q0);
        let n1 = b.xor2(q1, q0);
        b.connect_dff(q0, n0).unwrap();
        b.connect_dff(q1, n1).unwrap();
        b.output("b0", q0);
        b.output("b1", q1);
        let n = b.finish().unwrap();
        let tb = Testbench::constant_low(0, 12);
        let fast = CompiledSim::new(&n).run_golden(&tb);
        let slow = EventSim::new(&n).run_golden(&tb);
        assert_eq!(fast, slow);
    }

    /// Random netlist generator for cross-checking (gates only reference
    /// earlier signals, so it is acyclic by construction).
    fn random_netlist(seed: u64) -> Netlist {
        let mut rng = SplitMix64::new(seed);
        let mut b = NetlistBuilder::new("rand");
        let n_in = 2 + rng.index(4);
        let n_ff = 1 + rng.index(5);
        let n_gates = 10 + rng.index(30);
        let mut sigs = Vec::new();
        for i in 0..n_in {
            sigs.push(b.input(format!("i{i}")));
        }
        let mut ffs = Vec::new();
        for _ in 0..n_ff {
            let q = b.dff(rng.next_bool());
            ffs.push(q);
            sigs.push(q);
        }
        for _ in 0..n_gates {
            use seugrade_netlist::GateKind::*;
            let kind = [And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Mux][rng.index(9)];
            let pick = |rng: &mut SplitMix64, sigs: &[seugrade_netlist::SigId]| {
                sigs[rng.index(sigs.len())]
            };
            let g = match kind {
                Not | Buf => {
                    let a = pick(&mut rng, &sigs);
                    b.gate(kind, &[a])
                }
                Mux => {
                    let s = pick(&mut rng, &sigs);
                    let d0 = pick(&mut rng, &sigs);
                    let d1 = pick(&mut rng, &sigs);
                    b.mux(s, d0, d1)
                }
                _ => {
                    let x = pick(&mut rng, &sigs);
                    let y = pick(&mut rng, &sigs);
                    b.gate(kind, &[x, y])
                }
            };
            sigs.push(g);
        }
        for (i, &q) in ffs.iter().enumerate() {
            let d = sigs[rng.index(sigs.len())];
            b.connect_dff(q, d).unwrap();
            b.output(format!("ff_o{i}"), q);
        }
        for i in 0..3 {
            b.output(format!("o{i}"), sigs[rng.index(sigs.len())]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn matches_compiled_on_random_circuits() {
        for seed in 0..25 {
            let n = random_netlist(seed);
            let tb = Testbench::random(n.num_inputs(), 20, seed ^ 0xFFFF);
            let fast = CompiledSim::new(&n).run_golden(&tb);
            let slow = EventSim::new(&n).run_golden(&tb);
            assert_eq!(fast, slow, "divergence on seed {seed}");
        }
    }

    #[test]
    fn flip_ff_propagates() {
        let mut b = NetlistBuilder::new("f");
        let q = b.dff(false);
        let c = b.constant(false);
        b.connect_dff(q, c).unwrap();
        let inv = b.not(q);
        b.output("y", inv);
        let n = b.finish().unwrap();
        let mut sim = EventSim::new(&n);
        assert_eq!(sim.outputs(), vec![true]);
        sim.flip_ff(FfIndex::new(0));
        assert_eq!(sim.outputs(), vec![false]);
        assert_eq!(sim.state(), vec![true]);
    }

    #[test]
    fn activity_counter_grows_only_on_changes() {
        let mut b = NetlistBuilder::new("idle");
        let a = b.input("a");
        let g = b.not(a);
        b.output("y", g);
        let n = b.finish().unwrap();
        let mut sim = EventSim::new(&n);
        let after_reset = sim.events_processed();
        sim.set_inputs(&[false]); // no change: input was already low
        assert_eq!(sim.events_processed(), after_reset);
        sim.set_inputs(&[true]);
        assert!(sim.events_processed() > after_reset);
    }
}
