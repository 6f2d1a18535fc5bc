//! Compiled, levelized, 64-lane logic simulator.

use seugrade_netlist::{CellKind, FanoutAdjacency, FfIndex, GateKind, Netlist, SigId};

use crate::tape::{self, Tape};
use crate::trace::pack_bits;
use crate::{broadcast, GoldenTrace, Testbench, TracePolicy, TraceWindow};

/// One evaluation step of the generic tape.
#[derive(Clone, Debug)]
pub(crate) struct Instr {
    pub(crate) kind: GateKind,
    pub(crate) out: u32,
    /// Range into the pin pool.
    pub(crate) pin_start: u32,
    pub(crate) pin_len: u32,
}

/// A netlist compiled into a linear evaluation tape.
///
/// Signal values live in a separate [`SimState`], so one compiled program
/// can drive many concurrent machine states (golden vs faulty, or pools of
/// 64-lane fault groups). Every value is a `u64` of 64 independent lanes.
///
/// The tape is produced by levelization, so a single forward pass
/// ([`eval`](Self::eval)) settles all combinational logic;
/// [`step`](Self::step) then latches flip-flops.
#[derive(Clone, Debug)]
pub struct CompiledSim {
    pub(crate) num_cells: usize,
    pub(crate) instrs: Vec<Instr>,
    pub(crate) pin_pool: Vec<u32>,
    pub(crate) inputs: Vec<u32>,
    pub(crate) outputs: Vec<u32>,
    /// Flip-flop output slot per [`FfIndex`].
    pub(crate) ffs: Vec<u32>,
    /// Flip-flop data-input slot per [`FfIndex`].
    pub(crate) ff_d: Vec<u32>,
    ff_init: Vec<bool>,
    consts: Vec<(u32, bool)>,
    /// The specialized SoA evaluation tape behind [`eval`](Self::eval).
    tape: Tape,
    /// Levelized fanout rows: signal slot → consumer instruction
    /// positions, ascending — the traversal structure of the
    /// differential kernel.
    pub(crate) fanout: FanoutAdjacency,
    /// CSR rows mapping a signal slot to the output slots of the
    /// flip-flops whose `D` pin reads it (the dev-space step relation).
    pub(crate) ff_q_start: Vec<u32>,
    pub(crate) ff_q_targets: Vec<u32>,
    /// Flip-flop index per signal slot, `u32::MAX` for slots that are no
    /// flip-flop output: names the flip-flop behind a deviant `Q` slot
    /// (the alias scan of the differential kernel).
    pub(crate) ff_of_slot: Vec<u32>,
}

/// The mutable value store for a [`CompiledSim`]: one 64-lane word per
/// signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimState {
    pub(crate) values: Vec<u64>,
    /// Scratch buffer for the two-phase flip-flop latch in
    /// [`CompiledSim::step`].
    ff_next: Vec<u64>,
}

impl SimState {
    /// Raw access to a signal word (all 64 lanes).
    #[must_use]
    pub fn raw(&self, sig: SigId) -> u64 {
        self.values[sig.index()]
    }
}

impl CompiledSim {
    /// Compiles a netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational loop — impossible
    /// for netlists produced by
    /// [`NetlistBuilder::finish`](seugrade_netlist::NetlistBuilder::finish),
    /// which validates acyclicity.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let lv = netlist
            .levelize()
            .expect("compiled simulation requires an acyclic netlist");
        let mut instrs = Vec::with_capacity(lv.order().len());
        let mut pin_pool = Vec::new();
        for &id in lv.order() {
            let cell = netlist.cell(id);
            let CellKind::Gate(kind) = cell.kind() else {
                unreachable!("levelize order contains only gates")
            };
            let pin_start = pin_pool.len() as u32;
            pin_pool.extend(cell.pins().iter().map(|p| p.index() as u32));
            instrs.push(Instr {
                kind,
                out: id.index() as u32,
                pin_start,
                pin_len: cell.pins().len() as u32,
            });
        }
        let mut consts = Vec::new();
        for (id, cell) in netlist.iter_cells() {
            if let CellKind::Const(v) = cell.kind() {
                consts.push((id.index() as u32, v));
            }
        }
        let ffs: Vec<u32> = netlist.ffs().iter().map(|f| f.index() as u32).collect();
        let ff_d: Vec<u32> = netlist
            .ffs()
            .iter()
            .map(|&f| netlist.cell(f).pins()[0].index() as u32)
            .collect();
        let num_cells = netlist.num_cells();
        // CSR: signal slot → the Q slots latching it (dev-space step).
        let mut ff_q_start = vec![0u32; num_cells + 1];
        for &d in &ff_d {
            ff_q_start[d as usize + 1] += 1;
        }
        for i in 0..num_cells {
            ff_q_start[i + 1] += ff_q_start[i];
        }
        let mut cursor = ff_q_start.clone();
        let mut ff_q_targets = vec![0u32; ff_d.len()];
        for (i, &d) in ff_d.iter().enumerate() {
            let c = &mut cursor[d as usize];
            ff_q_targets[*c as usize] = ffs[i];
            *c += 1;
        }
        let mut ff_of_slot = vec![u32::MAX; num_cells];
        for (i, &q) in ffs.iter().enumerate() {
            ff_of_slot[q as usize] = i as u32;
        }
        CompiledSim {
            num_cells,
            instrs,
            pin_pool,
            inputs: netlist.inputs().iter().map(|i| i.index() as u32).collect(),
            outputs: netlist
                .outputs()
                .iter()
                .map(|(_, s)| s.index() as u32)
                .collect(),
            ffs,
            ff_d,
            ff_init: netlist.ff_init_values(),
            consts,
            tape: Tape::build(netlist, &lv),
            fanout: netlist.levelized_fanout(&lv),
            ff_q_start,
            ff_q_targets,
            ff_of_slot,
        }
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn num_ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Number of compiled gate instructions.
    #[must_use]
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Creates a state with flip-flops at their initial values (broadcast
    /// to all lanes), constants driven, and inputs low.
    #[must_use]
    pub fn new_state(&self) -> SimState {
        let mut st = SimState {
            values: vec![0u64; self.num_cells],
            ff_next: vec![0u64; self.ffs.len()],
        };
        self.reset(&mut st);
        st
    }

    /// Resets a state in place: flip-flops to their initial values on all
    /// lanes, inputs low, constants re-driven.
    pub fn reset(&self, state: &mut SimState) {
        for v in &mut state.values {
            *v = 0;
        }
        for &(slot, v) in &self.consts {
            state.values[slot as usize] = broadcast(v);
        }
        for (i, &slot) in self.ffs.iter().enumerate() {
            state.values[slot as usize] = broadcast(self.ff_init[i]);
        }
    }

    /// Applies one input vector to all 64 lanes.
    ///
    /// # Panics
    ///
    /// Panics if `vector` length differs from the input count.
    pub fn set_inputs(&self, state: &mut SimState, vector: &[bool]) {
        assert_eq!(vector.len(), self.inputs.len(), "input vector width");
        for (&slot, &bit) in self.inputs.iter().zip(vector) {
            state.values[slot as usize] = broadcast(bit);
        }
    }

    /// Applies raw 64-lane words to the inputs (lane-varying stimuli).
    ///
    /// # Panics
    ///
    /// Panics if `words` length differs from the input count.
    pub fn set_inputs_raw(&self, state: &mut SimState, words: &[u64]) {
        assert_eq!(words.len(), self.inputs.len(), "input word width");
        for (&slot, &w) in self.inputs.iter().zip(words) {
            state.values[slot as usize] = w;
        }
    }

    /// Propagates all combinational logic (one levelized pass).
    ///
    /// Runs the specialized SoA tape — homogeneous opcode runs with
    /// `Not`/`Buf` folded into consumer pins as negation masks. Golden
    /// runs, windowed trace and bit-span replay and the serial reference
    /// classifier all go through here;
    /// [`eval_generic`](Self::eval_generic) keeps the historical
    /// per-instruction walk as the generic faulty kernel.
    pub fn eval(&self, state: &mut SimState) {
        self.tape.eval(&mut state.values);
    }

    /// Propagates all combinational logic through the generic
    /// per-instruction tape — the pre-specialization kernel, kept as the
    /// reference baseline (`kernel: generic`) the differential kernel is
    /// cross-checked against.
    pub fn eval_generic(&self, state: &mut SimState) {
        let values = &mut state.values;
        for instr in &self.instrs {
            let pins = &self.pin_pool
                [instr.pin_start as usize..(instr.pin_start + instr.pin_len) as usize];
            let v = tape::eval_gate(instr.kind, pins, |p| values[p as usize]);
            values[instr.out as usize] = v;
        }
    }

    /// Latches every flip-flop: `Q <= D`. Call after [`eval`](Self::eval).
    ///
    /// The latch is two-phase (all `D` values are sampled before any `Q`
    /// is written) so flip-flops feeding flip-flops directly — shift
    /// chains, scan chains — behave like real edge-triggered registers.
    pub fn step(&self, state: &mut SimState) {
        for (i, &d) in self.ff_d.iter().enumerate() {
            state.ff_next[i] = state.values[d as usize];
        }
        for (i, &slot) in self.ffs.iter().enumerate() {
            state.values[slot as usize] = state.ff_next[i];
        }
    }

    /// Convenience: `set_inputs` + `eval` + `step` for one cycle.
    pub fn cycle(&self, state: &mut SimState, vector: &[bool]) {
        self.set_inputs(state, vector);
        self.eval(state);
        self.step(state);
    }

    /// Reads the outputs of lane `lane` (after [`eval`](Self::eval)).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn outputs_lane(&self, state: &SimState, lane: u32) -> Vec<bool> {
        assert!(lane < 64);
        self.outputs
            .iter()
            .map(|&slot| state.values[slot as usize] >> lane & 1 == 1)
            .collect()
    }

    /// Reads the raw 64-lane output words (after [`eval`](Self::eval)).
    #[must_use]
    pub fn outputs_raw(&self, state: &SimState) -> Vec<u64> {
        self.outputs
            .iter()
            .map(|&slot| state.values[slot as usize])
            .collect()
    }

    /// Reads the flip-flop vector of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn state_lane(&self, state: &SimState, lane: u32) -> Vec<bool> {
        assert!(lane < 64);
        self.ffs
            .iter()
            .map(|&slot| state.values[slot as usize] >> lane & 1 == 1)
            .collect()
    }

    /// Overwrites a flip-flop's 64-lane word.
    pub fn set_ff_raw(&self, state: &mut SimState, ff: FfIndex, word: u64) {
        state.values[self.ffs[ff.index()] as usize] = word;
    }

    /// Reads a flip-flop's 64-lane word.
    #[must_use]
    pub fn ff_raw(&self, state: &SimState, ff: FfIndex) -> u64 {
        state.values[self.ffs[ff.index()] as usize]
    }

    /// Loads a scalar state vector, broadcast to all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `bits` length differs from the flip-flop count.
    pub fn load_state(&self, state: &mut SimState, bits: &[bool]) {
        assert_eq!(bits.len(), self.ffs.len(), "state vector width");
        for (&slot, &bit) in self.ffs.iter().zip(bits) {
            state.values[slot as usize] = broadcast(bit);
        }
    }

    /// Flips flip-flop `ff` in exactly one lane — the SEU bit-flip
    /// primitive of the whole toolkit.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn flip_ff_lane(&self, state: &mut SimState, ff: FfIndex, lane: u32) {
        assert!(lane < 64);
        state.values[self.ffs[ff.index()] as usize] ^= 1u64 << lane;
    }

    /// Runs the full test bench from reset and records every cycle's
    /// outputs and state as one whole-run [`TraceWindow`] — the
    /// random-access value record conformance code compares against.
    /// The graders keep the memory-bounded [`GoldenTrace`] of
    /// [`run_golden_with`](Self::run_golden_with) instead.
    #[must_use]
    pub fn run_golden(&self, tb: &Testbench) -> TraceWindow {
        let mut state = self.new_state();
        let mut outputs = Vec::with_capacity(tb.num_cycles());
        let mut states = Vec::with_capacity(tb.num_cycles() + 1);
        states.push(self.state_lane(&state, 0));
        for vector in tb.iter() {
            self.set_inputs(&mut state, vector);
            self.eval(&mut state);
            outputs.push(self.outputs_lane(&state, 0));
            self.step(&mut state);
            states.push(self.state_lane(&state, 0));
        }
        TraceWindow::new(0, outputs, states)
    }

    /// Runs the full test bench from reset, capturing the golden
    /// reference run under the given [`TracePolicy`]: the flip-flop
    /// state at cycles `0, K, 2K, …` plus the end state — everything
    /// else is replayed on demand into the span store and, for the
    /// serial graders, through [`GoldenTrace::lanes_at`].
    ///
    /// # Panics
    ///
    /// Panics if the policy is `Checkpoint(0)`.
    #[must_use]
    pub fn run_golden_with(&self, tb: &Testbench, policy: TracePolicy) -> GoldenTrace {
        let k = policy.interval();
        assert!(k >= 1, "checkpoint interval must be at least 1");
        let mut state = self.new_state();
        // Checkpoints are stored bit-packed, one after the other.
        let words = self.num_ffs().div_ceil(64);
        let mut checkpoints = Vec::with_capacity((tb.num_cycles() / k + 1) * words);
        checkpoints.extend(pack_bits(&self.state_lane(&state, 0)));
        for (t, vector) in tb.iter().enumerate() {
            self.set_inputs(&mut state, vector);
            self.eval(&mut state);
            self.step(&mut state);
            if (t + 1) % k == 0 {
                // At the bench end the final state doubles as the last
                // checkpoint.
                checkpoints.extend(pack_bits(&self.state_lane(&state, 0)));
            }
        }
        let final_state = self.state_lane(&state, 0);
        GoldenTrace::new(self.num_outputs(), tb.num_cycles(), k, checkpoints, final_state)
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use super::*;

    /// Full adder with registered sum: s = a^b^cin, latched each cycle.
    fn adder_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let a = b.input("a");
        let x = b.input("b");
        let cin = b.input("cin");
        let t = b.xor2(a, x);
        let s = b.xor2(t, cin);
        let c1 = b.and2(a, x);
        let c2 = b.and2(t, cin);
        let cout = b.or2(c1, c2);
        let sr = b.dff(false);
        b.connect_dff(sr, s).unwrap();
        b.output("s_comb", s);
        b.output("cout", cout);
        b.output("s_reg", sr);
        b.finish().unwrap()
    }

    #[test]
    fn compiled_sim_is_send_sync() {
        // One compiled program drives many worker threads, each with its
        // own (Send) state; both auto-traits are load-bearing for the
        // sharded campaign engine.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledSim>();
        assert_send_sync::<SimState>();
    }

    #[test]
    fn combinational_truth_table() {
        let n = adder_netlist();
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        for a in [false, true] {
            for x in [false, true] {
                for c in [false, true] {
                    sim.set_inputs(&mut st, &[a, x, c]);
                    sim.eval(&mut st);
                    let o = sim.outputs_lane(&st, 0);
                    let sum = (a as u8 + x as u8 + c as u8) & 1 == 1;
                    let carry = (a as u8 + x as u8 + c as u8) >= 2;
                    assert_eq!(o[0], sum, "sum({a},{x},{c})");
                    assert_eq!(o[1], carry, "carry({a},{x},{c})");
                }
            }
        }
    }

    #[test]
    fn register_latches_on_step() {
        let n = adder_netlist();
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        sim.set_inputs(&mut st, &[true, false, false]);
        sim.eval(&mut st);
        assert!(!sim.outputs_lane(&st, 0)[2], "s_reg still reset");
        sim.step(&mut st);
        sim.eval(&mut st);
        assert!(sim.outputs_lane(&st, 0)[2], "s_reg latched 1");
    }

    #[test]
    fn golden_trace_counter() {
        let mut b = NetlistBuilder::new("cnt");
        let q0 = b.dff(false);
        let q1 = b.dff(false);
        let n0 = b.not(q0);
        let n1 = b.xor2(q1, q0);
        b.connect_dff(q0, n0).unwrap();
        b.connect_dff(q1, n1).unwrap();
        b.output("b0", q0);
        b.output("b1", q1);
        let n = b.finish().unwrap();
        let sim = CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 6);
        let trace = sim.run_golden(&tb);
        for t in 0..6 {
            let expect0 = t & 1 == 1;
            let expect1 = t >> 1 & 1 == 1;
            assert_eq!(trace.output_at(t), &[expect0, expect1], "cycle {t}");
            assert_eq!(trace.state_at(t), &[expect0, expect1]);
        }
        assert_eq!(trace.state_at(6), &[false, true]); // 6 mod 4 = 2
    }

    #[test]
    fn lanes_are_independent() {
        // A single dff fed by its inversion; flip lane 3 and verify only
        // lane 3 diverges, and re-converges never (toggle keeps distance).
        let mut b = NetlistBuilder::new("t");
        let q = b.dff(false);
        let inv = b.not(q);
        b.connect_dff(q, inv).unwrap();
        b.output("q", q);
        let n = b.finish().unwrap();
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        sim.flip_ff_lane(&mut st, FfIndex::new(0), 3);
        for _ in 0..5 {
            sim.eval(&mut st);
            let word = sim.outputs_raw(&st)[0];
            let lane0 = word & 1;
            let lane3 = word >> 3 & 1;
            assert_ne!(lane0, lane3, "faulty lane must stay inverted");
            sim.step(&mut st);
        }
    }

    #[test]
    fn load_state_roundtrip() {
        let mut b = NetlistBuilder::new("r");
        let q0 = b.dff(false);
        let q1 = b.dff(false);
        let c = b.constant(false);
        b.connect_dff(q0, c).unwrap();
        b.connect_dff(q1, c).unwrap();
        b.output("q0", q0);
        b.output("q1", q1);
        let n = b.finish().unwrap();
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        sim.load_state(&mut st, &[true, false]);
        assert_eq!(sim.state_lane(&st, 0), vec![true, false]);
        assert_eq!(sim.state_lane(&st, 17), vec![true, false]);
    }

    #[test]
    fn reset_restores_init_values() {
        let mut b = NetlistBuilder::new("init");
        let q0 = b.dff(true);
        let q1 = b.dff(false);
        let c = b.constant(false);
        b.connect_dff(q0, c).unwrap();
        b.connect_dff(q1, c).unwrap();
        b.output("q0", q0);
        let n = b.finish().unwrap();
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        sim.eval(&mut st);
        sim.step(&mut st);
        assert_eq!(sim.state_lane(&st, 0), vec![false, false]);
        sim.reset(&mut st);
        assert_eq!(sim.state_lane(&st, 0), vec![true, false]);
    }

    #[test]
    fn wide_gate_instruction() {
        let mut b = NetlistBuilder::new("wide");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let g = b.gate(GateKind::And, &[i0, i1, i2, i3]);
        let g2 = b.gate(GateKind::Nor, &[i0, i1, i2]);
        b.output("and4", g);
        b.output("nor3", g2);
        let n = b.finish().unwrap();
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        sim.set_inputs(&mut st, &[true, true, true, true]);
        sim.eval(&mut st);
        assert_eq!(sim.outputs_lane(&st, 0), vec![true, false]);
        sim.set_inputs(&mut st, &[false, false, false, true]);
        sim.eval(&mut st);
        assert_eq!(sim.outputs_lane(&st, 0), vec![false, true]);
    }

    #[test]
    fn tape_matches_generic_on_every_slot() {
        // Inverter chains, reconvergence, wide gates, muxes: the
        // specialized tape must leave every signal word — not just
        // outputs — identical to the generic interpreter's.
        let mut b = NetlistBuilder::new("mix");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let q = b.dff(true);
        let n1 = b.not(i0);
        let n2 = b.not(n1);
        let n3 = b.not(n2);
        let bf = b.buf(n3);
        let a = b.and2(bf, i1);
        let o = b.gate(GateKind::Nor, &[n1, i2, a]);
        let x = b.xor2(n3, q);
        let xn = b.gate(GateKind::Xnor, &[n1, bf]);
        let m = b.mux(x, o, xn);
        b.connect_dff(q, m).unwrap();
        b.output("m", m);
        b.output("o", o);
        let n = b.finish().unwrap();
        let sim = CompiledSim::new(&n);
        let mut st_t = sim.new_state();
        let mut st_g = sim.new_state();
        for step in 0..32u32 {
            let vec: Vec<bool> = (0..3).map(|i| step >> i & 1 == 1).collect();
            sim.set_inputs(&mut st_t, &vec);
            sim.set_inputs(&mut st_g, &vec);
            sim.eval(&mut st_t);
            sim.eval_generic(&mut st_g);
            assert_eq!(st_t.values, st_g.values, "step {step}");
            sim.step(&mut st_t);
            sim.step(&mut st_g);
        }
    }

    #[test]
    fn tape_specializes_the_common_gates() {
        let n = adder_netlist();
        let sim = CompiledSim::new(&n);
        // Every gate of the adder is a 2-input and/or/xor: no generic
        // fallback instructions should remain.
        assert_eq!(sim.tape.specialized_gates(), sim.num_instrs());
    }

    #[test]
    fn set_inputs_raw_lane_varying() {
        let mut b = NetlistBuilder::new("raw");
        let a = b.input("a");
        b.output("y", a);
        let n = b.finish().unwrap();
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        sim.set_inputs_raw(&mut st, &[0b1010]);
        sim.eval(&mut st);
        assert!(!sim.outputs_lane(&st, 0)[0]);
        assert!(sim.outputs_lane(&st, 1)[0]);
        assert!(sim.outputs_lane(&st, 3)[0]);
    }
}
