//! The fault-free reference ("golden") run, checkpointed every `K` cycles.

use std::fmt;

use crate::{broadcast, CompiledSim, SimState, Testbench};

/// How a [`GoldenTrace`] stores the reference run.
///
/// The autonomous emulator never materializes the whole golden run: it
/// checkpoints the flip-flop state periodically and regenerates anything
/// else on demand (the time-mux technique's golden machine *is* such a
/// rolling checkpoint). `TracePolicy` is the software form of it: the
/// trace stores the full flip-flop state every `K` cycles
/// (`O(FFs × cycles / K)` memory), and outputs and intermediate states
/// are replayed by the compiled simulator from the nearest checkpoint,
/// into bit-packed spans or golden lanes.
///
/// Every interval describes the *same* golden run; every consumer sees
/// bit-identical data whatever `K` is (a property the oracle battery
/// enforces through fault verdicts). The default is `Checkpoint(64)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TracePolicy {
    /// Full flip-flop state every `K` cycles; everything else replayed.
    Checkpoint(usize),
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy::Checkpoint(64)
    }
}

impl TracePolicy {
    /// Parses a policy label: `checkpoint:<K>` (K ≥ 1).
    ///
    /// The inverse of [`label`](Self::label); used by CLI flags.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        let k = s.strip_prefix("checkpoint:")?.parse::<usize>().ok()?;
        (k >= 1).then_some(TracePolicy::Checkpoint(k))
    }

    /// The label form parsed by [`from_label`](Self::from_label).
    #[must_use]
    pub fn label(&self) -> String {
        format!("checkpoint:{}", self.interval())
    }

    /// The checkpoint interval `K`.
    #[must_use]
    pub fn interval(self) -> usize {
        let TracePolicy::Checkpoint(k) = self;
        k
    }
}

impl fmt::Display for TracePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Captured golden run: the reference against which every faulty run is
/// compared, and what the autonomous emulator stores in its campaign RAM
/// (golden outputs for mask-scan/state-scan, golden states for
/// state-scan's scan-in vectors).
///
/// Produced by
/// [`CompiledSim::run_golden_with`](crate::CompiledSim::run_golden_with).
/// The trace holds the flip-flop state at every `K`-th cycle and at the
/// end of the run; golden data is handed out as bit-packed spans
/// through a [`BitCache`](crate::BitCache), or as golden lanes for the
/// serial graders via [`lanes_at`](Self::lanes_at), both replayed from
/// the nearest checkpoint. A whole-run [`TraceWindow`] comes from
/// [`CompiledSim::run_golden`](crate::CompiledSim::run_golden).
#[derive(Clone, PartialEq, Eq)]
pub struct GoldenTrace {
    num_outputs: usize,
    num_cycles: usize,
    interval: usize,
    /// Checkpoint `i` = flip-flop vector at the start of cycle `i * K`,
    /// bit-packed (flip-flop `64w + b` is bit `b` of word `w`, the
    /// format of the span store's look-ahead seeds), stored one after
    /// the other, `ceil(FFs / 64)` words each.
    checkpoints: Vec<u64>,
    /// The end-of-run state (needed by convergence checks at the final
    /// cycle and by [`final_state`](Self::final_state)).
    final_state: Vec<bool>,
}

/// A contiguous span of golden values: outputs for cycles `start..end`
/// and states for `start..=end`.
///
/// [`CompiledSim::run_golden`](crate::CompiledSim::run_golden) and
/// [`EventSim::run_golden`](crate::EventSim::run_golden) record a whole
/// run as one. Accessors take **absolute** cycle indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceWindow {
    start: usize,
    outputs: Vec<Vec<bool>>,
    states: Vec<Vec<bool>>,
}

impl TraceWindow {
    /// A window starting at cycle `start`: `outputs[i]` = outputs during
    /// cycle `start + i`, `states[i]` = flip-flop vector at the start of
    /// cycle `start + i` (one more state than outputs).
    pub(crate) fn new(start: usize, outputs: Vec<Vec<bool>>, states: Vec<Vec<bool>>) -> Self {
        assert_eq!(states.len(), outputs.len() + 1, "trace shape mismatch");
        TraceWindow { start, outputs, states }
    }

    /// First cycle covered by the window.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last covered cycle. Outputs are available for
    /// `start()..end()`, states for `start()..=end()`.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.outputs.len()
    }

    /// Outputs observed during (absolute) cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `start()..end()`.
    #[must_use]
    pub fn output_at(&self, t: usize) -> &[bool] {
        assert!(
            t >= self.start && t < self.end(),
            "cycle {t} outside window {}..{}",
            self.start,
            self.end()
        );
        &self.outputs[t - self.start]
    }

    /// Flip-flop state at the start of (absolute) cycle `t`;
    /// `t = end()` gives the state after the window's last cycle.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `start()..=end()`.
    #[must_use]
    pub fn state_at(&self, t: usize) -> &[bool] {
        assert!(
            t >= self.start && t <= self.end(),
            "state cycle {t} outside window {}..={}",
            self.start,
            self.end()
        );
        &self.states[t - self.start]
    }
}

impl GoldenTrace {
    pub(crate) fn new(
        num_outputs: usize,
        num_cycles: usize,
        interval: usize,
        checkpoints: Vec<u64>,
        final_state: Vec<bool>,
    ) -> Self {
        assert!(interval >= 1, "checkpoint interval must be at least 1");
        assert_eq!(
            checkpoints.len(),
            (num_cycles / interval + 1) * final_state.len().div_ceil(64),
            "checkpoint count mismatch"
        );
        GoldenTrace { num_outputs, num_cycles, interval, checkpoints, final_state }
    }

    /// Number of test-bench cycles in the trace.
    #[must_use]
    pub fn num_cycles(&self) -> usize {
        self.num_cycles
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn num_ffs(&self) -> usize {
        self.final_state.len()
    }

    /// The storage policy this trace was captured under.
    #[must_use]
    pub fn policy(&self) -> TracePolicy {
        TracePolicy::Checkpoint(self.interval)
    }

    /// The state after the last cycle.
    #[must_use]
    pub fn final_state(&self) -> &[bool] {
        &self.final_state
    }

    /// A simulation state holding the golden machine at the start of
    /// cycle `t` in every lane: the checkpoint at or before `t` is
    /// unpacked straight into the lanes and the `t mod K` cycles up to
    /// `t` are replayed (none when `t` is a checkpoint). `sim` and `tb`
    /// must be the pair the trace was captured from, which the graders
    /// guarantee by construction. The serial graders flip lane 0 and
    /// run lane 1 beside it as the golden reference.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_cycles()`, or `sim`/`tb` dimensions do not
    /// match the trace.
    #[must_use]
    pub fn lanes_at(&self, sim: &CompiledSim, tb: &Testbench, t: usize) -> SimState {
        assert!(t < self.num_cycles, "cycle {t} beyond trace");
        assert_eq!(sim.num_ffs(), self.num_ffs(), "lanes sim flip-flop count");
        assert_eq!(tb.num_cycles(), self.num_cycles, "lanes test-bench length");
        let from = t - t % self.interval;
        let seed = self.packed_state(from);
        let mut st = sim.new_state();
        for (i, &slot) in sim.ffs.iter().enumerate() {
            st.values[slot as usize] = broadcast(seed[i / 64] >> (i % 64) & 1 == 1);
        }
        for u in from..t {
            sim.set_inputs(&mut st, tb.cycle(u));
            sim.eval(&mut st);
            sim.step(&mut st);
        }
        st
    }

    /// The checkpointed golden flip-flop state at the start of cycle
    /// `t`, bit-packed (flip-flop `64w + b` is bit `b` of word `w`) — a
    /// replay seed.
    ///
    /// # Panics
    ///
    /// Panics if `t > num_cycles()` or `t` is not a multiple of the
    /// checkpoint interval.
    pub(crate) fn packed_state(&self, t: usize) -> &[u64] {
        assert_eq!(t % self.interval, 0, "cycle {t} is not a checkpoint");
        let words = self.num_ffs().div_ceil(64);
        &self.checkpoints[t / self.interval * words..][..words]
    }

    /// Golden-output storage in bits as the *emulator* sees it:
    /// `num_outputs × num_cycles` (the on-FPGA golden-response region for
    /// mask- and state-scan) — a property of the run, not of this trace's
    /// storage policy.
    #[must_use]
    pub fn golden_output_bits(&self) -> u64 {
        self.num_outputs as u64 * self.num_cycles as u64
    }

    /// Golden-state storage in bits as the *emulator* sees it:
    /// `num_ffs × num_cycles` (what state-scan needs to derive its
    /// per-fault scan-in vectors).
    #[must_use]
    pub fn golden_state_bits(&self) -> u64 {
        self.num_ffs() as u64 * self.num_cycles as u64
    }

    /// Bits a whole-run record of this run would hold — per-cycle
    /// outputs plus the `num_cycles + 1` flip-flop vectors of the state
    /// trajectory, as a [`TraceWindow`] over the whole run holds them:
    /// the emulator-RAM baseline that [`stored_bits`](Self::stored_bits)
    /// is compared against.
    #[must_use]
    pub fn dense_equivalent_bits(&self) -> u64 {
        self.golden_output_bits() + self.num_ffs() as u64 * (self.num_cycles as u64 + 1)
    }

    /// Bits this trace actually stores in host memory:
    /// `FFs × (cycles / K + 2)` — the `O(FFs × cycles / K)` bound the
    /// streaming campaign core is built on.
    #[must_use]
    pub fn stored_bits(&self) -> u64 {
        ((self.num_cycles / self.interval + 2) * self.num_ffs()) as u64
    }
}

impl fmt::Debug for GoldenTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GoldenTrace")
            .field("num_cycles", &self.num_cycles())
            .field("num_outputs", &self.num_outputs)
            .field("num_ffs", &self.num_ffs())
            .field("policy", &self.policy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use super::*;

    fn toy_window() -> TraceWindow {
        TraceWindow::new(
            3,
            vec![vec![false, true], vec![true, true]],
            vec![vec![false], vec![true], vec![false]],
        )
    }

    /// 3-bit counter netlist with all bits observed.
    fn counter3() -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("cnt3");
        let ffs: Vec<_> = (0..3).map(|_| b.dff(false)).collect();
        let mut carry = b.constant(true);
        for &q in &ffs {
            let next = b.xor2(q, carry);
            carry = b.and2(q, carry);
            b.connect_dff(q, next).unwrap();
        }
        for (i, &q) in ffs.iter().enumerate() {
            b.output(format!("c{i}"), q);
        }
        b.finish().unwrap()
    }

    #[test]
    fn golden_trace_is_send_sync() {
        // Shared read-only across the engine's worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GoldenTrace>();
        assert_send_sync::<TraceWindow>();
    }

    #[test]
    fn accessors() {
        let w = toy_window();
        assert_eq!((w.start(), w.end()), (3, 5));
        assert_eq!(w.output_at(4), &[true, true]);
        assert_eq!(w.state_at(3), &[false]);
        assert_eq!(w.state_at(5), &[false]);
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let t = sim.run_golden_with(&Testbench::constant_low(0, 10), TracePolicy::Checkpoint(4));
        assert_eq!(t.num_cycles(), 10);
        assert_eq!(t.num_outputs(), 3);
        assert_eq!(t.num_ffs(), 3);
        assert_eq!(t.final_state(), &[false, true, false]);
        assert_eq!(t.golden_output_bits(), 30);
        assert_eq!(t.golden_state_bits(), 30);
        assert_eq!(t.policy(), TracePolicy::Checkpoint(4));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = TraceWindow::new(0, vec![vec![true]], vec![vec![false]]);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [TracePolicy::Checkpoint(1), TracePolicy::Checkpoint(64)] {
            assert_eq!(TracePolicy::from_label(&p.label()), Some(p));
        }
        assert_eq!(TracePolicy::from_label("checkpoint:0"), None);
        assert_eq!(TracePolicy::from_label("checkpoint:"), None);
        assert_eq!(TracePolicy::from_label("sparse"), None);
        assert_eq!(TracePolicy::from_label("dense"), None);
        assert_eq!(TracePolicy::Checkpoint(8).to_string(), "checkpoint:8");
        assert_eq!(TracePolicy::default(), TracePolicy::Checkpoint(64));
    }

    #[test]
    fn golden_lanes_match_the_whole_run_at_every_cycle() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 21);
        let run = sim.run_golden(&tb);
        assert_eq!((run.start(), run.end()), (0, 21));
        for k in [1, 2, 3, 5, 8, 21, 100] {
            let cp = sim.run_golden_with(&tb, TracePolicy::Checkpoint(k));
            assert_eq!(cp.policy(), TracePolicy::Checkpoint(k));
            assert_eq!(cp.final_state(), run.state_at(21), "K={k}");
            for t in 0..21 {
                let st = cp.lanes_at(&sim, &tb, t);
                for lane in [0, 1, 63] {
                    assert_eq!(sim.state_lane(&st, lane), run.state_at(t), "K={k} t={t}");
                }
            }
        }
    }

    #[test]
    fn stored_bits_shrink_with_checkpointing() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 64);
        let cp = sim.run_golden_with(&tb, TracePolicy::Checkpoint(16));
        // Checkpoint(16): 5 checkpoints (0,16,32,48,64... 64/16+1 = 5) + end.
        assert_eq!(cp.stored_bits(), 3 * (5 + 1));
        // Checkpoint(1): every cycle's state, plus the end state.
        let every = sim.run_golden_with(&tb, TracePolicy::Checkpoint(1));
        assert_eq!(every.stored_bits(), 3 * (64 + 2));
        // Emulator-facing quantities are policy independent, and the
        // dense-equivalent baseline is what a whole-run window holds:
        // (3 outs + 3 ffs) * 64 cycles + 3 (end state).
        assert_eq!(cp.golden_state_bits(), every.golden_state_bits());
        assert_eq!(cp.golden_output_bits(), every.golden_output_bits());
        assert_eq!(cp.dense_equivalent_bits(), (3 + 3) * 64 + 3);
        assert_eq!(every.dense_equivalent_bits(), cp.dense_equivalent_bits());
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_window_access_rejected() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let w = sim.run_golden(&Testbench::constant_low(0, 4));
        let _ = w.output_at(4);
    }
}
