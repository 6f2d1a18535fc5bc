//! The fault-free reference ("golden") run: dense or checkpointed.

use std::borrow::Cow;
use std::fmt;

use crate::{CompiledSim, Testbench};

/// How a [`GoldenTrace`] stores the reference run.
///
/// The autonomous emulator never materializes the whole golden run: it
/// checkpoints the flip-flop state periodically and regenerates anything
/// else on demand (the time-mux technique's golden machine *is* such a
/// rolling checkpoint). `TracePolicy` gives the software pipeline the
/// same knob:
///
/// - [`Dense`](TracePolicy::Dense) — store outputs and states for every
///   cycle (`O(FFs × cycles)` memory, zero-cost random access). The
///   historical behaviour, preserved exactly.
/// - [`Checkpoint(K)`](TracePolicy::Checkpoint) — store only the full
///   flip-flop state every `K` cycles (`O(FFs × cycles / K)` memory).
///   Outputs and intermediate states are reconstructed on demand by
///   replaying the compiled simulator from the nearest checkpoint into a
///   bounded [`TraceWindow`].
///
/// Both policies describe the *same* golden run; every consumer of a
/// window sees bit-identical data whatever the policy (a property the
/// agreement suites enforce through fault verdicts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TracePolicy {
    /// Full outputs + state trajectory, random access.
    Dense,
    /// Full flip-flop state every `K` cycles; everything else replayed.
    Checkpoint(usize),
}

impl TracePolicy {
    /// Parses a policy label: `dense` or `checkpoint:<K>` (K ≥ 1).
    ///
    /// The inverse of [`label`](Self::label); used by CLI flags.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        if s == "dense" {
            return Some(TracePolicy::Dense);
        }
        let k = s.strip_prefix("checkpoint:")?.parse::<usize>().ok()?;
        (k >= 1).then_some(TracePolicy::Checkpoint(k))
    }

    /// The label form parsed by [`from_label`](Self::from_label).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TracePolicy::Dense => "dense".to_owned(),
            TracePolicy::Checkpoint(k) => format!("checkpoint:{k}"),
        }
    }
}

impl fmt::Display for TracePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The stored representation behind a [`GoldenTrace`].
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// `outputs[t]` = outputs during cycle `t`; `states[t]` = flip-flop
    /// vector at the *start* of cycle `t` (`num_cycles + 1` entries, the
    /// last being the end state).
    Dense {
        outputs: Vec<Vec<bool>>,
        states: Vec<Vec<bool>>,
    },
    /// Checkpoint `i` = flip-flop vector at the start of cycle `i * K`,
    /// bit-packed (flip-flop `64w + b` is bit `b` of word `w`, the
    /// format of the span store's look-ahead seeds) and stored one after
    /// the other in `checkpoints`, `ceil(FFs / 64)` words each; plus the
    /// end-of-run state (needed by convergence checks at the final cycle
    /// and by [`GoldenTrace::final_state`]).
    Checkpoint {
        interval: usize,
        checkpoints: Vec<u64>,
        final_state: Vec<bool>,
    },
}

/// Captured golden run: the reference against which every faulty run is
/// compared, and what the autonomous emulator stores in its campaign RAM
/// (golden outputs for mask-scan/state-scan, golden states for
/// state-scan's scan-in vectors).
///
/// Produced by [`CompiledSim::run_golden`](crate::CompiledSim::run_golden)
/// (dense) or
/// [`CompiledSim::run_golden_with`](crate::CompiledSim::run_golden_with)
/// (any [`TracePolicy`]). Random access
/// ([`output_at`](Self::output_at)/[`state_at`](Self::state_at)) is only
/// available under [`TracePolicy::Dense`]; checkpointed traces hand out
/// bounded [`TraceWindow`]s via [`window`](Self::window) instead — the
/// access pattern the streaming fault graders use under *both* policies.
#[derive(Clone, PartialEq, Eq)]
pub struct GoldenTrace {
    num_outputs: usize,
    num_ffs: usize,
    num_cycles: usize,
    repr: Repr,
}

/// A contiguous span of golden data: outputs for cycles
/// `start..end` and states for `start..=end`.
///
/// Under [`TracePolicy::Dense`] a window borrows the trace (zero copy);
/// under [`TracePolicy::Checkpoint`] it owns data replayed from the
/// nearest checkpoint. Either way, accessors take **absolute** cycle
/// indices, so grading code is window-position agnostic.
#[derive(Clone, Debug)]
pub struct TraceWindow<'a> {
    start: usize,
    data: WindowData<'a>,
}

#[derive(Clone, Debug)]
enum WindowData<'a> {
    Borrowed {
        outputs: &'a [Vec<bool>],
        states: &'a [Vec<bool>],
    },
    Owned {
        outputs: Vec<Vec<bool>>,
        states: Vec<Vec<bool>>,
    },
}

impl TraceWindow<'_> {
    /// First cycle covered by the window.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last covered cycle. Outputs are available for
    /// `start()..end()`, states for `start()..=end()`.
    #[must_use]
    pub fn end(&self) -> usize {
        let n = match &self.data {
            WindowData::Borrowed { outputs, .. } => outputs.len(),
            WindowData::Owned { outputs, .. } => outputs.len(),
        };
        self.start + n
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
        match &self.data {
            WindowData::Borrowed { outputs, .. } => &outputs[t - self.start],
            WindowData::Owned { outputs, .. } => &outputs[t - self.start],
        }
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
        match &self.data {
            WindowData::Borrowed { states, .. } => &states[t - self.start],
            WindowData::Owned { states, .. } => &states[t - self.start],
        }
    }
}

impl GoldenTrace {
    pub(crate) fn new_dense(outputs: Vec<Vec<bool>>, states: Vec<Vec<bool>>) -> Self {
        assert_eq!(states.len(), outputs.len() + 1, "trace shape mismatch");
        GoldenTrace {
            num_outputs: outputs.first().map_or(0, Vec::len),
            num_ffs: states.first().map_or(0, Vec::len),
            num_cycles: outputs.len(),
            repr: Repr::Dense { outputs, states },
        }
    }

    pub(crate) fn new_checkpoint(
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
        GoldenTrace {
            num_outputs,
            num_ffs: final_state.len(),
            num_cycles,
            repr: Repr::Checkpoint { interval, checkpoints, final_state },
        }
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
        self.num_ffs
    }

    /// The storage policy this trace was captured under.
    #[must_use]
    pub fn policy(&self) -> TracePolicy {
        match &self.repr {
            Repr::Dense { .. } => TracePolicy::Dense,
            Repr::Checkpoint { interval, .. } => TracePolicy::Checkpoint(*interval),
        }
    }

    /// Outputs observed during cycle `t`.
    ///
    /// Random access requires [`TracePolicy::Dense`]; checkpointed
    /// traces serve data through [`window`](Self::window).
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_cycles()` or the trace is checkpointed.
    #[must_use]
    pub fn output_at(&self, t: usize) -> &[bool] {
        match &self.repr {
            Repr::Dense { outputs, .. } => &outputs[t],
            Repr::Checkpoint { .. } => {
                panic!("output_at requires TracePolicy::Dense; use window()")
            }
        }
    }

    /// Flip-flop state at the start of cycle `t`; `t = num_cycles()`
    /// gives the end-of-run state.
    ///
    /// Random access requires [`TracePolicy::Dense`]; checkpointed
    /// traces serve data through [`window`](Self::window).
    ///
    /// # Panics
    ///
    /// Panics if `t > num_cycles()` or the trace is checkpointed.
    #[must_use]
    pub fn state_at(&self, t: usize) -> &[bool] {
        match &self.repr {
            Repr::Dense { states, .. } => &states[t],
            Repr::Checkpoint { .. } => {
                panic!("state_at requires TracePolicy::Dense; use window()")
            }
        }
    }

    /// The state after the last cycle (available under every policy).
    #[must_use]
    pub fn final_state(&self) -> &[bool] {
        match &self.repr {
            Repr::Dense { states, .. } => {
                states.last().expect("trace has at least the initial state")
            }
            Repr::Checkpoint { final_state, .. } => final_state,
        }
    }

    /// A window of golden data covering cycles `start..end` (outputs)
    /// and `start..=end` (states).
    ///
    /// Under [`TracePolicy::Dense`] the window borrows the stored trace;
    /// under [`TracePolicy::Checkpoint`] it is reconstructed by replaying
    /// `sim` from the nearest stored checkpoint — `sim` and `tb` must be
    /// the pair the trace was captured from (same compiled circuit, same
    /// stimuli), which the graders guarantee by construction.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`, `end > num_cycles()`, or `sim`/`tb`
    /// dimensions do not match the trace.
    #[must_use]
    pub fn window<'a>(
        &'a self,
        sim: &CompiledSim,
        tb: &Testbench,
        start: usize,
        end: usize,
    ) -> TraceWindow<'a> {
        assert!(start < end, "empty trace window {start}..{end}");
        assert!(end <= self.num_cycles, "window end {end} beyond trace");
        assert_eq!(sim.num_ffs(), self.num_ffs, "window sim flip-flop count");
        assert_eq!(sim.num_outputs(), self.num_outputs, "window sim output count");
        assert_eq!(tb.num_cycles(), self.num_cycles, "window test-bench length");
        match &self.repr {
            Repr::Dense { outputs, states } => TraceWindow {
                start,
                data: WindowData::Borrowed {
                    outputs: &outputs[start..end],
                    states: &states[start..=end],
                },
            },
            Repr::Checkpoint { interval, .. } => {
                let from = start - start % interval;
                let seed = unpack_bits(&self.packed_state(from), self.num_ffs);
                let (outputs, states) = sim.replay_span(tb, &seed, from, start, end);
                TraceWindow { start, data: WindowData::Owned { outputs, states } }
            }
        }
    }

    /// The golden flip-flop state at the start of cycle `t`, bit-packed
    /// (flip-flop `64w + b` is bit `b` of word `w`) — a replay seed.
    /// Borrowed from a checkpoint, packed from a dense trace's state.
    ///
    /// # Panics
    ///
    /// Panics if `t > num_cycles()`, or the trace is checkpointed and
    /// `t` is not a multiple of its interval.
    pub(crate) fn packed_state(&self, t: usize) -> Cow<'_, [u64]> {
        match &self.repr {
            Repr::Dense { states, .. } => Cow::Owned(pack_bits(&states[t])),
            Repr::Checkpoint { interval, checkpoints, .. } => {
                assert_eq!(t % interval, 0, "cycle {t} is not a checkpoint");
                let words = self.num_ffs.div_ceil(64);
                Cow::Borrowed(&checkpoints[t / interval * words..][..words])
            }
        }
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
        self.num_ffs as u64 * self.num_cycles as u64
    }

    /// Bits a [`TracePolicy::Dense`] trace of this run would store —
    /// the baseline the checkpoint policies'
    /// [`stored_bits`](Self::stored_bits) are compared against:
    /// per-cycle outputs plus the `num_cycles + 1` flip-flop vectors of
    /// the state trajectory.
    #[must_use]
    pub fn dense_equivalent_bits(&self) -> u64 {
        self.golden_output_bits() + self.num_ffs as u64 * (self.num_cycles as u64 + 1)
    }

    /// Bits this trace actually stores in host memory under its policy:
    /// `(FFs + outputs) × cycles` for dense, `FFs × (cycles / K + 2)` for
    /// `Checkpoint(K)` — the `O(FFs × cycles / K)` bound the streaming
    /// campaign core is built on.
    #[must_use]
    pub fn stored_bits(&self) -> u64 {
        match &self.repr {
            Repr::Dense { outputs, states } => {
                let o: usize = outputs.iter().map(Vec::len).sum();
                let s: usize = states.iter().map(Vec::len).sum();
                (o + s) as u64
            }
            Repr::Checkpoint { interval, final_state, .. } => {
                let stored = self.num_cycles / interval + 2;
                (stored * final_state.len()) as u64
            }
        }
    }
}

/// Packs `bits` into `u64` words, bit `i` at bit `i % 64` of word
/// `i / 64`.
pub(crate) fn pack_bits(bits: &[bool]) -> Vec<u64> {
    bits.chunks(64)
        .map(|c| c.iter().rev().fold(0, |w, &b| w << 1 | u64::from(b)))
        .collect()
}

/// The first `n` bits of `words`, as packed by [`pack_bits`].
fn unpack_bits(words: &[u64], n: usize) -> Vec<bool> {
    (0..n).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect()
}

impl fmt::Debug for GoldenTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GoldenTrace")
            .field("num_cycles", &self.num_cycles())
            .field("num_outputs", &self.num_outputs)
            .field("num_ffs", &self.num_ffs)
            .field("policy", &self.policy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use super::*;

    fn toy_trace() -> GoldenTrace {
        GoldenTrace::new_dense(
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
        assert_send_sync::<TraceWindow<'_>>();
    }

    #[test]
    fn accessors() {
        let t = toy_trace();
        assert_eq!(t.num_cycles(), 2);
        assert_eq!(t.num_outputs(), 2);
        assert_eq!(t.num_ffs(), 1);
        assert_eq!(t.output_at(1), &[true, true]);
        assert_eq!(t.state_at(0), &[false]);
        assert_eq!(t.final_state(), &[false]);
        assert_eq!(t.golden_output_bits(), 4);
        assert_eq!(t.golden_state_bits(), 2);
        assert_eq!(t.policy(), TracePolicy::Dense);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = GoldenTrace::new_dense(vec![vec![true]], vec![vec![false]]);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [TracePolicy::Dense, TracePolicy::Checkpoint(1), TracePolicy::Checkpoint(64)] {
            assert_eq!(TracePolicy::from_label(&p.label()), Some(p));
        }
        assert_eq!(TracePolicy::from_label("checkpoint:0"), None);
        assert_eq!(TracePolicy::from_label("checkpoint:"), None);
        assert_eq!(TracePolicy::from_label("sparse"), None);
        assert_eq!(TracePolicy::Checkpoint(8).to_string(), "checkpoint:8");
    }

    #[test]
    fn checkpoint_windows_match_dense_everywhere() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 21);
        let dense = sim.run_golden(&tb);
        for k in [1, 2, 3, 5, 8, 21, 100] {
            let cp = sim.run_golden_with(&tb, TracePolicy::Checkpoint(k));
            assert_eq!(cp.policy(), TracePolicy::Checkpoint(k));
            assert_eq!(cp.final_state(), dense.final_state(), "K={k}");
            for start in 0..21 {
                for end in start + 1..=21 {
                    let w = cp.window(&sim, &tb, start, end);
                    assert_eq!(w.start(), start);
                    assert_eq!(w.end(), end);
                    for t in start..end {
                        assert_eq!(w.output_at(t), dense.output_at(t), "K={k} t={t}");
                        assert_eq!(w.state_at(t), dense.state_at(t), "K={k} t={t}");
                    }
                    assert_eq!(w.state_at(end), dense.state_at(end), "K={k} end={end}");
                }
            }
        }
    }

    #[test]
    fn dense_windows_borrow_the_trace() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 8);
        let dense = sim.run_golden(&tb);
        let w = dense.window(&sim, &tb, 2, 6);
        for t in 2..6 {
            assert_eq!(w.output_at(t), dense.output_at(t));
        }
        assert_eq!(w.state_at(6), dense.state_at(6));
    }

    #[test]
    fn stored_bits_shrink_with_checkpointing() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 64);
        let dense = sim.run_golden(&tb);
        let cp = sim.run_golden_with(&tb, TracePolicy::Checkpoint(16));
        // Dense: (3 outs + 3 ffs) * 64 cycles + 3 (end state).
        assert_eq!(dense.stored_bits(), (3 + 3) * 64 + 3);
        // Checkpoint(16): 5 checkpoints (0,16,32,48,64... 64/16+1 = 5) + end.
        assert_eq!(cp.stored_bits(), 3 * (5 + 1));
        // Emulator-facing quantities are policy independent, and the
        // dense-equivalent baseline matches what Dense actually stores.
        assert_eq!(cp.golden_state_bits(), dense.golden_state_bits());
        assert_eq!(cp.golden_output_bits(), dense.golden_output_bits());
        assert_eq!(cp.dense_equivalent_bits(), dense.stored_bits());
        assert_eq!(dense.dense_equivalent_bits(), dense.stored_bits());
    }

    #[test]
    #[should_panic(expected = "requires TracePolicy::Dense")]
    fn checkpoint_random_access_rejected() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 8);
        let cp = sim.run_golden_with(&tb, TracePolicy::Checkpoint(4));
        let _ = cp.state_at(3);
    }

    #[test]
    #[should_panic(expected = "empty trace window")]
    fn empty_window_rejected() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 8);
        let g = sim.run_golden(&tb);
        let _ = g.window(&sim, &tb, 3, 3);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_window_access_rejected() {
        let n = counter3();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 8);
        let g = sim.run_golden(&tb);
        let w = g.window(&sim, &tb, 2, 4);
        let _ = w.output_at(4);
    }
}
