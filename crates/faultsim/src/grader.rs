//! The fault-grading engines.

use seugrade_netlist::Netlist;
use seugrade_sim::{
    BitCache, CompiledSim, DiffScratch, GoldenTrace, Kernel, SimState, Testbench, TracePolicy,
};

use crate::verdicts::{VerdictWindow, ALIAS_WINDOW};
use crate::{Fault, FaultClass, FaultOutcome};

/// Default capacity (in spans) of a grading run's golden span store, the
/// one [`BitCache`] its workers share and both faulty kernels read.
/// Enough that a cycle-major walk keeps its current span plus a few
/// neighbours hot, and that a miss rebuilds 4 spans per lane-parallel
/// replay pass (half the capacity, so the spans in use survive the next
/// batch); small enough that golden memory stays `O(cells × K)`. The
/// store's seed table is not counted here: it holds the look-ahead seeds
/// of at most 63 spans (`63 × 8 × FFs` bits), and none at capacity 0.
pub const DEFAULT_WINDOW_CACHE_SPANS: usize = 8;

/// When a decided fault lane stops being simulated — the paper's
/// mask-scan early-abort knob.
///
/// Every grading engine compares the faulty lanes against the golden
/// machine *every cycle*, so a lane's verdict (first output mismatch =
/// failure, first state reconvergence = silent) is known the cycle it
/// happens. `Collapse` only controls what the engine does with the rest
/// of the horizon:
///
/// - [`Early`](Collapse::Early) (default) — a chunk stops simulating the
///   cycle its last live lane is decided, exactly like the autonomous
///   emulator releasing the circuit for the next fault.
/// - [`Horizon`](Collapse::Horizon) — the chunk runs to the observation
///   horizon regardless; verdicts still record only the *first* event
///   per lane.
///
/// Verdicts are bit-identical either way (the collapse-equivalence
/// suite enforces digest equality); only the work differs. `Horizon`
/// exists as the measurable baseline that shows what early collapse
/// buys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Collapse {
    /// Retire lanes at their decision cycle; stop the chunk when all
    /// lanes are decided.
    #[default]
    Early,
    /// Simulate every chunk to the observation horizon.
    Horizon,
}

impl Collapse {
    /// Parses a collapse label: `on` (early) or `off` (horizon).
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "on" => Some(Collapse::Early),
            "off" => Some(Collapse::Horizon),
            _ => None,
        }
    }

    /// The label form parsed by [`from_label`](Self::from_label).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Collapse::Early => "on",
            Collapse::Horizon => "off",
        }
    }
}

/// Per-worker grading scratch: a reusable [`SimState`], the
/// differential kernel's [`DiffScratch`], a golden [`BitCache`] handle,
/// an optional [`VerdictWindow`] handle, the [`Collapse`] mode and
/// [`Kernel`], and work counters.
///
/// One `GradeScratch` belongs to exactly one worker thread (no sharing,
/// no locks); the engine's thread pool creates one per worker via
/// [`Grader::new_scratch`] and rebuilds it after a contained panic.
/// Scratch configuration affects only *speed* — verdicts are identical
/// for every collapse mode, cache capacity and window.
#[derive(Debug)]
pub struct GradeScratch {
    st: SimState,
    collapse: Collapse,
    sim_steps: u64,
    kernel: Kernel,
    diff: DiffScratch,
    bits: BitCache,
    alias: Alias,
}

/// The alias collapse's share of a scratch: the run's verdict window
/// (none on ordered plans) and its counters.
#[derive(Debug, Default)]
struct Alias {
    window: Option<VerdictWindow>,
    lanes: u64,
    misses: u64,
}

impl GradeScratch {
    /// The collapse mode this scratch grades under.
    #[must_use]
    pub fn collapse(&self) -> Collapse {
        self.collapse
    }

    /// The golden bit-span cache both kernels read (for hit/miss/replay
    /// statistics).
    #[must_use]
    pub fn bit_cache(&self) -> &BitCache {
        &self.bits
    }

    /// The faulty-evaluation kernel this scratch grades with.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Selects the faulty-evaluation [`Kernel`] (chainable; the default
    /// is [`Kernel::Auto`]). A pure speed knob — verdicts are identical
    /// for every kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Replaces the bit-span cache — the engine hands every worker a
    /// [`BitCache::clone_handle`] of one shared per-run store, so the
    /// pool replays each golden bit span once in total (chainable).
    #[must_use]
    pub fn with_bit_cache(mut self, bits: BitCache) -> Self {
        self.bits = bits;
        self
    }

    /// Hands the scratch a [`VerdictWindow`] handle (chainable): the
    /// differential kernel under [`Collapse::Early`] then records every
    /// graded verdict in it and retires a lane that has become a
    /// single-bit upset the window holds (see
    /// [`Grader::grade_chunk`]). The engine shares one window among the
    /// workers of an exhaustive run, which walks cycles in descending
    /// order so the upsets lanes turn into are graded first.
    #[must_use]
    pub fn with_verdict_window(mut self, window: VerdictWindow) -> Self {
        self.alias.window = Some(window);
        self
    }

    /// Lanes this scratch retired with the verdict of the single-bit
    /// upset they turned into (the alias collapse). How many of them
    /// found their verdict depends on thread timing under a shared
    /// window; their verdicts do not.
    #[must_use]
    pub fn aliased_lanes(&self) -> u64 {
        self.alias.lanes
    }

    /// Lanes that had become a single-bit upset whose verdict the window
    /// did not hold (yet), and so kept simulating. Depends on thread
    /// timing under a shared window.
    #[must_use]
    pub fn alias_misses(&self) -> u64 {
        self.alias.misses
    }

    /// Faulty-machine cycles simulated through this scratch (one per
    /// `eval` of a chunk walk; golden replay cycles are counted by the
    /// [`bit_cache`](Self::bit_cache) instead). The collapse-equivalence suite
    /// uses this to prove a retired lane is never re-simulated.
    #[must_use]
    pub fn sim_steps(&self) -> u64 {
        self.sim_steps
    }
}

/// Fault grader: compiled simulator + golden trace for one
/// (circuit, test bench) pair, with serial and bit-parallel engines.
///
/// All engines implement the classification semantics documented at the
/// [crate root](crate); the test suite enforces that they agree fault by
/// fault.
///
/// # Golden-trace storage
///
/// The trace keeps only every `K`-th flip-flop state — memory
/// `O(FFs × cycles / K)` instead of `O(FFs × cycles)`, at the cost of
/// replaying the golden machine per span. The chunk walkers read it as
/// bit-packed spans through a [`BitCache`]; the serial reference runs
/// the golden machine beside the faulty one, seeded from the checkpoint
/// before the injection. `K` is
/// [`TracePolicy::default`] (64) under [`new`](Self::new), or chosen
/// with [`with_policy`](Self::with_policy). Verdicts are bit-identical
/// for every `K` (enforced by the agreement suites).
#[derive(Debug)]
pub struct Grader {
    sim: CompiledSim,
    tb: Testbench,
    golden: GoldenTrace,
}

impl Grader {
    /// Builds the grader with the default golden-trace policy,
    /// [`TracePolicy::default`] (runs the golden reference once).
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the netlist's inputs.
    #[must_use]
    pub fn new(netlist: &Netlist, tb: &Testbench) -> Self {
        Self::with_policy(netlist, tb, TracePolicy::default())
    }

    /// Builds the grader with an explicit golden-trace storage policy.
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the netlist's
    /// inputs, or if the policy is `Checkpoint(0)`.
    #[must_use]
    pub fn with_policy(netlist: &Netlist, tb: &Testbench, policy: TracePolicy) -> Self {
        assert_eq!(
            tb.num_inputs(),
            netlist.num_inputs(),
            "test bench width does not match circuit"
        );
        let sim = CompiledSim::new(netlist);
        let golden = sim.run_golden_with(tb, policy);
        Grader { sim, tb: tb.clone(), golden }
    }

    /// The golden reference trace.
    #[must_use]
    pub fn golden(&self) -> &GoldenTrace {
        &self.golden
    }

    /// The golden-trace storage policy this grader was built with.
    #[must_use]
    pub fn trace_policy(&self) -> TracePolicy {
        self.golden.policy()
    }

    /// The compiled simulator (shared with emulation models).
    #[must_use]
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }

    /// The test bench.
    #[must_use]
    pub fn testbench(&self) -> &Testbench {
        &self.tb
    }

    // ------------------------------------------------------------------
    // Serial engine (reference implementation)
    // ------------------------------------------------------------------

    /// Grades one fault with the straightforward serial algorithm: lane 0
    /// of one simulation word runs the faulty machine and lane 1 the
    /// golden one, both seeded from the golden state at the injection
    /// cycle, and they are compared every cycle. Verdicts are
    /// bit-identical under every [`TracePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the fault's cycle is outside the test bench or its
    /// flip-flop index outside the circuit.
    #[must_use]
    pub fn classify_serial(&self, fault: Fault) -> FaultOutcome {
        self.classify_serial_with(fault, Collapse::Early)
    }

    /// [`classify_serial`](Self::classify_serial) under an explicit
    /// [`Collapse`] mode. The verdict is identical either way —
    /// [`Collapse::Horizon`] merely keeps simulating the decided lane to
    /// the observation horizon, which is what the collapse benchmarks
    /// measure against.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`classify_serial`](Self::classify_serial).
    #[must_use]
    pub fn classify_serial_with(&self, fault: Fault, collapse: Collapse) -> FaultOutcome {
        let n_cycles = self.tb.num_cycles();
        let t = fault.cycle as usize;
        assert!(t < n_cycles, "fault cycle out of range");
        let mut st = self.golden.lanes_at(&self.sim, &self.tb, t);
        self.sim.flip_ff_lane(&mut st, fault.ff, 0);
        let mut verdict = FaultOutcome::latent();
        let mut decided = false;
        for u in t..n_cycles {
            self.sim.set_inputs(&mut st, self.tb.cycle(u));
            self.sim.eval(&mut st);
            if !decided && self.sim.outputs_lane(&st, 0) != self.sim.outputs_lane(&st, 1) {
                verdict = FaultOutcome::failure(u as u32);
                decided = true;
            }
            if decided && collapse == Collapse::Early {
                return verdict;
            }
            self.sim.step(&mut st);
            if !decided && self.sim.state_lane(&st, 0) == self.sim.state_lane(&st, 1) {
                verdict = FaultOutcome::silent(u as u32);
                decided = true;
                if collapse == Collapse::Early {
                    return verdict;
                }
            }
        }
        verdict
    }

    /// Grades a fault list serially, in order.
    #[must_use]
    pub fn run_serial(&self, faults: &[Fault]) -> Vec<FaultOutcome> {
        faults.iter().map(|&f| self.classify_serial(f)).collect()
    }

    // ------------------------------------------------------------------
    // Bit-parallel engine (64 faults per pass)
    // ------------------------------------------------------------------

    /// The lane budget a chunk should be cut to: 64, one fault per lane
    /// of a simulation word, under every [`TracePolicy`] and kernel.
    #[must_use]
    pub fn chunk_lanes(&self) -> usize {
        64
    }

    /// Builds a per-worker [`GradeScratch`] with the given collapse mode
    /// and the capacity of its private golden span cache, in spans; 0
    /// disables caching.
    #[must_use]
    pub fn new_scratch(&self, collapse: Collapse, cache_spans: usize) -> GradeScratch {
        GradeScratch {
            st: self.sim.new_state(),
            collapse,
            sim_steps: 0,
            kernel: Kernel::Auto,
            diff: self.sim.new_diff_scratch(),
            bits: BitCache::new(cache_spans),
            alias: Alias::default(),
        }
    }

    /// Grades up to 64 faults in a single bit-parallel pass against a
    /// [`GradeScratch`], writing the verdicts into `out` (parallel to
    /// `chunk`). The scratch's span cache shares replayed golden spans
    /// across chunks, its collapse mode decides whether decided chunks stop
    /// early, and its counters record the work done.
    ///
    /// The faults may carry different injection cycles, in non-decreasing
    /// order: the pass starts at the first lane's cycle and flips each
    /// lane in at its own cycle, so a lane tracks the golden machine
    /// until its fault arrives.
    ///
    /// With a [`VerdictWindow`] in the scratch
    /// ([`GradeScratch::with_verdict_window`]), the differential kernel
    /// under [`Collapse::Early`] also applies the **alias collapse**: a
    /// lane whose state differs from golden in a single flip-flop `g`
    /// after cycle `u`, within [`ALIAS_WINDOW`] cycles of the chunk's
    /// first injection, takes the verdict of the upset `(g, u + 1)` if
    /// the window holds it, and every verdict the chunk reaches goes
    /// into the window. A lane whose upset is missing keeps simulating,
    /// so the verdicts are the same with or without a window.
    ///
    /// This is the shard-sized building block the batching engines are
    /// made of: an external runtime can cut any cycle-sorted fault list
    /// into chunks, grade each chunk on whichever thread with whichever
    /// scratch, and the verdicts stay identical to the serial engine's —
    /// they depend only on the fault, never on lane placement or chunk
    /// composition.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is empty, holds more than 64 faults, is not
    /// sorted by injection cycle, targets an out-of-range cycle, or if
    /// `out` has a different length than `chunk`.
    pub fn grade_chunk(
        &self,
        scratch: &mut GradeScratch,
        chunk: &[Fault],
        out: &mut [FaultOutcome],
    ) {
        let GradeScratch { st, collapse, sim_steps, kernel, diff, bits, alias } = scratch;
        match kernel.resolve() {
            Kernel::Generic => self.grade_chunk_generic(st, bits, *collapse, sim_steps, chunk, out),
            _ => self.grade_chunk_diff(diff, bits, *collapse, alias, sim_steps, chunk, out),
        }
    }

    /// Validates a chunk (non-empty, at most 64 lanes, sorted by
    /// injection cycle, in range), resets `out` to latent, and returns
    /// the first lane's injection cycle — where the walk starts.
    fn validate_chunk(&self, chunk: &[Fault], out: &mut [FaultOutcome]) -> usize {
        assert!(!chunk.is_empty(), "empty chunk");
        assert!(chunk.len() <= 64, "a chunk holds at most 64 faults");
        assert_eq!(chunk.len(), out.len(), "outcome slice width");
        assert!(
            chunk.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "chunk injection cycles are not sorted"
        );
        assert!(
            (chunk[chunk.len() - 1].cycle as usize) < self.tb.num_cycles(),
            "fault cycle out of range"
        );
        out.fill(FaultOutcome::latent());
        chunk[0].cycle as usize
    }

    /// Injects every lane due at cycle `u` — the run of `chunk` from lane
    /// `*next` whose cycle is `u` — through `flip(fault, lane)`, advances
    /// `*next` past them, and returns their lane mask.
    fn inject_due(
        chunk: &[Fault],
        next: &mut usize,
        u: usize,
        mut flip: impl FnMut(Fault, u32),
    ) -> u64 {
        let mut due = 0u64;
        while let Some(&f) = chunk.get(*next).filter(|f| f.cycle as usize == u) {
            flip(f, *next as u32);
            due |= 1u64 << *next;
            *next += 1;
        }
        due
    }

    /// Records `verdict` for every lane set in `lanes`.
    fn mark(out: &mut [FaultOutcome], lanes: u64, verdict: FaultOutcome) {
        if lanes == 0 {
            return;
        }
        for (lane, o) in out.iter_mut().enumerate() {
            if lanes >> lane & 1 == 1 {
                *o = verdict;
            }
        }
    }

    /// The generic kernel's full-evaluation walk: every gate is
    /// evaluated each cycle with [`CompiledSim::eval_generic`], and the
    /// outputs and next state are compared against the golden bit spans
    /// the differential kernel reads, from the same [`BitCache`]. Every
    /// lane is loaded with the golden state at the first lane's cycle, so
    /// a lane whose fault has not arrived yet simply tracks golden; only
    /// injected lanes enter the verdict masks.
    fn grade_chunk_generic(
        &self,
        st: &mut SimState,
        bits: &mut BitCache,
        collapse: Collapse,
        sim_steps: &mut u64,
        chunk: &[Fault],
        out: &mut [FaultOutcome],
    ) {
        let t = self.validate_chunk(chunk, out);
        let n_cycles = self.tb.num_cycles();
        let mut span = self.golden.bit_span_cached(&self.sim, &self.tb, t, bits);
        self.sim.span_load_state(st, &span, t);
        let (mut next, mut undecided) = (0, 0u64);
        for u in t..n_cycles {
            if u >= span.end() {
                span = self.golden.bit_span_cached(&self.sim, &self.tb, u, bits);
            }
            undecided |= Self::inject_due(chunk, &mut next, u, |f, lane| {
                self.sim.flip_ff_lane(st, f.ff, lane);
            });
            self.sim.set_inputs(st, self.tb.cycle(u));
            self.sim.eval_generic(st);
            *sim_steps += 1;
            let (out_diff, state_diff) = self.sim.span_diff(st, &span, u, undecided);
            let newly_failed = out_diff & undecided;
            Self::mark(out, newly_failed, FaultOutcome::failure(u as u32));
            undecided &= !newly_failed;
            let newly_silent = !state_diff & undecided;
            Self::mark(out, newly_silent, FaultOutcome::silent(u as u32));
            undecided &= !newly_silent;
            if undecided == 0 && collapse == Collapse::Early && next == chunk.len() {
                return;
            }
            self.sim.step(st);
        }
    }

    /// The differential (activity-driven) chunk walk: the faulty lanes
    /// are simulated **in deviation space** against bit-packed golden
    /// values, so per cycle only the gates reachable from the dirty
    /// frontier are evaluated — work proportional to the deviation cone,
    /// not the netlist. `out_diff` from the dev-space step *is* the
    /// failure mask, and a zero `state_diff` proves every lane
    /// reconverged without scanning a single register (the frontier is
    /// simply empty from then on).
    ///
    /// A lane not injected yet carries no deviation and costs nothing,
    /// so each lane is seeded at its own cycle. Under
    /// [`Collapse::Early`] a lane that fails is retired on the spot
    /// ([`CompiledSim::diff_retire`]) and stops driving its cone; once
    /// every injected lane is decided the deviation state is empty and
    /// the walk jumps straight to the next lane's injection cycle.
    ///
    /// Verdict semantics are identical to the full-evaluation walk:
    /// failures are claimed before same-cycle silences, each lane
    /// records its first event only, and `sim_steps` counts one per
    /// walked cycle.
    ///
    /// **Alias collapse.** With a verdict window under
    /// [`Collapse::Early`], after the failed and silent masks are taken
    /// at cycle `u` while `u + 1 − t ≤ ALIAS_WINDOW` (`t` the first
    /// lane's cycle), [`CompiledSim::diff_lone_ffs`] names the
    /// undecided lanes left with exactly one deviant flip-flop `g`. Such
    /// a lane is the upset `(g, u + 1)` from here on — the same
    /// trajectory, so the same class, detection and convergence cycle —
    /// and when the window holds that verdict the lane takes it and is
    /// retired with the failed lanes. Every verdict of the chunk is
    /// recorded in the window at the end, for the chunks of earlier
    /// cycles. The walk of cycles `u + 1 ..` is never needed to decide
    /// an aliased lane, so a window miss costs only the walk the lane
    /// would have taken anyway.
    #[allow(clippy::too_many_arguments)]
    fn grade_chunk_diff(
        &self,
        sc: &mut DiffScratch,
        bits: &mut BitCache,
        collapse: Collapse,
        alias: &mut Alias,
        sim_steps: &mut u64,
        chunk: &[Fault],
        out: &mut [FaultOutcome],
    ) {
        let mut u = self.validate_chunk(chunk, out);
        let first = u;
        let n_cycles = self.tb.num_cycles();
        let window = alias.window.as_ref().filter(|_| collapse == Collapse::Early);
        let mut span = self.golden.bit_span_cached(&self.sim, &self.tb, u, bits);
        let (mut next, mut undecided) = (0, 0u64);
        while u < n_cycles {
            undecided |= Self::inject_due(chunk, &mut next, u, |f, lane| {
                self.sim.diff_seed(sc, f.ff, lane);
            });
            if u >= span.end() {
                span = self.golden.bit_span_cached(&self.sim, &self.tb, u, bits);
            }
            let (out_diff, state_diff) = self.sim.diff_cycle(sc, &span, u);
            *sim_steps += 1;
            let newly_failed = out_diff & undecided;
            Self::mark(out, newly_failed, FaultOutcome::failure(u as u32));
            undecided &= !newly_failed;
            let newly_silent = !state_diff & undecided;
            Self::mark(out, newly_silent, FaultOutcome::silent(u as u32));
            undecided &= !newly_silent;
            let mut retired = newly_failed;
            if let Some(window) = window
                .filter(|_| undecided != 0 && u + 1 - first <= ALIAS_WINDOW && u + 1 < n_cycles)
            {
                let upset_cycle = (u + 1) as u32;
                let mut aliased = 0u64;
                self.sim.diff_lone_ffs(sc, undecided, |lane, g| match window.get(g, upset_cycle) {
                    Some(verdict) => {
                        out[lane as usize] = verdict;
                        aliased |= 1u64 << lane;
                    }
                    None => alias.misses += 1,
                });
                alias.lanes += u64::from(aliased.count_ones());
                undecided &= !aliased;
                retired |= aliased;
            }
            u += 1;
            if collapse == Collapse::Early {
                if retired != 0 {
                    self.sim.diff_retire(sc, retired);
                }
                if undecided == 0 {
                    debug_assert_eq!(sc.active_signals(), 0, "decided lanes left deviations");
                    match chunk.get(next) {
                        Some(f) => u = f.cycle as usize,
                        None => break,
                    }
                }
            }
        }
        self.sim.diff_reset(sc);
        if let Some(window) = window {
            for (f, &o) in chunk.iter().zip(out.iter()) {
                window.put(f.ff, f.cycle, o);
            }
        }
    }

    /// Per-flip-flop failure counts (a weak-area map, the re-design aid
    /// the paper's introduction motivates).
    #[must_use]
    pub fn failure_map(&self, faults: &[Fault], outcomes: &[FaultOutcome]) -> Vec<usize> {
        let mut map = vec![0usize; self.sim.num_ffs()];
        for (f, o) in faults.iter().zip(outcomes) {
            if o.class == FaultClass::Failure {
                map[f.ff.index()] += 1;
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::generators::{self, RandomCircuitConfig};
    use seugrade_netlist::{FfIndex, NetlistBuilder};
    use seugrade_sim::Testbench;

    use crate::FaultList;
    use super::*;

    /// Grades a cycle-sorted fault list 64 lanes at a time through one
    /// scratch, the way the engine's chunk loop does.
    fn grade_chunked(g: &Grader, faults: &[Fault]) -> Vec<FaultOutcome> {
        let mut scratch = g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
        let mut out = vec![FaultOutcome::latent(); faults.len()];
        for (chunk, out) in faults.chunks(64).zip(out.chunks_mut(64)) {
            g.grade_chunk(&mut scratch, chunk, out);
        }
        out
    }

    #[test]
    fn counter_faults_fail_immediately() {
        // Every counter bit is a primary output: any flip is visible at
        // its own injection cycle.
        let n = generators::counter(4);
        let tb = Testbench::constant_low(0, 10);
        let g = Grader::new(&n, &tb);
        for f in FaultList::exhaustive(4, 10).iter() {
            let o = g.classify_serial(f);
            assert_eq!(o.class, FaultClass::Failure, "{f}");
            assert_eq!(o.detect_cycle, Some(f.cycle), "{f}");
        }
    }

    #[test]
    fn shift_register_detection_latency() {
        // Flip bit i at cycle t; dout is bit w-1; the corrupted bit
        // reaches the output after (w-1-i) further cycles.
        let w = 6;
        let n = generators::shift_register(w);
        let cycles = 20;
        let tb = Testbench::random(1, cycles, 3);
        let g = Grader::new(&n, &tb);
        for i in 0..w {
            for t in 0..cycles as u32 {
                let o = g.classify_serial(Fault::new(FfIndex::new(i), t));
                let arrival = t + (w - 1 - i) as u32;
                if arrival < cycles as u32 {
                    assert_eq!(o.class, FaultClass::Failure, "ff{i}@{t}");
                    assert_eq!(o.detect_cycle, Some(arrival), "ff{i}@{t}");
                } else {
                    assert_eq!(o.class, FaultClass::Latent, "ff{i}@{t}");
                }
            }
        }
    }

    #[test]
    fn overwritten_ff_is_silent() {
        // q <= input every cycle; output independent of q.
        let mut b = NetlistBuilder::new("overwrite");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, a).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let tb = Testbench::random(1, 8, 5);
        let g = Grader::new(&n, &tb);
        for t in 0..8 {
            let o = g.classify_serial(Fault::new(FfIndex::new(0), t));
            assert_eq!(o.class, FaultClass::Silent, "cycle {t}");
            assert_eq!(o.converge_cycle, Some(t), "overwritten next cycle");
        }
    }

    #[test]
    fn unobserved_self_loop_is_latent() {
        let mut b = NetlistBuilder::new("latent");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, q).unwrap(); // holds forever
        b.output("y", a); // q unobservable
        let n = b.finish().unwrap();
        let tb = Testbench::random(1, 8, 5);
        let g = Grader::new(&n, &tb);
        for t in 0..8 {
            let o = g.classify_serial(Fault::new(FfIndex::new(0), t));
            assert_eq!(o.class, FaultClass::Latent, "cycle {t}");
        }
    }

    #[test]
    fn masking_produces_silent_later() {
        // q <= q AND a: once `a` goes low, both golden and faulty collapse
        // to 0 -> convergence strictly after injection.
        let mut b = NetlistBuilder::new("mask");
        let a = b.input("a");
        let q = b.dff(true);
        let g1 = b.and2(q, a);
        b.connect_dff(q, g1).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        // a = 1,1,0,...
        let tb = Testbench::new(vec![
            vec![true],
            vec![true],
            vec![false],
            vec![false],
        ]);
        let g = Grader::new(&n, &tb);
        let o = g.classify_serial(Fault::new(FfIndex::new(0), 0));
        assert_eq!(o.class, FaultClass::Silent);
        assert_eq!(o.converge_cycle, Some(2), "converges when a drops");
    }

    #[test]
    fn parallel_matches_serial_on_small_circuits() {
        for name in ["b01s", "b02s", "b06s"] {
            let n = seugrade_circuits::registry::build(name).unwrap();
            let tb = Testbench::random(n.num_inputs(), 25, 11);
            let g = Grader::new(&n, &tb);
            let faults = FaultList::exhaustive(n.num_ffs(), 25);
            let serial = g.run_serial(faults.as_slice());
            let parallel = grade_chunked(&g, faults.as_slice());
            assert_eq!(serial, parallel, "{name}");
        }
    }

    #[test]
    fn parallel_matches_serial_on_random_circuits() {
        for seed in 0..8 {
            let cfg = RandomCircuitConfig {
                num_ffs: 10,
                num_gates: 60,
                ..Default::default()
            };
            let n = generators::random_sequential(&cfg, seed);
            let tb = Testbench::random(n.num_inputs(), 30, seed + 100);
            let g = Grader::new(&n, &tb);
            let faults = FaultList::exhaustive(n.num_ffs(), 30);
            let serial = g.run_serial(faults.as_slice());
            let parallel = grade_chunked(&g, faults.as_slice());
            assert_eq!(serial, parallel, "seed {seed}");
        }
    }

    #[test]
    fn sampled_subset_consistent_with_exhaustive() {
        let n = seugrade_circuits::registry::build("b06s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 30, 17);
        let g = Grader::new(&n, &tb);
        let full = FaultList::exhaustive(n.num_ffs(), 30);
        let all = grade_chunked(&g, full.as_slice());
        // Sorted by cycle, the sample packs mixed-cycle chunks.
        let mut sample: Vec<Fault> = FaultList::sampled(n.num_ffs(), 30, 50, 23).iter().collect();
        sample.sort_by_key(|f| f.cycle);
        let sampled = grade_chunked(&g, &sample);
        for (f, o) in sample.iter().zip(&sampled) {
            let idx = f.cycle as usize * n.num_ffs() + f.ff.index();
            assert_eq!(*o, all[idx], "{f}");
        }
    }

    #[test]
    fn failure_map_localizes_weak_ffs() {
        // Shift register: earlier bits (closer to input) have fewer
        // detected faults? Actually later bits detect sooner; with a long
        // bench every bit's faults all arrive. Use a short bench so the
        // *early* bits' faults stay latent.
        let n = generators::shift_register(8);
        let tb = Testbench::random(1, 6, 29);
        let g = Grader::new(&n, &tb);
        let faults = FaultList::exhaustive(8, 6);
        let outcomes = grade_chunked(&g, faults.as_slice());
        let map = g.failure_map(faults.as_slice(), &outcomes);
        // bit 7 (output) always fails; bit 0 needs 7 cycles to surface,
        // impossible within 6 cycles.
        assert_eq!(map[7], 6);
        assert_eq!(map[0], 0);
    }

    #[test]
    fn grade_chunk_matches_serial() {
        let n = seugrade_circuits::registry::build("b03s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 20, 7);
        let g = Grader::new(&n, &tb);
        let mut scratch = g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
        for t in 0..20u32 {
            let chunk: Vec<Fault> = (0..n.num_ffs())
                .map(|ff| Fault::new(FfIndex::new(ff), t))
                .collect();
            let mut out = vec![FaultOutcome::latent(); chunk.len()];
            g.grade_chunk(&mut scratch, &chunk, &mut out);
            for (f, o) in chunk.iter().zip(&out) {
                assert_eq!(*o, g.classify_serial(*f), "{f}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn unsorted_chunk_rejected() {
        let n = generators::counter(2);
        let tb = Testbench::constant_low(0, 4);
        let g = Grader::new(&n, &tb);
        let mut scratch = g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
        let chunk = [Fault::new(FfIndex::new(0), 1), Fault::new(FfIndex::new(1), 0)];
        let mut out = [FaultOutcome::latent(); 2];
        g.grade_chunk(&mut scratch, &chunk, &mut out);
    }

    /// Grades `chunk` through a fresh scratch and checks every lane
    /// against the serial reference; returns the simulated cycles.
    fn check_chunk(
        g: &Grader,
        kernel: Kernel,
        collapse: Collapse,
        chunk: &[Fault],
        what: &str,
    ) -> u64 {
        let mut scratch = g.new_scratch(collapse, 4).with_kernel(kernel);
        let mut out = vec![FaultOutcome::latent(); chunk.len()];
        g.grade_chunk(&mut scratch, chunk, &mut out);
        for (f, o) in chunk.iter().zip(&out) {
            assert_eq!(
                *o,
                g.classify_serial(*f),
                "{what}: {f} kernel {kernel} {} collapse {}",
                g.trace_policy(),
                collapse.label()
            );
        }
        scratch.sim_steps()
    }

    #[test]
    fn staggered_chunks_match_serial() {
        use seugrade_sim::TracePolicy;
        let n = seugrade_circuits::registry::build("b06s").unwrap();
        let cycles = 40;
        let tb = Testbench::random(n.num_inputs(), cycles, 5);
        let ffs = n.num_ffs();
        // A sample sorted by cycle and cut into runs that ignore cycle
        // boundaries, the way the engine packs sampled campaigns.
        let mut packed = FaultList::sampled(ffs, cycles, 150, 9).as_slice().to_vec();
        packed.sort_by_key(|f| f.cycle);
        // Lanes more than one span apart, repeated and distinct
        // flip-flops on one cycle.
        let wide: Vec<Fault> = [(0, 0), (1, 0), (2, 9), (0, 9), (3, 23), (1, 38)]
            .iter()
            .map(|&(ff, c)| Fault::new(FfIndex::new(ff % ffs), c))
            .collect();
        let serial = Grader::new(&n, &tb);
        // A lane injected after the earlier lane has decided: the
        // differential walk must skip the idle cycles in between.
        let first = FaultList::exhaustive(ffs, cycles)
            .iter()
            .find(|&f| {
                let o = serial.classify_serial(f);
                o.class != FaultClass::Latent && (o.classify_cycle(cycles) as usize) < cycles - 10
            })
            .expect("an early-decided fault");
        let decided = serial.classify_serial(first).classify_cycle(cycles);
        let late = Fault::new(FfIndex::new(0), decided + 5);
        let gap = [first, late];
        // A latent lane injected late: nothing may decide it before its
        // fault arrives.
        let latent = FaultList::exhaustive(ffs, cycles)
            .iter()
            .find(|&f| f.cycle > 5 && serial.classify_serial(f).class == FaultClass::Latent)
            .expect("a late latent fault");
        let quiet = [Fault::new(FfIndex::new(0), 0), latent];
        for policy in [1, 4, 64].map(TracePolicy::Checkpoint) {
            let g = Grader::with_policy(&n, &tb, policy);
            for kernel in Kernel::CONCRETE {
                for collapse in [Collapse::Early, Collapse::Horizon] {
                    for chunk in packed.chunks(g.chunk_lanes()) {
                        check_chunk(&g, kernel, collapse, chunk, "packed");
                    }
                    check_chunk(&g, kernel, collapse, &wide, "wide");
                    check_chunk(&g, kernel, collapse, &quiet, "quiet");
                    let steps = check_chunk(&g, kernel, collapse, &gap, "gap");
                    if kernel == Kernel::Differential && collapse == Collapse::Early {
                        let walked = |f: Fault| {
                            u64::from(g.classify_serial(f).classify_cycle(cycles) - f.cycle) + 1
                        };
                        assert_eq!(
                            steps,
                            walked(first) + walked(late),
                            "{policy}: the walk jumps over the idle cycles"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn checkpoint_intervals_agree_on_verdicts() {
        use seugrade_sim::TracePolicy;
        for name in ["b03s", "b06s"] {
            let n = seugrade_circuits::registry::build(name).unwrap();
            let tb = Testbench::random(n.num_inputs(), 25, 19);
            // `Checkpoint(1)` puts every cycle on a span edge.
            let every = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(1));
            let faults = FaultList::exhaustive(n.num_ffs(), 25);
            let reference = every.run_serial(faults.as_slice());
            // K smaller than, dividing, not dividing, and exceeding the
            // bench length — every window geometry.
            for k in [1, 3, 5, 25, 64] {
                let cp = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(k));
                assert_eq!(cp.trace_policy(), TracePolicy::Checkpoint(k));
                assert_eq!(cp.run_serial(faults.as_slice()), reference, "{name} K={k} serial");
                let parallel = grade_chunked(&cp, faults.as_slice());
                assert_eq!(parallel, reference, "{name} K={k} parallel");
            }
        }
    }

    #[test]
    fn checkpoint_golden_memory_is_bounded() {
        use seugrade_sim::TracePolicy;
        let n = seugrade_circuits::registry::build("b03s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 128, 3);
        let cp = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(16));
        // 128/16 + 1 checkpoints (+ the end state) vs 129 full states
        // plus all outputs: an order of magnitude, growing with cycles.
        let dense = cp.golden().dense_equivalent_bits();
        assert!(
            cp.golden().stored_bits() * 8 < dense,
            "checkpointed {} bits vs dense equivalent {dense} bits",
            cp.golden().stored_bits(),
        );
    }

    #[test]
    fn grader_is_send_sync() {
        // The parallel engine hands `&Grader` to scoped worker threads;
        // this must stay true as the interior types evolve.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Grader>();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_cycle_out_of_range_panics() {
        let n = generators::counter(2);
        let tb = Testbench::constant_low(0, 4);
        let g = Grader::new(&n, &tb);
        let _ = g.classify_serial(Fault::new(FfIndex::new(0), 99));
    }

    #[test]
    fn collapse_labels_round_trip() {
        for c in [Collapse::Early, Collapse::Horizon] {
            assert_eq!(Collapse::from_label(c.label()), Some(c));
        }
        assert_eq!(Collapse::default(), Collapse::Early);
        assert_eq!(Collapse::from_label("sometimes"), None);
    }

    #[test]
    fn horizon_collapse_matches_early_verdicts() {
        use seugrade_sim::TracePolicy;
        let n = seugrade_circuits::registry::build("b06s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 25, 11);
        let faults = FaultList::exhaustive(n.num_ffs(), 25);
        for policy in [TracePolicy::Checkpoint(1), TracePolicy::Checkpoint(4)] {
            let g = Grader::with_policy(&n, &tb, policy);
            let reference = g.run_serial(faults.as_slice());
            for (i, &f) in faults.as_slice().iter().enumerate() {
                assert_eq!(
                    g.classify_serial_with(f, Collapse::Horizon),
                    reference[i],
                    "{f} under {policy}"
                );
            }
            let mut scratch = g.new_scratch(Collapse::Horizon, 4);
            let mut out = [FaultOutcome::latent(); 64];
            // Exhaustive lists are cycle-major: each group shares a cycle.
            for (group_start, group) in faults.as_slice().chunks(n.num_ffs()).enumerate() {
                for (k0, chunk) in group.chunks(g.chunk_lanes()).enumerate() {
                    g.grade_chunk(&mut scratch, chunk, &mut out[..chunk.len()]);
                    let base = group_start * n.num_ffs() + k0 * g.chunk_lanes();
                    for (k, o) in out[..chunk.len()].iter().enumerate() {
                        assert_eq!(
                            *o, reference[base + k],
                            "chunked horizon verdict under {policy}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn retired_chunk_is_never_resimulated_past_its_decision_cycle() {
        use seugrade_sim::TracePolicy;
        // q <= input every cycle: the fault is overwritten (silent) at
        // its own injection cycle, so exactly one faulty cycle may run.
        let mut b = NetlistBuilder::new("overwrite");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, a).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let tb = Testbench::random(1, 32, 5);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        let mut scratch = g.new_scratch(Collapse::Early, 4);
        let mut out = [FaultOutcome::latent()];
        let t = 3;
        g.grade_chunk(&mut scratch, &[Fault::new(FfIndex::new(0), t)], &mut out);
        assert_eq!(out[0].class, FaultClass::Silent);
        assert_eq!(out[0].converge_cycle, Some(t));
        assert_eq!(
            scratch.sim_steps(),
            1,
            "a lane decided at its injection cycle must simulate exactly one cycle"
        );
        // The same chunk without collapse walks all the way out.
        let mut horizon = g.new_scratch(Collapse::Horizon, 4);
        g.grade_chunk(&mut horizon, &[Fault::new(FfIndex::new(0), t)], &mut out);
        assert_eq!(out[0].converge_cycle, Some(t), "verdict unchanged");
        assert_eq!(horizon.sim_steps(), 32 - u64::from(t));
    }

    #[test]
    fn every_kernel_agrees_with_serial() {
        use seugrade_sim::TracePolicy;
        // 70 cycles is a multiple of neither 4 nor 64, so both end on a
        // short span; `Checkpoint(1)` puts every cycle on a span edge.
        // Either way a silence at the last cycle is decided without a
        // final state.
        for (name, cycles) in [("b03s", 25), ("b06s", 25), ("b06s", 70)] {
            let n = seugrade_circuits::registry::build(name).unwrap();
            let tb = Testbench::random(n.num_inputs(), cycles, 31);
            let faults = FaultList::exhaustive(n.num_ffs(), cycles);
            for policy in [1, 4, 64].map(TracePolicy::Checkpoint) {
                let g = Grader::with_policy(&n, &tb, policy);
                let reference = g.run_serial(faults.as_slice());
                for kernel in Kernel::CONCRETE {
                    for collapse in [Collapse::Early, Collapse::Horizon] {
                        let mut scratch =
                            g.new_scratch(collapse, 4).with_kernel(kernel);
                        assert_eq!(scratch.kernel(), kernel);
                        let mut got = vec![FaultOutcome::latent(); faults.len()];
                        let mut out = [FaultOutcome::latent(); 64];
                        for (gi, group) in
                            faults.as_slice().chunks(n.num_ffs()).enumerate()
                        {
                            for (ci, chunk) in
                                group.chunks(g.chunk_lanes()).enumerate()
                            {
                                g.grade_chunk(&mut scratch, chunk, &mut out[..chunk.len()]);
                                let base = gi * n.num_ffs() + ci * g.chunk_lanes();
                                got[base..base + chunk.len()]
                                    .copy_from_slice(&out[..chunk.len()]);
                            }
                        }
                        assert_eq!(
                            got, reference,
                            "{name}/{cycles} {policy} kernel {kernel} collapse {}",
                            collapse.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn differential_kernel_replays_bit_spans_once() {
        use seugrade_sim::TracePolicy;
        // Latent-heavy: faults walk to the horizon, crossing every span.
        let n = generators::lfsr(12, &[11, 9, 7, 4]);
        let tb = Testbench::random(0, 64, 9);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        // Early collapse decides the chunk inside its first span: one
        // bit-span replay pass.
        let mut scratch = g.new_scratch(Collapse::Early, 16);
        let mut out = [FaultOutcome::latent(); 2];
        let chunk = [Fault::new(FfIndex::new(0), 10), Fault::new(FfIndex::new(3), 10)];
        g.grade_chunk(&mut scratch, &chunk, &mut out);
        assert_eq!(scratch.bit_cache().misses(), 1);
        // A horizon walk from cycle 10 crosses spans 8..16 through
        // 56..64. A capacity of 16 batches up to 8 spans per pass, so
        // one pass rebuilds all 7 (56 cycles) and the walk hits the
        // other 6.
        let mut horizon = g.new_scratch(Collapse::Horizon, 16);
        g.grade_chunk(&mut horizon, &chunk, &mut out);
        assert_eq!(horizon.bit_cache().misses(), 1);
        assert_eq!(horizon.bit_cache().hits(), 6);
        assert_eq!(horizon.bit_cache().replayed_cycles(), 56);
        // Re-walking the same chunk hits every span.
        g.grade_chunk(&mut horizon, &chunk, &mut out);
        assert_eq!(horizon.bit_cache().misses(), 1);
        assert_eq!(horizon.bit_cache().hits(), 13);
    }

    /// Four hold registers (`q <= en ? d : q`) whose XOR is observed
    /// only when `obs` is high: a flip held for a cycle is still a
    /// single-bit upset of the same flip-flop, so many faults alias.
    fn hold_registers() -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("hold");
        let en = b.input("en");
        let obs = b.input("obs");
        let mut parity = None;
        for i in 0..4 {
            let d = b.input(format!("d{i}"));
            let q = b.dff(false);
            let next = b.mux(en, q, d);
            b.connect_dff(q, next).unwrap();
            parity = Some(match parity {
                None => q,
                Some(p) => b.xor2(p, q),
            });
        }
        let y = b.and2(parity.unwrap(), obs);
        b.output("y", y);
        b.finish().unwrap()
    }

    /// Grades the exhaustive space cycle by cycle, last cycle first when
    /// `backward`, through one scratch; returns the verdicts in
    /// submission order.
    fn grade_cycle_by_cycle(
        g: &Grader,
        scratch: &mut GradeScratch,
        backward: bool,
    ) -> Vec<FaultOutcome> {
        let (ffs, cycles) = (g.sim().num_ffs(), g.testbench().num_cycles());
        let faults = FaultList::exhaustive(ffs, cycles);
        let mut out = vec![FaultOutcome::latent(); faults.len()];
        let mut order: Vec<usize> = (0..cycles).collect();
        if backward {
            order.reverse();
        }
        for t in order {
            let lanes = t * ffs..(t + 1) * ffs;
            let outs = out[lanes.clone()].chunks_mut(g.chunk_lanes());
            for (chunk, o) in faults.as_slice()[lanes].chunks(g.chunk_lanes()).zip(outs) {
                g.grade_chunk(scratch, chunk, o);
            }
        }
        out
    }

    #[test]
    fn hold_registers_alias_on_a_backward_walk_only() {
        let n = hold_registers();
        let tb = Testbench::random(n.num_inputs(), 40, 3);
        let g = Grader::new(&n, &tb);
        let faults = FaultList::exhaustive(n.num_ffs(), 40);
        let reference = g.run_serial(faults.as_slice());
        // Descending cycles: every single-bit upset a lane turns into
        // within the window was graded before it, so every lookup hits.
        let window = VerdictWindow::new(n.num_ffs());
        let mut backward = g
            .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
            .with_verdict_window(window.clone());
        assert_eq!(grade_cycle_by_cycle(&g, &mut backward, true), reference);
        let aliased = backward.aliased_lanes() as usize;
        assert!(aliased * 8 > faults.len(), "{aliased} of {} faults aliased", faults.len());
        assert_eq!(backward.alias_misses(), 0);
        // Ascending cycles find nothing in a fresh window, and the lanes
        // simulate on to the same verdicts.
        let mut forward = g
            .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
            .with_verdict_window(VerdictWindow::new(n.num_ffs()));
        assert_eq!(grade_cycle_by_cycle(&g, &mut forward, false), reference);
        assert_eq!(forward.aliased_lanes(), 0);
        // A lane that misses may be a lone upset again a cycle later.
        assert!(forward.alias_misses() >= backward.aliased_lanes());
        assert!(forward.sim_steps() > backward.sim_steps());
        // Without a window, or under horizon collapse, nothing aliases.
        for scratch in [
            g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS),
            g.new_scratch(Collapse::Horizon, DEFAULT_WINDOW_CACHE_SPANS).with_verdict_window(window),
            g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
                .with_kernel(Kernel::Generic)
                .with_verdict_window(VerdictWindow::new(n.num_ffs())),
        ] {
            let mut scratch = scratch;
            assert_eq!(grade_cycle_by_cycle(&g, &mut scratch, true), reference);
            assert_eq!((scratch.aliased_lanes(), scratch.alias_misses()), (0, 0));
        }
    }

    #[test]
    fn kernel_labels_round_trip() {
        for k in [Kernel::Auto, Kernel::Generic, Kernel::Differential] {
            assert_eq!(Kernel::from_label(k.label()), Some(k));
        }
        assert_eq!(Kernel::default(), Kernel::Auto);
        assert_eq!(Kernel::Auto.resolve(), Kernel::Differential);
        assert_eq!(Kernel::Generic.resolve(), Kernel::Generic);
        assert_eq!(Kernel::from_label("tape"), None, "the tape is not a faulty kernel");
        assert_eq!(Kernel::from_label("quantum"), None);
    }
}
