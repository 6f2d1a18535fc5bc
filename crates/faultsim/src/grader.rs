//! The fault-grading engines.

use seugrade_netlist::{FfIndex, Netlist};
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

/// When a decided fault lane stops being simulated: always at its
/// decision cycle.
///
/// Every grading engine compares the faulty lanes against the golden
/// machine *every cycle*, so a lane's verdict (first output mismatch =
/// failure, first state reconvergence = silent) is known the cycle it
/// happens, and the lane stops there — exactly like the autonomous
/// emulator releasing the circuit for the next fault. There is no other
/// mode: the type stays only because the benchmark harness
/// (`gradebench/`) calls `grader.new_scratch(plan.collapse(), …)`, and
/// it goes with the next change to that harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Collapse {
    /// Retire lanes at their decision cycle; stop the chunk when all
    /// lanes are decided.
    #[default]
    Early,
}

/// Per-worker grading scratch: a reusable [`SimState`], the
/// differential kernel's [`DiffScratch`], a golden [`BitCache`] handle,
/// an optional [`VerdictWindow`] handle, the [`Kernel`], and work
/// counters.
///
/// One `GradeScratch` belongs to exactly one worker thread (only the
/// stores behind its span cache and window handles are shared); the
/// engine's thread pool creates one per worker via
/// [`Grader::new_scratch`] and rebuilds it after a contained panic.
/// Scratch configuration affects only *speed* — verdicts are identical
/// for every kernel, cache capacity and window.
#[derive(Debug)]
pub struct GradeScratch {
    st: SimState,
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
    /// differential kernel then records every graded verdict in it and
    /// retires a lane that has become a single-bit upset the window
    /// holds (see [`Grader::grade_chunk`]). The engine shares one window
    /// among the workers of an exhaustive run, which walks cycles in
    /// descending order so the upsets lanes turn into are graded first.
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
    /// [`bit_cache`](Self::bit_cache) instead). The oracle battery uses
    /// this to prove a retired lane is never re-simulated.
    #[must_use]
    pub fn sim_steps(&self) -> u64 {
        self.sim_steps
    }
}

/// Fault grader: compiled simulator + golden trace for one
/// (circuit, test bench) pair, grading 64 faults per chunk (and one at
/// a time through the serial loop).
///
/// All engines implement the classification semantics documented at the
/// [crate root](crate); the tests check them fault by fault against the
/// independent [`Oracle`](crate::Oracle).
///
/// # Golden-trace storage
///
/// The trace keeps only every `K`-th flip-flop state — memory
/// `O(FFs × cycles / K)` instead of `O(FFs × cycles)`, at the cost of
/// replaying the golden machine per span. The chunk walkers read it as
/// bit-packed spans through a [`BitCache`]; the serial loop runs the
/// golden machine beside the faulty one, seeded from the checkpoint
/// before the injection. `K` is
/// [`TracePolicy::default`] (64) under [`new`](Self::new), or chosen
/// with [`with_policy`](Self::with_policy). Verdicts are bit-identical
/// for every `K` (enforced by the oracle battery).
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

    /// Grades one fault with the compiled serial loop: lane 0 of one
    /// simulation word runs the faulty machine and lane 1 the golden
    /// one, both seeded from the golden state at the injection cycle,
    /// and they are compared every cycle.
    ///
    /// This is not a reference — it steps the same compiled tape as
    /// [`grade_chunk`](Self::grade_chunk); verdicts are checked against
    /// [`Oracle`](crate::Oracle). It stays because the benchmark harness
    /// (`gradebench/`) re-grades its timed faults through it.
    ///
    /// # Panics
    ///
    /// Panics if the fault's cycle is outside the test bench or its
    /// flip-flop index outside the circuit.
    #[must_use]
    pub fn classify_serial(&self, fault: Fault) -> FaultOutcome {
        self.serial(&[fault.ff], fault.cycle)
    }

    /// The serial loop of [`classify_serial`](Self::classify_serial) and
    /// [`classify_multi`](Self::classify_multi): flips every flip-flop of
    /// `ffs` in lane 0 at the start of `cycle`.
    pub(crate) fn serial(&self, ffs: &[FfIndex], cycle: u32) -> FaultOutcome {
        let n_cycles = self.tb.num_cycles();
        let t = cycle as usize;
        assert!(t < n_cycles, "fault cycle out of range");
        let mut st = self.golden.lanes_at(&self.sim, &self.tb, t);
        for &ff in ffs {
            self.sim.flip_ff_lane(&mut st, ff, 0);
        }
        for u in t..n_cycles {
            self.sim.set_inputs(&mut st, self.tb.cycle(u));
            self.sim.eval(&mut st);
            if self.sim.outputs_lane(&st, 0) != self.sim.outputs_lane(&st, 1) {
                return FaultOutcome::failure(u as u32);
            }
            self.sim.step(&mut st);
            if self.sim.state_lane(&st, 0) == self.sim.state_lane(&st, 1) {
                return FaultOutcome::silent(u as u32);
            }
        }
        FaultOutcome::latent()
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

    /// Builds a per-worker [`GradeScratch`] whose golden span cache holds
    /// `cache_spans` spans (0 disables caching). The [`Collapse`]
    /// argument is ignored — early collapse is the only mode; it stays
    /// only for the benchmark harness's call (see [`Collapse`]).
    #[must_use]
    pub fn new_scratch(&self, _collapse: Collapse, cache_spans: usize) -> GradeScratch {
        GradeScratch {
            st: self.sim.new_state(),
            sim_steps: 0,
            kernel: Kernel::Auto,
            diff: self.sim.new_diff_scratch(),
            bits: BitCache::new(cache_spans),
            alias: Alias::default(),
        }
    }

    /// Grades up to 64 faults in a single bit-parallel pass against a
    /// [`GradeScratch`], writing the verdicts into `out` (parallel to
    /// `chunk`). A lane stops being simulated the cycle it is decided,
    /// the scratch's span cache shares replayed golden spans across
    /// chunks, and its counters record the work done.
    ///
    /// The faults may carry different injection cycles, in non-decreasing
    /// order: the pass starts at the first lane's cycle and flips each
    /// lane in at its own cycle, so a lane tracks the golden machine
    /// until its fault arrives.
    ///
    /// With a [`VerdictWindow`] in the scratch
    /// ([`GradeScratch::with_verdict_window`]), the differential kernel
    /// also applies the **alias collapse**: a lane whose state differs
    /// from golden in a single flip-flop `g` after cycle `u`, within
    /// [`ALIAS_WINDOW`] cycles of the chunk's first injection, takes the
    /// verdict of the upset `(g, u + 1)` if the window holds it, and
    /// every verdict the chunk reaches goes into the window. A lane
    /// whose upset is missing keeps simulating, so the verdicts are the
    /// same with or without a window.
    ///
    /// This is the shard-sized building block the batching engines are
    /// made of: an external runtime can cut any cycle-sorted fault list
    /// into chunks, grade each chunk on whichever thread with whichever
    /// scratch, and the verdicts stay identical to the oracle's — they
    /// depend only on the fault, never on lane placement or chunk
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
        let GradeScratch { st, sim_steps, kernel, diff, bits, alias } = scratch;
        match kernel.resolve() {
            Kernel::Generic => self.grade_chunk_generic(st, bits, sim_steps, chunk, out),
            _ => self.grade_chunk_diff(diff, bits, alias, sim_steps, chunk, out),
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
        // Lanes past the chunk's faults have no outcome slot.
        let mut lanes = lanes & u64::MAX.checked_shr(64 - out.len() as u32).unwrap_or(0);
        while lanes != 0 {
            out[lanes.trailing_zeros() as usize] = verdict;
            lanes &= lanes - 1;
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
            if undecided == 0 && next == chunk.len() {
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
    /// so each lane is seeded at its own cycle. A lane that fails is
    /// retired on the spot ([`CompiledSim::diff_retire`]) and stops
    /// driving its cone; once every injected lane is decided the
    /// deviation state is empty and the walk jumps straight to the next
    /// lane's injection cycle.
    ///
    /// Verdict semantics are identical to the full-evaluation walk:
    /// failures are claimed before same-cycle silences, each lane
    /// records its first event only, and `sim_steps` counts one per
    /// walked cycle.
    ///
    /// **Alias collapse.** With a verdict window, after the failed and
    /// silent masks are taken at cycle `u` while `u + 1 − t ≤
    /// ALIAS_WINDOW` (`t` the first lane's cycle),
    /// [`CompiledSim::diff_lone_ffs`] names the undecided lanes left
    /// with exactly one deviant flip-flop `g`. Such
    /// a lane is the upset `(g, u + 1)` from here on — the same
    /// trajectory, so the same class, detection and convergence cycle —
    /// and when the window holds that verdict the lane takes it and is
    /// retired with the failed lanes. Every verdict of the chunk is
    /// recorded in the window at the end, for the chunks of earlier
    /// cycles. The walk of cycles `u + 1 ..` is never needed to decide
    /// an aliased lane, so a window miss costs only the walk the lane
    /// would have taken anyway.
    fn grade_chunk_diff(
        &self,
        sc: &mut DiffScratch,
        bits: &mut BitCache,
        alias: &mut Alias,
        sim_steps: &mut u64,
        chunk: &[Fault],
        out: &mut [FaultOutcome],
    ) {
        let mut u = self.validate_chunk(chunk, out);
        let first = u;
        let n_cycles = self.tb.num_cycles();
        let window = alias.window.as_ref();
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
    use seugrade_circuits::generators;
    use seugrade_netlist::{GateKind, NetlistBuilder};
    use seugrade_sim::Testbench;

    use crate::{FaultList, Oracle};
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
    /// against the oracle; returns the simulated cycles.
    fn check_chunk(
        g: &Grader,
        oracle: &mut Oracle,
        kernel: Kernel,
        chunk: &[Fault],
        what: &str,
    ) -> u64 {
        let mut scratch = g.new_scratch(Collapse::Early, 4).with_kernel(kernel);
        let mut out = vec![FaultOutcome::latent(); chunk.len()];
        g.grade_chunk(&mut scratch, chunk, &mut out);
        for (f, o) in chunk.iter().zip(&out) {
            assert_eq!(
                *o,
                oracle.classify(*f),
                "{what}: {f} kernel {kernel} {}",
                g.trace_policy()
            );
        }
        scratch.sim_steps()
    }

    #[test]
    fn staggered_chunks_match_the_oracle() {
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
        let mut oracle = Oracle::new(&n, &tb);
        // A lane injected after the earlier lane has decided: the
        // differential walk must skip the idle cycles in between.
        let first = FaultList::exhaustive(ffs, cycles)
            .iter()
            .find(|&f| {
                let o = oracle.classify(f);
                o.class != FaultClass::Latent && (o.classify_cycle(cycles) as usize) < cycles - 10
            })
            .expect("an early-decided fault");
        let decided = oracle.classify(first).classify_cycle(cycles);
        let late = Fault::new(FfIndex::new(0), decided + 5);
        let gap = [first, late];
        // A latent lane injected late: nothing may decide it before its
        // fault arrives.
        let latent = FaultList::exhaustive(ffs, cycles)
            .iter()
            .find(|&f| f.cycle > 5 && oracle.classify(f).class == FaultClass::Latent)
            .expect("a late latent fault");
        let quiet = [Fault::new(FfIndex::new(0), 0), latent];
        for policy in [1, 4, 64].map(TracePolicy::Checkpoint) {
            let g = Grader::with_policy(&n, &tb, policy);
            for kernel in Kernel::CONCRETE {
                for chunk in packed.chunks(g.chunk_lanes()) {
                    check_chunk(&g, &mut oracle, kernel, chunk, "packed");
                }
                check_chunk(&g, &mut oracle, kernel, &wide, "wide");
                check_chunk(&g, &mut oracle, kernel, &quiet, "quiet");
                let steps = check_chunk(&g, &mut oracle, kernel, &gap, "gap");
                if kernel == Kernel::Differential {
                    let mut walked = |f: Fault| {
                        u64::from(oracle.classify(f).classify_cycle(cycles) - f.cycle) + 1
                    };
                    let expected = walked(first) + walked(late);
                    assert_eq!(steps, expected, "{policy}: the walk jumps over the idle cycles");
                }
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
        let mut scratch = g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
        let mut out = [FaultOutcome::latent()];
        g.grade_chunk(&mut scratch, &[Fault::new(FfIndex::new(0), 99)], &mut out);
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
    }

    /// A 12-bit LFSR whose state is never observed: its transition is
    /// invertible, so a flip never reconverges and never fails — every
    /// lane stays latent to the horizon.
    fn hidden_lfsr() -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("hidden_lfsr");
        let ffs: Vec<_> = (0..12).map(|i| b.dff(i == 0)).collect();
        let taps: Vec<_> = [11, 9, 7, 4].iter().map(|&t| ffs[t]).collect();
        let feedback = b.gate(GateKind::Xor, &taps);
        b.connect_dff(ffs[0], feedback).unwrap();
        for i in 1..12 {
            b.connect_dff(ffs[i], ffs[i - 1]).unwrap();
        }
        let low = b.constant(false);
        b.output("y", low);
        b.finish().unwrap()
    }

    #[test]
    fn differential_kernel_replays_bit_spans_once() {
        use seugrade_sim::TracePolicy;
        let n = hidden_lfsr();
        let tb = Testbench::random(0, 64, 9);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        let mut scratch = g.new_scratch(Collapse::Early, 16);
        let mut out = [FaultOutcome::latent(); 2];
        let chunk = [Fault::new(FfIndex::new(0), 10), Fault::new(FfIndex::new(3), 10)];
        // Latent lanes walk from cycle 10 across spans 8..16 through
        // 56..64. A capacity of 16 batches up to 8 spans per pass, so
        // one pass rebuilds all 7 (56 cycles) and the walk hits the
        // other 6.
        g.grade_chunk(&mut scratch, &chunk, &mut out);
        assert_eq!(out, [FaultOutcome::latent(); 2]);
        assert_eq!(scratch.sim_steps(), 54, "latent lanes walk to the horizon");
        assert_eq!(scratch.bit_cache().misses(), 1);
        assert_eq!(scratch.bit_cache().hits(), 6);
        assert_eq!(scratch.bit_cache().replayed_cycles(), 56);
        // Re-walking the same chunk hits every span.
        g.grade_chunk(&mut scratch, &chunk, &mut out);
        assert_eq!(scratch.bit_cache().misses(), 1);
        assert_eq!(scratch.bit_cache().hits(), 13);
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
        let reference = Oracle::new(&n, &tb).run(faults.as_slice());
        // Descending cycles: every single-bit upset a lane turns into
        // within the window was graded before it, so every lookup hits.
        let mut backward = g
            .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
            .with_verdict_window(VerdictWindow::new(n.num_ffs()));
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
        // Without a window, or on the generic kernel, nothing aliases.
        for scratch in [
            g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS),
            g.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
                .with_kernel(Kernel::Generic)
                .with_verdict_window(VerdictWindow::new(n.num_ffs())),
        ] {
            let mut scratch = scratch;
            assert_eq!(grade_cycle_by_cycle(&g, &mut scratch, true), reference);
            assert_eq!((scratch.aliased_lanes(), scratch.alias_misses()), (0, 0));
        }
    }

    /// Flip-flop 0 (`a`, loaded from an input) fans out to two
    /// `len`-stage shift chains that reconverge into the accumulator `z`
    /// (`z ^= p & q`, `p` and `q` the chain ends). Both chains carry
    /// `a`'s value, so a flip of `a` at `t` deviates in two flip-flops
    /// for `len` cycles and then in `z` alone: the upset `(z, t + len +
    /// 1)`. Only `z` is observed, through `obs`.
    fn reconvergent_chains(len: usize) -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("reconverge");
        let d = b.input("d");
        let obs = b.input("obs");
        let a = b.dff(false);
        b.connect_dff(a, d).unwrap();
        let (mut p, mut q) = (a, a);
        for _ in 0..len {
            let (np, nq) = (b.dff(false), b.dff(false));
            b.connect_dff(np, p).unwrap();
            b.connect_dff(nq, q).unwrap();
            (p, q) = (np, nq);
        }
        let z = b.dff(false);
        let both = b.and2(p, q);
        let next = b.xor2(z, both);
        b.connect_dff(z, next).unwrap();
        let y = b.and2(z, obs);
        b.output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn reconvergent_lanes_alias_several_cycles_after_injection() {
        let (cycles, t) = (24, 10);
        for len in 2..=5 {
            let n = reconvergent_chains(len);
            let tb = Testbench::random(n.num_inputs(), cycles, 5);
            let g = Grader::new(&n, &tb);
            let distance = len + 1;
            assert!(distance <= ALIAS_WINDOW, "the window reaches the reconvergence");
            // One worker's backward walk over the cycles after `t`.
            let mut scratch = g
                .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
                .with_verdict_window(VerdictWindow::new(n.num_ffs()));
            for u in (t + 1..cycles).rev() {
                let chunk: Vec<Fault> =
                    (0..n.num_ffs()).map(|f| Fault::new(FfIndex::new(f), u as u32)).collect();
                let mut out = vec![FaultOutcome::latent(); chunk.len()];
                g.grade_chunk(&mut scratch, &chunk, &mut out);
            }
            let (aliased, steps) = (scratch.aliased_lanes(), scratch.sim_steps());
            let fault = Fault::new(FfIndex::new(0), t as u32);
            let mut out = [FaultOutcome::latent()];
            g.grade_chunk(&mut scratch, &[fault], &mut out);
            assert_eq!(out[0], Oracle::new(&n, &tb).classify(fault), "len {len}");
            assert_eq!(scratch.aliased_lanes() - aliased, 1, "len {len}: the lane aliased");
            assert_eq!(
                scratch.sim_steps() - steps,
                distance as u64,
                "len {len}: retired after cycle t + {len}, as the upset (z, t + {distance})"
            );
            assert_eq!(scratch.alias_misses(), 0, "len {len}");
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
