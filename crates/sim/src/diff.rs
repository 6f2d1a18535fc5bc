//! The differential (activity-driven) faulty-evaluation kernel.
//!
//! A faulty machine differs from the golden one only inside a deviation
//! cone seeded by the injected bit-flip — the observation the source
//! paper's autonomous emulator is built on. The full-evaluation kernels
//! ignore it: every gate of the netlist is re-evaluated every faulty
//! cycle, even when the cone has collapsed to nothing.
//!
//! This module simulates **deviations instead of values**. For every
//! signal the scratch state holds `dev[sig] = faulty ⊕ golden` (64 lanes
//! of faulty machines against one golden reference), so the faulty word
//! is recoverable as `broadcast(golden_bit) ⊕ dev[sig]` and a signal is
//! clean exactly when its deviation word is zero. Per cycle:
//!
//! 1. the dirty frontier is seeded from the signals with non-zero
//!    deviations (initially the flipped flip-flops) and expanded through
//!    the levelized fanout adjacency;
//! 2. gates are drained off a position-indexed dirty bitmap in ascending
//!    order — ascending positions in the levelized program are
//!    topological, so each cone gate is evaluated exactly once — and
//!    evaluated in deviation space against the golden bits; a zero
//!    deviation out of a gate prunes its fanout (the logical-masking
//!    collapse the paper exploits);
//! 3. output deviations are OR-folded into the failure word, the
//!    flip-flop step transfers `D`-deviations to `Q` slots two-phase,
//!    and the OR of the new state deviations is the reconvergence word:
//!    **zero means every lane is back in lock-step with golden** — a
//!    proof that feeds `Collapse::Early` without scanning a single
//!    register.
//!
//! A lane decided as a failure is retired with
//! [`CompiledSim::diff_retire`]: its bits leave every deviant slot, so it
//! stops driving its cone while the chunk's undecided lanes walk on. A
//! lane whose fault has not been seeded yet carries no deviation either,
//! so one chunk can hold faults injected at different cycles.
//!
//! After a step the deviant slots are exactly the deviant flip-flops, so
//! [`CompiledSim::diff_lone_ffs`] finds, with one/many masks over them,
//! the lanes whose state differs from golden in a single flip-flop `g`.
//! Such a lane *is* the SEU `(g, u + 1)` from the next cycle on — the
//! paper's per-cycle golden/faulty comparison widened from "equal" to
//! "equal but one bit" — and the grader retires it with that fault's
//! verdict when it has one (the alias collapse).
//!
//! The golden bits come from a [`BitSpan`]: one bit per cell per cycle
//! (golden values are lane-uniform), shared across all chunks of a
//! campaign through a [`BitCache`], the one golden span store of a
//! grading run: each span is replayed once per store, at 1/64th the word
//! cost of a value trace. Spans are replayed lane-parallel: one 64-lane
//! tape pass rebuilds a missing span together with the uncached spans
//! the campaign's [`Walk`] reaches next (after it on a forward walk,
//! before it on a backward one), each lane seeded with its own span's
//! start state and stimulus. Seed states are bit-packed and loaded into
//! (or read out of) the lanes by 64×64 bit transposes.
//!
//! Like the paper's state-scan, which restarts a faulty run from a
//! scanned-in golden state instead of from reset, a replay need not
//! start at a span's checkpoint. A pass that must run a span's full `K`
//! cycles hands its idle lanes to the next spans that are neither cached
//! nor seeded: these **look-ahead** lanes capture nothing and snapshot
//! their flip-flop state every `ceil(K / 8)` cycles into the store's
//! seed table. A later pass replays each seeded span as up to 8 lanes of
//! `ceil(K / 8)` cycles, so it runs an eighth of the steps. The table
//! holds at most 63 spans' seeds (`63 × 8 × FFs` bits, one pass's free
//! lanes), an entry leaves it when its span is replayed, and a
//! capacity-0 store keeps none.
//!
//! The full-evaluation kernel ([`Kernel::Generic`](crate::Kernel::Generic))
//! reads the same spans: [`CompiledSim::span_load_state`] seeds its
//! lanes and [`CompiledSim::span_diff`] compares a settled cycle against
//! the golden row.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use seugrade_netlist::FfIndex;

use crate::{tape, CompiledSim, GoldenTrace, SimState, Testbench};

/// Golden internal values for a contiguous cycle span, bit-packed: one
/// bit per cell per cycle.
///
/// Captured post-`eval`, pre-`step`, so for cycle `t` the flip-flop
/// slots hold the start-of-cycle state and gate/input slots hold the
/// during-cycle values — exactly the operand view a combinational cone
/// evaluation at cycle `t` needs.
#[derive(Debug)]
pub struct BitSpan {
    start: usize,
    end: usize,
    /// Words per cycle: `ceil(num_cells / 64)`.
    stride: usize,
    words: Vec<u64>,
}

impl BitSpan {
    /// First cycle covered.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last covered cycle.
    #[must_use]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Golden bit of `slot` during (absolute) cycle `t`, broadcast to
    /// all 64 lanes.
    #[inline]
    #[must_use]
    pub fn word_at(&self, slot: usize, t: usize) -> u64 {
        Self::word_in_row(self.row(t), slot)
    }

    /// The packed word row of (absolute) cycle `t`.
    #[inline]
    fn row(&self, t: usize) -> &[u64] {
        &self.words[(t - self.start) * self.stride..][..self.stride]
    }

    /// Golden bit of `slot` within a [`row`](Self::row), broadcast to
    /// all 64 lanes.
    #[inline]
    fn word_in_row(row: &[u64], slot: usize) -> u64 {
        0u64.wrapping_sub(row[slot / 64] >> (slot % 64) & 1)
    }

    /// Golden bit of `slot` during (absolute) cycle `t`.
    #[must_use]
    pub fn bit_at(&self, slot: usize, t: usize) -> bool {
        self.word_at(slot, t) != 0
    }
}

/// A span's `(start, end)` cycles: the key of the span store.
type SpanKey = (usize, usize);

/// Most look-ahead seeds a store holds: the free lanes of one replay
/// pass (at least one of its 64 lanes captures a span).
const MAX_SEEDS: usize = 63;

/// The contents of a golden span store.
#[derive(Debug)]
struct Store {
    /// Cached spans, least recently used first.
    spans: Vec<(SpanKey, Arc<BitSpan>)>,
    /// Look-ahead seeds of uncached spans, oldest first: the golden
    /// flip-flop state at the start of each slice of the span after the
    /// first, bit-packed (`ceil(FFs / 64)` words each), one after the
    /// other.
    seeds: Vec<(SpanKey, Vec<u64>)>,
}

impl Store {
    fn with_capacity(capacity: usize) -> Self {
        Store { spans: Vec::with_capacity(capacity.min(64)), seeds: Vec::new() }
    }

    fn cached(&self, key: SpanKey) -> bool {
        self.spans.iter().any(|(k, _)| *k == key)
    }

    fn seeded(&self, key: SpanKey) -> bool {
        self.seeds.iter().any(|(k, _)| *k == key)
    }

    /// Removes and returns the seeds of `key`.
    fn take_seed(&mut self, key: SpanKey) -> Option<Vec<u64>> {
        let pos = self.seeds.iter().position(|(k, _)| *k == key)?;
        Some(self.seeds.remove(pos).1)
    }
}

/// The order in which a campaign visits injection cycles, as far as its
/// golden span store is concerned: the direction a [`BitCache`] batches
/// and looks ahead in.
///
/// A chunk always walks forward in time from its injection cycle; the
/// walk order is the order of the chunks. Ordered (sampled and list)
/// plans inject in ascending cycle order; the exhaustive plan grades
/// its cycles in descending order, so the fault a lane turns into has
/// always been graded before (see `Grader::grade_chunk`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Walk {
    /// Ascending injection cycles: a miss batches the spans after it.
    #[default]
    Forward,
    /// Descending injection cycles: a miss batches the spans before it.
    Backward,
}

/// A small LRU of replayed golden [`BitSpan`]s, keyed by the exact
/// `start..end` cycle span: the golden span store both faulty kernels
/// read.
///
/// Every span is replayed at most once per store and then served
/// zero-copy to all 64-lane chunks grading inside it. The store sits
/// behind a mutex that every [`clone_handle`](Self::clone_handle)
/// shares, so the replay is paid once across the whole worker pool. The capacity also sets the replay batch: a miss
/// rebuilds up to `max(1, capacity / 2)` spans (at most 64) in one
/// lane-parallel pass, so the spans a walk is in stay cached while the
/// next batch lands.
///
/// Beside the spans the store keeps a **seed table**: golden flip-flop
/// states every `ceil(K / 8)` cycles inside spans not yet replayed,
/// snapshotted by the idle lanes of a full-length pass (see
/// [`GoldenTrace::bit_span_cached`]). An entry is removed when its span
/// is replayed, and the table holds at most 63 spans' seeds (one pass's
/// free lanes), so it is bounded by `63 × 8 × FFs` bits; the oldest
/// entry goes first. Handles of one store share the table too.
///
/// A capacity of `0` disables retention: every request replays its own
/// span, and no seeds are kept. Hit/miss/replay counters are always
/// per-handle.
#[derive(Debug)]
pub struct BitCache {
    capacity: usize,
    walk: Walk,
    store: Arc<Mutex<Store>>,
    hits: u64,
    misses: u64,
    replayed_cycles: u64,
    replay_steps: u64,
}

impl BitCache {
    /// A cache holding up to `capacity` spans, in a store shared with
    /// every handle cloned off it via [`clone_handle`](Self::clone_handle).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_store(capacity, Arc::new(Mutex::new(Store::with_capacity(capacity))))
    }

    fn with_store(capacity: usize, store: Arc<Mutex<Store>>) -> Self {
        BitCache {
            capacity,
            walk: Walk::Forward,
            store,
            hits: 0,
            misses: 0,
            replayed_cycles: 0,
            replay_steps: 0,
        }
    }

    /// Sets the order in which the campaign visits injection cycles
    /// (chainable; the default is [`Walk::Forward`]). A replay pass
    /// batches the missed span with the uncached spans the walk reaches
    /// next, and looks ahead beyond them in the same direction. A pure
    /// speed setting: the spans served are identical either way.
    #[must_use]
    pub fn walking(mut self, walk: Walk) -> Self {
        self.walk = walk;
        self
    }

    /// A new handle on the same store, with zeroed counters and the same
    /// walk order.
    #[must_use]
    pub fn clone_handle(&self) -> Self {
        Self::with_store(self.capacity, Arc::clone(&self.store)).walking(self.walk)
    }

    /// A capacity-0 cache: every span request replays from a checkpoint.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Maximum number of spans held.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Span requests this handle served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Replay passes run on behalf of this handle — one per missed span
    /// request, however many spans the pass rebuilt.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total golden span-cycles reconstructed on behalf of this handle.
    #[must_use]
    pub fn replayed_cycles(&self) -> u64 {
        self.replayed_cycles
    }

    /// Tape steps run by this handle's replay passes, look-ahead
    /// included: `K` for a full-length pass, `ceil(K / 8)` for a pass
    /// whose spans all replay in seeded slices.
    #[must_use]
    pub fn replay_steps(&self) -> u64 {
        self.replay_steps
    }

    /// Spans one replay pass may rebuild: half the capacity, so the
    /// spans in use survive the batch's insertion, and never more than
    /// the 64 lanes of a tape pass.
    fn batch_limit(&self) -> usize {
        (self.capacity / 2).clamp(1, 64)
    }

    /// Runs `f` on the locked store.
    fn locked<R>(&mut self, f: impl FnOnce(&mut Store) -> R) -> R {
        f(&mut self.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// The span keyed `key`, marked most recently used.
    fn lookup(&mut self, key: SpanKey) -> Option<Arc<BitSpan>> {
        let hit = self.locked(|store| {
            let pos = store.spans.iter().position(|(k, _)| *k == key)?;
            let entry = store.spans.remove(pos);
            let span = Arc::clone(&entry.1);
            store.spans.push(entry);
            Some(span)
        });
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Drops the cached spans and look-ahead seeds that end at or
    /// before cycle `t`: once a forward walk's next injection is at `t`,
    /// no later chunk reads them.
    pub fn forget_before(&mut self, t: usize) {
        self.locked(|store| {
            store.spans.retain(|(key, _)| key.1 > t);
            store.seeds.retain(|(key, _)| key.1 > t);
        });
    }

    /// Spans currently held by the store.
    #[cfg(test)]
    fn held(&mut self) -> usize {
        self.locked(|store| store.spans.len())
    }

    /// Spans currently seeded in the store.
    #[cfg(test)]
    fn seeded(&mut self) -> usize {
        self.locked(|store| store.seeds.len())
    }

    /// Retains `spans`, evicting least recently used entries beyond the
    /// capacity (the first span ends up most recently used), and the
    /// look-ahead `seeds` of spans neither cached nor seeded, evicting
    /// the oldest beyond [`MAX_SEEDS`].
    fn insert(&mut self, spans: &[Arc<BitSpan>], seeds: Vec<(SpanKey, Vec<u64>)>) {
        let capacity = self.capacity;
        if capacity == 0 {
            return;
        }
        self.locked(|store| {
            for span in spans.iter().rev() {
                let key = (span.start, span.end);
                // A racing handle may have seeded a span this pass
                // rebuilt; a cached span needs no seeds.
                store.seeds.retain(|(k, _)| *k != key);
                if store.cached(key) {
                    // A racing handle replayed the same span first; keep
                    // its copy.
                    continue;
                }
                if store.spans.len() == capacity {
                    store.spans.remove(0);
                }
                store.spans.push((key, Arc::clone(span)));
            }
            for (key, words) in seeds {
                if store.cached(key) || store.seeded(key) {
                    continue;
                }
                if store.seeds.len() == MAX_SEEDS {
                    store.seeds.remove(0);
                }
                store.seeds.push((key, words));
            }
        });
    }
}

/// Per-worker mutable state of the differential kernel: the deviation
/// words, the list of currently-deviant slots, and the cone worklist.
///
/// Create via [`CompiledSim::new_diff_scratch`]; one scratch serves any
/// number of chunks sequentially (the grader resets it between chunks).
#[derive(Debug)]
pub struct DiffScratch {
    /// `faulty ⊕ golden` per signal slot; non-zero only at `touched`.
    dev: Vec<u64>,
    /// Slots with a non-zero deviation word, unique.
    touched: Vec<u32>,
    /// One bit per instruction position: scheduled for evaluation.
    /// Drained in ascending position order (topological for a levelized
    /// program) by a forward scan that clears each bit as it pops —
    /// O(1) insert, no heap, and the scan touches only the word range
    /// the frontier actually spans.
    dirty: Vec<u64>,
    /// Two-phase flip-flop transfer buffer: `(q_slot, deviation)`.
    ff_updates: Vec<(u32, u64)>,
}

impl DiffScratch {
    /// Number of signals currently carrying a deviation (diagnostics).
    #[must_use]
    pub fn active_signals(&self) -> usize {
        self.touched.len()
    }
}

impl CompiledSim {
    /// Creates a [`DiffScratch`] sized for this program.
    #[must_use]
    pub fn new_diff_scratch(&self) -> DiffScratch {
        DiffScratch {
            dev: vec![0u64; self.num_cells],
            touched: Vec::new(),
            dirty: vec![0u64; self.instrs.len().div_ceil(64)],
            ff_updates: Vec::new(),
        }
    }

    /// Injects an SEU into the deviation state: flips flip-flop `ff` in
    /// lane `lane` (the dev-space form of
    /// [`flip_ff_lane`](Self::flip_ff_lane)).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn diff_seed(&self, sc: &mut DiffScratch, ff: FfIndex, lane: u32) {
        assert!(lane < 64);
        let slot = self.ffs[ff.index()] as usize;
        if sc.dev[slot] == 0 {
            sc.touched.push(slot as u32);
        }
        sc.dev[slot] ^= 1u64 << lane;
        debug_assert!(sc.dev[slot] != 0, "duplicate (ff, lane) seed cancelled itself");
    }

    /// Advances the deviation state through one cycle: cone-limited
    /// combinational settle, then the dev-space flip-flop step.
    ///
    /// Returns `(out_diff, state_diff)`: the OR over primary outputs of
    /// the during-cycle output deviations (lanes whose outputs disagree
    /// with golden — failure detection), and the OR over flip-flops of
    /// the next-state deviations (zero means **every** lane has
    /// reconverged with golden — the early-collapse proof, established
    /// without a register scan).
    ///
    /// `span` must cover cycle `t`; only gates reachable from the dirty
    /// frontier are evaluated.
    pub fn diff_cycle(&self, sc: &mut DiffScratch, span: &BitSpan, t: usize) -> (u64, u64) {
        debug_assert!(
            t >= span.start() && t < span.end(),
            "cycle {t} outside bit span {}..{}",
            span.start(),
            span.end()
        );
        let DiffScratch { dev, touched, dirty, ff_updates } = sc;
        let row = span.row(t);
        // Seed the frontier: every gate reading a deviant signal. Track
        // the word range the frontier spans so the drain scan below
        // never walks the clean remainder of the bitmap.
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &slot in touched.iter() {
            for &pos in self.fanout.consumers_of_slot(slot as usize) {
                let w = pos as usize / 64;
                dirty[w] |= 1u64 << (pos % 64);
                lo = lo.min(w);
                hi = hi.max(w);
            }
        }
        // Cone walk in ascending position order: drain the bitmap with a
        // forward scan, re-reading the current word after every pop so
        // same-word insertions are picked up. A consumer's position
        // always exceeds its producers', so each popped gate sees final
        // operand deviations and is evaluated exactly once.
        let mut w = lo;
        while w <= hi {
            let word = dirty[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let bit = word.trailing_zeros();
            dirty[w] &= !(1u64 << bit);
            let pos = w * 64 + bit as usize;
            let instr = &self.instrs[pos];
            let pins = &self.pin_pool
                [instr.pin_start as usize..(instr.pin_start + instr.pin_len) as usize];
            let faulty = tape::eval_gate(instr.kind, pins, |p| {
                BitSpan::word_in_row(row, p as usize) ^ dev[p as usize]
            });
            let dv = faulty ^ BitSpan::word_in_row(row, instr.out as usize);
            // A zero deviation prunes the fanout: logical masking has
            // absorbed the fault on this path.
            if dv != 0 {
                dev[instr.out as usize] = dv;
                touched.push(instr.out);
                for &succ in self.fanout.consumers_of_slot(instr.out as usize) {
                    let sw = succ as usize / 64;
                    dirty[sw] |= 1u64 << (succ % 64);
                    hi = hi.max(sw);
                }
            }
        }
        // Output deviations, from whichever list is shorter: the deviant
        // slots (through the is-output bitset) or the outputs.
        let mut out_diff = 0u64;
        if touched.len() < self.outputs.len() {
            for &slot in touched.iter() {
                if self.is_output[slot as usize / 64] >> (slot % 64) & 1 == 1 {
                    out_diff |= dev[slot as usize];
                }
            }
        } else {
            for &o in &self.outputs {
                out_diff |= dev[o as usize];
            }
        }
        // Dev-space flip-flop step, two-phase: sample every deviant `D`,
        // clear the old deviations, then write the new `Q` deviations.
        ff_updates.clear();
        for &slot in touched.iter() {
            let dv = dev[slot as usize];
            let row = self.ff_q_start[slot as usize] as usize
                ..self.ff_q_start[slot as usize + 1] as usize;
            for &q in &self.ff_q_targets[row] {
                ff_updates.push((q, dv));
            }
        }
        for &slot in touched.iter() {
            dev[slot as usize] = 0;
        }
        touched.clear();
        let mut state_diff = 0u64;
        for &(q, dv) in ff_updates.iter() {
            if dv != 0 {
                dev[q as usize] = dv;
                touched.push(q);
                state_diff |= dv;
            }
        }
        (out_diff, state_diff)
    }

    /// Loads the golden flip-flop state at the start of cycle `t` from
    /// `span` into every lane of `st`: the seed of a full-evaluation
    /// chunk walk.
    ///
    /// # Panics
    ///
    /// Panics if `span` does not cover cycle `t`.
    pub fn span_load_state(&self, st: &mut SimState, span: &BitSpan, t: usize) {
        let row = span.row(t);
        for &q in &self.ffs {
            st.values[q as usize] = BitSpan::word_in_row(row, q as usize);
        }
    }

    /// Compares a full-evaluation state, settled by an `eval` during
    /// cycle `t`, against golden row `t` of `span`. Returns
    /// `(out_diff, state_diff)` as [`diff_cycle`](Self::diff_cycle) does:
    /// the lanes whose outputs differ from golden, and the lanes whose
    /// next state differs.
    ///
    /// The state check reads each flip-flop's `D` slot before `step`:
    /// golden `Q` at `t + 1` is golden `D` at `t`, so it never leaves the
    /// row, and the last cycle needs no final state. The scan stops once
    /// every lane of `live` that has not just failed shows a difference
    /// (none of them can reconverge this cycle), so `state_diff` is exact
    /// only on those lanes.
    ///
    /// # Panics
    ///
    /// Panics if `span` does not cover cycle `t`.
    #[must_use]
    pub fn span_diff(&self, st: &SimState, span: &BitSpan, t: usize, live: u64) -> (u64, u64) {
        let row = span.row(t);
        let diff = |slot: u32| st.values[slot as usize] ^ BitSpan::word_in_row(row, slot as usize);
        let out_diff = self.outputs.iter().fold(0, |acc, &o| acc | diff(o));
        let pending = live & !out_diff;
        let mut state_diff = 0u64;
        for &d in &self.ff_d {
            state_diff |= diff(d);
            if state_diff & pending == pending {
                break;
            }
        }
        (out_diff, state_diff)
    }

    /// Calls `each(lane, ff)` for every lane of `live` whose state,
    /// after the last [`diff_cycle`](Self::diff_cycle), deviates from
    /// golden in exactly one flip-flop, `ff`: from the next cycle on the
    /// lane is the single-bit upset of `ff` at that cycle.
    ///
    /// Two passes over the deviant `Q` slots: one/many masks find the
    /// lanes with a single deviant flip-flop, and the second pass names
    /// it, stopping once every such lane is named. Nothing is scanned
    /// when no lane qualifies.
    pub fn diff_lone_ffs(&self, sc: &DiffScratch, live: u64, mut each: impl FnMut(u32, FfIndex)) {
        let (mut one, mut many) = (0u64, 0u64);
        for &slot in &sc.touched {
            let d = sc.dev[slot as usize] & live;
            many |= one & d;
            one |= d;
        }
        let mut lone = one & !many;
        for &slot in &sc.touched {
            if lone == 0 {
                break;
            }
            let mut hit = sc.dev[slot as usize] & lone;
            lone &= !hit;
            let ff = self.ff_of_slot[slot as usize];
            debug_assert_ne!(ff, u32::MAX, "a deviant slot after the step is a flip-flop");
            while hit != 0 {
                each(hit.trailing_zeros(), FfIndex::new(ff as usize));
                hit &= hit - 1;
            }
        }
    }

    /// Retires `lanes`: clears their bits in every deviant slot and drops
    /// slots left clean, so a decided lane stops driving its cone. The
    /// other lanes' deviations are untouched.
    pub fn diff_retire(&self, sc: &mut DiffScratch, lanes: u64) {
        let DiffScratch { dev, touched, .. } = sc;
        touched.retain(|&slot| {
            let d = &mut dev[slot as usize];
            *d &= !lanes;
            *d != 0
        });
    }

    /// Clears all deviations, returning the scratch to the all-clean
    /// state (cheap: proportional to the number of deviant slots).
    pub fn diff_reset(&self, sc: &mut DiffScratch) {
        for &slot in &sc.touched {
            sc.dev[slot as usize] = 0;
        }
        sc.touched.clear();
        debug_assert!(sc.dirty.iter().all(|&w| w == 0), "cone worklist not drained");
    }

    /// Runs one 64-lane tape pass over `lanes` and captures `spans`
    /// (cycle ranges) as bit-packed [`BitSpan`]s.
    ///
    /// Every lane starts from its seed, the golden flip-flop state at
    /// the start of its `cycles`, and is driven with their stimulus; a
    /// lane whose cycles end before the longest runs on with low
    /// inputs, uncaptured. A capture lane writes its rows into span
    /// `span` from row `row` on, through [`scatter_lanes`]. The
    /// look-ahead lanes (no capture, after every capture lane) instead
    /// snapshot their flip-flop state every `every` cycles, returned
    /// bit-packed per look-ahead lane in lane order.
    ///
    /// # Panics
    ///
    /// Panics unless `1..=64` lanes are given.
    fn capture_bit_spans(
        &self,
        tb: &Testbench,
        spans: &[SpanKey],
        lanes: &[ReplayLane<'_>],
        every: usize,
    ) -> (Vec<BitSpan>, Vec<Vec<u64>>) {
        assert!((1..=64).contains(&lanes.len()), "{} lanes for one 64-lane pass", lanes.len());
        let captures = lanes.iter().take_while(|l| l.capture.is_some()).count();
        debug_assert!(lanes[captures..].iter().all(|l| l.capture.is_none()));
        let mut st = self.new_state();
        let seeds: Vec<&[u64]> = lanes.iter().map(|l| l.seed).collect();
        self.load_ff_lanes(&mut st, &seeds);
        let stride = self.num_cells.div_ceil(64);
        let mut out: Vec<BitSpan> = spans
            .iter()
            .map(|&(start, end)| {
                debug_assert!(start < end && end <= tb.num_cycles());
                BitSpan { start, end, stride, words: vec![0; stride * (end - start)] }
            })
            .collect();
        let words = self.ffs.len().div_ceil(64);
        let mut snaps: Vec<Vec<u64>> = lanes[captures..]
            .iter()
            .map(|l| vec![0; l.cycles.len() / every * words])
            .collect();
        let steps = lanes.iter().map(|l| l.cycles.len()).max().unwrap_or(0);
        let mut inputs = vec![0u64; self.inputs.len()];
        for step in 0..steps {
            inputs.fill(0);
            for (lane, l) in lanes.iter().enumerate() {
                if step < l.cycles.len() {
                    for (w, &bit) in inputs.iter_mut().zip(tb.cycle(l.cycles.start + step)) {
                        *w |= u64::from(bit) << lane;
                    }
                }
            }
            self.set_inputs_raw(&mut st, &inputs);
            self.eval(&mut st);
            scatter_lanes(&st.values, step, &lanes[..captures], &mut out);
            self.step(&mut st);
            let done = step + 1;
            if done % every == 0 && captures < lanes.len() {
                let at = (done / every - 1) * words;
                self.read_ff_lanes(&st, captures..lanes.len(), |lane, w, word| {
                    if done <= lanes[lane].cycles.len() {
                        snaps[lane - captures][at + w] = word;
                    }
                });
            }
        }
        (out, snaps)
    }

    /// Loads lane `l` of every flip-flop with `seeds[l]`, a bit-packed
    /// state (flip-flop `64w + i` is bit `i` of word `w`); lanes past
    /// `seeds.len()` are cleared. One 64×64 transpose per 64 flip-flops.
    fn load_ff_lanes(&self, st: &mut SimState, seeds: &[&[u64]]) {
        for (w, group) in self.ffs.chunks(64).enumerate() {
            let by_lane = std::array::from_fn(|l| seeds.get(l).map_or(0, |s| s[w]));
            for (block, group) in group.chunks(8).enumerate() {
                let by_ff = transpose64_rows(&by_lane, block);
                for (&slot, &word) in group.iter().zip(&by_ff) {
                    st.values[slot as usize] = word;
                }
            }
        }
    }

    /// Reads the flip-flop state of each lane in `lanes`, bit-packed:
    /// calls `sink(lane, w, word)` for word `w` of the lane's state
    /// (flip-flop `64w + i` is bit `i`). One 64×64 transpose per 64
    /// flip-flops.
    fn read_ff_lanes(
        &self,
        st: &SimState,
        lanes: Range<usize>,
        mut sink: impl FnMut(usize, usize, u64),
    ) {
        let mut by_ff = [0u64; 64];
        for (w, group) in self.ffs.chunks(64).enumerate() {
            for (word, &slot) in by_ff.iter_mut().zip(group) {
                *word = st.values[slot as usize];
            }
            by_ff[group.len()..].fill(0);
            for block in lanes.start / 8..lanes.end.div_ceil(8) {
                let by_lane = transpose64_rows(&by_ff, block);
                for lane in lanes.start.max(8 * block)..lanes.end.min(8 * block + 8) {
                    sink(lane, w, by_lane[lane - 8 * block]);
                }
            }
        }
    }
}

/// One lane of a replay pass.
#[derive(Debug)]
struct ReplayLane<'a> {
    /// Golden flip-flop state at `cycles.start`, bit-packed.
    seed: &'a [u64],
    /// The cycles the lane replays.
    cycles: Range<usize>,
    /// `(span, row)`: the lane's rows go to span `span` from row `row`
    /// on. `None` for a look-ahead lane, which captures no rows.
    capture: Option<(usize, usize)>,
}

/// Transposes an 8×8 bit matrix stored row-major in a `u64` (row `i` is
/// byte `i`, column `j` its bit `j`): bit `8i + j` moves to `8j + i`.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transposes an 8×8 byte matrix stored as eight `u64` rows (row `c`
/// is `m[c]`, column `k` its byte `k`): byte `k` of `m[c]` moves to byte
/// `c` of `m[k]`.
#[inline]
fn transpose_bytes8(m: &mut [u64; 8]) {
    for (dist, mask) in [(1, 0x00FF_00FF_00FF_00FF), (2, 0x0000_FFFF_0000_FFFF), (4, 0xFFFF_FFFF)] {
        let width = 8 * dist;
        for c in (0..8).filter(|c| c & dist == 0) {
            let t = ((m[c] >> width) ^ m[c + dist]) & mask;
            m[c + dist] ^= t;
            m[c] ^= t << width;
        }
    }
}

/// Rows `8 * block..8 * block + 8` of the transpose of the 64×64 bit
/// matrix `m`: bit `i` of result row `j` is bit `j` of `m[i]`.
///
/// Works in 8×8 bit blocks: byte `block` (columns `8 * block..` of `m`)
/// of eight consecutive rows is gathered into one `u64` and transposed,
/// so its byte `k` holds column `8 * block + k`'s bits of those eight
/// rows; an 8×8 byte transpose of eight such words then yields each
/// column's 64-bit result row.
#[inline]
fn transpose64_rows(m: &[u64; 64], block: usize) -> [u64; 8] {
    let shift = 8 * block;
    let mut rows: [u64; 8] = std::array::from_fn(|c| {
        transpose8(u64::from_le_bytes(std::array::from_fn(|i| (m[8 * c + i] >> shift) as u8)))
    });
    transpose_bytes8(&mut rows);
    rows
}

/// Writes row `step` of every capture lane still running at `step`:
/// bit `slot` of lane `l`'s row is bit `l` of `values[slot]`, and the
/// row lands in span `span` at row `row + step` for the lane's
/// `(span, row)`. One 64×64 transpose per 64 slots, over the 8-lane
/// blocks holding the given lanes only.
fn scatter_lanes(values: &[u64], step: usize, lanes: &[ReplayLane<'_>], spans: &mut [BitSpan]) {
    let mut pad = [0u64; 64];
    for (word, group) in values.chunks(64).enumerate() {
        let group: &[u64; 64] = match group.try_into() {
            Ok(full) => full,
            Err(_) => {
                pad[..group.len()].copy_from_slice(group);
                &pad
            }
        };
        for (block, lanes) in lanes.chunks(8).enumerate() {
            let rows = transpose64_rows(group, block);
            for (lane, &row) in lanes.iter().zip(&rows) {
                if let (Some((span, first)), true) = (lane.capture, step < lane.cycles.len()) {
                    let span = &mut spans[span];
                    span.words[(first + step) * span.stride + word] = row;
                }
            }
        }
    }
}

/// One replay pass, as planned against the store: the spans it
/// rebuilds and the spans its idle lanes look ahead at.
#[derive(Debug)]
struct Pass {
    /// The spans rebuilt, the missed one first.
    batch: Vec<SpanKey>,
    /// Whether every batch span replays in slices of `ceil(K / 8)`
    /// cycles; otherwise each replays whole in one lane.
    sliced: bool,
    /// Per batch span, the look-ahead seeds taken from the table
    /// (empty when it had none).
    seeds: Vec<Vec<u64>>,
    /// Uncached, unseeded spans whose slice seeds the idle lanes
    /// snapshot.
    look_ahead: Vec<SpanKey>,
    /// Tape steps the pass runs.
    steps: usize,
}

impl GoldenTrace {
    /// Cycles per golden bit span: the checkpoint interval `K`.
    fn bit_span_len(&self) -> usize {
        self.policy().interval()
    }

    /// The golden [`BitSpan`] containing cycle `t`, served through (and
    /// retained in) `cache`: zero-copy on a hit, replayed on a miss.
    ///
    /// Spans are the `K`-cycle checkpoint intervals, the final one cut
    /// at the bench end, so each seeds at its own checkpoint.
    ///
    /// A miss replays the missing span together with the uncached spans
    /// the cache's [`Walk`] reaches next — the spans after it on a
    /// forward walk, before it on a backward one — stopping at the first
    /// cached span or the bench edge, in one lane-parallel pass of at
    /// most `max(1, capacity / 2)` spans (never more than 64): a walk
    /// pays one pass for several spans.
    ///
    /// A span is cut into slices of `ceil(K / 8)` cycles. When the
    /// state at every slice start is known — for a span seeded in the
    /// store's seed table, or short enough to be a single slice — and
    /// all the batch's slices fit in the 64 lanes, each slice replays in
    /// a lane of its own and the pass runs `ceil(K / 8)` steps instead of `K`.
    /// Otherwise every batch span replays whole, and the pass's idle
    /// lanes **look ahead**: they replay the next spans in walk order
    /// beyond the batch that are neither cached nor seeded, capture
    /// nothing, and snapshot their state at each slice start into the
    /// seed table, so the passes after it run sliced. Which spans a pass
    /// rebuilds, and so `misses`, `hits` and `replayed_cycles`, do not
    /// depend on seeding; a capacity-0 cache looks ahead at nothing.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_cycles()`, or `sim`/`tb` dimensions do not
    /// match the trace.
    #[must_use]
    pub fn bit_span_cached(
        &self,
        sim: &CompiledSim,
        tb: &Testbench,
        t: usize,
        cache: &mut BitCache,
    ) -> Arc<BitSpan> {
        let n = self.num_cycles();
        assert!(t < n, "bit span cycle {t} beyond trace");
        assert_eq!(sim.num_ffs(), self.num_ffs(), "bit span sim flip-flop count");
        assert_eq!(tb.num_cycles(), n, "bit span test-bench length");
        let len = self.bit_span_len();
        let first = t - t % len;
        if let Some(span) = cache.lookup((first, (first + len).min(n))) {
            return span;
        }
        let pass = self.plan_pass(first, cache);
        self.replay_pass(sim, tb, &pass, cache)
    }

    /// Plans the replay pass for the missed span starting at `first`,
    /// taking the batch spans' seeds out of the table.
    fn plan_pass(&self, first: usize, cache: &mut BitCache) -> Pass {
        let (n, len) = (self.num_cycles(), self.bit_span_len());
        let slice = len.div_ceil(8);
        let key = |start: usize| (start, (start + len).min(n));
        let slices = |(start, end): SpanKey| (end - start).div_ceil(slice);
        let limit = cache.batch_limit();
        // Look-ahead pays only where a span has more than one slice, and
        // only a retaining store keeps what it finds.
        let look = cache.capacity > 0 && len > 1;
        // The starts of the spans the walk reaches after the span at
        // `from`, nearest first: later spans on a forward walk, earlier
        // ones on a backward walk.
        let walk = cache.walk;
        let beyond = move |from: usize| {
            (1..).map_while(move |i: usize| match walk {
                Walk::Forward => Some(from + i * len).filter(|&start| start < n),
                Walk::Backward => from.checked_sub(i * len),
            })
        };
        cache.locked(|store| {
            let uncached = beyond(first).map(key).take_while(|&k| !store.cached(k));
            let batch: Vec<SpanKey> =
                std::iter::once(key(first)).chain(uncached).take(limit).collect();
            let known = |k: SpanKey| slices(k) == 1 || store.seeded(k);
            let lanes: usize = batch.iter().map(|&k| slices(k)).sum();
            let sliced = lanes <= 64 && batch.iter().all(|&k| known(k));
            let seeds = batch.iter().map(|&k| store.take_seed(k).unwrap_or_default()).collect();
            let steps = batch
                .iter()
                .map(|&(start, end)| if sliced { slice.min(end - start) } else { end - start })
                .max()
                .unwrap_or(0);
            // A look-ahead lane must reach its span's last slice start
            // within the pass: a pass of only a short final span is too
            // short to seed a full one.
            let reached = |k: SpanKey| slices(k) > 1 && (slices(k) - 1) * slice <= steps;
            let look_ahead = if sliced || !look {
                Vec::new()
            } else {
                let edge = batch.last().map_or(first, |&(start, _)| start);
                beyond(edge)
                    .map(key)
                    .filter(|&k| reached(k) && !store.cached(k) && !store.seeded(k))
                    .take(64 - batch.len())
                    .collect()
            };
            Pass { batch, sliced, seeds, look_ahead, steps }
        })
    }

    /// Runs `pass`, retains what it rebuilt and found, and returns its
    /// first span.
    fn replay_pass(
        &self,
        sim: &CompiledSim,
        tb: &Testbench,
        pass: &Pass,
        cache: &mut BitCache,
    ) -> Arc<BitSpan> {
        let len = self.bit_span_len();
        let slice = len.div_ceil(8);
        let words = self.num_ffs().div_ceil(64);
        // A span replayed whole is a single slice.
        let lane_len = if pass.sliced { slice } else { len };
        let mut lanes = Vec::new();
        for (j, (&(start, end), seeds)) in pass.batch.iter().zip(&pass.seeds).enumerate() {
            for (i, from) in (start..end).step_by(lane_len).enumerate() {
                let seed = if i == 0 || seeds.is_empty() {
                    self.packed_state(from)
                } else {
                    &seeds[(i - 1) * words..i * words]
                };
                let cycles = from..(from + lane_len).min(end);
                lanes.push(ReplayLane { seed, cycles, capture: Some((j, i * lane_len)) });
            }
        }
        for &(start, end) in &pass.look_ahead {
            let slices = (end - start).div_ceil(slice);
            let cycles = start..start + (slices - 1) * slice;
            // The plan looks ahead only at spans whose every slice start
            // the pass reaches.
            debug_assert!(cycles.len() <= pass.steps);
            lanes.push(ReplayLane { seed: self.packed_state(start), cycles, capture: None });
        }
        let (spans, snaps) = sim.capture_bit_spans(tb, &pass.batch, &lanes, slice);
        let spans: Vec<Arc<BitSpan>> = spans.into_iter().map(Arc::new).collect();
        cache.misses += 1;
        cache.replayed_cycles +=
            pass.batch.iter().map(|&(start, end)| (end - start) as u64).sum::<u64>();
        cache.replay_steps += pass.steps as u64;
        cache.insert(&spans, pass.look_ahead.iter().copied().zip(snaps).collect());
        Arc::clone(&spans[0])
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use super::*;
    use crate::{broadcast, TracePolicy};

    /// A small sequential circuit with reconvergent fanout, masking
    /// paths and an inverter chain — enough structure to exercise cone
    /// growth, pruning and reconvergence.
    fn gadget() -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("gadget");
        let en = b.input("en");
        let q0 = b.dff(false);
        let q1 = b.dff(true);
        let q2 = b.dff(false);
        let inv = b.not(q0);
        let inv2 = b.not(inv);
        let a = b.and2(inv2, en);
        let o = b.or2(a, q1);
        let x = b.xor2(o, q2);
        let m = b.mux(en, x, inv);
        b.connect_dff(q0, x).unwrap();
        b.connect_dff(q1, m).unwrap();
        b.connect_dff(q2, a).unwrap();
        b.output("x", x);
        b.output("m", m);
        b.finish().unwrap()
    }

    /// A wider sequential circuit: three inputs and a ring of `ffs`
    /// flip-flops joined by mixing gates. At 130 flip-flops it has well
    /// over 128 cells, so span rows take several words and the last one
    /// is partial, and its state stays live on random benches (a 48-FF
    /// ring dies out to the all-zero state within its first 64 cycles).
    fn ring_of(ffs: usize) -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("ring");
        let ins: Vec<_> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
        let qs: Vec<_> = (0..ffs).map(|i| b.dff(i % 3 == 0)).collect();
        for i in 0..ffs {
            let g = b.and2(qs[(i + 1) % ffs], ins[i % 3]);
            let d = b.xor2(qs[(i + ffs - 1) % ffs], g);
            b.connect_dff(qs[i], d).unwrap();
            if i % 8 == 0 {
                b.output(format!("o{i}"), d);
            }
        }
        b.finish().unwrap()
    }

    /// Golden value of every cell at every cycle, from a plain one-lane
    /// run of the whole bench.
    fn brute_force_values(sim: &CompiledSim, tb: &Testbench) -> Vec<Vec<bool>> {
        let mut st = sim.new_state();
        (0..tb.num_cycles())
            .map(|t| {
                sim.set_inputs(&mut st, tb.cycle(t));
                sim.eval(&mut st);
                let row = st.values.iter().map(|v| v & 1 == 1).collect();
                sim.step(&mut st);
                row
            })
            .collect()
    }

    #[test]
    fn bit_spans_match_golden_values() {
        for n in [gadget(), ring_of(130)] {
            let sim = crate::CompiledSim::new(&n);
            for (policy, len) in [
                (TracePolicy::Checkpoint(64), 64),
                (TracePolicy::Checkpoint(1), 1),
                (TracePolicy::Checkpoint(5), 5),
            ] {
                for batch in [1usize, 3, 8, 9, 64] {
                    // Two batches' worth of spans plus a short final span
                    // (`len / 2` cycles; none under `Checkpoint(1)`, where
                    // the 70-cycle minimum still fills a 64-span pass).
                    let cycles = (len * 2 * batch + len / 2).max(70);
                    let tb = Testbench::random(n.num_inputs(), cycles, 7 + batch as u64);
                    let golden = brute_force_values(&sim, &tb);
                    let trace = sim.run_golden_with(&tb, policy);
                    // `2 * batch + 1` halves to `batch`; 1000 is clamped
                    // to the 64 lanes of a pass.
                    let capacity = if batch == 64 { 1000 } else { 2 * batch + 1 };
                    let mut cache = BitCache::new(capacity);
                    let first = trace.bit_span_cached(&sim, &tb, 0, &mut cache);
                    assert_eq!(
                        cache.replayed_cycles(),
                        (batch * len).min(cycles) as u64,
                        "policy {policy} batch {batch}: one pass fills the batch"
                    );
                    assert_eq!((first.start(), first.end()), (0, len.min(cycles)));
                    for (t, row) in golden.iter().enumerate() {
                        let span = trace.bit_span_cached(&sim, &tb, t, &mut cache);
                        let start = t - t % len;
                        assert_eq!((span.start(), span.end()), (start, (start + len).min(cycles)));
                        for (slot, &bit) in row.iter().enumerate() {
                            assert_eq!(
                                span.bit_at(slot, t),
                                bit,
                                "policy {policy} batch {batch} slot {slot} cycle {t}"
                            );
                        }
                    }
                    let spans = cycles.div_ceil(len);
                    assert_eq!(
                        cache.misses(),
                        spans.div_ceil(batch) as u64,
                        "policy {policy} batch {batch}"
                    );
                    assert_eq!(cache.replayed_cycles(), cycles as u64, "each span rebuilt once");
                    assert_eq!(cache.hits() + cache.misses(), cycles as u64 + 1);
                }
            }
        }
    }

    #[test]
    fn transpose8_moves_bit_ij_to_ji() {
        let mut rng = crate::SplitMix64::new(3);
        for _ in 0..1000 {
            let x = rng.next_u64();
            let y = transpose8(x);
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(y >> (8 * j + i) & 1, x >> (8 * i + j) & 1, "{x:#x} bit ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn transpose_bytes8_moves_byte_ck_to_kc() {
        let mut rng = crate::SplitMix64::new(4);
        for _ in 0..100 {
            let m: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
            let mut t = m;
            transpose_bytes8(&mut t);
            for c in 0..8 {
                for k in 0..8 {
                    assert_eq!(t[k] >> (8 * c) & 0xff, m[c] >> (8 * k) & 0xff, "byte ({c}, {k})");
                }
            }
        }
    }

    #[test]
    fn scatter_lanes_matches_a_naive_bit_gather() {
        let mut rng = crate::SplitMix64::new(11);
        for (cells, lanes) in [(1usize, 1usize), (64, 8), (150, 9), (200, 64), (129, 3)] {
            let stride = cells.div_ceil(64);
            let values: Vec<u64> = (0..cells).map(|_| rng.next_u64()).collect();
            // Span `j` lasts `j % 3 + 1` steps; step 1 skips the spans
            // that already ended.
            let mut spans: Vec<BitSpan> = (0..lanes)
                .map(|j| {
                    let len = j % 3 + 1;
                    BitSpan { start: 10, end: 10 + len, stride, words: vec![0; stride * len] }
                })
                .collect();
            let targets: Vec<ReplayLane<'_>> = spans
                .iter()
                .enumerate()
                .map(|(j, span)| ReplayLane {
                    seed: &[],
                    cycles: span.start..span.end,
                    capture: Some((j, 0)),
                })
                .collect();
            scatter_lanes(&values, 1, &targets, &mut spans);
            for (lane, span) in spans.iter().enumerate() {
                for (slot, &v) in values.iter().enumerate() {
                    let want = span.end() > 11 && v >> lane & 1 == 1;
                    let got = span.end() > 11 && span.bit_at(slot, 11);
                    assert_eq!(got, want, "cells {cells} lane {lane} slot {slot}");
                }
                // Padding bits past the last cell stay clear.
                if span.end() > 11 {
                    assert_eq!(span.row(11)[stride - 1] >> ((cells - 1) % 64) >> 1, 0);
                }
                assert!(span.row(10).iter().all(|&w| w == 0), "step 0 untouched");
            }
        }
    }

    #[test]
    fn transpose64_rows_move_bit_ij_to_ji() {
        let mut rng = crate::SplitMix64::new(5);
        for _ in 0..10 {
            let m: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
            for block in 0..8 {
                for (k, &row) in transpose64_rows(&m, block).iter().enumerate() {
                    let j = 8 * block + k;
                    for (i, &col) in m.iter().enumerate() {
                        assert_eq!(row >> i & 1, col >> j & 1, "block {block} bit ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn ff_lanes_load_and_read_back_bit_packed() {
        let mut rng = crate::SplitMix64::new(6);
        for ffs in [48usize, 64, 130] {
            let sim = crate::CompiledSim::new(&ring_of(ffs));
            let words = ffs.div_ceil(64);
            let mask = |w: usize| if 64 * (w + 1) <= ffs { !0 } else { (1u64 << (ffs % 64)) - 1 };
            for lanes in [1usize, 9, 64] {
                let seed = |_| (0..words).map(|w| rng.next_u64() & mask(w)).collect();
                let seeds: Vec<Vec<u64>> = (0..lanes).map(seed).collect();
                let refs: Vec<&[u64]> = seeds.iter().map(Vec::as_slice).collect();
                let mut st = sim.new_state();
                sim.load_ff_lanes(&mut st, &refs);
                for lane in 0..64 {
                    let bits = sim.state_lane(&st, lane as u32);
                    for (i, &bit) in bits.iter().enumerate() {
                        let want = seeds.get(lane).is_some_and(|s| s[i / 64] >> (i % 64) & 1 == 1);
                        assert_eq!(bit, want, "ffs {ffs} lanes {lanes} lane {lane} ff {i}");
                    }
                }
                let mut back = vec![vec![0u64; words]; 64];
                sim.read_ff_lanes(&st, 0..lanes, |lane, w, word| back[lane][w] = word);
                assert_eq!(&back[..lanes], &seeds[..], "ffs {ffs} lanes {lanes}");
            }
        }
    }

    /// Walks every cycle of a `cycles`-long random bench in the cache's
    /// walk order (ascending or descending cycles), checking every bit
    /// against a plain run, and returns the cache with its counters.
    fn walk_all(
        n: &seugrade_netlist::Netlist,
        policy: TracePolicy,
        cycles: usize,
        cache: BitCache,
    ) -> BitCache {
        let sim = crate::CompiledSim::new(n);
        let tb = Testbench::random(n.num_inputs(), cycles, 17);
        let golden = brute_force_values(&sim, &tb);
        let trace = sim.run_golden_with(&tb, policy);
        let mut cache = cache;
        let mut order: Vec<(usize, &Vec<bool>)> = golden.iter().enumerate().collect();
        if cache.walk == Walk::Backward {
            order.reverse();
        }
        for (t, row) in order {
            let span = trace.bit_span_cached(&sim, &tb, t, &mut cache);
            for (slot, &bit) in row.iter().enumerate() {
                assert_eq!(span.bit_at(slot, t), bit, "policy {policy} slot {slot} cycle {t}");
            }
            assert!(cache.seeded() <= MAX_SEEDS);
        }
        cache
    }

    #[test]
    fn look_ahead_seeds_let_later_passes_replay_in_slices() {
        // The ring stays live, so the seeds are checked bit by bit.
        let live = ring_of(130);
        let sim = crate::CompiledSim::new(&live);
        let golden = brute_force_values(&sim, &Testbench::random(live.num_inputs(), 1024, 17));
        let states: std::collections::HashSet<Vec<bool>> = golden[256..]
            .iter()
            .map(|row| sim.ffs.iter().map(|&q| row[q as usize]).collect())
            .collect();
        assert!(states.len() > 700, "{} distinct states", states.len());
        let policy = TracePolicy::Checkpoint(64);
        let mut cache = walk_all(&live, policy, 1024, BitCache::new(8));
        // One full pass (64 steps) seeds spans 4..16; the three passes
        // after it replay 4 spans each as 32 lanes of 8 cycles.
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.replay_steps(), 64 + 3 * 8);
        assert_eq!(cache.replayed_cycles(), 1024);
        assert_eq!(cache.seeded(), 0, "every seed was used");
    }

    #[test]
    fn forgetting_drops_only_what_lies_behind_the_cursor() {
        let live = ring_of(130);
        let policy = TracePolicy::Checkpoint(64);
        let mut cache = walk_all(&live, policy, 1024, BitCache::new(8));
        // The walk ends with spans 8..16 cached (each 64 cycles).
        assert_eq!(cache.held(), 8);
        cache.forget_before(12 * 64);
        assert_eq!(cache.held(), 4, "spans ending at or before cycle 768 are gone");
        let sim = crate::CompiledSim::new(&live);
        let tb = Testbench::random(live.num_inputs(), 1024, 17);
        let trace = sim.run_golden_with(&tb, policy);
        let misses = cache.misses();
        for t in [12 * 64, 1023] {
            let _ = trace.bit_span_cached(&sim, &tb, t, &mut cache);
        }
        assert_eq!(cache.misses(), misses, "spans ahead stay cached");
        cache.forget_before(usize::MAX);
        assert_eq!((cache.held(), cache.seeded()), (0, 0));
    }

    #[test]
    fn a_backward_walk_replays_no_more_than_a_forward_walk() {
        let live = ring_of(130);
        let policy = TracePolicy::Checkpoint(64);
        let forward = walk_all(&live, policy, 1024, BitCache::new(8));
        let mut backward = walk_all(&live, policy, 1024, BitCache::new(8).walking(Walk::Backward));
        assert!(backward.misses() <= forward.misses(), "{} passes", backward.misses());
        assert!(backward.replay_steps() <= forward.replay_steps(), "{}", backward.replay_steps());
        // Spans 15..12 replay whole and seed 11..0, which then replay
        // in slices, 4 spans per pass — the forward walk's mirror image.
        assert_eq!(backward.misses(), 4);
        assert_eq!(backward.replay_steps(), 64 + 3 * 8);
        assert_eq!(backward.replayed_cycles(), 1024);
        assert_eq!(backward.seeded(), 0, "every seed was used");
        // A backward walk that batched forward would find every later
        // span cached and replay one span per pass.
        let mut shared = BitCache::new(8).walking(Walk::Backward);
        assert_eq!(shared.clone_handle().walk, Walk::Backward, "handles keep the walk");
        assert_eq!(walk_all(&live, policy, 1024, shared.clone_handle()).misses(), 4);
        assert_eq!(shared.held(), 8);
    }

    #[test]
    fn a_short_final_span_seeds_nothing_on_a_backward_walk() {
        // Capacity 2 rebuilds one span per pass. A backward walk misses
        // the 20-cycle final span first; its pass runs 20 steps, too few
        // to reach the slice starts of a 64-cycle span, so it looks ahead
        // at nothing. The next pass replays span 15 whole and seeds
        // spans 14..0, which replay in slices.
        let n = ring_of(130);
        let cache = BitCache::new(2).walking(Walk::Backward);
        let mut cache = walk_all(&n, TracePolicy::Checkpoint(64), 1044, cache);
        assert_eq!(cache.misses(), 17);
        assert_eq!(cache.replay_steps(), 20 + 64 + 15 * 8);
        assert_eq!(cache.seeded(), 0, "every seed was used");
    }

    #[test]
    fn slicing_covers_every_policy_length_and_capacity() {
        let ck = TracePolicy::Checkpoint;
        // (policy, cycles, capacity, passes, steps)
        let cases = [
            // Slices of one cycle: 17 spans, the last 3 cycles long.
            (ck(5), 83, 8, 5, 5 + 4),
            // One-cycle spans are single slices: nothing to seed.
            (ck(1), 70, 8, 18, 18),
            // A short final span of 20 cycles replays as 3 slices.
            (ck(64), 1044, 8, 5, 64 + 4 * 8),
            // Capacity 16: one full pass of 8 spans seeds the other 8,
            // which then fill all 64 lanes with slices.
            (ck(64), 1024, 16, 2, 64 + 8),
            // Capacity 2: one span per pass, 15 look-ahead lanes.
            (ck(64), 1024, 2, 16, 64 + 15 * 8),
        ];
        // A ring that stays live (see above), with seeds of three words.
        let n = ring_of(130);
        for (policy, cycles, capacity, passes, steps) in cases {
            let what = format!("{policy}, {cycles} cycles, capacity {capacity}");
            let mut cache = walk_all(&n, policy, cycles, BitCache::new(capacity));
            assert_eq!(cache.misses(), passes, "{what}: passes");
            assert_eq!(cache.replay_steps(), steps, "{what}: steps");
            assert_eq!(cache.replayed_cycles(), cycles as u64, "{what}: each span rebuilt once");
            assert_eq!(cache.hits() + cache.misses(), cycles as u64, "{what}");
            assert_eq!(cache.seeded(), 0, "{what}: every seed was used");
        }
        // Capacity 0 keeps no seeds: every request replays its own span
        // whole, as without look-ahead.
        let mut cache = walk_all(&n, ck(64), 256, BitCache::disabled());
        assert_eq!(cache.misses(), 256);
        assert_eq!(cache.replay_steps(), 256 * 64);
        assert_eq!(cache.seeded(), 0);
    }

    #[test]
    fn shared_handles_racing_for_one_seeded_span_agree() {
        let n = ring_of(130);
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::random(n.num_inputs(), 1024, 23);
        let golden = brute_force_values(&sim, &tb);
        let trace = sim.run_golden_with(&tb, TracePolicy::Checkpoint(64));
        let root = BitCache::new(8);
        let mut a = root.clone_handle();
        let mut b = root.clone_handle();
        let _ = trace.bit_span_cached(&sim, &tb, 0, &mut a);
        assert_eq!(a.seeded(), 12, "spans 4..16 seeded for every handle");
        // Both handles miss span 4 before either lands it: `a` takes the
        // seeds of spans 4..8, `b` finds none and replays them whole,
        // looking ahead at nothing (8..16 are still seeded).
        let pa = trace.plan_pass(256, &mut a);
        let pb = trace.plan_pass(256, &mut b);
        assert_eq!(pa.batch, pb.batch);
        assert!(pa.sliced && !pb.sliced);
        assert!(pb.look_ahead.is_empty());
        let sb = trace.replay_pass(&sim, &tb, &pb, &mut b);
        let sa = trace.replay_pass(&sim, &tb, &pa, &mut a);
        for span in [sa, sb] {
            for (t, row) in golden.iter().enumerate().skip(256).take(64) {
                for (slot, &bit) in row.iter().enumerate() {
                    assert_eq!(span.bit_at(slot, t), bit, "slot {slot} cycle {t}");
                }
            }
        }
        assert_eq!((a.misses(), a.replay_steps()), (2, 64 + 8));
        assert_eq!((b.misses(), b.replay_steps()), (1, 64));
        assert_eq!((a.held(), a.seeded()), (8, 8), "no duplicate span, seeds 8..16 kept");
        // The rest of the walk replays in slices on either handle.
        let _ = trace.bit_span_cached(&sim, &tb, 512, &mut b);
        assert_eq!(b.replay_steps(), 64 + 8);
        let _ = trace.bit_span_cached(&sim, &tb, 768, &mut a);
        assert_eq!(a.replay_steps(), 64 + 2 * 8);
        assert_eq!(root.clone_handle().seeded(), 0);
    }

    #[test]
    fn replay_batches_stay_within_capacity_and_double_buffer() {
        let n = ring_of(130);
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::random(n.num_inputs(), 64, 5);
        let trace = sim.run_golden_with(&tb, TracePolicy::Checkpoint(4));
        for capacity in [1usize, 2, 5, 8] {
            let mut cache = BitCache::new(capacity);
            let mut passes = 0;
            for t in 0..64 {
                let _ = trace.bit_span_cached(&sim, &tb, t, &mut cache);
                assert!(cache.held() <= capacity, "capacity {capacity}: {} held", cache.held());
                if cache.misses() > passes {
                    passes = cache.misses();
                    if t > 0 && capacity > 1 {
                        // The span the walk sat in survives the landing.
                        let hits = cache.hits();
                        let _ = trace.bit_span_cached(&sim, &tb, t - 1, &mut cache);
                        assert_eq!(cache.hits(), hits + 1, "capacity {capacity} cycle {t}");
                    }
                }
            }
            assert_eq!(passes, 16u64.div_ceil((capacity as u64 / 2).max(1)));
        }
    }

    #[test]
    fn diff_cycles_match_brute_force_divergence() {
        let n = gadget();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::random(1, 30, 42);
        let values = sim.run_golden(&tb);
        let trace = sim.run_golden_with(&tb, TracePolicy::default());
        let mut cache = BitCache::new(2);
        let mut sc = sim.new_diff_scratch();
        for ff in 0..sim.num_ffs() {
            for inject in [0usize, 3, 11] {
                // Reference: a full 64-lane run with the flip applied in
                // lanes 1 and 5 at the injection cycle.
                let mut st = sim.new_state();
                let mut ref_trail = Vec::new();
                for t in 0..tb.num_cycles() {
                    if t == inject {
                        sim.flip_ff_lane(&mut st, FfIndex::new(ff), 1);
                        sim.flip_ff_lane(&mut st, FfIndex::new(ff), 5);
                    }
                    sim.set_inputs(&mut st, tb.cycle(t));
                    sim.eval(&mut st);
                    let mut out_diff = 0u64;
                    for (o, w) in sim.outputs_raw(&st).iter().enumerate() {
                        out_diff |= w ^ broadcast(values.output_at(t)[o]);
                    }
                    sim.step(&mut st);
                    let mut state_diff = 0u64;
                    let mut deviant = Vec::new();
                    for f in 0..sim.num_ffs() {
                        let d = sim.ff_raw(&st, FfIndex::new(f))
                            ^ broadcast(values.state_at(t + 1)[f]);
                        state_diff |= d;
                        if d != 0 {
                            deviant.push(FfIndex::new(f));
                        }
                    }
                    // Lanes 1 and 5 carry the same fault: both or
                    // neither deviate in exactly one flip-flop.
                    let lone = match deviant[..] {
                        [g] => vec![(1, g), (5, g)],
                        _ => Vec::new(),
                    };
                    if t >= inject {
                        ref_trail.push((out_diff, state_diff, lone));
                    }
                }
                // Differential kernel over the same fault.
                sim.diff_seed(&mut sc, FfIndex::new(ff), 1);
                sim.diff_seed(&mut sc, FfIndex::new(ff), 5);
                for (i, (ro, rs, lone)) in ref_trail.iter().enumerate() {
                    let t = inject + i;
                    let span = trace.bit_span_cached(&sim, &tb, t, &mut cache);
                    let (o, s) = sim.diff_cycle(&mut sc, &span, t);
                    assert_eq!(o, *ro, "out_diff ff {ff} inject {inject} cycle {t}");
                    assert_eq!(s, *rs, "state_diff ff {ff} inject {inject} cycle {t}");
                    let mut found = Vec::new();
                    sim.diff_lone_ffs(&sc, !0, |lane, g| found.push((lane, g)));
                    assert_eq!(&found, lone, "lone flip-flop ff {ff} inject {inject} cycle {t}");
                }
                sim.diff_reset(&mut sc);
                assert_eq!(sc.active_signals(), 0);
            }
        }
    }

    #[test]
    fn reconverged_state_stays_clean_for_free() {
        // A decaying pipeline: d2 <- d1 <- d0 <- 0. A flip in d0 washes
        // out in three cycles; afterwards diff_cycle must evaluate
        // nothing and report zero diffs.
        let mut b = NetlistBuilder::new("decay");
        let zero = b.constant(false);
        let d0 = b.dff(false);
        let d1 = b.dff(false);
        let d2 = b.dff(false);
        b.connect_dff(d0, zero).unwrap();
        b.connect_dff(d1, d0).unwrap();
        b.connect_dff(d2, d1).unwrap();
        b.output("y", d2);
        let n = b.finish().unwrap();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 8);
        let trace = sim.run_golden_with(&tb, TracePolicy::default());
        let mut cache = BitCache::new(1);
        let span = trace.bit_span_cached(&sim, &tb, 0, &mut cache);
        let mut sc = sim.new_diff_scratch();
        sim.diff_seed(&mut sc, FfIndex::new(0), 0);
        let mut diffs = Vec::new();
        for t in 0..6 {
            diffs.push(sim.diff_cycle(&mut sc, &span, t));
        }
        // The deviation marches d0 -> d1 -> d2, shows at the output for
        // exactly one cycle, then the machine is reconverged for good.
        assert_eq!(diffs[0].0, 0, "not yet observable");
        assert_ne!(diffs[1].1, 0, "still marching");
        assert_ne!(diffs[2].0, 0, "observable at d2");
        assert_eq!(diffs[2].1, 0, "reconverged after the march");
        assert_eq!(diffs[3], (0, 0));
        assert_eq!(diffs[4], (0, 0));
        assert_eq!(sc.active_signals(), 0, "no lingering deviations");
    }

    #[test]
    fn retired_lanes_leave_no_deviation() {
        // A toggle register observed directly: a flip fails at once and
        // then deviates forever, so only retirement can clean it up.
        let mut b = NetlistBuilder::new("toggles");
        let q0 = b.dff(false);
        let q1 = b.dff(true);
        let n0 = b.not(q0);
        let n1 = b.not(q1);
        b.connect_dff(q0, n0).unwrap();
        b.connect_dff(q1, n1).unwrap();
        b.output("q0", q0);
        b.output("q1", q1);
        let n = b.finish().unwrap();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 8);
        let trace = sim.run_golden_with(&tb, TracePolicy::default());
        let mut cache = BitCache::new(1);
        let span = trace.bit_span_cached(&sim, &tb, 0, &mut cache);
        let mut sc = sim.new_diff_scratch();
        sim.diff_seed(&mut sc, FfIndex::new(0), 0);
        sim.diff_seed(&mut sc, FfIndex::new(1), 1);
        sim.diff_seed(&mut sc, FfIndex::new(0), 2);
        let (out_diff, state_diff) = sim.diff_cycle(&mut sc, &span, 0);
        assert_eq!(out_diff, 0b111, "every lane fails at once");
        assert_eq!(state_diff, 0b111, "and keeps deviating");
        // Retiring one lane leaves the others' deviations untouched.
        sim.diff_retire(&mut sc, 0b001);
        assert_eq!(sim.diff_cycle(&mut sc, &span, 1), (0b110, 0b110));
        sim.diff_retire(&mut sc, 0b110);
        assert_eq!(sc.active_signals(), 0, "every lane failed and was retired");
        assert_eq!(sim.diff_cycle(&mut sc, &span, 2), (0, 0));
    }

    #[test]
    fn shared_bit_cache_replays_each_span_once() {
        let n = gadget();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(1, 16);
        let trace = sim.run_golden_with(&tb, TracePolicy::Checkpoint(4));
        let root = BitCache::new(4);
        let mut a = root.clone_handle();
        let mut b = root.clone_handle();
        // A capacity of 4 replays two spans per pass: 4..8 and 8..12.
        let _ = trace.bit_span_cached(&sim, &tb, 5, &mut a);
        let _ = trace.bit_span_cached(&sim, &tb, 4, &mut b);
        let _ = trace.bit_span_cached(&sim, &tb, 11, &mut b);
        assert_eq!((a.misses(), a.hits()), (1, 0));
        assert_eq!((b.misses(), b.hits()), (0, 2));
        assert_eq!(a.replayed_cycles(), 8);
        assert_eq!(b.replayed_cycles(), 0);
        // Disabled cache: every request replays its own span.
        let mut d = BitCache::disabled();
        let _ = trace.bit_span_cached(&sim, &tb, 4, &mut d);
        let _ = trace.bit_span_cached(&sim, &tb, 7, &mut d);
        assert_eq!((d.misses(), d.hits()), (2, 0));
        assert_eq!(d.replayed_cycles(), 8);
    }
}
