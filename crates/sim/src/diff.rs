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
//! The golden bits come from a [`BitSpan`]: one bit per cell per cycle
//! (golden values are lane-uniform), shared across all chunks of a
//! campaign through a [`BitCache`], the one golden span store of a
//! grading run: each span is replayed once per store, at 1/64th the word
//! cost of a value trace. Spans are replayed lane-parallel: one 64-lane
//! tape pass rebuilds a missing span together with the uncached spans
//! after it, each lane seeded with its own span's start state and
//! stimulus.
//!
//! The full-evaluation kernel ([`Kernel::Generic`](crate::Kernel::Generic))
//! reads the same spans: [`CompiledSim::span_load_state`] seeds its
//! lanes and [`CompiledSim::span_diff`] compares a settled cycle against
//! the golden row.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use seugrade_netlist::FfIndex;

use crate::{tape, CompiledSim, GoldenTrace, SimState, Testbench, TracePolicy};

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

/// Where a [`BitCache`] keeps its spans: per-handle, or behind a mutex
/// shared across a worker pool.
#[derive(Debug)]
enum BitStore {
    Local(SpanEntries),
    Shared(Arc<Mutex<SpanEntries>>),
}

/// Cached spans keyed by `(start, end)`, least recently used first.
type SpanEntries = Vec<((usize, usize), Arc<BitSpan>)>;

/// A small LRU of replayed golden [`BitSpan`]s, keyed by the exact
/// `start..end` cycle span: the golden span store both faulty kernels
/// read.
///
/// Every span is replayed at most once per store and then served
/// zero-copy to all 64-lane chunks grading inside it; with a
/// [`shared`](Self::shared) store the replay is paid once across the
/// whole worker pool. The capacity also sets the replay batch: a miss
/// rebuilds up to `max(1, capacity / 2)` spans (at most 64) in one
/// lane-parallel pass, so the spans a walk is in stay cached while the
/// next batch lands. A capacity of `0` disables retention (every
/// request replays its own span). Hit/miss/replay counters are always
/// per-handle.
#[derive(Debug)]
pub struct BitCache {
    capacity: usize,
    store: BitStore,
    hits: u64,
    misses: u64,
    replayed_cycles: u64,
}

impl BitCache {
    /// A private (lock-free) cache holding up to `capacity` spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_store(capacity, BitStore::Local(Vec::with_capacity(capacity.min(64))))
    }

    /// A cache whose span store is shared with every handle cloned off
    /// it via [`clone_handle`](Self::clone_handle).
    #[must_use]
    pub fn shared(capacity: usize) -> Self {
        let entries = Vec::with_capacity(capacity.min(64));
        Self::with_store(capacity, BitStore::Shared(Arc::new(Mutex::new(entries))))
    }

    fn with_store(capacity: usize, store: BitStore) -> Self {
        BitCache { capacity, store, hits: 0, misses: 0, replayed_cycles: 0 }
    }

    /// A new handle with zeroed counters: same store for a
    /// [`shared`](Self::shared) cache, a fresh empty cache otherwise.
    #[must_use]
    pub fn clone_handle(&self) -> Self {
        match &self.store {
            BitStore::Local(_) => Self::new(self.capacity),
            BitStore::Shared(store) => {
                Self::with_store(self.capacity, BitStore::Shared(Arc::clone(store)))
            }
        }
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

    /// Spans one replay pass may rebuild: half the capacity, so the
    /// spans in use survive the batch's insertion, and never more than
    /// the 64 lanes of a tape pass.
    fn batch_limit(&self) -> usize {
        (self.capacity / 2).clamp(1, 64)
    }

    /// Runs `f` on the span entries, locking a shared store.
    fn with_entries<R>(&mut self, f: impl FnOnce(&mut SpanEntries) -> R) -> R {
        match &mut self.store {
            BitStore::Local(entries) => f(entries),
            BitStore::Shared(store) => {
                f(&mut store.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
            }
        }
    }

    /// The span keyed `key`, marked most recently used.
    fn lookup(&mut self, key: (usize, usize)) -> Option<Arc<BitSpan>> {
        let hit = self.with_entries(|entries| {
            let pos = entries.iter().position(|(k, _)| *k == key)?;
            let entry = entries.remove(pos);
            let span = Arc::clone(&entry.1);
            entries.push(entry);
            Some(span)
        });
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// The replay batch for a missed `first` span: `first` plus the
    /// uncached keys of `rest` up to the first cached one, at most
    /// [`batch_limit`](Self::batch_limit) in all (the LRU order is left
    /// as it is).
    fn replay_batch(
        &mut self,
        first: (usize, usize),
        rest: impl Iterator<Item = (usize, usize)>,
    ) -> Vec<(usize, usize)> {
        let limit = self.batch_limit();
        self.with_entries(|entries| {
            let uncached = rest.take_while(|key| entries.iter().all(|(k, _)| k != key));
            std::iter::once(first).chain(uncached).take(limit).collect()
        })
    }

    /// Spans currently held by the store.
    #[cfg(test)]
    fn held(&mut self) -> usize {
        self.with_entries(|entries| entries.len())
    }

    /// Retains `spans`, evicting least recently used entries beyond the
    /// capacity. The first span ends up most recently used.
    fn insert(&mut self, spans: &[Arc<BitSpan>]) {
        let capacity = self.capacity;
        if capacity == 0 {
            return;
        }
        self.with_entries(|entries| {
            for span in spans.iter().rev() {
                let key = (span.start, span.end);
                if entries.iter().any(|(k, _)| *k == key) {
                    // A racing handle replayed the same span first; keep
                    // its copy.
                    continue;
                }
                if entries.len() == capacity {
                    entries.remove(0);
                }
                entries.push((key, Arc::clone(span)));
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
        let mut out_diff = 0u64;
        for &o in &self.outputs {
            out_diff |= dev[o as usize];
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

    /// Replays up to 64 golden spans in one 64-lane tape pass and
    /// captures each as a bit-packed [`BitSpan`].
    ///
    /// Lane `j` starts from `seeds[j].0`, the golden flip-flop state at
    /// the start of span `seeds[j].1`, and is driven with that span's
    /// stimulus; a lane whose span is shorter than the longest runs on
    /// with low inputs, uncaptured. Each step's value words are turned
    /// into the spans' rows by [`scatter_lanes`].
    ///
    /// # Panics
    ///
    /// Panics unless `1..=64` spans are given.
    pub(crate) fn capture_bit_spans(
        &self,
        tb: &Testbench,
        seeds: &[(&[bool], Range<usize>)],
    ) -> Vec<BitSpan> {
        assert!((1..=64).contains(&seeds.len()), "{} spans for one 64-lane pass", seeds.len());
        let mut st = self.new_state();
        for (i, &slot) in self.ffs.iter().enumerate() {
            st.values[slot as usize] = seeds
                .iter()
                .enumerate()
                .fold(0, |w, (lane, (seed, _))| w | u64::from(seed[i]) << lane);
        }
        let stride = self.num_cells.div_ceil(64);
        let mut spans: Vec<BitSpan> = seeds
            .iter()
            .map(|(_, r)| {
                debug_assert!(r.start < r.end && r.end <= tb.num_cycles());
                BitSpan { start: r.start, end: r.end, stride, words: vec![0; stride * r.len()] }
            })
            .collect();
        let steps = seeds.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
        let mut inputs = vec![0u64; self.inputs.len()];
        for step in 0..steps {
            inputs.fill(0);
            for (lane, (_, r)) in seeds.iter().enumerate() {
                if step < r.len() {
                    for (w, &bit) in inputs.iter_mut().zip(tb.cycle(r.start + step)) {
                        *w |= u64::from(bit) << lane;
                    }
                }
            }
            self.set_inputs_raw(&mut st, &inputs);
            self.eval(&mut st);
            scatter_lanes(&st.values, step, &mut spans);
            self.step(&mut st);
        }
        spans
    }
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

/// Writes row `step` of every span still running at `step`: bit `slot`
/// of span `j`'s row is bit `j` of `values[slot]`.
///
/// Works in 8×8 bit blocks: byte `b` (lanes `8b..8b+8`) of eight
/// consecutive values is gathered into one `u64` and transposed, so its
/// byte `k` holds lane `8b + k`'s bits of those eight slots; an 8×8 byte
/// transpose of eight such words then yields each lane's 64-slot row
/// word. Only the byte blocks holding a span are visited.
fn scatter_lanes(values: &[u64], step: usize, spans: &mut [BitSpan]) {
    let blocks = spans.len().div_ceil(8);
    let mut pad = [0u64; 64];
    for (word, group) in values.chunks(64).enumerate() {
        let group: &[u64; 64] = match group.try_into() {
            Ok(full) => full,
            Err(_) => {
                pad[..group.len()].copy_from_slice(group);
                &pad
            }
        };
        for block in 0..blocks {
            let shift = 8 * block;
            let mut rows: [u64; 8] = std::array::from_fn(|c| {
                transpose8(u64::from_le_bytes(std::array::from_fn(|i| {
                    (group[8 * c + i] >> shift) as u8
                })))
            });
            transpose_bytes8(&mut rows);
            for (span, &row) in spans[shift..].iter_mut().zip(&rows) {
                if step < span.end - span.start {
                    span.words[step * span.stride + word] = row;
                }
            }
        }
    }
}

impl GoldenTrace {
    /// Cycles per golden bit span: `K` under `Checkpoint(K)`, 64 under
    /// `Dense` (bounding span memory the same way checkpoints do).
    fn bit_span_len(&self) -> usize {
        match self.policy() {
            TracePolicy::Dense => 64,
            TracePolicy::Checkpoint(k) => k,
        }
    }

    /// The golden [`BitSpan`] containing cycle `t`, served through (and
    /// retained in) `cache`: zero-copy on a hit, replayed on a miss.
    ///
    /// Spans are aligned to their length — `K` cycles under
    /// `Checkpoint(K)`, 64 under `Dense`, the final one cut at the bench
    /// end — so each seeds at its own start. Unlike value windows, bit
    /// spans are replayed under **every** trace policy (internal gate
    /// values are never stored).
    ///
    /// A miss replays the missing span together with the uncached spans
    /// after it, stopping at the first cached span or the bench end, in
    /// one lane-parallel pass of at most `max(1, capacity / 2)` spans
    /// (never more than 64): a forward walk pays one pass for several
    /// spans.
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
        let key = |start: usize| (start, (start + len).min(n));
        let first = t - t % len;
        if let Some(span) = cache.lookup(key(first)) {
            return span;
        }
        let batch = cache.replay_batch(key(first), (first + len..n).step_by(len).map(key));
        let seeds: Vec<(&[bool], Range<usize>)> = batch
            .iter()
            .map(|&(start, end)| {
                let (seed, from) = self.seed_for(start);
                debug_assert_eq!(from, start, "bit spans are checkpoint-aligned");
                (seed, start..end)
            })
            .collect();
        let spans: Vec<Arc<BitSpan>> =
            sim.capture_bit_spans(tb, &seeds).into_iter().map(Arc::new).collect();
        cache.misses += 1;
        cache.replayed_cycles +=
            batch.iter().map(|&(start, end)| (end - start) as u64).sum::<u64>();
        cache.insert(&spans);
        Arc::clone(&spans[0])
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use super::*;
    use crate::broadcast;

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

    /// A wider sequential circuit: three inputs and a 48-FF ring of
    /// mixing gates, well over 128 cells, so span rows take several
    /// words and the last one is partial.
    fn ring() -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("ring");
        let ins: Vec<_> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
        let qs: Vec<_> = (0..48).map(|i| b.dff(i % 3 == 0)).collect();
        for i in 0..48 {
            let g = b.and2(qs[(i + 1) % 48], ins[i % 3]);
            let d = b.xor2(qs[(i + 47) % 48], g);
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
        for n in [gadget(), ring()] {
            let sim = crate::CompiledSim::new(&n);
            for (policy, len) in [
                (TracePolicy::Dense, 64),
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
            scatter_lanes(&values, 1, &mut spans);
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
    fn replay_batches_stay_within_capacity_and_double_buffer() {
        let n = ring();
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
        let trace = sim.run_golden(&tb);
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
                        out_diff |= w ^ broadcast(trace.output_at(t)[o]);
                    }
                    sim.step(&mut st);
                    let mut state_diff = 0u64;
                    for f in 0..sim.num_ffs() {
                        state_diff |= sim.ff_raw(&st, FfIndex::new(f))
                            ^ broadcast(trace.state_at(t + 1)[f]);
                    }
                    if t >= inject {
                        ref_trail.push((out_diff, state_diff));
                    }
                }
                // Differential kernel over the same fault.
                sim.diff_seed(&mut sc, FfIndex::new(ff), 1);
                sim.diff_seed(&mut sc, FfIndex::new(ff), 5);
                for (i, &(ro, rs)) in ref_trail.iter().enumerate() {
                    let t = inject + i;
                    let span = trace.bit_span_cached(&sim, &tb, t, &mut cache);
                    let (o, s) = sim.diff_cycle(&mut sc, &span, t);
                    assert_eq!(o, ro, "out_diff ff {ff} inject {inject} cycle {t}");
                    assert_eq!(s, rs, "state_diff ff {ff} inject {inject} cycle {t}");
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
        let trace = sim.run_golden(&tb);
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
        let trace = sim.run_golden(&tb);
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
        let root = BitCache::shared(4);
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
