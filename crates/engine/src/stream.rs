//! Streaming campaign primitives: cycle-major chunk plans and online
//! verdict accumulation.
//!
//! The paper's emulator never materializes a campaign — faults are
//! enumerated cycle-major on the fly and classified results are dropped
//! as soon as they are tallied. This module is the software analogue:
//!
//! - `ChunkPlan` (crate-internal) turns any single-fault
//!   [`FaultSource`](crate::FaultSource) into a sequence of cycle-sorted
//!   ≤ 64-lane chunks. For the exhaustive source the chunks are
//!   *computed arithmetically*, one injection cycle each — no
//!   `flip-flops × cycles` fault vector ever exists; workers regenerate
//!   their chunk from its index — and the cycles are walked in
//!   **descending** order: a fault that has become a single-bit upset
//!   one or two cycles later then finds that upset already graded in
//!   the run's verdict window (the alias collapse, see
//!   `Grader::grade_chunk`). Explicit lists are sorted by cycle and
//!   packed full regardless of cycle boundaries, in ascending order: the
//!   grader injects each lane at its own cycle, so a sparse sample fills
//!   every lane.
//! - [`VerdictSink`] is the online accumulator contract: each worker
//!   folds `(fault, outcome)` pairs into a private sink, and the
//!   per-worker sinks are merged after the join. Sinks must be
//!   **order-insensitive** (commutative observes/merges), which is what
//!   keeps every thread count bit-identical to the oracle —
//!   a property the oracle battery enforces.
//! - [`StreamAccumulator`] is the standard sink: class tallies, the
//!   per-flip-flop failure map, and an order-independent verdict
//!   [digest](StreamAccumulator::digest) that lets two streamed runs
//!   (or a streamed and a materialized run) be compared fault-for-fault
//!   without either of them storing a single outcome.

use std::borrow::Cow;

use seugrade_faultsim::{Fault, FaultClass, FaultOutcome, GradingSummary};
use seugrade_netlist::FfIndex;
use seugrade_sim::Walk;

/// Fault lanes per chunk: one fault per lane of a 64-lane simulation
/// word.
const LANES: usize = 64;

/// A single-fault campaign cut into cycle-sorted chunks of at most
/// [`LANES`] faults, in cycle-major order: descending cycles on the
/// exhaustive plan, ascending on ordered plans.
///
/// The chunk sequence is the unit the pool's workers pull lazily; a
/// worker holds one chunk (≤ 64 faults) and its grading scratch at a
/// time, so campaign memory is independent of the fault-space size on
/// the exhaustive path.
#[derive(Debug)]
pub(crate) enum ChunkPlan<'a> {
    /// The full `flip-flops × cycles` space, last cycle first; chunk `i`
    /// is derived from its index alone.
    Exhaustive {
        /// Flip-flop dimension.
        num_ffs: usize,
        /// Cycle dimension.
        num_cycles: usize,
        /// Chunks per cycle: `ceil(num_ffs / LANES)`.
        per_cycle: usize,
        /// Total chunks: `per_cycle × num_cycles`.
        chunks: usize,
        /// Total faults.
        faults: usize,
    },
    /// An explicit list, counting-sorted by injection cycle and cut into
    /// consecutive runs of [`LANES`] faults that may span several
    /// cycles: chunk `i` is `order[i × LANES ..]`, the last one holding
    /// the remainder.
    Ordered {
        /// The faults, in submission order: borrowed from the plan's
        /// list, or owned when the plan outlives its source (a drawn
        /// sample, a kept campaign state).
        faults: Cow<'a, [Fault]>,
        /// Cycle-major permutation of `0..faults.len()`: sorted position
        /// → submission index.
        order: Vec<u32>,
    },
}

impl<'a> ChunkPlan<'a> {
    /// Plans the exhaustive `num_ffs × num_cycles` space without
    /// materializing it, cutting each cycle into chunks of at most
    /// [`LANES`] faults, the last cycle first.
    pub(crate) fn exhaustive(num_ffs: usize, num_cycles: usize) -> Self {
        let per_cycle = num_ffs.div_ceil(LANES);
        ChunkPlan::Exhaustive {
            num_ffs,
            num_cycles,
            per_cycle,
            chunks: per_cycle * num_cycles,
            faults: num_ffs * num_cycles,
        }
    }

    /// Plans an explicit fault list: a stable counting sort by injection
    /// cycle, then consecutive runs of [`LANES`] faults, ignoring cycle
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics if a fault's cycle is `>= num_cycles`.
    pub(crate) fn ordered(faults: impl Into<Cow<'a, [Fault]>>, num_cycles: usize) -> Self {
        let faults = faults.into();
        // Per-cycle counts, turned in place into each cycle's first slot.
        let mut cursor = vec![0usize; num_cycles];
        for f in faults.iter() {
            assert!((f.cycle as usize) < num_cycles, "fault cycle out of range");
            cursor[f.cycle as usize] += 1;
        }
        let mut start = 0;
        for slot in &mut cursor {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut order = vec![0u32; faults.len()];
        for (i, f) in faults.iter().enumerate() {
            let c = f.cycle as usize;
            order[cursor[c]] = i as u32;
            cursor[c] += 1;
        }
        ChunkPlan::Ordered { faults, order }
    }

    /// The same plan, owning its faults: a plan that must outlive its
    /// fault source (a drawn sample, a borrowed list) copies them once.
    pub(crate) fn into_owned(self) -> ChunkPlan<'static> {
        match self {
            ChunkPlan::Exhaustive { num_ffs, num_cycles, per_cycle, chunks, faults } => {
                ChunkPlan::Exhaustive { num_ffs, num_cycles, per_cycle, chunks, faults }
            }
            ChunkPlan::Ordered { faults, order } => {
                ChunkPlan::Ordered { faults: Cow::Owned(faults.into_owned()), order }
            }
        }
    }

    /// Number of chunks.
    pub(crate) fn num_chunks(&self) -> usize {
        match self {
            ChunkPlan::Exhaustive { chunks, .. } => *chunks,
            ChunkPlan::Ordered { faults, .. } => faults.len().div_ceil(LANES),
        }
    }

    /// The order in which the chunks visit injection cycles: backward
    /// on the exhaustive plan, forward on ordered plans.
    pub(crate) fn walk(&self) -> Walk {
        match self {
            ChunkPlan::Exhaustive { .. } => Walk::Backward,
            ChunkPlan::Ordered { .. } => Walk::Forward,
        }
    }

    /// The injection cycle of exhaustive chunk `i`, counted from the
    /// last cycle down, and the first flip-flop of its lanes.
    fn exhaustive_origin(num_cycles: usize, per_cycle: usize, i: usize) -> (usize, usize) {
        (num_cycles - 1 - i / per_cycle, (i % per_cycle) * LANES)
    }

    /// Total faults across all chunks.
    pub(crate) fn num_faults(&self) -> usize {
        match self {
            ChunkPlan::Exhaustive { faults, .. } => *faults,
            ChunkPlan::Ordered { faults, .. } => faults.len(),
        }
    }

    /// Faults covered by the chunks before `chunk` — the fault-space
    /// position of a resume cursor. Pure arithmetic on the exhaustive
    /// plan and on ordered plans alike (chunks partition the sorted list
    /// contiguously).
    pub(crate) fn faults_before(&self, chunk: usize) -> usize {
        match self {
            ChunkPlan::Exhaustive { num_ffs, per_cycle, chunks, faults, .. } => {
                if chunk >= *chunks {
                    return *faults;
                }
                // Every cycle holds `num_ffs` faults, so the count is the
                // same whichever end the walk starts from. Within a
                // cycle, chunk j starts at flip-flop j*LANES, and
                // j*LANES < num_ffs for every in-cycle index.
                (chunk / per_cycle) * num_ffs + (chunk % per_cycle) * LANES
            }
            ChunkPlan::Ordered { faults, .. } => chunk.saturating_mul(LANES).min(faults.len()),
        }
    }

    /// The injection cycle of chunk `i`'s first fault, `None` past the
    /// last chunk. Only an ordered plan walks forward, so only an
    /// ordered plan is asked.
    pub(crate) fn first_cycle(&self, i: usize) -> Option<usize> {
        let ChunkPlan::Ordered { faults, order } = self else {
            unreachable!("only ordered plans walk forward")
        };
        (i < self.num_chunks())
            .then(|| faults[order[self.faults_before(i)] as usize].cycle as usize)
    }

    /// Writes chunk `i`'s faults, sorted by injection cycle, into `buf`.
    pub(crate) fn fill(&self, i: usize, buf: &mut Vec<Fault>) {
        buf.clear();
        match self {
            ChunkPlan::Exhaustive { num_ffs, num_cycles, per_cycle, .. } => {
                let (cycle, lo) = Self::exhaustive_origin(*num_cycles, *per_cycle, i);
                let hi = (lo + LANES).min(*num_ffs);
                buf.extend((lo..hi).map(|ff| Fault::new(FfIndex::new(ff), cycle as u32)));
            }
            ChunkPlan::Ordered { faults, order, .. } => {
                buf.extend(order[self.sorted_range(i)].iter().map(|&fi| faults[fi as usize]));
            }
        }
    }

    /// Sorted positions of chunk `i` of an ordered plan.
    fn sorted_range(&self, i: usize) -> std::ops::Range<usize> {
        self.faults_before(i)..self.faults_before(i + 1)
    }

    /// Scatters chunk `i`'s verdicts back into submission order.
    pub(crate) fn scatter(&self, i: usize, out: &[FaultOutcome], dest: &mut [FaultOutcome]) {
        match self {
            ChunkPlan::Exhaustive { num_ffs, num_cycles, per_cycle, .. } => {
                // Exhaustive submission order is ascending cycle-major,
                // so the chunk lands contiguously.
                let (cycle, lo) = Self::exhaustive_origin(*num_cycles, *per_cycle, i);
                let start = cycle * num_ffs + lo;
                dest[start..start + out.len()].copy_from_slice(out);
            }
            ChunkPlan::Ordered { order, .. } => {
                for (&fi, &o) in order[self.sorted_range(i)].iter().zip(out) {
                    dest[fi as usize] = o;
                }
            }
        }
    }
}

/// An online accumulator of streamed verdicts.
///
/// Each worker holds two sinks ([`Default`]): a chunk's graded
/// `(fault, outcome)` pairs fold into a chunk-local sink, which the
/// pool [`absorb`](Self::absorb)s into the worker's private sink once
/// the chunk succeeds (a panicked chunk's sink is thrown away), and
/// the worker sinks are merged after the join, in worker order. Because
/// workers race for chunks, `observe`/`merge` **must be order-insensitive**
/// (commutative tallies, sums, maxima, …) — that is what makes a
/// streamed campaign bit-identical at every thread count. The oracle
/// battery (`tests/engine_agreement.rs`) enforces the property.
pub trait VerdictSink: Default + Send {
    /// Folds one graded fault into the sink.
    fn observe(&mut self, fault: Fault, outcome: FaultOutcome);

    /// Absorbs another worker's sink.
    fn merge(&mut self, other: Self);

    /// Moves everything `other` has folded into `self` and leaves
    /// `other` empty, ready for the worker's next chunk. The pool drains
    /// every chunk's sink through it, so a sink with per-flip-flop state
    /// should override it to touch only the entries `other` wrote; the
    /// default merges `other` and replaces it with a fresh sink.
    fn absorb(&mut self, other: &mut Self) {
        self.merge(std::mem::take(other));
    }
}

/// The standard streaming sink: class tallies, a per-flip-flop failure
/// map, and an order-independent verdict digest.
#[derive(Clone, Debug, Default)]
pub struct StreamAccumulator {
    summary: GradingSummary,
    failure_map: Vec<usize>,
    /// The index of every nonzero `failure_map` entry, once each, so
    /// [`absorb`](VerdictSink::absorb) costs the chunk's failures rather
    /// than the circuit's flip-flops.
    failing: Vec<u32>,
    digest: u64,
}

/// One fault's contribution to the order-independent digest: a
/// SplitMix64-style finalizer over the packed `(fault, outcome)`,
/// combined across faults with wrapping addition (commutative), so the
/// digest is a fault-for-fault fingerprint of the whole verdict set.
fn verdict_hash(fault: Fault, outcome: FaultOutcome) -> u64 {
    let tag = |c: Option<u32>| c.map_or(u64::MAX, u64::from);
    let mut z = ((fault.ff.index() as u64) << 32) | u64::from(fault.cycle);
    z = z
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(match outcome.class {
            FaultClass::Failure => 1,
            FaultClass::Latent => 2,
            FaultClass::Silent => 3,
        })
        .wrapping_add(tag(outcome.detect_cycle).rotate_left(17))
        .wrapping_add(tag(outcome.converge_cycle).rotate_left(41));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StreamAccumulator {
    /// Reassembles an accumulator from persisted parts (the inverse of
    /// reading [`summary`](Self::summary), [`failure_map`](Self::failure_map)
    /// and [`digest`](Self::digest)); used when restoring a campaign
    /// checkpoint.
    pub(crate) fn from_parts(
        summary: GradingSummary,
        failure_map: Vec<usize>,
        digest: u64,
    ) -> Self {
        let failing =
            (0..failure_map.len() as u32).filter(|&ff| failure_map[ff as usize] != 0).collect();
        StreamAccumulator { summary, failure_map, failing, digest }
    }

    /// Adds `n` failures of flip-flop `ff` to the map.
    fn add_failures(&mut self, ff: usize, n: usize) {
        if self.failure_map.len() <= ff {
            self.failure_map.resize(ff + 1, 0);
        }
        let count = &mut self.failure_map[ff];
        if *count == 0 {
            self.failing.push(ff as u32);
        }
        *count += n;
    }

    /// Pooled classification tallies.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        &self.summary
    }

    /// Failure count per flip-flop index (the weak-area map); indices
    /// past the highest failing flip-flop may be absent.
    #[must_use]
    pub fn failure_map(&self) -> &[usize] {
        &self.failure_map
    }

    /// Order-independent fingerprint of every `(fault, verdict)` pair.
    ///
    /// Two campaigns over the same fault set produced this digest
    /// equally iff they agreed on (essentially) every single verdict —
    /// whatever their thread counts, chunk schedules or
    /// [`TracePolicy`](seugrade_sim::TracePolicy)s.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Computes the digest of a materialized `(faults, outcomes)` pair —
    /// the bridge for comparing a streamed run against the oracle's or a
    /// materialized run's verdicts.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn digest_of(faults: &[Fault], outcomes: &[FaultOutcome]) -> u64 {
        assert_eq!(faults.len(), outcomes.len(), "outcomes parallel to faults");
        faults
            .iter()
            .zip(outcomes)
            .fold(0u64, |acc, (&f, &o)| acc.wrapping_add(verdict_hash(f, o)))
    }
}

impl VerdictSink for StreamAccumulator {
    fn observe(&mut self, fault: Fault, outcome: FaultOutcome) {
        self.summary.add(outcome.class);
        if outcome.class == FaultClass::Failure {
            self.add_failures(fault.ff.index(), 1);
        }
        self.digest = self.digest.wrapping_add(verdict_hash(fault, outcome));
    }

    fn merge(&mut self, mut other: Self) {
        self.absorb(&mut other);
    }

    /// Walks only `other`'s failing flip-flops, and keeps `other`'s map
    /// allocated (all zeros) for its next chunk.
    fn absorb(&mut self, other: &mut Self) {
        self.summary.merge(&std::mem::take(&mut other.summary));
        for ff in other.failing.drain(..) {
            let n = std::mem::take(&mut other.failure_map[ff as usize]);
            self.add_failures(ff as usize, n);
        }
        self.digest = self.digest.wrapping_add(std::mem::take(&mut other.digest));
    }
}

#[cfg(test)]
mod tests {
    use seugrade_faultsim::FaultList;

    use super::*;

    #[test]
    fn exhaustive_plan_covers_the_space_in_cycle_major_order() {
        // Whole words, a short tail per cycle, and a single lane.
        for (ffs, cycles, per_cycle) in [(70, 3, 2), (64, 4, 1), (129, 2, 3), (1, 5, 1)] {
            let plan = ChunkPlan::exhaustive(ffs, cycles);
            assert_eq!(plan.num_chunks(), per_cycle * cycles, "{ffs}x{cycles}");
            assert_eq!(plan.num_faults(), ffs * cycles);
            assert_eq!(plan.walk(), Walk::Backward);
            let mut buf = Vec::new();
            let mut all = Vec::new();
            for i in 0..plan.num_chunks() {
                plan.fill(i, &mut buf);
                assert!(buf.len() <= 64 && !buf.is_empty());
                let t = buf[0].cycle;
                assert!(buf.iter().all(|f| f.cycle == t), "same-cycle chunk");
                all.extend_from_slice(&buf);
            }
            // Cycle-major, the last cycle first, flip-flops ascending
            // within a cycle.
            let reference = FaultList::exhaustive(ffs, cycles);
            let descending: Vec<Fault> =
                reference.as_slice().chunks(ffs).rev().flatten().copied().collect();
            assert_eq!(all, descending, "{ffs}x{cycles}");
        }
    }

    #[test]
    fn ordered_plan_matches_exhaustive_plan_on_the_same_list() {
        // The ordered plan packs across cycle boundaries, so its chunks
        // differ from the arithmetic plan's; the faults covered and the
        // verdicts scattered back must not.
        let list = FaultList::exhaustive(70, 3);
        let ordered = ChunkPlan::ordered(list.as_slice(), 3);
        let arithmetic = ChunkPlan::exhaustive(70, 3);
        assert_eq!(ordered.num_faults(), arithmetic.num_faults());
        let scattered = |plan: &ChunkPlan<'_>| {
            let mut buf = Vec::new();
            let mut covered = Vec::new();
            let mut dest = vec![FaultOutcome::latent(); list.len()];
            for i in 0..plan.num_chunks() {
                plan.fill(i, &mut buf);
                assert!(buf.len() <= 64 && !buf.is_empty());
                assert!(buf.windows(2).all(|w| w[0].cycle <= w[1].cycle), "chunk {i} sorted");
                covered.extend_from_slice(&buf);
                // A verdict that names its fault, so a misplaced scatter
                // shows.
                let out: Vec<FaultOutcome> = buf
                    .iter()
                    .map(|f| FaultOutcome::failure(f.cycle * 1000 + f.ff.index() as u32))
                    .collect();
                plan.scatter(i, &out, &mut dest);
            }
            covered.sort();
            (covered, dest)
        };
        let (covered, dest) = scattered(&ordered);
        assert_eq!(scattered(&arithmetic), (covered.clone(), dest.clone()));
        // The ordered plan walks forward, the arithmetic one backward.
        let first_cycle = |plan: &ChunkPlan<'_>| {
            let mut buf = Vec::new();
            plan.fill(0, &mut buf);
            buf[0].cycle
        };
        assert_eq!((ordered.walk(), first_cycle(&ordered)), (Walk::Forward, 0));
        assert_eq!((arithmetic.walk(), first_cycle(&arithmetic)), (Walk::Backward, 2));
        let mut all = list.as_slice().to_vec();
        all.sort();
        assert_eq!(covered, all, "every fault exactly once");
        // Full 64-lane chunks, the last one holding the remainder.
        assert_eq!(ordered.num_chunks(), 210usize.div_ceil(64));
    }

    #[test]
    fn faults_before_matches_walked_prefix_sums() {
        let list = FaultList::sampled(70, 9, 150, 3);
        let whole = FaultList::sampled(70, 9, 128, 5);
        let plans = [
            ChunkPlan::exhaustive(70, 3),
            ChunkPlan::exhaustive(64, 4),
            ChunkPlan::exhaustive(129, 2),
            ChunkPlan::ordered(list.as_slice(), 9),
            ChunkPlan::ordered(whole.as_slice(), 9),
        ];
        for plan in &plans {
            let mut buf = Vec::new();
            let mut walked = 0usize;
            for i in 0..plan.num_chunks() {
                assert_eq!(plan.faults_before(i), walked, "chunk {i}");
                plan.fill(i, &mut buf);
                walked += buf.len();
            }
            assert_eq!(plan.faults_before(plan.num_chunks()), plan.num_faults());
            assert_eq!(plan.faults_before(plan.num_chunks() + 10), plan.num_faults());
        }
    }

    #[test]
    fn scatter_inverts_fill() {
        let list = FaultList::sampled(10, 9, 40, 3);
        let plan = ChunkPlan::ordered(list.as_slice(), 9);
        let mut buf = Vec::new();
        let mut dest = vec![FaultOutcome::latent(); list.len()];
        for i in 0..plan.num_chunks() {
            plan.fill(i, &mut buf);
            // Tag each verdict with its fault's cycle so the scatter is
            // checkable.
            let out: Vec<FaultOutcome> =
                buf.iter().map(|f| FaultOutcome::failure(f.cycle)).collect();
            plan.scatter(i, &out, &mut dest);
        }
        for (f, o) in list.iter().zip(&dest) {
            assert_eq!(o.detect_cycle, Some(f.cycle), "{f}");
        }
    }

    #[test]
    fn accumulator_is_order_insensitive() {
        let list = FaultList::exhaustive(5, 7);
        let outcomes: Vec<FaultOutcome> = list
            .iter()
            .enumerate()
            .map(|(i, _)| match i % 3 {
                0 => FaultOutcome::failure(i as u32 % 7),
                1 => FaultOutcome::silent(i as u32 % 7),
                _ => FaultOutcome::latent(),
            })
            .collect();
        let mut forward = StreamAccumulator::default();
        for (f, &o) in list.iter().zip(&outcomes) {
            forward.observe(f, o);
        }
        let pairs: Vec<(Fault, FaultOutcome)> =
            list.iter().zip(outcomes.iter().copied()).collect();
        let mut halves = (StreamAccumulator::default(), StreamAccumulator::default());
        for (i, &(f, o)) in pairs.iter().enumerate().rev() {
            if i % 2 == 0 {
                halves.0.observe(f, o);
            } else {
                halves.1.observe(f, o);
            }
        }
        let mut merged = StreamAccumulator::default();
        merged.merge(halves.1);
        merged.merge(halves.0);
        assert_eq!(merged.summary(), forward.summary());
        assert_eq!(merged.failure_map(), forward.failure_map());
        assert_eq!(merged.digest(), forward.digest());
        assert_eq!(
            merged.digest(),
            StreamAccumulator::digest_of(list.as_slice(), &outcomes)
        );
    }

    #[test]
    fn a_reused_chunk_sink_drains_into_the_same_fold() {
        // The chunks of an exhaustive plan over 70 flip-flops, every
        // third verdict a failure, folded through one reused chunk sink
        // the way the pool folds them.
        let plan = ChunkPlan::exhaustive(70, 3);
        let mut buf = Vec::new();
        let mut forward = StreamAccumulator::default();
        let mut worker = StreamAccumulator::default();
        let mut chunk = StreamAccumulator::default();
        for i in 0..plan.num_chunks() {
            plan.fill(i, &mut buf);
            for (j, &f) in buf.iter().enumerate() {
                let o = match (i + j) % 3 {
                    0 => FaultOutcome::failure(f.cycle),
                    _ => FaultOutcome::latent(),
                };
                forward.observe(f, o);
                chunk.observe(f, o);
            }
            worker.absorb(&mut chunk);
            assert_eq!(chunk.summary(), &GradingSummary::default(), "chunk {i} drained");
            assert_eq!(chunk.digest(), 0);
            assert!(chunk.failure_map().iter().all(|&n| n == 0));
        }
        assert_eq!(worker.summary(), forward.summary());
        assert_eq!(worker.failure_map(), forward.failure_map(), "same entries and length");
        assert_eq!(worker.digest(), forward.digest());
        // A restored sink drains like the one it was saved from.
        let mut restored = StreamAccumulator::from_parts(
            worker.summary().clone(),
            worker.failure_map().to_vec(),
            worker.digest(),
        );
        let mut total = StreamAccumulator::default();
        total.absorb(&mut restored);
        assert_eq!(total.failure_map(), forward.failure_map());
        assert!(restored.failure_map().iter().all(|&n| n == 0));
    }

    #[test]
    fn digest_distinguishes_single_verdict_flips() {
        let list = FaultList::exhaustive(4, 4);
        let a = vec![FaultOutcome::latent(); list.len()];
        let mut b = a.clone();
        b[7] = FaultOutcome::silent(2);
        assert_ne!(
            StreamAccumulator::digest_of(list.as_slice(), &a),
            StreamAccumulator::digest_of(list.as_slice(), &b)
        );
    }
}
