//! The sharded campaign runtime.
//!
//! Every campaign — materialized, streamed, resumable, single-fault or
//! MBU — goes through one chunk loop (`fold_chunks`), the only code in
//! the engine that calls the pool. The entry points differ only in the
//! accumulator each chunk folds into and in whether a checkpoint is
//! written between rounds.

use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use seugrade_faultsim::{
    Collapse, Fault, FaultList, FaultOutcome, GradeScratch, Grader, GradingSummary, MultiFault,
    VerdictWindow,
};
use seugrade_netlist::Netlist;
use seugrade_sim::{BitCache, Testbench, TracePolicy, Walk};

use crate::error::EngineError;
use crate::plan::{CampaignPlan, FaultSource, Technique};
use crate::pool::{run_folded_ctl, FoldControl};
use crate::progress::{EngineStats, ProgressEvent};
use crate::resume::{Checkpoint, Fingerprint, PersistentSink, ResumeError, ResumeOptions};
use crate::stream::{ChunkPlan, StreamAccumulator};

/// Per-worker grading scratch of the single-fault paths: the grader's
/// scratch (see [`Engine::worker_scratch`]), the chunk fault buffer, and
/// the 64-lane outcome array.
type ChunkScratch = (GradeScratch, Vec<Fault>, [FaultOutcome; 64]);

/// The materialized runs' accumulator: each graded chunk's index and
/// verdicts, scattered into submission order after the join.
type ChunkOutcomes = Vec<(usize, Vec<FaultOutcome>)>;

/// What the workers of one run share, created once per
/// [`CampaignState`] so every round, and every per-round scratch
/// rebuild, keeps it: the golden span store, walking in the chunk
/// plan's order, and on a descending (exhaustive) walk the verdict
/// window of the alias collapse. Each worker holds a handle of each.
#[derive(Debug)]
struct RunStores {
    bits: BitCache,
    verdicts: Option<VerdictWindow>,
}

/// The materialized faults of one campaign run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// Single-bit faults, in submission order.
    Single(FaultList),
    /// Multi-bit upsets, in submission order.
    Multi(Vec<MultiFault>),
}

impl FaultPlan {
    /// Number of faults in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FaultPlan::Single(l) => l.len(),
            FaultPlan::Multi(v) => v.len(),
        }
    }

    /// True when the plan grades nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One finished campaign: the faults, their verdicts (in submission
/// order), the pooled summary and the runtime statistics.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    faults: FaultPlan,
    outcomes: Vec<FaultOutcome>,
    summary: GradingSummary,
    stats: EngineStats,
    techniques: Vec<Technique>,
}

impl CampaignRun {
    /// The materialized faults.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The single-fault list, if this was a single-fault campaign.
    #[must_use]
    pub fn single(&self) -> Option<&FaultList> {
        match &self.faults {
            FaultPlan::Single(l) => Some(l),
            FaultPlan::Multi(_) => None,
        }
    }

    /// The multi-bit faults, if this was an MBU campaign.
    #[must_use]
    pub fn multi(&self) -> Option<&[MultiFault]> {
        match &self.faults {
            FaultPlan::Single(_) => None,
            FaultPlan::Multi(v) => Some(v),
        }
    }

    /// Per-fault verdicts, parallel to the fault plan's order.
    #[must_use]
    pub fn outcomes(&self) -> &[FaultOutcome] {
        &self.outcomes
    }

    /// Pooled classification tallies.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        &self.summary
    }

    /// What the run cost.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The techniques the plan targeted.
    #[must_use]
    pub fn techniques(&self) -> &[Technique] {
        &self.techniques
    }

    /// Consumes the run into `(fault list, outcomes)` for single-fault
    /// campaigns (`None` for MBU campaigns).
    #[must_use]
    pub fn into_single(self) -> Option<(FaultList, Vec<FaultOutcome>)> {
        match self.faults {
            FaultPlan::Single(l) => Some((l, self.outcomes)),
            FaultPlan::Multi(_) => None,
        }
    }
}

/// One finished **streamed** campaign: the pooled summary, failure map
/// and verdict digest — never the faults or per-fault outcomes, which
/// is the point (campaign memory stays `O(threads × FFs)` however large
/// the fault space).
///
/// Produced by [`Engine::try_run_streamed`].
#[derive(Clone, Debug)]
pub struct StreamedRun {
    acc: StreamAccumulator,
    stats: EngineStats,
}

impl StreamedRun {
    /// Pooled classification tallies.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        self.acc.summary()
    }

    /// Failure count per flip-flop index (the weak-area map the paper's
    /// introduction motivates); trailing never-failing flip-flops may be
    /// absent.
    #[must_use]
    pub fn failure_map(&self) -> &[usize] {
        self.acc.failure_map()
    }

    /// Order-independent fingerprint of every `(fault, verdict)` pair;
    /// compare against [`StreamAccumulator::digest_of`] over a
    /// materialized reference run to prove bit-identity without storing
    /// the streamed verdicts.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.acc.digest()
    }

    /// What the run cost.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

/// One invocation of the **resumable** streaming path: the folded sink
/// so far, the thread-count-independent chunk cursor, and whether the
/// run stopped early (cancelled or chunk-limited) or finished.
///
/// Produced by [`Engine::run_streamed_resumable_with`]. The cursor counts an
/// exact prefix of the cycle-major chunk queue, so `chunks_done`
/// identifies precisely which faults the sink has folded — the
/// invariant that lets a later invocation continue from a checkpoint
/// and land on the uninterrupted run's digest bit-for-bit.
#[derive(Clone, Debug)]
pub struct ResumableRun<A> {
    /// The folded sink — cumulative across all resumed invocations.
    pub sink: A,
    /// This invocation's cost (`faults`/`shards` are cumulative counts;
    /// `wall_ns` covers only this invocation).
    pub stats: EngineStats,
    /// Chunks completed so far (cumulative).
    pub chunks_done: usize,
    /// Total chunks in the campaign.
    pub chunks_total: usize,
    /// Faults folded so far (cumulative).
    pub faults_done: usize,
    /// Total faults in the campaign.
    pub faults_total: usize,
    /// Cursor position this invocation started from (0 for fresh runs).
    pub resumed_from: usize,
    /// True when the run stopped before the last chunk (cancellation or
    /// a chunk limit); a final checkpoint was written if one was
    /// configured.
    pub interrupted: bool,
}

impl<A> ResumableRun<A> {
    /// True when every chunk has been graded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.chunks_done == self.chunks_total
    }
}

/// Where a checkpointed campaign persists after each round, and as
/// what: the checkpoint path, the plan's fingerprint and the caller's
/// metadata.
#[derive(Debug)]
struct Persist {
    path: PathBuf,
    fingerprint: Fingerprint,
    meta: Vec<(String, String)>,
}

/// The round state of one resumable campaign: everything a run builds
/// before its first chunk, kept so later rounds pay only for grading
/// and the checkpoint write.
///
/// - the chunk plan, with the drawn sample;
/// - the fingerprint and checkpoint path (checkpointed runs only);
/// - the golden span store, seed table included, and on the exhaustive
///   walk the alias collapse's verdict window;
/// - the folded sink and the chunk cursor.
///
/// [`new`](Self::new) builds it fresh or, with
/// [`ResumeOptions::resume`], from a checkpoint;
/// [`advance`](Self::advance) grades up to [`ResumeOptions::limit`]
/// more chunks. [`Engine::run_streamed_resumable_with`] is one of each.
/// Advancing a kept state writes the same checkpoint bytes, round for
/// round, as loading the checkpoint into a fresh engine before every
/// round (`tests/resume_determinism.rs`): the span store and the
/// verdict window hold golden data and verdicts only, which change how
/// much a chunk simulates but never what it decides.
#[derive(Debug)]
pub struct CampaignState<A> {
    chunks: ChunkPlan<'static>,
    stores: RunStores,
    persist: Option<Persist>,
    sink: A,
    done: usize,
}

impl<A: PersistentSink> CampaignState<A> {
    /// Builds the state of `plan` on `engine`: draws the sample, plans
    /// the chunks and creates the run's stores. With a checkpoint path
    /// in `opts` it fingerprints the plan, and with
    /// [`ResumeOptions::resume`] it loads and verifies the checkpoint
    /// and restores its cursor and sink (the file's metadata replaces
    /// [`ResumeOptions::meta`]). Grades nothing.
    ///
    /// # Errors
    ///
    /// Checkpoint load and validation failures, MBU plans
    /// ([`EngineError::MultiSource`]), a plan for another circuit or
    /// test bench ([`EngineError::PlanMismatch`]), and `resume` without
    /// a checkpoint path ([`EngineError::ResumeWithoutCheckpoint`]).
    pub fn new(
        engine: &Engine,
        plan: &CampaignPlan<'_>,
        opts: &ResumeOptions,
    ) -> Result<Self, EngineError> {
        engine.check_plan(plan)?;
        if opts.resume && opts.checkpoint.is_none() {
            return Err(EngineError::ResumeWithoutCheckpoint);
        }
        let mut drawn = None;
        let chunks = engine.chunk_plan(plan.source(), &mut drawn)?.into_owned();
        let mut sink = A::default();
        let mut done = 0;
        // Only a checkpointed run pays for the fingerprint.
        let mut persist = None;
        if let Some(path) = &opts.checkpoint {
            let fingerprint = Fingerprint::of(plan, chunks.num_chunks(), chunks.num_faults());
            let mut meta = opts.meta.clone();
            if opts.resume {
                let ck = Checkpoint::load(path)?;
                ck.verify(&fingerprint)?;
                // The cursor must sit on a real chunk boundary of *this*
                // plan: the fingerprint pins the chunk count, not where
                // the chunks cut the fault list.
                let boundary = chunks.faults_before(ck.chunks_done());
                if ck.faults_done() != boundary {
                    return Err(ResumeError::Mismatch {
                        field: "fault cursor",
                        expected: ck.faults_done().to_string(),
                        found: boundary.to_string(),
                    }
                    .into());
                }
                done = ck.chunks_done();
                sink = ck.restore_sink::<A>()?;
                meta = ck.meta().to_vec();
            }
            persist = Some(Persist { path: path.clone(), fingerprint, meta });
        }
        let stores = engine.run_stores(plan, &chunks);
        Ok(CampaignState { chunks, stores, persist, sink, done })
    }

    /// Grades the campaign on from its cursor, through the engine's one
    /// chunk loop: up to [`ResumeOptions::limit`] chunks, in rounds of
    /// [`ResumeOptions::every`] chunks when the state checkpoints (every
    /// remaining chunk in one pool call otherwise), writing the
    /// checkpoint atomically after each round, and stopping at a chunk
    /// boundary on [`ResumeOptions::cancel`]. Reads `every`, `limit`,
    /// `cancel`, `progress` and `retry_budget` from `opts`; the
    /// checkpoint path, `resume` and `meta` were fixed by
    /// [`new`](Self::new).
    ///
    /// The returned run borrows the cumulative sink; its `stats` cover
    /// this call. After an error the cursor and sink hold every round
    /// that completed, whether or not its checkpoint was written.
    ///
    /// # Errors
    ///
    /// Checkpoint write failures, a chunk that panics on every attempt
    /// ([`EngineError::WorkerPanic`]), and an engine and plan that do not
    /// match ([`EngineError::PlanMismatch`]); they must be the engine and
    /// plan the state was built from.
    pub fn advance(
        &mut self,
        engine: &Engine,
        plan: &CampaignPlan<'_>,
        opts: &ResumeOptions,
    ) -> Result<ResumableRun<&A>, EngineError> {
        engine.check_plan(plan)?;
        let CampaignState { chunks, stores, persist, sink, done } = self;
        let total_chunks = chunks.num_chunks();
        let resumed_from = *done;
        let threads = engine.threads_for(plan, chunks.num_faults());
        let round_len = if persist.is_some() { opts.every.max(1) } else { usize::MAX };
        // A forward walk never returns to the cycles behind its cursor:
        // each round drops the spans and seeds that end before the next
        // chunk's injection cycle, so a resident state holds only what
        // is ahead.
        let mut behind = (chunks.walk() == Walk::Forward).then(|| stores.bits.clone_handle());
        let start = Instant::now();
        let interrupted = fold_chunks(
            threads,
            resumed_from..total_chunks,
            round_len,
            opts,
            sink,
            || engine.chunk_scratch(plan, stores),
            A::absorb,
            |scratch, acc: &mut A, i| {
                let (faults, out) = engine.grade_plan_chunk(chunks, scratch, i);
                for (&f, &o) in faults.iter().zip(out) {
                    acc.observe(f, o);
                }
                if let Some(hook) = &opts.progress {
                    hook.call(chunk_event(i, out));
                }
            },
            |cursor, sink| {
                *done = cursor;
                if let Some(bits) = &mut behind {
                    bits.forget_before(chunks.first_cycle(cursor).unwrap_or(usize::MAX));
                }
                match persist {
                    Some(Persist { path, fingerprint, meta }) => Checkpoint::new(
                        fingerprint.clone(),
                        cursor,
                        chunks.faults_before(cursor),
                        meta.clone(),
                        sink,
                    )
                    .write_atomic(path)
                    .map_err(EngineError::from),
                    None => Ok(()),
                }
            },
        )?;
        let faults_done = chunks.faults_before(*done);
        Ok(ResumableRun {
            stats: EngineStats {
                faults: faults_done,
                shards: *done,
                threads: threads.min(total_chunks.max(1)),
                wall_ns: start.elapsed().as_nanos(),
            },
            sink,
            chunks_done: *done,
            chunks_total: total_chunks,
            faults_done,
            faults_total: chunks.num_faults(),
            resumed_from,
            interrupted,
        })
    }
}

/// The campaign engine: a compiled simulator plus golden trace, reusable
/// across many plan executions (each [`run`](Self::run) may use a
/// different fault source or shard policy).
///
/// # Determinism
///
/// Shards are cycle-sorted 64-lane batches dispatched through a chunk
/// queue; which worker grades which shard varies run to run, but verdicts
/// depend only on the fault itself, and the engine merges per-shard
/// results back into submission order. Every `(fault source, seed)` pair
/// therefore produces **bit-identical outcomes at every thread count**,
/// equal to the independent [`Oracle`](seugrade_faultsim::Oracle)'s — a
/// property the oracle battery (`tests/engine_agreement.rs`) enforces.
#[derive(Debug)]
pub struct Engine {
    grader: Grader,
    /// Identity of the compiled circuit, kept so [`run`](Self::run) can
    /// reject plans for a *different* circuit that happens to share
    /// dimensions with this one.
    circuit_name: String,
    num_cells: usize,
}

impl Engine {
    /// Builds the runtime for a plan's circuit, test bench and
    /// golden-trace storage policy (runs the golden reference once).
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the circuit.
    #[must_use]
    pub fn new(plan: &CampaignPlan<'_>) -> Self {
        Self::for_circuit_with_policy(plan.circuit(), plan.testbench(), plan.trace_policy())
    }

    /// Builds the runtime directly from a circuit / test-bench pair,
    /// with the default golden-trace policy, [`TracePolicy::default`].
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the circuit.
    #[must_use]
    pub fn for_circuit(circuit: &Netlist, tb: &Testbench) -> Self {
        Self::for_circuit_with_policy(circuit, tb, TracePolicy::default())
    }

    /// Builds the runtime with an explicit [`TracePolicy`].
    ///
    /// Under [`TracePolicy::Checkpoint`] the engine's golden-trace
    /// memory is `O(FFs × cycles / K)`, and shards read golden values as
    /// `K`-cycle bit spans from the run's one span store; verdicts are
    /// bit-identical for every `K` and to the oracle's (the oracle
    /// battery enforces both).
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the circuit or the
    /// policy is `Checkpoint(0)`.
    #[must_use]
    pub fn for_circuit_with_policy(
        circuit: &Netlist,
        tb: &Testbench,
        policy: TracePolicy,
    ) -> Self {
        Engine {
            grader: Grader::with_policy(circuit, tb, policy),
            circuit_name: circuit.name().to_owned(),
            num_cells: circuit.num_cells(),
        }
    }

    /// The underlying grader (compiled simulator + golden trace).
    #[must_use]
    pub fn grader(&self) -> &Grader {
        &self.grader
    }

    /// Executes a plan, materializing every verdict in submission order.
    ///
    /// # Panics
    ///
    /// Panics with the error text where
    /// [`run_with_progress`](Self::run_with_progress) returns an error
    /// (a plan for another circuit or test bench, a chunk that panics on
    /// every attempt of its retry budget), and if a fault targets an
    /// out-of-range cycle or flip-flop.
    #[must_use]
    pub fn run(&self, plan: &CampaignPlan<'_>) -> CampaignRun {
        self.run_with_progress(plan, |_| {}).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes a plan, invoking `on_shard` from worker threads as each
    /// shard completes (see [`ProgressEvent`] for ordering caveats).
    ///
    /// Single-fault plans grade the same cycle-sorted 64-lane chunks as
    /// the streamed paths; MBU plans are cut into a few contiguous shards
    /// per thread, graded fault by fault with the multi-bit engine. Each
    /// shard's verdicts are kept with its index and scattered back into
    /// submission order after the join. A shard that panics — in the
    /// grader or in `on_shard` — is retried on rebuilt scratch, so the
    /// outcomes never depend on a contained panic.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanic`] when a shard panics on every attempt
    /// of its retry budget; [`EngineError::PlanMismatch`] when the plan
    /// is for another circuit or test bench.
    ///
    /// # Panics
    ///
    /// Panics if a fault targets an out-of-range cycle or flip-flop.
    pub fn run_with_progress(
        &self,
        plan: &CampaignPlan<'_>,
        on_shard: impl Fn(ProgressEvent) + Sync,
    ) -> Result<CampaignRun, EngineError> {
        self.check_plan(plan)?;
        let start = Instant::now();
        let (faults, outcomes, shards, threads) = match plan.source() {
            FaultSource::Multi(list) => {
                let threads = self.threads_for(plan, list.len());
                // A few shards per thread keeps the queue balanced without
                // making progress events too chatty.
                let shards = (threads * 4).clamp(1, list.len().max(1));
                let bounds = |i: usize| i * list.len() / shards..(i + 1) * list.len() / shards;
                let graded = collect_chunks(
                    threads,
                    shards,
                    || (),
                    |(), i| list[bounds(i)].iter().map(|f| self.grader.classify_multi(f)).collect(),
                    &on_shard,
                )?;
                let mut outcomes = vec![FaultOutcome::latent(); list.len()];
                for (i, out) in graded {
                    outcomes[bounds(i)].copy_from_slice(&out);
                }
                (FaultPlan::Multi(list.clone()), outcomes, shards, threads)
            }
            source => {
                let mut drawn = None;
                let chunks = self.chunk_plan(source, &mut drawn)?;
                let threads = self.threads_for(plan, chunks.num_faults());
                let stores = self.run_stores(plan, &chunks);
                let shards = chunks.num_chunks();
                let graded = collect_chunks(
                    threads,
                    shards,
                    || self.chunk_scratch(plan, &stores),
                    |scratch, i| self.grade_plan_chunk(&chunks, scratch, i).1.to_vec(),
                    &on_shard,
                )?;
                let mut outcomes = vec![FaultOutcome::latent(); chunks.num_faults()];
                for (i, out) in graded {
                    chunks.scatter(i, &out, &mut outcomes);
                }
                let list = match source {
                    FaultSource::List(list) => list.clone(),
                    FaultSource::Sampled { .. } => {
                        drawn.take().expect("chunk_plan drew the sample")
                    }
                    _ => FaultList::exhaustive(
                        self.grader.sim().num_ffs(),
                        self.grader.testbench().num_cycles(),
                    ),
                };
                (FaultPlan::Single(list), outcomes, shards, threads)
            }
        };
        Ok(CampaignRun {
            faults,
            summary: GradingSummary::from_outcomes(&outcomes),
            stats: EngineStats {
                faults: outcomes.len(),
                shards,
                threads: threads.min(shards.max(1)),
                wall_ns: start.elapsed().as_nanos(),
            },
            outcomes,
            techniques: plan.techniques().to_vec(),
        })
    }

    /// Executes a single-fault plan through the **memory-bounded
    /// streaming path**: chunks are pulled lazily from the cycle-major
    /// chunk plan (the exhaustive space is never materialized) and
    /// verdicts fold into per-worker [`StreamAccumulator`]s that are
    /// order-merged after the join — campaign memory is
    /// `O(threads × FFs)` on top of the golden trace, independent of
    /// `faults × cycles`.
    ///
    /// With the checkpointed golden trace ([`TracePolicy`]) this is the
    /// configuration that grades s5378-class circuits over multi-
    /// thousand-cycle benches without ever holding the campaign in RAM;
    /// the [digest](StreamedRun::digest) proves the verdicts
    /// bit-identical to the materialized run's and the oracle's.
    ///
    /// This is [`run_streamed_resumable_with`](Self::run_streamed_resumable_with)
    /// over a [`StreamAccumulator`] with default options (no checkpoint,
    /// so every chunk goes to the pool in one call). It stays a separate
    /// entry point because the benchmark harness (`gradebench/`) calls it
    /// by this name.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanic`] when a chunk panics on every attempt
    /// of its retry budget; [`EngineError::MultiSource`] for an MBU plan;
    /// [`EngineError::PlanMismatch`] for a plan of another circuit or
    /// test bench.
    pub fn try_run_streamed(
        &self,
        plan: &CampaignPlan<'_>,
    ) -> Result<StreamedRun, EngineError> {
        let run = self.run_streamed_resumable_with(plan, &ResumeOptions::default())?;
        Ok(StreamedRun { acc: run.sink, stats: run.stats })
    }

    /// The **interruption-safe** streaming path with a caller-supplied
    /// [`PersistentSink`]: grades in rounds of [`ResumeOptions::every`]
    /// chunks, persisting an atomic checkpoint (fingerprint + chunk
    /// cursor + folded sink) after every round, and stopping cleanly at
    /// chunk boundaries on cancellation or a chunk limit. With
    /// [`ResumeOptions::resume`] the campaign continues from the
    /// checkpoint's cursor instead of starting over — completed chunks
    /// are skipped arithmetically, never re-graded. Without a checkpoint
    /// path the run is still cancellable, limitable and panic-contained,
    /// and grades every remaining chunk in one pool call.
    ///
    /// Because completed chunks always form an exact queue prefix and
    /// the sink is order-insensitive, any interleaving of interruptions
    /// and resumes reproduces the uninterrupted run's digest exactly, at
    /// every thread count and trace policy.
    ///
    /// This is [`CampaignState::new`] followed by one
    /// [`CampaignState::advance`]: every call draws the sample, loads
    /// the checkpoint and starts a cold span store. A caller that grades
    /// one campaign in many rounds keeps the state instead. The
    /// benchmark harness (`gradebench/`) calls this entry point by this
    /// name.
    ///
    /// # Errors
    ///
    /// Checkpoint load, validation and write failures, a chunk that
    /// panics on every attempt ([`EngineError::WorkerPanic`]), MBU plans
    /// ([`EngineError::MultiSource`]), a plan of another circuit or
    /// test bench ([`EngineError::PlanMismatch`]), and `resume` without
    /// a checkpoint path ([`EngineError::ResumeWithoutCheckpoint`]).
    pub fn run_streamed_resumable_with<A: PersistentSink>(
        &self,
        plan: &CampaignPlan<'_>,
        opts: &ResumeOptions,
    ) -> Result<ResumableRun<A>, EngineError> {
        let mut state = CampaignState::new(self, plan, opts)?;
        let ResumableRun {
            stats,
            chunks_done,
            chunks_total,
            faults_done,
            faults_total,
            resumed_from,
            interrupted,
            ..
        } = state.advance(self, plan, opts)?;
        Ok(ResumableRun {
            sink: state.sink,
            stats,
            chunks_done,
            chunks_total,
            faults_done,
            faults_total,
            resumed_from,
            interrupted,
        })
    }

    /// Rejects plans built for a different circuit or test bench.
    fn check_plan(&self, plan: &CampaignPlan<'_>) -> Result<(), EngineError> {
        if plan.testbench() != self.grader.testbench() {
            return Err(EngineError::PlanMismatch { field: "test bench" });
        }
        if plan.circuit().name() != self.circuit_name
            || plan.circuit().num_cells() != self.num_cells
            || plan.circuit().num_ffs() != self.grader.sim().num_ffs()
        {
            return Err(EngineError::PlanMismatch { field: "circuit" });
        }
        Ok(())
    }

    /// The cycle-major chunk plan of a single-fault source. The
    /// exhaustive space chunks arithmetically (its submission order is
    /// already cycle-major); an explicit list is borrowed, and a sample is
    /// drawn into `drawn` (the drawn faults only, never the whole space);
    /// both are counting-sorted by cycle. A [`FaultSource::Multi`] source
    /// is [`EngineError::MultiSource`]: MBUs have no chunk plan.
    fn chunk_plan<'a>(
        &self,
        source: &'a FaultSource,
        drawn: &'a mut Option<FaultList>,
    ) -> Result<ChunkPlan<'a>, EngineError> {
        let num_ffs = self.grader.sim().num_ffs();
        let num_cycles = self.grader.testbench().num_cycles();
        Ok(match source {
            FaultSource::Exhaustive => ChunkPlan::exhaustive(num_ffs, num_cycles),
            FaultSource::Sampled { count, seed } => {
                let sample = drawn.insert(FaultList::sampled(num_ffs, num_cycles, *count, *seed));
                ChunkPlan::ordered(sample.as_slice(), num_cycles)
            }
            FaultSource::List(list) => ChunkPlan::ordered(list.as_slice(), num_cycles),
            FaultSource::Multi(list) => {
                return Err(EngineError::MultiSource { faults: list.len() })
            }
        })
    }

    /// Worker count for a run of `num_faults` faults.
    fn threads_for(&self, plan: &CampaignPlan<'_>, num_faults: usize) -> usize {
        let threads = plan.policy().resolved_threads().max(1);
        if num_faults < plan.policy().serial_below {
            1
        } else {
            threads
        }
    }

    /// The stores the workers of a run over `chunks` share: one golden
    /// span store for the whole pool, so a span is replayed once per
    /// run, not once per worker, and on the exhaustive plan's descending
    /// walk one verdict window (`O(FFs)`), so a lane can inherit the
    /// verdict of an upset another worker graded.
    fn run_stores(&self, plan: &CampaignPlan<'_>, chunks: &ChunkPlan<'_>) -> RunStores {
        let walk = chunks.walk();
        RunStores {
            bits: BitCache::new(plan.window_cache()).walking(walk),
            verdicts: (walk == Walk::Backward)
                .then(|| VerdictWindow::new(self.grader.sim().num_ffs())),
        }
    }

    /// A worker's grading scratch, configured from the plan's kernel,
    /// holding handles of the run's shared `stores` (its own span cache,
    /// left empty, is replaced by the run's). Cheap to rebuild — the
    /// pool recreates it after a contained worker panic.
    fn worker_scratch(&self, plan: &CampaignPlan<'_>, stores: &RunStores) -> GradeScratch {
        let scratch = self
            .grader
            .new_scratch(Collapse::Early, 0)
            .with_kernel(plan.kernel())
            .with_bit_cache(stores.bits.clone_handle());
        match &stores.verdicts {
            Some(window) => scratch.with_verdict_window(window.clone()),
            None => scratch,
        }
    }

    /// A single-fault worker's scratch: the grader's scratch, the chunk
    /// fault buffer, and the 64-lane outcome array.
    fn chunk_scratch(&self, plan: &CampaignPlan<'_>, stores: &RunStores) -> ChunkScratch {
        (
            self.worker_scratch(plan, stores),
            Vec::with_capacity(64),
            [FaultOutcome::latent(); 64],
        )
    }

    /// Grades chunk `i` of `chunks` in the worker's scratch and returns
    /// the chunk's faults with their verdicts.
    fn grade_plan_chunk<'s>(
        &self,
        chunks: &ChunkPlan<'_>,
        (st, buf, out): &'s mut ChunkScratch,
        i: usize,
    ) -> (&'s [Fault], &'s [FaultOutcome]) {
        chunks.fill(i, buf);
        let out = &mut out[..buf.len()];
        self.grader.grade_chunk(st, buf, out);
        (buf, out)
    }
}

/// The progress event of chunk `shard`, graded to `out`.
fn chunk_event(shard: usize, out: &[FaultOutcome]) -> ProgressEvent {
    ProgressEvent { shard, faults: out.len(), summary: GradingSummary::from_outcomes(out) }
}

/// Grades `shards` shards through the campaign loop in one pool call,
/// reporting each to `on_shard`, and returns every shard's verdicts
/// tagged with its index — the accumulator of the materialized runs.
fn collect_chunks<S: Send>(
    threads: usize,
    shards: usize,
    init: impl Fn() -> S + Sync,
    grade: impl Fn(&mut S, usize) -> Vec<FaultOutcome> + Sync,
    on_shard: &(impl Fn(ProgressEvent) + Sync),
) -> Result<ChunkOutcomes, EngineError> {
    let mut graded = ChunkOutcomes::new();
    fold_chunks(
        threads,
        0..shards,
        usize::MAX,
        &ResumeOptions::default(),
        &mut graded,
        init,
        |a: &mut ChunkOutcomes, b| a.append(b),
        |scratch, acc, i| {
            let out = grade(scratch, i);
            on_shard(chunk_event(i, &out));
            acc.push((i, out));
        },
        |_, _| Ok(()),
    )?;
    Ok(graded)
}

/// The campaign loop, and the only caller of the pool: grades the chunk
/// range `chunks` on `threads` workers in rounds of `round_len` chunks,
/// folding each chunk into a per-worker accumulator that `merge` drains
/// into `acc` after every round. `merge(dst, src)` moves `src`'s fold
/// into `dst` and leaves `src` empty; the pool also uses it to drain
/// each chunk's fold into its worker's accumulator.
///
/// `persist` runs with the cursor and `acc` after every round, and once
/// when no chunk completes, so even a zero-round invocation leaves its
/// checkpoint behind. The loop stops at a chunk boundary on
/// cancellation or once `opts.limit` chunks are done. Returns whether
/// the run stopped before the last chunk.
#[allow(clippy::too_many_arguments)]
fn fold_chunks<S: Send, A: Default + Send>(
    threads: usize,
    chunks: Range<usize>,
    round_len: usize,
    opts: &ResumeOptions,
    acc: &mut A,
    init: impl Fn() -> S + Sync,
    merge: impl Fn(&mut A, &mut A) + Sync,
    work: impl Fn(&mut S, &mut A, usize) + Sync,
    mut persist: impl FnMut(usize, &A) -> Result<(), EngineError>,
) -> Result<bool, EngineError> {
    let ctl = FoldControl { cancel: opts.cancel.as_ref(), retry_budget: opts.retry_budget };
    let cancelled = || opts.cancel.as_ref().is_some_and(crate::cancel::CancelToken::is_cancelled);
    let mut done = chunks.start;
    let mut interrupted = false;
    while done < chunks.end {
        let budget = opts.limit.map_or(usize::MAX, |l| l.saturating_sub(done - chunks.start));
        if budget == 0 || cancelled() {
            interrupted = true;
            break;
        }
        let round = round_len.min(chunks.end - done).min(budget);
        let base = done;
        let status = run_folded_ctl(
            round,
            threads,
            &init,
            A::default,
            &merge,
            |scratch, a: &mut A, i| work(scratch, a, base + i),
            &ctl,
        )?;
        for mut a in status.accs {
            merge(acc, &mut a);
        }
        done += status.completed;
        interrupted = status.completed < round;
        persist(done, acc)?;
        if interrupted {
            break;
        }
    }
    if done == chunks.start {
        persist(done, acc)?;
    }
    Ok(interrupted)
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::{generators, registry};
    use seugrade_faultsim::{Fault, FaultClass, Oracle};

    use crate::plan::ShardPolicy;
    use crate::progress::ProgressCounter;
    use super::*;

    #[test]
    fn exhaustive_matches_the_oracle_at_every_thread_count() {
        let circuit = registry::build("b03s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 25, 3);
        let faults = FaultList::exhaustive(circuit.num_ffs(), 25);
        let oracle = Oracle::new(&circuit, &tb).run(faults.as_slice());
        for threads in [1, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = plan.execute();
            assert_eq!(run.outcomes(), oracle.as_slice(), "{threads} threads");
            assert_eq!(run.summary(), &GradingSummary::from_outcomes(&oracle));
            assert_eq!(run.stats().threads, threads.min(run.stats().shards.max(1)));
        }
    }

    #[test]
    fn worker_count_is_capped_at_shard_count() {
        let circuit = generators::counter(2);
        let tb = Testbench::constant_low(0, 4); // 8 faults -> 4 same-cycle shards
        let plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy::with_threads(8))
            .build();
        let run = plan.execute();
        assert_eq!(run.stats().shards, 4);
        assert_eq!(run.stats().threads, 4, "stats report actual workers, not the request");
    }

    #[test]
    fn sampled_runs_are_seed_deterministic() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 30, 11);
        let engine = Engine::for_circuit(&circuit, &tb);
        let a = engine.run(
            &CampaignPlan::builder(&circuit, &tb).sampled(50, 23).threads(4).build(),
        );
        let b = engine.run(&CampaignPlan::builder(&circuit, &tb).sampled(50, 23).build());
        assert_eq!(a.single(), b.single(), "same sample whatever the policy");
        assert_eq!(a.outcomes(), b.outcomes());
        assert_eq!(a.single().unwrap().len(), 50);
    }

    #[test]
    fn explicit_list_roundtrips_in_submission_order() {
        let circuit = generators::shift_register(6);
        let tb = Testbench::random(1, 15, 3);
        // A deliberately shuffled (reverse cycle-major) list.
        let mut faults: Vec<Fault> = FaultList::exhaustive(6, 15).iter().collect();
        faults.reverse();
        let list = FaultList::from_faults(faults.clone(), 6, 15);
        let oracle = Oracle::new(&circuit, &tb).run(&faults);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(list)
            .policy(ShardPolicy::with_threads(3))
            .build();
        let run = plan.execute();
        assert_eq!(run.outcomes(), oracle.as_slice());
    }

    #[test]
    fn multi_fault_campaign_matches_the_oracle() {
        let circuit = generators::lfsr(6, &[5, 2]);
        let tb = Testbench::constant_low(0, 12);
        let faults = MultiFault::adjacent_pairs(6, 12, 2);
        let oracle = Oracle::new(&circuit, &tb).run_multi(&faults);
        for threads in [1, 3] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .multi(faults.clone())
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = plan.execute();
            assert_eq!(run.outcomes(), oracle.as_slice(), "{threads} threads");
            assert_eq!(run.multi().unwrap().len(), faults.len());
            assert!(run.single().is_none());
        }
    }

    #[test]
    fn progress_events_cover_every_fault_exactly_once() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 20, 5);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy::with_threads(2))
            .build();
        let counter = ProgressCounter::new();
        let run = Engine::new(&plan).run_with_progress(&plan, |e| counter.observe(&e)).unwrap();
        assert_eq!(counter.faults_done(), run.faults().len());
        assert_eq!(counter.shards_done(), run.stats().shards);
    }

    #[test]
    fn serial_below_forces_inline_execution() {
        let circuit = generators::counter(3);
        let tb = Testbench::constant_low(0, 6);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy { threads: 8, serial_below: 1_000 })
            .build();
        let run = plan.execute();
        assert_eq!(run.stats().threads, 1, "18 faults < serial_below");
        assert_eq!(run.summary().count(FaultClass::Failure), run.faults().len());
    }

    #[test]
    fn empty_campaign_is_fine() {
        let circuit = generators::counter(2);
        let tb = Testbench::constant_low(0, 4);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(FaultList::from_faults(Vec::new(), 2, 4))
            .build();
        let run = plan.execute();
        assert!(run.outcomes().is_empty());
        assert_eq!(run.stats().shards, 0);
        assert_eq!(run.summary().total(), 0);
    }

    #[test]
    fn engine_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<CampaignRun>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<EngineStats>();
        assert_send_sync::<StreamedRun>();
    }

    #[test]
    fn streamed_run_matches_materialized_at_every_thread_count() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 24, 7);
        let engine = Engine::for_circuit(&circuit, &tb);
        let reference = engine.run(&CampaignPlan::builder(&circuit, &tb).build());
        let ref_digest = StreamAccumulator::digest_of(
            reference.single().unwrap().as_slice(),
            reference.outcomes(),
        );
        for threads in [1, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(crate::ShardPolicy::with_threads(threads))
                .build();
            let streamed = engine.try_run_streamed(&plan).unwrap();
            assert_eq!(streamed.summary(), reference.summary(), "{threads} threads");
            assert_eq!(streamed.digest(), ref_digest, "{threads} threads");
            assert_eq!(streamed.stats().faults, reference.faults().len());
            assert_eq!(streamed.stats().shards, reference.stats().shards);
        }
        // Failure map agrees with the grader's materialized one.
        let map = engine
            .grader()
            .failure_map(reference.single().unwrap().as_slice(), reference.outcomes());
        let plan = CampaignPlan::builder(&circuit, &tb).build();
        let streamed = engine.try_run_streamed(&plan).unwrap();
        assert_eq!(&map[..streamed.failure_map().len()], streamed.failure_map());
        assert!(map[streamed.failure_map().len()..].iter().all(|&c| c == 0));
    }

    #[test]
    fn streamed_sampled_and_list_sources_agree_with_run() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 20, 3);
        let engine = Engine::for_circuit(&circuit, &tb);
        for source in [
            FaultSource::Sampled { count: 50, seed: 23 },
            FaultSource::List(FaultList::sampled(circuit.num_ffs(), 20, 30, 5)),
        ] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .source(source)
                .threads(3)
                .build();
            let run = engine.run(&plan);
            let streamed = engine.try_run_streamed(&plan).unwrap();
            assert_eq!(streamed.summary(), run.summary());
            assert_eq!(
                streamed.digest(),
                StreamAccumulator::digest_of(run.single().unwrap().as_slice(), run.outcomes())
            );
        }
    }

    #[test]
    fn streamed_multi_source_rejected() {
        let circuit = generators::counter(3);
        let tb = Testbench::constant_low(0, 6);
        let faults = MultiFault::adjacent_pairs(3, 6, 2);
        let plan = CampaignPlan::builder(&circuit, &tb).multi(faults.clone()).build();
        let engine = Engine::new(&plan);
        let expected = EngineError::MultiSource { faults: faults.len() };
        assert_eq!(engine.try_run_streamed(&plan).unwrap_err(), expected);
        let resumable = engine
            .run_streamed_resumable_with::<StreamAccumulator>(&plan, &ResumeOptions::default());
        assert_eq!(resumable.unwrap_err(), expected);
        // MBU plans grade through the materialized path.
        assert_eq!(engine.run(&plan).outcomes().len(), faults.len());
    }

    #[test]
    fn materialized_runs_contain_worker_panics() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 20, 9);
        let mut oracle = Oracle::new(&circuit, &tb);
        let faults = FaultList::exhaustive(circuit.num_ffs(), 20);
        let single_verdicts = oracle.run(faults.as_slice());
        let multi = MultiFault::adjacent_pairs(circuit.num_ffs(), 20, 2);
        let multi_verdicts = oracle.run_multi(&multi);
        let engine = Engine::for_circuit(&circuit, &tb);
        for threads in [1, 4] {
            for (source, reference) in [
                (FaultSource::Exhaustive, &single_verdicts),
                (FaultSource::Multi(multi.clone()), &multi_verdicts),
            ] {
                let plan = CampaignPlan::builder(&circuit, &tb)
                    .source(source)
                    .policy(ShardPolicy::with_threads(threads))
                    .build();
                // The callback panics once, on shard 2: the shard is
                // retried and the verdicts are still the oracle's.
                let first = std::sync::atomic::AtomicBool::new(true);
                let run = engine
                    .run_with_progress(&plan, |e| {
                        if e.shard == 2 && first.swap(false, std::sync::atomic::Ordering::SeqCst) {
                            panic!("injected progress failure");
                        }
                    })
                    .expect("a panic that clears on retry is contained");
                assert!(!first.into_inner(), "{threads} threads: the panic fired");
                assert_eq!(run.outcomes(), reference.as_slice(), "{threads} threads");
                // A callback that always panics exhausts the retry budget.
                let err = engine
                    .run_with_progress(&plan, |e| assert!(e.shard != 1, "always-fatal shard"))
                    .unwrap_err();
                assert!(
                    matches!(err, EngineError::WorkerPanic { chunk: 1, .. }),
                    "{threads} threads: {err}"
                );
            }
        }
    }

    #[test]
    fn only_the_exhaustive_walk_aliases() {
        let circuit = registry::build("b13s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 40, 3);
        let engine = Engine::for_circuit(&circuit, &tb);
        // One worker's scratch over every chunk of the plan, as the
        // campaign loop builds and drives it; returns its alias counters.
        let counters = |source: FaultSource| {
            let plan = CampaignPlan::builder(&circuit, &tb).source(source).threads(1).build();
            let mut drawn = None;
            let chunks = engine.chunk_plan(plan.source(), &mut drawn).unwrap();
            let stores = engine.run_stores(&plan, &chunks);
            let mut scratch = engine.chunk_scratch(&plan, &stores);
            for i in 0..chunks.num_chunks() {
                let _ = engine.grade_plan_chunk(&chunks, &mut scratch, i);
            }
            (scratch.0.aliased_lanes(), scratch.0.alias_misses())
        };
        // One worker walking the cycles downwards finds every upset it
        // looks up.
        let (aliased, misses) = counters(FaultSource::Exhaustive);
        assert!(aliased > 0, "no lane aliased");
        assert_eq!(misses, 0);
        // Ordered plans walk forward without a window.
        assert_eq!(counters(FaultSource::Sampled { count: 300, seed: 5 }), (0, 0));
        let list = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
        assert_eq!(counters(FaultSource::List(list)), (0, 0));
    }

    #[test]
    fn streamed_empty_campaign_is_fine() {
        let circuit = generators::counter(2);
        let tb = Testbench::constant_low(0, 4);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(FaultList::from_faults(Vec::new(), 2, 4))
            .build();
        let run = Engine::new(&plan).try_run_streamed(&plan).unwrap();
        assert_eq!(run.summary().total(), 0);
        assert_eq!(run.digest(), 0);
        assert_eq!(run.stats().shards, 0);
    }

    /// Grades `plan` on `engine` through every entry point and checks
    /// that each rejects it with `PlanMismatch { field }`, and that `run`
    /// panics with the same text.
    fn assert_mismatch(engine: &Engine, plan: &CampaignPlan<'_>, field: &'static str) {
        let expected = EngineError::PlanMismatch { field };
        assert_eq!(engine.run_with_progress(plan, |_| {}).unwrap_err(), expected);
        assert_eq!(engine.try_run_streamed(plan).unwrap_err(), expected);
        let opts = ResumeOptions::default();
        let state = CampaignState::<StreamAccumulator>::new(engine, plan, &opts);
        assert_eq!(state.unwrap_err(), expected);
        let panic = std::panic::catch_unwind(|| engine.run(plan)).unwrap_err();
        let text = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(*text, expected.to_string());
    }

    #[test]
    fn mismatched_plan_rejected() {
        let c1 = generators::counter(2);
        let tb1 = Testbench::constant_low(0, 4);
        let tb2 = Testbench::constant_low(0, 9);
        let engine = Engine::for_circuit(&c1, &tb1);
        let plan = CampaignPlan::builder(&c1, &tb2).build();
        assert_mismatch(&engine, &plan, "test bench");
    }

    #[test]
    fn same_shape_different_stimuli_rejected() {
        // Same width and cycle count, different input vectors: grading
        // against the wrong golden trace must not happen silently.
        let circuit = generators::shift_register(4);
        let tb1 = Testbench::random(1, 10, 1);
        let tb2 = Testbench::random(1, 10, 2);
        let engine = Engine::for_circuit(&circuit, &tb1);
        let plan = CampaignPlan::builder(&circuit, &tb2).build();
        assert_mismatch(&engine, &plan, "test bench");
    }

    #[test]
    fn different_circuit_with_same_dimensions_rejected() {
        // Both circuits: 0 inputs, 4 flip-flops — dimensions alone would
        // not catch the swap.
        let c1 = generators::counter(4);
        let c2 = generators::lfsr(4, &[3, 2]);
        let tb = Testbench::constant_low(0, 8);
        let engine = Engine::for_circuit(&c1, &tb);
        let plan = CampaignPlan::builder(&c2, &tb).build();
        assert_mismatch(&engine, &plan, "circuit");
    }
}
