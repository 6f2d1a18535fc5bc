//! `seugrade-engine` — the sharded, multi-threaded campaign runtime.
//!
//! The paper's core argument is that fault grading must be *fast at
//! campaign scale*: autonomous emulation removes the per-fault host
//! bottleneck and grades all 34,400 b14 faults in bulk. This crate is the
//! software analogue of that move for the workspace's own engines — where
//! [`Grader`](seugrade_faultsim::Grader) runs one fault list on one core,
//! this runtime shards a campaign into cycle-sorted 64-lane batches,
//! dispatches them across a home-grown chunk-queue thread pool
//! (`std::thread::scope`, no external dependencies), and merges the
//! per-shard verdicts **deterministically**: every thread count produces
//! bit-identical outcomes, equal to those of the independent
//! [`Oracle`](seugrade_faultsim::Oracle) (`tests/engine_agreement.rs`).
//!
//! Like the paper's autonomous controller, the engine has **one campaign
//! loop**: materialized, streamed, resumable and MBU runs all grade
//! through it, and differ only in what each chunk folds into. Four entry
//! points sit on top: [`Engine::run`] and [`Engine::run_with_progress`]
//! (every verdict, in submission order), [`Engine::try_run_streamed`]
//! (summary, failure map and digest only) and
//! [`Engine::run_streamed_resumable_with`] (checkpoints, cancellation,
//! chunk limits, any [`PersistentSink`]). The last is a
//! [`CampaignState`] built and advanced once; a caller that grades one
//! campaign in many rounds (the serve daemon) keeps the state, with its
//! drawn sample, span store and folded sink, and advances it per round.
//! Every entry point contains worker panics the same way.
//!
//! | module | role |
//! |--------|------|
//! | [`plan`] | [`CampaignPlan`] builder: circuit × test bench × fault source × techniques × [`ShardPolicy`] × `TracePolicy` |
//! | [`runtime`] | [`Engine`]: the one chunk loop and its entry points; [`CampaignState`], a resumable campaign's round state; [`CampaignRun`] / [`StreamedRun`] / [`ResumableRun`] results |
//! | [`stream`] | cycle-major chunk plans (the exhaustive one last cycle first) and online [`VerdictSink`]s — the memory-bounded campaign core |
//! | [`resume`] | `seugrade-campaign-ckpt/v3` checkpoints, [`Fingerprint`] verification, [`PersistentSink`] — the interruption-safety layer |
//! | [`error`] | [`EngineError`]: structured failures (worker panics, checkpoint problems, MBU plans on streamed entries) |
//! | [`cancel`] | [`CancelToken`]: cooperative chunk-boundary cancellation |
//! | [`progress`] | per-shard [`ProgressEvent`]s, [`ProgressCounter`], [`EngineStats`] |
//!
//! # Example
//!
//! ```
//! use seugrade_circuits::generators;
//! use seugrade_engine::{CampaignPlan, ShardPolicy};
//! use seugrade_sim::Testbench;
//!
//! let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
//! let tb = Testbench::constant_low(0, 20);
//! let plan = CampaignPlan::builder(&circuit, &tb)
//!     .policy(ShardPolicy::with_threads(2))
//!     .build();
//! let run = plan.execute();
//! assert_eq!(run.summary().total(), 8 * 20);
//! println!("{}", run.stats());
//! ```
//!
//! # Determinism guarantees
//!
//! Fault verdicts depend only on the fault itself (a property the
//! bit-parallel engine already has: lanes are independent), so the only
//! thing scheduling can change is *order*. The runtime pins order down
//! in the accumulator each chunk folds into: materialized runs tag every
//! chunk's verdicts with its queue index and scatter them back into
//! submission order after the join; streamed runs fold into
//! order-insensitive [`VerdictSink`]s. Completed chunks always form an
//! exact queue prefix, so a resume cursor means the same at every
//! thread count. A chunk that panics is retried on rebuilt scratch with
//! its partial fold discarded, so a contained panic cannot change a
//! verdict either.
//!
//! An exhaustive run walks its cycles downwards and shares one
//! [`VerdictWindow`](seugrade_faultsim::VerdictWindow) among its
//! workers: a lane that has become the single-bit upset of one
//! flip-flop a cycle or two after its injection takes that upset's
//! verdict, graded by whichever worker got there first (the alias
//! collapse, see [`Grader::grade_chunk`](seugrade_faultsim::Grader::grade_chunk)).
//! Whether a lookup hits depends on timing, but a miss only means the
//! lane keeps simulating to the same verdict. Progress events and the
//! alias counters are the observables that *do* vary run to run —
//! events fire as shards finish.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod error;
pub mod plan;
mod pool;
pub mod progress;
pub mod resume;
pub mod runtime;
pub mod stream;

pub use cancel::CancelToken;
pub use error::EngineError;
pub use plan::{CampaignPlan, CampaignPlanBuilder, FaultSource, ShardPolicy, Technique};
pub use progress::{EngineStats, ProgressCounter, ProgressEvent, ProgressHook};
pub use resume::{
    Checkpoint, Fingerprint, PersistentSink, ResumeError, ResumeOptions, CKPT_SCHEMA,
    DEFAULT_CHECKPOINT_EVERY,
};
pub use runtime::{CampaignRun, CampaignState, Engine, FaultPlan, ResumableRun, StreamedRun};
pub use stream::{StreamAccumulator, VerdictSink};
