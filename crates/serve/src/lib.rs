//! `seugrade-serve` — campaign grading as a service.
//!
//! A dependency-free daemon that accepts SEU campaign jobs over
//! line-delimited JSON on a plain [`std::net::TcpListener`], multiplexes
//! any number of concurrent campaigns over one shared worker pool, and
//! streams per-chunk progress events to subscribed clients. The wire
//! grammar (`seugrade-serve/v1`) is documented normatively in
//! `docs/PROTOCOL.md`.
//!
//! # Architecture
//!
//! ```text
//! client ──JSON lines──▶ Server (accept loop, one thread/conn)
//!                           │ submit/status/cancel/resume/stream
//!                           ▼
//!                        Scheduler (job queue + N workers)
//!                           │ one round (spec.round chunks) at a time,
//!                           │ re-enqueue (job, engine) until complete —
//!                           │ round-robin; one engine per job, built once
//!                           ▼
//!                        Engine::run_streamed_resumable  (CampaignSink)
//!                           │ per-chunk ProgressHook ──▶ Job::broadcast
//!                           ▼
//!                        Spool  <spool>/j<N>/{job.json, job.ckpt, result.json}
//! ```
//!
//! Three invariants carry the whole design:
//!
//! 1. **Determinism** — a job graded through the daemon (any worker
//!    count, any number of co-tenants, any number of cancel/resume or
//!    daemon-restart interruptions) produces a verdict digest
//!    bit-identical to the same spec graded solo, because every round
//!    replays the same [`CampaignPlan`](seugrade_engine::CampaignPlan)
//!    and the checkpoint fingerprint pins the configuration.
//! 2. **Durability** — every spool write is atomic (temp + rename); a
//!    daemon restart rescans the spool and resumes every incomplete job
//!    from its checkpoint cursor.
//! 3. **Hostility tolerance** — malformed, truncated or oversized
//!    request lines get structured line-numbered error responses; they
//!    never panic the daemon or wedge shutdown (connection reads
//!    poll, and shutdown wakes the blocked accept itself).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod json;
pub mod proto;
mod scheduler;
pub mod server;
pub mod spool;

pub use client::{Client, ClientError};
pub use job::{build_plan, Job, JobState, JobStatus};
pub use proto::{CircuitSource, JobSpec, ProtoError, Request, SERVE_SCHEMA};
pub use server::{Server, ServerConfig, DEFAULT_ADDR, DEFAULT_WORKERS, MAX_REQUEST_BYTES};
pub use spool::{Spool, SpooledJob};

use seugrade_emulation::CampaignSink;
use seugrade_engine::Engine;
use seugrade_faultsim::GradingSummary;

/// Grades a spec solo — one engine, no daemon, no spool — and returns
/// the `(digest, summary)` every multiplexed run of the same spec must
/// reproduce bit-for-bit. This is the oracle the determinism suites and
/// the serve benchmark compare against.
///
/// # Errors
///
/// Propagates spec-validation failures (unknown circuit, import error).
pub fn reference_run(spec: &JobSpec) -> Result<(u64, GradingSummary), String> {
    let job = Job::build("ref".to_owned(), spec.clone())?;
    let plan = build_plan(&job.spec, &job.circuit, &job.testbench);
    let engine = Engine::new(&plan);
    let run = engine
        .run_streamed_resumable_with::<CampaignSink>(
            &plan,
            &seugrade_engine::ResumeOptions::default(),
        )
        .map_err(|e| format!("reference run: {e}"))?;
    Ok((run.sink.digest(), run.sink.summary().clone()))
}
