//! The job queue and the shared worker pool.
//!
//! N daemon workers multiplex any number of campaigns by grading in
//! **rounds**: a worker pops a job, advances its [`CampaignState`] by
//! [`JobSpec::round`] chunks — the engine's one chunk loop, which writes
//! the job's spooled checkpoint atomically at the round boundary — and
//! re-enqueues the job at the back of the queue if chunks remain —
//! round-robin fairness across tenants over one pool. Determinism
//! holds because completed chunks always form an exact queue prefix
//! and the sink digest is order-independent: any interleaving of
//! rounds, workers, daemon restarts and resumes reproduces the solo
//! one-shot digest bit-for-bit (`tests/serve_determinism.rs`).
//!
//! Each job's round state is built once, on the job's first round in
//! this daemon life, and travels with the job's queue entry from round
//! to round: its [`Engine`] (compiled simulator, test bench and golden
//! trace) and, beside it, its [`CampaignState`] (drawn sample, resume
//! fingerprint, golden span store with its seed table, folded
//! [`CampaignSink`] and chunk cursor). Only the per-round plan borrows
//! the job's circuit and bench, and it is rebuilt each round for next
//! to nothing. A job that finishes, fails, is cancelled or is stopped
//! by a daemon shutdown leaves the queue, and its state is dropped with
//! the entry; `resume` and a daemon restart enqueue the job without
//! one, so its next round builds a fresh engine and loads the spooled
//! checkpoint. Resident states are therefore exactly the live jobs that
//! have graded a round. They are not shared between jobs:
//! `JobSpec::seed` seeds both the test bench and the sample, so only
//! identical resubmissions could share one.
//!
//! What a round still pays on top of grading: the atomic checkpoint
//! write, and the hand-over of its event lines. The progress hook
//! queues each chunk's event line on the job
//! ([`Job::queue_chunk_line`]); queued lines reach the subscribers as
//! one channel send, and so as one socket write, after a chunk once
//! 25 ms have passed since the job's last hand-over, and at the end of
//! the round together with the `state` or terminal line.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use seugrade_emulation::controller::TimingConfig;
use seugrade_emulation::CampaignSink;
use seugrade_engine::{CampaignState, Engine, ProgressHook, ResumeOptions};
use seugrade_faultsim::GradingSummary;

use crate::job::{build_plan, Job, JobState, JobStatus};
use crate::json::Value;
use crate::proto::{self, JobSpec};
use crate::spool::Spool;

/// A job's resident round state, built by its first round in this
/// daemon life: the engine, and beside it the campaign state its rounds
/// advance (drawn sample, fingerprint, span store, folded sink and
/// chunk cursor).
struct Resident {
    engine: Engine,
    state: CampaignState<CampaignSink>,
}

/// One queue entry: a job plus its resident state, once a round has
/// built it.
type Entry = (Arc<Job>, Option<Resident>);

/// The queue, registry and pool shared by workers and connections.
pub(crate) struct SchedCore {
    queue: Mutex<VecDeque<Entry>>,
    queue_cv: Condvar,
    jobs: Mutex<Vec<Arc<Job>>>,
    next_id: AtomicU64,
    spool: Spool,
    stopping: AtomicBool,
}

/// The scheduler: owns the worker threads and the shared core.
pub(crate) struct Scheduler {
    core: Arc<SchedCore>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Scans the spool, rebuilds every spooled job (terminal ones as
    /// history, incomplete ones back onto the queue), and starts
    /// `workers` pool threads.
    pub(crate) fn start(spool: Spool, workers: usize) -> io::Result<Scheduler> {
        let scheduler = Self::open(spool)?;
        let handles = (0..workers.max(1))
            .map(|_| {
                let core = Arc::clone(&scheduler.core);
                thread::spawn(move || worker_loop(&core))
            })
            .collect();
        *scheduler.workers.lock().expect("workers lock") = handles;
        Ok(scheduler)
    }

    /// The spool scan of [`start`](Self::start), with no worker threads.
    fn open(spool: Spool) -> io::Result<Scheduler> {
        let core = Arc::new(SchedCore {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            spool,
            stopping: AtomicBool::new(false),
        });
        let mut max_num = 0;
        for spooled in core.spool.scan()? {
            max_num = max_num.max(spooled.num);
            let job = match Job::build(spooled.id.clone(), spooled.spec) {
                Ok(job) => Arc::new(job),
                Err(e) => {
                    eprintln!("spool: cannot rebuild {}: {e}", spooled.id);
                    continue;
                }
            };
            if let Some(result) = &spooled.result {
                restore_terminal_status(&job, result);
            } else {
                // Incomplete: the round loop resumes from job.ckpt if
                // one exists (fresh otherwise) — enqueue and go.
                core.queue.lock().expect("queue lock").push_back((Arc::clone(&job), None));
            }
            core.jobs.lock().expect("jobs lock").push(job);
        }
        core.next_id.store(max_num + 1, Ordering::SeqCst);
        Ok(Scheduler { core, workers: Mutex::new(Vec::new()) })
    }

    /// Validates and enqueues a new job; returns its handle.
    pub(crate) fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, String> {
        let num = self.core.next_id.fetch_add(1, Ordering::SeqCst);
        let id = format!("j{num}");
        let job = Arc::new(Job::build(id.clone(), spec)?);
        self.core
            .spool
            .write_spec(&id, &job.spec)
            .map_err(|e| format!("cannot spool {id}: {e}"))?;
        self.core.jobs.lock().expect("jobs lock").push(Arc::clone(&job));
        self.core.queue.lock().expect("queue lock").push_back((Arc::clone(&job), None));
        self.core.queue_cv.notify_one();
        Ok(job)
    }

    /// Looks a job up by id.
    pub(crate) fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.core.jobs.lock().expect("jobs lock").iter().find(|j| j.id == id).cloned()
    }

    /// Every job the daemon knows, in submission order.
    pub(crate) fn jobs(&self) -> Vec<Arc<Job>> {
        self.core.jobs.lock().expect("jobs lock").clone()
    }

    /// Cancels a job cooperatively. Queued jobs flip straight to
    /// `Cancelled`; running jobs drain their in-flight round, write a
    /// final checkpoint and transition at the round boundary.
    pub(crate) fn cancel(&self, id: &str) -> Result<JobState, String> {
        let job = self.job(id).ok_or_else(|| format!("unknown job {id:?}"))?;
        let mut flipped = None;
        job.update_status(|st| match st.state {
            JobState::Queued => {
                st.state = JobState::Cancelled;
                flipped = Some(st.clone());
            }
            JobState::Running => job.cancel(),
            _ => {}
        });
        if let Some(st) = flipped {
            job.broadcast_terminal(&st);
            return Ok(JobState::Cancelled);
        }
        let state = job.status().state;
        if state.is_terminal() && state != JobState::Cancelled {
            return Err(format!("job {id} is already {}", state.label()));
        }
        Ok(state)
    }

    /// Re-enqueues a cancelled or failed job; it resumes from its
    /// spooled checkpoint (or restarts from chunk 0 if none exists).
    /// A job cancelled while queued may still have its entry (and
    /// engine) in the queue; the state flip re-arms that entry instead
    /// of adding a second one.
    pub(crate) fn resume(&self, id: &str) -> Result<(), String> {
        let job = self.job(id).ok_or_else(|| format!("unknown job {id:?}"))?;
        let mut ok = false;
        job.update_status(|st| {
            if matches!(st.state, JobState::Cancelled | JobState::Failed) {
                st.state = JobState::Queued;
                st.error = None;
                ok = true;
            }
        });
        if !ok {
            return Err(format!(
                "job {id} is {}; only cancelled or failed jobs resume",
                job.status().state.label()
            ));
        }
        job.refresh_cancel_token();
        let mut q = self.core.queue.lock().expect("queue lock");
        if !q.iter().any(|(queued, _)| Arc::ptr_eq(queued, &job)) {
            q.push_back((job, None));
        }
        drop(q);
        self.core.queue_cv.notify_one();
        Ok(())
    }

    /// Graceful stop: cancels every non-terminal job (their in-flight
    /// rounds drain and checkpoint), wakes and joins every worker, and
    /// empties the queue, dropping every engine. After this returns the
    /// spool is consistent: every incomplete job's cursor is at a round
    /// boundary, ready for the next daemon life to resume.
    pub(crate) fn stop(&self) {
        self.core.stopping.store(true, Ordering::SeqCst);
        for job in self.jobs() {
            if !job.status().state.is_terminal() {
                job.cancel();
            }
        }
        self.core.queue_cv.notify_all();
        let handles: Vec<_> = self.workers.lock().expect("workers lock").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.core.queue.lock().expect("queue lock").clear();
    }
}

/// One pool thread: pop a job, grade one round, requeue if incomplete.
fn worker_loop(core: &Arc<SchedCore>) {
    loop {
        let entry = {
            let mut q = core.queue.lock().expect("queue lock");
            loop {
                if core.stopping.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(entry) = q.pop_front() {
                    break entry;
                }
                q = core
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(200))
                    .expect("queue lock")
                    .0;
            }
        };
        work_entry(core, entry);
    }
}

/// Grades one round of a popped entry and re-enqueues the job, resident
/// state and all, if it is incomplete. Otherwise the entry, and the
/// state with it, is dropped here.
fn work_entry(core: &Arc<SchedCore>, (job, resident): Entry) {
    if let Some(resident) = run_round(core, &job, resident) {
        if !core.stopping.load(Ordering::SeqCst) {
            core.queue.lock().expect("queue lock").push_back((job, Some(resident)));
            core.queue_cv.notify_one();
        }
    }
}

/// Grades one round of `job` on its resident state (building it first
/// if the job has none yet); returns the state when the job should be
/// re-enqueued (more chunks remain and nobody stopped it).
fn run_round(
    core: &Arc<SchedCore>,
    job: &Arc<Job>,
    mut resident: Option<Resident>,
) -> Option<Resident> {
    // Claim under the status lock: a cancel that already flipped a
    // queued job wins, and the worker skips it.
    let mut claimed = false;
    job.update_status(|st| {
        if st.state == JobState::Queued {
            st.state = JobState::Running;
            claimed = true;
        }
    });
    if !claimed {
        return None;
    }

    // Panic containment mirrors the engine pool: one poisoned round
    // fails one job, never the daemon.
    let outcome = catch_unwind(AssertUnwindSafe(|| grade_round(core, job, &mut resident)));
    job.reset_live_faults();
    match outcome {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "round panicked".to_owned());
            finalize_failed(core, job, &format!("round panicked: {msg}"));
            None
        }
        Ok(Err(msg)) => {
            finalize_failed(core, job, &msg);
            None
        }
        Ok(Ok(round)) => {
            job.update_status(|st| {
                st.chunks_done = round.chunks_done;
                st.chunks_total = round.chunks_total;
                st.faults_done = round.faults_done;
                st.faults_total = round.faults_total;
                st.summary = round.summary.clone();
                st.digest = Some(round.digest);
                st.wall_ns += round.wall_ns;
                st.rounds += 1;
                st.engine_builds += usize::from(round.engine_built);
            });
            if round.complete {
                finalize_done(core, job, round.timings);
                None
            } else if core.stopping.load(Ordering::SeqCst) {
                // Daemon shutdown: the round drained and checkpointed;
                // leave the job queued-on-disk for the next life.
                job.update_status(|st| st.state = JobState::Queued);
                None
            } else if job.cancel_token().is_cancelled() {
                let mut snapshot = None;
                job.update_status(|st| {
                    st.state = JobState::Cancelled;
                    snapshot = Some(st.clone());
                });
                job.broadcast_terminal(&snapshot.expect("status set above"));
                None
            } else {
                let mut snapshot = None;
                job.update_status(|st| {
                    st.state = JobState::Queued;
                    snapshot = Some(st.clone());
                });
                broadcast_progress(job, &snapshot.expect("status set above"));
                resident
            }
        }
    }
}

/// What one graded round reports back to the worker.
struct RoundReport {
    chunks_done: usize,
    chunks_total: usize,
    faults_done: usize,
    faults_total: usize,
    summary: GradingSummary,
    digest: u64,
    wall_ns: u128,
    complete: bool,
    /// True when this round built the job's engine and campaign state.
    engine_built: bool,
    timings: Option<[seugrade_emulation::controller::CampaignTiming; 3]>,
}

/// Builds the plan for `job` and grades one round by advancing the
/// job's campaign state, which writes the spooled checkpoint. On the
/// job's first round in this daemon life it builds the engine and the
/// state first, resuming from the spooled checkpoint if there is one.
fn grade_round(
    core: &Arc<SchedCore>,
    job: &Arc<Job>,
    resident: &mut Option<Resident>,
) -> Result<RoundReport, String> {
    let plan = build_plan(&job.spec, &job.circuit, &job.testbench);
    let ckpt = core.spool.ckpt_path(&job.id);
    let mut opts = ResumeOptions::checkpoint_to(&ckpt);
    opts.every = job.spec.round;
    opts.limit = Some(job.spec.round);
    opts.cancel = Some(job.cancel_token());
    let hooked = Arc::clone(job);
    opts.progress = Some(ProgressHook::new(move |ev| {
        hooked.note_live_faults(ev.faults);
        hooked.queue_chunk_line(&proto::chunk_event_line(Some(&hooked.id), &ev));
    }));
    let engine_built = resident.is_none();
    let Resident { engine, state } = match resident {
        Some(resident) => resident,
        None => {
            let engine = Engine::new(&plan);
            opts.resume = ckpt.exists();
            let state = CampaignState::new(&engine, &plan, &opts).map_err(|e| e.to_string())?;
            resident.insert(Resident { engine, state })
        }
    };
    let run = state.advance(engine, &plan, &opts).map_err(|e| e.to_string())?;
    let complete = run.is_complete();
    let timings = complete.then(|| {
        run.sink.finish_timings(
            &TimingConfig::default(),
            job.testbench.num_cycles(),
            job.circuit.num_ffs(),
        )
    });
    Ok(RoundReport {
        chunks_done: run.chunks_done,
        chunks_total: run.chunks_total,
        faults_done: run.faults_done,
        faults_total: run.faults_total,
        summary: run.sink.summary().clone(),
        digest: run.sink.digest(),
        wall_ns: run.stats.wall_ns,
        complete,
        engine_built,
        timings,
    })
}

/// Marks the job done, writes its terminal `result.json` and tells the
/// subscribers.
fn finalize_done(
    core: &Arc<SchedCore>,
    job: &Arc<Job>,
    timings: Option<[seugrade_emulation::controller::CampaignTiming; 3]>,
) {
    let mut snapshot = None;
    job.update_status(|st| {
        st.state = JobState::Done;
        snapshot = Some(st.clone());
    });
    let status = snapshot.expect("status set above");
    let result = result_value(job, &status, timings.as_ref());
    if let Err(e) = core.spool.write_result(&job.id, &result) {
        eprintln!("spool: cannot write result for {}: {e}", job.id);
    }
    job.broadcast_terminal(&status);
}

/// Marks the job failed, persists the failure and tells the subscribers.
fn finalize_failed(core: &Arc<SchedCore>, job: &Arc<Job>, msg: &str) {
    let mut snapshot = None;
    job.update_status(|st| {
        st.state = JobState::Failed;
        st.error = Some(msg.to_owned());
        snapshot = Some(st.clone());
    });
    let status = snapshot.expect("status set above");
    let result = result_value(job, &status, None);
    if let Err(e) = core.spool.write_result(&job.id, &result) {
        eprintln!("spool: cannot write result for {}: {e}", job.id);
    }
    job.broadcast_terminal(&status);
}

/// The terminal `result.json` document: the snapshot plus cumulative
/// wall time and (for completed jobs) the per-technique autonomous
/// emulation timings out of the job's [`CampaignSink`].
fn result_value(
    job: &Job,
    status: &JobStatus,
    timings: Option<&[seugrade_emulation::controller::CampaignTiming; 3]>,
) -> Value {
    let Value::Obj(mut pairs) = job.snapshot_value() else {
        unreachable!("snapshots are objects");
    };
    pairs.push(("schema".to_owned(), Value::str(proto::SERVE_SCHEMA)));
    pairs.push(("wall_ns".to_owned(), Value::count(status.wall_ns as usize)));
    if let Some(timings) = timings {
        let rows = timings
            .iter()
            .map(|t| {
                Value::obj(vec![
                    ("technique", Value::str(t.technique.label())),
                    ("millis", Value::num(t.millis())),
                    ("us_per_fault", Value::num(t.us_per_fault())),
                    ("total_cycles", Value::count(t.total_cycles as usize)),
                ])
            })
            .collect();
        pairs.push(("techniques".to_owned(), Value::Arr(rows)));
    }
    Value::Obj(pairs)
}

/// A between-rounds progress event for stream subscribers.
fn broadcast_progress(job: &Job, status: &JobStatus) {
    job.broadcast(&proto::job_event_line(
        "state",
        &job.id,
        vec![
            ("state", Value::str(status.state.label())),
            ("chunks_done", Value::count(status.chunks_done)),
            ("chunks_total", Value::count(status.chunks_total)),
            ("faults_done", Value::count(status.faults_done)),
            ("faults_total", Value::count(status.faults_total)),
        ],
    ));
}

/// Restores a terminal job's status from its spooled `result.json`.
fn restore_terminal_status(job: &Job, result: &Value) {
    let count = |key: &str| result.get(key).and_then(Value::as_usize).unwrap_or(0);
    let state = match result.get("state").and_then(Value::as_str) {
        Some("done") => JobState::Done,
        Some("cancelled") => JobState::Cancelled,
        _ => JobState::Failed,
    };
    job.update_status(|st| {
        st.state = state;
        st.chunks_done = count("chunks_done");
        st.chunks_total = count("chunks_total");
        st.faults_done = count("faults_done");
        st.faults_total = count("faults_total").max(st.faults_total);
        st.summary =
            GradingSummary::from_counts(count("failures"), count("latents"), count("silents"));
        st.digest = result
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        st.error = result.get("error").and_then(Value::as_str).map(str::to_owned);
        st.wall_ns = count("wall_ns") as u128;
        st.rounds = count("rounds");
        st.engine_builds = count("engine_builds");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_run;

    fn temp_spool(tag: &str) -> Spool {
        let dir = std::env::temp_dir()
            .join(format!("seugrade-serve-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Spool::open(dir).unwrap()
    }

    fn tiny_spec() -> JobSpec {
        let mut spec = JobSpec::registry("s27");
        spec.vectors = 24;
        spec.round = 4;
        spec
    }

    impl Scheduler {
        /// Pops and grades one queue entry on the calling thread, as a
        /// worker would; false when the queue is empty.
        fn step(&self) -> bool {
            let entry = self.core.queue.lock().expect("queue lock").pop_front();
            entry.map(|entry| work_entry(&self.core, entry)).is_some()
        }

        /// Steps until the queue is empty.
        fn drain(&self) {
            while self.step() {}
        }

        /// Queue entries that hold an engine.
        fn resident_engines(&self) -> usize {
            self.core.queue.lock().expect("queue lock").iter().filter(|e| e.1.is_some()).count()
        }

        fn queue_len(&self) -> usize {
            self.core.queue.lock().expect("queue lock").len()
        }
    }

    /// Rounds an uninterrupted run of `st`'s job takes.
    fn full_rounds(st: &JobStatus, spec: &JobSpec) -> usize {
        st.chunks_total.div_ceil(spec.round)
    }

    fn wait_terminal(job: &Arc<Job>) -> JobStatus {
        for _ in 0..2000 {
            let st = job.status();
            if st.state.is_terminal() {
                return st;
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("job {} never reached a terminal state", job.id);
    }

    #[test]
    fn one_job_reproduces_the_solo_digest() {
        let spool = temp_spool("solo");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::start(spool, 2).unwrap();
        let job = sched.submit(tiny_spec()).unwrap();
        let st = wait_terminal(&job);
        assert_eq!(st.state, JobState::Done);
        let (digest, summary) = reference_run(&tiny_spec()).unwrap();
        assert_eq!(st.digest, Some(digest));
        assert_eq!(st.summary, summary);
        assert!(root.join(&job.id).join("result.json").exists());
        sched.stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cancel_then_resume_completes_to_the_same_digest() {
        let spool = temp_spool("cancel");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::start(spool, 1).unwrap();
        let mut spec = tiny_spec();
        spec.round = 1; // many short rounds: plenty of cancel windows
        let job = sched.submit(spec.clone()).unwrap();
        let _ = sched.cancel(&job.id);
        let st = wait_terminal(&job);
        assert_eq!(st.state, JobState::Cancelled);
        sched.resume(&job.id).unwrap();
        let st = wait_terminal(&job);
        assert_eq!(st.state, JobState::Done);
        let (digest, _) = reference_run(&spec).unwrap();
        assert_eq!(st.digest, Some(digest));
        sched.stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bad_submit_is_an_error_not_a_job() {
        let spool = temp_spool("bad");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::start(spool, 1).unwrap();
        assert!(sched.submit(JobSpec::registry("no-such-circuit")).is_err());
        assert!(sched.jobs().is_empty());
        sched.stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stop_respools_incomplete_jobs_and_restart_finishes_them() {
        let spool = temp_spool("restart");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::start(spool, 1).unwrap();
        let mut spec = tiny_spec();
        spec.round = 1;
        let job = sched.submit(spec.clone()).unwrap();
        // Let at least one round land, then stop the daemon mid-flight.
        for _ in 0..2000 {
            if job.status().chunks_done > 0 || job.status().state.is_terminal() {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        sched.stop();
        drop(sched);

        let sched = Scheduler::start(Spool::open(&root).unwrap(), 1).unwrap();
        let job = sched.job(&job.id).expect("respooled job");
        let st = wait_terminal(&job);
        assert_eq!(st.state, JobState::Done);
        let (digest, _) = reference_run(&spec).unwrap();
        assert_eq!(st.digest, Some(digest), "restart must resume to the solo digest");
        // A second restart sees the terminal result, not a fresh run.
        sched.stop();
        let sched = Scheduler::start(Spool::open(&root).unwrap(), 1).unwrap();
        let job = sched.job(&job.id).expect("terminal job listed");
        assert_eq!(job.status().state, JobState::Done);
        assert_eq!(job.status().digest, Some(digest));
        sched.stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn an_uninterrupted_job_builds_its_engine_once() {
        let spool = temp_spool("once");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::open(spool).unwrap();
        let spec = tiny_spec();
        let job = sched.submit(spec.clone()).unwrap();
        assert!(sched.step());
        assert_eq!(sched.resident_engines(), 1, "the engine travels with the requeued job");
        sched.drain();
        let st = job.status();
        assert_eq!(st.state, JobState::Done);
        assert!(st.rounds > 1, "the job must span several rounds: {st:?}");
        assert_eq!(st.rounds, full_rounds(&st, &spec));
        assert_eq!(st.engine_builds, 1);
        assert_eq!(sched.resident_engines(), 0, "a done job holds no engine");
        assert_eq!(st.digest, Some(reference_run(&spec).unwrap().0));
        let result = std::fs::read_to_string(root.join(&job.id).join("result.json")).unwrap();
        assert!(result.contains("\"engine_builds\":1"), "{result}");
        assert!(result.contains(&format!("\"rounds\":{}", st.rounds)), "{result}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_job_cancelled_while_queued_frees_its_engine_when_popped() {
        let spool = temp_spool("freed");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::open(spool).unwrap();
        let job = sched.submit(tiny_spec()).unwrap();
        assert!(sched.step());
        assert_eq!(sched.cancel(&job.id), Ok(JobState::Cancelled));
        assert_eq!(sched.resident_engines(), 1, "the entry keeps its engine until popped");
        assert!(sched.step());
        assert_eq!(sched.queue_len(), 0);
        assert_eq!(sched.resident_engines(), 0);
        let st = job.status();
        assert_eq!(st.state, JobState::Cancelled);
        assert_eq!((st.rounds, st.engine_builds), (1, 1), "popping grades nothing");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cancel_then_resume_rebuilds_the_engine_once() {
        let spool = temp_spool("rebuild");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::open(spool).unwrap();
        let spec = tiny_spec();
        let job = sched.submit(spec.clone()).unwrap();
        assert!(sched.step());
        sched.cancel(&job.id).unwrap();
        assert!(sched.step(), "pops the cancelled entry and drops its engine");
        sched.resume(&job.id).unwrap();
        assert_eq!(sched.resident_engines(), 0, "resume enqueues the job without an engine");
        sched.drain();
        let st = job.status();
        assert_eq!(st.state, JobState::Done);
        assert_eq!(st.engine_builds, 2);
        assert_eq!(st.rounds, full_rounds(&st, &spec));
        assert_eq!(st.digest, Some(reference_run(&spec).unwrap().0));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn resume_rearms_a_still_queued_entry_and_keeps_its_engine() {
        let spool = temp_spool("rearm");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::open(spool).unwrap();
        let spec = tiny_spec();
        let job = sched.submit(spec.clone()).unwrap();
        assert!(sched.step());
        sched.cancel(&job.id).unwrap();
        sched.resume(&job.id).unwrap();
        assert_eq!(sched.queue_len(), 1, "no second entry for the same job");
        assert_eq!(sched.resident_engines(), 1);
        // The re-armed entry keeps its campaign state too.
        damage_checkpoint(&root, &job);
        sched.drain();
        let st = job.status();
        assert_eq!(st.state, JobState::Done);
        assert_eq!(st.engine_builds, 1);
        assert_eq!(st.digest, Some(reference_run(&spec).unwrap().0));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Overwrites `job`'s spooled checkpoint with bytes no load accepts.
    fn damage_checkpoint(root: &std::path::Path, job: &Job) {
        std::fs::write(root.join(&job.id).join("job.ckpt"), "not a checkpoint\n").unwrap();
    }

    #[test]
    fn a_resident_job_grades_on_without_rereading_its_checkpoint() {
        let spool = temp_spool("resident");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::open(spool).unwrap();
        let spec = tiny_spec();
        let job = sched.submit(spec.clone()).unwrap();
        assert!(sched.step());
        // The kept state carries the cursor and the sink: later rounds
        // only write the checkpoint, so a damaged file goes unread.
        damage_checkpoint(&root, &job);
        sched.drain();
        let st = job.status();
        assert_eq!(st.state, JobState::Done, "{st:?}");
        assert_eq!(st.digest, Some(reference_run(&spec).unwrap().0));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_job_entering_the_queue_without_state_loads_its_checkpoint() {
        let spool = temp_spool("reload");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::open(spool).unwrap();
        let job = sched.submit(tiny_spec()).unwrap();
        assert!(sched.step());
        sched.cancel(&job.id).unwrap();
        assert!(sched.step(), "pops the cancelled entry and drops its state");
        damage_checkpoint(&root, &job);
        sched.resume(&job.id).unwrap();
        sched.drain();
        let st = job.status();
        assert_eq!(st.state, JobState::Failed, "{st:?}");
        assert!(st.error.as_deref().unwrap_or("").contains("corrupt checkpoint"), "{st:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stop_then_restart_rebuilds_the_engine_once() {
        let spool = temp_spool("relife");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::open(spool).unwrap();
        let spec = tiny_spec();
        let job = sched.submit(spec.clone()).unwrap();
        assert!(sched.step());
        assert_eq!(job.status().engine_builds, 1);
        sched.stop();
        assert_eq!(sched.queue_len(), 0, "a stopped daemon holds no engine");
        drop(sched);

        let sched = Scheduler::open(Spool::open(&root).unwrap()).unwrap();
        let job = sched.job(&job.id).expect("respooled job");
        assert_eq!(sched.resident_engines(), 0, "a restart enqueues without an engine");
        sched.drain();
        let st = job.status();
        assert_eq!(st.state, JobState::Done);
        assert_eq!(st.engine_builds, 1, "counts restart with the daemon life");
        assert_eq!(st.rounds, full_rounds(&st, &spec) - 1, "the first life graded one round");
        assert_eq!(st.digest, Some(reference_run(&spec).unwrap().0));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn co_tenant_single_chunk_rounds_on_two_workers_match_the_reference() {
        let spool = temp_spool("cotenant");
        let root = spool.root().to_path_buf();
        let sched = Scheduler::start(spool, 2).unwrap();
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| {
                let mut spec = tiny_spec();
                spec.round = 1;
                spec.seed = 100 + i;
                spec
            })
            .collect();
        let jobs: Vec<_> = specs.iter().map(|spec| sched.submit(spec.clone()).unwrap()).collect();
        for (job, spec) in jobs.iter().zip(&specs) {
            let st = wait_terminal(job);
            assert_eq!(st.state, JobState::Done);
            let (digest, summary) = reference_run(spec).unwrap();
            assert_eq!(st.digest, Some(digest), "{} diverged from its solo run", job.id);
            assert_eq!(st.summary, summary);
            assert_eq!(st.rounds, st.chunks_total);
            assert_eq!(st.engine_builds, 1, "{}: one engine across workers", job.id);
        }
        sched.stop();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
