//! One campaign job: validated spec, owned circuit and test bench,
//! live status, cancellation, and its event subscribers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use seugrade_circuits::registry;
use seugrade_engine::{CampaignPlan, CancelToken, ShardPolicy};
use seugrade_faultsim::GradingSummary;
use seugrade_netlist::{import, ImportOptions, Netlist};
use seugrade_sim::Testbench;

use crate::json::Value;
use crate::proto::{self, CircuitSource, JobSpec};

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (fresh, between rounds, or respooled).
    Queued,
    /// A worker is grading a round of it right now.
    Running,
    /// Cancelled cooperatively; its spooled checkpoint survives, so
    /// `resume` can re-enqueue it.
    Cancelled,
    /// Every chunk graded; the verdict digest is final.
    Done,
    /// The engine returned an error (or a round panicked).
    Failed,
}

impl JobState {
    /// The protocol spelling of this state.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Cancelled => "cancelled",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// True for states a job never leaves on its own (`resume` can
    /// still re-enqueue `cancelled`/`failed` jobs explicitly).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }
}

/// Mutable progress of a job, updated at round boundaries.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Chunks graded so far (exact queue prefix).
    pub chunks_done: usize,
    /// Total chunks; 0 until the first round computes the chunk plan.
    pub chunks_total: usize,
    /// Faults graded so far.
    pub faults_done: usize,
    /// Total faults in the job's fault space.
    pub faults_total: usize,
    /// Classification tallies folded so far.
    pub summary: GradingSummary,
    /// The order-independent verdict digest (final once `Done`).
    pub digest: Option<u64>,
    /// Failure message, for `Failed` jobs.
    pub error: Option<String>,
    /// Cumulative grading wall-clock across rounds.
    pub wall_ns: u128,
    /// Rounds graded in this daemon life.
    pub rounds: usize,
    /// Engines (compile plus golden run) built for this job in this
    /// daemon life: one per uninterrupted stretch of rounds.
    pub engine_builds: usize,
}

/// One job held by the scheduler: immutable identity plus live state.
#[derive(Debug)]
pub struct Job {
    /// Job id (`j1`, `j2`, …); also its spool directory name.
    pub id: String,
    /// The spec as submitted (and spooled).
    pub spec: JobSpec,
    /// The validated circuit (built once at submit/restart).
    pub circuit: Netlist,
    /// The seeded test bench derived from the spec.
    pub testbench: Testbench,
    status: Mutex<JobStatus>,
    cancel: Mutex<CancelToken>,
    /// Faults graded inside the *current* round (per-chunk hook feed);
    /// folded into `status` and reset at every round boundary.
    live_faults: AtomicUsize,
    subscribers: Mutex<Vec<mpsc::Sender<String>>>,
    outbox: Mutex<Outbox>,
}

/// Chunk event lines queued for a job's subscribers, and when queued
/// lines last went out.
#[derive(Debug, Default)]
struct Outbox {
    /// Queued lines, newline-separated, without a trailing newline.
    lines: String,
    /// The last hand-over; `None` before the first.
    handed_over: Option<Instant>,
}

impl Outbox {
    /// Appends `line` to the queued lines.
    fn push(&mut self, line: &str) {
        if !self.lines.is_empty() {
            self.lines.push('\n');
        }
        self.lines.push_str(line);
    }
}

impl Job {
    /// Validates a spec into a runnable job: checks its per-job limits
    /// (the inline source size before the import), builds the circuit
    /// (registry lookup or inline import), checks its cells, fault space
    /// and stimulus size against theirs, derives the test bench, and
    /// sizes the fault space.
    ///
    /// # Errors
    ///
    /// A human-readable message for a count or source over its limit,
    /// an unknown registry name, a netlist that fails to import, a
    /// circuit over the cell limit or with no flip-flops (nothing to
    /// grade), or a fault space or test bench over its limit (checked
    /// before the test bench is allocated).
    pub fn build(id: String, spec: JobSpec) -> Result<Job, String> {
        spec.check_limits().map_err(|e| e.msg)?;
        let circuit = match &spec.circuit {
            CircuitSource::Registry(name) => registry::build(name)
                .ok_or_else(|| format!("unknown registry circuit {name:?}"))?,
            CircuitSource::Inline { format, source } => {
                import::import_str_with(source, *format, ImportOptions::default())
                    .map_err(|e| format!("netlist import failed: {e}"))?
                    .netlist
            }
        };
        if circuit.num_cells() > proto::MAX_CELLS {
            return Err(format!(
                "job circuit has {} cells, over the limit of {}",
                circuit.num_cells(),
                proto::MAX_CELLS
            ));
        }
        if circuit.num_ffs() == 0 {
            return Err(format!("circuit {:?} has no flip-flops to grade", circuit.name()));
        }
        let within = |what: &str, per_vector: usize, unit: &str, max: usize| {
            if per_vector.checked_mul(spec.vectors).is_some_and(|n| n <= max) {
                Ok(())
            } else {
                Err(format!(
                    "job {what} is {per_vector} {unit} x {} vectors, over the limit of {max}",
                    spec.vectors
                ))
            }
        };
        within("fault space", circuit.num_ffs(), "flip-flops", proto::MAX_FAULT_SPACE)?;
        within("test bench", circuit.num_inputs(), "inputs", proto::MAX_STIMULUS_BITS)?;
        let testbench = Testbench::random(circuit.num_inputs(), spec.vectors, spec.seed);
        let space = circuit.num_ffs() * testbench.num_cycles();
        let faults_total = spec.sample.map_or(space, |n| n.min(space));
        Ok(Job {
            id,
            spec,
            circuit,
            testbench,
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                chunks_done: 0,
                chunks_total: 0,
                faults_done: 0,
                faults_total,
                summary: GradingSummary::new(),
                digest: None,
                error: None,
                wall_ns: 0,
                rounds: 0,
                engine_builds: 0,
            }),
            cancel: Mutex::new(CancelToken::new()),
            live_faults: AtomicUsize::new(0),
            subscribers: Mutex::new(Vec::new()),
            outbox: Mutex::new(Outbox::default()),
        })
    }

    /// A copy of the round-boundary status.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.status.lock().expect("status lock").clone()
    }

    /// Runs `f` on the status under its lock.
    pub fn update_status(&self, f: impl FnOnce(&mut JobStatus)) {
        f(&mut self.status.lock().expect("status lock"));
    }

    /// Adds faults from the current round's per-chunk hook.
    pub fn note_live_faults(&self, n: usize) {
        self.live_faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Closes a round: resets the live counter (the round's faults are
    /// folded into the durable status by the scheduler).
    pub fn reset_live_faults(&self) {
        self.live_faults.store(0, Ordering::Relaxed);
    }

    /// The protocol snapshot of this job right now — round-boundary
    /// status plus the in-flight chunks of the current round. A `done`
    /// snapshot carries the digest, and for a sampled job the per-class
    /// Wilson intervals; a `failed` one carries the error.
    #[must_use]
    pub fn snapshot_value(&self) -> Value {
        self.snapshot_of(&self.status())
    }

    /// [`snapshot_value`](Self::snapshot_value) of the round-boundary
    /// status `st` instead of the current one.
    #[must_use]
    pub fn snapshot_of(&self, st: &JobStatus) -> Value {
        let live = self.live_faults.load(Ordering::Relaxed);
        let mut pairs = vec![
            ("id", Value::str(self.id.clone())),
            ("state", Value::str(st.state.label())),
            ("chunks_done", Value::count(st.chunks_done)),
            ("chunks_total", Value::count(st.chunks_total)),
            ("faults_done", Value::count(st.faults_done + live)),
            ("faults_total", Value::count(st.faults_total)),
        ];
        pairs.extend(proto::summary_fields(&st.summary));
        pairs.push(("rounds", Value::count(st.rounds)));
        pairs.push(("engine_builds", Value::count(st.engine_builds)));
        if st.state == JobState::Done {
            if let Some(digest) = st.digest {
                pairs.push(("digest", Value::str(proto::digest_hex(digest))));
            }
            if let Some(ci95) = self.spec.sample.and(proto::ci95_value(&st.summary)) {
                pairs.push(("ci95", ci95));
            }
        }
        if let Some(e) = &st.error {
            pairs.push(("error", Value::str(e.clone())));
        }
        Value::obj(pairs)
    }

    /// The cancellation token rounds of this job should poll.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.lock().expect("cancel lock").clone()
    }

    /// Trips the current token (cooperative; the in-flight round drains
    /// and checkpoints).
    pub fn cancel(&self) {
        self.cancel.lock().expect("cancel lock").cancel();
    }

    /// Installs a fresh token — `resume` after a cancellation needs an
    /// untripped flag (tokens are one-way).
    pub fn refresh_cancel_token(&self) {
        *self.cancel.lock().expect("cancel lock") = CancelToken::new();
    }

    /// Subscribes to this job's event stream. Subscribers to a job
    /// already in a terminal state immediately receive the synthesized
    /// terminal event and a closed channel.
    #[must_use]
    pub fn subscribe(&self) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let st = self.status();
        if st.state.is_terminal() {
            let _ = tx.send(self.terminal_event_line(&st));
            return rx; // tx drops: the stream ends after the replay
        }
        self.subscribers.lock().expect("subscribers lock").push(tx);
        rx
    }

    /// Queues one chunk event line for the subscribers. The queued
    /// lines go out together, as one channel send, once the daemon's
    /// 25 ms poll interval has passed since the last hand-over (so a
    /// job's first chunk goes out at once), or with the next
    /// [`broadcast`](Self::broadcast) or
    /// [`broadcast_terminal`](Self::broadcast_terminal).
    pub fn queue_chunk_line(&self, line: &str) {
        let mut outbox = self.outbox.lock().expect("outbox lock");
        outbox.push(line);
        if outbox.handed_over.map_or(true, |at| at.elapsed() >= crate::server::POLL) {
            self.hand_over(&mut outbox, false);
        }
    }

    /// Sends the queued chunk lines and then `line` to every live
    /// subscriber as one channel send, dropping the ones that hung up.
    pub fn broadcast(&self, line: &str) {
        let mut outbox = self.outbox.lock().expect("outbox lock");
        outbox.push(line);
        self.hand_over(&mut outbox, false);
    }

    /// Broadcasts the queued chunk lines and the terminal event for
    /// `status`, and closes every subscription (their streams end).
    pub fn broadcast_terminal(&self, status: &JobStatus) {
        let mut outbox = self.outbox.lock().expect("outbox lock");
        outbox.push(&self.terminal_event_line(status));
        self.hand_over(&mut outbox, true);
    }

    /// Sends the queued lines, one channel send per subscriber, under
    /// the outbox lock, so lines reach every subscriber in queue order;
    /// `close` ends every subscription afterwards.
    fn hand_over(&self, outbox: &mut Outbox, close: bool) {
        let batch = std::mem::take(&mut outbox.lines);
        outbox.handed_over = Some(Instant::now());
        let mut subs = self.subscribers.lock().expect("subscribers lock");
        if close {
            for tx in subs.drain(..) {
                let _ = tx.send(batch.clone());
            }
        } else {
            subs.retain(|tx| tx.send(batch.clone()).is_ok());
        }
    }

    /// The event line announcing a terminal `status`.
    #[must_use]
    pub fn terminal_event_line(&self, status: &JobStatus) -> String {
        match status.state {
            JobState::Done => {
                let mut fields = vec![
                    ("faults", Value::count(status.faults_total)),
                    ("digest", Value::str(proto::digest_hex(status.digest.unwrap_or(0)))),
                ];
                fields.extend(proto::summary_fields(&status.summary));
                proto::job_event_line("done", &self.id, fields)
            }
            JobState::Cancelled => proto::job_event_line("cancelled", &self.id, vec![]),
            JobState::Failed => proto::job_event_line(
                "failed",
                &self.id,
                vec![("error", Value::str(status.error.clone().unwrap_or_default()))],
            ),
            // Non-terminal states never reach this (scheduler contract);
            // emit a state event rather than panic if one ever does.
            other => proto::job_event_line(
                "state",
                &self.id,
                vec![("state", Value::str(other.label()))],
            ),
        }
    }
}

/// Builds the campaign plan a spec describes — the **same** plan for a
/// scheduler round, a solo reference run and a resumed round, so the
/// engine fingerprint (and therefore the verdict digest) can never
/// drift between them.
#[must_use]
pub fn build_plan<'a>(
    spec: &JobSpec,
    circuit: &'a Netlist,
    testbench: &'a Testbench,
) -> CampaignPlan<'a> {
    let mut builder = CampaignPlan::builder(circuit, testbench)
        .policy(ShardPolicy { threads: spec.threads, serial_below: 0 })
        .trace_policy(spec.trace_policy)
        .collapse(spec.collapse);
    if let Some(count) = spec.sample {
        builder = builder.sampled(count, spec.seed);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn build_validates_registry_and_inline() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        assert!(job.circuit.num_ffs() > 0);
        assert_eq!(job.status().faults_total, job.circuit.num_ffs() * 100);

        assert!(Job::build("j2".into(), JobSpec::registry("nope")).is_err());

        let mut spec = JobSpec::registry("ignored");
        spec.circuit = CircuitSource::Inline {
            format: seugrade_netlist::SourceFormat::Bench,
            source: "garbage(".to_owned(),
        };
        let err = Job::build("j3".into(), spec).unwrap_err();
        assert!(err.contains("import failed"), "{err}");
    }

    #[test]
    fn sample_caps_the_fault_space() {
        let mut spec = JobSpec::registry("s27");
        spec.sample = Some(10);
        let job = Job::build("j1".into(), spec).unwrap();
        assert_eq!(job.status().faults_total, 10);
    }

    #[test]
    fn terminal_subscription_replays_the_terminal_event() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        job.update_status(|st| {
            st.state = JobState::Done;
            st.digest = Some(0xabcd);
        });
        let rx = job.subscribe();
        let line = rx.recv().unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(json::Value::as_str), Some("done"));
        assert!(line.contains("000000000000abcd"));
        assert!(rx.recv().is_err(), "stream must end after the replay");
    }

    #[test]
    fn broadcast_drops_hung_up_subscribers() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        let rx1 = job.subscribe();
        let rx2 = job.subscribe();
        drop(rx2);
        job.broadcast("hello");
        assert_eq!(rx1.recv().unwrap(), "hello");
        assert_eq!(job.subscribers.lock().unwrap().len(), 1);
    }

    #[test]
    fn cancel_token_refresh_untrips() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        job.cancel();
        assert!(job.cancel_token().is_cancelled());
        job.refresh_cancel_token();
        assert!(!job.cancel_token().is_cancelled());
    }

    #[test]
    fn done_snapshots_of_sampled_jobs_carry_wilson_intervals() {
        let mut sampled = JobSpec::registry("s27");
        sampled.sample = Some(100);
        for (spec, expect_ci) in [(sampled, true), (JobSpec::registry("s27"), false)] {
            let job = Job::build("j1".into(), spec).unwrap();
            job.update_status(|st| st.summary = GradingSummary::from_counts(20, 30, 50));
            assert!(job.snapshot_value().get("ci95").is_none(), "only done jobs carry ci95");
            job.update_status(|st| st.state = JobState::Done);
            let snapshot = job.snapshot_value();
            assert_eq!(snapshot.get("ci95").is_some(), expect_ci, "{snapshot:?}");
            assert_eq!(snapshot.get("engine_builds").and_then(json::Value::as_usize), Some(0));
            assert_eq!(snapshot.get("rounds").and_then(json::Value::as_usize), Some(0));
        }
    }
}
