//! Interruption/resume determinism: a campaign interrupted at any chunk
//! boundary and resumed from its checkpoint must land on the *same*
//! verdict digest and class counts as an uninterrupted run — at every
//! thread count and trace policy.
//!
//! The engine makes this possible with two invariants: completed chunks
//! are always an exact prefix of the cycle-major chunk queue (so a plain
//! cursor identifies the folded faults), and verdict sinks merge
//! commutatively (so the fold order across invocations cannot show).

use seugrade::prelude::*;

/// A unique temp path per (test, parameter) so parallel tests never
/// share checkpoint files.
fn ckpt_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("seugrade-resume-{tag}-{}.ckpt", std::process::id()))
}

/// One streamed-resumable invocation with the standard sink.
fn resumable(
    engine: &Engine,
    plan: &CampaignPlan<'_>,
    opts: &ResumeOptions,
) -> Result<ResumableRun<StreamAccumulator>, EngineError> {
    engine.run_streamed_resumable_with(plan, opts)
}

fn fixture() -> (Netlist, Testbench) {
    let circuit = generators::lfsr(12, &[11, 9, 7, 4]);
    let tb = Testbench::random(circuit.num_inputs(), 40, 9);
    (circuit, tb)
}

fn plan<'a>(
    circuit: &'a Netlist,
    tb: &'a Testbench,
    threads: usize,
    policy: TracePolicy,
) -> CampaignPlan<'a> {
    CampaignPlan::builder(circuit, tb)
        .policy(ShardPolicy { threads, serial_below: 0 })
        .trace_policy(policy)
        .build()
}

/// Interrupt after `k` chunks (via the deterministic chunk limit), then
/// resume to completion; the combined run must equal the uninterrupted
/// reference bit for bit.
fn interrupted_run_matches(threads: usize, policy: TracePolicy, k: usize, tag: &str) {
    let (circuit, tb) = fixture();
    let reference = {
        let p = plan(&circuit, &tb, threads, policy);
        Engine::new(&p).try_run_streamed(&p).unwrap()
    };

    let path = ckpt_path(tag);
    let p = plan(&circuit, &tb, threads, policy);
    let engine = Engine::new(&p);
    let mut first = ResumeOptions::checkpoint_to(&path);
    first.every = 2;
    first.limit = Some(k);
    let partial = resumable(&engine, &p, &first).expect("first leg");
    assert_eq!(partial.chunks_done, k.min(partial.chunks_total), "limit honoured");
    assert_eq!(partial.interrupted, partial.chunks_done < partial.chunks_total);

    let mut second = ResumeOptions::resume_from(&path);
    second.every = 3;
    let resumed = resumable(&engine, &p, &second).expect("second leg");
    std::fs::remove_file(&path).ok();

    assert!(resumed.is_complete(), "second leg finishes the campaign");
    assert_eq!(resumed.resumed_from, partial.chunks_done);
    assert_eq!(resumed.sink.digest(), reference.digest(), "digest must survive interruption");
    assert_eq!(resumed.sink.summary(), reference.summary());
    assert_eq!(resumed.sink.failure_map(), reference.failure_map());
}

#[test]
fn interrupted_before_any_chunk() {
    // k = 0: the first leg grades nothing but still writes a resumable
    // checkpoint.
    for threads in [1, 4] {
        interrupted_run_matches(threads, TracePolicy::Checkpoint(1), 0, &format!("k0-t{threads}"));
    }
}

#[test]
fn interrupted_after_one_chunk() {
    for threads in [1, 2, 4, 8] {
        interrupted_run_matches(threads, TracePolicy::Checkpoint(1), 1, &format!("k1-t{threads}"));
    }
}

#[test]
fn interrupted_mid_campaign() {
    let (circuit, tb) = fixture();
    let p = plan(&circuit, &tb, 1, TracePolicy::Checkpoint(1));
    let total = resumable(&Engine::new(&p), &p, &ResumeOptions::default())
        .expect("counting run")
        .chunks_total;
    let mid = total / 2;
    assert!(mid > 0, "fixture must span several chunks");
    for threads in [1, 2, 4, 8] {
        interrupted_run_matches(threads, TracePolicy::Checkpoint(1), mid, &format!("kmid-t{threads}"));
    }
}

#[test]
fn interrupted_at_last_chunk() {
    let (circuit, tb) = fixture();
    let p = plan(&circuit, &tb, 1, TracePolicy::Checkpoint(1));
    let total = resumable(&Engine::new(&p), &p, &ResumeOptions::default())
        .expect("counting run")
        .chunks_total;
    for threads in [1, 4] {
        // k = total - 1: one chunk left; and k = total: the "interrupted"
        // leg already finished, resume is a no-op that must not re-grade.
        interrupted_run_matches(threads, TracePolicy::Checkpoint(1), total - 1, &format!("klast-t{threads}"));
        interrupted_run_matches(threads, TracePolicy::Checkpoint(1), total, &format!("kdone-t{threads}"));
    }
}

#[test]
fn checkpoint_trace_policy_resumes_identically() {
    let (circuit, tb) = fixture();
    let reference = {
        let p = plan(&circuit, &tb, 1, TracePolicy::Checkpoint(1));
        Engine::new(&p).try_run_streamed(&p).unwrap()
    };
    for threads in [1, 2, 4, 8] {
        let tag = format!("ckpt64-t{threads}");
        interrupted_run_matches(threads, TracePolicy::Checkpoint(64), 3, &tag);
        // Checkpoint(1) and Checkpoint(64) agree with each other too.
        let p = plan(&circuit, &tb, threads, TracePolicy::Checkpoint(64));
        let run = Engine::new(&p).try_run_streamed(&p).unwrap();
        assert_eq!(run.digest(), reference.digest(), "trace policy must not change verdicts");
    }
}

#[test]
fn multi_leg_resume_chain_matches() {
    // Interrupt *repeatedly*: 2 chunks per leg until done, each leg a
    // fresh resume from the previous leg's checkpoint.
    let (circuit, tb) = fixture();
    let reference = {
        let p = plan(&circuit, &tb, 2, TracePolicy::Checkpoint(1));
        Engine::new(&p).try_run_streamed(&p).unwrap()
    };
    let path = ckpt_path("chain");
    let p = plan(&circuit, &tb, 2, TracePolicy::Checkpoint(1));
    let engine = Engine::new(&p);

    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.every = 1;
    opts.limit = Some(2);
    let mut run = resumable(&engine, &p, &opts).expect("leg 0");
    let mut legs = 1usize;
    while !run.is_complete() {
        let mut next = ResumeOptions::resume_from(&path);
        next.every = 1;
        next.limit = Some(2);
        run = resumable(&engine, &p, &next).expect("resume leg");
        legs += 1;
        assert!(legs < 1000, "resume chain must terminate");
    }
    std::fs::remove_file(&path).ok();
    assert!(legs > 3, "fixture must need several legs, took {legs}");
    assert_eq!(run.sink.digest(), reference.digest());
    assert_eq!(run.sink.summary(), reference.summary());
}

#[test]
fn cancellation_drains_and_checkpoint_resumes() {
    // A cancel token tripped before the run starts: zero chunks complete,
    // the checkpoint is written, and a resume finishes the whole thing.
    let (circuit, tb) = fixture();
    let reference = {
        let p = plan(&circuit, &tb, 4, TracePolicy::Checkpoint(1));
        Engine::new(&p).try_run_streamed(&p).unwrap()
    };
    let path = ckpt_path("cancel");
    let p = plan(&circuit, &tb, 4, TracePolicy::Checkpoint(1));
    let engine = Engine::new(&p);

    let token = CancelToken::new();
    token.cancel();
    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.cancel = Some(token);
    let stopped = resumable(&engine, &p, &opts).expect("cancelled leg");
    assert!(stopped.interrupted);
    assert_eq!(stopped.chunks_done, 0);

    let resumed = resumable(&engine, &p, &ResumeOptions::resume_from(&path))
        .expect("resume after cancel");
    std::fs::remove_file(&path).ok();
    assert!(resumed.is_complete());
    assert_eq!(resumed.sink.digest(), reference.digest());
}

#[test]
fn mismatched_checkpoint_is_rejected_per_field() {
    // A checkpoint from one campaign must not resume another: vary the
    // circuit, the bench and the trace policy; every mismatch must be a
    // structured error, never a panic or a silent wrong digest.
    let (circuit, tb) = fixture();
    let path = ckpt_path("mismatch");
    let p = plan(&circuit, &tb, 1, TracePolicy::Checkpoint(1));
    let engine = Engine::new(&p);
    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.limit = Some(1);
    resumable(&engine, &p, &opts).expect("seed checkpoint");

    // Different circuit, same dimensions.
    let other = generators::counter(12);
    let p2 = CampaignPlan::builder(&other, &tb)
        .policy(ShardPolicy { threads: 1, serial_below: 0 })
        .build();
    let err = resumable(&Engine::new(&p2), &p2, &ResumeOptions::resume_from(&path))
        .expect_err("foreign circuit must be rejected");
    assert!(matches!(err, EngineError::Resume(ResumeError::Mismatch { .. })), "{err}");

    // Different bench (the fixture has no inputs, so vary the length —
    // the stimuli digest itself is covered by the engine's unit tests).
    let tb2 = Testbench::random(circuit.num_inputs(), 44, 1234);
    let p3 = plan(&circuit, &tb2, 1, TracePolicy::Checkpoint(1));
    let err = resumable(&Engine::new(&p3), &p3, &ResumeOptions::resume_from(&path))
        .expect_err("foreign bench must be rejected");
    assert!(matches!(err, EngineError::Resume(ResumeError::Mismatch { .. })), "{err}");

    // Different trace policy.
    let p4 = plan(&circuit, &tb, 1, TracePolicy::Checkpoint(8));
    let err = resumable(&Engine::new(&p4), &p4, &ResumeOptions::resume_from(&path))
        .expect_err("foreign trace policy must be rejected");
    assert!(matches!(err, EngineError::Resume(ResumeError::Mismatch { field: "trace policy", .. })), "{err}");

    std::fs::remove_file(&path).ok();
}

/// A sink that panics mid-chunk a configured number of times, then
/// behaves like the standard accumulator — the workload-level way to
/// inject worker panics into the streamed path.
mod panicky {
    use std::collections::HashSet;
    use std::sync::Mutex;

    use seugrade::prelude::*;

    /// What the sink injects: nothing, one panic per listed cycle (a
    /// fired cycle is removed so the pool's retry of that chunk
    /// succeeds), or a panic on every observe (budget exhaustion).
    #[derive(Debug, Default)]
    pub enum Injection {
        #[default]
        Off,
        Once(HashSet<u32>),
        Always,
    }

    pub static INJECTION: Mutex<Injection> = Mutex::new(Injection::Off);

    /// Serializes the tests that program [`PANIC_CYCLES`] — they run in
    /// one process and must not see each other's injections.
    pub static INJECTION_LOCK: Mutex<()> = Mutex::new(());

    #[derive(Clone, Debug, Default)]
    pub struct PanickySink(pub StreamAccumulator);

    impl VerdictSink for PanickySink {
        fn observe(&mut self, fault: Fault, outcome: FaultOutcome) {
            // Panic *after* folding some state, so containment must also
            // discard the chunk-local partial fold.
            self.0.observe(fault, outcome);
            let fire = {
                let mut mode = INJECTION.lock().unwrap_or_else(|e| e.into_inner());
                match &mut *mode {
                    Injection::Off => false,
                    Injection::Once(set) => set.remove(&fault.cycle),
                    Injection::Always => true,
                }
            };
            if fire {
                panic!("injected fault-grading panic");
            }
        }

        fn merge(&mut self, other: Self) {
            self.0.merge(other.0);
        }
    }

    impl PersistentSink for PanickySink {
        fn save_lines(&self, out: &mut Vec<String>) {
            self.0.save_lines(out);
        }

        fn restore_lines(lines: &[String], base_line: usize) -> Result<Self, ResumeError> {
            StreamAccumulator::restore_lines(lines, base_line).map(PanickySink)
        }
    }
}

#[test]
fn injected_worker_panics_are_retried_to_the_reference_digest() {
    use panicky::{Injection, PanickySink, INJECTION, INJECTION_LOCK};
    let _guard = INJECTION_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (circuit, tb) = fixture();
    let reference = {
        let p = plan(&circuit, &tb, 4, TracePolicy::Checkpoint(1));
        Engine::new(&p).try_run_streamed(&p).unwrap()
    };
    let p = plan(&circuit, &tb, 4, TracePolicy::Checkpoint(1));
    let engine = Engine::new(&p);
    // Chunks at cycles 3, 17 and 31 panic on their first attempt only:
    // each is requeued, retried on a rebuilt scratch, and succeeds
    // within the default retry budget — so the campaign completes.
    *INJECTION.lock().unwrap_or_else(|e| e.into_inner()) =
        Injection::Once([3u32, 17, 31].into_iter().collect());
    let run = engine
        .run_streamed_resumable_with::<PanickySink>(&p, &ResumeOptions::default())
        .expect("retries must absorb the injected panics");
    let mut mode = INJECTION.lock().unwrap_or_else(|e| e.into_inner());
    match std::mem::take(&mut *mode) {
        Injection::Once(leftover) => {
            assert!(leftover.is_empty(), "all injections fired, left {leftover:?}");
        }
        other => panic!("injection mode clobbered: {other:?}"),
    }
    drop(mode);
    assert!(run.is_complete());
    assert_eq!(run.sink.0.digest(), reference.digest(), "retried chunks must not double-fold");
    assert_eq!(run.sink.0.summary(), reference.summary());
}

#[test]
fn exhausted_retry_budget_is_a_structured_error() {
    use panicky::{Injection, PanickySink, INJECTION, INJECTION_LOCK};
    let _guard = INJECTION_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (circuit, tb) = fixture();
    let p = plan(&circuit, &tb, 2, TracePolicy::Checkpoint(1));
    let engine = Engine::new(&p);
    // Every observe panics: the first chunk burns through its whole
    // retry budget and must surface WorkerPanic instead of hanging or
    // aborting the process.
    *INJECTION.lock().unwrap_or_else(|e| e.into_inner()) = Injection::Always;
    let err = engine
        .run_streamed_resumable_with::<PanickySink>(&p, &ResumeOptions::default())
        .expect_err("budget exhaustion must surface");
    *INJECTION.lock().unwrap_or_else(|e| e.into_inner()) = Injection::Off;
    match err {
        EngineError::WorkerPanic { attempts, message, .. } => {
            assert!(attempts >= 1);
            assert!(message.contains("injected"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn collapse_and_cache_settings_resume_across_each_other() {
    // Early collapse and the window cache are work optimisations outside
    // the resume fingerprint: a campaign interrupted under one
    // (collapse, cache, threads) configuration must resume under a
    // *different* one to the exact uninterrupted digest.
    let (circuit, tb) = fixture();
    let reference = {
        let p = plan(&circuit, &tb, 1, TracePolicy::Checkpoint(8));
        Engine::new(&p).try_run_streamed(&p).unwrap()
    };
    let legs = [
        // (first collapse, first cache, resume collapse, resume cache)
        (Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS, Collapse::Horizon, 0),
        (Collapse::Horizon, 0, Collapse::Early, 64),
        (Collapse::Early, 1, Collapse::Early, 0),
    ];
    for (i, (c1, w1, c2, w2)) in legs.into_iter().enumerate() {
        let path = ckpt_path(&format!("collapse-leg{i}"));
        let first_plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy { threads: 2, serial_below: 0 })
            .trace_policy(TracePolicy::Checkpoint(8))
            .collapse(c1)
            .window_cache(w1)
            .build();
        let mut first = ResumeOptions::checkpoint_to(&path);
        first.every = 1;
        first.limit = Some(3);
        resumable(&Engine::new(&first_plan), &first_plan, &first)
            .expect("first leg");

        let second_plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy { threads: 8, serial_below: 0 })
            .trace_policy(TracePolicy::Checkpoint(8))
            .collapse(c2)
            .window_cache(w2)
            .build();
        let second_engine = Engine::new(&second_plan);
        let resumed = resumable(&second_engine, &second_plan, &ResumeOptions::resume_from(&path))
            .expect("resume leg under different collapse/cache settings");
        std::fs::remove_file(&path).ok();
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.sink.digest(),
            reference.digest(),
            "leg {i}: {}+cache {w1} resumed as {}+cache {w2}",
            c1.label(),
            c2.label(),
        );
        assert_eq!(resumed.sink.summary(), reference.summary());
    }
}

#[test]
fn sampled_campaign_resumes_identically() {
    let (circuit, tb) = fixture();
    let build = |threads| {
        CampaignPlan::builder(&circuit, &tb)
            .sampled(200, 7)
            .policy(ShardPolicy { threads, serial_below: 0 })
            .build()
    };
    let reference = {
        let p = build(1);
        Engine::new(&p).try_run_streamed(&p).unwrap()
    };
    for threads in [1, 4] {
        let path = ckpt_path(&format!("sampled-t{threads}"));
        let p = build(threads);
        let engine = Engine::new(&p);
        let mut opts = ResumeOptions::checkpoint_to(&path);
        opts.every = 2;
        opts.limit = Some(3);
        resumable(&engine, &p, &opts).expect("sampled first leg");
        let resumed = resumable(&engine, &p, &ResumeOptions::resume_from(&path))
            .expect("sampled resume");
        std::fs::remove_file(&path).ok();
        assert!(resumed.is_complete());
        assert_eq!(resumed.sink.digest(), reference.digest());
        assert_eq!(resumed.sink.summary(), reference.summary());
    }
}

/// The exhaustive walk grades cycles downwards, and a lane may inherit
/// the verdict of an upset graded one or two cycles later. A run that
/// stops in the middle of a cycle resumes with an empty verdict window,
/// so the rest of that cycle finds nothing to inherit and simulates on:
/// the digest is still the uninterrupted one, and the oracle's, at 1
/// and 4 threads.
#[test]
fn exhaustive_walk_stopped_mid_cycle_resumes_identically() {
    let circuit = registry::build("b14c").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 12, 4);
    let per_cycle = circuit.num_ffs().div_ceil(64);
    assert!(per_cycle > 2, "{per_cycle} chunks per cycle");
    let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
    let oracle = Oracle::new(&circuit, &tb).run(faults.as_slice());
    let oracle_digest = StreamAccumulator::digest_of(faults.as_slice(), &oracle);
    for threads in [1, 4] {
        let p = plan(&circuit, &tb, threads, TracePolicy::Checkpoint(5));
        let engine = Engine::new(&p);
        let reference = engine.try_run_streamed(&p).unwrap();
        assert_eq!(reference.digest(), oracle_digest, "{threads} threads");
        let path = ckpt_path(&format!("exhaustive-mid-cycle-t{threads}"));
        let mut opts = ResumeOptions::checkpoint_to(&path);
        opts.every = 1;
        // The whole last cycle and two chunks of the one before it.
        opts.limit = Some(per_cycle + 2);
        let partial = resumable(&engine, &p, &opts).expect("first leg");
        assert_eq!(partial.faults_done, circuit.num_ffs() + 128);
        let resumed = resumable(&engine, &p, &ResumeOptions::resume_from(&path))
            .expect("exhaustive resume");
        std::fs::remove_file(&path).ok();
        assert!(resumed.is_complete());
        assert_eq!(resumed.resumed_from, per_cycle + 2);
        assert_eq!(resumed.sink.digest(), reference.digest(), "{threads} threads");
        assert_eq!(resumed.sink.summary(), reference.summary());
    }
}

/// Grades `plan` in rounds of `round` chunks two ways and checks that
/// they write the same checkpoint bytes after every round and end on
/// the one-shot digest: through one kept [`CampaignState`], and as a
/// cold resume per round (a fresh engine, the checkpoint loaded from
/// the file), the way a daemon restart or a benchmark replay grades.
/// Before the kept state's `stall_at`-th round, it also advances once
/// with a tripped cancel token: a job cancelled while queued and then
/// resumed keeps its state, and the stalled advance grades nothing.
fn kept_state_matches_cold_resume(
    plan: &CampaignPlan<'_>,
    round: usize,
    stall_at: usize,
    tag: &str,
) {
    let engine = Engine::new(plan);
    let reference = engine.try_run_streamed(plan).unwrap();
    let kept_path = ckpt_path(&format!("{tag}-kept"));
    let cold_path = ckpt_path(&format!("{tag}-cold"));
    std::fs::remove_file(&cold_path).ok();
    let rounds = |path: &std::path::Path| {
        let mut opts = ResumeOptions::checkpoint_to(path);
        opts.every = round;
        opts.limit = Some(round);
        opts
    };
    let opts = rounds(&kept_path);
    let mut state = CampaignState::<CampaignSink>::new(&engine, plan, &opts).unwrap();
    for i in 0.. {
        if i == stall_at {
            let before = std::fs::read(&kept_path).ok();
            let token = CancelToken::new();
            token.cancel();
            let stall = ResumeOptions { cancel: Some(token), ..rounds(&kept_path) };
            let stalled = state.advance(&engine, plan, &stall).unwrap();
            assert!(stalled.interrupted && stalled.chunks_done == stalled.resumed_from);
            if let Some(before) = before {
                let after = std::fs::read(&kept_path).unwrap();
                assert_eq!(after, before, "{tag}: a stall rewrites the same cursor");
            }
        }
        let kept = state.advance(&engine, plan, &opts).unwrap();
        let (kept_done, kept_complete) = (kept.chunks_done, kept.is_complete());
        let kept_digest = kept.sink.digest();

        let cold_engine = Engine::new(plan);
        let cold_opts = ResumeOptions { resume: cold_path.exists(), ..rounds(&cold_path) };
        let cold =
            cold_engine.run_streamed_resumable_with::<CampaignSink>(plan, &cold_opts).unwrap();
        assert_eq!(cold.chunks_done, kept_done, "{tag}: round {i}");
        assert_eq!(
            std::fs::read(&kept_path).unwrap(),
            std::fs::read(&cold_path).unwrap(),
            "{tag}: checkpoint bytes after round {i}"
        );
        if kept_complete {
            assert!(cold.is_complete());
            assert_eq!(kept_digest, reference.digest(), "{tag}");
            assert_eq!(cold.sink.digest(), reference.digest(), "{tag}");
            break;
        }
    }
    std::fs::remove_file(&kept_path).ok();
    std::fs::remove_file(&cold_path).ok();
}

#[test]
fn a_kept_campaign_state_writes_what_a_cold_resume_writes() {
    let circuit = registry::build("b14c").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 12, 4);
    for (label, source) in [
        ("exhaustive", FaultSource::Exhaustive),
        ("sampled", FaultSource::Sampled { count: 1500, seed: 3 }),
    ] {
        for threads in [1, 2] {
            for round in [1, 4, 16] {
                let plan = CampaignPlan::builder(&circuit, &tb)
                    .source(source.clone())
                    .policy(ShardPolicy { threads, serial_below: 0 })
                    .build();
                let tag = format!("kept-{label}-t{threads}-r{round}");
                kept_state_matches_cold_resume(&plan, round, 1, &tag);
            }
        }
    }
}
