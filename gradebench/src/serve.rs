//! The serve workload: an in-process daemon with one worker, and two
//! client connections submitting in closed-loop waves.
//!
//! Each wave, both clients submit one job and wait for its terminal
//! event on `Client::stream`; the reference kernel runs between waves,
//! while the daemon is idle. Every job spans many rounds, and every
//! round rebuilds the engine and reloads and rewrites the job's
//! checkpoint, so per-round overhead and two-tenant round-robin
//! scheduling are what this workload measures.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use gradebench_ref::normalise;
use seugrade_emulation::CampaignSink;
use seugrade_engine::{Checkpoint, Engine, ResumeOptions};
use seugrade_faultsim::{FaultClass, GradingSummary};
use seugrade_serve::json::{self, Value};
use seugrade_serve::proto::digest_hex;
use seugrade_serve::{
    build_plan, reference_run, Client, Job, JobSpec, Server, ServerConfig, Spool,
};
use seugrade_sim::{CompiledSim, TracePolicy};

use crate::spans::Spans;
use crate::stats::median;
use crate::{derive_seed, Args, Clock, Report, Timed};

/// Faults graded per job.
const SAMPLE: usize = 2048;
/// Client connections, each with one job in flight per wave.
const CLIENTS: usize = 2;
/// Distinct job specs (seeds) the clients cycle through; each has its
/// solo reference digest computed before timing starts.
const SPECS: usize = 4;
/// Daemon start-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 15;
/// Jobs whose rounds the traced run replays outside the daemon.
const REPLAYS: usize = 3;

/// One job: s5378g, 256 vectors, 2048 sampled faults, 16-chunk rounds.
fn spec(seed: u64, i: usize) -> JobSpec {
    let mut spec = JobSpec::registry("s5378g");
    spec.vectors = 256;
    // The protocol carries numbers as JSON doubles: keep seeds exact.
    spec.seed = derive_seed(seed, 10 + i as u64) >> 16;
    spec.sample = Some(SAMPLE);
    spec.trace_policy = TracePolicy::Checkpoint(64);
    spec.threads = 1;
    spec.round = 16;
    spec
}

/// A fresh, empty spool directory under the run's work directory.
fn fresh_dir(args: &Args, tag: &str) -> Result<PathBuf, String> {
    let dir = args
        .work
        .join(format!("spool-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    Ok(dir)
}

/// The daemon's own start-up: `Server::bind` (spool scan, scheduler and
/// worker, listener) in `spool`.
fn bind(spool: &Path) -> Result<Server, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        spool: spool.to_owned(),
    };
    Server::bind(&config).map_err(|e| format!("binding the daemon: {e}"))
}

/// The first answered `ping`, on a fresh connection.
fn first_ping(server: &Server) -> Result<(), String> {
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))
}

/// What a user waits for before the first answer, `Server::bind` through
/// the first answered `ping`, in a fresh spool; the daemon is shut down
/// afterwards. Returns `(ref-seconds, host seconds)`. Only the bind is
/// host work and normalised: the ping mostly waits out the accept loop's
/// poll interval, a sleep, so it is added in host seconds.
fn timed_start_up(args: &Args, clock: &mut Clock, i: usize) -> Result<(f64, f64), String> {
    let dir = fresh_dir(args, &format!("setup{i}"))?;
    let (server, bound) = clock.time(|| bind(&dir));
    let server = server?;
    let start = Instant::now();
    let pinged = first_ping(&server);
    let ping_s = start.elapsed().as_secs_f64();
    drop(server);
    let _ = fs::remove_dir_all(&dir);
    pinged?;
    Ok((bound.norm() + ping_s, bound.raw_s + ping_s))
}

/// One job as a client saw it.
struct JobRecord {
    /// When `submit` was sent.
    start: Instant,
    /// From `submit` sent to the terminal event received, with the
    /// wave's reference.
    latency: Timed,
    ok: bool,
    traced: bool,
    /// Index of the job's spec.
    spec: usize,
    submit_rtt_s: f64,
    queue_wait_s: Option<f64>,
    events: usize,
    event_bytes: usize,
    state_events: usize,
    /// Grading wall time the daemon spent on the job, from its
    /// `result.json`.
    wall_s: f64,
}

/// Submits `spec`, streams its events until the terminal one, and
/// checks the verdict against the solo reference.
fn one_job(
    client: &mut Client,
    spool: &Spool,
    spec: &JobSpec,
    expected: &(u64, GradingSummary),
    traced: bool,
    spec_no: usize,
    ref_s: f64,
) -> Result<JobRecord, String> {
    let start = Instant::now();
    let id = client.submit(spec).map_err(|e| format!("submit: {e}"))?;
    let submit_rtt_s = start.elapsed().as_secs_f64();
    let (mut events, mut event_bytes, mut state_events, mut queue_wait_s) = (0, 0, 0, None);
    let terminal = client
        .stream(&id, |ev| {
            events += 1;
            if traced {
                event_bytes += ev.to_line().len() + 1;
            }
            match ev.get("event").and_then(Value::as_str) {
                Some("chunk") if queue_wait_s.is_none() => {
                    queue_wait_s = Some(start.elapsed().as_secs_f64());
                }
                Some("state") => state_events += 1,
                _ => {}
            }
        })
        .map_err(|e| format!("stream {id}: {e}"))?;
    let latency = Timed {
        raw_s: start.elapsed().as_secs_f64(),
        ref_s,
    };
    let count = |key: &str| terminal.get(key).and_then(Value::as_usize);
    let (digest, summary) = expected;
    let ok = terminal.get("event").and_then(Value::as_str) == Some("done")
        && terminal.get("digest").and_then(Value::as_str) == Some(digest_hex(*digest).as_str())
        && count("failures") == Some(summary.count(FaultClass::Failure))
        && count("latents") == Some(summary.count(FaultClass::Latent))
        && count("silents") == Some(summary.count(FaultClass::Silent));
    let wall_s = if traced {
        let text = fs::read_to_string(spool.result_path(&id))
            .map_err(|e| format!("reading the result of {id}: {e}"))?;
        let result = json::parse(&text).map_err(|e| format!("result of {id}: {e}"))?;
        result.get("wall_ns").and_then(Value::as_u64).unwrap_or(0) as f64 * 1e-9
    } else {
        0.0
    };
    Ok(JobRecord {
        start,
        latency,
        ok,
        traced,
        spec: spec_no,
        submit_rtt_s,
        queue_wait_s,
        events,
        event_bytes,
        state_events,
        wall_s,
    })
}

/// Shared by the wave loop and the client threads.
struct Waves<'a> {
    barrier: Barrier,
    stop: AtomicBool,
    /// The current wave's reference time, as `f64` bits.
    ref_bits: AtomicU64,
    specs: &'a [(JobSpec, (u64, GradingSummary))],
    spool: &'a Spool,
    addr: std::net::SocketAddr,
    trace: bool,
}

/// One client connection: a job per wave until told to stop. A failed
/// job is recorded, never allowed to wedge the wave barrier.
fn client_loop(w: &Waves<'_>, client_no: usize) -> Vec<JobRecord> {
    let mut client = Client::connect(w.addr).map_err(|e| format!("connecting: {e}"));
    let mut records = Vec::new();
    for wave in 0.. {
        w.barrier.wait();
        if w.stop.load(Ordering::SeqCst) {
            break;
        }
        let ref_s = f64::from_bits(w.ref_bits.load(Ordering::SeqCst));
        // Waves are traced in pairs, out of phase with the spec rotation,
        // so every spec is graded both traced and untraced.
        let traced = w.trace && (wave / 2) % 2 == 1;
        let spec_no = (wave * CLIENTS + client_no) % SPECS;
        let (spec, expected) = &w.specs[spec_no];
        let start = Instant::now();
        let record = client
            .as_mut()
            .map_err(|e| e.clone())
            .and_then(|c| one_job(c, w.spool, spec, expected, traced, spec_no, ref_s));
        records.push(record.unwrap_or_else(|e| {
            eprintln!("serve job failed: {e}");
            JobRecord {
                start,
                latency: Timed {
                    raw_s: start.elapsed().as_secs_f64(),
                    ref_s,
                },
                ok: false,
                traced,
                spec: spec_no,
                submit_rtt_s: 0.0,
                queue_wait_s: None,
                events: 0,
                event_bytes: 0,
                state_events: 0,
                wall_s: 0.0,
            }
        }));
        w.barrier.wait();
    }
    records
}

/// Runs the serve workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut clock = Clock::default();
    let specs = (0..SPECS)
        .map(|i| {
            let spec = spec(args.seed, i);
            reference_run(&spec).map(|expected| (spec, expected))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let dir = fresh_dir(args, "waves")?;
    let spool = Spool::open(&dir).map_err(|e| format!("opening the spool: {e}"))?;
    let server = bind(&dir)?;
    let waves = Waves {
        barrier: Barrier::new(CLIENTS + 1),
        stop: AtomicBool::new(false),
        ref_bits: AtomicU64::new(0),
        specs: &specs,
        spool: &spool,
        addr: server.local_addr(),
        trace: args.trace,
    };
    // Daemon start-ups are spread over the run, between waves, so their
    // median sees the same host as the jobs.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_error = None;
    let mut wave_times = Vec::new();
    let start = Instant::now();
    let jobs: Vec<JobRecord> = thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn({
                    let waves = &waves;
                    move || client_loop(waves, c)
                })
            })
            .collect();
        let deadline = start + args.seconds;
        while wave_times.is_empty() || Instant::now() < deadline || setups.len() < SETUPS {
            if setups.len() < SETUPS
                && start.elapsed() >= args.seconds.mul_f64(setups.len() as f64 / SETUPS as f64)
            {
                match timed_start_up(args, &mut clock, setups.len()) {
                    Ok(timed) => setups.push(timed),
                    Err(e) => {
                        setup_error = Some(e);
                        break;
                    }
                }
            }
            let ref_s = clock.measure_reference();
            waves.ref_bits.store(ref_s.to_bits(), Ordering::SeqCst);
            let start = Instant::now();
            waves.barrier.wait();
            waves.barrier.wait();
            wave_times.push(Timed {
                raw_s: start.elapsed().as_secs_f64(),
                ref_s,
            });
        }
        waves.stop.store(true, Ordering::SeqCst);
        waves.barrier.wait();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    drop(server);
    if let Some(e) = setup_error {
        return Err(e);
    }

    let mut report = Report {
        attempted: jobs.len(),
        failed: jobs.iter().filter(|j| !j.ok).count(),
        ..Report::default()
    };
    report.correct = report.failed == 0;
    if args.trace {
        let mut spans = Spans::new();
        record_job_spans(&mut spans, &jobs);
        let replays = replay_rounds(args, &specs, &mut clock, &mut spans)?;
        let path = args.trace_path();
        spans
            .write(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        report.detail("spans", Value::str(path.display().to_string()));
        report.correct &= replays.iter().all(|r| r.digest_ok);
        layer_metrics(&mut report, &clock, &jobs, &wave_times, &replays);
    } else {
        let rates: Vec<f64> = wave_times
            .iter()
            .map(|t| CLIENTS as f64 / t.norm())
            .collect();
        let raw: Vec<f64> = wave_times
            .iter()
            .map(|t| CLIENTS as f64 / t.raw_s)
            .collect();
        report.e2e(
            "faults_per_s",
            median(&rates) * SAMPLE as f64,
            median(&raw) * SAMPLE as f64,
        );
        report.e2e("jobs_per_s", median(&rates), median(&raw));
        report.setup(&setups);
        report.latency(&jobs.iter().map(|j| j.latency).collect::<Vec<_>>());
    }
    report.detail("waves", Value::count(wave_times.len()));
    report.detail("ref_s_median", Value::num(median(&clock.refs)));
    let _ = fs::remove_dir_all(&dir);
    Ok(report)
}

/// The work whose peak memory `peak_rss_mib` reports: a daemon grading
/// one job to completion. (The run itself checks every job's digest.)
pub fn peak_memory_probe(args: &Args) -> Result<(), String> {
    let dir = fresh_dir(args, "rss")?;
    let server = bind(&dir)?;
    first_ping(&server)?;
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    let id = client
        .submit(&spec(args.seed, 0))
        .map_err(|e| format!("submit: {e}"))?;
    let terminal = client
        .stream(&id, |_| {})
        .map_err(|e| format!("stream {id}: {e}"))?;
    drop(server);
    let _ = fs::remove_dir_all(&dir);
    match terminal.get("event").and_then(Value::as_str) {
        Some("done") => Ok(()),
        other => Err(format!("the memory probe's job ended {other:?}")),
    }
}

/// Client-side spans of the traced waves' jobs: the job from `submit`
/// sent to its terminal event, the submit round trip, and the wait for
/// the first chunk event. Ids start at 1000, clear of the replays'.
fn record_job_spans(spans: &mut Spans, jobs: &[JobRecord]) {
    let at = |start: Instant, s: f64| start + Duration::from_secs_f64(s);
    for (i, j) in jobs.iter().enumerate().filter(|(_, j)| j.traced) {
        let id = 1000 + i as u32;
        let job = spans.record("serve.job", id, None, j.start, at(j.start, j.latency.raw_s));
        let sent = at(j.start, j.submit_rtt_s);
        spans.record("serve.submit", id, Some(job), j.start, sent);
        if let Some(wait) = j.queue_wait_s {
            spans.record("serve.queue_wait", id, Some(job), sent, at(j.start, wait));
        }
    }
}

/// Per-job layer costs of one job's rounds, replayed outside the daemon.
struct Replay {
    /// Host seconds per layer, summed over the job's rounds.
    rebuild_s: f64,
    compile_s: f64,
    golden_s: f64,
    load_s: f64,
    write_s: f64,
    checkpoint_bytes: f64,
    ref_s: f64,
    digest_ok: bool,
}

/// Replays jobs the way a daemon worker grades them: per round, rebuild
/// the plan and engine, resume from the job's checkpoint, grade one
/// round and checkpoint. The checkpoint is also loaded, and written to a
/// second file, by separate timed calls, since the engine does both
/// inside the round.
fn replay_rounds(
    args: &Args,
    specs: &[(JobSpec, (u64, GradingSummary))],
    clock: &mut Clock,
    spans: &mut Spans,
) -> Result<Vec<Replay>, String> {
    let dir = fresh_dir(args, "replay")?;
    let mut replays = Vec::new();
    for (id, (spec, expected)) in specs.iter().take(REPLAYS).enumerate() {
        let id = id as u32;
        let job = Job::build(format!("replay{id}"), spec.clone())?;
        let ckpt = dir.join(format!("replay{id}.ckpt"));
        let copy = dir.join(format!("replay{id}.copy.ckpt"));
        let ref_s = clock.measure_reference();
        let (mut load_s, mut write_s) = (0.0, 0.0);
        let (mut rebuild_s, mut compile_s, mut engine_s) = (0.0, 0.0, 0.0);
        let (digest, checkpoint_bytes) = loop {
            let round = spans.open("serve.round", id, None);
            let start = Instant::now();
            let plan = build_plan(&job.spec, &job.circuit, &job.testbench);
            let built = Instant::now();
            let engine = Engine::new(&plan);
            let end = Instant::now();
            spans.record("engine.rebuild", id, Some(round), start, end);
            rebuild_s += (end - start).as_secs_f64();
            engine_s += (end - built).as_secs_f64();
            let t = Instant::now();
            spans.time("sim.compile", id, Some(round), || {
                std::hint::black_box(CompiledSim::new(&job.circuit))
            });
            compile_s += t.elapsed().as_secs_f64();
            let resume = ckpt.exists();
            if resume {
                let t = Instant::now();
                spans
                    .time("engine.checkpoint_load", id, Some(round), || {
                        Checkpoint::load(&ckpt)
                    })
                    .map_err(|e| format!("loading {ckpt:?}: {e}"))?;
                load_s += t.elapsed().as_secs_f64();
            }
            let mut opts = ResumeOptions::checkpoint_to(&ckpt);
            opts.every = job.spec.round;
            opts.limit = Some(job.spec.round);
            opts.resume = resume;
            let run = spans
                .time("engine.round", id, Some(round), || {
                    engine.run_streamed_resumable_with::<CampaignSink>(&plan, &opts)
                })
                .map_err(|e| format!("replayed round: {e}"))?;
            let written = Checkpoint::load(&ckpt).map_err(|e| format!("loading {ckpt:?}: {e}"))?;
            let t = Instant::now();
            spans
                .time("engine.checkpoint_write", id, Some(round), || {
                    written.write_atomic(&copy)
                })
                .map_err(|e| format!("writing {copy:?}: {e}"))?;
            write_s += t.elapsed().as_secs_f64();
            let bytes = fs::metadata(&ckpt)
                .map_err(|e| format!("{ckpt:?}: {e}"))?
                .len();
            spans.close(round);
            if run.is_complete() {
                break (run.sink.digest(), bytes as f64);
            }
        };
        replays.push(Replay {
            rebuild_s,
            compile_s,
            golden_s: engine_s - compile_s,
            load_s,
            write_s,
            checkpoint_bytes,
            ref_s,
            digest_ok: digest == expected.0,
        });
    }
    let _ = fs::remove_dir_all(&dir);
    Ok(replays)
}

/// Per-layer metrics of a traced serve run: the traced waves' client
/// view of each job, and the replayed rounds.
fn layer_metrics(
    report: &mut Report,
    clock: &Clock,
    jobs: &[JobRecord],
    waves: &[Timed],
    replays: &[Replay],
) {
    let traced: Vec<&JobRecord> = jobs.iter().filter(|j| j.traced).collect();
    let of = |js: &[&JobRecord], f: &dyn Fn(&JobRecord) -> f64| {
        median(&js.iter().map(|j| f(j)).collect::<Vec<_>>())
    };
    let norm = |j: &JobRecord, s: f64| normalise(s, j.latency.ref_s);
    let replayed = |f: &dyn Fn(&Replay) -> f64| {
        median(
            &replays
                .iter()
                .map(|r| normalise(f(r), r.ref_s))
                .collect::<Vec<_>>(),
        )
    };
    report.layer("host.ref_s", median(&clock.refs));
    report.layer(
        "host.raw_faults_per_s",
        median(
            &waves
                .iter()
                .map(|t| (CLIENTS * SAMPLE) as f64 / t.raw_s)
                .collect::<Vec<_>>(),
        ),
    );
    report.layer("sim.compile_s", replayed(&|r| r.compile_s));
    report.layer("sim.golden_s", replayed(&|r| r.golden_s));
    report.layer("engine.rebuild_s", replayed(&|r| r.rebuild_s));
    report.layer("engine.checkpoint_load_s", replayed(&|r| r.load_s));
    report.layer("engine.checkpoint_write_s", replayed(&|r| r.write_s));
    report.layer(
        "engine.checkpoint_bytes",
        median(
            &replays
                .iter()
                .map(|r| r.checkpoint_bytes)
                .collect::<Vec<_>>(),
        ),
    );
    report.layer(
        "serve.submit_rtt_s",
        of(&traced, &|j| norm(j, j.submit_rtt_s)),
    );
    report.layer(
        "serve.queue_wait_s",
        of(&traced, &|j| norm(j, j.queue_wait_s.unwrap_or(0.0))),
    );
    report.layer(
        "serve.rounds_per_job",
        of(&traced, &|j| (j.state_events + 1) as f64),
    );
    report.layer("serve.events_per_job", of(&traced, &|j| j.events as f64));
    report.layer(
        "serve.event_bytes_per_job",
        of(&traced, &|j| j.event_bytes as f64),
    );
    report.layer(
        "serve.grade_share",
        of(&traced, &|j| j.wall_s / j.latency.raw_s),
    );
    // Specs differ in bench and sample, so traced and untraced latencies
    // are compared spec by spec: the median of per-spec p50 ratios.
    let p50 = |traced: bool, spec: usize| {
        let of_spec: Vec<&JobRecord> = jobs
            .iter()
            .filter(|j| j.traced == traced && j.spec == spec)
            .collect();
        (!of_spec.is_empty()).then(|| of(&of_spec, &|j| j.latency.norm()))
    };
    let ratios: Vec<f64> = (0..SPECS)
        .filter_map(|spec| Some(p50(true, spec)? / p50(false, spec)?))
        .collect();
    report.layer("trace.overhead_share", median(&ratios) - 1.0);
    report.layer(
        "trace.digest_match",
        f64::from(u8::from(replays.iter().all(|r| r.digest_ok))),
    );
}
