//! The two batch workloads: one campaign graded again and again on the
//! calling thread, each repetition timed against a fresh reference.

use std::time::Instant;

use seugrade_circuits::registry;
use seugrade_engine::{CampaignPlan, Engine, StreamAccumulator, VerdictSink};
use seugrade_faultsim::{Fault, FaultList, FaultOutcome, GradingSummary};
use seugrade_netlist::{bench, import, FfIndex, Netlist, SourceFormat};
use seugrade_sim::{CompiledSim, Kernel, Testbench, TracePolicy};

use seugrade_serve::json::Value;

use crate::spans::Spans;
use crate::stats::median;
use crate::{derive_seed, Args, Clock, Report, Timed};

/// One batch campaign shape.
pub struct Batch {
    circuit: &'static str,
    vectors: usize,
    /// `Some(n)`: grade a seeded uniform sample of `n` faults.
    sample: Option<usize>,
    /// At least this many faults, in whole chunks of the campaign, are
    /// re-graded by `Grader::classify_serial` after timing.
    spot: usize,
}

/// The full fault space of the 1536-FF s5378g: every chunk is full, and
/// faulty evaluation plus compare/collapse is nearly all the work.
pub const EXHAUSTIVE: Batch = Batch {
    circuit: "s5378g",
    vectors: 128,
    sample: None,
    spot: 126,
};

/// A uniform 8192-fault sample of the 10,240-FF s38417g: about eight
/// faults share an injection cycle, so chunks run at ~8 of 63 lanes and
/// golden span replay, the sample draw and set-up carry real weight.
pub const SAMPLED: Batch = Batch {
    circuit: "s38417g",
    vectors: 1024,
    sample: Some(8192),
    spot: 48,
};

/// Golden-trace storage of every batch campaign.
const POLICY: TracePolicy = TracePolicy::Checkpoint(64);
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 9;

/// The program's inputs for one seed: the netlist text produced by the
/// repository's own `.bench` emitter and a seeded random test bench.
struct Inputs {
    text: String,
    tb: Testbench,
    sample_seed: u64,
}

impl Batch {
    fn inputs(&self, seed: u64) -> Result<Inputs, String> {
        let circuit = registry::build(self.circuit)
            .ok_or_else(|| format!("{} is not in the circuit registry", self.circuit))?;
        Ok(Inputs {
            text: bench::emit(&circuit),
            tb: Testbench::random(circuit.num_inputs(), self.vectors, derive_seed(seed, 1)),
            sample_seed: derive_seed(seed, 2),
        })
    }

    fn plan<'a>(
        &self,
        netlist: &'a Netlist,
        inputs: &'a Inputs,
        kernel: Kernel,
    ) -> CampaignPlan<'a> {
        let builder = CampaignPlan::builder(netlist, &inputs.tb)
            .trace_policy(POLICY)
            .threads(1)
            .kernel(kernel);
        match self.sample {
            Some(n) => builder.sampled(n, inputs.sample_seed),
            None => builder,
        }
        .build()
    }

    /// The faults the spot check re-grades: whole chunks of the
    /// campaign, so they are graded with as many lanes packed as in the
    /// timed runs. On the exhaustive space, adjacent full `lanes`-FF
    /// blocks at a seeded cycle; on a sample, every fault of its most
    /// populated injection cycles.
    fn spot_faults(
        &self,
        netlist: &Netlist,
        inputs: &Inputs,
        seed: u64,
        lanes: usize,
    ) -> Vec<Fault> {
        let (ffs, cycles) = (netlist.num_ffs(), inputs.tb.num_cycles());
        match self.sample {
            None => {
                let spot_seed = derive_seed(seed, 3);
                let cycle = (spot_seed % cycles as u64) as u32;
                let blocks = self.spot.div_ceil(lanes);
                let first = (spot_seed >> 32) as usize % (ffs / lanes + 1 - blocks);
                (first * lanes..(first + blocks) * lanes)
                    .map(|ff| Fault::new(FfIndex::new(ff), cycle))
                    .collect()
            }
            Some(n) => {
                let mut by_cycle = vec![Vec::new(); cycles];
                for &f in FaultList::sampled(ffs, cycles, n, inputs.sample_seed).as_slice() {
                    by_cycle[f.cycle as usize].push(f);
                }
                by_cycle.sort_by_key(|same_cycle| std::cmp::Reverse(same_cycle.len()));
                let mut spot = Vec::new();
                for same_cycle in by_cycle {
                    if spot.len() >= self.spot {
                        break;
                    }
                    spot.extend(same_cycle);
                }
                spot
            }
        }
    }
}

/// What the user waits for before the first verdict: import the
/// netlist text, then build the engine (compile and golden run).
fn set_up(batch: &Batch, inputs: &Inputs) -> Result<(Netlist, Engine), String> {
    let netlist = import::import_str(&inputs.text, SourceFormat::Bench)
        .map_err(|e| format!("import of {}: {e}", batch.circuit))?
        .netlist;
    let engine = Engine::new(&batch.plan(&netlist, inputs, Kernel::Auto));
    Ok((netlist, engine))
}

/// One timed [`set_up`], or [`traced_set_up`] when given spans.
fn timed_set_up(
    batch: &Batch,
    inputs: &Inputs,
    clock: &mut Clock,
    spans: Option<&mut Spans>,
    id: u32,
) -> Result<((Netlist, Engine), Timed), String> {
    let (built, timed) = match spans {
        Some(spans) => clock.time(|| traced_set_up(batch, inputs, spans, id)),
        None => clock.time(|| set_up(batch, inputs)),
    };
    Ok((built?, timed))
}

/// The verdict every repetition must reproduce.
#[derive(Clone, Debug, PartialEq)]
struct Verdict {
    digest: u64,
    summary: GradingSummary,
}

/// One untraced repetition: `Engine::try_run_streamed`, timed.
fn repetition(
    clock: &mut Clock,
    engine: &Engine,
    plan: &CampaignPlan<'_>,
) -> (Option<Verdict>, Timed, usize) {
    let (run, timed) = clock.time(|| engine.try_run_streamed(plan));
    match run {
        Ok(run) => {
            let faults = run.stats().faults;
            (
                Some(Verdict {
                    digest: run.digest(),
                    summary: run.summary().clone(),
                }),
                timed,
                faults,
            )
        }
        Err(e) => {
            eprintln!("repetition failed: {e}");
            (None, timed, 0)
        }
    }
}

/// Counts an op and returns whether it failed: an error, or a verdict
/// other than the first repetition's.
fn check(expected: &mut Option<Verdict>, got: Option<Verdict>) -> bool {
    match (got, expected.as_ref()) {
        (None, _) => true,
        (Some(v), None) => {
            *expected = Some(v);
            false
        }
        (Some(v), Some(e)) => v != *e,
    }
}

/// Re-grades a seeded subset of the campaign through the streamed
/// engine and through `Grader::classify_serial`; the digests must agree.
fn spot_check(
    engine: &Engine,
    netlist: &Netlist,
    tb: &Testbench,
    faults: &[Fault],
) -> Result<bool, String> {
    let list = FaultList::from_faults(faults.to_vec(), netlist.num_ffs(), tb.num_cycles());
    let plan = CampaignPlan::builder(netlist, tb)
        .trace_policy(POLICY)
        .threads(1)
        .faults(list)
        .build();
    let streamed = engine
        .try_run_streamed(&plan)
        .map_err(|e| format!("spot check: {e}"))?;
    let serial: Vec<FaultOutcome> = faults
        .iter()
        .map(|&f| engine.grader().classify_serial(f))
        .collect();
    Ok(streamed.digest() == StreamAccumulator::digest_of(faults, &serial))
}

/// Runs a batch workload: set-ups, timed repetitions, then the checks.
pub fn run(batch: &Batch, args: &Args) -> Result<Report, String> {
    let inputs = batch.inputs(args.seed)?;
    let mut clock = Clock::default();
    let mut spans = Spans::new();

    // Set-ups are spread over the run, so their median sees the same host
    // as the repetitions; the first builds the engine they grade with.
    let start = Instant::now();
    let due = |done: usize| args.seconds.mul_f64(done as f64 / SETUPS as f64);
    let ((netlist, engine), first) = timed_set_up(
        batch,
        &inputs,
        &mut clock,
        args.trace.then_some(&mut spans),
        0,
    )?;
    let mut setups = vec![first];
    let plan = batch.plan(&netlist, &inputs, Kernel::Auto);

    let mut report = Report::default();
    let mut expected = None;
    let mut reps = Vec::new();
    let mut faults = 0;
    let mut traced = Vec::new();
    let deadline = start + args.seconds;
    while reps.is_empty() || Instant::now() < deadline || setups.len() < SETUPS {
        if setups.len() < SETUPS && start.elapsed() >= due(setups.len()) {
            let id = setups.len() as u32;
            let (_, timed) = timed_set_up(
                batch,
                &inputs,
                &mut clock,
                args.trace.then_some(&mut spans),
                id,
            )?;
            setups.push(timed);
        }
        let (verdict, timed, n) = repetition(&mut clock, &engine, &plan);
        report.attempted += 1;
        report.failed += usize::from(check(&mut expected, verdict));
        reps.push(timed);
        faults = faults.max(n);
        if args.trace {
            let id = traced.len() as u32;
            let ((acc, counters), timed) =
                clock.time(|| traced_repetition(batch, &engine, &plan, &inputs, &mut spans, id));
            let verdict = Verdict {
                digest: acc.digest(),
                summary: acc.summary().clone(),
            };
            traced.push((timed, counters, Some(verdict) == expected));
        }
    }

    let lanes = engine.grader().chunk_lanes();
    let spot = batch.spot_faults(&netlist, &inputs, args.seed, lanes);
    let spot_ok = spot_check(&engine, &netlist, &inputs.tb, &spot)?;
    // The whole campaign once more, untimed, on the generic interpreter
    // kernel: an oracle for the default kernel's fully packed chunks.
    let generic = engine
        .try_run_streamed(&batch.plan(&netlist, &inputs, Kernel::Generic))
        .map_err(|e| format!("generic-kernel run: {e}"))?;
    let generic_ok = expected
        .as_ref()
        .is_some_and(|v| v.digest == generic.digest() && v.summary == *generic.summary());
    // Every repetition reproduced the first one's verdict, so a verdict
    // the oracles reject makes every op wrong.
    if !(spot_ok && generic_ok) {
        report.failed = report.attempted;
    }
    report.correct = report.failed == 0 && traced.iter().all(|t| t.2);
    report.detail("spot_checked", Value::count(spot.len()));
    report.detail("spot_check_agrees", Value::Bool(spot_ok));
    report.detail("generic_kernel_agrees", Value::Bool(generic_ok));
    report.detail(
        "digest",
        Value::str(expected.map_or(String::new(), |v| format!("{:016x}", v.digest))),
    );

    if args.trace {
        layer_metrics(
            &mut report,
            &clock,
            &spans,
            &setups,
            &reps,
            &traced,
            faults,
            lanes,
        );
        let path = args.trace_path();
        spans
            .write(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        report.detail("spans", Value::str(path.display().to_string()));
    } else {
        // A batch job is one repetition of the campaign.
        let per_rep =
            |rate: &dyn Fn(&Timed) -> f64| median(&reps.iter().map(rate).collect::<Vec<_>>());
        report.e2e(
            "faults_per_s",
            per_rep(&|t| faults as f64 / t.norm()),
            per_rep(&|t| faults as f64 / t.raw_s),
        );
        report.e2e(
            "jobs_per_s",
            per_rep(&|t| 1.0 / t.norm()),
            per_rep(&|t| 1.0 / t.raw_s),
        );
        let setups: Vec<(f64, f64)> = setups.iter().map(|t| (t.norm(), t.raw_s)).collect();
        report.setup(&setups);
        report.latency(&reps);
    }
    report.detail("ref_s_median", Value::num(median(&clock.refs)));
    Ok(report)
}

/// The work whose peak memory `peak_rss_mib` reports: one set-up and
/// one repetition.
pub fn peak_memory_probe(batch: &Batch, seed: u64) -> Result<(), String> {
    let inputs = batch.inputs(seed)?;
    let (netlist, engine) = set_up(batch, &inputs)?;
    engine
        .try_run_streamed(&batch.plan(&netlist, &inputs, Kernel::Auto))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// [`set_up`] with a span per layer call. `CompiledSim::new` is called
/// once more on its own, so the golden run's share of `Engine::new` can
/// be told from compilation.
fn traced_set_up(
    batch: &Batch,
    inputs: &Inputs,
    spans: &mut Spans,
    id: u32,
) -> Result<(Netlist, Engine), String> {
    let root = spans.open("setup", id, None);
    let netlist = spans
        .time("netlist.import", id, Some(root), || {
            import::import_str(&inputs.text, SourceFormat::Bench)
        })
        .map_err(|e| format!("import of {}: {e}", batch.circuit))?
        .netlist;
    spans.time("sim.compile", id, Some(root), || {
        std::hint::black_box(CompiledSim::new(&netlist))
    });
    let engine = spans.time("engine.new", id, Some(root), || {
        Engine::new(&batch.plan(&netlist, inputs, Kernel::Auto))
    });
    spans.close(root);
    Ok((netlist, engine))
}

/// Work counters of one traced repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    faults: u64,
    chunks: u64,
    decision_cycles: u64,
    sim_steps: u64,
    span_hits: u64,
    span_misses: u64,
    span_replay_cycles: u64,
}

/// Calls `grade` on each same-cycle chunk of at most `lanes` faults, in
/// the engine's cycle-major order: arithmetic over the exhaustive space,
/// or the list stably sorted by injection cycle.
fn for_each_chunk(
    list: Option<&[Fault]>,
    num_ffs: usize,
    cycles: usize,
    lanes: usize,
    mut grade: impl FnMut(&[Fault]),
) {
    match list {
        None => {
            let mut buf = Vec::with_capacity(lanes);
            for cycle in 0..cycles as u32 {
                for lo in (0..num_ffs).step_by(lanes) {
                    buf.clear();
                    let hi = (lo + lanes).min(num_ffs);
                    buf.extend((lo..hi).map(|ff| Fault::new(FfIndex::new(ff), cycle)));
                    grade(&buf);
                }
            }
        }
        Some(faults) => {
            let mut sorted = faults.to_vec();
            sorted.sort_by_key(|f| f.cycle);
            for same_cycle in sorted.chunk_by(|a, b| a.cycle == b.cycle) {
                same_cycle.chunks(lanes).for_each(&mut grade);
            }
        }
    }
}

/// One repetition graded chunk by chunk from outside the engine, with a
/// span around each `Grader::grade_chunk` and each sink fold. Folds into
/// the same `StreamAccumulator` as `Engine::run_streamed`, so the digest
/// must match the untraced repetitions.
fn traced_repetition(
    batch: &Batch,
    engine: &Engine,
    plan: &CampaignPlan<'_>,
    inputs: &Inputs,
    spans: &mut Spans,
    id: u32,
) -> (StreamAccumulator, Counters) {
    let grader = engine.grader();
    let (num_ffs, cycles) = (grader.sim().num_ffs(), grader.testbench().num_cycles());
    let root = spans.open("engine.run", id, None);
    let sample = batch.sample.map(|n| {
        spans.time("engine.sample_draw", id, Some(root), || {
            FaultList::sampled(num_ffs, cycles, n, inputs.sample_seed)
        })
    });
    let mut scratch = grader.new_scratch(plan.collapse(), plan.window_cache());
    let mut acc = StreamAccumulator::default();
    let mut counters = Counters::default();
    let mut out = [FaultOutcome::latent(); 64];
    let list = sample.as_ref().map(FaultList::as_slice);
    for_each_chunk(list, num_ffs, cycles, grader.chunk_lanes(), |chunk| {
        let out = &mut out[..chunk.len()];
        let start = Instant::now();
        grader.grade_chunk(&mut scratch, chunk, out);
        let graded = Instant::now();
        for (&f, &o) in chunk.iter().zip(out.iter()) {
            acc.observe(f, o);
        }
        let folded = Instant::now();
        spans.record("faultsim.grade_chunk", id, Some(root), start, graded);
        spans.record("engine.sink_fold", id, Some(root), graded, folded);
        counters.chunks += 1;
        counters.faults += chunk.len() as u64;
        counters.decision_cycles += chunk
            .iter()
            .zip(out.iter())
            .map(|(f, o)| u64::from(o.classify_cycle(cycles).saturating_sub(f.cycle)))
            .sum::<u64>();
    });
    spans.close(root);
    let bits = scratch.bit_cache();
    counters.sim_steps = scratch.sim_steps();
    counters.span_hits = bits.hits();
    counters.span_misses = bits.misses();
    counters.span_replay_cycles = bits.replayed_cycles();
    (acc, counters)
}

/// Per-layer metrics of a traced batch run. Times are per repetition (or
/// per set-up), each normalised by the reference taken before it, and
/// reported as medians.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    clock: &Clock,
    spans: &Spans,
    setups: &[Timed],
    reps: &[Timed],
    traced: &[(Timed, Counters, bool)],
    faults: usize,
    chunk_lanes: usize,
) {
    let own = spans.self_times();
    let layer = |name: &'static str, ids: usize, refs: &dyn Fn(usize) -> f64| -> f64 {
        let per_id: Vec<f64> = (0..ids)
            .map(|i| {
                let secs = own.get(&(i as u32, name)).copied().unwrap_or(0.0);
                gradebench_ref::normalise(secs, refs(i))
            })
            .collect();
        median(&per_id)
    };
    let setup_ref = |i: usize| setups[i].ref_s;
    let rep_ref = |i: usize| traced[i].0.ref_s;
    let import = layer("netlist.import", setups.len(), &setup_ref);
    let compile = layer("sim.compile", setups.len(), &setup_ref);
    let engine_new = layer("engine.new", setups.len(), &setup_ref);
    let grade = layer("faultsim.grade_chunk", traced.len(), &rep_ref);
    let fold = layer("engine.sink_fold", traced.len(), &rep_ref);
    let draw = layer("engine.sample_draw", traced.len(), &rep_ref);
    let c = |f: fn(&Counters) -> u64| {
        median(&traced.iter().map(|t| f(&t.1) as f64).collect::<Vec<_>>())
    };
    let untraced = median(&reps.iter().map(Timed::norm).collect::<Vec<_>>());
    let traced_time = median(&traced.iter().map(|t| t.0.norm()).collect::<Vec<_>>());
    let lanes = c(|k| k.faults) / c(|k| k.chunks).max(1.0);

    report.layer("host.ref_s", median(&clock.refs));
    report.layer(
        "host.raw_faults_per_s",
        median(
            &reps
                .iter()
                .map(|t| faults as f64 / t.raw_s)
                .collect::<Vec<_>>(),
        ),
    );
    report.layer("netlist.import_s", import);
    report.layer("sim.compile_s", compile);
    report.layer("sim.golden_s", engine_new - compile);
    report.layer("sim.span_replays", c(|k| k.span_misses));
    report.layer("sim.span_replay_cycles", c(|k| k.span_replay_cycles));
    let lookups = c(|k| k.span_hits + k.span_misses);
    report.layer(
        "sim.span_cache_hit_ratio",
        if lookups > 0.0 {
            c(|k| k.span_hits) / lookups
        } else {
            0.0
        },
    );
    report.layer("faultsim.grade_s", grade);
    report.layer(
        "faultsim.ns_per_sim_step",
        grade * 1e9 / c(|k| k.sim_steps).max(1.0),
    );
    report.layer("faultsim.chunks", c(|k| k.chunks));
    report.layer("faultsim.lane_occupancy", lanes / chunk_lanes as f64);
    report.layer(
        "faultsim.sim_steps_per_fault",
        c(|k| k.sim_steps) / c(|k| k.faults).max(1.0),
    );
    report.layer(
        "faultsim.decision_cycles_mean",
        c(|k| k.decision_cycles) / c(|k| k.faults).max(1.0),
    );
    report.layer("engine.sink_fold_s", fold);
    report.layer("engine.overhead_s", untraced - grade - fold - draw);
    report.layer("engine.sample_draw_s", draw);
    report.layer("trace.overhead_share", traced_time / untraced - 1.0);
    report.layer(
        "trace.digest_match",
        f64::from(u8::from(traced.iter().all(|t| t.2))),
    );
}
