//! Same-process performance gates.
//!
//! Each gate grades two configurations of one campaign in interleaved
//! pairs inside this process, so both sides see the same host, the same
//! build and the same background load. It then compares the median wall
//! times and requires every run of both sides to land on the same
//! verdict digest: a faster configuration that changes a verdict fails
//! the gate.
//!
//! Timing is meaningless in a debug build and noisy on a loaded host,
//! so the gates are `#[ignore]`d by default. Run them with
//!
//! ```text
//! cargo test --release --test perf_gates -- --ignored --nocapture
//! ```
//!
//! Absolute throughput is measured by `gradebench` (`python3
//! gradebench/run.py`); these gates only pin ratios.

use std::time::Instant;

use seugrade::prelude::*;

/// Test-bench length of every gate.
const VECTORS: usize = 512;

/// Grades `a` and `b` once untimed, then `pairs` times each in
/// interleaved pairs (alternating which side goes first), and returns
/// the median wall seconds of `a` and of `b`.
///
/// # Panics
///
/// Panics if any run's verdict digest or fault count differs from the
/// first run's.
fn interleaved_medians(a: &CampaignPlan<'_>, b: &CampaignPlan<'_>, pairs: usize) -> (f64, f64) {
    let engines = [Engine::new(a), Engine::new(b)];
    let streamed = |i: usize| {
        let run = engines[i].try_run_streamed([a, b][i]).unwrap();
        (run.digest(), run.stats().faults)
    };
    interleaved_runs([&mut || streamed(0), &mut || streamed(1)], pairs)
}

/// [`interleaved_medians`] over two closures that each grade one
/// campaign and return its `(digest, faults)`.
fn interleaved_runs(sides: [&mut dyn FnMut() -> (u64, usize); 2], pairs: usize) -> (f64, f64) {
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reference = None;
    for rep in 0..=pairs {
        for i in [rep % 2, 1 - rep % 2] {
            let start = Instant::now();
            let seen = sides[i]();
            let secs = start.elapsed().as_secs_f64();
            let expected = *reference.get_or_insert(seen);
            assert_eq!(seen, expected, "both sides must grade fault for fault alike");
            // Rep 0 warms caches and allocators on both sides.
            if rep > 0 {
                times[i].push(secs);
            }
        }
    }
    let [ta, tb] = times;
    (median(ta), median(tb))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Every gate, one after the other in one test, so no other test's
/// threads run beside the timed work.
#[test]
#[ignore = "timing gate: run in release with --ignored"]
fn perf_gates() {
    let circuit = registry::build("s5378g").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), VECTORS, 42);
    let failures: Vec<String> = [
        kernel_gate(&circuit, &tb),
        span_store_gate(&circuit, &tb),
        alias_gate(&circuit, &tb),
        fold_gate(),
        rounds_gate(),
        setup_gate(),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The differential kernel must grade the exhaustive s5378g fault space
/// at least as fast as the generic full-evaluation interpreter: skipping
/// gates outside the deviation cone is the kernel's only reason to
/// exist.
fn kernel_gate(circuit: &Netlist, tb: &Testbench) -> Option<String> {
    let plan = |kernel| {
        CampaignPlan::builder(circuit, tb)
            .policy(ShardPolicy::serial())
            .trace_policy(TracePolicy::Checkpoint(64))
            .kernel(kernel)
            .build()
    };
    let (diff, generic) =
        interleaved_medians(&plan(Kernel::Differential), &plan(Kernel::Generic), 5);
    let speedup = generic / diff;
    println!("exhaustive s5378g: differential {diff:.3} s, generic {generic:.3} s, x{speedup:.2}");
    (speedup < 1.0).then(|| {
        format!("differential kernel regressed below generic: median {diff:.3} s vs {generic:.3} s")
    })
}

/// The golden span store must pay for itself: a sampled s5378g campaign
/// under `checkpoint:64` must grade at least 4x faster with the default
/// store than the same plan at `window_cache(0)`, where every span
/// lookup replays its span. The medians sit near 14x, so the 4 absorbs
/// host noise, while losing span retention (one replay per span lookup,
/// on either side or inside the engine) puts the ratio near 1 and
/// fails.
fn span_store_gate(circuit: &Netlist, tb: &Testbench) -> Option<String> {
    let plan = |spans| {
        CampaignPlan::builder(circuit, tb)
            .sampled(65_536, 7)
            .policy(ShardPolicy::serial())
            .trace_policy(TracePolicy::Checkpoint(64))
            .window_cache(spans)
            .build()
    };
    let (stored, uncached) =
        interleaved_medians(&plan(DEFAULT_WINDOW_CACHE_SPANS), &plan(0), 5);
    let ratio = uncached / stored;
    println!(
        "sampled s5378g, checkpoint:64: span store {stored:.3} s, \
         window_cache(0) {uncached:.3} s, x{ratio:.2}"
    );
    (ratio < 4.0).then(|| {
        format!(
            "the golden span store fell below 4x one replay per lookup: \
             median {stored:.3} s vs {uncached:.3} s"
        )
    })
}

/// The alias collapse must pay for itself: the exhaustive s5378g plan,
/// which walks the cycles downwards and lets a lane that has become a
/// single-bit upset inherit that upset's verdict, must grade at least
/// 3x faster than the same faults submitted as a `FaultSource::List`,
/// which walks upwards without a verdict window (1 thread, default
/// kernel and span store). `interleaved_medians` asserts that both
/// sides land on one digest. With aliasing switched off the two sides
/// grade the same lanes for the same number of cycles and the ratio
/// sits near 1, which fails.
fn alias_gate(circuit: &Netlist, tb: &Testbench) -> Option<String> {
    let plan = |source| {
        CampaignPlan::builder(circuit, tb)
            .source(source)
            .policy(ShardPolicy::serial())
            .trace_policy(TracePolicy::Checkpoint(64))
            .build()
    };
    let list = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
    let (aliased, listed) =
        interleaved_medians(&plan(FaultSource::Exhaustive), &plan(FaultSource::List(list)), 5);
    let ratio = listed / aliased;
    println!("exhaustive s5378g: exhaustive plan {aliased:.3} s, same faults as a list {listed:.3} s, x{ratio:.2}");
    (ratio < 3.0).then(|| {
        format!(
            "the alias collapse fell below 3x the un-aliased list walk: \
             median {aliased:.3} s vs {listed:.3} s"
        )
    })
}

/// Streaming must not cost more than materializing: the exhaustive
/// s38417g plan over 32 vectors (1 thread) graded through
/// `try_run_streamed`, which folds each chunk's verdicts into a
/// chunk-local sink and drains it into the worker's, must be no more
/// than 1.10x slower than the materialized `run` of the same plan,
/// which keeps every verdict in one vector. A chunk fold that costs
/// `O(FFs)` instead of `O(lanes)` (zero-filling and walking a
/// 10,240-entry failure map per 64-lane chunk) read 1.32x and failed;
/// the fold that drains only what the chunk wrote reads about 0.7x.
fn fold_gate() -> Option<String> {
    let circuit = registry::build("s38417g").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 32, 42);
    let plan = CampaignPlan::builder(&circuit, &tb).policy(ShardPolicy::serial()).build();
    let engine = Engine::new(&plan);
    let (streamed, materialized) = interleaved_runs(
        [
            &mut || {
                let run = engine.try_run_streamed(&plan).unwrap();
                (run.digest(), run.stats().faults)
            },
            &mut || {
                let run = engine.run(&plan);
                let faults = run.single().expect("single-fault plan");
                (StreamAccumulator::digest_of(faults.as_slice(), run.outcomes()), faults.len())
            },
        ],
        15,
    );
    let ratio = streamed / materialized;
    println!(
        "exhaustive s38417g x 32: streamed {streamed:.4} s, materialized {materialized:.4} s, \
         x{ratio:.2}"
    );
    (ratio > 1.10).then(|| {
        format!(
            "streaming fell more than 1.10x behind materializing: \
             median {streamed:.4} s vs {materialized:.4} s"
        )
    })
}

/// Grading in rounds must stay close to grading in one go: a sampled
/// s5378g campaign (256 vectors, 2048 faults, 1 thread), the serve
/// benchmark's job, graded in 16-chunk resumable rounds through one
/// kept [`CampaignState`], checkpoint written after every round, must
/// take at most 1.25x the one-shot run of the same plan on the same
/// engine. Rebuilding the state every round from the checkpoint (sample
/// redraw, fingerprint, checkpoint load, cold span store) read
/// 1.34-1.41x and failed; the kept state reads about 1.16x.
fn rounds_gate() -> Option<String> {
    let circuit = registry::build("s5378g").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 256, 42);
    let plan = CampaignPlan::builder(&circuit, &tb)
        .sampled(2048, 7)
        .policy(ShardPolicy::serial())
        .trace_policy(TracePolicy::Checkpoint(64))
        .build();
    let engine = Engine::new(&plan);
    let path =
        std::env::temp_dir().join(format!("seugrade-rounds-gate-{}.ckpt", std::process::id()));
    let (rounds, one_shot) = interleaved_runs(
        [
            &mut || {
                let mut opts = ResumeOptions::checkpoint_to(&path);
                opts.every = 16;
                opts.limit = Some(16);
                let mut state = CampaignState::<CampaignSink>::new(&engine, &plan, &opts).unwrap();
                loop {
                    let run = state.advance(&engine, &plan, &opts).unwrap();
                    if run.is_complete() {
                        break (run.sink.digest(), run.faults_done);
                    }
                }
            },
            &mut || {
                let run = engine
                    .run_streamed_resumable_with::<CampaignSink>(&plan, &ResumeOptions::default())
                    .unwrap();
                (run.sink.digest(), run.faults_done)
            },
        ],
        41,
    );
    std::fs::remove_file(&path).ok();
    let ratio = rounds / one_shot;
    println!(
        "sampled s5378g x 256, 2048 faults: 16-chunk rounds {:.3} ms, one-shot {:.3} ms, x{ratio:.2}",
        rounds * 1e3,
        one_shot * 1e3
    );
    (ratio > 1.25).then(|| {
        format!(
            "grading in kept-state rounds fell more than 1.25x behind one-shot grading: \
             median {:.3} ms vs {:.3} ms",
            rounds * 1e3,
            one_shot * 1e3
        )
    })
}

/// A `.bench` chain of `gates` inverters behind one input, its
/// statements in file order or reversed (every gate then reads a net
/// defined further down).
fn inverter_chain(gates: usize, reversed: bool) -> String {
    let mut lines: Vec<String> = (1..=gates).map(|i| format!("n{i} = NOT(n{})", i - 1)).collect();
    if reversed {
        lines.reverse();
    }
    format!("INPUT(n0)\nOUTPUT(n{gates})\n{}\n", lines.join("\n"))
}

/// The set-up before the first verdict must stay a small share of the
/// work, layer by layer, on same-process ratios:
///
/// - golden run: one register latch (`step`) of s38417g at most 0.6x
///   one tape pass (`eval`). The two-phase whole-register latch read
///   0.92-0.97x; the in-place latch about 0.45x.
/// - import: a reverse-ordered 20k-gate `.bench` chain at most 2x its
///   forward-ordered twin. The fixpoint sweep read about 400x; the
///   dependency worklist about 1x.
fn setup_gate() -> Option<String> {
    let mut failures = Vec::new();
    let circuit = registry::build("s38417g").expect("registered");
    let sim = CompiledSim::new(&circuit);
    let (mut latched, mut evaluated) = (sim.new_state(), sim.new_state());
    // 100 passes per sample; the two sides share no verdict to compare.
    let (step, eval) = interleaved_runs(
        [
            &mut || {
                (0..100).for_each(|_| sim.step(&mut latched));
                (0, 0)
            },
            &mut || {
                (0..100).for_each(|_| sim.eval(&mut evaluated));
                (0, 0)
            },
        ],
        15,
    );
    let ratio = step / eval;
    println!("s38417g: step {:.2} us, eval {:.2} us, x{ratio:.2}", step * 1e4, eval * 1e4);
    if ratio > 0.6 {
        failures.push(format!("step took more than 0.6x eval: x{ratio:.2}"));
    }

    let (forward, reversed) = (inverter_chain(20_000, false), inverter_chain(20_000, true));
    let import = |src: &str| {
        let netlist = import::import_str(src, SourceFormat::Bench).unwrap().netlist;
        (netlist.num_cells() as u64, netlist.num_gates())
    };
    let (rev, fwd) = interleaved_runs([&mut || import(&reversed), &mut || import(&forward)], 9);
    let ratio = rev / fwd;
    println!(
        "20k-gate chain import: reversed {:.2} ms, forward {:.2} ms, x{ratio:.2}",
        rev * 1e3,
        fwd * 1e3
    );
    if ratio > 2.0 {
        failures.push(format!("reverse-ordered import took more than 2x forward: x{ratio:.2}"));
    }

    (!failures.is_empty()).then(|| failures.join("\n"))
}
