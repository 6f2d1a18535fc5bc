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

/// Test-bench length of both gates.
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
    let plans = [a, b];
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reference = None;
    for rep in 0..=pairs {
        for i in [rep % 2, 1 - rep % 2] {
            let start = Instant::now();
            let run = engines[i].try_run_streamed(plans[i]).unwrap();
            let secs = start.elapsed().as_secs_f64();
            let seen = (run.digest(), run.stats().faults);
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

/// Both gates, one after the other in one test, so no other test's
/// threads run beside the timed work.
#[test]
#[ignore = "timing gate: run in release with --ignored"]
fn perf_gates() {
    let circuit = registry::build("s5378g").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), VECTORS, 42);
    let failures: Vec<String> = [kernel_gate(&circuit, &tb), span_store_gate(&circuit, &tb)]
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
