//! The work behind the oracle battery's verdicts, with the independent
//! [`Oracle`] as the reference: the compiled simulator's golden run,
//! simulation steps of retired lanes, span store hits and replays, alias
//! counts, the resume fingerprint, and the emulation techniques'
//! reports. The verdicts themselves are checked in `engine_agreement`,
//! `kernel_equivalence` and `collapse_equivalence` (see
//! `battery/mod.rs`).

mod battery;

use battery::{arb_config, COLLAPSES};
use proptest::prelude::*;
use seugrade::generators::random_sequential;
use seugrade::prelude::*;

/// The compiled simulator agrees with the event-driven simulator on the
/// golden run of every registered circuit.
#[test]
fn compiled_and_event_sim_agree_everywhere() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        // The event-driven simulator is the slow oracle; give the
        // 10k-flip-flop scale fixture a shorter golden run.
        let cycles = if circuit.num_ffs() > 4000 { 6 } else { 40 };
        let tb = Testbench::random(circuit.num_inputs(), cycles, 9);
        let fast = CompiledSim::new(&circuit).run_golden(&tb);
        let slow = EventSim::new(&circuit).run_golden(&tb);
        assert_eq!(fast, slow, "{name}");
    }
}

/// A lane retired at cycle `c` is never re-simulated after `c`: under
/// early collapse the per-chunk simulation-step counter stops at the
/// chunk's last decision cycle, while the horizon mode walks every
/// chunk to the end of the bench. Verdicts are the oracle's either way.
#[test]
fn retired_lanes_are_never_resimulated() {
    let circuit = registry::build("b01s").expect("registered");
    let cycles = 40;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 11);
    let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
    let reference = Oracle::new(&circuit, &tb).run(faults.as_slice());
    for policy in [TracePolicy::Checkpoint(1), TracePolicy::Checkpoint(8)] {
        let grader = Grader::with_policy(&circuit, &tb, policy);
        let mut early = grader.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
        let mut horizon = grader.new_scratch(Collapse::Horizon, DEFAULT_WINDOW_CACHE_SPANS);
        let mut expected_early = 0u64;
        let mut expected_horizon = 0u64;
        let mut cursor = 0;
        for cycle_group in faults.as_slice().chunks(circuit.num_ffs()) {
            for chunk in cycle_group.chunks(grader.chunk_lanes()) {
                let mut out_e = vec![FaultOutcome::latent(); chunk.len()];
                let mut out_h = vec![FaultOutcome::latent(); chunk.len()];
                grader.grade_chunk(&mut early, chunk, &mut out_e);
                grader.grade_chunk(&mut horizon, chunk, &mut out_h);
                let want = &reference[cursor..cursor + chunk.len()];
                assert_eq!(out_e, want, "{}: early verdicts", policy.label());
                assert_eq!(out_h, want, "{}: horizon verdicts", policy.label());
                cursor += chunk.len();

                // The chunk's walk may stop the cycle its last lane
                // decides; a latent lane pins it to the horizon.
                let t = u64::from(chunk[0].cycle);
                let last_decision = want
                    .iter()
                    .map(|o| u64::from(o.classify_cycle(cycles)))
                    .max()
                    .expect("non-empty chunk");
                expected_early += last_decision - t + 1;
                expected_horizon += cycles as u64 - t;
            }
        }
        assert_eq!(
            early.sim_steps(),
            expected_early,
            "{}: early collapse must stop at each chunk's last decision",
            policy.label()
        );
        assert_eq!(
            horizon.sim_steps(),
            expected_horizon,
            "{}: horizon mode walks every chunk to the end",
            policy.label()
        );
        assert!(early.sim_steps() < horizon.sim_steps(), "{}", policy.label());
    }
}

/// Cycle-major chunk order keeps the golden span store hot: adjacent
/// chunks walk the same K-aligned spans, so a full exhaustive walk
/// replays each span once and hits everywhere else. Same-cycle chunks
/// walk the same cycles under both kernels, so both make identical span
/// requests.
#[test]
fn cycle_major_walk_mostly_hits_the_window_cache() {
    let circuit = registry::build("b03s").expect("registered");
    let cycles = 48;
    let k = 16;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 77);
    let grader = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
    let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
    let mut counters = Vec::new();
    for kernel in Kernel::CONCRETE {
        let mut scratch = grader
            .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
            .with_kernel(kernel);
        let mut out = vec![FaultOutcome::latent(); grader.chunk_lanes()];
        for cycle_group in faults.as_slice().chunks(circuit.num_ffs()) {
            for chunk in cycle_group.chunks(grader.chunk_lanes()) {
                grader.grade_chunk(&mut scratch, chunk, &mut out[..chunk.len()]);
            }
        }
        let bits = scratch.bit_cache();
        // b03s fits one chunk per cycle, and a replay pass rebuilds up to
        // half the store's spans: 3 spans, one pass.
        let passes = (cycles / k).div_ceil(DEFAULT_WINDOW_CACHE_SPANS / 2) as u64;
        assert_eq!(bits.misses(), passes, "kernel {kernel}");
        // Every seed lookup but the first is a hit.
        assert!(
            bits.hits() >= cycles as u64 - passes,
            "kernel {kernel}: {} hits",
            bits.hits()
        );
        // Each span is replayed once, so total replay work equals one
        // golden pass over the bench — not one per chunk.
        assert_eq!(bits.replayed_cycles(), cycles as u64, "kernel {kernel}");
        counters.push((bits.misses(), bits.hits(), bits.replayed_cycles()));
    }
    assert_eq!(counters[0], counters[1], "both kernels request the same spans");
}

/// The sampled streaming path reconstructs each golden span exactly
/// once: sparse same-cycle chunks seed from the span store instead of
/// re-replaying the span per chunk, under both kernels alike. Horizon
/// walks cross every later span edge, so they compare the kernels'
/// requests past the seed too.
#[test]
fn sampled_checkpoint_grading_reconstructs_each_span_once() {
    let circuit = registry::build("s344a").expect("registered");
    let cycles = 60;
    let k = 10;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 23);
    let grader = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
    let sample = FaultList::sampled(circuit.num_ffs(), cycles, 120, 3);
    // Group the sample cycle-major, one injection cycle per chunk.
    let mut by_cycle: Vec<Vec<Fault>> = vec![Vec::new(); cycles];
    for f in sample.iter() {
        by_cycle[f.cycle as usize].push(f);
    }
    let chunks: Vec<&[Fault]> = by_cycle
        .iter()
        .flat_map(|group| group.chunks(grader.chunk_lanes()))
        .collect();
    let spans: std::collections::HashSet<usize> =
        chunks.iter().map(|chunk| chunk[0].cycle as usize / k).collect();
    assert_eq!(spans.len(), cycles / k, "the sample seeds a chunk in every span");
    // The store holds every span, so each is rebuilt once, in passes of
    // half the store's capacity; every other seed request is a hit.
    let passes = spans.len().div_ceil(DEFAULT_WINDOW_CACHE_SPANS / 2) as u64;
    for collapse in COLLAPSES {
        let mut counters = Vec::new();
        for kernel in Kernel::CONCRETE {
            let mut scratch = grader
                .new_scratch(collapse, DEFAULT_WINDOW_CACHE_SPANS)
                .with_kernel(kernel);
            for chunk in &chunks {
                let mut out = vec![FaultOutcome::latent(); chunk.len()];
                grader.grade_chunk(&mut scratch, chunk, &mut out);
            }
            let bits = scratch.bit_cache();
            let what = format!("kernel {kernel} collapse {}", collapse.label());
            assert_eq!(bits.misses(), passes, "{what}");
            let seeds = chunks.len() as u64;
            assert!(bits.hits() >= seeds - passes, "{what}: {} hits", bits.hits());
            assert_eq!(bits.replayed_cycles(), cycles as u64, "{what}");
            counters.push((bits.misses(), bits.hits(), bits.replayed_cycles()));
        }
        assert_eq!(
            counters[0],
            counters[1],
            "{}: both kernels request the same spans",
            collapse.label()
        );
    }
}

/// The single-bit upset `(g, u + 1)` that `fault` turns into, if its
/// state differs from golden in exactly one flip-flop `g` after a cycle
/// `u` with `u + 1 − t ≤ ALIAS_WINDOW` while it is still undecided:
/// found by stepping the fault on the event-driven simulator beside the
/// oracle's golden run, with no compiled-simulator code.
fn lone_upset(
    sim: &mut EventSim,
    golden: &TraceWindow,
    tb: &Testbench,
    fault: Fault,
) -> Option<Fault> {
    let t = fault.cycle as usize;
    sim.load_state(golden.state_at(t));
    sim.flip_ff(fault.ff);
    for u in t..(t + ALIAS_WINDOW).min(tb.num_cycles() - 1) {
        sim.set_inputs(tb.cycle(u));
        if sim.outputs() != golden.output_at(u) {
            return None;
        }
        sim.step();
        let (faulty, good) = (sim.state(), golden.state_at(u + 1));
        let mut deviant = (0..faulty.len()).filter(|&i| faulty[i] != good[i]);
        match (deviant.next(), deviant.next()) {
            (None, _) => return None,
            (Some(g), None) => return Some(Fault::new(FfIndex::new(g), u as u32 + 1)),
            _ => {}
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every lane the alias collapse retires takes the oracle's verdict
    /// of both its own fault `(f, t)` and the upset `(g, u + 1)` it
    /// turned into. One worker walking the cycles downwards finds every
    /// such upset in the window, so the kernel aliases exactly the
    /// faults the event-driven walk names.
    #[test]
    fn aliased_lanes_inherit_the_oracle_verdict_of_their_upset(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 24usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x414c_4941);
        let ffs = circuit.num_ffs();
        let faults = FaultList::exhaustive(ffs, cycles);
        let mut oracle = Oracle::new(&circuit, &tb);
        let reference = oracle.run(faults.as_slice());
        let mut sim = EventSim::new(&circuit);
        let mut aliases = 0u64;
        for (f, verdict) in faults.iter().zip(&reference) {
            if let Some(upset) = lone_upset(&mut sim, oracle.golden(), &tb, f) {
                aliases += 1;
                prop_assert_eq!(oracle.classify(upset), *verdict, "{} is {}", f, upset);
            }
        }
        let grader = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
        let mut scratch = grader
            .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
            .with_verdict_window(VerdictWindow::new(ffs));
        let mut graded = vec![FaultOutcome::latent(); faults.len()];
        for t in (0..cycles).rev() {
            let lanes = t * ffs..(t + 1) * ffs;
            let outs = graded[lanes.clone()].chunks_mut(grader.chunk_lanes());
            for (chunk, out) in faults.as_slice()[lanes].chunks(grader.chunk_lanes()).zip(outs) {
                grader.grade_chunk(&mut scratch, chunk, out);
            }
        }
        prop_assert_eq!(&graded, &reference);
        prop_assert_eq!(scratch.aliased_lanes(), aliases);
        prop_assert_eq!(scratch.alias_misses(), 0);
    }
}

/// The kernel is excluded from resume fingerprints: a campaign
/// checkpointed under one kernel is resumable under another, because
/// the knob cannot change a verdict.
#[test]
fn kernel_does_not_perturb_the_resume_fingerprint() {
    let circuit = registry::build("b06s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 16, 9);
    let fingerprints: Vec<Fingerprint> = Kernel::CONCRETE
        .iter()
        .map(|&kernel| {
            let plan = CampaignPlan::builder(&circuit, &tb).kernel(kernel).build();
            Fingerprint::of(&plan, 4, 96)
        })
        .collect();
    for fp in &fingerprints[1..] {
        assert_eq!(*fp, fingerprints[0], "kernel must not fingerprint");
    }
}

/// Every modelled emulation technique reports the same campaign from
/// the engine's verdicts — early collapse or horizon walks, under 1- and
/// 3-cycle checkpoint intervals — as from the oracle's: same summary,
/// same cycle-accurate timing.
#[test]
fn every_technique_reports_identically_under_both_collapse_modes() {
    let circuit = registry::build("b13s").expect("registered");
    let cycles = 20;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 47);
    let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
    let verdicts = Oracle::new(&circuit, &tb).run(faults.as_slice());
    let campaign = |faults, outcomes| {
        AutonomousCampaign::from_graded(&circuit, &tb, faults, outcomes, TimingConfig::default())
    };
    let reference = campaign(faults, verdicts);
    for policy in [TracePolicy::Checkpoint(1), TracePolicy::Checkpoint(3)] {
        for collapse in COLLAPSES {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .trace_policy(policy)
                .collapse(collapse)
                .threads(2)
                .build();
            let (faults, outcomes) = Engine::new(&plan).run(&plan).into_single().expect("single");
            let graded = campaign(faults, outcomes);
            for tech in Technique::ALL {
                let (got, want) = (graded.run(tech), reference.run(tech));
                let what = format!("{tech} {policy} collapse {}", collapse.label());
                assert_eq!(got.summary, want.summary, "{what}: summary");
                assert_eq!(got.timing, want.timing, "{what}: timing");
            }
        }
    }
}
