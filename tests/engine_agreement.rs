//! Cross-engine agreement: every fault-grading engine in the workspace
//! must produce identical verdicts — including the sharded
//! `seugrade-engine` runtime at every thread count.

use proptest::prelude::*;
use seugrade::generators::{random_sequential, RandomCircuitConfig};
use seugrade::prelude::*;

/// Serial reference vs the sharded (bit-parallel) engine on 3 threads on
/// every registered benchmark circuit.
#[test]
fn all_engines_agree_on_registry_circuits() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        // Keep debug-build runtime sane on the big circuits (s5378g has
        // 1536 flip-flops; its serial reference dominates this suite).
        let cycles = match circuit.num_ffs() {
            0..=100 => 30,
            101..=1000 => 12,
            _ => 3,
        };
        let tb = if circuit.num_inputs() == viper::NUM_INPUTS {
            stimuli::viper_program(cycles, 5)
        } else {
            Testbench::random(circuit.num_inputs(), cycles, 5)
        };
        let grader = Grader::new(&circuit, &tb);
        // The s38417-class fixture (10k+ flip-flops) would make even a
        // short exhaustive serial reference dominate the suite; a
        // deterministic sample still crosses every engine pair.
        let faults = if circuit.num_ffs() > 4000 {
            FaultList::sampled(circuit.num_ffs(), tb.num_cycles(), 192, 5)
        } else {
            FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles())
        };
        let serial = grader.run_serial(faults.as_slice());
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(faults)
            .policy(ShardPolicy::with_threads(3))
            .build();
        let sharded = Engine::new(&plan).run(&plan);
        assert_eq!(serial, sharded.outcomes(), "{name}: serial vs sharded");
    }
}

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

/// A fault graded through the event simulator (a third, independent
/// implementation of the semantics) matches the compiled-engine verdict.
#[test]
fn event_sim_oracle_agrees_on_fault_outcomes() {
    let circuit = registry::build("b06s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 20, 13);
    let grader = Grader::new(&circuit, &tb);
    let golden = grader.golden().clone();

    let mut ev = EventSim::new(&circuit);
    for fault in FaultList::exhaustive(circuit.num_ffs(), 20).iter() {
        // Replay golden up to the injection cycle on the event sim.
        ev.reset();
        for u in 0..fault.cycle as usize {
            ev.set_inputs(tb.cycle(u));
            ev.step();
        }
        ev.flip_ff(fault.ff);
        let mut verdict = None;
        for u in fault.cycle as usize..20 {
            ev.set_inputs(tb.cycle(u));
            if ev.outputs() != golden.output_at(u) {
                verdict = Some(FaultOutcome::failure(u as u32));
                break;
            }
            ev.step();
            if ev.state() == golden.state_at(u + 1) {
                verdict = Some(FaultOutcome::silent(u as u32));
                break;
            }
        }
        let expected = grader.classify_serial(fault);
        assert_eq!(verdict.unwrap_or(FaultOutcome::latent()), expected, "{fault}");
    }
}

/// The sharded engine runtime agrees with the serial reference on every
/// registered benchmark circuit, exhaustive and sampled.
#[test]
fn sharded_engine_agrees_on_registry_circuits() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let cycles = match circuit.num_ffs() {
            0..=100 => 24,
            101..=1000 => 10,
            _ => 3,
        };
        let tb = Testbench::random(circuit.num_inputs(), cycles, 21);
        let grader = Grader::new(&circuit, &tb);
        // Sampled campaign on the 10k-flip-flop scale fixture: the serial
        // reference is the slow engine here, as in the streamed test below.
        let faults = if circuit.num_ffs() > 4000 {
            FaultList::sampled(circuit.num_ffs(), cycles, 192, 21)
        } else {
            FaultList::exhaustive(circuit.num_ffs(), cycles)
        };
        let serial = grader.run_serial(faults.as_slice());
        let serial_digest = StreamAccumulator::digest_of(faults.as_slice(), &serial);
        let engine = Engine::for_circuit(&circuit, &tb);
        for threads in [1, 4] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .faults(faults.clone())
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = engine.run(&plan);
            assert_eq!(run.outcomes(), serial.as_slice(), "{name} @ {threads} threads");
            // The streamed path never materializes the campaign, yet its
            // digest proves the verdicts fault-for-fault identical.
            let streamed = engine.try_run_streamed(&plan).unwrap();
            assert_eq!(streamed.digest(), serial_digest, "{name} streamed @ {threads}");
            assert_eq!(streamed.summary(), run.summary(), "{name} streamed @ {threads}");
        }
        // Sampled campaigns shard identically too.
        let sample = FaultList::sampled(circuit.num_ffs(), cycles, 40, 5);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .sampled(40, 5)
            .policy(ShardPolicy::with_threads(3))
            .build();
        let run = engine.run(&plan);
        assert_eq!(run.single(), Some(&sample), "{name}: sample is policy-independent");
        assert_eq!(run.outcomes(), grader.run_serial(sample.as_slice()), "{name}: sampled");
    }
}

/// The streaming core end to end on the s5378-class scale fixture: a
/// checkpointed engine with a streamed fault source agrees with the
/// dense materialized engine and the serial reference at 1/2/4/8
/// threads, while storing an order of magnitude less golden state.
#[test]
fn streamed_checkpoint_campaign_agrees_on_the_scale_fixture() {
    let circuit = registry::build("s5378g").expect("registered");
    let cycles = 3; // debug-build budget; release CI grades 4096 cycles
    let tb = Testbench::random(circuit.num_inputs(), cycles, 42);
    // Sampled subset: the serial reference is the slow engine here.
    let sample = FaultList::sampled(circuit.num_ffs(), cycles, 256, 9);
    let dense = Grader::new(&circuit, &tb);
    let serial = dense.run_serial(sample.as_slice());
    let serial_digest = StreamAccumulator::digest_of(sample.as_slice(), &serial);
    for threads in [1usize, 2, 4, 8] {
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(sample.clone())
            .trace_policy(TracePolicy::Checkpoint(64))
            .policy(ShardPolicy::with_threads(threads))
            .build();
        let engine = Engine::new(&plan);
        let streamed = engine.try_run_streamed(&plan).unwrap();
        assert_eq!(streamed.digest(), serial_digest, "{threads} threads");
        let run = engine.run(&plan);
        assert_eq!(run.outcomes(), serial.as_slice(), "{threads} threads materialized");
        assert!(
            engine.grader().golden().stored_bits() <= dense.golden().stored_bits(),
            "checkpointed golden must not out-store dense"
        );
    }
}

/// `TracePolicy::Dense` and `Checkpoint(K)` are interchangeable for
/// every engine entry point: serial, materialized engine and streamed
/// engine all agree for a spread of `K`s.
#[test]
fn trace_policies_agree_across_all_entry_points() {
    let circuit = registry::build("b09s").expect("registered");
    let cycles = 22;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 13);
    let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
    let dense = Grader::new(&circuit, &tb);
    let reference = dense.run_serial(faults.as_slice());
    let reference_digest = StreamAccumulator::digest_of(faults.as_slice(), &reference);
    for k in [1, 4, 9, 22, 100] {
        let policy = TracePolicy::Checkpoint(k);
        let grader = Grader::with_policy(&circuit, &tb, policy);
        assert_eq!(grader.run_serial(faults.as_slice()), reference, "serial K={k}");
        let plan = CampaignPlan::builder(&circuit, &tb)
            .trace_policy(policy)
            .threads(2)
            .build();
        let engine = Engine::new(&plan);
        assert_eq!(engine.run(&plan).outcomes(), reference.as_slice(), "engine K={k}");
        assert_eq!(
            engine.try_run_streamed(&plan).unwrap().digest(),
            reference_digest,
            "streamed K={k}"
        );
    }
}

/// The sharded engine on 3 threads grades every golden-window geometry
/// (dense, and `K` smaller than, dividing, not dividing and exceeding
/// the bench) to the dense serial reference, fault for fault.
#[test]
fn sharded_engine_matches_serial_under_every_window_geometry() {
    for name in ["b03s", "b06s"] {
        let circuit = registry::build(name).expect("registered");
        let tb = Testbench::random(circuit.num_inputs(), 25, 19);
        let faults = FaultList::exhaustive(circuit.num_ffs(), 25);
        let reference = Grader::new(&circuit, &tb).run_serial(faults.as_slice());
        let policies = [1, 3, 5, 25, 64].map(TracePolicy::Checkpoint);
        for policy in std::iter::once(TracePolicy::Dense).chain(policies) {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .faults(faults.clone())
                .trace_policy(policy)
                .policy(ShardPolicy::with_threads(3))
                .build();
            let run = Engine::new(&plan).run(&plan);
            assert_eq!(run.outcomes(), reference.as_slice(), "{name} {policy}");
        }
    }
}

fn arb_config() -> impl Strategy<Value = RandomCircuitConfig> {
    (2usize..6, 2usize..14, 10usize..80, 1usize..5, 0u32..9).prop_map(
        |(num_inputs, num_ffs, num_gates, num_outputs, observability_num)| RandomCircuitConfig {
            num_inputs,
            num_ffs,
            num_gates,
            num_outputs,
            observability_num,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Generated circuits graded serial vs the sharded engine at 1, 2, 4
    /// and 8 threads: fault-by-fault identical outcomes, fault-by-fault
    /// identical order, whatever the shard schedule.
    #[test]
    fn sharded_engine_matches_serial_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        tb_seed in 0u64..1000,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, tb_seed);
        let grader = Grader::new(&circuit, &tb);
        let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
        let serial = grader.run_serial(faults.as_slice());
        let engine = Engine::for_circuit(&circuit, &tb);
        for threads in [1usize, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = engine.run(&plan);
            prop_assert_eq!(run.outcomes(), serial.as_slice(), "{} threads", threads);
            prop_assert_eq!(run.summary().total(), faults.len());
        }
    }

    /// Random circuits, random checkpoint interval: `Checkpoint(K)`
    /// grades bit-identically to `Dense` through both the serial grader
    /// and the streamed engine.
    #[test]
    fn checkpoint_policy_matches_dense_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..40,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0xC0FFEE);
        let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
        let dense = Grader::new(&circuit, &tb);
        let reference = dense.run_serial(faults.as_slice());
        let cp = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
        prop_assert_eq!(&cp.run_serial(faults.as_slice()), &reference, "serial K={}", k);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .trace_policy(TracePolicy::Checkpoint(k))
            .threads(2)
            .build();
        let streamed = Engine::new(&plan).try_run_streamed(&plan).unwrap();
        prop_assert_eq!(
            streamed.digest(),
            StreamAccumulator::digest_of(faults.as_slice(), &reference),
            "streamed K={}", k
        );
    }

    /// Random checkpoint interval, shuffled fault order, adversarial
    /// window-cache capacities (disabled, one entry, effectively
    /// unbounded): the streamed engine reproduces the serial no-cache
    /// digest regardless — the cache only ever changes how often golden
    /// spans are replayed, never a verdict.
    #[test]
    fn window_cache_never_changes_verdicts(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..40,
        shuffle_seed in 0u64..1000,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0xCAC4E);
        let mut faults: Vec<Fault> =
            FaultList::exhaustive(circuit.num_ffs(), cycles).iter().collect();
        // Deterministic Fisher–Yates: chunk order over the wire is
        // whatever the shuffle says, not cycle-major.
        let mut rng = SplitMix64::new(shuffle_seed);
        for i in (1..faults.len()).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            faults.swap(i, j);
        }
        let dense = Grader::new(&circuit, &tb);
        let serial = dense.run_serial(&faults);
        let reference = StreamAccumulator::digest_of(&faults, &serial);
        let list = FaultList::from_faults(faults, circuit.num_ffs(), cycles);
        for cache in [0usize, 1, 1024] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .faults(list.clone())
                .trace_policy(TracePolicy::Checkpoint(k))
                .window_cache(cache)
                .threads(2)
                .build();
            prop_assert_eq!(
                Engine::new(&plan).try_run_streamed(&plan).unwrap().digest(),
                reference,
                "cache {} K={}", cache, k
            );
        }
    }

    /// Streamed and materialized fault sources agree at 1/2/4/8 threads
    /// on generated circuits (summary and fault-for-fault digest).
    #[test]
    fn streamed_matches_materialized_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 14usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x57EA);
        let engine = Engine::for_circuit(&circuit, &tb);
        let reference = engine.run(&CampaignPlan::builder(&circuit, &tb).build());
        let ref_digest = StreamAccumulator::digest_of(
            reference.single().expect("exhaustive").as_slice(),
            reference.outcomes(),
        );
        for threads in [1usize, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let streamed = engine.try_run_streamed(&plan).unwrap();
            prop_assert_eq!(streamed.summary(), reference.summary(), "{} threads", threads);
            prop_assert_eq!(streamed.digest(), ref_digest, "{} threads", threads);
        }
    }

    /// Multi-bit campaigns shard identically to the serial MBU engine.
    #[test]
    fn sharded_mbu_matches_serial_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..500,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 12usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x5EED);
        let grader = Grader::new(&circuit, &tb);
        let k = 2.min(circuit.num_ffs());
        let faults = MultiFault::adjacent_pairs(circuit.num_ffs(), cycles, k);
        let serial = grader.run_multi(&faults);
        for threads in [2usize, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .multi(faults.clone())
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = plan.execute();
            prop_assert_eq!(run.outcomes(), serial.as_slice(), "{} threads", threads);
        }
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
    assert_eq!(
        counters[0], counters[1],
        "both kernels request the same spans"
    );
}

/// The sampled streaming path reconstructs each golden span exactly
/// once: sparse same-cycle chunks seed from the span store instead of
/// re-replaying the span per chunk (the old per-chunk reconstruction
/// tax this suite pins shut), under both kernels alike. Horizon walks
/// cross every later span edge, so they compare the kernels' requests
/// past the seed too.
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
    let spans: std::collections::HashSet<usize> = chunks
        .iter()
        .map(|chunk| chunk[0].cycle as usize / k)
        .collect();
    assert_eq!(
        spans.len(),
        cycles / k,
        "the sample seeds a chunk in every span"
    );
    // The store holds every span, so each is rebuilt once, in passes of
    // half the store's capacity; every other seed request is a hit.
    let passes = spans.len().div_ceil(DEFAULT_WINDOW_CACHE_SPANS / 2) as u64;
    for collapse in [Collapse::Early, Collapse::Horizon] {
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
            assert!(
                bits.hits() >= seeds - passes,
                "{what}: {} hits",
                bits.hits()
            );
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

/// Lane independence: grading the same fault in different lanes of the
/// bit-parallel engine yields the same outcome. The engine cycle-sorts an
/// explicit list stably, so the reversed list puts every fault of a cycle
/// in a different lane.
#[test]
fn parallel_outcomes_are_order_independent() {
    let circuit = registry::build("b03s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 25, 17);
    let engine = Engine::for_circuit(&circuit, &tb);
    let grade = |faults: &[Fault]| {
        let list = FaultList::from_faults(faults.to_vec(), circuit.num_ffs(), 25);
        let plan = CampaignPlan::builder(&circuit, &tb).faults(list).threads(1).build();
        engine.run(&plan).outcomes().to_vec()
    };
    let faults = FaultList::exhaustive(circuit.num_ffs(), 25);
    let forward = grade(faults.as_slice());
    let mut reversed: Vec<Fault> = faults.as_slice().to_vec();
    reversed.reverse();
    let backward = grade(&reversed);
    for (i, f) in faults.iter().enumerate() {
        let j = reversed.iter().position(|&g| g == f).expect("same fault");
        assert_eq!(forward[i], backward[j], "{f}");
    }
}
