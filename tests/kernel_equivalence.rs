//! The faulty-evaluation kernel is a pure speed knob: the generic
//! per-gate interpreter and the differential dirty-frontier kernel must
//! grade every fault to the identical verdict. This battery pins both
//! to bit-identical order-independent digests across the whole
//! registry, every trace policy, collapse on/off and 1/2/4/8 worker
//! threads — and repeats the claim on generated random circuits,
//! exhaustive and sampled (sampled chunks carry faults from several
//! injection cycles). It also checks the differential kernel's alias
//! collapse on generated circuits: a lane that becomes a single-bit
//! upset takes exactly that upset's serial verdict.

use proptest::prelude::*;
use seugrade::generators::{random_sequential, RandomCircuitConfig};
use seugrade::prelude::*;

/// Cycle budget by circuit size, mirroring the other cross-engine
/// suites: the scale fixtures dominate debug-build runtime.
fn cycle_budget(num_ffs: usize) -> usize {
    match num_ffs {
        0..=100 => 18,
        101..=1000 => 8,
        _ => 2,
    }
}

/// Every registry circuit, graded under every concrete kernel, every
/// trace policy, both collapse modes and 1/2/4/8 threads, lands on the
/// serial reference digest bit for bit.
#[test]
fn kernels_agree_on_every_registry_circuit() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let cycles = cycle_budget(circuit.num_ffs());
        let tb = Testbench::random(circuit.num_inputs(), cycles, 77);
        // Exhaustive everywhere except the 10k-flip-flop scale fixture,
        // where a deterministic sample keeps the kernel × policy ×
        // collapse × thread matrix debug-build sized.
        let faults = if circuit.num_ffs() > 4000 {
            FaultList::sampled(circuit.num_ffs(), cycles, 256, 77)
        } else {
            FaultList::exhaustive(circuit.num_ffs(), cycles)
        };
        let serial = Grader::new(&circuit, &tb);
        let reference =
            StreamAccumulator::digest_of(faults.as_slice(), &serial.run_serial(faults.as_slice()));
        for kernel in Kernel::CONCRETE {
            for policy in [1, 3, 64].map(TracePolicy::Checkpoint) {
                for collapse in [Collapse::Early, Collapse::Horizon] {
                    for threads in [1usize, 2, 4, 8] {
                        let plan = CampaignPlan::builder(&circuit, &tb)
                            .faults(faults.clone())
                            .trace_policy(policy)
                            .collapse(collapse)
                            .kernel(kernel)
                            .policy(ShardPolicy::with_threads(threads))
                            .build();
                        let run = Engine::new(&plan).try_run_streamed(&plan).unwrap();
                        assert_eq!(
                            run.digest(),
                            reference,
                            "{name}: kernel {} {} collapse {} @ {threads} threads",
                            kernel.label(),
                            policy.label(),
                            collapse.label(),
                        );
                    }
                }
            }
        }
    }
}

/// `Kernel::Auto` grades identically to every concrete kernel — the
/// resolver may pick any of them without changing a verdict.
#[test]
fn auto_kernel_matches_every_concrete_kernel() {
    let circuit = registry::build("b09s").expect("registered");
    let cycles = 24;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 3);
    let auto_plan = CampaignPlan::builder(&circuit, &tb)
        .trace_policy(TracePolicy::Checkpoint(8))
        .threads(2)
        .build();
    assert_eq!(auto_plan.kernel(), Kernel::Auto, "builder default");
    let auto_digest = Engine::new(&auto_plan).try_run_streamed(&auto_plan).unwrap().digest();
    for kernel in Kernel::CONCRETE {
        let plan = CampaignPlan::builder(&circuit, &tb)
            .trace_policy(TracePolicy::Checkpoint(8))
            .kernel(kernel)
            .threads(2)
            .build();
        let digest = Engine::new(&plan).try_run_streamed(&plan).unwrap().digest();
        assert_eq!(digest, auto_digest, "auto vs {}", kernel.label());
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated circuits — arbitrary gate mixes, fanout shapes and
    /// observability — grade to the identical digest under both
    /// concrete kernels, checkpointed and multi-threaded.
    #[test]
    fn kernels_agree_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x4B52_4E4C);
        let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
        let serial = Grader::new(&circuit, &tb).run_serial(faults.as_slice());
        let reference = StreamAccumulator::digest_of(faults.as_slice(), &serial);
        for kernel in Kernel::CONCRETE {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .trace_policy(TracePolicy::Checkpoint(k))
                .kernel(kernel)
                .threads(2)
                .build();
            let run = Engine::new(&plan).try_run_streamed(&plan).unwrap();
            prop_assert_eq!(run.digest(), reference, "kernel {}", kernel.label());
        }
    }

    /// Sampled campaigns pack faults from different injection cycles
    /// into one chunk. Sparse and dense samples on generated circuits
    /// grade to the serial digest under every kernel, under
    /// `Checkpoint(1)` and `Checkpoint(K)`, and under both collapse
    /// modes.
    #[test]
    fn staggered_sampled_campaigns_match_serial(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
        percent in 1usize..100,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 40usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x5354_4147);
        let count = (circuit.num_ffs() * cycles * percent / 100).max(1);
        let faults = FaultList::sampled(circuit.num_ffs(), cycles, count, seed);
        let serial = Grader::new(&circuit, &tb).run_serial(faults.as_slice());
        let reference = StreamAccumulator::digest_of(faults.as_slice(), &serial);
        for kernel in Kernel::CONCRETE {
            for policy in [TracePolicy::Checkpoint(1), TracePolicy::Checkpoint(k)] {
                for collapse in [Collapse::Early, Collapse::Horizon] {
                    let plan = CampaignPlan::builder(&circuit, &tb)
                        .sampled(count, seed)
                        .trace_policy(policy)
                        .collapse(collapse)
                        .kernel(kernel)
                        .threads(2)
                        .build();
                    let run = Engine::new(&plan).try_run_streamed(&plan).unwrap();
                    prop_assert_eq!(
                        run.digest(),
                        reference,
                        "{} of {} faults: kernel {} {} collapse {}",
                        count,
                        circuit.num_ffs() * cycles,
                        kernel.label(),
                        policy.label(),
                        collapse.label()
                    );
                }
            }
        }
    }
}

/// The single-bit upset `(g, u + 1)` that fault `fault` turns into, if
/// its state differs from golden in exactly one flip-flop `g` after a
/// cycle `u` with `u + 1 − t ≤ ALIAS_WINDOW` while it is still
/// undecided: found by stepping the fault beside the golden machine, as
/// the serial reference does, with no differential-kernel code.
fn serial_alias(grader: &Grader, fault: Fault) -> Option<Fault> {
    let (sim, tb) = (grader.sim(), grader.testbench());
    let t = fault.cycle as usize;
    let mut st = grader.golden().lanes_at(sim, tb, t);
    sim.flip_ff_lane(&mut st, fault.ff, 0);
    for u in t..(t + ALIAS_WINDOW).min(tb.num_cycles() - 1) {
        sim.set_inputs(&mut st, tb.cycle(u));
        sim.eval(&mut st);
        if sim.outputs_lane(&st, 0) != sim.outputs_lane(&st, 1) {
            return None;
        }
        sim.step(&mut st);
        let (faulty, golden) = (sim.state_lane(&st, 0), sim.state_lane(&st, 1));
        let mut deviant = (0..faulty.len()).filter(|&i| faulty[i] != golden[i]);
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

    /// Every lane the alias collapse retires takes the verdict that
    /// `classify_serial` gives both its own fault `(f, t)` and the upset
    /// `(g, u + 1)` it turned into. One worker walking the cycles
    /// downwards finds every such upset in the window, so the kernel
    /// aliases exactly the faults the serial walk names; the engine's
    /// exhaustive digest at 1 and 4 threads is the serial one.
    #[test]
    fn aliased_lanes_inherit_the_serial_verdict_of_their_upset(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 24usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x414c_4941);
        let grader = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
        let ffs = circuit.num_ffs();
        let faults = FaultList::exhaustive(ffs, cycles);
        let serial = grader.run_serial(faults.as_slice());
        let mut aliases = 0u64;
        for (f, verdict) in faults.iter().zip(&serial) {
            if let Some(upset) = serial_alias(&grader, f) {
                aliases += 1;
                prop_assert_eq!(grader.classify_serial(upset), *verdict, "{} is {}", f, upset);
            }
        }
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
        prop_assert_eq!(&graded, &serial);
        prop_assert_eq!(scratch.aliased_lanes(), aliases);
        prop_assert_eq!(scratch.alias_misses(), 0);
        let reference = StreamAccumulator::digest_of(faults.as_slice(), &serial);
        for threads in [1, 4] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .trace_policy(TracePolicy::Checkpoint(k))
                .policy(ShardPolicy { threads, serial_below: 0 })
                .build();
            let run = Engine::new(&plan).try_run_streamed(&plan).unwrap();
            prop_assert_eq!(run.digest(), reference, "{} threads", threads);
        }
    }
}
