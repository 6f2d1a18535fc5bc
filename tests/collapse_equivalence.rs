//! Early fault collapse is a pure work optimisation: retiring a lane
//! the cycle it reconverges or first fails must never change a verdict.
//! This battery pins collapse-on vs collapse-off to bit-identical
//! digests across every registry circuit, trace policy, thread count
//! and modelled emulation technique — and proves the work *is* saved
//! by counting simulation steps.

use seugrade::prelude::*;

/// Cycle budget by circuit size, mirroring the other cross-engine
/// suites: the s5378-class fixtures dominate debug-build runtime.
fn cycle_budget(num_ffs: usize) -> usize {
    match num_ffs {
        0..=100 => 18,
        101..=1000 => 8,
        _ => 2,
    }
}

/// Collapse on vs off yields the identical order-independent verdict
/// digest for every registry circuit, under dense and `Checkpoint(K)`
/// for a spread of `K`, at 1/2/4/8 worker threads.
#[test]
fn collapse_modes_agree_on_every_registry_circuit() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let cycles = cycle_budget(circuit.num_ffs());
        let tb = Testbench::random(circuit.num_inputs(), cycles, 31);
        // Exhaustive everywhere except the 10k-flip-flop scale fixture,
        // where a deterministic sample keeps the 5 × 2 × 4 plan matrix
        // (and its serial reference) debug-build sized.
        let faults = if circuit.num_ffs() > 4000 {
            FaultList::sampled(circuit.num_ffs(), cycles, 256, 31)
        } else {
            FaultList::exhaustive(circuit.num_ffs(), cycles)
        };
        let dense = Grader::new(&circuit, &tb);
        let reference =
            StreamAccumulator::digest_of(faults.as_slice(), &dense.run_serial(faults.as_slice()));
        let policies = [
            TracePolicy::Dense,
            TracePolicy::Checkpoint(1),
            TracePolicy::Checkpoint(3),
            TracePolicy::Checkpoint(64),
            TracePolicy::Checkpoint(100),
        ];
        for policy in policies {
            for collapse in [Collapse::Early, Collapse::Horizon] {
                for threads in [1usize, 2, 4, 8] {
                    let plan = CampaignPlan::builder(&circuit, &tb)
                        .faults(faults.clone())
                        .trace_policy(policy)
                        .collapse(collapse)
                        .policy(ShardPolicy::with_threads(threads))
                        .build();
                    let run = Engine::new(&plan).try_run_streamed(&plan).unwrap();
                    assert_eq!(
                        run.digest(),
                        reference,
                        "{name}: {} collapse {} @ {threads} threads",
                        policy.label(),
                        collapse.label(),
                    );
                }
            }
        }
    }
}

/// Every modelled emulation technique reports the identical campaign
/// whether the software oracle graded with early collapse or walked
/// every fault to the horizon — same summary, same cycle-accurate
/// timing, under dense and checkpointed traces.
#[test]
fn every_technique_reports_identically_under_both_collapse_modes() {
    let circuit = registry::build("b13s").expect("registered");
    let cycles = 20;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 47);
    let mut campaigns = Vec::new();
    for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(3)] {
        for collapse in [Collapse::Early, Collapse::Horizon] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .trace_policy(policy)
                .collapse(collapse)
                .threads(2)
                .build();
            let run = Engine::new(&plan).run(&plan);
            let (faults, outcomes) = run.into_single().expect("exhaustive");
            campaigns.push(AutonomousCampaign::from_graded(
                &circuit,
                &tb,
                faults,
                outcomes,
                TimingConfig::default(),
            ));
        }
    }
    for tech in Technique::ALL {
        let reports: Vec<EmulationReport> = campaigns.iter().map(|c| c.run(tech)).collect();
        for r in &reports[1..] {
            assert_eq!(r.summary, reports[0].summary, "{tech}: summary");
            assert_eq!(r.timing, reports[0].timing, "{tech}: timing");
        }
    }
}

/// A lane retired at cycle `c` is never re-simulated after `c`: under
/// early collapse the per-chunk simulation-step counter stops at the
/// chunk's last decision cycle, while the horizon mode walks every
/// chunk to the end of the bench. Verdicts stay identical either way.
#[test]
fn retired_lanes_are_never_resimulated() {
    let circuit = registry::build("b01s").expect("registered");
    let cycles = 40;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 11);
    let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
    for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(8)] {
        let grader = Grader::with_policy(&circuit, &tb, policy);
        let serial: Vec<FaultOutcome> =
            faults.iter().map(|f| grader.classify_serial(f)).collect();
        let lanes = grader.chunk_lanes();
        let mut chunks: Vec<Vec<Fault>> = Vec::new();
        for cycle_group in faults.as_slice().chunks(circuit.num_ffs()) {
            for chunk in cycle_group.chunks(lanes) {
                chunks.push(chunk.to_vec());
            }
        }

        let mut early = grader.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
        let mut horizon = grader.new_scratch(Collapse::Horizon, DEFAULT_WINDOW_CACHE_SPANS);
        let mut expected_early = 0u64;
        let mut expected_horizon = 0u64;
        let mut cursor = 0;
        for chunk in &chunks {
            let mut out_e = vec![FaultOutcome::latent(); chunk.len()];
            let mut out_h = vec![FaultOutcome::latent(); chunk.len()];
            grader.grade_chunk(&mut early, chunk, &mut out_e);
            grader.grade_chunk(&mut horizon, chunk, &mut out_h);
            let want = &serial[cursor..cursor + chunk.len()];
            assert_eq!(out_e, want, "{}: early verdicts", policy.label());
            assert_eq!(out_h, want, "{}: horizon verdicts", policy.label());
            cursor += chunk.len();

            // The chunk's walk may stop the cycle its last lane decides;
            // a latent lane pins it to the horizon.
            let t = u64::from(chunk[0].cycle);
            let last_decision = want
                .iter()
                .map(|o| u64::from(o.classify_cycle(cycles)))
                .max()
                .expect("non-empty chunk");
            expected_early += last_decision - t + 1;
            expected_horizon += cycles as u64 - t;
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
