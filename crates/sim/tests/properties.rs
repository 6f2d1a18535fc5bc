//! Property-based checks of the simulation engines.

use proptest::prelude::*;
use seugrade_netlist::{FfIndex, GateKind, Netlist, NetlistBuilder, SigId};
use seugrade_sim::{CompiledSim, EventSim, SplitMix64, Testbench, TracePolicy};

/// Deterministic random circuit from a seed (acyclic by construction).
fn random_netlist(seed: u64, num_inputs: usize, num_ffs: usize, num_gates: usize) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let mut b = NetlistBuilder::new("prop");
    let mut sigs: Vec<SigId> = Vec::new();
    for i in 0..num_inputs {
        sigs.push(b.input(format!("i{i}")));
    }
    let mut ffs = Vec::new();
    for _ in 0..num_ffs {
        let q = b.dff(rng.next_bool());
        ffs.push(q);
        sigs.push(q);
    }
    for _ in 0..num_gates {
        use GateKind::*;
        let kind = [And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Mux][rng.index(9)];
        let pick = |rng: &mut SplitMix64, sigs: &[SigId]| sigs[rng.index(sigs.len())];
        let g = match kind {
            Not | Buf => {
                let a = pick(&mut rng, &sigs);
                b.gate(kind, &[a])
            }
            Mux => {
                let s = pick(&mut rng, &sigs);
                let d0 = pick(&mut rng, &sigs);
                let d1 = pick(&mut rng, &sigs);
                b.mux(s, d0, d1)
            }
            _ => {
                let x = pick(&mut rng, &sigs);
                let y = pick(&mut rng, &sigs);
                b.gate(kind, &[x, y])
            }
        };
        sigs.push(g);
    }
    for (i, &q) in ffs.iter().enumerate() {
        let d = sigs[rng.index(sigs.len())];
        b.connect_dff(q, d).expect("connects");
        b.output(format!("ffo{i}"), q);
    }
    for i in 0..3 {
        b.output(format!("o{i}"), sigs[rng.index(sigs.len())]);
    }
    b.finish().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The two engines agree on arbitrary circuits and stimuli.
    #[test]
    fn engines_agree(
        seed in 0u64..10_000,
        tb_seed in 0u64..10_000,
        num_inputs in 1usize..5,
        num_ffs in 1usize..7,
        num_gates in 5usize..50,
        cycles in 1usize..30,
    ) {
        let n = random_netlist(seed, num_inputs, num_ffs, num_gates);
        let tb = Testbench::random(n.num_inputs(), cycles, tb_seed);
        let fast = CompiledSim::new(&n).run_golden(&tb);
        let slow = EventSim::new(&n).run_golden(&tb);
        prop_assert_eq!(fast, slow);
    }

    /// Flipping one lane leaves all other lanes untouched.
    #[test]
    fn lanes_are_isolated(
        seed in 0u64..10_000,
        lane in 1u32..64,
        ff_pick in 0usize..100,
        cycles in 1usize..20,
    ) {
        let n = random_netlist(seed, 2, 4, 25);
        let sim = CompiledSim::new(&n);
        let tb = Testbench::random(2, cycles, seed ^ 0x55);
        let mut st = sim.new_state();
        let ff = FfIndex::new(ff_pick % 4);
        sim.flip_ff_lane(&mut st, ff, lane);
        for t in 0..cycles {
            sim.set_inputs(&mut st, tb.cycle(t));
            sim.eval(&mut st);
            // lane 0 must track a fresh golden machine exactly.
            let golden = sim.run_golden(&tb.truncated(t + 1));
            prop_assert_eq!(
                sim.outputs_lane(&st, 0),
                golden.output_at(t).to_vec(),
                "lane 0 corrupted at cycle {}", t
            );
            sim.step(&mut st);
        }
    }

    /// Determinism: two fresh states produce identical traces.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..10_000, cycles in 1usize..25) {
        let n = random_netlist(seed, 3, 3, 30);
        let tb = Testbench::random(3, cycles, seed);
        let sim = CompiledSim::new(&n);
        prop_assert_eq!(sim.run_golden(&tb), sim.run_golden(&tb));
    }

    /// Reset returns a used state to the pristine trajectory.
    #[test]
    fn reset_restores_trajectory(seed in 0u64..10_000) {
        let n = random_netlist(seed, 2, 5, 20);
        let tb = Testbench::random(2, 12, seed ^ 0x77);
        let sim = CompiledSim::new(&n);
        let mut st = sim.new_state();
        // Dirty the state.
        for t in 0..5 {
            sim.cycle(&mut st, tb.cycle(t));
        }
        sim.flip_ff_lane(&mut st, FfIndex::new(0), 7);
        sim.reset(&mut st);
        // Re-run and compare against a fresh golden.
        let golden = sim.run_golden(&tb);
        for t in 0..tb.num_cycles() {
            sim.set_inputs(&mut st, tb.cycle(t));
            sim.eval(&mut st);
            prop_assert_eq!(sim.outputs_lane(&st, 0), golden.output_at(t).to_vec());
            sim.step(&mut st);
        }
    }

    /// Golden trace shape invariants.
    #[test]
    fn golden_trace_shape(seed in 0u64..10_000, cycles in 1usize..30) {
        let n = random_netlist(seed, 2, 3, 15);
        let tb = Testbench::random(2, cycles, seed);
        let sim = CompiledSim::new(&n);
        let run = sim.run_golden(&tb);
        let trace = sim.run_golden_with(&tb, TracePolicy::default());
        prop_assert_eq!((run.start(), run.end()), (0, cycles));
        prop_assert_eq!(trace.num_cycles(), cycles);
        prop_assert_eq!(trace.num_ffs(), n.num_ffs());
        prop_assert_eq!(trace.num_outputs(), n.num_outputs());
        prop_assert_eq!(run.output_at(0).len(), n.num_outputs());
        let inits = n.ff_init_values();
        prop_assert_eq!(run.state_at(0), inits.as_slice());
        prop_assert_eq!(run.state_at(cycles), trace.final_state());
    }
}
