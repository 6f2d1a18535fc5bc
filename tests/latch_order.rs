//! The in-place register latch of `CompiledSim::step` against a
//! two-phase reference latch that samples every `D` before it writes
//! any `Q`: shift chains, rings of direct `Q → D` wires, self-loops,
//! `D` on an input or a constant, a `Q` that is also an output, every
//! registry circuit and generated circuits. Every lane carries its own
//! random state and inputs, and the whole value store must match after
//! every clock edge.

use proptest::prelude::*;
use seugrade::generators::{random_sequential, RandomCircuitConfig};
use seugrade::prelude::*;

/// The two-phase latch: sample every flip-flop's `D` word, then write
/// every `Q`.
fn reference_step(sim: &CompiledSim, netlist: &Netlist, st: &mut seugrade_sim::SimState) {
    let next: Vec<u64> = netlist.ffs().iter().map(|&q| st.raw(netlist.cell(q).pins()[0])).collect();
    for (i, word) in next.into_iter().enumerate() {
        sim.set_ff_raw(st, FfIndex::new(i), word);
    }
}

/// Runs `cycles` clock edges from a random lane-varying state with
/// random lane-varying inputs, checking `step` against the reference
/// latch after each.
fn check_latch(netlist: &Netlist, cycles: usize, seed: u64) {
    let sim = CompiledSim::new(netlist);
    let mut rng = SplitMix64::new(seed);
    let mut st = sim.new_state();
    for i in 0..sim.num_ffs() {
        sim.set_ff_raw(&mut st, FfIndex::new(i), rng.next_u64());
    }
    for t in 0..cycles {
        let words: Vec<u64> = (0..sim.num_inputs()).map(|_| rng.next_u64()).collect();
        sim.set_inputs_raw(&mut st, &words);
        sim.eval(&mut st);
        let mut reference = st.clone();
        sim.step(&mut st);
        reference_step(&sim, netlist, &mut reference);
        assert_eq!(st, reference, "{}: cycle {t}", netlist.name());
    }
}

/// Flip-flops `qs` (already created) each latching `d_of(i)`.
fn connect(b: &mut NetlistBuilder, qs: &[SigId], d_of: impl Fn(usize) -> SigId) {
    for (i, &q) in qs.iter().enumerate() {
        b.connect_dff(q, d_of(i)).unwrap();
    }
}

#[test]
fn shift_chain_latches_like_two_phase() {
    let mut b = NetlistBuilder::new("shift");
    let a = b.input("a");
    let qs: Vec<SigId> = (0..8).map(|i| b.dff(i % 3 == 0)).collect();
    connect(&mut b, &qs, |i| if i == 0 { a } else { qs[i - 1] });
    // A `Q` that is also an output, mid-chain and at the end.
    b.output("mid", qs[3]);
    b.output("last", qs[7]);
    check_latch(&b.finish().unwrap(), 24, 1);
}

#[test]
fn rings_of_direct_wires_latch_like_two_phase() {
    let mut b = NetlistBuilder::new("rings");
    let a = b.input("a");
    // A four-flip-flop ring, a two-flip-flop swap, and a chain of
    // readers hanging off the big ring.
    let ring: Vec<SigId> = (0..4).map(|i| b.dff(i == 0)).collect();
    connect(&mut b, &ring, |i| ring[(i + 1) % 4]);
    let swap: Vec<SigId> = (0..2).map(|i| b.dff(i == 1)).collect();
    connect(&mut b, &swap, |i| swap[1 - i]);
    let tail: Vec<SigId> = (0..3).map(|_| b.dff(false)).collect();
    connect(&mut b, &tail, |i| if i == 0 { ring[2] } else { tail[i - 1] });
    let x = b.xor2(ring[0], a);
    b.output("x", x);
    b.output("swap", swap[0]);
    b.output("tail", tail[2]);
    check_latch(&b.finish().unwrap(), 24, 2);
}

#[test]
fn self_loops_inputs_and_constants_latch_like_two_phase() {
    let mut b = NetlistBuilder::new("odd_d");
    let a = b.input("a");
    let one = b.constant(true);
    let hold = b.dff(true);
    b.connect_dff(hold, hold).unwrap();
    let from_input = b.dff(false);
    b.connect_dff(from_input, a).unwrap();
    let from_const = b.dff(false);
    b.connect_dff(from_const, one).unwrap();
    // A reader of the self-loop, and a gate-fed flip-flop reading all.
    let reader = b.dff(false);
    b.connect_dff(reader, hold).unwrap();
    let g = b.gate(GateKind::Xor, &[hold, from_input, from_const]);
    let fed = b.dff(false);
    b.connect_dff(fed, g).unwrap();
    b.output("hold", hold);
    b.output("reader", reader);
    b.output("fed", fed);
    check_latch(&b.finish().unwrap(), 16, 3);
}

#[test]
fn every_registry_circuit_latches_like_two_phase() {
    for (i, name) in registry::NAMES.iter().enumerate() {
        let circuit = registry::build(name).expect("registered");
        check_latch(&circuit, 8, 10 + i as u64);
    }
}

fn arb_config() -> impl Strategy<Value = RandomCircuitConfig> {
    // Few gates beside many flip-flops: the data pins often land on
    // flip-flop outputs directly, forming chains, rings and self-loops.
    (1usize..5, 1usize..24, 0usize..24, 1usize..4, 0u32..9).prop_map(
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_circuits_latch_like_two_phase(config in arb_config(), seed in 0u64..10_000) {
        check_latch(&random_sequential(&config, seed), 12, seed);
    }
}
