//! Parametric circuit generators.
//!
//! Used by the crossover experiment (X1) — which needs circuits with a
//! controlled flip-flop count — by property tests, and by the scalability
//! benches.

use seugrade_netlist::{GateKind, Netlist, NetlistBuilder, SigId};
use seugrade_sim::SplitMix64;

/// Fibonacci LFSR over `width` bits with XOR feedback from `taps`
/// (bit positions). All bits are outputs; no inputs.
///
/// # Panics
///
/// Panics if `width == 0`, `taps` is empty, or a tap is out of range.
#[must_use]
pub fn lfsr(width: usize, taps: &[usize]) -> Netlist {
    assert!(width > 0 && !taps.is_empty());
    assert!(taps.iter().all(|&t| t < width), "tap out of range");
    let mut b = NetlistBuilder::new(format!("lfsr{width}"));
    // Non-zero seed: initialize the low bit to 1.
    let ffs: Vec<SigId> = (0..width).map(|i| b.dff(i == 0)).collect();
    let tap_sigs: Vec<SigId> = taps.iter().map(|&t| ffs[t]).collect();
    let feedback = if tap_sigs.len() == 1 {
        b.buf(tap_sigs[0])
    } else {
        b.gate(GateKind::Xor, &tap_sigs)
    };
    b.connect_dff(ffs[0], feedback).expect("ff0 connects");
    for i in 1..width {
        b.connect_dff(ffs[i], ffs[i - 1]).expect("shift connects");
    }
    for (i, &q) in ffs.iter().enumerate() {
        b.output(format!("q{i}"), q);
    }
    b.finish().expect("lfsr is valid")
}

/// Binary up-counter of `width` bits; all bits are outputs, no inputs.
///
/// # Panics
///
/// Panics if `width == 0`.
#[must_use]
pub fn counter(width: usize) -> Netlist {
    assert!(width > 0);
    let mut b = NetlistBuilder::new(format!("counter{width}"));
    let ffs: Vec<SigId> = (0..width).map(|_| b.dff(false)).collect();
    // bit i toggles when all lower bits are 1.
    let mut carry = b.constant(true);
    for &q in &ffs {
        let next = b.xor2(q, carry);
        carry = b.and2(q, carry);
        b.connect_dff(q, next).expect("counter connects");
    }
    for (i, &q) in ffs.iter().enumerate() {
        b.output(format!("c{i}"), q);
    }
    b.finish().expect("counter is valid")
}

/// Serial-in shift register of `width` bits; 1 input, last bit is output.
///
/// # Panics
///
/// Panics if `width == 0`.
#[must_use]
pub fn shift_register(width: usize) -> Netlist {
    assert!(width > 0);
    let mut b = NetlistBuilder::new(format!("shreg{width}"));
    let din = b.input("din");
    let ffs: Vec<SigId> = (0..width).map(|_| b.dff(false)).collect();
    b.connect_dff(ffs[0], din).expect("head connects");
    for i in 1..width {
        b.connect_dff(ffs[i], ffs[i - 1]).expect("chain connects");
    }
    b.output("dout", ffs[width - 1]);
    b.finish().expect("shift register is valid")
}

/// Cross-coupled register-bank mesh — the parametric generator behind
/// the [`s5378_class`] scale fixture.
///
/// `banks` register banks of `width` bits each, cross-coupled in a ring
/// (each bank's head mixes a neighbour tap with a data input) and
/// observed through one parity output per bank. Bank `i`'s behaviour
/// rotates with `i % 3`:
///
/// - **decay** — an AND-masked shift chain (each stage gated by a
///   pseudo-random neighbour bit) observed only near its tail: injected
///   flips are usually squashed in flight before any tap sees them
///   (silent-prone);
/// - **LFSR** — persistent XOR feedback observed through eight spread
///   parity taps: flips recirculate until the output exposes them
///   (failure-prone);
/// - **hold** — bits advance only while the neighbour bank's enable bit
///   is high, the tail bit is sticky (`q ∨ q_prev`), and only the two
///   head bits are observed: flips injected behind the observation
///   point linger to the end of the bench (latent-prone).
///
/// The mix exists precisely so exhaustive campaigns on large meshes
/// exercise every grading class and every detection-latency regime —
/// the workload the streaming campaign core is benchmarked on.
///
/// # Panics
///
/// Panics if `banks < 2` or `width < 8`.
#[must_use]
pub fn banked_mesh(banks: usize, width: usize) -> Netlist {
    assert!(banks >= 2, "a mesh needs at least two banks");
    assert!(width >= 8, "a bank needs at least eight bits (parity taps)");
    let num_inputs = banks.min(8);
    let mut b = NetlistBuilder::new(format!("mesh{banks}x{width}"));
    let din: Vec<SigId> = (0..num_inputs).map(|i| b.input(format!("din{i}"))).collect();
    // All flip-flops first so banks can cross-reference freely; LFSR
    // banks power up with a seeded head bit.
    let ffs: Vec<Vec<SigId>> = (0..banks)
        .map(|i| (0..width).map(|j| b.dff(i % 3 == 1 && j == 0)).collect())
        .collect();
    for i in 0..banks {
        let q = &ffs[i];
        let neighbour = &ffs[(i + banks - 1) % banks];
        // Decay banks read the neighbour's middle so a hold bank's
        // sticky tail stays unobservable through the ring.
        let tap = neighbour[if i % 3 == 0 { width / 2 } else { width - 1 }];
        let head = b.xor2(tap, din[i % num_inputs]);
        let parity = match i % 3 {
            0 => {
                b.connect_dff(q[0], head).expect("decay head connects");
                for j in 1..width {
                    let mask = neighbour[(5 * j + 1) % width];
                    let d = b.and2(q[j - 1], mask);
                    b.connect_dff(q[j], d).expect("decay chain connects");
                }
                // Observed at the tail only: a flip must survive the
                // masks all the way down to be seen.
                fold_parity(&mut b, &q[width - 8..])
            }
            1 => {
                let fb1 = b.xor2(q[width - 1], q[width / 2]);
                let fb = b.xor2(fb1, head);
                b.connect_dff(q[0], fb).expect("lfsr head connects");
                for j in 1..width {
                    b.connect_dff(q[j], q[j - 1]).expect("lfsr chain connects");
                }
                let step = width / 8;
                let taps: Vec<SigId> = (0..8).map(|k| q[k * step]).collect();
                fold_parity(&mut b, &taps)
            }
            _ => {
                let en = neighbour[width / 3];
                let d0 = b.mux(en, q[0], head);
                b.connect_dff(q[0], d0).expect("hold head connects");
                for j in 1..width - 1 {
                    let dj = b.mux(en, q[j], q[j - 1]);
                    b.connect_dff(q[j], dj).expect("hold chain connects");
                }
                let sticky = b.or2(q[width - 1], q[width - 2]);
                b.connect_dff(q[width - 1], sticky).expect("sticky tail connects");
                // Only the head is observed; everything deeper drifts
                // out of sight.
                fold_parity(&mut b, &q[..2])
            }
        };
        b.output(format!("par{i}"), parity);
    }
    b.finish().expect("banked mesh is valid")
}

/// XOR-folds a non-empty tap list into one parity signal.
fn fold_parity(b: &mut NetlistBuilder, taps: &[SigId]) -> SigId {
    let mut parity = taps[0];
    for &t in &taps[1..] {
        parity = b.xor2(parity, t);
    }
    parity
}

/// The s5378-class scale fixture: a 24 × 64 [`banked_mesh`] — 1536
/// flip-flops, the size regime of the larger ISCAS'89 sequential
/// benchmarks (s5378 and up) that dense golden traces priced out of the
/// workspace before the streaming campaign core existed.
///
/// Registered as `s5378g`; graded in CI under
/// `TracePolicy::Checkpoint(64)`, timed by the `perf_gates` suite and
/// benchmarked by gradebench's `exhaustive-s5378g` workload.
#[must_use]
pub fn s5378_class() -> Netlist {
    banked_mesh(24, 64).renamed("s5378g")
}

/// The s38417-class scale fixture: a 160 × 64 [`banked_mesh`] — 10,240
/// flip-flops, the size regime of the largest ISCAS'89 sequential
/// benchmarks (s38417/s38584). One order of magnitude above
/// [`s5378_class`], it is the fixture that keeps the streamed grading
/// path honest about per-fault cost scaling with circuit size.
///
/// Registered as `s38417g`; gradebench's `sampled-s38417g` workload
/// grades a sample of it.
#[must_use]
pub fn s38417_class() -> Netlist {
    banked_mesh(160, 64).renamed("s38417g")
}

/// Configuration for [`random_sequential`].
#[derive(Clone, Debug)]
pub struct RandomCircuitConfig {
    /// Primary inputs.
    pub num_inputs: usize,
    /// Flip-flops.
    pub num_ffs: usize,
    /// Combinational gates.
    pub num_gates: usize,
    /// Primary outputs in addition to the flip-flop observation taps.
    pub num_outputs: usize,
    /// Fraction (numerator/8) of flip-flops directly observable at
    /// outputs; lower values produce more latent faults.
    pub observability_num: u32,
}

impl Default for RandomCircuitConfig {
    fn default() -> Self {
        RandomCircuitConfig {
            num_inputs: 4,
            num_ffs: 16,
            num_gates: 80,
            num_outputs: 6,
            observability_num: 4,
        }
    }
}

/// Seeded random sequential circuit: acyclic random gate network over
/// inputs and flip-flop outputs, random next-state taps, and a mix of
/// directly-observed and buried flip-flops.
///
/// Deterministic for a given `(config, seed)`; used heavily by property
/// tests to cross-validate the fault-simulation engines and the emulation
/// models.
///
/// # Panics
///
/// Panics if `num_ffs == 0` or `num_outputs == 0`.
#[must_use]
pub fn random_sequential(config: &RandomCircuitConfig, seed: u64) -> Netlist {
    assert!(config.num_ffs > 0 && config.num_outputs > 0);
    let mut rng = SplitMix64::new(seed);
    let mut b = NetlistBuilder::new(format!("rand{seed}"));
    let mut pool: Vec<SigId> = Vec::new();
    for i in 0..config.num_inputs {
        pool.push(b.input(format!("i{i}")));
    }
    let ffs: Vec<SigId> = (0..config.num_ffs).map(|_| b.dff(rng.next_bool())).collect();
    pool.extend(&ffs);

    for _ in 0..config.num_gates {
        use GateKind::*;
        let kind = [And, Or, Nand, Nor, Xor, Xnor, Not, Mux][rng.index(8)];
        let pick = pool[rng.index(pool.len())];
        let g = match kind {
            Not => b.not(pick),
            Mux => {
                let d0 = pool[rng.index(pool.len())];
                let d1 = pool[rng.index(pool.len())];
                b.mux(pick, d0, d1)
            }
            _ => {
                let other = pool[rng.index(pool.len())];
                b.gate(kind, &[pick, other])
            }
        };
        pool.push(g);
    }

    // Next-state: prefer late (deep) signals so flip-flops actually
    // depend on the logic.
    for &q in &ffs {
        let lo = pool.len() / 2;
        let d = pool[lo + rng.index(pool.len() - lo)];
        b.connect_dff(q, d).expect("random dff connects");
    }

    // Outputs: some random logic taps plus a subset of flip-flops.
    for i in 0..config.num_outputs {
        let sig = pool[rng.index(pool.len())];
        b.output(format!("o{i}"), sig);
    }
    for (i, &q) in ffs.iter().enumerate() {
        if rng.next_bool_ratio(config.observability_num, 8) {
            b.output(format!("ff_obs{i}"), q);
        }
    }
    b.finish().expect("random sequential circuit is valid")
}

#[cfg(test)]
mod tests {
    use seugrade_sim::{CompiledSim, EventSim, Testbench};

    use super::*;

    #[test]
    fn lfsr_cycles_through_states() {
        // x^4 + x^3 + 1 (maximal for 4 bits with taps 3,2 counting from 0).
        let n = lfsr(4, &[3, 2]);
        assert_eq!(n.num_ffs(), 4);
        let sim = CompiledSim::new(&n);
        let trace = sim.run_golden(&Testbench::constant_low(0, 15));
        let mut seen = std::collections::HashSet::new();
        for t in 0..15 {
            seen.insert(trace.output_at(t).to_vec());
        }
        assert_eq!(seen.len(), 15, "maximal-length LFSR revisited a state");
    }

    #[test]
    fn counter_counts() {
        let n = counter(6);
        let sim = CompiledSim::new(&n);
        let trace = sim.run_golden(&Testbench::constant_low(0, 70));
        for t in 0..70 {
            let v: u64 = trace
                .output_at(t)
                .iter()
                .enumerate()
                .fold(0, |a, (i, &bit)| a | (u64::from(bit) << i));
            assert_eq!(v, (t as u64) % 64);
        }
    }

    #[test]
    fn shift_register_delays() {
        let n = shift_register(5);
        let sim = CompiledSim::new(&n);
        let tb = Testbench::new(
            (0..12).map(|t| vec![t % 3 == 0]).collect(),
        );
        let trace = sim.run_golden(&tb);
        for t in 5..12 {
            assert_eq!(trace.output_at(t)[0], (t - 5) % 3 == 0, "cycle {t}");
        }
    }

    #[test]
    fn banked_mesh_shape_and_determinism() {
        let a = banked_mesh(3, 8);
        assert_eq!(a.num_ffs(), 24);
        assert_eq!(a.num_inputs(), 3);
        assert_eq!(a.num_outputs(), 3);
        let b = banked_mesh(3, 8);
        assert_eq!(seugrade_netlist::text::emit(&a), seugrade_netlist::text::emit(&b));
    }

    #[test]
    fn banked_mesh_cross_checks_engines() {
        let n = banked_mesh(3, 8);
        let tb = Testbench::random(n.num_inputs(), 40, 17);
        let fast = CompiledSim::new(&n).run_golden(&tb);
        let slow = EventSim::new(&n).run_golden(&tb);
        assert_eq!(fast, slow);
    }

    #[test]
    fn s5378_class_is_streaming_scale() {
        let n = s5378_class();
        assert_eq!(n.name(), "s5378g");
        assert!(n.num_ffs() >= 1500, "{} flip-flops", n.num_ffs());
        assert_eq!(n.num_inputs(), 8);
        assert_eq!(n.num_outputs(), 24);
        // Building it is cheap; a golden run over a short bench works.
        let tb = Testbench::random(n.num_inputs(), 4, 1);
        let trace = CompiledSim::new(&n).run_golden(&tb);
        assert_eq!(trace.end(), 4);
    }

    #[test]
    fn s38417_class_is_benchmark_scale() {
        let n = s38417_class();
        assert_eq!(n.name(), "s38417g");
        assert!(n.num_ffs() >= 10_000, "{} flip-flops", n.num_ffs());
        assert_eq!(n.num_inputs(), 8);
        assert_eq!(n.num_outputs(), 160);
        let tb = Testbench::random(n.num_inputs(), 2, 1);
        let trace = CompiledSim::new(&n).run_golden(&tb);
        assert_eq!(trace.end(), 2);
    }

    #[test]
    fn random_circuits_are_deterministic_and_valid() {
        let cfg = RandomCircuitConfig::default();
        let a = random_sequential(&cfg, 11);
        let b = random_sequential(&cfg, 11);
        assert_eq!(seugrade_netlist::text::emit(&a), seugrade_netlist::text::emit(&b));
        assert_eq!(a.num_ffs(), cfg.num_ffs);
    }

    #[test]
    fn random_circuits_cross_check_engines() {
        let cfg = RandomCircuitConfig { num_gates: 40, ..Default::default() };
        for seed in 0..10 {
            let n = random_sequential(&cfg, seed);
            let tb = Testbench::random(n.num_inputs(), 30, seed);
            let fast = CompiledSim::new(&n).run_golden(&tb);
            let slow = EventSim::new(&n).run_golden(&tb);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn observability_knob_changes_output_count() {
        let lo = random_sequential(
            &RandomCircuitConfig { observability_num: 0, ..Default::default() },
            5,
        );
        let hi = random_sequential(
            &RandomCircuitConfig { observability_num: 8, ..Default::default() },
            5,
        );
        assert!(hi.num_outputs() > lo.num_outputs());
    }
}
