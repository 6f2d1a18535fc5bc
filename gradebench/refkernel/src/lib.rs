//! Host-speed reference kernel for the grading benchmark.
//!
//! The benchmark host is shared: its speed drifts by tens of percent
//! within minutes, and each vCPU drifts on its own. No single
//! wall-clock number survives that. So every timed interval of the
//! benchmark is paired with a fresh measurement of this kernel, taken
//! on the same thread immediately before the interval, and the
//! interval is reported in *ref-seconds*:
//!
//! ```text
//! ref_s = host_s × REF_NOMINAL_S / measured_reference_s
//! ```
//!
//! The kernel has to slow down when the grader slows down, so it looks
//! like the grader's inner loop: a levelised, seeded netlist of
//! two-input AND/OR/XOR/NAND gates evaluated 64 lanes at a time over a
//! `u64` signal array, with registers fed back every cycle. The array is
//! 512 KiB, so like the grader's working set it lives in L2, not L1: an
//! L1-resident 24 KiB version tracked the grader's drift three times
//! worse, and an ALU-only multiply chain did not track it at all. It
//! deliberately depends on no other crate, so a change to the program
//! under test can never change the yardstick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::time::Instant;

/// Signals in the kernel's state array (registers first, then gates):
/// 65,536 × 8 bytes = 512 KiB.
pub const SIGNALS: usize = 65_536;
/// Registers: the first `REGISTERS` signals, rewritten every cycle.
pub const REGISTERS: usize = 128;
/// Gates evaluated per cycle.
pub const GATES: usize = SIGNALS - REGISTERS;
/// Gates per same-operation run.
pub const RUN: usize = 16;
/// How far back a gate usually reaches for its operands.
pub const LOCALITY: usize = 4096;
/// Seed of the benchmark's reference netlist.
pub const REF_SEED: u64 = 0x5e0_9ade;
/// Cycles in one reference pass.
pub const REF_CYCLES: usize = 24;
/// Passes per measurement; the fastest one is kept, so a single
/// interrupt does not skew the yardstick.
pub const REF_PASSES: usize = 3;
/// The nominal duration of one reference pass, in seconds. Fixed once:
/// a measured interval of `x` host seconds next to a reference pass of
/// `r` seconds is reported as `x × REF_NOMINAL_S / r` ref-seconds.
pub const REF_NOMINAL_S: f64 = 0.005;

/// Converts `raw_s` host seconds into ref-seconds, given the reference
/// pass time `ref_s` measured just before the interval.
#[must_use]
pub fn normalise(raw_s: f64, ref_s: f64) -> f64 {
    raw_s * REF_NOMINAL_S / ref_s
}

#[derive(Clone, Copy, Debug)]
enum Op {
    And,
    Or,
    Xor,
    Nand,
}

#[derive(Clone, Copy, Debug)]
struct Gate {
    a: u32,
    b: u32,
    op: Op,
}

/// SplitMix64, the usual seedable 64-bit generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, levelised gate netlist and its 64-lane signal state.
#[derive(Clone, Debug)]
pub struct RefKernel {
    gates: Vec<Gate>,
    /// The signal each register loads at the end of a cycle.
    feedback: Vec<u32>,
    signals: Vec<u64>,
    stimulus: u64,
}

impl RefKernel {
    /// Builds the netlist for `seed`. Gates come in runs of [`RUN`]
    /// sharing one operation, like the homogeneous opcode runs of the
    /// grader's evaluation tape. A gate reads two signals from before its
    /// run, mostly from the [`LOCALITY`] just before it (the locality of
    /// a levelised netlist), sometimes from anywhere earlier.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = seed;
        let pick = |base: usize, rng: &mut u64| -> u32 {
            let r = splitmix(rng);
            let span = if r & 7 == 0 { base } else { base.min(LOCALITY) };
            (base - 1 - (r >> 8) as usize % span) as u32
        };
        let mut op = Op::And;
        let gates = (REGISTERS..SIGNALS)
            .map(|idx| {
                let base = idx - (idx - REGISTERS) % RUN;
                if idx == base {
                    op = match splitmix(&mut rng) & 3 {
                        0 => Op::And,
                        1 => Op::Or,
                        2 => Op::Xor,
                        _ => Op::Nand,
                    };
                }
                Gate {
                    a: pick(base, &mut rng),
                    b: pick(base, &mut rng),
                    op,
                }
            })
            .collect();
        let feedback = (0..REGISTERS)
            .map(|_| (SIGNALS - 1024 + splitmix(&mut rng) as usize % 1024) as u32)
            .collect();
        let signals = (0..SIGNALS).map(|_| splitmix(&mut rng)).collect();
        RefKernel {
            gates,
            feedback,
            signals,
            stimulus: splitmix(&mut rng) | 1,
        }
    }

    /// Runs `cycles` clock cycles and returns a checksum of the
    /// register state.
    pub fn run(&mut self, cycles: usize) -> u64 {
        let RefKernel {
            gates,
            feedback,
            signals,
            stimulus,
        } = self;
        for _ in 0..cycles {
            for (k, g) in gates.iter().enumerate() {
                let (a, b) = (signals[g.a as usize], signals[g.b as usize]);
                signals[REGISTERS + k] = match g.op {
                    Op::And => a & b,
                    Op::Or => a | b,
                    Op::Xor => a ^ b,
                    Op::Nand => !(a & b),
                };
            }
            // xorshift64 input stream, one fresh word per cycle.
            *stimulus ^= *stimulus << 13;
            *stimulus ^= *stimulus >> 7;
            *stimulus ^= *stimulus << 17;
            for (r, &src) in feedback.iter().enumerate() {
                signals[r] = signals[src as usize] ^ stimulus.rotate_left(r as u32);
            }
        }
        signals[..REGISTERS]
            .iter()
            .fold(0u64, |h, &s| (h ^ s).wrapping_mul(0x100_0000_01b3))
    }
}

/// The benchmark's yardstick: the [`REF_SEED`] kernel, measured in
/// passes of [`REF_CYCLES`] cycles.
#[derive(Clone, Debug)]
pub struct Reference {
    kernel: RefKernel,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            kernel: RefKernel::new(REF_SEED),
        }
    }
}

impl Reference {
    /// Times [`REF_PASSES`] reference passes on the calling thread and
    /// returns the fastest, in host seconds.
    pub fn measure(&mut self) -> f64 {
        (0..REF_PASSES)
            .map(|_| {
                let start = Instant::now();
                black_box(self.kernel.run(black_box(REF_CYCLES)));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}
