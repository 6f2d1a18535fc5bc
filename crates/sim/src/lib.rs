//! Logic simulation engines for `seugrade` netlists.
//!
//! Two engines with identical cycle semantics:
//!
//! - [`CompiledSim`] — a levelized, compiled simulator whose signal values
//!   are `u64` words of **64 independent boolean lanes**. Lane 0 alone
//!   gives a fast scalar simulator; all 64 lanes give the bit-parallel
//!   engine used by the fault simulator (64 faulty machines per pass).
//! - [`EventSim`] — a straightforward activity-driven simulator used as a
//!   cross-check oracle in tests.
//!
//! Shared infrastructure:
//!
//! - [`Testbench`] — per-cycle input vectors (with seeded random
//!   generation via [`SplitMix64`]);
//! - [`GoldenTrace`] — the fault-free reference run, checkpointed under
//!   a [`TracePolicy`] (full state every `K` cycles, everything else
//!   replayed on demand, into golden lanes for the serial reference) —
//!   the memory-bounded representation the streaming
//!   campaign core grades against. [`CompiledSim::run_golden`] records
//!   a whole run as one [`TraceWindow`] for conformance checks;
//! - [`BitSpan`] / [`BitCache`] — golden internal values bit-packed per
//!   cycle span, replayed lane-parallel from the trace and held in one
//!   store per grading run: the golden source of both faulty kernels;
//! - [`vcd`] — value-change-dump export for waveform debugging.
//!
//! # Cycle semantics
//!
//! State `S_t` is the flip-flop vector at the *start* of cycle `t`
//! (`S_0` = the flip-flops' initial values). During cycle `t` the inputs
//! `I_t` are applied, outputs `O_t = f_o(S_t, I_t)` are observed, and
//! [`CompiledSim::step`] latches `S_{t+1} = f_s(S_t, I_t)`. Every engine
//! and every emulation model in the workspace uses this convention.
//!
//! # Example
//!
//! ```
//! use seugrade_netlist::NetlistBuilder;
//! use seugrade_sim::{CompiledSim, Testbench};
//!
//! # fn main() -> Result<(), seugrade_netlist::NetlistError> {
//! // 2-bit counter.
//! let mut b = NetlistBuilder::new("cnt");
//! let b0 = b.dff(false);
//! let b1 = b.dff(false);
//! let n0 = b.not(b0);
//! let n1 = b.xor2(b1, b0);
//! b.connect_dff(b0, n0)?;
//! b.connect_dff(b1, n1)?;
//! b.output("msb", b1);
//! let n = b.finish()?;
//!
//! let sim = CompiledSim::new(&n);
//! let tb = Testbench::constant_low(0, 8);
//! let trace = sim.run_golden(&tb);
//! // msb = floor(t / 2) mod 2
//! assert_eq!(trace.output_at(0), &[false]);
//! assert_eq!(trace.output_at(2), &[true]);
//! assert_eq!(trace.output_at(5), &[false]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod diff;
pub mod equiv;
mod event;
mod rng;
mod tape;
mod testbench;
mod trace;
pub mod vcd;

pub use compiled::{CompiledSim, SimState};
pub use diff::{BitCache, BitSpan, DiffScratch, Walk};
pub use equiv::{equiv_check, Counterexample};
pub use event::EventSim;
pub use rng::SplitMix64;
pub use testbench::Testbench;
pub use trace::{GoldenTrace, TracePolicy, TraceWindow};

/// Which faulty-evaluation kernel a grader runs.
///
/// Both kernels produce **bit-identical verdicts** — the equivalence
/// suites pin verdict digests across every kernel, policy and thread
/// count — so the choice is purely a speed knob (and is therefore
/// excluded from campaign resume fingerprints):
///
/// - [`Generic`](Kernel::Generic) — the historical per-instruction
///   interpreter: full netlist evaluation every faulty cycle. It shares
///   no evaluation code with the differential kernel, which makes it
///   the reference the kernel cross-checks grade against.
/// - [`Differential`](Kernel::Differential) — deviation-cone evaluation:
///   only gates reachable from the dirty frontier run, and an empty
///   frontier proves reconvergence without a register scan.
/// - [`Auto`](Kernel::Auto) — currently resolves to `Differential`.
///
/// The specialized SoA tape behind [`CompiledSim::eval`] is not a
/// faulty kernel: it runs the golden machine and rebuilds golden bit
/// spans for the differential kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Let the grader pick (currently [`Differential`](Kernel::Differential)).
    #[default]
    Auto,
    /// Per-instruction interpreter, full evaluation.
    Generic,
    /// Dirty-frontier deviation-cone evaluation.
    Differential,
}

impl Kernel {
    /// Every concrete (non-`Auto`) kernel — the axis the equivalence
    /// suites iterate over.
    pub const CONCRETE: [Kernel; 2] = [Kernel::Generic, Kernel::Differential];

    /// Parses a kernel label: `auto`, `generic` or `differential`. The
    /// inverse of [`label`](Self::label).
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Kernel::Auto),
            "generic" => Some(Kernel::Generic),
            "differential" => Some(Kernel::Differential),
            _ => None,
        }
    }

    /// The label form parsed by [`from_label`](Self::from_label).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Auto => "auto",
            Kernel::Generic => "generic",
            Kernel::Differential => "differential",
        }
    }

    /// Resolves `Auto` to the kernel it currently selects.
    #[must_use]
    pub fn resolve(self) -> Self {
        match self {
            Kernel::Auto => Kernel::Differential,
            k => k,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// All 64 lanes set: the broadcast form of `true`.
pub const ALL_LANES: u64 = !0u64;

/// Broadcasts a boolean to all 64 lanes.
#[must_use]
pub fn broadcast(b: bool) -> u64 {
    if b {
        ALL_LANES
    } else {
        0
    }
}
