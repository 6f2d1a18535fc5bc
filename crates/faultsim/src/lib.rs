//! Software SEU fault simulation and fault classification.
//!
//! This crate is both the **baseline** the paper compares against (fault
//! simulation on a workstation, quoted at 1300 µs/fault in 2005) and the
//! **behavioural oracle** for the autonomous-emulation models: every
//! engine in the workspace must classify every fault identically.
//!
//! # Fault model
//!
//! A transient fault ([`Fault`]) is a bit-flip (SEU) of one flip-flop at
//! the start of one test-bench cycle: `S'_t = S_t ⊕ e_ff`. The exhaustive
//! fault list is the cross product `flip-flops × cycles` — for the paper's
//! b14 experiment, 215 × 160 = 34,400 faults.
//!
//! # Classification
//!
//! Comparing the faulty run against the golden run from the injection
//! cycle `t` onward ([`FaultClass`]):
//!
//! - **Failure** — some primary output differs at a cycle `u ≥ t`
//!   (first such `u` is the *detection cycle*);
//! - **Silent** — outputs never differ and the faulty state becomes equal
//!   to the golden state (first such cycle is the *convergence cycle*;
//!   once converged nothing can ever differ);
//! - **Latent** — outputs never differ but the state still differs at the
//!   end of the test bench.
//!
//! # Engines
//!
//! [`Grader`] bundles the compiled simulator and the golden trace and
//! offers two interchangeable execution strategies: serial (one fault
//! at a time — the readable reference, [`Grader::run_serial`]) and
//! bit-parallel (64 faulty machines per simulation pass,
//! [`Grader::grade_chunk`]). A chunk is one cycle-sorted 64-lane pass
//! with a caller-owned [`GradeScratch`]; the `seugrade-engine` campaign
//! runtime cuts every campaign into such chunks and schedules them
//! across worker threads, so whole-list bit-parallel grading goes
//! through the engine.
//!
//! # Example
//!
//! ```
//! use seugrade_circuits::generators;
//! use seugrade_faultsim::{
//!     Collapse, FaultList, FaultOutcome, Grader, GradingSummary, DEFAULT_WINDOW_CACHE_SPANS,
//! };
//! use seugrade_sim::Testbench;
//!
//! let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
//! let tb = Testbench::constant_low(0, 20);
//! let grader = Grader::new(&circuit, &tb);
//! // The exhaustive list is cycle-major, so any 64 consecutive faults
//! // form a valid chunk.
//! let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
//! let mut scratch = grader.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
//! let mut outcomes = vec![FaultOutcome::latent(); faults.len()];
//! for (chunk, out) in faults.as_slice().chunks(64).zip(outcomes.chunks_mut(64)) {
//!     grader.grade_chunk(&mut scratch, chunk, out);
//! }
//! assert_eq!(outcomes, grader.run_serial(faults.as_slice()));
//! assert_eq!(GradingSummary::from_outcomes(&outcomes).total(), 8 * 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod grader;
pub mod multi;
mod outcome;
pub mod report;
pub mod sampling;
mod verdicts;

pub use fault::{Fault, FaultList};
pub use grader::{Collapse, GradeScratch, Grader, DEFAULT_WINDOW_CACHE_SPANS};
pub use multi::MultiFault;
pub use outcome::{FaultClass, FaultOutcome, GradingSummary};
pub use verdicts::{VerdictWindow, ALIAS_WINDOW};
