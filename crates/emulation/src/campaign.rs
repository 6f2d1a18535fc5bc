//! End-to-end autonomous fault-grading campaigns.

use std::fmt;

use seugrade_engine::{
    CampaignPlan, Engine, EngineError, EngineStats, PersistentSink, ResumeError, ResumeOptions,
    ShardPolicy, StreamAccumulator, VerdictSink,
};
use seugrade_faultsim::{Fault, FaultList, FaultOutcome, GradingSummary};
use seugrade_netlist::Netlist;
use seugrade_sim::{Testbench, TracePolicy};

use crate::controller::{
    mask_scan_timing, state_scan_timing, time_mux_timing, CampaignTiming, TimingAccumulator,
    TimingConfig,
};
use crate::ram::{RamParams, RamPlan};

/// The three autonomous fault-injection techniques of the paper.
///
/// The type now lives in [`seugrade_engine`] (campaign plans are
/// technique-aware); this re-export keeps its historical home valid.
pub use seugrade_engine::Technique;

/// Result of one autonomous campaign.
#[derive(Clone, Debug)]
pub struct EmulationReport {
    /// Which technique ran.
    pub technique: Technique,
    /// Fault classification tallies.
    pub summary: GradingSummary,
    /// Cycle-accurate timing (Table 2 row).
    pub timing: CampaignTiming,
    /// Memory plan (Table 1 RAM column).
    pub ram: RamPlan,
}

impl fmt::Display for EmulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2} ms, {:.2} us/fault | {}",
            self.technique,
            self.timing.millis(),
            self.timing.us_per_fault(),
            self.summary
        )
    }
}

/// A configured autonomous campaign for one circuit and test bench.
///
/// Construction grades the **exhaustive** fault list once through the
/// sharded [`seugrade_engine`] runtime (bit-identical to the serial
/// oracle at any thread count); [`run`](Self::run) then derives each
/// technique's report from the shared outcomes (the techniques classify
/// identically — a property the gate-level harness verifies — and differ
/// only in time and resources). Callers that already executed an engine
/// run can skip re-grading with [`from_graded`](Self::from_graded).
#[derive(Debug)]
pub struct AutonomousCampaign {
    faults: FaultList,
    outcomes: Vec<FaultOutcome>,
    summary: GradingSummary,
    num_inputs: usize,
    num_outputs: usize,
    num_ffs: usize,
    num_cycles: usize,
    timing_config: TimingConfig,
}

impl AutonomousCampaign {
    /// Grades the exhaustive fault list of `circuit` under `tb`.
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the circuit.
    #[must_use]
    pub fn new(circuit: &Netlist, tb: &Testbench) -> Self {
        Self::with_config(circuit, tb, TimingConfig::default())
    }

    /// Like [`new`](Self::new) with explicit timing overheads.
    #[must_use]
    pub fn with_config(circuit: &Netlist, tb: &Testbench, timing_config: TimingConfig) -> Self {
        let plan = CampaignPlan::builder(circuit, tb)
            .policy(ShardPolicy::auto())
            .build();
        let run = Engine::new(&plan).run(&plan);
        let (faults, outcomes) = run
            .into_single()
            .expect("exhaustive plans grade single faults");
        Self::from_graded(circuit, tb, faults, outcomes, timing_config)
    }

    /// Wraps an already-graded exhaustive campaign — typically the result
    /// of a [`seugrade_engine`] run — without grading anything again.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is not parallel to `faults`, the fault list's
    /// originating fault-space dimensions do not match the circuit and
    /// test bench, or the test bench width does not match the circuit.
    #[must_use]
    pub fn from_graded(
        circuit: &Netlist,
        tb: &Testbench,
        faults: FaultList,
        outcomes: Vec<FaultOutcome>,
        timing_config: TimingConfig,
    ) -> Self {
        assert_eq!(
            faults.len(),
            outcomes.len(),
            "outcomes must be parallel to the fault list"
        );
        assert_eq!(
            tb.num_inputs(),
            circuit.num_inputs(),
            "test bench width does not match circuit"
        );
        // The timing models index cycles up to the fault list's horizon;
        // graded data from a different fault space would silently produce
        // wrong Table-2 numbers.
        assert_eq!(
            faults.num_ffs(),
            circuit.num_ffs(),
            "fault list flip-flop space does not match circuit"
        );
        assert_eq!(
            faults.num_cycles(),
            tb.num_cycles(),
            "fault list cycle space does not match test bench"
        );
        let summary = GradingSummary::from_outcomes(&outcomes);
        AutonomousCampaign {
            faults,
            outcomes,
            summary,
            num_inputs: circuit.num_inputs(),
            num_outputs: circuit.num_outputs(),
            num_ffs: circuit.num_ffs(),
            num_cycles: tb.num_cycles(),
            timing_config,
        }
    }

    /// The graded fault list (cycle-major exhaustive order).
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        self.faults.as_slice()
    }

    /// Per-fault outcomes, parallel to [`faults`](Self::faults).
    #[must_use]
    pub fn outcomes(&self) -> &[FaultOutcome] {
        &self.outcomes
    }

    /// The shared classification summary.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        &self.summary
    }

    /// Number of test-bench cycles.
    #[must_use]
    pub fn num_cycles(&self) -> usize {
        self.num_cycles
    }

    /// Number of circuit flip-flops.
    #[must_use]
    pub fn num_ffs(&self) -> usize {
        self.num_ffs
    }

    /// Grades the exhaustive fault space through the engine's
    /// **streaming** path under `trace_policy`, folding the technique
    /// timing models online — the fault list, the per-fault outcomes and
    /// (under [`TracePolicy::Checkpoint`]) the dense golden trace never
    /// exist in memory. The resulting [`StreamedCampaign`] produces the
    /// same per-technique [`EmulationReport`]s as a materialized
    /// campaign (a property the test suite enforces).
    ///
    /// This is [`streamed_resumable`](Self::streamed_resumable) with
    /// default [`ResumeOptions`]: no checkpoint, no limit, no
    /// cancellation, so the run always completes.
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the circuit, the
    /// policy is `Checkpoint(0)`, or a chunk panics on every attempt of
    /// its retry budget.
    #[must_use]
    pub fn streamed(
        circuit: &Netlist,
        tb: &Testbench,
        timing_config: TimingConfig,
        trace_policy: TracePolicy,
    ) -> StreamedCampaign {
        let opts = ResumeOptions::default();
        Self::streamed_resumable(circuit, tb, timing_config, trace_policy, &opts)
            .unwrap_or_else(|e| panic!("{e}"))
            .complete
            .expect("a run without limit or cancellation completes")
    }

    /// The **interruption-safe** variant of [`streamed`](Self::streamed):
    /// grades through the engine's resumable path, persisting campaign
    /// progress (including the online technique-timing fold) to the
    /// checkpoint configured in `opts` and honouring its cancellation
    /// token and chunk limit. When the run stops early the returned
    /// status carries the cursor instead of reports; invoking this again
    /// with [`ResumeOptions::resume_from`] continues where it stopped
    /// and — once complete — yields [`EmulationReport`]s identical to an
    /// uninterrupted [`streamed`](Self::streamed) campaign.
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the circuit or the
    /// policy is `Checkpoint(0)`.
    pub fn streamed_resumable(
        circuit: &Netlist,
        tb: &Testbench,
        timing_config: TimingConfig,
        trace_policy: TracePolicy,
        opts: &ResumeOptions,
    ) -> Result<StreamedCampaignStatus, EngineError> {
        let plan = CampaignPlan::builder(circuit, tb)
            .policy(ShardPolicy::auto())
            .trace_policy(trace_policy)
            .build();
        let engine = Engine::new(&plan);
        let run = engine.run_streamed_resumable_with::<CampaignSink>(&plan, opts)?;
        let (chunks_done, chunks_total) = (run.chunks_done, run.chunks_total);
        let (faults_done, faults_total) = (run.faults_done, run.faults_total);
        let (resumed_from, interrupted) = (run.resumed_from, run.interrupted);
        let complete = run.is_complete().then(|| {
            let timings =
                run.sink.finish_timings(&timing_config, tb.num_cycles(), circuit.num_ffs());
            StreamedCampaign {
                summary: run.sink.summary().clone(),
                digest: run.sink.digest(),
                timings,
                ram_params: RamParams {
                    num_inputs: circuit.num_inputs(),
                    num_outputs: circuit.num_outputs(),
                    num_ffs: circuit.num_ffs(),
                    num_cycles: tb.num_cycles(),
                    num_faults: faults_total,
                },
                stats: run.stats,
            }
        });
        Ok(StreamedCampaignStatus {
            complete,
            chunks_done,
            chunks_total,
            faults_done,
            faults_total,
            resumed_from,
            interrupted,
        })
    }

    /// Produces the emulation report for one technique.
    #[must_use]
    pub fn run(&self, technique: Technique) -> EmulationReport {
        let timing = match technique {
            Technique::MaskScan => mask_scan_timing(
                self.faults.as_slice(),
                &self.outcomes,
                self.num_cycles,
                &self.timing_config,
            ),
            Technique::StateScan => state_scan_timing(
                self.faults.as_slice(),
                &self.outcomes,
                self.num_cycles,
                self.num_ffs,
                &self.timing_config,
            ),
            Technique::TimeMux => time_mux_timing(
                self.faults.as_slice(),
                &self.outcomes,
                self.num_cycles,
                &self.timing_config,
            ),
        };
        let ram = RamPlan::plan(
            technique,
            &RamParams {
                num_inputs: self.num_inputs,
                num_outputs: self.num_outputs,
                num_ffs: self.num_ffs,
                num_cycles: self.num_cycles,
                num_faults: self.faults.len(),
            },
        );
        EmulationReport { technique, summary: self.summary.clone(), timing, ram }
    }
}

/// The engine-side sink of a streamed campaign: the engine's
/// order-independent verdict accumulator (class tallies, per-flip-flop
/// failure map, and the campaign's **verdict digest**) plus the online
/// technique timing fold. Order-insensitive by construction, as
/// [`VerdictSink`] requires.
///
/// [`AutonomousCampaign::streamed`] and
/// [`AutonomousCampaign::streamed_resumable`] both fold into it through
/// [`Engine::run_streamed_resumable_with`], the engine's one chunk loop
/// (`streamed` with default options: no checkpoint, one pool call).
/// Public so services multiplexing campaigns (`seugrade-serve`) can
/// drive that entry point directly and read the digest, summary and
/// per-technique timings out of each job's sink.
#[derive(Debug, Default)]
pub struct CampaignSink {
    acc: StreamAccumulator,
    timing: TimingAccumulator,
}

impl CampaignSink {
    /// The classification tallies folded so far.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        self.acc.summary()
    }

    /// The order-independent verdict digest folded so far (equal to
    /// [`StreamAccumulator::digest`] over the same verdicts).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.acc.digest()
    }

    /// Per-flip-flop failure counts folded so far.
    #[must_use]
    pub fn failure_map(&self) -> &[usize] {
        self.acc.failure_map()
    }

    /// Closes the online timing fold into the three per-technique
    /// timings, in [`Technique::ALL`] order.
    #[must_use]
    pub fn finish_timings(
        &self,
        config: &TimingConfig,
        num_cycles: usize,
        num_ffs: usize,
    ) -> [CampaignTiming; 3] {
        self.timing.finish(config, num_cycles, num_ffs)
    }
}

impl VerdictSink for CampaignSink {
    fn observe(&mut self, fault: Fault, outcome: FaultOutcome) {
        self.acc.observe(fault, outcome);
        self.timing.observe(fault, outcome);
    }

    fn merge(&mut self, other: Self) {
        self.acc.merge(other.acc);
        self.timing.merge(&other.timing);
    }
}

impl PersistentSink for CampaignSink {
    fn save_lines(&self, out: &mut Vec<String>) {
        self.acc.save_lines(out);
        out.push(self.timing.checkpoint_line());
    }

    fn restore_lines(lines: &[String], base_line: usize) -> Result<Self, ResumeError> {
        let corrupt = |off: usize, msg: String| ResumeError::Corrupt { line: base_line + off, msg };
        if lines.len() != 4 {
            return Err(corrupt(0, format!("expected 4 sink lines, found {}", lines.len())));
        }
        let acc = StreamAccumulator::restore_lines(&lines[..3], base_line)?;
        let timing = TimingAccumulator::from_checkpoint_line(&lines[3])
            .ok_or_else(|| corrupt(3, format!("malformed timing line {:?}", lines[3])))?;
        Ok(CampaignSink { acc, timing })
    }
}

/// A finished memory-bounded campaign: summary, per-technique timings
/// and RAM plans — no fault list, no outcome vector.
///
/// Produced by [`AutonomousCampaign::streamed`]; yields the same
/// [`EmulationReport`]s as the materialized path.
#[derive(Clone, Debug)]
pub struct StreamedCampaign {
    summary: GradingSummary,
    digest: u64,
    timings: [CampaignTiming; 3],
    ram_params: RamParams,
    stats: EngineStats,
}

impl StreamedCampaign {
    /// The shared classification summary.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        &self.summary
    }

    /// The order-independent verdict digest of the graded campaign —
    /// equal to [`StreamAccumulator::digest`] over the same fault space,
    /// so streamed, materialized and multiplexed (service) runs can be
    /// compared bit-for-bit.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// What the streamed grading run cost on the host.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Produces the emulation report for one technique (identical to
    /// the materialized [`AutonomousCampaign::run`] over the same
    /// campaign).
    #[must_use]
    pub fn run(&self, technique: Technique) -> EmulationReport {
        let timing = *Technique::ALL
            .iter()
            .zip(&self.timings)
            .find(|(t, _)| **t == technique)
            .map(|(_, timing)| timing)
            .expect("one timing per technique");
        EmulationReport {
            technique,
            summary: self.summary.clone(),
            timing,
            ram: RamPlan::plan(technique, &self.ram_params),
        }
    }
}

/// Progress of a resumable streamed campaign
/// ([`AutonomousCampaign::streamed_resumable`]).
///
/// `complete` holds the finished [`StreamedCampaign`] once every chunk
/// has been graded (possibly across several interrupted-and-resumed
/// invocations); until then the cursor fields say how far the persisted
/// campaign has progressed.
#[derive(Clone, Debug)]
pub struct StreamedCampaignStatus {
    /// The finished campaign, once all chunks are graded.
    pub complete: Option<StreamedCampaign>,
    /// Chunks graded so far (cumulative across resumes).
    pub chunks_done: usize,
    /// Total chunks in the campaign.
    pub chunks_total: usize,
    /// Faults graded so far (cumulative across resumes).
    pub faults_done: usize,
    /// Total faults in the campaign.
    pub faults_total: usize,
    /// Cursor this invocation started from (0 for fresh runs).
    pub resumed_from: usize,
    /// True when the invocation stopped before the last chunk.
    pub interrupted: bool,
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::generators;
    use seugrade_sim::Testbench;

    use super::*;

    fn campaign() -> AutonomousCampaign {
        let circuit = generators::lfsr(10, &[9, 6]);
        let tb = Testbench::constant_low(0, 30);
        AutonomousCampaign::new(&circuit, &tb)
    }

    #[test]
    fn exhaustive_fault_count() {
        let c = campaign();
        assert_eq!(c.faults().len(), 10 * 30);
        assert_eq!(c.summary().total(), 300);
    }

    #[test]
    fn all_techniques_report() {
        let c = campaign();
        for tech in Technique::ALL {
            let r = c.run(tech);
            assert_eq!(r.summary.total(), 300);
            assert!(r.timing.total_cycles > 0);
            assert_eq!(r.timing.num_faults, 300);
            assert!(r.ram.fpga_bits() > 0 || r.ram.board_bits() > 0);
            assert!(r.to_string().contains("us/fault"));
        }
    }

    #[test]
    fn summaries_are_technique_independent() {
        let c = campaign();
        let a = c.run(Technique::MaskScan).summary;
        let b = c.run(Technique::TimeMux).summary;
        assert_eq!(a, b);
    }

    #[test]
    fn time_mux_is_fastest_on_lfsr() {
        // An all-output LFSR detects every fault immediately, the ideal
        // case for early termination.
        let c = campaign();
        let mask = c.run(Technique::MaskScan).timing.total_cycles;
        let tmux = c.run(Technique::TimeMux).timing.total_cycles;
        assert!(tmux < mask, "tmux {tmux} >= mask {mask}");
    }

    #[test]
    fn native_classes() {
        assert_eq!(Technique::MaskScan.native_classes(), 2);
        assert_eq!(Technique::StateScan.native_classes(), 3);
        assert_eq!(Technique::TimeMux.native_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "cycle space does not match")]
    fn from_graded_rejects_foreign_fault_space() {
        let circuit = generators::lfsr(4, &[3, 2]);
        let tb_long = Testbench::constant_low(0, 20);
        let tb_short = Testbench::constant_low(0, 10);
        let run = seugrade_engine::CampaignPlan::builder(&circuit, &tb_long)
            .build()
            .execute();
        let (faults, outcomes) = run.into_single().unwrap();
        // Same circuit, same input width, but a 10-cycle bench cannot
        // host 20-cycle graded data.
        let _ = AutonomousCampaign::from_graded(
            &circuit,
            &tb_short,
            faults,
            outcomes,
            crate::controller::TimingConfig::default(),
        );
    }

    #[test]
    fn from_graded_matches_fresh_campaign() {
        let circuit = generators::lfsr(10, &[9, 6]);
        let tb = Testbench::constant_low(0, 30);
        let fresh = AutonomousCampaign::new(&circuit, &tb);
        let run = seugrade_engine::CampaignPlan::builder(&circuit, &tb)
            .build()
            .execute();
        let (faults, outcomes) = run.into_single().unwrap();
        let wrapped = AutonomousCampaign::from_graded(
            &circuit,
            &tb,
            faults,
            outcomes,
            crate::controller::TimingConfig::default(),
        );
        assert_eq!(wrapped.summary(), fresh.summary());
        assert_eq!(wrapped.outcomes(), fresh.outcomes());
        for tech in Technique::ALL {
            assert_eq!(
                wrapped.run(tech).timing.total_cycles,
                fresh.run(tech).timing.total_cycles,
                "{tech}"
            );
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Technique::MaskScan.label(), "Mask Scan");
        assert_eq!(Technique::TimeMux.to_string(), "Time Multiplex.");
    }

    #[test]
    fn interrupted_and_resumed_campaign_matches_uninterrupted_reports() {
        let circuit = generators::lfsr(10, &[9, 6]);
        let tb = Testbench::constant_low(0, 30);
        let reference = AutonomousCampaign::streamed(
            &circuit,
            &tb,
            crate::controller::TimingConfig::default(),
            TracePolicy::Dense,
        );
        let path = std::env::temp_dir().join(format!(
            "seugrade-emulation-resume-{}.ckpt",
            std::process::id()
        ));
        // First invocation: stop after 7 chunks (of 30), persisting the
        // timing fold mid-flight.
        let mut opts = ResumeOptions::checkpoint_to(&path);
        opts.every = 3;
        opts.limit = Some(7);
        let partial = AutonomousCampaign::streamed_resumable(
            &circuit,
            &tb,
            crate::controller::TimingConfig::default(),
            TracePolicy::Dense,
            &opts,
        )
        .unwrap();
        assert!(partial.interrupted && partial.complete.is_none());
        assert_eq!(partial.chunks_done, 7);
        // Second invocation resumes from the file and finishes.
        let resumed = AutonomousCampaign::streamed_resumable(
            &circuit,
            &tb,
            crate::controller::TimingConfig::default(),
            TracePolicy::Dense,
            &ResumeOptions::resume_from(&path),
        )
        .unwrap();
        assert_eq!(resumed.resumed_from, 7);
        assert!(!resumed.interrupted);
        let done = resumed.complete.expect("campaign finished");
        assert_eq!(done.summary(), reference.summary());
        for tech in Technique::ALL {
            assert_eq!(done.run(tech).timing, reference.run(tech).timing, "{tech}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_campaign_matches_materialized_reports() {
        let circuit = generators::lfsr(10, &[9, 6]);
        let tb = Testbench::constant_low(0, 30);
        let materialized = AutonomousCampaign::new(&circuit, &tb);
        for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(8)] {
            let streamed = AutonomousCampaign::streamed(
                &circuit,
                &tb,
                crate::controller::TimingConfig::default(),
                policy,
            );
            assert_eq!(streamed.summary(), materialized.summary(), "{policy}");
            assert_eq!(streamed.stats().faults, 300);
            for tech in Technique::ALL {
                let s = streamed.run(tech);
                let m = materialized.run(tech);
                assert_eq!(s.timing, m.timing, "{policy} {tech}");
                assert_eq!(s.summary, m.summary, "{policy} {tech}");
                assert_eq!(s.ram.fpga_bits(), m.ram.fpga_bits(), "{policy} {tech}");
            }
        }
    }
}
