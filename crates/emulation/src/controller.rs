//! Cycle-accurate campaign timing models (Table 2).
//!
//! The emulation *time* of an autonomous campaign is simply
//! `total clock cycles / clock frequency` — there is no host in the loop.
//! These models count the cycles each technique's controller schedule
//! spends, using the per-fault classification outcomes (detection /
//! convergence cycles) produced by the behavioural oracle. The
//! [`gate_level`](crate::gate_level) harness follows the *same schedules*
//! cycle by cycle on the real instrumented netlists, which is what ties
//! these formulas to the hardware.

use std::time::Duration;

use seugrade_faultsim::{Fault, FaultOutcome};

use crate::campaign::Technique;

/// Emulation clock frequency in Hz.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockHz(pub u64);

impl ClockHz {
    /// The paper's RC1000 configuration: 25 MHz.
    pub const PAPER: ClockHz = ClockHz(25_000_000);

    /// Converts a cycle count to wall-clock time at this frequency.
    #[must_use]
    pub fn cycles_to_time(self, cycles: u64) -> Duration {
        Duration::from_secs_f64(cycles as f64 / self.0 as f64)
    }
}

/// Fixed overheads of a campaign schedule.
#[derive(Clone, Copy, Debug)]
pub struct TimingConfig {
    /// One-time cycles for configuration/start (host writes campaign
    /// parameters, arms the controller). The paper's win is exactly that
    /// this happens once per *campaign*, not per fault.
    pub setup_cycles: u64,
    /// Controller bookkeeping cycles per fault (fault counter update,
    /// result write, circuit reset release).
    pub per_fault_overhead: u64,
    /// Emulation clock.
    pub clock: ClockHz,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig { setup_cycles: 64, per_fault_overhead: 1, clock: ClockHz::PAPER }
    }
}

/// Cycle breakdown of one campaign (one technique).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignTiming {
    /// The technique being timed.
    pub technique: Technique,
    /// Number of faults graded.
    pub num_faults: u64,
    /// Cycles of the initial golden/reference pass.
    pub golden_cycles: u64,
    /// Cycles spent shifting scan chains (mask positioning, state
    /// scan-in).
    pub scan_cycles: u64,
    /// Cycles spent actually emulating faulty behaviour.
    pub run_cycles: u64,
    /// Injection pulses.
    pub inject_cycles: u64,
    /// Checkpoint restore / golden-advance cycles (time-mux).
    pub restore_cycles: u64,
    /// Setup plus per-fault bookkeeping.
    pub overhead_cycles: u64,
    /// Grand total.
    pub total_cycles: u64,
    /// Clock used for time conversion.
    pub clock: ClockHz,
}

impl CampaignTiming {
    /// Wall-clock emulation time (Table 2, "Emulation time (ms)").
    #[must_use]
    pub fn emulation_time(&self) -> Duration {
        self.clock.cycles_to_time(self.total_cycles)
    }

    /// Emulation time in milliseconds.
    #[must_use]
    pub fn millis(&self) -> f64 {
        self.emulation_time().as_secs_f64() * 1e3
    }

    /// Average speed in µs/fault (Table 2, "Average speed").
    #[must_use]
    pub fn us_per_fault(&self) -> f64 {
        if self.num_faults == 0 {
            0.0
        } else {
            self.emulation_time().as_secs_f64() * 1e6 / self.num_faults as f64
        }
    }

    /// Average cycles per fault.
    #[must_use]
    pub fn cycles_per_fault(&self) -> f64 {
        if self.num_faults == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.num_faults as f64
        }
    }
}

fn finish(
    technique: Technique,
    cfg: &TimingConfig,
    num_faults: u64,
    golden: u64,
    scan: u64,
    run: u64,
    inject: u64,
    restore: u64,
) -> CampaignTiming {
    let overhead = cfg.setup_cycles + cfg.per_fault_overhead * num_faults;
    CampaignTiming {
        technique,
        num_faults,
        golden_cycles: golden,
        scan_cycles: scan,
        run_cycles: run,
        inject_cycles: inject,
        restore_cycles: restore,
        overhead_cycles: overhead,
        total_cycles: golden + scan + run + inject + restore + overhead,
        clock: cfg.clock,
    }
}

/// Mask-scan schedule: one golden pass, then per fault a full test-bench
/// replay from cycle 0, aborted at failure detection. The mask walks the
/// scan chain one step per flip-flop change (ff-major fault order).
///
/// # Panics
///
/// Panics if `faults` and `outcomes` lengths differ.
#[must_use]
pub fn mask_scan_timing(
    faults: &[Fault],
    outcomes: &[FaultOutcome],
    num_cycles: usize,
    cfg: &TimingConfig,
) -> CampaignTiming {
    mask_scan_timing_collapsed(faults, outcomes, num_cycles, cfg, false)
}

/// [`mask_scan_timing`] with optional **early fault collapse**: when
/// `collapse` is true a silent fault's replay aborts the cycle after its
/// state re-converges with the golden machine (the comparator that spots
/// failures also spots convergence), instead of walking to the horizon.
/// Failure and latent faults are unchanged, as is every scan/overhead
/// term — so with `collapse = false` this reproduces the paper-default
/// numbers exactly.
///
/// # Panics
///
/// Panics if `faults` and `outcomes` lengths differ.
#[must_use]
pub fn mask_scan_timing_collapsed(
    faults: &[Fault],
    outcomes: &[FaultOutcome],
    num_cycles: usize,
    cfg: &TimingConfig,
    collapse: bool,
) -> CampaignTiming {
    assert_eq!(faults.len(), outcomes.len());
    let mut scan = 0u64;
    let mut run = 0u64;
    // The campaign processes faults ff-major regardless of list order;
    // count one mask step per distinct flip-flop encountered.
    let mut ffs: Vec<_> = faults.iter().map(|f| f.ff).collect();
    ffs.sort_unstable();
    ffs.dedup();
    scan += ffs.len() as u64;
    for (f, o) in faults.iter().zip(outcomes) {
        let collapse_at = if collapse { o.converge_cycle } else { None };
        let replay_end = match o.detect_cycle.or(collapse_at) {
            Some(u) => u as u64 + 1,
            None => num_cycles as u64,
        };
        debug_assert!(u64::from(f.cycle) <= replay_end);
        run += replay_end;
    }
    finish(Technique::MaskScan, cfg, faults.len() as u64, num_cycles as u64, scan, run, 0, 0)
}

/// State-scan schedule: one golden pass (recording the per-cycle states),
/// then per fault `n_ff` scan-in cycles (the previous fault's end state
/// scans out simultaneously), one load pulse, and a run from the
/// injection cycle aborted at failure detection; non-failing faults run
/// to the end plus one capture pulse.
///
/// # Panics
///
/// Panics if `faults` and `outcomes` lengths differ.
#[must_use]
pub fn state_scan_timing(
    faults: &[Fault],
    outcomes: &[FaultOutcome],
    num_cycles: usize,
    num_ffs: usize,
    cfg: &TimingConfig,
) -> CampaignTiming {
    assert_eq!(faults.len(), outcomes.len());
    let mut scan = 0u64;
    let mut run = 0u64;
    let mut inject = 0u64;
    for (f, o) in faults.iter().zip(outcomes) {
        scan += num_ffs as u64; // scan-in (+ overlapped scan-out)
        inject += 1; // load_state pulse
        let t = u64::from(f.cycle);
        match o.detect_cycle {
            Some(u) => run += u as u64 - t + 1,
            None => {
                run += num_cycles as u64 - t;
                inject += 1; // capture pulse for the end-state check
            }
        }
    }
    finish(Technique::StateScan, cfg, faults.len() as u64, num_cycles as u64, scan, run, inject, 0)
}

/// Time-multiplexed schedule: the campaign walks the test bench once
/// (cycle-major fault order). Per fault: one mask step, one inject pulse,
/// two emulation clocks per test-bench cycle until classification
/// (failure *or* convergence — both detected in hardware), one restore
/// pulse. Per test-bench cycle: two clocks to advance and checkpoint the
/// golden machine.
///
/// # Panics
///
/// Panics if `faults` and `outcomes` lengths differ.
#[must_use]
pub fn time_mux_timing(
    faults: &[Fault],
    outcomes: &[FaultOutcome],
    num_cycles: usize,
    cfg: &TimingConfig,
) -> CampaignTiming {
    assert_eq!(faults.len(), outcomes.len());
    let mut run = 0u64;
    let mut scan = 0u64;
    let mut inject = 0u64;
    let mut restore = 0u64;
    for (f, o) in faults.iter().zip(outcomes) {
        let t = u64::from(f.cycle);
        let classify = u64::from(o.classify_cycle(num_cycles));
        debug_assert!(classify >= t);
        scan += 1; // mask step
        inject += 1; // golden->faulty copy with flip
        run += 2 * (classify - t + 1);
        restore += 1; // golden restore from checkpoint
    }
    // Golden advance + checkpoint save, once per test-bench cycle.
    let advance = 2 * num_cycles as u64;
    finish(
        Technique::TimeMux,
        cfg,
        faults.len() as u64,
        advance,
        scan,
        run,
        inject,
        restore,
    )
}

/// Online (order-insensitive) fold of all three technique timing models
/// over a streamed campaign.
///
/// The batch models above walk a materialized `(faults, outcomes)` pair;
/// this accumulator observes the same pairs one at a time — in any order,
/// from any number of workers — and [`finish`](Self::finish)es into
/// [`CampaignTiming`]s **identical** to the batch results. Every folded
/// quantity is a commutative sum (or a set union, for mask-scan's
/// distinct-flip-flop count), which is what makes the streamed campaign's
/// Table-2 numbers schedule-independent.
#[derive(Clone, Debug, Default)]
pub struct TimingAccumulator {
    num_faults: u64,
    /// Mask-scan: which flip-flops appeared (one mask step each).
    ff_seen: Vec<bool>,
    /// The index of every set `ff_seen` entry, once each, so
    /// [`absorb`](Self::absorb) costs the folded faults rather than the
    /// circuit's flip-flops.
    seen: Vec<u32>,
    /// Mask-scan: Σ (detect + 1) over failures.
    mask_fail_replay: u64,
    /// Faults with no detection (mask-scan replays them full-length;
    /// state-scan runs them to the end and spends a capture pulse).
    undetected: u64,
    /// State-scan: Σ (detect − t + 1) over failures.
    ss_fail_run: u64,
    /// Σ injection cycle over undetected faults (state-scan's
    /// `num_cycles − t` terms need it).
    undetected_t_sum: u64,
    /// Time-mux: Σ 2·(classify − t + 1) over failures and silents.
    tm_decided_run: u64,
    /// Latent faults (time-mux emulates them to the last bench cycle).
    latent: u64,
    /// Σ injection cycle over latent faults.
    latent_t_sum: u64,
}

impl TimingAccumulator {
    /// Folds one graded fault.
    pub fn observe(&mut self, fault: Fault, outcome: FaultOutcome) {
        self.num_faults += 1;
        self.see(fault.ff.index());
        let t = u64::from(fault.cycle);
        match outcome.detect_cycle {
            Some(u) => {
                self.mask_fail_replay += u64::from(u) + 1;
                self.ss_fail_run += u64::from(u) - t + 1;
            }
            None => {
                self.undetected += 1;
                self.undetected_t_sum += t;
            }
        }
        match outcome.detect_cycle.or(outcome.converge_cycle) {
            Some(c) => self.tm_decided_run += 2 * (u64::from(c) - t + 1),
            None => {
                self.latent += 1;
                self.latent_t_sum += t;
            }
        }
    }

    /// Marks flip-flop `ff` as seen.
    fn see(&mut self, ff: usize) {
        if self.ff_seen.len() <= ff {
            self.ff_seen.resize(ff + 1, false);
        }
        if !std::mem::replace(&mut self.ff_seen[ff], true) {
            self.seen.push(ff as u32);
        }
    }

    /// Absorbs another worker's accumulator.
    pub fn merge(&mut self, other: &TimingAccumulator) {
        self.num_faults += other.num_faults;
        for &ff in &other.seen {
            self.see(ff as usize);
        }
        self.mask_fail_replay += other.mask_fail_replay;
        self.undetected += other.undetected;
        self.ss_fail_run += other.ss_fail_run;
        self.undetected_t_sum += other.undetected_t_sum;
        self.tm_decided_run += other.tm_decided_run;
        self.latent += other.latent;
        self.latent_t_sum += other.latent_t_sum;
    }

    /// [`merge`](Self::merge)s `other` and leaves it empty, walking only
    /// the flip-flops it saw; `other` keeps its `ff_seen` allocation
    /// (all clear) for the next chunk.
    pub(crate) fn absorb(&mut self, other: &mut TimingAccumulator) {
        self.merge(other);
        for ff in other.seen.drain(..) {
            other.ff_seen[ff as usize] = false;
        }
        let ff_seen = std::mem::take(&mut other.ff_seen);
        *other = TimingAccumulator { ff_seen, ..TimingAccumulator::default() };
    }

    /// Serializes the folded state as one single-line checkpoint record
    /// (the `ff_seen` set travels as a `<len>:<hex>` nibble bitmap).
    /// [`from_checkpoint_line`](Self::from_checkpoint_line) inverts it
    /// exactly, so a resumed streamed campaign finishes into the same
    /// Table-2 numbers as an uninterrupted one.
    #[must_use]
    pub fn checkpoint_line(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut bitmap = String::with_capacity(self.ff_seen.len() / 4 + 1);
        for chunk in self.ff_seen.chunks(4) {
            let mut nibble = 0usize;
            for (j, &seen) in chunk.iter().enumerate() {
                if seen {
                    nibble |= 1 << j;
                }
            }
            bitmap.push(HEX[nibble] as char);
        }
        format!(
            "timing {} {} {} {} {} {} {} {} {}:{bitmap}",
            self.num_faults,
            self.mask_fail_replay,
            self.undetected,
            self.ss_fail_run,
            self.undetected_t_sum,
            self.tm_decided_run,
            self.latent,
            self.latent_t_sum,
            self.ff_seen.len(),
        )
    }

    /// Parses a [`checkpoint_line`](Self::checkpoint_line) record;
    /// `None` if the line is not a well-formed timing record.
    #[must_use]
    pub fn from_checkpoint_line(line: &str) -> Option<Self> {
        let rest = line.strip_prefix("timing ")?;
        let fields: Vec<&str> = rest.split(' ').collect();
        if fields.len() != 9 {
            return None;
        }
        let int = |s: &str| s.parse::<u64>().ok();
        let (len_str, bitmap) = fields[8].split_once(':')?;
        let len: usize = len_str.parse().ok()?;
        if bitmap.len() != len.div_ceil(4) {
            return None;
        }
        let mut ff_seen = vec![false; len];
        for (i, c) in bitmap.chars().enumerate() {
            let nibble = c.to_digit(16)?;
            for j in 0..4 {
                let idx = i * 4 + j;
                if idx < len {
                    ff_seen[idx] = nibble & (1 << j) != 0;
                }
            }
        }
        let seen = (0..len as u32).filter(|&ff| ff_seen[ff as usize]).collect();
        Some(TimingAccumulator {
            num_faults: int(fields[0])?,
            ff_seen,
            seen,
            mask_fail_replay: int(fields[1])?,
            undetected: int(fields[2])?,
            ss_fail_run: int(fields[3])?,
            undetected_t_sum: int(fields[4])?,
            tm_decided_run: int(fields[5])?,
            latent: int(fields[6])?,
            latent_t_sum: int(fields[7])?,
        })
    }

    /// Produces the three per-technique timings, in
    /// [`Technique::ALL`] order — bit-identical to the batch models over
    /// the same `(fault, outcome)` set.
    #[must_use]
    pub fn finish(
        &self,
        cfg: &TimingConfig,
        num_cycles: usize,
        num_ffs: usize,
    ) -> [CampaignTiming; 3] {
        let n = num_cycles as u64;
        let distinct_ffs = self.seen.len() as u64;
        let mask = finish(
            Technique::MaskScan,
            cfg,
            self.num_faults,
            n,
            distinct_ffs,
            self.mask_fail_replay + self.undetected * n,
            0,
            0,
        );
        let state = finish(
            Technique::StateScan,
            cfg,
            self.num_faults,
            n,
            self.num_faults * num_ffs as u64,
            self.ss_fail_run + self.undetected * n - self.undetected_t_sum,
            self.num_faults + self.undetected,
            0,
        );
        // Latent faults emulate to the last bench cycle:
        // 2·((n−1) − t + 1) = 2·(n − t) per fault.
        let tm_run = self.tm_decided_run + 2 * (self.latent * n - self.latent_t_sum);
        let tmux = finish(
            Technique::TimeMux,
            cfg,
            self.num_faults,
            2 * n,
            self.num_faults,
            tm_run,
            self.num_faults,
            self.num_faults,
        );
        [mask, state, tmux]
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::FfIndex;

    use super::*;

    fn fault(ff: usize, t: u32) -> Fault {
        Fault::new(FfIndex::new(ff), t)
    }

    fn cfg() -> TimingConfig {
        TimingConfig { setup_cycles: 0, per_fault_overhead: 0, clock: ClockHz::PAPER }
    }

    #[test]
    fn clock_conversion() {
        let c = ClockHz(25_000_000);
        assert_eq!(c.cycles_to_time(25_000_000), Duration::from_secs(1));
        let t = c.cycles_to_time(25); // 1 us
        assert!((t.as_secs_f64() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn timing_accumulator_checkpoint_roundtrip() {
        let mut acc = TimingAccumulator::default();
        acc.observe(fault(0, 3), FaultOutcome::failure(7));
        acc.observe(fault(6, 1), FaultOutcome::silent(4));
        acc.observe(fault(2, 0), FaultOutcome::latent());
        let line = acc.checkpoint_line();
        let back = TimingAccumulator::from_checkpoint_line(&line).unwrap();
        let cfg = cfg();
        assert_eq!(back.finish(&cfg, 20, 7), acc.finish(&cfg, 20, 7));
        // Restored accumulators keep folding identically.
        let extra = (fault(5, 9), FaultOutcome::failure(12));
        let mut a = acc.clone();
        let mut b = back;
        a.observe(extra.0, extra.1);
        b.observe(extra.0, extra.1);
        assert_eq!(a.finish(&cfg, 20, 7), b.finish(&cfg, 20, 7));
    }

    #[test]
    fn timing_checkpoint_rejects_malformed_lines() {
        for bad in [
            "",
            "timing",
            "timing 1 2 3",
            "timing 1 2 3 4 5 6 7 8 9",      // bitmap field not len:hex
            "timing 1 2 3 4 5 6 7 8 8:f",     // bitmap too short for len
            "timing x 2 3 4 5 6 7 8 0:",      // non-numeric field
            "other 1 2 3 4 5 6 7 8 0:",
        ] {
            assert!(TimingAccumulator::from_checkpoint_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn mask_scan_replays_prefix() {
        // Fault at cycle 50 detected at 60: replay = 61 cycles, even
        // though injection was at 50.
        let faults = [fault(0, 50)];
        let outcomes = [FaultOutcome::failure(60)];
        let t = mask_scan_timing(&faults, &outcomes, 100, &cfg());
        assert_eq!(t.run_cycles, 61);
        assert_eq!(t.golden_cycles, 100);
        assert_eq!(t.scan_cycles, 1);
    }

    #[test]
    fn mask_scan_nonfailure_runs_full_bench() {
        let faults = [fault(0, 50), fault(1, 10)];
        let outcomes = [FaultOutcome::latent(), FaultOutcome::silent(20)];
        let t = mask_scan_timing(&faults, &outcomes, 100, &cfg());
        // Both replay the full 100 cycles: mask-scan cannot observe
        // convergence.
        assert_eq!(t.run_cycles, 200);
        assert_eq!(t.scan_cycles, 2);
    }

    #[test]
    fn mask_scan_early_collapse_retires_silent_faults_at_convergence() {
        let faults = [fault(0, 50), fault(1, 10), fault(2, 5)];
        let outcomes =
            [FaultOutcome::latent(), FaultOutcome::silent(20), FaultOutcome::failure(8)];
        let plain = mask_scan_timing(&faults, &outcomes, 100, &cfg());
        let off = mask_scan_timing_collapsed(&faults, &outcomes, 100, &cfg(), false);
        // collapse = false reproduces the default schedule exactly.
        assert_eq!(plain, off);
        let on = mask_scan_timing_collapsed(&faults, &outcomes, 100, &cfg(), true);
        // Latent 100 + silent retired at 20+1 + failure aborted at 8+1;
        // only the silent fault's run shrinks, all other terms match.
        assert_eq!(on.run_cycles, 100 + 21 + 9);
        assert_eq!(plain.run_cycles, 100 + 100 + 9);
        assert_eq!(on.scan_cycles, plain.scan_cycles);
        assert_eq!(on.overhead_cycles, plain.overhead_cycles);
        assert!(on.total_cycles < plain.total_cycles);
    }

    #[test]
    fn state_scan_skips_prefix_but_pays_scan() {
        let faults = [fault(3, 50)];
        let outcomes = [FaultOutcome::failure(60)];
        let t = state_scan_timing(&faults, &outcomes, 100, 215, &cfg());
        assert_eq!(t.scan_cycles, 215);
        assert_eq!(t.run_cycles, 11); // cycles 50..=60
        assert_eq!(t.inject_cycles, 1); // load pulse only (failure)
    }

    #[test]
    fn state_scan_nonfailure_pays_capture() {
        let faults = [fault(3, 90)];
        let outcomes = [FaultOutcome::latent()];
        let t = state_scan_timing(&faults, &outcomes, 100, 10, &cfg());
        assert_eq!(t.run_cycles, 10); // cycles 90..100
        assert_eq!(t.inject_cycles, 2); // load + capture
    }

    #[test]
    fn time_mux_early_terminates_on_convergence() {
        let faults = [fault(0, 10), fault(1, 10), fault(2, 10)];
        let outcomes = [
            FaultOutcome::failure(12),  // 2*(12-10+1) = 6
            FaultOutcome::silent(10),   // 2*1 = 2
            FaultOutcome::latent(),     // runs to end: 2*(19-10+1) = 20
        ];
        let t = time_mux_timing(&faults, &outcomes, 20, &cfg());
        assert_eq!(t.run_cycles, 6 + 2 + 20);
        assert_eq!(t.inject_cycles, 3);
        assert_eq!(t.restore_cycles, 3);
        assert_eq!(t.golden_cycles, 40, "2 cycles per bench cycle");
    }

    #[test]
    fn us_per_fault_at_paper_clock() {
        // 14.5 cycles/fault at 25 MHz = 0.58 us/fault (the paper's
        // headline time-mux number).
        let faults: Vec<Fault> = (0..100).map(|i| fault(i % 5, 0)).collect();
        let outcomes: Vec<FaultOutcome> =
            (0..100).map(|_| FaultOutcome::silent(2)).collect();
        let mut c = cfg();
        c.per_fault_overhead = 1;
        let t = time_mux_timing(&faults, &outcomes, 10, &c);
        // per fault: scan1 + inject1 + run6 + restore1 + overhead1 = 10
        // plus golden advance 20 cycles amortized
        assert_eq!(t.total_cycles, 100 * 10 + 20);
        let us = t.us_per_fault();
        assert!((us - (10.2 / 25.0)).abs() < 1e-9, "{us}");
    }

    #[test]
    fn paper_ordering_holds_for_b14_shape() {
        // With b14's parameters (215 ffs, 160 cycles) and plausible
        // outcome mixes, time-mux << mask-scan < state-scan.
        let n_ff = 215;
        let n_cycles = 160usize;
        let mut faults = Vec::new();
        let mut outcomes = Vec::new();
        for t in 0..n_cycles as u32 {
            for ff in 0..n_ff {
                faults.push(fault(ff, t));
                // Paper-like mix: ~50 % fail shortly after injection,
                // ~5 % latent, the rest converge after 2 cycles.
                let o = match ff % 20 {
                    0..=9 => FaultOutcome::failure((t + 3).min(n_cycles as u32 - 1)),
                    10 => FaultOutcome::latent(),
                    _ => FaultOutcome::silent((t + 2).min(n_cycles as u32 - 1)),
                };
                outcomes.push(o);
            }
        }
        let c = TimingConfig::default();
        let mask = mask_scan_timing(&faults, &outcomes, n_cycles, &c);
        let state = state_scan_timing(&faults, &outcomes, n_cycles, n_ff, &c);
        let tmux = time_mux_timing(&faults, &outcomes, n_cycles, &c);
        assert!(tmux.total_cycles * 5 < mask.total_cycles, "time-mux wins big");
        assert!(mask.total_cycles < state.total_cycles, "160 cycles < 215 ffs");
    }

    #[test]
    fn accumulator_matches_batch_models_in_any_fold_order() {
        // A mixed verdict set with skewed flip-flop usage (ff 3 repeats,
        // ff 5 never fails) and every class represented.
        let n_cycles = 40usize;
        let n_ff = 7;
        let pairs: Vec<(Fault, FaultOutcome)> = vec![
            (fault(3, 0), FaultOutcome::failure(2)),
            (fault(3, 5), FaultOutcome::silent(9)),
            (fault(1, 12), FaultOutcome::latent()),
            (fault(0, 39), FaultOutcome::failure(39)),
            (fault(6, 20), FaultOutcome::silent(20)),
            (fault(2, 7), FaultOutcome::latent()),
            (fault(3, 33), FaultOutcome::failure(38)),
        ];
        let faults: Vec<Fault> = pairs.iter().map(|&(f, _)| f).collect();
        let outcomes: Vec<FaultOutcome> = pairs.iter().map(|&(_, o)| o).collect();
        let cfg = TimingConfig::default();
        let expect = [
            mask_scan_timing(&faults, &outcomes, n_cycles, &cfg),
            state_scan_timing(&faults, &outcomes, n_cycles, n_ff, &cfg),
            time_mux_timing(&faults, &outcomes, n_cycles, &cfg),
        ];
        // Fold in reverse across two accumulators merged backwards.
        let mut a = TimingAccumulator::default();
        let mut b = TimingAccumulator::default();
        for (i, &(f, o)) in pairs.iter().enumerate().rev() {
            if i % 2 == 0 {
                a.observe(f, o);
            } else {
                b.observe(f, o);
            }
        }
        let mut merged = TimingAccumulator::default();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged.finish(&cfg, n_cycles, n_ff), expect);
    }

    #[test]
    fn a_reused_chunk_accumulator_drains_into_the_same_fold() {
        // Chunks of flip-flops 0..5 and 8..11 at two cycles: absorbing
        // each through one reused accumulator must fold exactly what one
        // accumulator observing everything folds, checkpoint line
        // included (the `ff_seen` length and bitmap).
        let cfg = cfg();
        let mut forward = TimingAccumulator::default();
        let mut worker = TimingAccumulator::default();
        let mut chunk = TimingAccumulator::default();
        for (ffs, t) in [(8..11, 4), (0..5, 4), (8..11, 2), (0..5, 2)] {
            for ff in ffs {
                let o = match ff % 3 {
                    0 => FaultOutcome::failure(t + 1),
                    1 => FaultOutcome::silent(t + 2),
                    _ => FaultOutcome::latent(),
                };
                forward.observe(fault(ff, t), o);
                chunk.observe(fault(ff, t), o);
            }
            worker.absorb(&mut chunk);
            let empty = TimingAccumulator::default().finish(&cfg, 20, 11);
            assert_eq!(chunk.finish(&cfg, 20, 11), empty);
            assert!(chunk.ff_seen.iter().all(|&s| !s), "chunk drained");
        }
        assert_eq!(worker.finish(&cfg, 20, 11), forward.finish(&cfg, 20, 11));
        assert_eq!(worker.checkpoint_line(), forward.checkpoint_line());
    }

    #[test]
    fn empty_accumulator_matches_empty_batch() {
        let cfg = TimingConfig::default();
        let acc = TimingAccumulator::default();
        let [mask, state, tmux] = acc.finish(&cfg, 16, 4);
        assert_eq!(mask, mask_scan_timing(&[], &[], 16, &cfg));
        assert_eq!(state, state_scan_timing(&[], &[], 16, 4, &cfg));
        assert_eq!(tmux, time_mux_timing(&[], &[], 16, &cfg));
    }

    #[test]
    fn crossover_when_cycles_exceed_ffs() {
        // Same mix but 64 ffs and 1024 cycles: state-scan must now beat
        // mask-scan (the paper's §III observation).
        let n_ff = 64;
        let n_cycles = 1024usize;
        let mut faults = Vec::new();
        let mut outcomes = Vec::new();
        for t in (0..n_cycles as u32).step_by(8) {
            for ff in 0..n_ff {
                faults.push(fault(ff, t));
                outcomes.push(match ff % 2 {
                    0 => FaultOutcome::failure((t + 4).min(n_cycles as u32 - 1)),
                    _ => FaultOutcome::silent((t + 2).min(n_cycles as u32 - 1)),
                });
            }
        }
        let c = TimingConfig::default();
        let mask = mask_scan_timing(&faults, &outcomes, n_cycles, &c);
        let state = state_scan_timing(&faults, &outcomes, n_cycles, n_ff, &c);
        assert!(state.total_cycles < mask.total_cycles);
    }
}
