//! Ablation timing models: what each technique's key mechanism is worth.
//!
//! The paper motivates three mechanisms without isolating their
//! contributions; these variants re-run the cycle-accurate schedules
//! with one mechanism removed (or added), quantifying each design
//! choice:
//!
//! - [`time_mux_without_early_silent`] — disable the `state_diff`
//!   convergence detector: silent faults emulate to the end of the
//!   bench, exactly like latent ones. This is the mechanism the paper
//!   credits for time-mux being "quite faster … because it allows
//!   detecting fault effects disappearing without executing the whole
//!   testbench".
//! - [`state_scan_without_overlap`] — scan the previous fault's end
//!   state *out* before scanning the next state in, instead of
//!   overlapping both on the same shift cycles: non-failing faults pay a
//!   second `n_ff` shift.
//! - [`mask_scan_with_state_compare`] — give mask-scan a per-cycle
//!   golden-state comparator (costing a golden state trace in FPGA RAM,
//!   `n_ff × n_cycles` bits): non-failing faults can now stop at
//!   convergence instead of replaying the full bench, at mask-scan's
//!   replay-from-zero discipline.

use seugrade_faultsim::{Fault, FaultOutcome};

use crate::campaign::Technique;
use crate::controller::{finish, CampaignTiming, TimingConfig};

/// Time-mux with the convergence detector removed: only failures stop
/// early; silent and latent faults both emulate `2 × (n_cycles − t)`
/// cycles.
///
/// # Panics
///
/// Panics if `faults` and `outcomes` lengths differ.
#[must_use]
pub fn time_mux_without_early_silent(
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
        let end = match o.detect_cycle {
            Some(u) => u as u64,
            None => num_cycles as u64 - 1,
        };
        scan += 1;
        inject += 1;
        run += 2 * (end - t + 1);
        restore += 1;
    }
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

/// State-scan without the scan-in/scan-out overlap: non-failing faults
/// pay an explicit `n_ff`-cycle scan-out before the next fault's scan-in.
///
/// # Panics
///
/// Panics if `faults` and `outcomes` lengths differ.
#[must_use]
pub fn state_scan_without_overlap(
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
        scan += num_ffs as u64; // scan-in
        inject += 1; // load pulse
        let t = u64::from(f.cycle);
        match o.detect_cycle {
            Some(u) => run += u as u64 - t + 1,
            None => {
                run += num_cycles as u64 - t;
                inject += 1; // capture
                scan += num_ffs as u64; // dedicated scan-out
            }
        }
    }
    finish(
        Technique::StateScan,
        cfg,
        faults.len() as u64,
        num_cycles as u64,
        scan,
        run,
        inject,
        0,
    )
}

/// Mask-scan upgraded with a per-cycle golden-state comparator: the
/// replay still starts at cycle 0, but non-failing faults stop at
/// convergence instead of the end of the bench. Needs the golden state
/// trace (`n_ff × n_cycles` bits) in FPGA RAM.
///
/// # Panics
///
/// Panics if `faults` and `outcomes` lengths differ.
#[must_use]
pub fn mask_scan_with_state_compare(
    faults: &[Fault],
    outcomes: &[FaultOutcome],
    num_cycles: usize,
    cfg: &TimingConfig,
) -> CampaignTiming {
    assert_eq!(faults.len(), outcomes.len());
    let mut scan = 0u64;
    let mut run = 0u64;
    let mut ffs: Vec<_> = faults.iter().map(|f| f.ff).collect();
    ffs.sort_unstable();
    ffs.dedup();
    scan += ffs.len() as u64;
    for o in outcomes {
        let end = u64::from(o.classify_cycle(num_cycles));
        run += end + 1; // replay from zero to the classification cycle
    }
    finish(
        Technique::MaskScan,
        cfg,
        faults.len() as u64,
        num_cycles as u64,
        scan,
        run,
        0,
        0,
    )
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::FfIndex;

    use crate::controller::{mask_scan_timing, state_scan_timing, time_mux_timing, ClockHz};
    use super::*;

    fn cfg() -> TimingConfig {
        TimingConfig { setup_cycles: 0, per_fault_overhead: 0, clock: ClockHz::PAPER }
    }

    fn mixed_campaign(n_ff: usize, n_cycles: usize) -> (Vec<Fault>, Vec<FaultOutcome>) {
        let mut faults = Vec::new();
        let mut outcomes = Vec::new();
        for t in 0..n_cycles as u32 {
            for ff in 0..n_ff {
                faults.push(Fault::new(FfIndex::new(ff), t));
                outcomes.push(match ff % 4 {
                    0 => FaultOutcome::failure((t + 2).min(n_cycles as u32 - 1)),
                    1 => FaultOutcome::latent(),
                    _ => FaultOutcome::silent((t + 1).min(n_cycles as u32 - 1)),
                });
            }
        }
        (faults, outcomes)
    }

    #[test]
    fn early_silent_detection_is_the_time_mux_win() {
        let (faults, outcomes) = mixed_campaign(8, 64);
        let with = time_mux_timing(&faults, &outcomes, 64, &cfg());
        let without = time_mux_without_early_silent(&faults, &outcomes, 64, &cfg());
        assert!(
            without.total_cycles > 2 * with.total_cycles,
            "{} vs {}",
            without.total_cycles,
            with.total_cycles
        );
        // Failures are unaffected, so the delta is exactly the silent
        // faults' saved tails.
        assert_eq!(with.inject_cycles, without.inject_cycles);
    }

    #[test]
    fn overlap_saves_one_scan_per_surviving_fault() {
        let (faults, outcomes) = mixed_campaign(10, 40);
        let with = state_scan_timing(&faults, &outcomes, 40, 10, &cfg());
        let without = state_scan_without_overlap(&faults, &outcomes, 40, 10, &cfg());
        let survivors = outcomes.iter().filter(|o| o.detect_cycle.is_none()).count() as u64;
        assert_eq!(without.scan_cycles - with.scan_cycles, survivors * 10);
        assert_eq!(without.run_cycles, with.run_cycles);
    }

    #[test]
    fn state_compare_upgrade_helps_mask_scan() {
        let (faults, outcomes) = mixed_campaign(8, 64);
        let plain = mask_scan_timing(&faults, &outcomes, 64, &cfg());
        let upgraded = mask_scan_with_state_compare(&faults, &outcomes, 64, &cfg());
        assert!(upgraded.total_cycles < plain.total_cycles);
        // But it can never beat time-mux: the replay prefix remains.
        let tmux = time_mux_timing(&faults, &outcomes, 64, &cfg());
        assert!(tmux.total_cycles < upgraded.total_cycles);
    }
}
