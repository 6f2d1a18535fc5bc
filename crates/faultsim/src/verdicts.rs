//! The verdict window of the alias collapse.
//!
//! A fault `(f, t)` whose faulty state entering cycle `u + 1` differs
//! from golden in exactly one flip-flop `g` *is* the single-bit upset
//! `(g, u + 1)` from then on: same trajectory, so the same class,
//! detection cycle and convergence cycle. A campaign that grades cycles
//! in descending order has graded `(g, u + 1)` before `(f, t)` gets
//! there; the [`VerdictWindow`] is where its verdict waits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use seugrade_netlist::FfIndex;

use crate::{FaultClass, FaultOutcome};

/// How many cycles after its injection a lane may alias: the
/// differential walk looks for a single deviant flip-flop after cycle
/// `u` while `u + 1 − t ≤ ALIAS_WINDOW`. On s5378g and s38417g over 128
/// random vectors, 99 % of the aliases happen one cycle after injection
/// (b13s: 97 %), but the few lanes that turn into a lone upset later are
/// the long walkers: a lone deviation riding a shift chain keeps its
/// chunk alive to the bench end. Eight cycles retire most of them
/// (exhaustive s5378g × 128 grades 1.3× faster than with a window of
/// 2). Wider windows gained only 3–12 % more there, for a ring of
/// `ALIAS_WINDOW + 1` rows that grows with every cycle added.
pub const ALIAS_WINDOW: usize = 8;

/// Cycles the window holds: the cycle being graded plus the
/// [`ALIAS_WINDOW`] cycles after it that its lanes read.
const ROWS: usize = ALIAS_WINDOW + 1;

/// Class codes of an entry's two low bits; 0 marks an unwritten entry.
const FAILURE: u64 = 1;
const SILENT: u64 = 2;
const LATENT: u64 = 3;

/// A bounded ring of single-bit-upset verdicts shared by a run's
/// workers: `ALIAS_WINDOW + 1` cycles × flip-flops, one `AtomicU64`
/// each, so memory is `O(FFs)` whatever the bench length (108 KiB on
/// the 1536-flip-flop s5378g).
///
/// Each entry holds its own fault's cycle beside the verdict and is
/// written once per cycle, by the worker that graded the fault. An
/// entry that is unwritten, or that holds another cycle (the ring moved
/// on, or the cycle has not been graded yet), reads as a miss, and a
/// miss only means "keep simulating". Verdicts and digests therefore
/// never depend on thread timing or on where a resume started; only
/// the hit and miss counters do.
///
/// Cloning makes another handle on the same window.
#[derive(Clone, Debug)]
pub struct VerdictWindow {
    num_ffs: usize,
    entries: Arc<[AtomicU64]>,
}

impl VerdictWindow {
    /// An empty window for a circuit of `num_ffs` flip-flops.
    #[must_use]
    pub fn new(num_ffs: usize) -> Self {
        VerdictWindow { num_ffs, entries: (0..ROWS * num_ffs).map(|_| AtomicU64::new(0)).collect() }
    }

    fn entry(&self, ff: FfIndex, cycle: u32) -> &AtomicU64 {
        debug_assert!(ff.index() < self.num_ffs, "flip-flop {} out of range", ff.index());
        &self.entries[cycle as usize % ROWS * self.num_ffs + ff.index()]
    }

    /// The verdict of the upset of `ff` at `cycle`, if the window holds
    /// it.
    #[must_use]
    pub(crate) fn get(&self, ff: FfIndex, cycle: u32) -> Option<FaultOutcome> {
        // `Relaxed` suffices: an entry is one self-contained value, cycle
        // and verdict together, and publishes no other data.
        let entry = self.entry(ff, cycle).load(Ordering::Relaxed);
        if (entry >> 32) as u32 != cycle {
            return None;
        }
        let at = cycle + (entry as u32 >> 2);
        match entry & 3 {
            FAILURE => Some(FaultOutcome::failure(at)),
            SILENT => Some(FaultOutcome::silent(at)),
            LATENT => Some(FaultOutcome::latent()),
            _ => None,
        }
    }

    /// Records the verdict of the upset of `ff` at `cycle`, replacing
    /// whatever cycle the entry held. A decision more than `2^30 − 1`
    /// cycles after `cycle` is not recorded (it reads as a miss).
    pub(crate) fn put(&self, ff: FfIndex, cycle: u32, outcome: FaultOutcome) {
        let (code, at) = match outcome.class {
            FaultClass::Failure => (FAILURE, outcome.detect_cycle),
            FaultClass::Silent => (SILENT, outcome.converge_cycle),
            FaultClass::Latent => (LATENT, None),
        };
        let offset = at.map_or(0, |at| at - cycle);
        if offset < 1 << 30 {
            let entry = u64::from(cycle) << 32 | u64::from(offset) << 2 | code;
            self.entry(ff, cycle).store(entry, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_round_trip_and_other_cycles_miss() {
        let w = VerdictWindow::new(5);
        let ff = FfIndex::new(3);
        assert_eq!(w.get(ff, 0), None, "unwritten");
        for (cycle, outcome) in [
            (0, FaultOutcome::failure(0)),
            (7, FaultOutcome::silent(9)),
            (8, FaultOutcome::latent()),
            (u32::MAX - 1, FaultOutcome::failure(u32::MAX)),
        ] {
            w.put(ff, cycle, outcome);
            assert_eq!(w.get(ff, cycle), Some(outcome), "cycle {cycle}");
            assert_eq!(w.get(FfIndex::new(2), cycle), None, "another flip-flop");
        }
        // The cycle one ring length later shares a row with 8: writing
        // it evicts 8.
        let evicts = 8 + ROWS as u32;
        w.put(ff, evicts, FaultOutcome::silent(evicts));
        assert_eq!(w.get(ff, 8), None);
        assert_eq!(w.get(ff, evicts), Some(FaultOutcome::silent(evicts)));
        // A handle sees the same entries.
        assert_eq!(w.clone().get(ff, evicts), Some(FaultOutcome::silent(evicts)));
        // A decision too far out is not recorded.
        w.put(ff, 2, FaultOutcome::failure(2 + (1 << 30)));
        assert_eq!(w.get(ff, 2), None);
    }
}
