//! The SEU fault descriptor and fault lists.

use std::collections::HashMap;
use std::fmt;

use seugrade_netlist::FfIndex;
use seugrade_sim::SplitMix64;

/// One transient fault: flip flip-flop `ff` at the start of cycle `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault {
    /// Target flip-flop.
    pub ff: FfIndex,
    /// Injection cycle (0-based test-bench cycle).
    pub cycle: u32,
}

impl Fault {
    /// Creates a fault descriptor.
    #[must_use]
    pub fn new(ff: FfIndex, cycle: u32) -> Self {
        Fault { ff, cycle }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.ff, self.cycle)
    }
}

/// An ordered list of faults to grade.
///
/// The canonical (exhaustive) order is **cycle-major**: all flip-flops at
/// cycle 0, then cycle 1, … — the iteration order of the time-multiplexed
/// emulation technique, which advances a golden checkpoint cycle by cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultList {
    faults: Vec<Fault>,
    num_ffs: usize,
    num_cycles: usize,
}

impl FaultList {
    /// The complete single-fault list: `num_ffs × num_cycles` faults in
    /// cycle-major order (the paper's 34,400 for b14/160).
    #[must_use]
    pub fn exhaustive(num_ffs: usize, num_cycles: usize) -> Self {
        let mut faults = Vec::with_capacity(num_ffs * num_cycles);
        for cycle in 0..num_cycles as u32 {
            for ff in 0..num_ffs {
                faults.push(Fault::new(FfIndex::new(ff), cycle));
            }
        }
        FaultList { faults, num_ffs, num_cycles }
    }

    /// A uniform sample of `count` distinct faults from the exhaustive
    /// list (deterministic for a given seed), sorted. If `count` exceeds
    /// the exhaustive size the full list is returned.
    ///
    /// The draw is a partial Fisher–Yates shuffle over the cycle-major
    /// positions `k ↦ (ff k % F, cycle k / F)` of the exhaustive list.
    /// Only displaced positions are stored, so memory is `O(count)`
    /// rather than `O(flip-flops × cycles)`.
    #[must_use]
    pub fn sampled(num_ffs: usize, num_cycles: usize, count: usize, seed: u64) -> Self {
        let n = num_ffs * num_cycles;
        if count >= n {
            return Self::exhaustive(num_ffs, num_cycles);
        }
        let mut rng = SplitMix64::new(seed);
        // Position -> the value swapped into it, for displaced positions
        // (at most one new entry per draw).
        let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(count);
        let mut faults = Vec::with_capacity(count);
        for i in 0..count {
            let j = i + rng.index(n - i);
            let at_i = displaced.remove(&i).unwrap_or(i);
            let picked = if j == i {
                at_i
            } else {
                displaced.insert(j, at_i).unwrap_or(j)
            };
            faults.push(Fault::new(FfIndex::new(picked % num_ffs), (picked / num_ffs) as u32));
        }
        faults.sort();
        FaultList { faults, num_ffs, num_cycles }
    }

    /// Restricts an exhaustive list to one flip-flop (all cycles) — used
    /// by per-flip-flop vulnerability reports.
    #[must_use]
    pub fn for_ff(num_cycles: usize, ff: FfIndex) -> Self {
        let faults = (0..num_cycles as u32)
            .map(|cycle| Fault::new(ff, cycle))
            .collect();
        FaultList { faults, num_ffs: ff.index() + 1, num_cycles }
    }

    /// The faults, in order.
    #[must_use]
    pub fn as_slice(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Flip-flop dimension of the originating fault space.
    #[must_use]
    pub fn num_ffs(&self) -> usize {
        self.num_ffs
    }

    /// Cycle dimension of the originating fault space.
    #[must_use]
    pub fn num_cycles(&self) -> usize {
        self.num_cycles
    }

    /// Iterates over the faults.
    pub fn iter(&self) -> impl Iterator<Item = Fault> + '_ {
        self.faults.iter().copied()
    }

    /// Wraps an explicit fault vector with its originating fault-space
    /// dimensions — the constructor campaign runtimes use to materialize
    /// custom plans.
    #[must_use]
    pub fn from_faults(faults: Vec<Fault>, num_ffs: usize, num_cycles: usize) -> Self {
        FaultList { faults, num_ffs, num_cycles }
    }
}

impl<'a> IntoIterator for &'a FaultList {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;
    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_is_cycle_major_cross_product() {
        let fl = FaultList::exhaustive(3, 4);
        assert_eq!(fl.len(), 12);
        assert_eq!(fl.as_slice()[0], Fault::new(FfIndex::new(0), 0));
        assert_eq!(fl.as_slice()[1], Fault::new(FfIndex::new(1), 0));
        assert_eq!(fl.as_slice()[3], Fault::new(FfIndex::new(0), 1));
        // paper numbers
        assert_eq!(FaultList::exhaustive(215, 160).len(), 34_400);
    }

    #[test]
    fn sample_is_deterministic_distinct_subset() {
        let a = FaultList::sampled(10, 10, 25, 7);
        let b = FaultList::sampled(10, 10, 25, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        let set: std::collections::HashSet<Fault> = a.iter().collect();
        assert_eq!(set.len(), 25, "sample has duplicates");
        let full: std::collections::HashSet<Fault> =
            FaultList::exhaustive(10, 10).iter().collect();
        assert!(set.is_subset(&full));
    }

    /// The materializing draw the sparse one replaced: shuffle the front
    /// of the whole exhaustive list.
    fn sampled_by_materializing(
        num_ffs: usize,
        num_cycles: usize,
        count: usize,
        seed: u64,
    ) -> Vec<Fault> {
        let mut full = FaultList::exhaustive(num_ffs, num_cycles).faults;
        if count >= full.len() {
            return full;
        }
        let mut rng = SplitMix64::new(seed);
        let n = full.len();
        for i in 0..count {
            let j = i + rng.index(n - i);
            full.swap(i, j);
        }
        full.truncate(count);
        full.sort();
        full
    }

    #[test]
    fn sparse_sample_matches_the_materializing_draw() {
        for (ffs, cycles, count, seed) in [
            (10, 10, 25, 7),
            (1, 50, 49, 3),
            (37, 1, 36, 11),
            (70, 9, 150, 3),
            (13, 17, 13 * 17 - 1, 5),
            (13, 17, 13 * 17, 5),
            (13, 17, 1000, 5),
            (64, 64, 1, 0),
            (3, 3, 0, 9),
        ] {
            assert_eq!(
                FaultList::sampled(ffs, cycles, count, seed).as_slice(),
                sampled_by_materializing(ffs, cycles, count, seed),
                "{ffs}x{cycles} count {count} seed {seed}"
            );
        }
    }

    #[test]
    fn oversample_returns_full_list() {
        let fl = FaultList::sampled(3, 3, 100, 1);
        assert_eq!(fl.len(), 9);
    }

    #[test]
    fn for_ff_covers_all_cycles() {
        let fl = FaultList::for_ff(5, FfIndex::new(2));
        assert_eq!(fl.len(), 5);
        assert!(fl.iter().all(|f| f.ff == FfIndex::new(2)));
    }

    #[test]
    fn display_format() {
        assert_eq!(Fault::new(FfIndex::new(3), 17).to_string(), "ff3@17");
    }

    #[test]
    fn from_faults_preserves_dimensions() {
        let faults = vec![Fault::new(FfIndex::new(1), 2)];
        let fl = FaultList::from_faults(faults, 4, 8);
        assert_eq!(fl.len(), 1);
        assert_eq!(fl.num_ffs(), 4);
        assert_eq!(fl.num_cycles(), 8);
    }
}
