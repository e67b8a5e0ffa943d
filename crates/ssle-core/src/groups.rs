//! The rank-space partition underlying the space–time trade-off (Section 3.3).
//!
//! The rank space `[n]` is split into `⌈n/r⌉` contiguous groups whose sizes
//! differ by at most one (and hence lie in `{⌊n/G⌋, ⌈n/G⌉} ⊆ [r/2, r]`).
//! Collision detection runs independently inside each group: interactions
//! between agents whose ranks belong to different groups are ignored by
//! `DetectCollision_r`. The partition is encoded in the transition function
//! via the map `g: [n] → 2^[n]` which this module implements.

use crate::params::Params;
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// The partition of the rank space `[n]` into groups of size `Θ(r)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupPartition {
    n: usize,
    /// `starts[g]` is the first (1-based) rank of group `g`; a final sentinel
    /// entry holds `n + 1`.
    starts: Vec<u32>,
}

impl GroupPartition {
    /// Builds the partition for the given parameters.
    pub fn new(params: &Params) -> Self {
        Self::with_sizes(params.n, params.r)
    }

    /// Builds the partition of `[n]` into `⌈n/r⌉` near-equal contiguous
    /// groups.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero or exceeds `n`.
    pub fn with_sizes(n: usize, r: usize) -> Self {
        assert!(r >= 1 && r <= n, "group target size must lie in 1..=n");
        let num_groups = n.div_ceil(r);
        let base = n / num_groups;
        let extra = n % num_groups;
        let mut starts = Vec::with_capacity(num_groups + 1);
        let mut next = 1u32;
        for g in 0..num_groups {
            starts.push(next);
            let size = base + usize::from(g < extra);
            next += size as u32;
        }
        starts.push(n as u32 + 1);
        GroupPartition { n, starts }
    }

    /// The size of the largest group [`Self::with_sizes`] builds:
    /// `⌈n / ⌈n/r⌉⌉`, computed without building the partition.
    pub(crate) fn largest_group_size(n: usize, r: usize) -> usize {
        n.div_ceil(n.div_ceil(r))
    }

    /// The population size `n` this partition covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of groups `⌈n/r⌉`.
    pub fn num_groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// The group index (0-based) containing the 1-based rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not in `1..=n`.
    pub fn group_of(&self, rank: u32) -> usize {
        assert!(
            rank >= 1 && rank as usize <= self.n,
            "rank {rank} outside 1..={}",
            self.n
        );
        match self.starts.binary_search(&rank) {
            Ok(idx) => idx.min(self.num_groups() - 1),
            Err(idx) => idx - 1,
        }
    }

    /// The inclusive range of ranks in group `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn ranks_in(&self, group: usize) -> RangeInclusive<u32> {
        assert!(group < self.num_groups(), "group index out of range");
        self.starts[group]..=(self.starts[group + 1] - 1)
    }

    /// The size of group `group`.
    pub fn group_size(&self, group: usize) -> usize {
        assert!(group < self.num_groups(), "group index out of range");
        (self.starts[group + 1] - self.starts[group]) as usize
    }

    /// The size of the group containing `rank`.
    pub fn group_size_of(&self, rank: u32) -> usize {
        self.group_size(self.group_of(rank))
    }

    /// Whether two ranks belong to the same group.
    pub fn same_group(&self, a: u32, b: u32) -> bool {
        self.group_of(a) == self.group_of(b)
    }

    /// The 0-based position of `rank` within its group (the paper's
    /// `rank_r − 1`).
    pub fn position_in_group(&self, rank: u32) -> usize {
        let g = self.group_of(rank);
        (rank - self.starts[g]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_rank_space_exactly_once() {
        for (n, r) in [
            (10, 3),
            (64, 8),
            (64, 32),
            (7, 1),
            (100, 50),
            (33, 16),
            (5, 2),
        ] {
            let p = GroupPartition::with_sizes(n, r);
            let mut covered = vec![0u32; n + 1];
            for g in 0..p.num_groups() {
                for rank in p.ranks_in(g) {
                    covered[rank as usize] += 1;
                    assert_eq!(p.group_of(rank), g);
                }
            }
            assert!(covered[1..].iter().all(|&c| c == 1), "n={n} r={r}");
        }
    }

    #[test]
    fn group_sizes_are_balanced_and_bounded() {
        for (n, r) in [(10, 3), (64, 8), (64, 32), (100, 7), (97, 13), (8, 4)] {
            let p = GroupPartition::with_sizes(n, r);
            let sizes: Vec<usize> = (0..p.num_groups()).map(|g| p.group_size(g)).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "sizes differ by more than one: {sizes:?}");
            assert_eq!(max, GroupPartition::largest_group_size(n, r), "n={n} r={r}");
            assert!(max <= r, "group too large for n={n} r={r}: {sizes:?}");
            assert!(
                min * 2 >= r,
                "group smaller than r/2 for n={n} r={r}: {sizes:?}"
            );
        }
    }

    #[test]
    fn number_of_groups_is_ceil_n_over_r() {
        assert_eq!(GroupPartition::with_sizes(64, 8).num_groups(), 8);
        assert_eq!(GroupPartition::with_sizes(65, 8).num_groups(), 9);
        assert_eq!(GroupPartition::with_sizes(64, 64).num_groups(), 1);
        assert_eq!(GroupPartition::with_sizes(64, 1).num_groups(), 64);
    }

    #[test]
    fn position_in_group_is_local_offset() {
        let p = GroupPartition::with_sizes(10, 4);
        // Groups: {1..4}, {5..7}, {8..10} (sizes 4,3,3).
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.position_in_group(1), 0);
        assert_eq!(p.position_in_group(4), 3);
        assert_eq!(p.position_in_group(5), 0);
        assert_eq!(p.position_in_group(10), 2);
        assert!(p.same_group(1, 4));
        assert!(!p.same_group(4, 5));
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn rank_zero_rejected() {
        let p = GroupPartition::with_sizes(10, 4);
        let _ = p.group_of(0);
    }

    #[test]
    fn singleton_groups_for_r_one() {
        let p = GroupPartition::with_sizes(6, 1);
        for rank in 1..=6u32 {
            assert_eq!(p.group_size_of(rank), 1);
            assert_eq!(p.position_in_group(rank), 0);
        }
        assert!(!p.same_group(1, 2));
    }

    #[test]
    fn from_params() {
        let params = Params::new(64, 8).unwrap();
        let p = GroupPartition::new(&params);
        assert_eq!(p.n(), 64);
        assert_eq!(p.num_groups(), 8);
    }
}
