//! `TrialFleet` — parallel fan-out of independent seeded trials.
//!
//! Every Monte Carlo experiment in this repro has the same shape: run
//! hundreds of independent trials of a [`crate::SimBuilder`]-built engine,
//! each with its own derived seed, and aggregate per-trial observations into
//! summary statistics. [`TrialFleet`] is that shape as a first-class layer:
//!
//! * **Seeding** — trial `i` always runs with
//!   [`derive_seed`]`(base_seed, i)`, so a fleet's per-trial seeds are a
//!   pure function of `(base_seed, trials)` and never depend on which
//!   thread executed which trial. No two trials of a fleet can share an RNG
//!   stream (see [`derive_seed`] for the injectivity argument).
//! * **Parallelism** — trials fan out over the vendored rayon's worker
//!   threads ([`rayon::current_num_threads`], overridable via the
//!   `RAYON_NUM_THREADS` environment variable). Each trial closure runs on
//!   exactly one worker; non-`Send` per-trial state (e.g. the `Rc`-based
//!   [`crate::DiscoveredProtocol`]) is simply constructed *inside* the
//!   closure.
//! * **Determinism** — [`TrialFleet::run`] returns the per-trial results
//!   in trial order whatever the thread count, so a caller that folds them
//!   in one thread (e.g. through [`crate::Summary::of`]) gets bit-identical
//!   aggregates on 1, 2 or 64 threads, floating-point round-off included.
//!   CI pins this with a byte-for-byte diff of aggregated CSV output across
//!   forced thread counts.
//!
//! # Predicate granularity under concurrent trials
//!
//! Parallelism here is *across* trials; each trial's engine still runs
//! sequentially with its own RNG stream, so per-trial measurements (and
//! their predicate-granularity caveats — multi-batch epochs quantize
//! observed stabilization times regardless of threading) are exactly what a
//! lone [`crate::SimBuilder`] run would produce.

use rayon::prelude::*;

use crate::rng::derive_seed;

/// A fleet of independent seeded trials fanned out across worker threads.
///
/// See the [module docs](self) for the seeding and determinism guarantees.
///
/// # Examples
///
/// ```
/// use ppsim::fleet::TrialFleet;
/// use ppsim::rng::derive_seed;
///
/// let fleet = TrialFleet::new(100, 0xBA5E);
/// // Trial seeds are a pure function of (base_seed, index):
/// assert_eq!(fleet.trial_seed(7), derive_seed(0xBA5E, 7));
/// // run() preserves trial order regardless of scheduling:
/// let seeds = fleet.run(|seed| seed);
/// assert_eq!(seeds[7], fleet.trial_seed(7));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TrialFleet {
    trials: usize,
    base_seed: u64,
}

impl TrialFleet {
    /// A fleet of `trials` trials derived from `base_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn new(trials: usize, base_seed: u64) -> Self {
        assert!(trials > 0, "a fleet needs at least one trial");
        TrialFleet { trials, base_seed }
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The seed trial `index` runs with: [`derive_seed`]`(base_seed, index)`.
    pub fn trial_seed(&self, index: usize) -> u64 {
        derive_seed(self.base_seed, index as u64)
    }

    /// Runs every trial across the worker threads, returning the per-trial
    /// results **in trial order**.
    ///
    /// The closure receives the trial's derived seed and must be pure up to
    /// its own RNG: results must not depend on execution order (the
    /// trial-index audit in the equivalence suites exists to catch
    /// violations).
    pub fn run<R, F>(&self, trial: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64) -> R + Sync,
    {
        self.run_indexed(|_, seed| trial(seed))
    }

    /// Like [`run`](Self::run), but the closure also receives the trial
    /// index (useful for per-trial labels in assertion messages).
    pub fn run_indexed<R, F>(&self, trial: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64) -> R + Sync,
    {
        (0..self.trials)
            .into_par_iter()
            .map(|index| trial(index, self.trial_seed(index)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summary;

    fn synthetic(seed: u64) -> Option<f64> {
        // A deterministic pseudo-observation with some failures mixed in.
        if seed % 7 == 0 {
            None
        } else {
            Some((seed % 1000) as f64 + (seed % 13) as f64 / 13.0)
        }
    }

    #[test]
    fn run_preserves_trial_order_and_seeds() {
        let fleet = TrialFleet::new(250, 0xF1EE7);
        let out = fleet.run_indexed(|index, seed| (index, seed));
        for (i, (index, seed)) in out.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*seed, derive_seed(0xF1EE7, i as u64));
        }
    }

    #[test]
    fn fleet_trial_seeds_are_all_distinct() {
        let fleet = TrialFleet::new(10_000, 0xBA7C_4ED0);
        let mut seeds: Vec<u64> = (0..fleet.trials()).map(|i| fleet.trial_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000, "two trials would share an RNG stream");
    }

    #[test]
    fn run_and_summary_fold_are_bitwise_identical_across_forced_thread_counts() {
        let fleet = TrialFleet::new(200, 0xD00D);
        // The bit patterns of the trial-ordered observations and of the
        // one-thread fold over the successful ones; `None` when no trial
        // succeeded.
        let fold = |observe: fn(u64) -> Option<f64>| {
            let observations = fleet.run(observe);
            let values: Vec<f64> = observations.iter().flatten().copied().collect();
            let summary = (!values.is_empty()).then(|| Summary::of(&values)).map(|s| {
                [s.mean, s.std_dev, s.min, s.p10, s.median, s.p90, s.max].map(f64::to_bits)
            });
            let bits: Vec<Option<u64>> = observations.iter().map(|o| o.map(f64::to_bits)).collect();
            (bits, summary)
        };
        let cells: [fn(u64) -> Option<f64>; 2] = [synthetic, |_| None];
        let reference = cells.map(fold);
        assert!(reference[0].1.is_some(), "some synthetic trials succeed");
        assert_eq!(reference[1].1, None, "no trial of the empty cell succeeds");
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(
                pool.install(|| cells.map(fold)),
                reference,
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_fleet_rejected() {
        let _ = TrialFleet::new(0, 1);
    }
}
