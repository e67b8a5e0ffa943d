//! Aggregation of trial records.
//!
//! Experiments repeat every measurement over several independent trials,
//! run through [`ppsim::TrialFleet`]: one seed per trial derived from a base
//! seed (so every table row is reproducible bit-for-bit), fanned out across
//! worker threads, and returned in trial order regardless of scheduling.
//! [`TrialSummary::of`] folds a cell's trial-ordered observations into a
//! [`TrialSummary`] in one thread, so the summary does not depend on the
//! thread count; [`summarize_trials`] does the same for trials that yield a
//! [`StabilizationResult`].

use ppsim::{StabilizationResult, Summary};
use serde::Serialize;

/// Aggregate statistics over the trials of one experiment cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrialSummary {
    /// Number of trials.
    pub trials: usize,
    /// Number of trials that stabilized within the budget.
    pub successes: usize,
    /// Summary of the stabilization parallel times of the successful trials
    /// (`None` if no trial succeeded).
    pub parallel_time: Option<Summary>,
}

impl TrialSummary {
    /// Folds one cell's per-trial observations, in trial order and in one
    /// thread, into a summary; `None` marks a trial that produced no value
    /// (e.g. did not stabilize within budget). Given the trial-ordered
    /// output of [`ppsim::TrialFleet::run`], the result is bit-identical
    /// at every thread count.
    pub fn of(observations: &[Option<f64>]) -> Self {
        let successes: Vec<f64> = observations.iter().flatten().copied().collect();
        TrialSummary {
            trials: observations.len(),
            successes: successes.len(),
            parallel_time: (!successes.is_empty()).then(|| Summary::of(&successes)),
        }
    }

    /// Success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Mean stabilization parallel time of successful trials, if any.
    pub fn mean_parallel_time(&self) -> Option<f64> {
        self.parallel_time.map(|s| s.mean)
    }
}

/// Aggregates trial records into a [`TrialSummary`] of their stabilization
/// parallel times.
pub fn summarize_trials(outcomes: &[StabilizationResult]) -> TrialSummary {
    let times: Vec<Option<f64>> = outcomes
        .iter()
        .map(StabilizationResult::parallel_time)
        .collect();
    TrialSummary::of(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stabilized_at: Option<u64>, n: usize) -> StabilizationResult {
        StabilizationResult {
            interactions: 500,
            stabilized_at,
            n,
        }
    }

    #[test]
    fn summarize_counts_successes_and_averages() {
        let outcomes = [
            record(Some(100), 10),
            record(None, 10),
            record(Some(300), 10),
        ];
        let summary = summarize_trials(&outcomes);
        assert_eq!(summary.trials, 3);
        assert_eq!(summary.successes, 2);
        assert!((summary.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((summary.mean_parallel_time().unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_with_no_successes() {
        let summary = summarize_trials(&[record(None, 5)]);
        assert_eq!(summary.successes, 0);
        assert_eq!(summary.mean_parallel_time(), None);
        assert_eq!(summary.success_rate(), 0.0);
    }
}
