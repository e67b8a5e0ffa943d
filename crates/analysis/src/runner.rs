//! Aggregation of trial records.
//!
//! Experiments repeat every measurement over several independent trials,
//! run through [`ppsim::TrialFleet`]: one seed per trial derived from a base
//! seed (so every table row is reproducible bit-for-bit), fanned out across
//! worker threads, and returned in trial order regardless of scheduling.
//! Each trial yields a [`StabilizationResult`]; [`summarize_trials`] folds a
//! cell's records into a [`TrialSummary`].

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

/// Aggregates trial records into a [`TrialSummary`].
pub fn summarize_trials(outcomes: &[StabilizationResult]) -> TrialSummary {
    let successes: Vec<f64> = outcomes
        .iter()
        .filter_map(StabilizationResult::parallel_time)
        .collect();
    TrialSummary {
        trials: outcomes.len(),
        successes: successes.len(),
        parallel_time: if successes.is_empty() {
            None
        } else {
            Some(Summary::of(&successes))
        },
    }
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
