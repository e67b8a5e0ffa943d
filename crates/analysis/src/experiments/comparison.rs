//! E6 — `ElectLeader_r` versus the baseline protocols.
//!
//! For every population size in the sweep, measure the time to a correct
//! output for three `ElectLeader_r` regimes (fast `r = n/2`, sub-linear
//! `r ≈ log² n`, state-frugal `r = 2`) and for the baseline protocols of the
//! [`baselines`] crate. The paper's claims translate into the following
//! expected shapes: the `r = n/2` regime beats the Θ(n²)-time baselines by
//! roughly a factor `n / log n` (growing with `n`), and the non-self-
//! stabilizing min-ID protocol remains the (unreachable) lower reference
//! line.

use crate::experiments::{clean_start_trial, ssle_trial};
use crate::runner::summarize_trials;
use crate::scale::Scale;
use crate::table::{fmt_f64, Table};
use baselines::{CaiIzumiWada, DirectCollisionSsle, LooselyStabilizingLe, MinIdLeaderElection};
use ppsim::{LeaderOutput, RankingOutput, TrialFleet};
use ssle_core::Scenario;

/// The protocols compared by E6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contender {
    /// `ElectLeader_r` with `r = n/2` (the paper's time-optimal regime).
    ElectLeaderFast,
    /// `ElectLeader_r` with `r ≈ log² n` (the sub-linear-time,
    /// sub-exponential-state regime of the paper's open-problem answer).
    ElectLeaderPolylog,
    /// `ElectLeader_r` with `r = 2` (the state-frugal regime).
    ElectLeaderFrugal,
    /// Cai–Izumi–Wada (n states, Θ(n²) time, silent).
    CaiIzumiWada,
    /// Ranking with direct collision detection only.
    DirectCollision,
    /// Non-self-stabilizing min-identifier election (reference line).
    MinId,
    /// Loosely-stabilizing leader election (reference line).
    LooselyStabilizing,
}

impl Contender {
    fn label(self) -> &'static str {
        match self {
            Contender::ElectLeaderFast => "ElectLeader_r (r = n/2)",
            Contender::ElectLeaderPolylog => "ElectLeader_r (r ≈ log² n)",
            Contender::ElectLeaderFrugal => "ElectLeader_r (r = 2)",
            Contender::CaiIzumiWada => "Cai-Izumi-Wada (n states)",
            Contender::DirectCollision => "direct-collision ranking",
            Contender::MinId => "min-ID election (not self-stabilizing)",
            Contender::LooselyStabilizing => "loosely-stabilizing LE",
        }
    }

    fn all() -> [Contender; 7] {
        [
            Contender::ElectLeaderFast,
            Contender::ElectLeaderPolylog,
            Contender::ElectLeaderFrugal,
            Contender::CaiIzumiWada,
            Contender::DirectCollision,
            Contender::MinId,
            Contender::LooselyStabilizing,
        ]
    }
}

fn polylog_r(n: usize) -> usize {
    let ln = (n as f64).ln();
    ((ln * ln).round() as usize).clamp(1, n / 2)
}

/// E6 — time to a correct output for every contender over the `n` sweep.
pub fn e6_versus_baselines(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6 — ElectLeader_r versus baselines (time to correct output)",
        &[
            "n",
            "protocol",
            "trials",
            "success rate",
            "mean parallel time",
            "mean interactions",
        ],
    );
    for &n in &scale.n_values() {
        for contender in Contender::all() {
            let seed =
                scale.base_seed() ^ 0xE6 ^ ((n * 37) as u64) ^ (contender.label().len() as u64);
            let budget_quadratic = 200 * (n as u64) * (n as u64) + 200_000;
            let fleet = TrialFleet::new(scale.trials(), seed);
            let outcomes = fleet.run(|trial_seed| match contender {
                Contender::ElectLeaderFast => ssle_trial(n, n / 2, Scenario::Clean, trial_seed),
                Contender::ElectLeaderPolylog => {
                    ssle_trial(n, polylog_r(n), Scenario::Clean, trial_seed)
                }
                Contender::ElectLeaderFrugal => ssle_trial(n, 2, Scenario::Clean, trial_seed),
                Contender::CaiIzumiWada => {
                    let protocol = CaiIzumiWada::new(n);
                    clean_start_trial(protocol, budget_quadratic, trial_seed, move |c| {
                        CaiIzumiWada::new(n).is_correct_ranking(c.as_slice())
                    })
                }
                Contender::DirectCollision => {
                    let protocol = DirectCollisionSsle::new(n);
                    clean_start_trial(protocol, budget_quadratic, trial_seed, move |c| {
                        DirectCollisionSsle::new(n).is_correct_ranking(c.as_slice())
                    })
                }
                Contender::MinId => {
                    let protocol = MinIdLeaderElection::new(n);
                    clean_start_trial(protocol, budget_quadratic, trial_seed, move |c| {
                        c.iter().all(|s| s.identifier.is_some())
                            && MinIdLeaderElection::new(n).leader_count(c.as_slice()) == 1
                    })
                }
                Contender::LooselyStabilizing => {
                    let protocol = LooselyStabilizingLe::new(n);
                    clean_start_trial(protocol, budget_quadratic, trial_seed, move |c| {
                        LooselyStabilizingLe::new(n).leader_count(c.as_slice()) == 1
                    })
                }
            });
            let summary = summarize_trials(&outcomes);
            table.push_row([
                n.to_string(),
                contender.label().to_string(),
                summary.trials.to_string(),
                fmt_f64(summary.success_rate()),
                summary
                    .mean_parallel_time()
                    .map(fmt_f64)
                    .unwrap_or_else(|| "-".into()),
                summary
                    .mean_parallel_time()
                    .map(|t| fmt_f64(t * n as f64))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    table.push_note(
        "Expected shape: the min-ID reference line is fastest but not self-stabilizing; among \
         the self-stabilizing protocols ElectLeader_r (r = n/2) scales like n·log n \
         interactions while Cai-Izumi-Wada and direct-collision ranking scale like n², so the \
         gap widens as n grows. The loosely-stabilizing protocol is fast but only holds the \
         leader for a bounded time."
            .to_string(),
    );
    table.push_note(
        "Parallel-time constants differ between protocols; the comparison is about growth \
         shape, not absolute values (the paper's claims are asymptotic)."
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polylog_r_is_within_the_allowed_range() {
        for n in [8usize, 16, 64, 256, 1024] {
            let r = polylog_r(n);
            assert!(r >= 1 && r <= n / 2, "n={n} r={r}");
        }
    }

    #[test]
    fn contender_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            Contender::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), Contender::all().len());
    }

    #[test]
    fn e6_produces_rows_for_every_pair_at_tiny_scale() {
        let table = e6_versus_baselines(Scale::Tiny);
        assert_eq!(
            table.rows.len(),
            Scale::Tiny.n_values().len() * Contender::all().len()
        );
        // Every self-stabilizing contender should succeed at tiny scale.
        for row in &table.rows {
            let rate: f64 = row[3].parse().unwrap();
            assert!(
                rate > 0.0,
                "contender {} at n = {} never converged",
                row[1],
                row[0]
            );
        }
    }
}
