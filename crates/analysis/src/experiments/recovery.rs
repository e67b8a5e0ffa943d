//! E4 and E5 — self-stabilization from adversarial configurations.
//!
//! * **E4 (Lemma 6.3)**: for every adversarial scenario of the catalog,
//!   measure the time until the protocol's output is correct (and stays
//!   correct). The recovery hierarchy level of the starting configuration is
//!   reported alongside.
//! * **E5 (Lemma E.1 (b), robust completeness)**: starting from a fully
//!   verified configuration with duplicated ranks, measure the time until the
//!   collision is *detected* (the first hard reset is triggered), as a
//!   function of the trade-off parameter `r` and of the number of duplicated
//!   ranks.

use crate::experiments::ssle_trial;
use crate::runner::summarize_trials;
use crate::scale::Scale;
use crate::table::{fmt_f64, Table};
use ppsim::rng::derive_seed;
use ppsim::stats::log_log_slope;
use ppsim::{SimRng, Simulation, StabilizationResult, TrialFleet};
use ssle_core::{classify, ElectLeader, Scenario};

/// E4 — recovery time per adversarial scenario.
pub fn e4_recovery(scale: Scale) -> Table {
    let (n, r) = scale.recovery_instance();
    let mut table = Table::new(
        format!("E4 — recovery from adversarial configurations (n = {n}, r = {r}, Lemma 6.3)"),
        &[
            "scenario",
            "hierarchy level at start",
            "trials",
            "success rate",
            "mean parallel time",
            "max parallel time",
        ],
    );
    for scenario in Scenario::catalog(n) {
        // Classify a sample starting configuration for context.
        let protocol = ElectLeader::with_n_r(n, r).expect("valid parameters");
        let mut rng = SimRng::seed_from_u64(scale.base_seed() ^ 0xE4);
        let sample = scenario.generate(&protocol, &mut rng);
        let level = classify(&sample);

        let outcomes = TrialFleet::new(
            scale.trials(),
            scale.base_seed() ^ 0xE4 ^ (scenario.name().len() as u64) << 17,
        )
        .run(|seed| ssle_trial(n, r, scenario, seed));
        let summary = summarize_trials(&outcomes);
        table.push_row([
            scenario.name(),
            level.label().to_string(),
            summary.trials.to_string(),
            fmt_f64(summary.success_rate()),
            summary
                .mean_parallel_time()
                .map(fmt_f64)
                .unwrap_or_else(|| "-".into()),
            summary
                .parallel_time
                .map(|s| fmt_f64(s.max))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table.push_note(
        "Expected shape: every scenario recovers (success rate 1); scenarios that only \
         corrupt the message system recover fastest (soft reset), scenarios that require a \
         full re-ranking pay the ranking cost."
            .to_string(),
    );
    table
}

/// One E5 trial: interactions until the first hard reset is triggered from a
/// duplicated-rank configuration.
pub fn detection_trial(n: usize, r: usize, duplicates: usize, seed: u64) -> StabilizationResult {
    let protocol = ElectLeader::with_n_r(n, r).expect("valid parameters");
    let budget = protocol.params().suggested_budget();
    let mut scenario_rng = SimRng::seed_from_u64(derive_seed(seed, 0xE5));
    let config = Scenario::DuplicateRanks(duplicates).generate(&protocol, &mut scenario_rng);
    let mut sim = Simulation::new(protocol, config, derive_seed(seed, 0xE6));
    let outcome = sim.run_until(|c| c.any(|s| s.is_resetting()), budget);
    StabilizationResult {
        interactions: outcome.interactions,
        stabilized_at: outcome.satisfied.then_some(outcome.interactions),
        n,
    }
}

/// E5 — collision-detection latency.
pub fn e5_collision_latency(scale: Scale) -> Table {
    let n = scale.fixed_n();
    let mut table = Table::new(
        format!("E5 — collision-detection latency vs r and #duplicates (n = {n}, Lemma E.1)"),
        &[
            "r",
            "duplicated ranks",
            "trials",
            "detection rate",
            "mean parallel time to detection",
            "p90 parallel time",
            "bound (n/r)·ln n",
        ],
    );
    let mut points: Vec<(f64, f64)> = Vec::new();
    for &r in &scale.r_values() {
        for duplicates in [2usize, (n / 4).max(3)] {
            let outcomes = TrialFleet::new(
                scale.trials(),
                scale.base_seed() ^ 0xE5 ^ ((r * 1000 + duplicates) as u64),
            )
            .run(|seed| detection_trial(n, r, duplicates, seed));
            let summary = summarize_trials(&outcomes);
            table.push_row([
                r.to_string(),
                duplicates.to_string(),
                summary.trials.to_string(),
                fmt_f64(summary.success_rate()),
                summary
                    .mean_parallel_time()
                    .map(fmt_f64)
                    .unwrap_or_else(|| "-".into()),
                summary
                    .parallel_time
                    .map(|s| fmt_f64(s.p90))
                    .unwrap_or_else(|| "-".into()),
                fmt_f64((n as f64 / r as f64) * (n as f64).ln()),
            ]);
            if duplicates == 2 {
                if let Some(mean) = summary.mean_parallel_time() {
                    points.push((r as f64, mean));
                }
            }
        }
    }
    if points.len() >= 2 {
        table.push_note(format!(
            "log-log slope of detection parallel time vs r (2 duplicates): {:.2} \
             (Lemma E.1 predicts ≈ -1: detection needs O((n²/r) log n) interactions)",
            log_log_slope(&points)
        ));
    }
    table.push_note(
        "More duplicated ranks make detection faster (more colliding pairs and messages), \
         matching Lemma E.3."
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_trial_detects_duplicates_quickly() {
        let outcome = detection_trial(16, 8, 4, 3);
        assert!(
            outcome.stabilized(),
            "the duplicated ranks must be detected"
        );
        assert!(outcome.stabilized_at.unwrap() > 0);
    }

    #[test]
    fn e4_covers_the_whole_catalog_at_tiny_scale() {
        let table = e4_recovery(Scale::Tiny);
        let (n, _) = Scale::Tiny.recovery_instance();
        assert_eq!(table.rows.len(), Scenario::catalog(n).len());
        for row in &table.rows {
            let rate: f64 = row[3].parse().unwrap();
            assert_eq!(rate, 1.0, "scenario {} must recover", row[0]);
        }
    }
}
