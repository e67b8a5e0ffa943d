//! E3 and E7 — the reset mechanisms.
//!
//! * **E3 (Lemma 6.2)**: starting from a configuration where a reset was just
//!   triggered, measure the time until the population reaches the safe set —
//!   the paper predicts `O((n²/r) log n)` interactions w.h.p.
//! * **E7 (Section 3.2)**: starting from a *correct* ranking whose
//!   circulating-message system was corrupted, verify that only *soft* resets
//!   occur (no agent ever becomes a resetter), that the ranking survives
//!   unchanged, and that the population returns to a consistent state.

use crate::experiments::ssle_trial;
use crate::runner::summarize_trials;
use crate::scale::Scale;
use crate::table::{fmt_f64, Table};
use ppsim::rng::derive_seed;
use ppsim::stats::log_log_slope;
use ppsim::{SimRng, Simulation, TrialFleet};
use ssle_core::{satisfies_safe_shape, AgentState, ElectLeader, Scenario};

/// E3 — time to reach a safe configuration after a full reset.
pub fn e3_post_reset(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3 — stabilization after a triggered reset (Lemma 6.2)",
        &[
            "n",
            "r",
            "trials",
            "success rate",
            "mean parallel time",
            "max parallel time",
            "bound (n/r)·ln n",
        ],
    );
    let mut points: Vec<(f64, f64)> = Vec::new();
    for &n in &scale.n_values() {
        let r = (n / 2).max(1);
        let outcomes = TrialFleet::new(scale.trials(), scale.base_seed() ^ (n as u64) << 8)
            .run(|seed| ssle_trial(n, r, Scenario::Triggered, seed));
        let summary = summarize_trials(&outcomes);
        let bound = (n as f64 / r as f64) * (n as f64).ln();
        table.push_row([
            n.to_string(),
            r.to_string(),
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
            fmt_f64(bound),
        ]);
        if let Some(mean) = summary.mean_parallel_time() {
            points.push((n as f64, mean));
        }
    }
    if points.len() >= 2 {
        table.push_note(format!(
            "log-log slope of post-reset parallel time vs n (at r = n/2): {:.2}. \
             Lemma 6.2 predicts Θ((n/r)·log n) = Θ(log n) parallel time in this regime, \
             i.e. a small slope (≈ 0.2–0.4 over this n range) — equivalently Θ(n log n) \
             interactions.",
            log_log_slope(&points)
        ));
    }
    table
}

/// The observations collected by one E7 trial.
#[derive(Debug, Clone, Copy)]
struct SoftResetObservation {
    hard_reset_seen: bool,
    ranking_preserved: bool,
    soft_reset_seen: bool,
    repaired: bool,
    parallel_time_to_repair: Option<f64>,
}

/// Whether the corrupted message system has been fully repaired: every agent
/// is a verifier, all share the same *advanced* generation (so the soft-reset
/// epidemic has completed and every stale message was discarded), no error
/// state is pending, and the configuration is back in the safe shape.
fn repaired(config: &ppsim::Configuration<AgentState>) -> bool {
    let mut generation = None;
    for state in config.iter() {
        match state {
            AgentState::Verifying(v) => {
                if v.sv.dc.is_error() {
                    return false;
                }
                match generation {
                    None => generation = Some(v.sv.generation),
                    Some(g) if g != v.sv.generation => return false,
                    _ => {}
                }
            }
            _ => return false,
        }
    }
    generation.is_some_and(|g| g != 0) && satisfies_safe_shape(config)
}

fn soft_reset_trial(n: usize, r: usize, corrupted: usize, seed: u64) -> SoftResetObservation {
    let protocol = ElectLeader::with_n_r(n, r).expect("valid parameters");
    let budget = protocol.params().suggested_budget();
    let mut scenario_rng = SimRng::seed_from_u64(derive_seed(seed, 0xC0));
    let config = Scenario::CorruptedMessages(corrupted).generate(&protocol, &mut scenario_rng);
    let initial_ranks: Vec<Option<u32>> = config.iter().map(|s| s.verified_rank()).collect();
    let mut sim = Simulation::new(protocol, config, derive_seed(seed, 0xD0));

    let mut hard_reset_seen = false;
    let mut soft_reset_seen = false;
    let mut repaired_at: Option<u64> = None;
    let mut executed = 0u64;
    while executed < budget {
        if sim.step().is_none() {
            break;
        }
        executed += 1;
        let config = sim.configuration();
        if config.any(|s| s.is_resetting()) {
            hard_reset_seen = true;
            break;
        }
        if !soft_reset_seen {
            soft_reset_seen = config.any(|s| match s {
                AgentState::Verifying(v) => v.sv.generation != 0,
                _ => false,
            });
        }
        if repaired_at.is_none() && repaired(config) {
            repaired_at = Some(executed);
            break;
        }
    }
    let final_ranks: Vec<Option<u32>> = sim
        .configuration()
        .iter()
        .map(|s| s.verified_rank())
        .collect();
    SoftResetObservation {
        hard_reset_seen,
        ranking_preserved: initial_ranks == final_ranks,
        soft_reset_seen,
        repaired: repaired_at.is_some(),
        parallel_time_to_repair: repaired_at.map(|t| t as f64 / n as f64),
    }
}

/// E7 — soft resets repair a corrupted message system without touching the
/// ranking.
pub fn e7_soft_reset(scale: Scale) -> Table {
    let (n, r) = scale.recovery_instance();
    let mut table = Table::new(
        format!("E7 — soft reset safety under message corruption (n = {n}, r = {r})"),
        &[
            "corrupted agents",
            "trials",
            "hard resets seen",
            "soft reset seen",
            "ranking preserved",
            "message system repaired",
            "mean parallel time to repair",
        ],
    );
    for corrupted in [1usize, (n / 4).max(2), (n / 2).max(3)] {
        let trials = scale.trials();
        let observations: Vec<SoftResetObservation> = (0..trials)
            .map(|i| {
                soft_reset_trial(
                    n,
                    r,
                    corrupted,
                    derive_seed(scale.base_seed() ^ 0xE7, (corrupted * 131 + i) as u64),
                )
            })
            .collect();
        let hard = observations.iter().filter(|o| o.hard_reset_seen).count();
        let soft = observations.iter().filter(|o| o.soft_reset_seen).count();
        let preserved = observations.iter().filter(|o| o.ranking_preserved).count();
        let safe = observations.iter().filter(|o| o.repaired).count();
        let times: Vec<f64> = observations
            .iter()
            .filter_map(|o| o.parallel_time_to_repair)
            .collect();
        table.push_row([
            corrupted.to_string(),
            trials.to_string(),
            format!("{hard}/{trials}"),
            format!("{soft}/{trials}"),
            format!("{preserved}/{trials}"),
            format!("{safe}/{trials}"),
            if times.is_empty() {
                "-".to_string()
            } else {
                fmt_f64(times.iter().sum::<f64>() / times.len() as f64)
            },
        ]);
    }
    table.push_note(
        "Expected shape: zero hard resets, every trial preserves the ranking, and the \
         corrupted message system is repaired by soft resets (generation advances)."
            .to_string(),
    );
    table
}

/// Exposed for the integration tests: one soft-reset trial reduced to the
/// (hard reset seen, ranking preserved) pair.
pub fn soft_reset_probe(n: usize, r: usize, corrupted: usize, seed: u64) -> (bool, bool) {
    let obs = soft_reset_trial(n, r, corrupted, seed);
    (obs.hard_reset_seen, obs.ranking_preserved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_has_one_row_per_population_size() {
        let table = e3_post_reset(Scale::Tiny);
        assert_eq!(table.rows.len(), Scale::Tiny.n_values().len());
        for row in &table.rows {
            let rate: f64 = row[3].parse().unwrap();
            assert_eq!(rate, 1.0, "post-reset runs must stabilize: {row:?}");
        }
    }

    #[test]
    fn e7_reports_no_hard_resets_and_preserved_ranking_at_tiny_scale() {
        let table = e7_soft_reset(Scale::Tiny);
        assert_eq!(table.rows.len(), 3);
        for row in &table.rows {
            assert!(
                row[2].starts_with("0/"),
                "no hard reset expected, got {row:?}"
            );
            let trials: usize = row[1].parse().unwrap();
            assert_eq!(
                row[4],
                format!("{trials}/{trials}"),
                "ranking must be preserved: {row:?}"
            );
        }
    }
}
