//! E11 — agreement between the engines on `ElectLeader_r`.
//!
//! `ppsim::DiscoveredProtocol` interns states lazily, which lets the
//! count-based engines run the paper's own protocol without a hand-written
//! state bijection or a `|Q|²` pair enumeration. At every `n` of
//! [`Scale::discovered_n_values`], at the fast-regime ratio `r = n/4`
//! ([`sweep_r`]), the same instances run under the multi-batch engine
//! ([`ppsim::MultiBatchSimulation`]), the batched engine and the per-step
//! engine, in that order. For each count engine the table notes the
//! relative mean difference and the two-sample Kolmogorov–Smirnov distance
//! of its stabilization-time sample against the per-step one (the same
//! statistics `tests/integration_batched.rs` enforces with tolerances).
//! The `(n, r)` trade-off surface itself is E1's, on the per-step engine.

use crate::runner::{run_trials, TrialOutcome};
use crate::scale::{EngineKind, Scale};
use crate::table::{fmt_f64, Table};
use ppsim::rng::derive_seed;
use ppsim::simulation::StabilizationOptions;
use ppsim::stats::ks_distance;
use ppsim::{DiscoveredProtocol, SimBuilder};
use ssle_core::{output, ElectLeader};
use std::time::Instant;

/// The trade-off parameter used by the fast-regime `n` sweep: the ratio
/// `n/4`, clamped into the theorem range `1 ≤ r ≤ n/2`.
pub fn sweep_r(n: usize) -> usize {
    (n / 4).max(1)
}

/// One `ElectLeader_r` stabilization trial under the chosen engine. Every
/// engine — the per-step tier included — runs through the dynamic state
/// indexer and the unified [`ppsim::SimBuilder`] surface, so this function
/// is one code path with no per-engine dispatch (the per-step tier maintains
/// its count mirror over lazily interned states and evaluates the same
/// count-space predicate as the count engines).
pub fn ssle_engine_trial(engine: EngineKind, n: usize, r: usize, seed: u64) -> TrialOutcome {
    let protocol = ElectLeader::with_n_r(n, r).expect("sweep parameters are valid");
    let budget = protocol.params().suggested_budget();
    let opts = StabilizationOptions::new(n, budget);
    let discovered = DiscoveredProtocol::new(protocol);
    let handle = discovered.clone();
    let mut sim = SimBuilder::new(discovered).kind(engine).seed(seed).build();
    let result =
        sim.measure_stabilization(&mut |c| output::is_correct_output_counts(&handle, c), opts);
    TrialOutcome {
        stabilized: result.stabilized(),
        stabilized_at: result.stabilized_at,
        total_interactions: result.interactions,
        n,
    }
}

/// The stabilization interaction counts of the successful trials.
fn stabilization_samples(outcomes: &[TrialOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .filter_map(|o| o.stabilized_at)
        .map(|t| t as f64)
        .collect()
}

/// Sample mean via the shared [`ppsim::Summary`] statistics, so the table
/// and the cross-engine equivalence tests compute the statistic one way.
fn mean(samples: &[f64]) -> f64 {
    ppsim::Summary::of(samples).mean
}

/// Formats the cross-validation note comparing one count engine's samples
/// against the per-step engine's at one sweep point.
fn cross_validation_note(label: &str, n: usize, engine: &[f64], per_step: &[f64]) -> String {
    let (m_e, m_ps) = (mean(engine), mean(per_step));
    let rel_diff = (m_e - m_ps).abs() / m_ps;
    let ks = ks_distance(engine, per_step);
    // Two-sample KS 1% critical value — deliberately *not* capped at the
    // trivial 1: when it exceeds 1 the sample is too small for the KS test
    // to reject at this level at all, and even complete ECDF separation
    // (distance 1, routine for a handful of samples with disjoint ranges)
    // is not evidence of disagreement.
    let (a, b) = (engine.len() as f64, per_step.len() as f64);
    let critical = 1.63 * ((a + b) / (a * b)).sqrt();
    let verdict = if rel_diff < 0.12 && ks < critical {
        "engines agree"
    } else {
        "ENGINES DISAGREE"
    };
    format!(
        "n = {n}, {label} vs per-step: {verdict} — relative mean difference {:.1}%, \
         KS distance {ks:.3} (1% critical ≈ {critical:.2} at this sample size{}; \
         tests/integration_batched.rs enforces the same statistics at larger samples)",
        100.0 * rel_diff,
        if critical >= 1.0 {
            ", i.e. not rejectable by KS"
        } else {
            ""
        }
    )
}

/// E11 — `ElectLeader_r` stabilization times under the dynamically indexed
/// count-based engines and the per-step engine, with their agreement.
pub fn e11_discovered_curves(scale: Scale) -> Table {
    let mut table = Table::new(
        "E11 — ElectLeader_r engine agreement: count-based engines via dynamic state indexing vs per-step",
        &[
            "n",
            "r",
            "engine",
            "trials",
            "stabilized",
            "mean stabilization interactions",
            "mean parallel time",
            "cell wall ms",
        ],
    );
    let trials = scale.trials();
    for &n in &scale.discovered_n_values() {
        let r = sweep_r(n);
        let base_seed = derive_seed(scale.base_seed() ^ 0xE11, (n * 131 + r) as u64);
        let mut samples_by_engine: Vec<(EngineKind, Vec<f64>)> = Vec::new();
        for engine in [
            EngineKind::MultiBatch,
            EngineKind::Batched,
            EngineKind::PerStep,
        ] {
            let started = Instant::now();
            let outcomes = run_trials(trials, base_seed, |seed| {
                ssle_engine_trial(engine, n, r, seed)
            });
            let elapsed = started.elapsed();
            let samples = stabilization_samples(&outcomes);
            let (mean_interactions, mean_parallel) = if samples.is_empty() {
                ("—".to_string(), "—".to_string())
            } else {
                let m = mean(&samples);
                (fmt_f64(m), fmt_f64(m / n as f64))
            };
            table.push_row([
                n.to_string(),
                r.to_string(),
                engine.label().to_string(),
                trials.to_string(),
                samples.len().to_string(),
                mean_interactions,
                mean_parallel,
                fmt_f64(elapsed.as_secs_f64() * 1_000.0),
            ]);
            samples_by_engine.push((engine, samples));
        }
        let (_, per_step) = samples_by_engine.pop().expect("per-step runs last");
        if per_step.is_empty() {
            continue;
        }
        for (engine, samples) in &samples_by_engine {
            if !samples.is_empty() {
                table.push_note(cross_validation_note(engine.label(), n, samples, &per_step));
            }
        }
    }
    table.push_note(
        "Both count-based engines reach ElectLeader_r through ppsim::DiscoveredProtocol — state \
         indices are assigned lazily as states are first reached (with per-pair transition-\
         support memoization), no up-front |Q|² enumeration; the states-discovered count per run \
         is a vanishing corner of the nominal state space."
            .to_string(),
    );
    table.push_note(
        "Wall-clock: before stabilization nearly every ElectLeader_r interaction is \
         state-changing, so the batched engine cannot skip silent runs at these sizes and pays \
         sparse-pair-index maintenance per transition. The multi-batch engine instead pays per \
         Θ(√n)-interaction epoch and resolves the deterministic tick/meeting groups in bulk, \
         which makes it several times faster than batched here (compare the 'cell wall ms' \
         entries at each n). Per-step runs through the same indexer, so that all three engines \
         evaluate one count-space predicate, and costs about as much as multi-batch; E1 runs \
         per-step without the indexer, its cheapest form."
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_trial_stabilizes_a_tiny_instance() {
        let outcome = ssle_engine_trial(EngineKind::Batched, 12, sweep_r(12), 7);
        assert!(outcome.stabilized, "tiny clean instance must stabilize");
        assert!(outcome.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn multibatch_trial_stabilizes_a_tiny_instance() {
        let outcome = ssle_engine_trial(EngineKind::MultiBatch, 12, sweep_r(12), 7);
        assert!(outcome.stabilized, "tiny clean instance must stabilize");
        assert!(outcome.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn e11_compares_every_engine_at_every_n() {
        let table = e11_discovered_curves(Scale::Tiny);
        let ns = Scale::Tiny.discovered_n_values();
        // Multi-batch, batched and per-step rows, in that order, at every n.
        let expected: Vec<(String, String, &str)> = ns
            .iter()
            .flat_map(|&n| {
                ["multibatch", "batched", "per-step"]
                    .map(|engine| (n.to_string(), sweep_r(n).to_string(), engine))
            })
            .collect();
        let rows: Vec<(String, String, &str)> = table
            .rows
            .iter()
            .map(|row| (row[0].clone(), row[1].clone(), row[2].as_str()))
            .collect();
        assert_eq!(rows, expected);
        for &n in &ns {
            for label in ["multibatch", "batched"] {
                let prefix = format!("n = {n}, {label} vs per-step: ");
                assert!(
                    table
                        .notes
                        .iter()
                        .any(|note| note.starts_with(&prefix) && note.contains("KS distance")),
                    "{label} cross-validation note at n = {n} missing: {:?}",
                    table.notes
                );
            }
        }
        assert!(
            !table.notes.iter().any(|note| note.contains("slope")),
            "E11 fits no slopes: {:?}",
            table.notes
        );
    }
}
