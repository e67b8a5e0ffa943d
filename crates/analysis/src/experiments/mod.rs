//! The experiments E1–E11 (see the README's "Run the experiments" section).
//!
//! Every experiment is a function from a [`Scale`] to a [`Table`]. The
//! sub-modules group the experiments by theme:
//!
//! * [`tradeoff`] — E1 (time axis of Theorem 1.1: stabilization time over
//!   the `(n, r)` grid on the per-step engine, with slope fits in `n` and
//!   in `r`) and E2 (space axis, along `r` at a fixed `n`),
//! * [`reset`] — E3 (correctness after a full reset, Lemma 6.2) and E7 (soft
//!   reset safety, Section 3.2),
//! * [`recovery`] — E4 (recovery hierarchy, Lemma 6.3) and E5
//!   (collision-detection latency, Lemma E.1),
//! * [`comparison`] — E6 (`ElectLeader_r` versus the baseline protocols),
//! * [`substrate`] — E8 (epidemic constant and load balancing) and E9
//!   (synthetic-coin quality, Appendix B),
//! * [`scaling`] — E10 (batched vs per-step engine throughput at large `n`),
//! * [`discovered`] — E11 (agreement of the count-based engines, run on
//!   `ElectLeader_r` via dynamic state indexing, with the per-step engine),
//! * [`fleet`] — F1 (trial-fleet throughput: trials/sec at 1 vs N worker
//!   threads, with an inline bit-identity check on the aggregates),
//! * [`profiling`] — P1 (engine instrumentation profile: ns/interaction by
//!   engine mode and the measured multi-batch epoch constant, read from the
//!   `ppsim::telemetry` probes; also builds the `--trace` reference export).

pub mod comparison;
pub mod discovered;
pub mod fleet;
pub mod profiling;
pub mod recovery;
pub mod reset;
pub mod scaling;
pub mod substrate;
pub mod tradeoff;

use crate::runner::TrialOutcome;
use crate::scale::Scale;
use crate::table::Table;
use ppsim::rng::derive_seed;
use ppsim::simulation::StabilizationOptions;
use ppsim::{Configuration, SimRng, Simulation};
use ssle_core::{output, ElectLeader, Scenario};

/// Runs every experiment at the given scale, in E1…E11 order.
pub fn all(scale: Scale) -> Vec<Table> {
    vec![
        tradeoff::e1_tradeoff_time(scale),
        tradeoff::e2_state_space(scale),
        reset::e3_post_reset(scale),
        recovery::e4_recovery(scale),
        recovery::e5_collision_latency(scale),
        comparison::e6_versus_baselines(scale),
        reset::e7_soft_reset(scale),
        substrate::e8_substrate(scale),
        substrate::e9_coin(scale),
        scaling::e10_engine_scale(scale),
        discovered::e11_discovered_curves(scale),
        fleet::f1_fleet_throughput(scale),
        profiling::p1_engine_profile(scale),
    ]
}

/// Looks up a single experiment by its identifier (`"e1"` … `"e11"`,
/// `"fleet"` for the F1 fleet-throughput table, `"p1"` for the engine
/// instrumentation profile, or `"sweep"` for the experiment service's
/// deterministic epidemic sweep at that scale's default spec).
pub fn by_id(id: &str, scale: Scale) -> Option<Table> {
    match id {
        "sweep" => Some(crate::service::service_sweep(
            &crate::service::JobSpec::new("sweep", scale),
        )),
        "fleet" => Some(fleet::f1_fleet_throughput(scale)),
        "p1" => Some(profiling::p1_engine_profile(scale)),
        "e10" => Some(scaling::e10_engine_scale(scale)),
        "e11" => Some(discovered::e11_discovered_curves(scale)),
        "e1" => Some(tradeoff::e1_tradeoff_time(scale)),
        "e2" => Some(tradeoff::e2_state_space(scale)),
        "e3" => Some(reset::e3_post_reset(scale)),
        "e4" => Some(recovery::e4_recovery(scale)),
        "e5" => Some(recovery::e5_collision_latency(scale)),
        "e6" => Some(comparison::e6_versus_baselines(scale)),
        "e7" => Some(reset::e7_soft_reset(scale)),
        "e8" => Some(substrate::e8_substrate(scale)),
        "e9" => Some(substrate::e9_coin(scale)),
        _ => None,
    }
}

/// Whether `id` names a registry experiment ([`by_id`] would return a
/// table), without running anything — the cheap existence check job-spec
/// validation needs.
pub fn by_id_exists(id: &str) -> bool {
    matches!(
        id,
        "sweep"
            | "fleet"
            | "p1"
            | "e1"
            | "e2"
            | "e3"
            | "e4"
            | "e5"
            | "e6"
            | "e7"
            | "e8"
            | "e9"
            | "e10"
            | "e11"
    )
}

/// Runs one `ElectLeader_r` trial: build the instance, generate the
/// scenario's initial configuration, and measure the stabilization time of
/// the correct-output predicate.
pub fn ssle_trial(n: usize, r: usize, scenario: Scenario, seed: u64) -> TrialOutcome {
    let protocol = ElectLeader::with_n_r(n, r).expect("experiment parameters are valid");
    let budget = protocol.params().suggested_budget();
    let mut scenario_rng = SimRng::seed_from_u64(derive_seed(seed, 0xA0));
    let config = scenario.generate(&protocol, &mut scenario_rng);
    let mut sim = Simulation::new(protocol, config, derive_seed(seed, 0xB0));
    let result = sim.measure_stabilization(
        output::is_correct_output,
        StabilizationOptions::new(n, budget),
    );
    TrialOutcome {
        stabilized: result.stabilized(),
        stabilized_at: result.stabilized_at,
        total_interactions: result.interactions,
        n,
    }
}

/// Runs one trial of an arbitrary protocol from its clean configuration,
/// measuring the stabilization time of `pred`.
pub fn clean_start_trial<P, F>(protocol: P, budget: u64, seed: u64, pred: F) -> TrialOutcome
where
    P: ppsim::Protocol + ppsim::CleanInit,
    F: FnMut(&Configuration<P::State>) -> bool,
{
    let n = protocol.population_size();
    let config = Configuration::clean(&protocol);
    let mut sim = Simulation::new(protocol, config, seed);
    let result = sim.measure_stabilization(pred, StabilizationOptions::new(n, budget));
    TrialOutcome {
        stabilized: result.stabilized(),
        stabilized_at: result.stabilized_at,
        total_interactions: result.interactions,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssle_trial_stabilizes_a_tiny_clean_instance() {
        let outcome = ssle_trial(16, 8, Scenario::Clean, 1);
        assert!(outcome.stabilized, "tiny clean instance must stabilize");
        assert!(outcome.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn by_id_rejects_unknown_ids() {
        assert!(by_id("e42", Scale::Tiny).is_none());
    }
}
