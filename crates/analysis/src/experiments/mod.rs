//! The experiments E1–E11 (see the README's "Run the experiments" section).
//!
//! Every experiment is a function from a [`Scale`] to a [`Table`], listed
//! once in the [`REGISTRY`] with its id and a one-line description; [`all`]
//! and [`by_id`] read it. Each `ElectLeader_r` trial yields a
//! [`ppsim::StabilizationResult`]. The sub-modules group the experiments by
//! theme:
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
//! * [`sweep`] — the deterministic epidemic sweep, the one id outside the
//!   registry.

pub mod comparison;
pub mod discovered;
#[cfg(test)]
mod fleet;
pub mod recovery;
pub mod reset;
pub mod scaling;
pub mod substrate;
pub mod sweep;
pub mod tradeoff;

use crate::scale::Scale;
use crate::spec::JobSpec;
use crate::table::Table;
use ppsim::rng::derive_seed;
use ppsim::simulation::StabilizationOptions;
use ppsim::{Configuration, SimRng, Simulation, StabilizationResult};
use ssle_core::{output, ElectLeader, Scenario};

/// One row of the experiment registry.
#[derive(Debug)]
pub struct Experiment {
    /// The id the `experiments` binary accepts (`"e1"` … `"e11"`).
    pub id: &'static str,
    /// One line saying what the table measures, for the `experiments` usage.
    pub about: &'static str,
    /// Runs the experiment at a scale.
    pub run: fn(Scale) -> Table,
}

/// Every experiment, in the order [`all`] runs them. The `sweep` document
/// is the one id outside the table: its spec carries its own engine, seed
/// and trial count.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "e1",
        about: "stabilization time over (n, r) (Theorem 1.1, time axis)",
        run: tradeoff::e1_tradeoff_time,
    },
    Experiment {
        id: "e2",
        about: "state-space size vs r (Theorem 1.1, space axis)",
        run: tradeoff::e2_state_space,
    },
    Experiment {
        id: "e3",
        about: "stabilization after a full reset (Lemma 6.2)",
        run: reset::e3_post_reset,
    },
    Experiment {
        id: "e4",
        about: "recovery from adversarial starts (Lemma 6.3)",
        run: recovery::e4_recovery,
    },
    Experiment {
        id: "e5",
        about: "collision-detection latency (Lemma E.1)",
        run: recovery::e5_collision_latency,
    },
    Experiment {
        id: "e6",
        about: "ElectLeader_r vs baselines",
        run: comparison::e6_versus_baselines,
    },
    Experiment {
        id: "e7",
        about: "soft-reset safety (Section 3.2)",
        run: reset::e7_soft_reset,
    },
    Experiment {
        id: "e8",
        about: "epidemic & load-balancing substrate (Lemmas A.2, E.6)",
        run: substrate::e8_substrate,
    },
    Experiment {
        id: "e9",
        about: "synthetic-coin quality (Appendix B)",
        run: substrate::e9_coin,
    },
    Experiment {
        id: "e10",
        about: "engine scale sweep: batched vs multi-batch vs per-step at large n",
        run: scaling::e10_engine_scale,
    },
    Experiment {
        id: "e11",
        about: "engine agreement on ElectLeader_r: indexed count engines vs per-step",
        run: discovered::e11_discovered_curves,
    },
];

/// Runs every experiment of the [`REGISTRY`] at the given scale, in order.
pub fn all(scale: Scale) -> Vec<Table> {
    REGISTRY.iter().map(|e| (e.run)(scale)).collect()
}

/// Looks up an experiment id without running anything: a [`REGISTRY`] row's
/// function, or for `"sweep"` the deterministic epidemic sweep at that
/// scale's default spec.
pub fn by_id(id: &str) -> Option<fn(Scale) -> Table> {
    if id == sweep::SWEEP_EXPERIMENT {
        return Some(|scale| sweep::epidemic_sweep(&JobSpec::new(sweep::SWEEP_EXPERIMENT, scale)));
    }
    REGISTRY.iter().find(|e| e.id == id).map(|e| e.run)
}

/// Runs one `ElectLeader_r` trial: build the instance, generate the
/// scenario's initial configuration, and measure the stabilization time of
/// the correct-output predicate.
pub fn ssle_trial(n: usize, r: usize, scenario: Scenario, seed: u64) -> StabilizationResult {
    let protocol = ElectLeader::with_n_r(n, r).expect("experiment parameters are valid");
    let budget = protocol.params().suggested_budget();
    let mut scenario_rng = SimRng::seed_from_u64(derive_seed(seed, 0xA0));
    let config = scenario.generate(&protocol, &mut scenario_rng);
    let mut sim = Simulation::new(protocol, config, derive_seed(seed, 0xB0));
    sim.measure_stabilization(
        output::is_correct_output,
        StabilizationOptions::new(n, budget),
    )
}

/// Runs one trial of an arbitrary protocol from its clean configuration,
/// measuring the stabilization time of `pred`.
pub fn clean_start_trial<P, F>(protocol: P, budget: u64, seed: u64, pred: F) -> StabilizationResult
where
    P: ppsim::Protocol + ppsim::CleanInit,
    F: FnMut(&Configuration<P::State>) -> bool,
{
    let n = protocol.population_size();
    let config = Configuration::clean(&protocol);
    let mut sim = Simulation::new(protocol, config, seed);
    sim.measure_stabilization(pred, StabilizationOptions::new(n, budget))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssle_trial_stabilizes_a_tiny_clean_instance() {
        let outcome = ssle_trial(16, 8, Scenario::Clean, 1);
        assert!(outcome.stabilized(), "tiny clean instance must stabilize");
        assert!(outcome.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn by_id_rejects_unknown_ids() {
        assert!(by_id("e42").is_none());
        assert!(by_id("serve").is_none());
    }

    #[test]
    fn by_id_accepts_exactly_the_registry_ids_and_sweep() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len(), "registry ids are unique");
        assert!(
            !ids.contains(&sweep::SWEEP_EXPERIMENT),
            "sweep is not a registry row"
        );
        for e in REGISTRY {
            assert!(by_id(e.id).is_some(), "{}", e.id);
        }
        assert!(by_id(sweep::SWEEP_EXPERIMENT).is_some());
        for unknown in ["all", "e0", "e12", "E1", "f1", "fleet", "p1", ""] {
            assert!(by_id(unknown).is_none(), "{unknown:?} must be unknown");
        }
    }
}
