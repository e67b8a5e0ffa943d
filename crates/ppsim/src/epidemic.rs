//! Epidemic (broadcast) primitives and their empirical analysis.
//!
//! The paper relies heavily on one-way epidemics to spread information
//! (Lemma A.2: `n` simultaneous epidemics all complete within
//! `c_epi · n · log n` interactions w.h.p. with `c_epi < 7`). This module
//! implements the one-way and two-way epidemic protocols directly so the
//! constant can be measured (experiment E8), and exposes
//! [`measure_epidemic_time_with`] as a reusable helper.

use crate::engine::{EngineKind, SimBuilder};
use crate::enumerable::EnumerableProtocol;
use crate::indexer::SupportEnumerable;
use crate::protocol::{AgentId, CleanInit, InteractionCtx, Protocol};

/// State index of an uninformed agent under the epidemics'
/// [`EnumerableProtocol`] enumeration.
pub const UNINFORMED: usize = 0;

/// State index of an informed agent under the epidemics'
/// [`EnumerableProtocol`] enumeration.
pub const INFORMED: usize = 1;

/// One-way epidemic: when an *informed* initiator meets an uninformed
/// responder, the responder becomes informed. (Information flows only from
/// initiator to responder, matching the broadcast primitive used by the
/// paper's sub-protocols.)
#[derive(Debug, Clone, Copy)]
pub struct OneWayEpidemic {
    n: usize,
    sources: usize,
}

impl OneWayEpidemic {
    /// Creates a one-way epidemic over `n` agents with `sources` initially
    /// informed agents.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is zero or exceeds `n`.
    pub fn new(n: usize, sources: usize) -> Self {
        assert!(sources >= 1 && sources <= n, "need 1..=n sources");
        OneWayEpidemic { n, sources }
    }
}

impl Protocol for OneWayEpidemic {
    type State = bool;

    fn population_size(&self) -> usize {
        self.n
    }

    fn interact(&self, u: &mut bool, v: &mut bool, _ctx: &mut InteractionCtx<'_>) {
        if *u {
            *v = true;
        }
    }
}

impl CleanInit for OneWayEpidemic {
    fn clean_state(&self, agent: AgentId) -> bool {
        agent.index() < self.sources
    }

    fn clean_runs(&self) -> Box<dyn Iterator<Item = (bool, u64)> + '_> {
        // Sources first, then the uninformed tail — same agent order as
        // `clean_state`.
        let runs = [
            (true, self.sources as u64),
            (false, (self.n - self.sources) as u64),
        ];
        Box::new(runs.into_iter().filter(|&(_, count)| count > 0))
    }
}

impl EnumerableProtocol for OneWayEpidemic {
    fn num_states(&self) -> usize {
        2
    }
    fn encode(&self, state: &bool) -> usize {
        usize::from(*state)
    }
    fn decode(&self, index: usize) -> bool {
        index == INFORMED
    }
    fn is_silent(&self, initiator: usize, responder: usize) -> bool {
        // Only an informed initiator meeting an uninformed responder changes
        // anything.
        !(initiator == INFORMED && responder == UNINFORMED)
    }
}

/// State-level silence, so the epidemic can also run under the dynamic
/// indexer ([`crate::indexer::DiscoveredProtocol`]), as its doc example does.
impl SupportEnumerable for OneWayEpidemic {
    fn silent_pair(&self, initiator: &bool, responder: &bool) -> bool {
        !*initiator || *responder
    }
}

/// Two-way epidemic: if either interacting agent is informed, both become
/// informed.
#[derive(Debug, Clone, Copy)]
pub struct TwoWayEpidemic {
    n: usize,
    sources: usize,
}

impl TwoWayEpidemic {
    /// Creates a two-way epidemic over `n` agents with `sources` initially
    /// informed agents.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is zero or exceeds `n`.
    pub fn new(n: usize, sources: usize) -> Self {
        assert!(sources >= 1 && sources <= n, "need 1..=n sources");
        TwoWayEpidemic { n, sources }
    }
}

impl Protocol for TwoWayEpidemic {
    type State = bool;

    fn population_size(&self) -> usize {
        self.n
    }

    fn interact(&self, u: &mut bool, v: &mut bool, _ctx: &mut InteractionCtx<'_>) {
        if *u || *v {
            *u = true;
            *v = true;
        }
    }
}

impl CleanInit for TwoWayEpidemic {
    fn clean_state(&self, agent: AgentId) -> bool {
        agent.index() < self.sources
    }

    fn clean_runs(&self) -> Box<dyn Iterator<Item = (bool, u64)> + '_> {
        let runs = [
            (true, self.sources as u64),
            (false, (self.n - self.sources) as u64),
        ];
        Box::new(runs.into_iter().filter(|&(_, count)| count > 0))
    }
}

impl EnumerableProtocol for TwoWayEpidemic {
    fn num_states(&self) -> usize {
        2
    }
    fn encode(&self, state: &bool) -> usize {
        usize::from(*state)
    }
    fn decode(&self, index: usize) -> bool {
        index == INFORMED
    }
    fn is_silent(&self, initiator: usize, responder: usize) -> bool {
        // Mixed pairs (in either order) inform the uninformed side.
        initiator == responder
    }
}

/// State-level silence for the dynamic indexer, mirroring
/// [`EnumerableProtocol::is_silent`].
impl SupportEnumerable for TwoWayEpidemic {
    fn silent_pair(&self, initiator: &bool, responder: &bool) -> bool {
        initiator == responder
    }
}

/// Runs one epidemic to completion under the chosen engine tier through the
/// unified [`crate::engine`] API and returns the number of interactions it
/// took for every agent to become informed, or `None` if the epidemic did
/// not complete within `budget` (which indicates a far-too-small budget:
/// completion is guaranteed with probability 1).
///
/// [`EngineKind::PerStep`] draws the same RNG stream as a bare
/// [`crate::Simulation`] with the same seed. The engines draw randomness
/// differently, so for equal seeds the returned times are different samples
/// of the same distribution, and each engine observes completion at its own
/// granularity (see the [`crate::engine`] module docs: exact for per-step and
/// batched, up to one `O(√n)` epoch late for multi-batch).
pub fn measure_epidemic_time_with<P>(
    protocol: P,
    kind: EngineKind,
    seed: u64,
    budget: u64,
) -> Option<u64>
where
    P: EnumerableProtocol<State = bool> + CleanInit + 'static,
{
    let mut sim = SimBuilder::new(protocol).kind(kind).seed(seed).build();
    let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), budget);
    out.satisfied.then_some(out.interactions)
}

/// The empirical epidemic constant: completion interactions divided by
/// `n · ln n`.
pub fn epidemic_constant(interactions: u64, n: usize) -> f64 {
    interactions as f64 / (n as f64 * (n as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AgentId, CleanInit};

    /// The collapsed `clean_runs` override must replay `clean_state`'s
    /// agent order exactly: sources first, then the uninformed tail, with
    /// counts summing to `n` — including the degenerate all-sources case
    /// whose empty tail run is dropped.
    #[test]
    fn clean_runs_collapse_matches_per_agent_states() {
        for (n, sources) in [(10, 1), (10, 4), (5, 5)] {
            let p = OneWayEpidemic::new(n, sources);
            let mut agent = 0usize;
            let mut total = 0u64;
            for (state, count) in p.clean_runs() {
                for _ in 0..count {
                    assert_eq!(state, p.clean_state(AgentId::new(agent)), "agent {agent}");
                    agent += 1;
                }
                total += count;
            }
            assert_eq!(total, n as u64, "n={n} sources={sources}");

            let q = TwoWayEpidemic::new(n, sources);
            let runs: Vec<_> = q.clean_runs().collect();
            assert_eq!(runs, p.clean_runs().collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_way_epidemic_completes_in_reasonable_time() {
        let n = 128;
        let t = measure_epidemic_time_with(
            OneWayEpidemic::new(n, 1),
            EngineKind::PerStep,
            42,
            10_000_000,
        )
        .expect("epidemic should complete");
        // Lemma A.2: completion within c_epi * n log n with c_epi < 7;
        // allow generous slack for a single trial.
        assert!(
            epidemic_constant(t, n) < 12.0,
            "constant was {}",
            epidemic_constant(t, n)
        );
        assert!(t as usize > n, "must take more than n interactions");
    }

    #[test]
    fn two_way_is_no_slower_than_one_way_on_average() {
        let n = 64;
        let trials = 10;
        let avg = |two_way: bool| -> f64 {
            (0..trials)
                .map(|i| {
                    if two_way {
                        measure_epidemic_time_with(
                            TwoWayEpidemic::new(n, 1),
                            EngineKind::PerStep,
                            100 + i,
                            10_000_000,
                        )
                        .unwrap() as f64
                    } else {
                        measure_epidemic_time_with(
                            OneWayEpidemic::new(n, 1),
                            EngineKind::PerStep,
                            100 + i,
                            10_000_000,
                        )
                        .unwrap() as f64
                    }
                })
                .sum::<f64>()
                / trials as f64
        };
        assert!(avg(true) <= avg(false) * 1.1);
    }

    #[test]
    fn more_sources_spread_faster() {
        let n = 96;
        let trials = 8;
        let avg = |sources: usize| -> f64 {
            (0..trials)
                .map(|i| {
                    measure_epidemic_time_with(
                        OneWayEpidemic::new(n, sources),
                        EngineKind::PerStep,
                        7 + i,
                        10_000_000,
                    )
                    .unwrap() as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        assert!(avg(n / 2) < avg(1));
    }

    #[test]
    fn batched_time_matches_per_step_in_expectation() {
        let n = 96;
        let trials = 12;
        let mean = |kind: EngineKind| -> f64 {
            (0..trials)
                .map(|i| {
                    measure_epidemic_time_with(OneWayEpidemic::new(n, 1), kind, 30 + i, u64::MAX)
                        .unwrap() as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        let (per_step, batched) = (mean(EngineKind::PerStep), mean(EngineKind::Batched));
        // Same distribution, different samples: means agree within generous
        // Monte-Carlo slack (σ/mean is ~15% at 12 trials of this size).
        assert!(
            (per_step - batched).abs() < 0.5 * per_step,
            "per-step mean {per_step} vs batched mean {batched}"
        );
    }

    #[test]
    fn multibatch_time_matches_per_step_in_expectation() {
        let n = 96;
        let trials = 12;
        let mean = |kind: EngineKind| -> f64 {
            (0..trials)
                .map(|i| {
                    measure_epidemic_time_with(OneWayEpidemic::new(n, 1), kind, 30 + i, u64::MAX)
                        .unwrap() as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        let (per_step, multibatch) = (mean(EngineKind::PerStep), mean(EngineKind::MultiBatch));
        assert!(
            (per_step - multibatch).abs() < 0.5 * per_step,
            "per-step mean {per_step} vs multibatch mean {multibatch}"
        );
    }

    #[test]
    fn multibatch_insufficient_budget_returns_none() {
        assert_eq!(
            measure_epidemic_time_with(TwoWayEpidemic::new(64, 1), EngineKind::MultiBatch, 0, 5),
            None
        );
    }

    #[test]
    fn batched_insufficient_budget_returns_none() {
        assert_eq!(
            measure_epidemic_time_with(TwoWayEpidemic::new(64, 1), EngineKind::Batched, 0, 5),
            None
        );
    }

    #[test]
    #[should_panic(expected = "1..=n sources")]
    fn zero_sources_rejected() {
        let _ = OneWayEpidemic::new(8, 0);
    }

    #[test]
    fn insufficient_budget_returns_none() {
        assert_eq!(
            measure_epidemic_time_with(OneWayEpidemic::new(64, 1), EngineKind::PerStep, 0, 5),
            None
        );
    }
}
