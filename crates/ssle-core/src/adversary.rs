//! The catalog of adversarial initial configurations used by the
//! self-stabilization experiments.
//!
//! Self-stabilization demands recovery from *every* configuration. The
//! scenarios below cover the qualitatively different failure modes discussed
//! in the paper: duplicated leaders/ranks, missing leaders, corrupted message
//! systems (exercising the *soft* reset), mixed generations, half-finished
//! ranking phases, mid-reset states, and fully uniform random garbage
//! (within the representable state space).

use crate::elect_leader::ElectLeader;
use crate::ranking::{Label, RankPhase, RankState};
use crate::state::{AgentState, RankingAgent, ResetState};
use crate::verify::DetectCollisionState;
use ppsim::{AgentId, Configuration};
use rand::RngCore;
use serde::Serialize;

/// A named adversarial starting scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scenario {
    /// The clean start: every agent a freshly reset ranker.
    Clean,
    /// A reset was just triggered at one agent of an otherwise clean
    /// population (the starting point of Lemma 6.2).
    Triggered,
    /// Every agent is a dormant resetter (a fully dormant configuration).
    Dormant,
    /// Every agent is a verifier claiming rank 1 (all leaders).
    AllLeaders,
    /// Verifiers with ranks `2, 3, …` and no rank-1 agent (no leader), with
    /// one duplicated rank so the configuration is genuinely incorrect.
    NoLeader,
    /// A correct ranking except that the given number of extra agents
    /// duplicate existing ranks.
    DuplicateRanks(usize),
    /// A correct ranking whose circulating-message system was corrupted at
    /// the given number of agents (exercises the soft reset: the ranking must
    /// survive).
    CorruptedMessages(usize),
    /// A correct ranking but verifier generations are assigned at random
    /// (exercises the generation-agreement machinery).
    MixedGenerations,
    /// All agents are rankers frozen in random intermediate phases of
    /// `AssignRanks_r`.
    MidRanking,
    /// Every field of every agent drawn at random from its representable
    /// domain.
    UniformRandom,
}

impl Scenario {
    /// A short, stable name for experiment tables.
    pub fn name(&self) -> String {
        match self {
            Scenario::Clean => "clean".into(),
            Scenario::Triggered => "triggered".into(),
            Scenario::Dormant => "dormant".into(),
            Scenario::AllLeaders => "all-leaders".into(),
            Scenario::NoLeader => "no-leader".into(),
            Scenario::DuplicateRanks(k) => format!("duplicate-ranks({k})"),
            Scenario::CorruptedMessages(k) => format!("corrupted-messages({k})"),
            Scenario::MixedGenerations => "mixed-generations".into(),
            Scenario::MidRanking => "mid-ranking".into(),
            Scenario::UniformRandom => "uniform-random".into(),
        }
    }

    /// The default scenario list used by the recovery experiments.
    pub fn catalog(n: usize) -> Vec<Scenario> {
        vec![
            Scenario::Clean,
            Scenario::Triggered,
            Scenario::Dormant,
            Scenario::AllLeaders,
            Scenario::NoLeader,
            Scenario::DuplicateRanks(2),
            Scenario::DuplicateRanks(n / 4),
            Scenario::CorruptedMessages(1),
            Scenario::CorruptedMessages(n / 4),
            Scenario::MixedGenerations,
            Scenario::MidRanking,
            Scenario::UniformRandom,
        ]
    }

    /// Generates the initial configuration for this scenario.
    pub fn generate(
        &self,
        protocol: &ElectLeader,
        rng: &mut dyn RngCore,
    ) -> Configuration<AgentState> {
        let n = protocol.params().n;
        match self {
            Scenario::Clean => Configuration::clean(protocol),
            Scenario::Triggered => {
                let mut config = Configuration::clean(protocol);
                config[0] = AgentState::Resetting(ResetState::triggered(protocol.params()));
                config
            }
            Scenario::Dormant => Configuration::from_fn(protocol, |_| {
                AgentState::Resetting(ResetState::infected(protocol.params()))
            }),
            Scenario::AllLeaders => {
                Configuration::from_fn(protocol, |_| protocol.verifier_state(1))
            }
            Scenario::NoLeader => Configuration::from_fn(protocol, |agent: AgentId| {
                // Ranks 2..=n plus one duplicate of rank 2: no agent holds
                // rank 1, so there is no leader to begin with.
                let rank = if agent.index() == 0 {
                    2
                } else {
                    (agent.index() + 1) as u32
                };
                protocol.verifier_state(rank)
            }),
            Scenario::DuplicateRanks(dups) => {
                let dups = (*dups).clamp(1, n - 1);
                Configuration::from_fn(protocol, |agent: AgentId| {
                    let i = agent.index();
                    let rank = if i < dups {
                        // The first `dups` agents copy the ranks of the last
                        // `dups` agents.
                        (n - dups + i + 1) as u32
                    } else {
                        (i + 1) as u32
                    };
                    protocol.verifier_state(rank)
                })
            }
            Scenario::CorruptedMessages(count) => {
                // Model corruption striking a *long-stabilized* population:
                // probation timers have run out (as in the safe set 𝒞_safe),
                // so the protocol must repair the damage with soft resets
                // only, keeping the ranking intact.
                let mut config = correct_verifier_configuration(protocol);
                for state in config.iter_mut() {
                    if let AgentState::Verifying(v) = state {
                        v.sv.probation_timer = 0;
                    }
                }
                let count = (*count).clamp(1, n);
                for i in 0..count {
                    corrupt_message_system(protocol, &mut config[i], rng);
                }
                config
            }
            Scenario::MixedGenerations => {
                let mut config = correct_verifier_configuration(protocol);
                for state in config.iter_mut() {
                    if let AgentState::Verifying(v) = state {
                        v.sv.generation = (rng.next_u32() % 6) as u8;
                        v.sv.probation_timer = rng.next_u32() % protocol.params().probation_max();
                    }
                }
                config
            }
            Scenario::MidRanking => Configuration::from_fn(protocol, |agent: AgentId| {
                random_ranker(protocol, agent, rng)
            }),
            Scenario::UniformRandom => {
                Configuration::from_fn(protocol, |agent: AgentId| match rng.next_u32() % 3 {
                    0 => AgentState::Resetting(ResetState {
                        reset_count: rng.next_u32() % (protocol.params().reset_count_max() + 1),
                        delay_timer: rng.next_u32() % (protocol.params().delay_max() + 1),
                    }),
                    1 => random_ranker(protocol, agent, rng),
                    _ => {
                        let rank = 1 + rng.next_u32() % protocol.params().n as u32;
                        let mut state = protocol.verifier_state(rank);
                        if let AgentState::Verifying(v) = &mut state {
                            v.sv.generation = (rng.next_u32() % 6) as u8;
                            v.sv.probation_timer =
                                rng.next_u32() % (protocol.params().probation_max() + 1);
                            if rng.next_u32() % 4 == 0 {
                                v.sv.dc = DetectCollisionState::Error;
                            } else if rng.next_u32() % 2 == 0 {
                                corrupt_message_system(protocol, &mut state, rng);
                            }
                        }
                        state
                    }
                })
            }
        }
    }
}

/// A correct, fully verified configuration (ranks `1..=n` in agent order).
pub fn correct_verifier_configuration(protocol: &ElectLeader) -> Configuration<AgentState> {
    Configuration::from_fn(protocol, |agent: AgentId| {
        protocol.verifier_state((agent.index() + 1) as u32)
    })
}

/// Corrupts the circulating-message system of a verifier without breaking the
/// representation invariant that an agent's *own* messages always match its
/// observations: only messages governed by *other* ranks are rewritten.
pub fn corrupt_message_system(
    protocol: &ElectLeader,
    state: &mut AgentState,
    rng: &mut dyn RngCore,
) {
    let AgentState::Verifying(v) = state else {
        return;
    };
    let own_governor = protocol.partition().position_in_group(v.rank);
    if let Some(active) = v.sv.dc.active_mut() {
        let group_size = active.msgs.group_size();
        for governor in 0..group_size {
            if governor == own_governor {
                continue;
            }
            active.msgs.rewrite(governor, |msg| {
                if rng.next_u32() % 2 == 0 {
                    1 + rng.next_u64() % (1 << 40)
                } else {
                    msg.content()
                }
            });
        }
    }
}

/// A ranker frozen in a random `AssignRanks_r` phase with plausible field
/// values.
fn random_ranker(protocol: &ElectLeader, _agent: AgentId, rng: &mut dyn RngCore) -> AgentState {
    let params = protocol.params();
    let r = params.r as u32;
    let mut qar = RankState::initial(params);
    let labels = params.labels_per_deputy();
    qar.channel = (0..params.r)
        .map(|_| rng.next_u32() % (labels + 1))
        .collect();
    qar.phase = match rng.next_u32() % 5 {
        0 => RankPhase::Recipient { label: None },
        1 => RankPhase::Recipient {
            label: Some(Label {
                deputy: 1 + rng.next_u32() % r,
                index: 1 + rng.next_u32() % labels,
            }),
        },
        2 => RankPhase::Deputy {
            id: 1 + rng.next_u32() % r,
            counter: 1 + rng.next_u32() % labels,
        },
        3 => RankPhase::Sleeper {
            timer: 1 + rng.next_u32() % params.sleep_max(),
            label: Some(Label {
                deputy: 1 + rng.next_u32() % r,
                index: 1 + rng.next_u32() % labels,
            }),
        },
        _ => {
            qar.rank = 1 + rng.next_u32() % params.n as u32;
            qar.channel = Vec::new();
            RankPhase::Ranked
        }
    };
    AgentState::Ranking(RankingAgent {
        qar,
        countdown: 1 + rng.next_u32() % params.countdown_max(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{has_duplicate_committed_ranks, is_correct_output, leader_count};
    use ppsim::SimRng;

    fn protocol() -> ElectLeader {
        ElectLeader::with_n_r(16, 4).unwrap()
    }

    #[test]
    fn every_scenario_generates_a_full_population() {
        let p = protocol();
        let mut rng = SimRng::seed_from_u64(1);
        for scenario in Scenario::catalog(16) {
            let config = scenario.generate(&p, &mut rng);
            assert_eq!(config.len(), 16, "{}", scenario.name());
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let names: std::collections::HashSet<String> =
            Scenario::catalog(16).iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Scenario::catalog(16).len());
    }

    #[test]
    fn clean_and_triggered_and_dormant_have_expected_roles() {
        let p = protocol();
        let mut rng = SimRng::seed_from_u64(2);
        assert!(Scenario::Clean
            .generate(&p, &mut rng)
            .all(|s| s.is_ranking()));
        let triggered = Scenario::Triggered.generate(&p, &mut rng);
        assert_eq!(triggered.count_where(|s| s.is_resetting()), 1);
        let dormant = Scenario::Dormant.generate(&p, &mut rng);
        assert!(dormant.all(|s| s.is_dormant()));
    }

    #[test]
    fn all_leaders_and_no_leader_are_incorrect_outputs() {
        let p = protocol();
        let mut rng = SimRng::seed_from_u64(3);
        let all = Scenario::AllLeaders.generate(&p, &mut rng);
        assert_eq!(leader_count(&all), 16);
        assert!(!is_correct_output(&all));
        let none = Scenario::NoLeader.generate(&p, &mut rng);
        assert_eq!(leader_count(&none), 0);
        assert!(!is_correct_output(&none));
        assert!(has_duplicate_committed_ranks(&none));
    }

    #[test]
    fn duplicate_ranks_scenario_has_requested_duplicates() {
        let p = protocol();
        let mut rng = SimRng::seed_from_u64(4);
        let config = Scenario::DuplicateRanks(3).generate(&p, &mut rng);
        assert!(has_duplicate_committed_ranks(&config));
        assert!(!is_correct_output(&config));
        // Exactly 3 agents share ranks with the tail agents.
        let mut counts = std::collections::BTreeMap::new();
        for s in config.iter() {
            *counts.entry(s.verified_rank().unwrap()).or_insert(0usize) += 1;
        }
        let duplicated: usize = counts.values().filter(|&&c| c > 1).count();
        assert_eq!(duplicated, 3);
    }

    #[test]
    fn corrupted_messages_keeps_ranking_correct_but_inconsistent() {
        let p = protocol();
        let mut rng = SimRng::seed_from_u64(5);
        let config = Scenario::CorruptedMessages(4).generate(&p, &mut rng);
        assert!(
            is_correct_output(&config),
            "corruption must not touch the ranking"
        );
        // At least one message differs from the initial content.
        let corrupted = config.iter().any(|s| match s {
            AgentState::Verifying(v) => v.sv.dc.active().is_some_and(|a| {
                (0..a.msgs.group_size()).any(|g| {
                    a.msgs
                        .messages_for(g)
                        .any(|m| m.content() != crate::verify::INITIAL_CONTENT)
                })
            }),
            _ => false,
        });
        assert!(corrupted);
    }

    #[test]
    fn corrupt_message_system_preserves_own_message_consistency() {
        let p = protocol();
        let mut rng = SimRng::seed_from_u64(6);
        let mut state = p.verifier_state(5);
        corrupt_message_system(&p, &mut state, &mut rng);
        let AgentState::Verifying(v) = &state else {
            panic!()
        };
        let own_governor = p.partition().position_in_group(5);
        let active = v.sv.dc.active().unwrap();
        for msg in active.msgs.messages_for(own_governor) {
            assert_eq!(msg.content(), active.observations.get(msg.id()));
        }
    }

    #[test]
    fn uniform_random_and_mid_ranking_are_reproducible_per_seed() {
        let p = protocol();
        for scenario in [
            Scenario::UniformRandom,
            Scenario::MidRanking,
            Scenario::MixedGenerations,
        ] {
            let a = scenario.generate(&p, &mut SimRng::seed_from_u64(7));
            let b = scenario.generate(&p, &mut SimRng::seed_from_u64(7));
            let c = scenario.generate(&p, &mut SimRng::seed_from_u64(8));
            assert_eq!(a, b, "{}", scenario.name());
            assert_ne!(a, c, "{}", scenario.name());
        }
    }
}
