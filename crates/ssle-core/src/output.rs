//! Output extraction and correctness predicates.
//!
//! `ElectLeader_r` solves leader election *via ranking*: the protocol's
//! output is correct when every agent is a verifier and the committed ranks
//! form a permutation of `[n]`; the unique agent with rank 1 is the leader.
//! These predicates are used by the experiment harness as stabilization
//! criteria and by the integration tests as correctness oracles.
//!
//! [`ElectLeader`] declares the committed rank as its census key, so a
//! configuration built from it counts the agents per committed rank at each
//! interaction. [`is_correct_output`] and [`leader_count`] read that census
//! in O(1) while it is fresh, and otherwise fall back to
//! [`is_correct_output_scan`] and [`leader_count_scan`], which also serve
//! as the census's test oracle.

use crate::elect_leader::ElectLeader;
use crate::state::AgentState;
use ppsim::{Census, Configuration, CountConfiguration, DiscoveredProtocol};

/// The census key of [`ElectLeader`]: an agent's committed rank, `0` for a
/// non-verifier.
pub(crate) fn committed_rank_key(state: &AgentState) -> u32 {
    state.verified_rank().unwrap_or(0)
}

/// The committed-rank census of `config`, if it keeps one and it is fresh.
///
/// [`ElectLeader`] is the one protocol over [`AgentState`] that declares a
/// census key, so a census on a `Configuration<AgentState>` counts
/// committed ranks.
pub fn rank_census(config: &Configuration<AgentState>) -> Option<Census<'_>> {
    config.census()
}

/// Number of agents currently marked as leader (verifiers with rank 1).
pub fn leader_count(config: &Configuration<AgentState>) -> usize {
    match rank_census(config) {
        Some(census) => census.count(1),
        None => leader_count_scan(config),
    }
}

/// [`leader_count`] by a scan of all agents.
pub fn leader_count_scan(config: &Configuration<AgentState>) -> usize {
    config.count_where(|s| s.verified_rank() == Some(1))
}

/// Whether exactly one agent is currently marked as leader.
pub fn has_unique_leader(config: &Configuration<AgentState>) -> bool {
    leader_count(config) == 1
}

/// The committed ranks of all agents (`None` for non-verifiers).
pub fn committed_ranks(config: &Configuration<AgentState>) -> Vec<Option<u32>> {
    config.iter().map(|s| s.verified_rank()).collect()
}

/// Whether the configuration is *correct* in the sense of Theorem 1.1: every
/// agent is a verifier and the committed ranks are a permutation of `[n]`.
///
/// This is strictly stronger than [`has_unique_leader`]; it is the predicate
/// whose stabilization time the experiments report (matching the paper, which
/// proves correctness of ranking and obtains leader election as rank 1).
///
/// With a fresh census this is one comparison: `n` agents hold `n` distinct
/// ranks of `[n]` exactly when `n` ranks are each held once.
pub fn is_correct_output(config: &Configuration<AgentState>) -> bool {
    match rank_census(config) {
        Some(census) => census.keys_held_once() == config.len(),
        None => is_correct_output_scan(config),
    }
}

/// [`is_correct_output`] by a scan of all agents.
pub fn is_correct_output_scan(config: &Configuration<AgentState>) -> bool {
    let n = config.len();
    let mut seen = vec![false; n + 1];
    for state in config.iter() {
        match state.verified_rank() {
            Some(rank) if (rank as usize) <= n && rank >= 1 && !seen[rank as usize] => {
                seen[rank as usize] = true;
            }
            _ => return false,
        }
    }
    true
}

/// Count-space analogue of [`is_correct_output`], for batched runs under the
/// dynamic state indexer: every occupied state is a verifier holding exactly
/// one agent, and the committed ranks of the occupied states form a
/// permutation of `[n]`.
///
/// (A count above one would mean two agents share their full state —
/// including the committed rank — so it can never be part of a correct
/// ranking.) States are inspected through [`DiscoveredProtocol::peek`], so
/// the predicate costs `O(#occupied states)` per evaluation with no decoding
/// clones, plus one summary word read per 4096 interned states to find them
/// (see [`CountConfiguration::occupied`]).
pub fn is_correct_output_counts(
    protocol: &DiscoveredProtocol<ElectLeader>,
    counts: &CountConfiguration,
) -> bool {
    let n = counts.population() as usize;
    let mut seen = vec![false; n + 1];
    for (index, count) in counts.occupied() {
        let rank = protocol.peek(index, |state| state.verified_rank());
        match rank {
            Some(rank)
                if count == 1 && rank >= 1 && (rank as usize) <= n && !seen[rank as usize] =>
            {
                seen[rank as usize] = true;
            }
            _ => return false,
        }
    }
    true
}

/// Whether the committed ranks that *do* exist contain a duplicate (used by
/// collision-detection experiments).
pub fn has_duplicate_committed_ranks(config: &Configuration<AgentState>) -> bool {
    let mut seen = vec![false; config.len() + 2];
    for state in config.iter() {
        if let Some(rank) = state.verified_rank() {
            let idx = (rank as usize).min(config.len() + 1);
            if seen[idx] {
                return true;
            }
            seen[idx] = true;
        }
    }
    false
}

/// Counts agents per role: `(resetters, rankers, verifiers)`.
pub fn role_counts(config: &Configuration<AgentState>) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for state in config.iter() {
        match state {
            AgentState::Resetting(_) => counts.0 += 1,
            AgentState::Ranking(_) => counts.1 += 1,
            AgentState::Verifying(_) => counts.2 += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elect_leader::ElectLeader;

    fn verifier_config(protocol: &ElectLeader, ranks: &[u32]) -> Configuration<AgentState> {
        Configuration::from_states(ranks.iter().map(|&r| protocol.verifier_state(r)).collect())
    }

    #[test]
    fn correct_output_requires_all_verifiers_and_permutation() {
        let p = ElectLeader::with_n_r(4, 2).unwrap();
        let good = verifier_config(&p, &[2, 4, 1, 3]);
        assert!(is_correct_output(&good));
        assert!(has_unique_leader(&good));
        assert_eq!(leader_count(&good), 1);
        assert_eq!(role_counts(&good), (0, 0, 4));

        let duplicate = verifier_config(&p, &[2, 2, 1, 3]);
        assert!(!is_correct_output(&duplicate));
        assert!(has_duplicate_committed_ranks(&duplicate));

        let mut with_ranker = good.clone();
        with_ranker[0] = AgentState::fresh_ranker(p.params());
        assert!(!is_correct_output(&with_ranker));
        assert_eq!(role_counts(&with_ranker), (0, 1, 3));
    }

    #[test]
    fn leader_count_counts_rank_one_verifiers_only() {
        let p = ElectLeader::with_n_r(4, 2).unwrap();
        let none = verifier_config(&p, &[2, 3, 4, 2]);
        assert_eq!(leader_count(&none), 0);
        assert!(!has_unique_leader(&none));
        let two = verifier_config(&p, &[1, 1, 3, 4]);
        assert_eq!(leader_count(&two), 2);
        assert!(!has_unique_leader(&two));
    }

    #[test]
    fn committed_ranks_reports_non_verifiers_as_none() {
        let p = ElectLeader::with_n_r(4, 2).unwrap();
        let mut config = verifier_config(&p, &[1, 2, 3, 4]);
        config[2] = AgentState::fresh_ranker(p.params());
        let ranks = committed_ranks(&config);
        assert_eq!(ranks, vec![Some(1), Some(2), None, Some(4)]);
        assert!(!has_duplicate_committed_ranks(&config));
    }
}
