//! `AssignRanks_r` (Appendix D): the parametrized, non-self-stabilizing
//! ranking protocol.
//!
//! Starting from a fully dormant (freshly reset) configuration the protocol
//! proceeds through the following stages, each of which is a sub-protocol of
//! this module:
//!
//! 1. **Sheriff election** ([`leader_election`]) — a fast, non-self-stabilizing
//!    leader election nominates a unique *sheriff* holding the full pool of
//!    `r` badges.
//! 2. **Deputization** (`deputize`) — the sheriff recursively splits its
//!    badge range with recipients it meets until `r` *deputies* exist, each
//!    with a unique badge (its `id`).
//! 3. **Labeling** (`labeling`) — each deputy hands out temporary labels
//!    `(id, counter)` from its private pool of `⌈c·n/r⌉` labels, and the
//!    per-deputy counters are broadcast in every agent's `channel` field.
//! 4. **Sleep & ranking** (`sleep_step`) — once an agent hears that all `n`
//!    labels have been assigned (its channel sums to `n`), it goes to sleep;
//!    after `Θ(log n)` of its own interactions it wakes up and converts its
//!    label into a unique rank via the lexicographic order of assigned
//!    labels.
//!
//! The sub-protocol is *silent*: once an agent is ranked its `AssignRanks_r`
//! state never changes again.

pub mod leader_election;

use crate::params::Params;
use ppsim::InteractionCtx;
use serde::{Deserialize, Serialize};

pub use leader_election::{leader_election_step, LeaderElectionState};

/// A temporary label `(deputy id, index)` handed out by a deputy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Label {
    /// The deputy's badge number in `[1, r]`.
    pub deputy: u32,
    /// The 1-based index of this label within the deputy's pool.
    pub index: u32,
}

/// The type (phase) of an agent inside `AssignRanks_r`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RankPhase {
    /// Still taking part in the sheriff election.
    LeaderElection(LeaderElectionState),
    /// Holds the (inclusive) badge range `low..=high` still to be
    /// distributed.
    Sheriff {
        /// Smallest badge held.
        low_badge: u32,
        /// Largest badge held.
        high_badge: u32,
    },
    /// A deputy with a unique badge (`id`) and the count of labels it has
    /// handed out (including its own).
    Deputy {
        /// The deputy's badge number.
        id: u32,
        /// Labels handed out so far (including the deputy's own label).
        counter: u32,
    },
    /// Waiting to receive a label from a deputy.
    Recipient {
        /// The label received, if any.
        label: Option<Label>,
    },
    /// Knows all `n` labels have been handed out and is waiting out the sleep
    /// timer before committing to a rank.
    Sleeper {
        /// Interactions slept so far.
        timer: u32,
        /// The label the agent will convert into a rank.
        label: Option<Label>,
    },
    /// Committed to a rank; the `AssignRanks_r` state is silent from here on.
    Ranked,
}

/// The full `AssignRanks_r` per-agent state (`qAR`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RankState {
    /// The agent's current phase.
    pub phase: RankPhase,
    /// Broadcast channel: `channel[i]` is the largest label index the agent
    /// has heard deputy `i + 1` hand out. Cleared once the agent is ranked.
    pub channel: Vec<u32>,
    /// The rank the agent currently believes itself to have (initialized to 1
    /// and overwritten when the agent becomes ranked).
    pub rank: u32,
}

impl RankState {
    /// The initial state `q_{0,AR}`: in leader election, empty channel view,
    /// believed rank 1.
    pub fn initial(params: &Params) -> Self {
        RankState {
            phase: RankPhase::LeaderElection(LeaderElectionState::fresh(params)),
            channel: vec![0; params.r],
            rank: 1,
        }
    }

    /// Whether the agent has committed to its rank (the silent terminal
    /// phase).
    pub fn is_ranked(&self) -> bool {
        matches!(self.phase, RankPhase::Ranked)
    }

    /// The label the agent would use to compute its rank: recipients and
    /// sleepers use the label they were handed, deputies implicitly hold
    /// label `(id, 1)`.
    pub fn effective_label(&self) -> Option<Label> {
        match &self.phase {
            RankPhase::Deputy { id, .. } => Some(Label {
                deputy: *id,
                index: 1,
            }),
            RankPhase::Recipient { label } | RankPhase::Sleeper { label, .. } => *label,
            _ => None,
        }
    }

    fn is_leader_election(&self) -> bool {
        matches!(self.phase, RankPhase::LeaderElection(_))
    }

    fn is_sleeper(&self) -> bool {
        matches!(self.phase, RankPhase::Sleeper { .. })
    }

    fn has_channel(&self) -> bool {
        !self.is_leader_election() && !self.is_ranked()
    }
}

/// Protocol 7: one `AssignRanks_r` interaction.
pub fn assign_ranks(
    params: &Params,
    u: &mut RankState,
    v: &mut RankState,
    ctx: &mut InteractionCtx<'_>,
) {
    if u.is_leader_election() || v.is_leader_election() {
        elect_sheriff(params, u, v, ctx);
        return;
    }

    if u.is_sleeper() || v.is_sleeper() {
        sleep_step(params, u, v);
    } else if matches!(u.phase, RankPhase::Sheriff { .. })
        && matches!(v.phase, RankPhase::Recipient { .. })
    {
        deputize(u, v);
    } else if matches!(v.phase, RankPhase::Sheriff { .. })
        && matches!(u.phase, RankPhase::Recipient { .. })
    {
        deputize(v, u);
    } else if is_deputy_and_unlabeled(u, v) {
        labeling(params, u, v);
    } else if is_deputy_and_unlabeled(v, u) {
        labeling(params, v, u);
    }

    merge_channels(params, u, v);
}

/// Whether one [`assign_ranks`] interaction on this ordered pair will
/// consume scheduler randomness.
///
/// The only randomized step of `AssignRanks_r` is the identifier draw of
/// `FastLeaderElect` on an agent's first activation; every other
/// sub-transition (deputization, labeling, channel merges, sleep, ranking)
/// is deterministic, so their outcome support can be enumerated by probing
/// the transition.
pub fn assign_ranks_draws_randomness(u: &RankState, v: &RankState) -> bool {
    match (&u.phase, &v.phase) {
        (RankPhase::LeaderElection(a), RankPhase::LeaderElection(b)) => {
            a.identifier.is_none() || b.identifier.is_none()
        }
        _ => false,
    }
}

fn is_deputy_and_unlabeled(deputy: &RankState, other: &RankState) -> bool {
    matches!(deputy.phase, RankPhase::Deputy { .. })
        && matches!(other.phase, RankPhase::Recipient { label: None })
}

/// Protocol 8: dispatch for interactions involving agents still in leader
/// election.
fn elect_sheriff(
    params: &Params,
    u: &mut RankState,
    v: &mut RankState,
    ctx: &mut InteractionCtx<'_>,
) {
    let u_in_le = u.is_leader_election();
    let v_in_le = v.is_leader_election();
    if u_in_le && v_in_le {
        if let (RankPhase::LeaderElection(a), RankPhase::LeaderElection(b)) =
            (&mut u.phase, &mut v.phase)
        {
            leader_election_step(params, a, b, ctx);
        }
        finish_leader_election(params, u);
        finish_leader_election(params, v);
    } else if u_in_le {
        // The agent still in leader election has lost: someone already left.
        u.phase = RankPhase::Recipient { label: None };
    } else if v_in_le {
        v.phase = RankPhase::Recipient { label: None };
    }
}

/// Converts the leader-election *winner* into a sheriff holding the full
/// badge pool. Losers remain in a terminal leader-election state (matching
/// Definition D.2, where a *ruled* population has one sheriff and everyone
/// else still in a terminal state of the leader-election protocol); they
/// become recipients only when they meet an agent that already left leader
/// election.
fn finish_leader_election(params: &Params, agent: &mut RankState) {
    let is_winner = match &agent.phase {
        RankPhase::LeaderElection(le) => le.leader_done && le.leader_bit,
        _ => false,
    };
    if !is_winner {
        return;
    }
    agent.channel = vec![0; params.r];
    agent.phase = RankPhase::Sheriff {
        low_badge: 1,
        high_badge: params.r as u32,
    };
    collapse_sheriff(agent);
}

/// Protocol 9: the sheriff hands half of its badge range to the recipient.
fn deputize(sheriff: &mut RankState, recipient: &mut RankState) {
    let (low, high) = match sheriff.phase {
        RankPhase::Sheriff {
            low_badge,
            high_badge,
        } => (low_badge, high_badge),
        _ => return,
    };
    if low >= high {
        // A degenerate (corrupted) single-badge sheriff: just collapse it.
        collapse_sheriff(sheriff);
        return;
    }
    let mid = (low + high) / 2;
    recipient.phase = RankPhase::Sheriff {
        low_badge: mid + 1,
        high_badge: high,
    };
    sheriff.phase = RankPhase::Sheriff {
        low_badge: low,
        high_badge: mid,
    };
    collapse_sheriff(sheriff);
    collapse_sheriff(recipient);
}

/// Protocol 9, lines 6–11: a sheriff whose badge range has collapsed to a
/// single badge becomes a deputy.
fn collapse_sheriff(agent: &mut RankState) {
    if let RankPhase::Sheriff {
        low_badge,
        high_badge,
    } = agent.phase
    {
        if low_badge == high_badge {
            agent.phase = RankPhase::Deputy {
                id: low_badge,
                counter: 1,
            };
            let idx = (low_badge - 1) as usize;
            if idx < agent.channel.len() {
                agent.channel[idx] = 1;
            }
        }
    }
}

/// Protocol 10: a deputy hands a label to an unlabeled recipient, provided
/// label distribution has been unlocked (its channel sums to at least `r`,
/// i.e. all deputies exist).
fn labeling(params: &Params, deputy: &mut RankState, recipient: &mut RankState) {
    let channel_sum: u64 = deputy.channel.iter().map(|&c| u64::from(c)).sum();
    if channel_sum < params.r as u64 {
        return;
    }
    if let RankPhase::Deputy { id, counter } = &mut deputy.phase {
        if *counter < params.labels_per_deputy() {
            *counter += 1;
            let new_counter = *counter;
            let deputy_id = *id;
            deputy.channel[(deputy_id - 1) as usize] = new_counter;
            recipient.phase = RankPhase::Recipient {
                label: Some(Label {
                    deputy: deputy_id,
                    index: new_counter,
                }),
            };
        }
    }
}

/// Protocol 11: interactions involving sleepers — spread sleep, wake up, and
/// commit to ranks.
fn sleep_step(params: &Params, u: &mut RankState, v: &mut RankState) {
    // Sleepers count their own interactions.
    for agent in [&mut *u, &mut *v] {
        if let RankPhase::Sleeper { timer, .. } = &mut agent.phase {
            *timer = (*timer + 1).min(params.sleep_max());
        }
    }

    // A ranked agent wakes a sleeping partner immediately.
    let u_ranked = u.is_ranked();
    let v_ranked = v.is_ranked();
    if u_ranked && v.is_sleeper() {
        become_ranked(v);
        return;
    }
    if v_ranked && u.is_sleeper() {
        become_ranked(u);
        return;
    }

    // A sleeper whose timer has expired wakes up, taking its partner along.
    let expired = [&*u, &*v].iter().any(
        |a| matches!(a.phase, RankPhase::Sleeper { timer, .. } if timer >= params.sleep_max()),
    );
    if expired {
        become_ranked(u);
        become_ranked(v);
        return;
    }

    // Otherwise sleep spreads: the awake partner goes to sleep as well.
    for agent in [&mut *u, &mut *v] {
        if !agent.is_sleeper() && !agent.is_ranked() {
            let label = agent.effective_label();
            agent.phase = RankPhase::Sleeper { timer: 1, label };
        }
    }
}

/// Converts an agent into the ranked phase, computing its rank from its label
/// and channel view. Agents without a label (possible only from corrupted
/// configurations) are left untouched; the self-stabilizing wrapper recovers
/// from that via collision detection.
fn become_ranked(agent: &mut RankState) {
    if agent.is_ranked() {
        return;
    }
    let Some(label) = agent.effective_label() else {
        return;
    };
    let prefix: u32 = agent.channel.iter().take((label.deputy - 1) as usize).sum();
    agent.rank = prefix + label.index;
    agent.phase = RankPhase::Ranked;
    agent.channel = Vec::new();
}

/// Protocol 7, lines 8–11: merge channel views and put agents with a complete
/// view (sum `= n`) to sleep.
fn merge_channels(params: &Params, u: &mut RankState, v: &mut RankState) {
    if u.has_channel() && v.has_channel() {
        for i in 0..params.r {
            let max = u.channel[i].max(v.channel[i]);
            u.channel[i] = max;
            v.channel[i] = max;
        }
    }
    for agent in [&mut *u, &mut *v] {
        if agent.has_channel() && !agent.is_sleeper() {
            let sum: u64 = agent.channel.iter().map(|&c| u64::from(c)).sum();
            if sum == params.n as u64 {
                let label = agent.effective_label();
                agent.phase = RankPhase::Sleeper { timer: 1, label };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{InteractionCtx, SimRng};
    use rand::RngCore;

    fn params(n: usize, r: usize) -> Params {
        Params::new(n, r).unwrap()
    }

    fn run_assign_ranks(params: &Params, seed: u64, budget: u64) -> Vec<RankState> {
        let n = params.n;
        let mut states: Vec<RankState> = (0..n).map(|_| RankState::initial(params)).collect();
        let mut rng = SimRng::seed_from_u64(seed);
        for step in 0..budget {
            if states.iter().all(|s| s.is_ranked()) {
                break;
            }
            let i = (rng.next_u64() % n as u64) as usize;
            let mut j = (rng.next_u64() % (n as u64 - 1)) as usize;
            if j >= i {
                j += 1;
            }
            let (a, b) = if i < j {
                let (l, r) = states.split_at_mut(j);
                (&mut l[i], &mut r[0])
            } else {
                let (l, r) = states.split_at_mut(i);
                (&mut r[0], &mut l[j])
            };
            let mut ctx = InteractionCtx::new(&mut rng, step);
            assign_ranks(params, a, b, &mut ctx);
        }
        states
    }

    #[test]
    fn initial_state_is_in_leader_election() {
        let p = params(16, 4);
        let s = RankState::initial(&p);
        assert!(s.is_leader_election());
        assert_eq!(s.rank, 1);
        assert_eq!(s.channel.len(), 4);
        assert!(!s.is_ranked());
        assert_eq!(s.effective_label(), None);
    }

    #[test]
    fn deputize_splits_badge_ranges_until_all_deputies_exist() {
        let mut sheriff = RankState {
            phase: RankPhase::Sheriff {
                low_badge: 1,
                high_badge: 4,
            },
            channel: vec![0; 4],
            rank: 1,
        };
        let mut rec1 = RankState {
            phase: RankPhase::Recipient { label: None },
            channel: vec![0; 4],
            rank: 1,
        };
        deputize(&mut sheriff, &mut rec1);
        // sheriff keeps 1..=2, rec1 gets 3..=4; neither collapses yet.
        assert!(matches!(
            sheriff.phase,
            RankPhase::Sheriff {
                low_badge: 1,
                high_badge: 2
            }
        ));
        assert!(matches!(
            rec1.phase,
            RankPhase::Sheriff {
                low_badge: 3,
                high_badge: 4
            }
        ));
        let mut rec2 = RankState {
            phase: RankPhase::Recipient { label: None },
            channel: vec![0; 4],
            rank: 1,
        };
        deputize(&mut sheriff, &mut rec2);
        assert!(matches!(
            sheriff.phase,
            RankPhase::Deputy { id: 1, counter: 1 }
        ));
        assert!(matches!(
            rec2.phase,
            RankPhase::Deputy { id: 2, counter: 1 }
        ));
        assert_eq!(sheriff.channel[0], 1);
        assert_eq!(rec2.channel[1], 1);
    }

    #[test]
    fn labeling_requires_all_deputies_known() {
        let p = params(16, 4);
        let mut deputy = RankState {
            phase: RankPhase::Deputy { id: 2, counter: 1 },
            channel: vec![0, 1, 0, 0],
            rank: 1,
        };
        let mut recipient = RankState {
            phase: RankPhase::Recipient { label: None },
            channel: vec![0; 4],
            rank: 1,
        };
        // Channel sums to 1 < r = 4: labeling locked.
        labeling(&p, &mut deputy, &mut recipient);
        assert!(matches!(
            recipient.phase,
            RankPhase::Recipient { label: None }
        ));
        // Unlock by filling the channel.
        deputy.channel = vec![1, 1, 1, 1];
        labeling(&p, &mut deputy, &mut recipient);
        assert_eq!(
            recipient.phase,
            RankPhase::Recipient {
                label: Some(Label {
                    deputy: 2,
                    index: 2
                })
            }
        );
        assert!(matches!(
            deputy.phase,
            RankPhase::Deputy { id: 2, counter: 2 }
        ));
        assert_eq!(deputy.channel[1], 2);
    }

    #[test]
    fn labeling_stops_when_pool_is_exhausted() {
        let p = params(16, 4);
        let pool = p.labels_per_deputy();
        let mut deputy = RankState {
            phase: RankPhase::Deputy {
                id: 1,
                counter: pool,
            },
            channel: vec![pool, 1, 1, 1],
            rank: 1,
        };
        let mut recipient = RankState {
            phase: RankPhase::Recipient { label: None },
            channel: vec![0; 4],
            rank: 1,
        };
        labeling(&p, &mut deputy, &mut recipient);
        assert!(matches!(
            recipient.phase,
            RankPhase::Recipient { label: None }
        ));
    }

    #[test]
    fn merge_channels_takes_pointwise_maximum_and_triggers_sleep() {
        let p = params(8, 2);
        // Labels per deputy: ceil(2*8/2) = 8. Channel summing to n=8 sends
        // agents to sleep.
        let mut a = RankState {
            phase: RankPhase::Recipient {
                label: Some(Label {
                    deputy: 1,
                    index: 2,
                }),
            },
            channel: vec![5, 0],
            rank: 1,
        };
        let mut b = RankState {
            phase: RankPhase::Recipient {
                label: Some(Label {
                    deputy: 2,
                    index: 3,
                }),
            },
            channel: vec![2, 3],
            rank: 1,
        };
        merge_channels(&p, &mut a, &mut b);
        assert_eq!(a.channel, vec![5, 3]);
        assert_eq!(b.channel, vec![5, 3]);
        assert!(a.is_sleeper() && b.is_sleeper());
    }

    #[test]
    fn become_ranked_uses_lexicographic_label_order() {
        let mut agent = RankState {
            phase: RankPhase::Sleeper {
                timer: 5,
                label: Some(Label {
                    deputy: 3,
                    index: 2,
                }),
            },
            channel: vec![4, 3, 5, 4],
            rank: 1,
        };
        become_ranked(&mut agent);
        assert!(agent.is_ranked());
        // Ranks 1..=4 go to deputy 1's labels, 5..=7 to deputy 2's, so label
        // (3, 2) gets rank 4 + 3 + 2 = 9.
        assert_eq!(agent.rank, 9);
        assert!(agent.channel.is_empty(), "ranked agents drop their channel");
    }

    #[test]
    fn ranked_agent_wakes_sleeping_partner() {
        let p = params(8, 2);
        let mut ranked = RankState {
            phase: RankPhase::Ranked,
            channel: Vec::new(),
            rank: 3,
        };
        let mut sleeper = RankState {
            phase: RankPhase::Sleeper {
                timer: 1,
                label: Some(Label {
                    deputy: 1,
                    index: 2,
                }),
            },
            channel: vec![4, 4],
            rank: 1,
        };
        sleep_step(&p, &mut ranked, &mut sleeper);
        assert!(sleeper.is_ranked());
        assert_eq!(sleeper.rank, 2);
        assert_eq!(ranked.rank, 3, "the already ranked agent is untouched");
    }

    #[test]
    fn sleep_spreads_to_awake_partner() {
        let p = params(8, 2);
        let mut sleeper = RankState {
            phase: RankPhase::Sleeper {
                timer: 1,
                label: Some(Label {
                    deputy: 1,
                    index: 2,
                }),
            },
            channel: vec![4, 4],
            rank: 1,
        };
        let mut awake = RankState {
            phase: RankPhase::Deputy { id: 2, counter: 4 },
            channel: vec![4, 4],
            rank: 1,
        };
        sleep_step(&p, &mut sleeper, &mut awake);
        assert!(awake.is_sleeper());
        assert_eq!(
            awake.effective_label(),
            Some(Label {
                deputy: 2,
                index: 1
            }),
            "a deputy carries its implicit label into sleep"
        );
    }

    #[test]
    fn expired_sleep_timer_wakes_both() {
        let p = params(8, 2);
        let max = p.sleep_max();
        let mut a = RankState {
            phase: RankPhase::Sleeper {
                timer: max,
                label: Some(Label {
                    deputy: 1,
                    index: 1,
                }),
            },
            channel: vec![4, 4],
            rank: 1,
        };
        let mut b = RankState {
            phase: RankPhase::Sleeper {
                timer: 1,
                label: Some(Label {
                    deputy: 2,
                    index: 3,
                }),
            },
            channel: vec![4, 4],
            rank: 1,
        };
        sleep_step(&p, &mut a, &mut b);
        assert!(a.is_ranked() && b.is_ranked());
        assert_eq!(a.rank, 1);
        assert_eq!(b.rank, 4 + 3);
    }

    #[test]
    fn full_protocol_produces_a_permutation_of_ranks() {
        for (n, r, seed) in [
            (16usize, 4usize, 1u64),
            (16, 8, 2),
            (24, 2, 3),
            (12, 6, 4),
            (16, 1, 5),
        ] {
            let p = params(n, r);
            let states = run_assign_ranks(&p, seed, 4_000_000);
            assert!(
                states.iter().all(|s| s.is_ranked()),
                "n={n} r={r}: not all agents ranked"
            );
            let mut ranks: Vec<u32> = states.iter().map(|s| s.rank).collect();
            ranks.sort_unstable();
            let expected: Vec<u32> = (1..=n as u32).collect();
            assert_eq!(ranks, expected, "n={n} r={r}: ranks are not a permutation");
        }
    }

    #[test]
    fn protocol_is_silent_once_ranked() {
        let p = params(12, 4);
        let states = run_assign_ranks(&p, 9, 4_000_000);
        let mut a = states[0].clone();
        let mut b = states[1].clone();
        let (ra, rb) = (a.clone(), b.clone());
        let mut rng = SimRng::seed_from_u64(0);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        assign_ranks(&p, &mut a, &mut b, &mut ctx);
        assert_eq!(a, ra, "ranked agents never change their AssignRanks state");
        assert_eq!(b, rb);
    }
}
