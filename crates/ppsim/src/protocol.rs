//! The [`Protocol`] trait and its companions.
//!
//! A population protocol is a pair `(Q, δ)` of a state space and a transition
//! function. In this crate the state space is the Rust type
//! [`Protocol::State`] and the transition function is [`Protocol::interact`],
//! which mutates the ordered pair of interacting agents in place.
//!
//! The paper's protocols are *strongly non-uniform*: `n` (and the trade-off
//! parameter `r`) are encoded in the transition function. Accordingly a
//! [`Protocol`] value carries its parameters and reports the population size
//! it is defined for via [`Protocol::population_size`].

use crate::configuration::CensusKey;
use rand::RngCore;
use std::fmt;

/// Identifier of an agent within a population.
///
/// Agents are anonymous in the model; the identifier exists only so the
/// simulator and experiment harness can address population slots (e.g. when
/// constructing adversarial initial configurations). Protocol transition
/// functions never see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(usize);

impl AgentId {
    /// Creates an agent identifier from a population index.
    pub fn new(index: usize) -> Self {
        AgentId(index)
    }

    /// Returns the population index of this agent.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

impl From<usize> for AgentId {
    fn from(index: usize) -> Self {
        AgentId(index)
    }
}

/// Per-interaction context handed to [`Protocol::interact`].
///
/// The paper assumes (Section 1.1) that agents can sample values almost
/// uniformly at random during an interaction; Appendix B shows how to
/// implement this from scheduler randomness alone (see [`crate::coin`]).
/// `InteractionCtx` exposes a random-number generator so protocols can be run
/// in the "external randomness" mode directly, and records the global
/// interaction counter for observers.
pub struct InteractionCtx<'a> {
    rng: &'a mut dyn RngCore,
    interaction: u64,
}

impl<'a> InteractionCtx<'a> {
    /// Creates a new interaction context.
    pub fn new(rng: &'a mut dyn RngCore, interaction: u64) -> Self {
        InteractionCtx { rng, interaction }
    }

    /// The zero-based index of the interaction being executed.
    pub fn interaction(&self) -> u64 {
        self.interaction
    }

    /// Returns a mutable reference to the random number generator.
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }

    /// Samples a value uniformly at random from `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn sample_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "sample_below requires a positive bound");
        // Unbiased rejection sampling over a power-of-two sized pool.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.rng.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Samples a uniformly random boolean.
    pub fn sample_bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }
}

impl fmt::Debug for InteractionCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InteractionCtx")
            .field("interaction", &self.interaction)
            .finish()
    }
}

/// A population protocol: a state space plus a transition function applied to
/// uniformly random ordered pairs of agents.
pub trait Protocol {
    /// The per-agent state space `Q`.
    type State: Clone + fmt::Debug;

    /// The population size `n` this (strongly non-uniform) protocol instance
    /// is defined for.
    fn population_size(&self) -> usize;

    /// Applies the transition function `δ` to the ordered pair
    /// `(initiator, responder)`, mutating both states in place.
    fn interact(
        &self,
        initiator: &mut Self::State,
        responder: &mut Self::State,
        ctx: &mut InteractionCtx<'_>,
    );

    /// The key whose per-key agent counts a configuration built from this
    /// protocol keeps up to date at each interaction (see
    /// [`crate::configuration`]). The default declares none.
    fn census_key(&self) -> Option<CensusKey<Self::State>> {
        None
    }
}

/// Protocols with a well-defined clean ("freshly reset") initial state.
///
/// Self-stabilizing protocols must work from *any* configuration, but
/// experiments still need a distinguished clean start (e.g. the dormant
/// configuration produced by a reset) to measure convergence from.
pub trait CleanInit: Protocol {
    /// The clean initial state for the agent occupying population slot
    /// `agent`.
    fn clean_state(&self, agent: AgentId) -> Self::State;

    /// The clean configuration as maximal runs of equal states in agent
    /// order: `(state, count)` pairs whose counts sum to the population
    /// size, with agents `0..count₀` in the first run's state, the next
    /// `count₁` in the second, and so on.
    ///
    /// Count-based construction ([`CountConfiguration::from_clean_init`])
    /// encodes each run's state once instead of once per agent, which for
    /// discovered/interned protocols removes `n` hash probes from startup.
    /// The default streams one `(state, 1)` run per agent — always correct,
    /// never collapsed, because `Protocol::State` is not required to be
    /// comparable. Protocols whose clean configuration has few distinct
    /// states (usually every protocol: all-dormant, or k sources + rest
    /// uninformed) should override this with the collapsed run list. The
    /// run order must match `clean_state`'s agent order so that state
    /// *discovery/interning order* — and therefore every downstream state
    /// index and trajectory — is unchanged.
    ///
    /// [`CountConfiguration::from_clean_init`]: crate::CountConfiguration::from_clean_init
    fn clean_runs(&self) -> Box<dyn Iterator<Item = (Self::State, u64)> + '_> {
        Box::new(
            (0..self.population_size()).map(|agent| (self.clean_state(AgentId::new(agent)), 1)),
        )
    }
}

/// Protocols that mark agents as leaders.
pub trait LeaderOutput: Protocol {
    /// Whether the given state is marked as a leader.
    fn is_leader(&self, state: &Self::State) -> bool;

    /// Counts the number of leaders in a slice of states.
    fn leader_count(&self, states: &[Self::State]) -> usize {
        states.iter().filter(|s| self.is_leader(s)).count()
    }
}

/// Protocols that assign ranks from `[n]` to agents.
pub trait RankingOutput: Protocol {
    /// The rank (1-based, in `1..=n`) currently output by the given state, if
    /// the agent has committed to one.
    fn rank(&self, state: &Self::State) -> Option<usize>;

    /// Whether the slice of states constitutes a correct ranking: every agent
    /// outputs a rank and the ranks form a permutation of `1..=n`.
    fn is_correct_ranking(&self, states: &[Self::State]) -> bool {
        let n = states.len();
        let mut seen = vec![false; n + 1];
        for s in states {
            match self.rank(s) {
                Some(rank) if rank >= 1 && rank <= n && !seen[rank] => seen[rank] = true,
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;

    struct Toggle;

    impl Protocol for Toggle {
        type State = bool;
        fn population_size(&self) -> usize {
            2
        }
        fn interact(&self, u: &mut bool, v: &mut bool, _ctx: &mut InteractionCtx<'_>) {
            *u = !*u;
            *v = !*v;
        }
    }

    impl LeaderOutput for Toggle {
        fn is_leader(&self, state: &bool) -> bool {
            *state
        }
    }

    struct RankId;

    impl Protocol for RankId {
        type State = usize;
        fn population_size(&self) -> usize {
            4
        }
        fn interact(&self, _u: &mut usize, _v: &mut usize, _ctx: &mut InteractionCtx<'_>) {}
    }

    impl RankingOutput for RankId {
        fn rank(&self, state: &usize) -> Option<usize> {
            if *state == 0 {
                None
            } else {
                Some(*state)
            }
        }
    }

    #[test]
    fn agent_id_roundtrip() {
        let a = AgentId::new(17);
        assert_eq!(a.index(), 17);
        assert_eq!(AgentId::from(17), a);
        assert_eq!(a.to_string(), "agent#17");
    }

    #[test]
    fn sample_below_is_in_range() {
        let mut rng = StepRng::new(0, 0x9E37_79B9_7F4A_7C15);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        for bound in [1u64, 2, 3, 7, 1000] {
            for _ in 0..50 {
                assert!(ctx.sample_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn sample_below_zero_panics() {
        let mut rng = StepRng::new(0, 1);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        let _ = ctx.sample_below(0);
    }

    #[test]
    fn leader_count_counts_marked_states() {
        let p = Toggle;
        assert_eq!(p.leader_count(&[true, false, true]), 2);
    }

    #[test]
    fn correct_ranking_requires_permutation() {
        let p = RankId;
        assert!(p.is_correct_ranking(&[1, 2, 3, 4]));
        assert!(p.is_correct_ranking(&[4, 2, 1, 3]));
        assert!(!p.is_correct_ranking(&[1, 2, 2, 4]));
        assert!(!p.is_correct_ranking(&[1, 2, 3, 0]));
        assert!(!p.is_correct_ranking(&[1, 2, 3, 5]));
    }

    #[test]
    fn interaction_ctx_reports_counter() {
        let mut rng = StepRng::new(0, 1);
        let ctx = InteractionCtx::new(&mut rng, 42);
        assert_eq!(ctx.interaction(), 42);
        assert!(format!("{ctx:?}").contains("42"));
    }
}
