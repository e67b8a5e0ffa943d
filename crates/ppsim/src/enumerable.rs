//! Protocols with an explicitly enumerable finite state space.
//!
//! The per-agent engine ([`crate::Simulation`]) only needs
//! [`Protocol::interact`] and therefore works for any state type. The
//! *batched* engine ([`crate::BatchSimulation`]) instead operates on a
//! count-based representation of the configuration — one counter per state —
//! and needs three extra capabilities from the protocol:
//!
//! 1. a bijection between the state space `Q` and `0..|Q|`
//!    ([`EnumerableProtocol::encode`] / [`EnumerableProtocol::decode`]),
//! 2. the transition function expressed on state indices
//!    ([`EnumerableProtocol::transition_indices`], defaulted via
//!    [`Protocol::interact`]),
//! 3. knowledge of which ordered state pairs are *silent* — guaranteed to map
//!    to themselves — so runs of no-op interactions can be skipped in O(1)
//!    ([`EnumerableProtocol::is_silent`]).

use crate::protocol::{InteractionCtx, Protocol};

/// A [`Protocol`] whose state space is finite and indexable as `0..|Q|`.
///
/// The default [`transition_indices`](EnumerableProtocol::transition_indices)
/// round-trips through [`Protocol::interact`], so a correct implementation
/// only has to provide the bijection and, for batching to pay off, override
/// [`is_silent`](EnumerableProtocol::is_silent).
///
/// # Contract
///
/// * `encode` and `decode` must be mutually inverse bijections between the
///   reachable state space and `0..num_states()`.
/// * `is_silent(u, v)` may only return `true` if the transition maps the
///   ordered index pair `(u, v)` to itself *with certainty* (randomized
///   transitions that sometimes change a state are not silent). Returning
///   `false` for a genuinely silent pair is always safe — it merely costs
///   performance.
pub trait EnumerableProtocol: Protocol {
    /// The size of the state space `|Q|`.
    fn num_states(&self) -> usize;

    /// Maps a state to its index in `0..num_states()`.
    fn encode(&self, state: &Self::State) -> usize;

    /// Maps an index in `0..num_states()` back to the state it encodes.
    fn decode(&self, index: usize) -> Self::State;

    /// Applies the transition function to an ordered pair of state indices.
    ///
    /// The default implementation decodes both states, applies
    /// [`Protocol::interact`], and re-encodes — correct for every protocol,
    /// including randomized ones (the interaction context carries the RNG).
    fn transition_indices(
        &self,
        initiator: usize,
        responder: usize,
        ctx: &mut InteractionCtx<'_>,
    ) -> (usize, usize) {
        let mut u = self.decode(initiator);
        let mut v = self.decode(responder);
        self.interact(&mut u, &mut v, ctx);
        (self.encode(&u), self.encode(&v))
    }

    /// Whether the ordered state-index pair `(initiator, responder)` is
    /// silent: the transition maps it to itself with certainty.
    ///
    /// The conservative default claims nothing is silent, which keeps the
    /// batched engine correct but degenerates it to one interaction per
    /// batch. Override this for the protocol's actual null transitions.
    fn is_silent(&self, initiator: usize, responder: usize) -> bool {
        let _ = (initiator, responder);
        false
    }

    /// The outcome distribution of the transition on the ordered index pair,
    /// as `((initiator', responder'), probability)` entries — or the empty
    /// vector when the distribution cannot (or should not) be enumerated.
    ///
    /// # Contract
    ///
    /// * A **non-empty** return value must be *exhaustive*: the entries list
    ///   every outcome the transition can produce on `(u, v)`, with strictly
    ///   positive probabilities summing to 1. The batched engine then samples
    ///   the outcome from this distribution directly, without consulting
    ///   [`Protocol::interact`].
    /// * An **empty** return value means "unknown": the engine falls back to
    ///   sampling the outcome blind via
    ///   [`transition_indices`](EnumerableProtocol::transition_indices).
    /// * A silent pair exposes itself as `support = {(u, v)}` with weight 1 —
    ///   one entry mapping the pair to itself.
    /// * The distribution must depend only on the two states (never on
    ///   [`InteractionCtx::interaction`]), matching the population-protocol
    ///   model.
    ///
    /// The default derives the support from [`Self::is_silent`]: silent pairs map
    /// to themselves with certainty, everything else is unknown. Protocols
    /// with *randomized* transitions of small support (coin flips) should
    /// override this so the engine can sample outcomes exactly instead of
    /// blind; [`crate::indexer::DiscoveredProtocol`] overrides it with the
    /// state-level enumeration of [`crate::indexer::SupportEnumerable`].
    fn transition_support(&self, initiator: usize, responder: usize) -> Vec<((usize, usize), f64)> {
        if self.is_silent(initiator, responder) {
            vec![((initiator, responder), 1.0)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AgentId;
    use crate::protocol::CleanInit;
    use crate::SimRng;

    /// Two-state toggle used to exercise the default methods.
    struct Parity(usize);

    impl Protocol for Parity {
        type State = bool;
        fn population_size(&self) -> usize {
            self.0
        }
        fn interact(&self, u: &mut bool, v: &mut bool, _ctx: &mut InteractionCtx<'_>) {
            // The responder copies the initiator.
            *v = *u;
        }
    }

    impl CleanInit for Parity {
        fn clean_state(&self, agent: AgentId) -> bool {
            agent.index() % 2 == 0
        }
    }

    impl EnumerableProtocol for Parity {
        fn num_states(&self) -> usize {
            2
        }
        fn encode(&self, state: &bool) -> usize {
            usize::from(*state)
        }
        fn decode(&self, index: usize) -> bool {
            index == 1
        }
        fn is_silent(&self, initiator: usize, responder: usize) -> bool {
            initiator == responder
        }
    }

    #[test]
    fn default_transition_round_trips_through_interact() {
        let p = Parity(4);
        let mut rng = SimRng::seed_from_u64(0);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        assert_eq!(p.transition_indices(1, 0, &mut ctx), (1, 1));
        assert_eq!(p.transition_indices(0, 1, &mut ctx), (0, 0));
        assert_eq!(p.transition_indices(0, 0, &mut ctx), (0, 0));
    }

    #[test]
    fn encode_decode_are_inverse() {
        let p = Parity(4);
        for index in 0..p.num_states() {
            assert_eq!(p.encode(&p.decode(index)), index);
        }
    }

    #[test]
    fn default_transition_support_reflects_silence() {
        let p = Parity(4);
        assert_eq!(p.transition_support(0, 0), vec![((0, 0), 1.0)]);
        assert!(
            p.transition_support(1, 0).is_empty(),
            "non-silent pairs default to an unknown (blind-sampled) support"
        );
    }

    #[test]
    fn silent_pairs_are_fixed_points() {
        let p = Parity(4);
        let mut rng = SimRng::seed_from_u64(1);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        for u in 0..2 {
            for v in 0..2 {
                if p.is_silent(u, v) {
                    assert_eq!(p.transition_indices(u, v, &mut ctx), (u, v));
                }
            }
        }
    }
}
