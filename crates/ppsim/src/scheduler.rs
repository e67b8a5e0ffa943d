//! Interaction schedulers.
//!
//! The population model assumes a *uniformly random scheduler*: in every step
//! an ordered pair of distinct agents is chosen uniformly at random
//! ([`UniformScheduler`]). For reachability-style unit tests — "apply exactly
//! this sequence of interactions" — [`ScriptedScheduler`] replays a fixed
//! sequence of pairs.

use crate::protocol::AgentId;
use crate::rng::{rejection_zone, uniform_below_in_zone};
use rand::RngCore;

/// An ordered pair of interacting agents: `(initiator, responder)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrderedPair {
    /// The initiator (the paper's `u`).
    pub initiator: AgentId,
    /// The responder (the paper's `v`).
    pub responder: AgentId,
}

impl OrderedPair {
    /// Creates an ordered pair.
    ///
    /// # Panics
    ///
    /// Panics if both agents are the same.
    pub fn new(initiator: AgentId, responder: AgentId) -> Self {
        assert_ne!(initiator, responder, "an agent cannot interact with itself");
        OrderedPair {
            initiator,
            responder,
        }
    }
}

impl From<(usize, usize)> for OrderedPair {
    fn from((u, v): (usize, usize)) -> Self {
        OrderedPair::new(AgentId::new(u), AgentId::new(v))
    }
}

/// A source of interaction pairs.
pub trait Scheduler {
    /// Returns the next ordered pair to interact in a population of size `n`,
    /// or `None` if the scheduler has no further interactions to offer.
    fn next_pair(&mut self, n: usize, rng: &mut dyn RngCore) -> Option<OrderedPair>;
}

/// The uniformly random scheduler of the population model.
///
/// It draws exactly as two [`crate::rng::uniform_below`] calls would, but
/// keeps the rejection zones of `n` and `n − 1` from the last call and
/// recomputes them only when `n` changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformScheduler {
    /// The population size the zones belong to; `0` before the first draw.
    n: usize,
    zone_n: u64,
    zone_n_minus_1: u64,
}

impl UniformScheduler {
    /// Creates a uniformly random scheduler.
    pub fn new() -> Self {
        UniformScheduler::default()
    }
}

impl Scheduler for UniformScheduler {
    fn next_pair(&mut self, n: usize, rng: &mut dyn RngCore) -> Option<OrderedPair> {
        assert!(n >= 2, "the uniform scheduler requires at least two agents");
        if n != self.n {
            self.n = n;
            self.zone_n = rejection_zone(n as u64);
            self.zone_n_minus_1 = rejection_zone((n - 1) as u64);
        }
        // Sample the initiator uniformly, then the responder uniformly among
        // the remaining n-1 agents. This yields every ordered pair with
        // probability 1/(n(n-1)).
        let u = uniform_below_in_zone(rng, n as u64, self.zone_n) as usize;
        let mut v = uniform_below_in_zone(rng, (n - 1) as u64, self.zone_n_minus_1) as usize;
        if v >= u {
            v += 1;
        }
        Some(OrderedPair::new(AgentId::new(u), AgentId::new(v)))
    }
}

/// A scheduler replaying a fixed script of interactions, used by unit tests to
/// check reachability claims ("configuration C' is reachable from C").
#[derive(Debug, Clone)]
pub struct ScriptedScheduler {
    script: std::vec::IntoIter<OrderedPair>,
}

impl ScriptedScheduler {
    /// Creates a scheduler that replays `pairs` in order and then stops.
    pub fn new<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = OrderedPair>,
    {
        ScriptedScheduler {
            script: pairs.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// Convenience constructor from `(initiator, responder)` index pairs.
    pub fn from_indices<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        Self::new(pairs.into_iter().map(OrderedPair::from))
    }
}

impl Scheduler for ScriptedScheduler {
    fn next_pair(&mut self, _n: usize, _rng: &mut dyn RngCore) -> Option<OrderedPair> {
        self.script.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn uniform_scheduler_covers_all_ordered_pairs() {
        let n = 5;
        let mut rng = SimRng::seed_from_u64(1);
        let mut sched = UniformScheduler::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let p = sched.next_pair(n, &mut rng).unwrap();
            assert_ne!(p.initiator, p.responder);
            assert!(p.initiator.index() < n && p.responder.index() < n);
            seen.insert((p.initiator.index(), p.responder.index()));
        }
        assert_eq!(seen.len(), n * (n - 1), "all ordered pairs should appear");
    }

    #[test]
    fn uniform_scheduler_is_roughly_uniform() {
        let n = 4;
        let mut rng = SimRng::seed_from_u64(2);
        let mut sched = UniformScheduler::new();
        let mut counts = vec![0u32; n * n];
        let trials = 60_000;
        for _ in 0..trials {
            let p = sched.next_pair(n, &mut rng).unwrap();
            counts[p.initiator.index() * n + p.responder.index()] += 1;
        }
        let expected = trials as f64 / (n * (n - 1)) as f64;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    assert_eq!(counts[u * n + v], 0);
                } else {
                    let c = counts[u * n + v] as f64;
                    assert!(
                        (c - expected).abs() < 0.15 * expected,
                        "pair ({u},{v}) count {c} deviates from {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_scheduler_draws_as_uniform_below_does() {
        // Population sizes in call order, with changes of n between calls.
        // Sizes near 2^63 reject a quarter to a half of all draws, so the
        // rejection loop runs too.
        let huge = (1usize << 63) + 1;
        let sizes = [2, 3, 3, 1024, 1024, 5, huge, huge, 3 << 62, 1024, 3];
        for seed in 0..20 {
            let mut sched = UniformScheduler::new();
            let mut cached = SimRng::seed_from_u64(seed);
            let mut reference = SimRng::seed_from_u64(seed);
            for &n in sizes.iter().cycle().take(200) {
                let pair = sched.next_pair(n, &mut cached).unwrap();
                let u = crate::rng::uniform_below(&mut reference, n as u64) as usize;
                let mut v = crate::rng::uniform_below(&mut reference, (n - 1) as u64) as usize;
                if v >= u {
                    v += 1;
                }
                assert_eq!((pair.initiator.index(), pair.responder.index()), (u, v));
            }
            assert_eq!(cached.next_u64(), reference.next_u64(), "RNG position");
        }
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn uniform_scheduler_rejects_singleton() {
        let mut rng = SimRng::seed_from_u64(0);
        let _ = UniformScheduler::new().next_pair(1, &mut rng);
    }

    #[test]
    fn scripted_scheduler_replays_and_exhausts() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut sched = ScriptedScheduler::from_indices([(0, 1), (2, 1)]);
        assert_eq!(sched.next_pair(3, &mut rng), Some((0, 1).into()));
        assert_eq!(sched.next_pair(3, &mut rng), Some((2, 1).into()));
        assert_eq!(sched.next_pair(3, &mut rng), None);
    }

    #[test]
    #[should_panic(expected = "cannot interact with itself")]
    fn ordered_pair_rejects_self_loop() {
        let _ = OrderedPair::new(AgentId::new(3), AgentId::new(3));
    }
}
