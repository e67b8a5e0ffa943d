//! Population configurations.
//!
//! A configuration `C ∈ Q^n` assigns one protocol state to each of the `n`
//! agents. [`Configuration`] is a thin, well-behaved wrapper around `Vec<S>`
//! with the predicate helpers the experiment harness and the correctness
//! checks need.
//!
//! # The key census
//!
//! A protocol may declare a [`CensusKey`]: a dense `u32` key per state. A
//! configuration built from that protocol ([`Configuration::clean`],
//! [`Configuration::from_fn`]) then keeps a census of how many agents hold
//! each key `1..=bound`, and of how many keys are held by exactly one agent.
//! [`Configuration::with_pair_mut`] — the per-step engine's one write path —
//! moves the census by the two agents' old and new keys, so a predicate over
//! key counts costs O(1) instead of a scan of all `n` agents.
//!
//! Every other mutable access ([`IndexMut`], [`Configuration::state_mut`],
//! [`Configuration::iter_mut`]) marks the census *stale*: the next
//! `with_pair_mut` rebuilds it in O(n), and until then
//! [`Configuration::census`] returns `None`, so readers fall back to a scan.

use crate::protocol::{AgentId, CleanInit, Protocol};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `u32` key per state, declared by a protocol through
/// [`Protocol::census_key`].
///
/// Keys `1..=bound` are counted. Key `0`, and any key above `bound`, means
/// "not counted". The key function reads a state in place: it must not
/// clone or hash it, because it runs four times per interaction.
pub struct CensusKey<S> {
    /// Maps a state to its key.
    pub key: fn(&S) -> u32,
    /// The largest counted key.
    pub bound: u32,
}

impl<S> Clone for CensusKey<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for CensusKey<S> {}

impl<S> fmt::Debug for CensusKey<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CensusKey")
            .field("bound", &self.bound)
            .finish_non_exhaustive()
    }
}

/// A fresh census: per-key agent counts of a configuration.
#[derive(Debug, Clone, Copy)]
pub struct Census<'a> {
    counts: &'a [u32],
    held_once: usize,
}

impl Census<'_> {
    /// The number of agents holding `key` (`0` for uncounted keys).
    pub fn count(&self, key: u32) -> usize {
        self.counts.get(key as usize).map_or(0, |&c| c as usize)
    }

    /// The number of keys in `1..=bound` held by exactly one agent.
    pub fn keys_held_once(&self) -> usize {
        self.held_once
    }
}

/// The census a configuration carries for its declared key.
struct KeyCensus<S> {
    spec: CensusKey<S>,
    /// `counts[k]` agents hold key `k`; `counts[0]` stays 0. Empty until
    /// the first rebuild.
    counts: Vec<u32>,
    held_once: usize,
    fresh: bool,
}

impl<S> KeyCensus<S> {
    fn stale(spec: CensusKey<S>) -> Self {
        KeyCensus {
            spec,
            counts: Vec::new(),
            held_once: 0,
            fresh: false,
        }
    }

    fn key_of(&self, state: &S) -> u32 {
        match (self.spec.key)(state) {
            k if k > self.spec.bound => 0,
            k => k,
        }
    }

    fn rebuild(&mut self, states: &[S]) {
        self.counts.clear();
        self.counts.resize(self.spec.bound as usize + 1, 0);
        self.held_once = 0;
        for state in states {
            let key = self.key_of(state);
            self.add(key);
        }
        self.fresh = true;
    }

    fn add(&mut self, key: u32) {
        if key == 0 {
            return;
        }
        let count = &mut self.counts[key as usize];
        match *count {
            0 => self.held_once += 1,
            1 => self.held_once -= 1,
            _ => {}
        }
        *count += 1;
    }

    fn remove(&mut self, key: u32) {
        if key == 0 {
            return;
        }
        let count = &mut self.counts[key as usize];
        match *count {
            1 => self.held_once -= 1,
            2 => self.held_once += 1,
            _ => {}
        }
        *count -= 1;
    }

    fn shift(&mut self, old: u32, new: u32) {
        if old != new {
            self.remove(old);
            self.add(new);
        }
    }
}

/// A configuration of a population: the vector of all agents' states.
///
/// Equality and [`Clone`] look at the states only: a clone carries the
/// census key but starts stale, and two configurations with equal states
/// are equal whatever their censuses.
pub struct Configuration<S> {
    states: Vec<S>,
    census: Option<KeyCensus<S>>,
}

impl<S: Clone> Clone for Configuration<S> {
    fn clone(&self) -> Self {
        Configuration {
            states: self.states.clone(),
            census: self.census.as_ref().map(|c| KeyCensus::stale(c.spec)),
        }
    }
}

impl<S: PartialEq> PartialEq for Configuration<S> {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
    }
}

impl<S: Eq> Eq for Configuration<S> {}

impl<S> Configuration<S> {
    /// Creates a configuration from an explicit state vector.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty: the population model requires `n ≥ 1`
    /// (and every interesting protocol here requires `n ≥ 2`).
    pub fn from_states(states: Vec<S>) -> Self {
        assert!(
            !states.is_empty(),
            "a population must have at least one agent"
        );
        Configuration {
            states,
            census: None,
        }
    }

    /// The population size `n`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty. Always `false` for configurations
    /// built through the public constructors; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Immutable access to an agent's state.
    pub fn state(&self, agent: AgentId) -> &S {
        &self.states[agent.index()]
    }

    /// Mutable access to an agent's state. Marks the census stale.
    pub fn state_mut(&mut self, agent: AgentId) -> &mut S {
        self.mark_stale();
        &mut self.states[agent.index()]
    }

    /// Iterates over all agents' states.
    pub fn iter(&self) -> std::slice::Iter<'_, S> {
        self.states.iter()
    }

    /// Iterates mutably over all agents' states. Marks the census stale.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, S> {
        self.mark_stale();
        self.states.iter_mut()
    }

    /// Returns the states as a slice.
    pub fn as_slice(&self) -> &[S] {
        &self.states
    }

    /// Consumes the configuration and returns the underlying state vector.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }

    /// Counts the agents whose state satisfies the predicate.
    pub fn count_where<F: FnMut(&S) -> bool>(&self, mut pred: F) -> usize {
        self.states.iter().filter(|s| pred(s)).count()
    }

    /// Whether every agent's state satisfies the predicate.
    pub fn all<F: FnMut(&S) -> bool>(&self, pred: F) -> bool {
        self.states.iter().all(pred)
    }

    /// Whether some agent's state satisfies the predicate.
    pub fn any<F: FnMut(&S) -> bool>(&self, pred: F) -> bool {
        self.states.iter().any(pred)
    }

    /// The census of the key declared by the protocol this configuration
    /// was built from, if it declared one and the census is fresh. `None`
    /// means "scan the states instead".
    pub fn census(&self) -> Option<Census<'_>> {
        self.census.as_ref().filter(|c| c.fresh).map(|c| Census {
            counts: &c.counts,
            held_once: c.held_once,
        })
    }

    fn mark_stale(&mut self) {
        if let Some(census) = &mut self.census {
            census.fresh = false;
        }
    }

    /// Applies the ordered-pair transition `(u, v)` by handing mutable access
    /// to both slots to the closure, and commits the pair's key changes to
    /// the census. A stale census is rebuilt from all states instead.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (an agent never interacts with itself) or if either
    /// index is out of bounds.
    pub fn with_pair_mut<F: FnOnce(&mut S, &mut S)>(&mut self, u: AgentId, v: AgentId, f: F) {
        let (ui, vi) = (u.index(), v.index());
        assert_ne!(ui, vi, "an agent cannot interact with itself");
        let states = &mut self.states;
        let (a, b) = if ui < vi {
            let (left, right) = states.split_at_mut(vi);
            (&mut left[ui], &mut right[0])
        } else {
            let (left, right) = states.split_at_mut(ui);
            (&mut right[0], &mut left[vi])
        };
        match &mut self.census {
            None => f(a, b),
            Some(census) if census.fresh => {
                let (old_a, old_b) = (census.key_of(a), census.key_of(b));
                // Stale while `f` runs, so a panic inside it cannot leave a
                // census that disagrees with the states.
                census.fresh = false;
                f(a, b);
                let (new_a, new_b) = (census.key_of(a), census.key_of(b));
                census.shift(old_a, new_a);
                census.shift(old_b, new_b);
                census.fresh = true;
            }
            Some(census) => {
                f(a, b);
                census.rebuild(states);
            }
        }
    }
}

impl<S: Clone> Configuration<S> {
    /// Creates a configuration with every agent in the same state.
    pub fn uniform(n: usize, state: S) -> Self {
        assert!(n > 0, "a population must have at least one agent");
        Configuration::from_states(vec![state; n])
    }
}

impl<S> Configuration<S> {
    /// Creates the protocol's clean initial configuration (every agent in its
    /// [`CleanInit::clean_state`]), counting the protocol's
    /// [`Protocol::census_key`] if it declares one.
    pub fn clean<P>(protocol: &P) -> Configuration<P::State>
    where
        P: CleanInit<State = S>,
    {
        let n = protocol.population_size();
        assert!(n > 0, "a population must have at least one agent");
        Configuration {
            states: (0..n)
                .map(|i| protocol.clean_state(AgentId::new(i)))
                .collect(),
            census: protocol.census_key().map(KeyCensus::stale),
        }
    }

    /// Creates a configuration by evaluating `f` on every agent slot,
    /// counting the protocol's [`Protocol::census_key`] if it declares one.
    pub fn from_fn<P, F>(protocol: &P, mut f: F) -> Configuration<P::State>
    where
        P: Protocol<State = S>,
        F: FnMut(AgentId) -> P::State,
    {
        let n = protocol.population_size();
        assert!(n > 0, "a population must have at least one agent");
        Configuration {
            states: (0..n).map(|i| f(AgentId::new(i))).collect(),
            census: protocol.census_key().map(KeyCensus::stale),
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for Configuration<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Configuration")
            .field("n", &self.states.len())
            .field("states", &self.states)
            .finish()
    }
}

impl<S> Index<usize> for Configuration<S> {
    type Output = S;
    fn index(&self, index: usize) -> &S {
        &self.states[index]
    }
}

impl<S> IndexMut<usize> for Configuration<S> {
    /// Mutable access to an agent's state. Marks the census stale.
    fn index_mut(&mut self, index: usize) -> &mut S {
        self.mark_stale();
        &mut self.states[index]
    }
}

impl<S> FromIterator<S> for Configuration<S> {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        Configuration::from_states(iter.into_iter().collect())
    }
}

impl<'a, S> IntoIterator for &'a Configuration<S> {
    type Item = &'a S;
    type IntoIter = std::slice::Iter<'a, S>;
    fn into_iter(self) -> Self::IntoIter {
        self.states.iter()
    }
}

impl<S> IntoIterator for Configuration<S> {
    type Item = S;
    type IntoIter = std::vec::IntoIter<S>;
    fn into_iter(self) -> Self::IntoIter {
        self.states.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::InteractionCtx;

    struct Noop(usize);
    impl Protocol for Noop {
        type State = u32;
        fn population_size(&self) -> usize {
            self.0
        }
        fn interact(&self, _u: &mut u32, _v: &mut u32, _ctx: &mut InteractionCtx<'_>) {}
    }
    impl CleanInit for Noop {
        fn clean_state(&self, agent: AgentId) -> u32 {
            agent.index() as u32
        }
    }

    /// States are their own keys, counted over `1..=4`.
    struct Keyed(usize);
    impl Protocol for Keyed {
        type State = u32;
        fn population_size(&self) -> usize {
            self.0
        }
        fn interact(&self, _u: &mut u32, _v: &mut u32, _ctx: &mut InteractionCtx<'_>) {}
        fn census_key(&self) -> Option<CensusKey<u32>> {
            Some(CensusKey {
                key: |s| *s,
                bound: 4,
            })
        }
    }

    /// `(count of each key 1..=4, keys held once)` by a scan.
    fn scanned(c: &Configuration<u32>) -> (Vec<usize>, usize) {
        let counts: Vec<usize> = (1..=4).map(|k| c.count_where(|s| *s == k)).collect();
        let once = counts.iter().filter(|&&c| c == 1).count();
        (counts, once)
    }

    fn census_of(c: &Configuration<u32>) -> Option<(Vec<usize>, usize)> {
        c.census().map(|census| {
            (
                (1..=4).map(|k| census.count(k)).collect(),
                census.keys_held_once(),
            )
        })
    }

    #[test]
    fn census_follows_every_commit_and_rebuilds_after_other_writes() {
        let mut c = Configuration::from_fn(&Keyed(6), |a| a.index() as u32);
        assert_eq!(census_of(&c), None, "stale until the first commit");
        let pairs = [(0, 1), (2, 3), (4, 5), (1, 0), (3, 5), (5, 2)];
        for (step, &(u, v)) in pairs.iter().cycle().take(60).enumerate() {
            // Keys 0 and 5..=7 are uncounted; 7 > bound exercises the clamp.
            c.with_pair_mut(AgentId::new(u), AgentId::new(v), |a, b| {
                *a = (*a + *b + step as u32) % 8;
                *b = (*b * 3 + 1) % 8;
            });
            assert_eq!(census_of(&c), Some(scanned(&c)), "step {step}");
            match step % 4 {
                0 => c[u] = 1,
                1 => *c.state_mut(AgentId::new(v)) = 2,
                2 => c.iter_mut().for_each(|s| *s = (*s + 1) % 8),
                _ => continue,
            }
            assert_eq!(census_of(&c), None, "stale after a write at step {step}");
        }
    }

    #[test]
    fn configurations_without_a_key_keep_no_census() {
        let mut c = Configuration::from_fn(&Noop(3), |a| a.index() as u32);
        c.with_pair_mut(AgentId::new(0), AgentId::new(1), |a, _| *a = 1);
        assert!(c.census().is_none());
    }

    #[test]
    fn equality_and_clone_ignore_the_census() {
        let mut fresh = Configuration::from_fn(&Keyed(4), |a| a.index() as u32);
        fresh.with_pair_mut(AgentId::new(0), AgentId::new(1), |_, _| {});
        assert!(fresh.census().is_some());
        let plain = Configuration::from_states(fresh.as_slice().to_vec());
        assert_eq!(fresh, plain);
        assert_eq!(plain, fresh);
        let mut copy = fresh.clone();
        assert_eq!(copy, fresh);
        assert!(copy.census().is_none(), "a clone starts stale");
        copy.with_pair_mut(AgentId::new(2), AgentId::new(3), |_, _| {});
        assert_eq!(census_of(&copy), Some(scanned(&copy)), "and keeps the key");
    }

    #[test]
    fn clean_uses_clean_state() {
        let c = Configuration::clean(&Noop(5));
        assert_eq!(c.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn from_fn_evaluates_each_slot() {
        let c = Configuration::from_fn(&Noop(3), |a| (a.index() * 10) as u32);
        assert_eq!(c.as_slice(), &[0, 10, 20]);
    }

    #[test]
    fn uniform_fills_population() {
        let c = Configuration::uniform(4, 7u32);
        assert_eq!(c.len(), 4);
        assert!(c.all(|s| *s == 7));
    }

    #[test]
    fn count_any_all() {
        let c = Configuration::from_states(vec![1, 2, 3, 4]);
        assert_eq!(c.count_where(|s| s % 2 == 0), 2);
        assert!(c.any(|s| *s == 3));
        assert!(!c.all(|s| *s > 1));
    }

    #[test]
    fn with_pair_mut_gives_disjoint_access_both_orders() {
        let mut c = Configuration::from_states(vec![1, 2, 3]);
        c.with_pair_mut(AgentId::new(0), AgentId::new(2), |a, b| {
            std::mem::swap(a, b);
        });
        assert_eq!(c.as_slice(), &[3, 2, 1]);
        c.with_pair_mut(AgentId::new(2), AgentId::new(0), |a, b| {
            *a += 10;
            *b += 100;
        });
        assert_eq!(c.as_slice(), &[103, 2, 11]);
    }

    #[test]
    #[should_panic(expected = "cannot interact with itself")]
    fn with_pair_mut_rejects_self_interaction() {
        let mut c = Configuration::from_states(vec![1, 2, 3]);
        c.with_pair_mut(AgentId::new(1), AgentId::new(1), |_a, _b| {});
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn empty_population_rejected() {
        let _ = Configuration::<u32>::from_states(vec![]);
    }

    #[test]
    fn indexing_and_iteration() {
        let mut c: Configuration<u32> = (0..4u32).collect();
        assert_eq!(c[2], 2);
        c[2] = 9;
        assert_eq!(*c.state(AgentId::new(2)), 9);
        *c.state_mut(AgentId::new(0)) = 5;
        let collected: Vec<u32> = (&c).into_iter().copied().collect();
        assert_eq!(collected, vec![5, 1, 9, 3]);
        let owned: Vec<u32> = c.into_iter().collect();
        assert_eq!(owned, vec![5, 1, 9, 3]);
    }
}
