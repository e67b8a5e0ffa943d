//! The batched, count-based simulation engine.
//!
//! The per-agent engine ([`crate::Simulation`]) pays for every interaction,
//! including the overwhelming majority that change nothing — for a one-way
//! epidemic, `Θ(n log n)` interactions of which only `n − 1` are
//! state-changing. [`BatchSimulation`] instead works on a
//! [`CountConfiguration`] and, in every round,
//!
//! 1. computes the probability `p` that a uniformly random ordered pair is
//!    *non-silent* (changes state with positive probability),
//! 2. samples the length of the run of silent interactions before the next
//!    non-silent one as `Geo(p)` — one RNG draw, regardless of length,
//! 3. charges the whole run to the interaction counter and executes the one
//!    non-silent interaction, chosen among the non-silent state pairs with
//!    the exact conditional probability.
//!
//! The resulting interaction sequence has exactly the distribution of the
//! uniform-scheduler model — trajectories differ from [`crate::Simulation`]
//! under the same seed (the engines consume randomness differently), but all
//! distributions over configurations and hitting times agree. Cost drops
//! from `O(#interactions)` to `O(#state-changing interactions)`, which is
//! what makes `n ≥ 10⁶` stabilization-time sweeps tractable.
//!
//! # Sparse pair-weight maintenance
//!
//! The sampling weights of the non-silent ordered state pairs are kept in a
//! `PairIndex`: a Fenwick (binary indexed) tree over the pairs of states
//! that are **currently occupied**, updated incrementally in
//! `O(#pairs touched · log #pairs)` when a transition changes two counts.
//! Nothing is enumerated up front — neither the state space nor the `|Q|²`
//! pair space — so the engine serves three kinds of protocols:
//!
//! * small enumerated state spaces (the epidemics, the baselines), where the
//!   occupied set is simply all of `Q`,
//! * enumerated but large state spaces, where only the occupied corner is
//!   ever touched,
//! * *dynamically discovered* state spaces
//!   ([`crate::indexer::DiscoveredProtocol`]), where
//!   [`EnumerableProtocol::num_states`] grows as transitions reach new
//!   states; the engine re-reads it after every transition and grows its
//!   count vector and pair index accordingly.
//!
//! Transition outcomes are sampled through
//! [`EnumerableProtocol::transition_support`] when the protocol enumerates
//! its outcome distribution (deterministic transitions and small-support
//! coin flips), and fall back to a blind
//! [`EnumerableProtocol::transition_indices`] call otherwise.

use crate::configuration::Configuration;
use crate::convergence::Advance;
use crate::count_config::{validate_engine_inputs, CountConfiguration};
use crate::engine::SimulationEngine;
use crate::enumerable::EnumerableProtocol;
use crate::error::SimError;
use crate::protocol::{CleanInit, InteractionCtx};
use crate::rng::{uniform_below_u128, SimRng};
use crate::telemetry::{Counter, SpanGuard, SpanKind, Telemetry};
use rand::distributions::{Distribution, Geometric};
use rand::RngCore;
use std::collections::HashMap;

/// A Fenwick (binary indexed) tree over `u128` weights with appendable
/// positions and prefix-threshold search.
///
/// Weights are true non-negative sums: pair weights go up to `n(n−1) <
/// 2¹²⁴` at the engine bound, so `u128` holds every partial sum exactly.
/// Point updates use wrapping arithmetic so decreases need no signed type.
#[derive(Debug, Default)]
struct Fenwick {
    /// 1-based node array: `tree[i]` sums the weight range `(i - lowbit(i), i]`.
    tree: Vec<u128>,
}

impl Fenwick {
    /// Appends a new position holding `value`.
    fn push(&mut self, value: u128) {
        let i = self.tree.len() + 1;
        let lowbit = i & i.wrapping_neg();
        let mut node = value;
        let mut j = i - 1;
        while j > i - lowbit {
            node = node.wrapping_add(self.tree[j - 1]);
            j -= j & j.wrapping_neg();
        }
        self.tree.push(node);
    }

    /// Adds `new.wrapping_sub(old)` at 0-based position `index`.
    fn update(&mut self, index: usize, old: u128, new: u128) {
        let delta = new.wrapping_sub(old);
        let mut i = index + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = self.tree[i - 1].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The 0-based position `k` with `prefix_sum(k) <= threshold <
    /// prefix_sum(k + 1)` — i.e. the weight slot a uniform `threshold` in
    /// `[0, total)` selects. Requires `threshold < total`.
    fn search(&self, mut threshold: u128) -> usize {
        let mut pos = 0usize;
        let mut mask = self.tree.len().next_power_of_two();
        // `next_power_of_two` may exceed the length; the bounds check below
        // handles that, and halving reaches every admissible step size.
        while mask > 0 {
            let next = pos + mask;
            if next <= self.tree.len() && self.tree[next - 1] <= threshold {
                threshold -= self.tree[next - 1];
                pos = next;
            }
            mask >>= 1;
        }
        pos
    }
}

/// One tracked ordered state pair.
#[derive(Debug, Clone, Copy)]
struct PairSlot {
    u: usize,
    v: usize,
    weight: u128,
    alive: bool,
}

/// Sparse, incrementally maintained sampling weights over the non-silent
/// ordered pairs of **occupied** states.
///
/// The weight of the ordered state pair `(u, v)` is the number of ordered
/// agent pairs realizing it — `c_u · c_v`, or `c_u · (c_u − 1)` on the
/// diagonal — so the weights are disjoint over pairs and sum to at most
/// `n(n-1)`. Slots exist exactly for the non-silent pairs of currently
/// occupied states; when a state's count reaches zero its slots die, and the
/// structure compacts itself once dead slots pile up.
#[derive(Debug, Default)]
struct PairIndex {
    slots: Vec<PairSlot>,
    slot_of: HashMap<(usize, usize), usize>,
    /// `by_state[s]` lists slots that (may) reference `s`; entries go stale
    /// when slots die and are compacted on the next traversal.
    by_state: Vec<Vec<usize>>,
    tree: Fenwick,
    /// Occupied states, in discovery order (construction: ascending).
    occupied: Vec<usize>,
    /// `occupied_pos[s]` is the index of `s` in `occupied`, or `usize::MAX`.
    occupied_pos: Vec<usize>,
    /// Sum of live weights (checked mirror of the Fenwick total).
    total_weight: u128,
    live: usize,
    dead: usize,
    /// Number of live slots with strictly positive weight, plus a lazily
    /// refreshed witness used to skip the pair-selection RNG draw when the
    /// pick is forced.
    positive: usize,
    sole_positive: Option<usize>,
    /// Monotone count of Fenwick point updates (slot creation, death, and
    /// per-transition weight refreshes). Plain engine bookkeeping — one add
    /// per real update — that the telemetry layer snapshots by delta, so a
    /// disabled [`Telemetry`] handle records nothing anywhere.
    updates: u64,
}

impl PairIndex {
    /// Builds the index for the occupied states of `counts`, enumerating
    /// occupied ordered pairs in ascending `(u, v)` order (which makes the
    /// selection scan order match the historical dense enumeration).
    fn new<P: EnumerableProtocol>(protocol: &P, counts: &CountConfiguration) -> Self {
        let mut index = PairIndex {
            by_state: vec![Vec::new(); counts.num_states()],
            occupied_pos: vec![usize::MAX; counts.num_states()],
            ..PairIndex::default()
        };
        let occupied: Vec<usize> = counts.occupied().map(|(s, _)| s).collect();
        for &s in &occupied {
            index.occupied_pos[s] = index.occupied.len();
            index.occupied.push(s);
        }
        for &u in &occupied {
            for &v in &occupied {
                if !protocol.is_silent(u, v) {
                    index.add_slot(u, v, pair_weight(counts, u, v));
                }
            }
        }
        index
    }

    /// Grows the per-state tables to cover `num_states` states.
    fn grow(&mut self, num_states: usize) {
        if num_states > self.by_state.len() {
            self.by_state.resize_with(num_states, Vec::new);
            self.occupied_pos.resize(num_states, usize::MAX);
        }
    }

    fn total_weight(&self) -> u128 {
        self.total_weight
    }

    /// The pair a uniform `threshold < total_weight()` selects.
    fn select(&self, threshold: u128) -> (usize, usize) {
        let slot = &self.slots[self.tree.search(threshold)];
        debug_assert!(slot.alive && slot.weight > 0);
        (slot.u, slot.v)
    }

    /// The single positive-weight pair, if there is exactly one (refreshing
    /// the lazily invalidated witness as needed).
    fn sole_positive_pair(&mut self) -> Option<(usize, usize)> {
        if self.positive != 1 {
            return None;
        }
        if self
            .sole_positive
            .map(|k| !(self.slots[k].alive && self.slots[k].weight > 0))
            .unwrap_or(true)
        {
            self.sole_positive = self
                .slots
                .iter()
                .position(|slot| slot.alive && slot.weight > 0);
        }
        self.sole_positive
            .map(|k| (self.slots[k].u, self.slots[k].v))
    }

    /// Records that the counts of `affected` states changed from the given
    /// old values to their current values in `counts`, updating occupancy,
    /// slots, and weights.
    fn note_counts_changed<P: EnumerableProtocol>(
        &mut self,
        protocol: &P,
        counts: &CountConfiguration,
        affected: &[(usize, u64)],
    ) {
        for &(s, old) in affected {
            let new = counts.count(s);
            if old == new {
                continue;
            }
            if new == 0 {
                self.remove_state(s);
            } else if old == 0 {
                self.add_state(protocol, counts, s);
            } else {
                self.refresh_state_weights(counts, s);
            }
        }
        if self.dead > self.live + 1024 {
            self.compact();
        }
    }

    fn set_weight(&mut self, slot: usize, weight: u128) {
        let old = self.slots[slot].weight;
        if old == weight {
            return;
        }
        self.slots[slot].weight = weight;
        self.tree.update(slot, old, weight);
        self.updates += 1;
        // The mirror is a true sum of disjoint pair weights, bounded by
        // n(n−1) < 2¹²⁴; default (debug-checked) arithmetic on the exact
        // branch keeps any future bookkeeping bug a loud panic instead of a
        // silent wraparound.
        if weight >= old {
            self.total_weight += weight - old;
        } else {
            self.total_weight -= old - weight;
        }
        match (old > 0, weight > 0) {
            (false, true) => self.positive += 1,
            (true, false) => self.positive -= 1,
            _ => {}
        }
        self.sole_positive = None;
    }

    fn add_slot(&mut self, u: usize, v: usize, weight: u128) {
        let id = self.slots.len();
        self.slots.push(PairSlot {
            u,
            v,
            weight: 0,
            alive: true,
        });
        self.tree.push(0);
        self.slot_of.insert((u, v), id);
        self.by_state[u].push(id);
        if v != u {
            self.by_state[v].push(id);
        }
        self.live += 1;
        self.set_weight(id, weight);
    }

    fn kill_slot(&mut self, id: usize) {
        debug_assert!(self.slots[id].alive);
        self.set_weight(id, 0);
        self.slots[id].alive = false;
        let key = (self.slots[id].u, self.slots[id].v);
        self.slot_of.remove(&key);
        self.live -= 1;
        self.dead += 1;
    }

    /// Adds a slot for `(u, v)` unless it already exists or the pair is
    /// silent.
    fn try_add_slot<P: EnumerableProtocol>(
        &mut self,
        protocol: &P,
        counts: &CountConfiguration,
        u: usize,
        v: usize,
    ) {
        if !self.slot_of.contains_key(&(u, v)) && !protocol.is_silent(u, v) {
            self.add_slot(u, v, pair_weight(counts, u, v));
        }
    }

    /// A state's count rose from zero: register it and create slots for its
    /// non-silent pairs against every occupied state (itself included).
    fn add_state<P: EnumerableProtocol>(
        &mut self,
        protocol: &P,
        counts: &CountConfiguration,
        s: usize,
    ) {
        debug_assert_eq!(self.occupied_pos[s], usize::MAX);
        self.occupied_pos[s] = self.occupied.len();
        self.occupied.push(s);
        let partners: Vec<usize> = self.occupied.clone();
        for t in partners {
            if t == s {
                self.try_add_slot(protocol, counts, s, s);
            } else {
                self.try_add_slot(protocol, counts, s, t);
                self.try_add_slot(protocol, counts, t, s);
            }
        }
    }

    /// A state's count reached zero: drop it from the occupied set and kill
    /// every slot referencing it.
    fn remove_state(&mut self, s: usize) {
        let pos = self.occupied_pos[s];
        debug_assert_ne!(pos, usize::MAX);
        // lint:allow(panic): occupied_pos[s] != MAX (asserted above) implies a live entry
        let last = *self.occupied.last().expect("occupied set is non-empty");
        self.occupied.swap_remove(pos);
        if last != s {
            self.occupied_pos[last] = pos;
        }
        self.occupied_pos[s] = usize::MAX;
        let ids = std::mem::take(&mut self.by_state[s]);
        for id in ids {
            let slot = self.slots[id];
            if slot.alive && (slot.u == s || slot.v == s) {
                self.kill_slot(id);
            }
        }
    }

    /// Refreshes the weights of the live slots referencing `s`, compacting
    /// stale `by_state` entries on the way.
    fn refresh_state_weights(&mut self, counts: &CountConfiguration, s: usize) {
        let mut ids = std::mem::take(&mut self.by_state[s]);
        ids.retain(|&id| {
            let slot = self.slots[id];
            slot.alive && (slot.u == s || slot.v == s)
        });
        for &id in &ids {
            let (u, v) = (self.slots[id].u, self.slots[id].v);
            self.set_weight(id, pair_weight(counts, u, v));
        }
        self.by_state[s] = ids;
    }

    /// Rebuilds the slot tables from the live slots only (dead slots and
    /// stale `by_state` entries accumulate between compactions).
    fn compact(&mut self) {
        let live: Vec<PairSlot> = self.slots.iter().copied().filter(|s| s.alive).collect();
        self.slots.clear();
        self.slot_of.clear();
        self.tree = Fenwick::default();
        for list in &mut self.by_state {
            list.clear();
        }
        self.live = 0;
        self.dead = 0;
        self.positive = 0;
        self.sole_positive = None;
        let total_before = self.total_weight;
        self.total_weight = 0;
        for slot in live {
            self.add_slot(slot.u, slot.v, slot.weight);
        }
        debug_assert_eq!(self.total_weight, total_before);
    }

    /// Exhaustive consistency check against a brute-force recomputation —
    /// test-only, O(occupied² + slots).
    #[cfg(test)]
    fn assert_consistent<P: EnumerableProtocol>(&self, protocol: &P, counts: &CountConfiguration) {
        use std::collections::HashSet;
        let occupied: Vec<usize> = counts.occupied().map(|(s, _)| s).collect();
        let occupied_set: HashSet<usize> = occupied.iter().copied().collect();
        assert_eq!(
            occupied_set,
            self.occupied.iter().copied().collect::<HashSet<_>>(),
            "occupied set out of sync"
        );
        let mut expected_total = 0u128;
        let mut expected_pairs = HashSet::new();
        for &u in &occupied {
            for &v in &occupied {
                if !protocol.is_silent(u, v) {
                    expected_pairs.insert((u, v));
                    expected_total += pair_weight(counts, u, v);
                }
            }
        }
        let mut live_pairs = HashSet::new();
        let mut live_total = 0u128;
        for slot in self.slots.iter().filter(|s| s.alive) {
            assert_eq!(slot.weight, pair_weight(counts, slot.u, slot.v));
            assert!(live_pairs.insert((slot.u, slot.v)), "duplicate live slot");
            live_total += slot.weight;
        }
        assert_eq!(live_pairs, expected_pairs, "live slots out of sync");
        assert_eq!(live_total, expected_total);
        assert_eq!(self.total_weight, expected_total, "total weight drifted");
        assert_eq!(
            self.positive,
            self.slots
                .iter()
                .filter(|s| s.alive && s.weight > 0)
                .count(),
            "positive-slot count drifted"
        );
    }
}

/// Number of ordered agent pairs realizing the ordered state pair `(u, v)`:
/// `c_u · c_v`, or `c_u · (c_u − 1)` on the diagonal.
///
/// # Overflow bound
///
/// The product is computed in `u128`. In `u64` it would overflow as soon as
/// both counts exceed `2³²` (a single product reaches `u64::MAX` at
/// `c_u = c_v = 2³²`), and the *sum* of all pair weights — exactly
/// `n(n−1)` when every pair is non-silent — overflows `u64` already at
/// `n ≈ 4.3 × 10⁹` (`n > 2³² + 1`). Widening makes every product and the
/// `n(n−1)` total exact up to the engine bound
/// [`crate::count_config::MAX_POPULATION`] (`n = 2⁶²`, total `< 2¹²⁴`).
fn pair_weight(counts: &CountConfiguration, u: usize, v: usize) -> u128 {
    let cu = u128::from(counts.count(u));
    if u == v {
        cu * cu.saturating_sub(1)
    } else {
        cu * u128::from(counts.count(v))
    }
}

/// Samples an outcome from a non-empty
/// [`EnumerableProtocol::transition_support`] distribution (shared with the
/// multi-batch engine's collision-interaction path).
pub(crate) fn sample_support(
    rng: &mut SimRng,
    support: &[((usize, usize), f64)],
) -> (usize, usize) {
    debug_assert!(support.iter().all(|&(_, w)| w > 0.0));
    let total: f64 = support.iter().map(|&(_, w)| w).sum();
    // 53 uniform bits, scaled to [0, total).
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let threshold = unit * total;
    let mut acc = 0.0;
    for &(pair, w) in support {
        acc += w;
        if threshold < acc {
            return pair;
        }
    }
    // lint:allow(panic): callers pass the support of a non-empty population
    support.last().expect("support is non-empty").0
}

/// A population-protocol execution on state counts, batching silent
/// interactions.
///
/// Construction touches only the **occupied** corner of the pair space, so
/// the engine is as comfortable with a protocol of thousands of reachable
/// states — or a dynamically discovered, effectively unbounded state space
/// ([`crate::indexer::DiscoveredProtocol`]) — as with a two-state epidemic.
#[derive(Debug)]
pub struct BatchSimulation<P: EnumerableProtocol> {
    protocol: P,
    counts: CountConfiguration,
    rng: SimRng,
    interactions: u64,
    active_interactions: u64,
    pairs: PairIndex,
    /// Observability handle; disabled by default, in which case every probe
    /// below compiles to an early-out on a `None` and the engine's RNG
    /// stream and control flow are byte-identical to an uninstrumented run.
    telemetry: Telemetry,
    /// Fenwick update count already copied into the telemetry counters
    /// (delta snapshotting keeps the hot path free of per-update probes).
    fenwick_seen: u64,
    /// The `batched.run` span of the current run call: opened by its first
    /// advance, closed when the run loop ends.
    span: Option<SpanGuard>,
}

impl<P: EnumerableProtocol> BatchSimulation<P> {
    /// Creates a batched simulation from an explicit count configuration,
    /// returning a typed error on invalid input.
    ///
    /// # Supported populations
    ///
    /// `2 ≤ n ≤ 2⁶²` ([`crate::count_config::MAX_POPULATION`]): pair weights
    /// are kept exact in `u128`, memory is `O(#occupied states)` independent
    /// of `n`. Larger populations yield
    /// [`SimError::UnsupportedPopulation`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameters`] if the configuration's state count
    /// does not match [`EnumerableProtocol::num_states`], its population
    /// does not match [`crate::Protocol::population_size`], or the
    /// population has fewer than two agents;
    /// [`SimError::UnsupportedPopulation`] past the engine bound.
    pub fn try_new(protocol: P, counts: CountConfiguration, seed: u64) -> Result<Self, SimError> {
        validate_engine_inputs(&protocol, &counts)?;
        let pairs = PairIndex::new(&protocol, &counts);
        Ok(BatchSimulation {
            protocol,
            counts,
            rng: SimRng::seed_from_u64(seed),
            interactions: 0,
            active_interactions: 0,
            pairs,
            telemetry: Telemetry::disabled(),
            fenwick_seen: 0,
            span: None,
        })
    }

    /// Attaches a [`Telemetry`] handle. Counters and spans recorded from now
    /// on land in that handle's report; Fenwick updates performed before the
    /// attach (index construction included) are not back-filled.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.fenwick_seen = self.pairs.updates;
        self.telemetry = telemetry;
    }

    /// The attached [`Telemetry`] handle (disabled unless
    /// [`Self::set_telemetry`] was called with an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Creates a batched simulation from an explicit count configuration.
    ///
    /// # Panics
    ///
    /// Panics on any input [`Self::try_new`] rejects.
    pub fn new(protocol: P, counts: CountConfiguration, seed: u64) -> Self {
        // lint:allow(panic): documented panicking wrapper; message pinned by should_panic test
        Self::try_new(protocol, counts, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a batched simulation from a per-agent configuration.
    ///
    /// Supports the same population range as [`Self::try_new`], though the
    /// per-agent input is itself `O(n)` — start from counts (or
    /// [`Self::clean`]) for very large populations.
    pub fn from_configuration(protocol: P, config: &Configuration<P::State>, seed: u64) -> Self {
        let counts = CountConfiguration::from_configuration(&protocol, config);
        Self::new(protocol, counts, seed)
    }

    /// Creates a batched simulation from the protocol's clean initial
    /// configuration.
    ///
    /// Builds the counts directly via
    /// [`CountConfiguration::from_clean_init`] — no `O(n)` per-agent vector
    /// is ever materialized, so construction at `n = 10⁸⁺` stays within
    /// `O(#occupied states)` memory. Supports the same population range as
    /// [`Self::try_new`].
    pub fn clean(protocol: P, seed: u64) -> Self
    where
        P: CleanInit,
    {
        let counts = CountConfiguration::from_clean_init(&protocol);
        Self::new(protocol, counts, seed)
    }

    /// Number of non-silent interactions actually executed — the quantity
    /// the engine's running time is proportional to.
    ///
    /// "Non-silent" means the pair was not *declared* silent: an executed
    /// interaction of a randomized pair may still map the pair to itself.
    pub fn active_interactions(&self) -> u64 {
        self.active_interactions
    }

    /// The probability that the next uniformly random ordered pair is
    /// *non-silent* — the engine's exact, O(1) measure of current activity
    /// (the weight of the occupied non-silent pairs over all `n(n−1)`
    /// ordered pairs). [`crate::AdaptiveSimulation`] reads this to decide
    /// when the batched engine should hand off to the multi-batch engine.
    pub fn active_fraction(&self) -> f64 {
        // f64 division; the u64 product n(n−1) would overflow past n ≈ 2³².
        let n = self.counts.population() as f64;
        self.pairs.total_weight() as f64 / (n * (n - 1.0))
    }

    /// Decomposes the simulation into its protocol and current count
    /// configuration, discarding the RNG and the pair index.
    ///
    /// This is the engine-handoff primitive used by
    /// [`crate::AdaptiveSimulation`]: the counts seed another engine exactly
    /// where this one stopped. The interaction counter is *not* carried —
    /// the adaptive engine keeps absolute indices by summing retired
    /// engines' counters.
    pub fn into_parts(self) -> (P, CountConfiguration) {
        (self.protocol, self.counts)
    }

    /// Grows the count vector and pair index when the protocol discovered
    /// new states (a no-op for statically enumerated protocols).
    fn sync_state_space(&mut self) {
        let q = self.protocol.num_states();
        if q > self.counts.num_states() {
            self.counts.ensure_num_states(q);
            self.pairs.grow(q);
        }
    }

    /// Advances by one batch: a sampled run of silent interactions followed
    /// by one non-silent interaction, truncated to `budget` interactions in
    /// total. Stalls when no occupied pair is non-silent.
    fn advance_batch(&mut self, budget: u64) -> Advance {
        debug_assert!(budget > 0);
        let n = self.counts.population();
        // The exact n(n−1) overflows u64 past n ≈ 2³²; the ratio below only
        // feeds a geometric sampler, so f64 precision is all that is needed.
        let total_pairs = n as f64 * (n - 1) as f64;
        let total_weight = self.pairs.total_weight();
        if total_weight == 0 {
            // Every occupied pair is silent: the configuration is frozen
            // forever, so the rest of the budget is all no-ops.
            self.interactions += budget;
            self.telemetry.count(Counter::BatchedStalls, 1);
            self.telemetry.count(Counter::BatchedInteractions, budget);
            self.telemetry.count(Counter::BatchedSilentSkipped, budget);
            return Advance {
                executed: budget,
                stalled: true,
            };
        }
        let p_active = total_weight as f64 / total_pairs;
        let silent = if p_active >= 1.0 {
            0
        } else {
            self.telemetry.count(Counter::BatchedGeometricDraws, 1);
            Geometric::new(p_active)
                // lint:allow(panic): p_active < 1.0 on this branch and > 0 by construction
                .expect("probability is in (0, 1)")
                .sample(&mut self.rng)
        };
        if silent >= budget {
            self.interactions += budget;
            self.telemetry.count(Counter::BatchedTruncatedRuns, 1);
            self.telemetry.count(Counter::BatchedInteractions, budget);
            self.telemetry.count(Counter::BatchedSilentSkipped, budget);
            return Advance {
                executed: budget,
                stalled: false,
            };
        }
        // The non-silent interaction: pick the state pair with probability
        // proportional to its weight, then apply the transition. With a
        // single positive-weight pair (e.g. the one-way epidemic) the pick
        // is forced, saving the RNG draw.
        let (u, v) = match self.pairs.sole_positive_pair() {
            Some(pair) => {
                self.telemetry.count(Counter::BatchedForcedPicks, 1);
                pair
            }
            None => {
                // For totals within u64 this consumes the identical RNG
                // stream as the historical u64 draw (see `uniform_below_u128`).
                let threshold = uniform_below_u128(&mut self.rng, total_weight);
                self.pairs.select(threshold)
            }
        };
        let interaction = self.interactions + silent;
        // Outcome: exact sampling from the protocol's enumerated support
        // where available, blind execution otherwise. Either path may
        // discover new states under a dynamic indexer.
        let support = self.protocol.transition_support(u, v);
        let to = match support.len() {
            0 => {
                let mut ctx = InteractionCtx::new(&mut self.rng, interaction);
                self.protocol.transition_indices(u, v, &mut ctx)
            }
            1 => support[0].0,
            _ => sample_support(&mut self.rng, &support),
        };
        self.sync_state_space();
        let mut affected: [(usize, u64); 4] = [(usize::MAX, 0); 4];
        let mut distinct = 0usize;
        for s in [u, v, to.0, to.1] {
            if !affected[..distinct].iter().any(|&(t, _)| t == s) {
                affected[distinct] = (s, self.counts.count(s));
                distinct += 1;
            }
        }
        self.counts.apply_transition((u, v), to);
        self.pairs
            .note_counts_changed(&self.protocol, &self.counts, &affected[..distinct]);
        self.interactions += silent + 1;
        self.active_interactions += 1;
        if self.telemetry.is_enabled() {
            self.telemetry
                .count(Counter::BatchedInteractions, silent + 1);
            self.telemetry.count(Counter::BatchedSilentSkipped, silent);
            self.telemetry.count(Counter::BatchedActiveInteractions, 1);
            let updates = self.pairs.updates;
            self.telemetry
                .count(Counter::BatchedFenwickUpdates, updates - self.fenwick_seen);
            self.fenwick_seen = updates;
        }
        Advance {
            executed: silent + 1,
            stalled: false,
        }
    }
}

/// The batched engine behind the unified surface: predicates are observed
/// after every batch, which is exact, because silent interactions cannot
/// change the configuration.
impl<P: EnumerableProtocol> SimulationEngine<P> for BatchSimulation<P> {
    fn protocol(&self) -> &P {
        &self.protocol
    }
    fn counts(&self) -> &CountConfiguration {
        &self.counts
    }
    fn to_configuration(&self) -> Configuration<P::State> {
        self.counts.to_configuration(&self.protocol)
    }
    fn interactions(&self) -> u64 {
        self.interactions
    }
    fn advance(&mut self, cap: u64) -> Advance {
        self.span
            .get_or_insert_with(|| self.telemetry.span(SpanKind::BatchedRun));
        self.advance_batch(cap)
    }
    fn end_run(&mut self, _checks: u64) {
        self.span = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epidemic::{OneWayEpidemic, TwoWayEpidemic};
    use crate::protocol::{AgentId, Protocol};
    use crate::simulation::StabilizationOptions;

    #[test]
    fn batched_epidemic_reaches_everyone() {
        let p = OneWayEpidemic::new(256, 1);
        let mut sim = BatchSimulation::clean(p, 7);
        let out = sim.run_until(&mut |c| c.count(1) == c.population(), 10_000_000);
        assert!(out.satisfied);
        assert_eq!(sim.counts().count(1), 256);
        assert_eq!(sim.counts().count(0), 0);
        // Exactly n - 1 interactions can inform a new agent.
        assert_eq!(sim.active_interactions(), 255);
        // But the epidemic needs far more interactions in total.
        assert!(out.interactions > 255, "got {}", out.interactions);
        assert_eq!(sim.interactions(), out.interactions);
    }

    #[test]
    fn stalled_configuration_consumes_budget_silently() {
        // Everyone already informed: every pair is silent.
        let p = TwoWayEpidemic::new(64, 64);
        let mut sim = BatchSimulation::clean(p, 3);
        assert_eq!(sim.run(1_000_000), 1_000_000);
        assert_eq!(sim.active_interactions(), 0);
        assert_eq!(sim.interactions(), 1_000_000);
        assert_eq!(sim.counts().count(1), 64);
    }

    #[test]
    fn run_until_budget_exhaustion_reports_unsatisfied() {
        let p = OneWayEpidemic::new(64, 1);
        let mut sim = BatchSimulation::clean(p, 5);
        let out = sim.run_until(&mut |c| c.count(1) == c.population(), 10);
        assert!(!out.satisfied);
        assert_eq!(out.interactions, 10);
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let run = |seed: u64| {
            let p = OneWayEpidemic::new(128, 1);
            let mut sim = BatchSimulation::clean(p, seed);
            let out = sim.run_until(&mut |c| c.count(1) == c.population(), 10_000_000);
            (out.interactions, sim.counts().clone())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn measure_stabilization_finds_epidemic_completion() {
        let p = TwoWayEpidemic::new(128, 1);
        let mut sim = BatchSimulation::clean(p, 3);
        let opts = StabilizationOptions::new(128, 10_000_000).confirm_window(5_000);
        let res = sim.measure_stabilization(&mut |c| c.count(1) == c.population(), opts);
        assert!(res.stabilized());
        let t = res.stabilized_at.unwrap();
        assert!(t > 0 && t < 10_000_000);
        // The confirmation window was waited out, not the whole budget.
        assert!(res.interactions <= t + 5_000);
    }

    #[test]
    fn measure_stabilization_short_circuits_on_stall() {
        // All informed from the start: predicate holds and nothing can ever
        // change, so the measurement may stop well before the budget.
        let p = TwoWayEpidemic::new(32, 32);
        let mut sim = BatchSimulation::clean(p, 1);
        let opts = StabilizationOptions::new(32, u64::MAX / 2).confirm_window(1_000);
        let res = sim.measure_stabilization(&mut |c| c.count(1) == c.population(), opts);
        assert!(res.stabilized());
        assert_eq!(res.stabilized_at, Some(0));
        assert!(res.interactions <= 1_000);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_population_panics() {
        let p = OneWayEpidemic::new(8, 1);
        let counts = CountConfiguration::from_counts(vec![3, 1]);
        let _ = BatchSimulation::new(p, counts, 0);
    }

    #[test]
    #[should_panic(expected = "state space")]
    fn mismatched_state_space_panics() {
        let p = OneWayEpidemic::new(8, 1);
        let counts = CountConfiguration::from_counts(vec![4, 3, 1]);
        let _ = BatchSimulation::new(p, counts, 0);
    }

    /// `k`-state cyclic drift: the initiator advances one step modulo `k`.
    /// Every ordered pair is non-silent and deterministic, so the occupied
    /// set churns and exercises slot creation, death, and weight refresh.
    struct Drift {
        n: usize,
        k: usize,
    }

    impl Protocol for Drift {
        type State = usize;
        fn population_size(&self) -> usize {
            self.n
        }
        fn interact(&self, u: &mut usize, _v: &mut usize, _ctx: &mut InteractionCtx<'_>) {
            *u = (*u + 1) % self.k;
        }
    }

    impl CleanInit for Drift {
        fn clean_state(&self, agent: AgentId) -> usize {
            // Lumpy start: states 0 and 1 only, so most of the space starts
            // unoccupied and gets discovered by drifting.
            agent.index() % 2
        }
    }

    impl EnumerableProtocol for Drift {
        fn num_states(&self) -> usize {
            self.k
        }
        fn encode(&self, state: &usize) -> usize {
            *state
        }
        fn decode(&self, index: usize) -> usize {
            index
        }
    }

    #[test]
    fn sparse_pair_index_stays_consistent_under_churn() {
        let p = Drift { n: 24, k: 7 };
        let mut sim = BatchSimulation::clean(p, 9);
        for _ in 0..500 {
            sim.run(1);
            sim.pairs.assert_consistent(&sim.protocol, &sim.counts);
        }
        assert_eq!(sim.counts().counts().iter().sum::<u64>(), 24);
    }

    #[test]
    fn pair_index_compaction_preserves_weights() {
        let p = Drift { n: 24, k: 7 };
        let mut sim = BatchSimulation::clean(p, 3);
        sim.run(2_000);
        let total = sim.pairs.total_weight();
        sim.pairs.compact();
        assert_eq!(sim.pairs.total_weight(), total);
        sim.pairs.assert_consistent(&sim.protocol, &sim.counts);
        sim.run(50);
        sim.pairs.assert_consistent(&sim.protocol, &sim.counts);
    }

    #[test]
    fn fenwick_prefix_search_matches_linear_scan() {
        let weights = [3u128, 0, 5, 1, 0, 7, 2];
        let mut tree = Fenwick::default();
        for &w in &weights {
            tree.push(w);
        }
        let total: u128 = weights.iter().sum();
        for threshold in 0..total {
            let mut acc = 0u128;
            let expected = weights
                .iter()
                .position(|&w| {
                    acc += w;
                    threshold < acc
                })
                .unwrap();
            assert_eq!(tree.search(threshold), expected, "threshold {threshold}");
        }
        // Updates (including to and from zero) keep the search exact.
        tree.update(2, 5, 0);
        tree.update(1, 0, 4);
        let weights = [3u128, 4, 0, 1, 0, 7, 2];
        let total: u128 = weights.iter().sum();
        for threshold in 0..total {
            let mut acc = 0u128;
            let expected = weights
                .iter()
                .position(|&w| {
                    acc += w;
                    threshold < acc
                })
                .unwrap();
            assert_eq!(tree.search(threshold), expected, "threshold {threshold}");
        }
    }

    /// Pair weights reach `2⁶⁶` here (`c_u = c_v = 2³³`, population `2³⁴`),
    /// past both the old `u32::MAX` population gate and the u64 weight
    /// ceiling — the run must proceed with exact u128 weights and bounded
    /// (state-count, not population) memory.
    #[test]
    fn u128_weights_run_beyond_the_old_u32_population_bound() {
        let half = 1u64 << 33;
        let n = 2 * half; // 2³⁴ > u32::MAX
        let p = OneWayEpidemic::new(n as usize, half as usize);
        let counts = CountConfiguration::from_counts(vec![half, half]);
        let mut sim = BatchSimulation::new(p, counts, 21);
        let expected_weight = u128::from(half) * u128::from(half);
        assert_eq!(sim.pairs.total_weight(), expected_weight);
        assert!(expected_weight > u128::from(u64::MAX));
        let frac = sim.active_fraction();
        assert!(frac > 0.24 && frac < 0.26, "activity ≈ 1/4, got {frac}");
        sim.run(400);
        let active = sim.active_interactions();
        assert_eq!(sim.interactions(), 400);
        assert!(active > 0, "expected ≈100 infections in 400 interactions");
        assert_eq!(sim.counts().count(1), half + active);
        sim.pairs.assert_consistent(&sim.protocol, &sim.counts);
    }

    #[test]
    fn try_new_rejects_populations_past_the_engine_bound() {
        use crate::count_config::MAX_POPULATION;
        let over = MAX_POPULATION / 2 + 1;
        let p = OneWayEpidemic::new((2 * over) as usize, over as usize);
        let counts = CountConfiguration::from_counts(vec![over, over]);
        let err = BatchSimulation::try_new(p, counts, 0).unwrap_err();
        assert_eq!(
            err,
            SimError::UnsupportedPopulation {
                population: 2 * over,
                limit: MAX_POPULATION,
            }
        );
    }

    mod boundary_props {
        use super::*;
        use proptest::prelude::*;

        /// A weight either tiny or within 8 of `u64::MAX`, so sums routinely
        /// cross the u64 boundary the old representation lived at.
        fn near_boundary_weight() -> impl Strategy<Value = u128> {
            (any::<bool>(), 0u64..9).prop_map(|(near_top, k)| {
                if near_top {
                    u128::from(u64::MAX - k)
                } else {
                    u128::from(k)
                }
            })
        }

        proptest! {
            /// Satellite: drive slot weights near the u64 boundary and pin
            /// the checked `total_weight` mirror and the Fenwick prefix
            /// search against a brute-force u128 sum.
            #[test]
            fn pair_index_totals_stay_exact_near_the_u64_boundary(
                initial in proptest::collection::vec(near_boundary_weight(), 1..10),
                updates in proptest::collection::vec(
                    (0usize..10, near_boundary_weight()),
                    0..16,
                ),
                threshold_unit in 0.0f64..1.0,
            ) {
                let mut index = PairIndex::default();
                index.grow(initial.len());
                let mut mirror = initial.clone();
                for (s, &w) in initial.iter().enumerate() {
                    // Diagonal pairs (s, s): distinct keys, one state each.
                    index.add_slot(s, s, w);
                }
                for &(slot, w) in &updates {
                    let slot = slot % mirror.len();
                    index.set_weight(slot, w);
                    mirror[slot] = w;
                }
                let brute: u128 = mirror.iter().sum();
                prop_assert_eq!(index.total_weight(), brute);
                if brute > 0 {
                    // A threshold anywhere in [0, total) must select the
                    // same slot as a linear scan of the mirror.
                    let threshold =
                        ((threshold_unit * brute as f64) as u128).min(brute - 1);
                    let mut acc = 0u128;
                    let expected = mirror
                        .iter()
                        .position(|&w| {
                            acc += w;
                            threshold < acc
                        })
                        .unwrap();
                    prop_assert_eq!(index.select(threshold), (expected, expected));
                }
            }
        }
    }
}
