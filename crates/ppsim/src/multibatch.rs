//! The multi-batch collision sampler engine.
//!
//! The batched engine ([`crate::BatchSimulation`]) pays O(1) per
//! *state-changing* interaction, which is ideal when silence dominates but
//! degenerates toward per-step cost for protocols with large non-silent pair
//! sets — a dense epidemic mid-outbreak, or `ElectLeader_r` early in
//! stabilization, where nearly every interaction changes state.
//! [`MultiBatchSimulation`] attacks exactly that regime by resolving whole
//! Θ(√n)-sized *batches* of interactions in a constant number of statistical
//! draws over the count configuration:
//!
//! 1. Sample the **epoch length**: the number `L` of consecutive interactions
//!    whose agents are all distinct, i.e. the number of interactions before
//!    one first involves an agent already touched this epoch (the birthday
//!    bound puts `E[L] ≈ 0.63·√n`). The survival probabilities depend only on
//!    `n`, so one inverse-transform draw against a precomputed table suffices.
//! 2. Allocate the `2L` distinct agents to states with **hypergeometric
//!    draws** over the count vector: one multivariate split for the initiator
//!    states, one for the responder states from the remaining urn, and one
//!    split per initiator state to match initiators with responders — the
//!    exact law of a uniform pairing.
//! 3. Resolve each ordered state-pair group at once: silent pairs and
//!    deterministic transitions need no randomness at all, enumerated
//!    randomized supports ([`EnumerableProtocol::transition_support`]) are
//!    split **multinomially** over their outcomes, and only unknown-support
//!    transitions fall back to one [`crate::Protocol::interact`] call per
//!    interaction. All updates are *delayed* — applied to the counts in one
//!    [`CountConfiguration::apply_batch`] commit, which is sound because the
//!    batch's agents are pairwise distinct.
//! 4. Execute the **collision interaction** — the `(L+1)`-th, which involves
//!    at least one already-updated agent — individually: pick the touched /
//!    untouched sides with their exact conditional weights, draw the touched
//!    agent's *updated* state from the epoch's outcome multiset, and apply
//!    one ordinary transition. This correction is what keeps the engine
//!    exact; without it the batch reuse of agents would bias the schedule.
//!
//! The sampled interaction sequence has exactly the uniform-scheduler
//! distribution — trajectories differ from both other engines under the same
//! seed (randomness is consumed differently), but all distributions over
//! configurations and hitting times agree. Cost is `O(#occupied states +
//! #distinct pair groups)` per `Θ(√n)` interactions, independent of how many
//! of them change state — the complementary trade to the batched engine,
//! which skips silence for free but pays for every change. The price is that
//! silence is **not** skipped: a nearly frozen configuration still costs one
//! epoch per `Θ(√n)` interactions (and the engine never reports a stall, so
//! pair an unreachable predicate with a finite budget), and predicates are
//! only observable at epoch commits, so hitting times carry `O(√n)`
//! granularity.

use crate::batched::sample_support;
use crate::configuration::Configuration;
use crate::convergence::Advance;
use crate::count_config::{validate_engine_inputs, CountConfiguration};
use crate::engine::{PredicateGranularity, SimulationEngine};
use crate::enumerable::EnumerableProtocol;
use crate::error::SimError;
use crate::protocol::{CleanInit, InteractionCtx};
use crate::rng::{uniform_below, uniform_below_u128, SimRng};
use crate::telemetry::{Counter, SpanGuard, SpanKind, Telemetry};
use rand::distributions::{hypergeometric_split, multinomial_split};
use rand::RngCore;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The smallest uniform variate the open-(0,1) draw can produce is `2⁻⁵⁴`,
/// so survival entries below `ln 2⁻⁵⁴ ≈ −37.4` can never be selected; the
/// table stops once it crosses this cutoff.
const LN_SURVIVAL_CUTOFF: f64 = -38.0;

/// `table[l] = ln P(the first l interactions of an epoch touch 2l distinct
/// agents)`, strictly descending in `l`, with `table[0] = 0`.
///
/// The `(i+1)`-th interaction avoids the `2i` touched agents with
/// probability `(n−2i)(n−2i−1) / (n(n−1))`; entries are prefix sums of the
/// logs. The table is finite: it ends with the first entry at or below
/// [`LN_SURVIVAL_CUTOFF`] (or `−∞`, once fewer than two fresh agents
/// remain), which no admissible uniform draw can reach past.
fn collision_survival_table(n: u64) -> Vec<f64> {
    debug_assert!(n >= 2);
    let denom = n as f64 * (n - 1) as f64;
    let mut table = vec![0.0f64];
    let mut acc = 0.0f64;
    let mut touched = 0u64;
    loop {
        let fresh = n - touched;
        if fresh < 2 {
            table.push(f64::NEG_INFINITY);
            break;
        }
        acc += (fresh as f64 * (fresh - 1) as f64 / denom).ln();
        table.push(acc);
        if acc <= LN_SURVIVAL_CUTOFF {
            break;
        }
        touched += 2;
    }
    table
}

thread_local! {
    /// Per-thread survival tables keyed by population size. Engines on one
    /// thread (a fleet worker, an adaptive handoff sequence) share one
    /// `Rc<[f64]>` per `n` instead of rebuilding the `O(√n)` table on every
    /// construction.
    static SURVIVAL_CACHE: RefCell<HashMap<u64, Rc<[f64]>>> = RefCell::new(HashMap::new());
}

/// A few distinct populations cover any realistic workload on one thread;
/// past this the cache resets rather than growing without bound.
const SURVIVAL_CACHE_CAPACITY: usize = 8;

/// The survival table for population `n`, shared through the thread-local
/// cache (built at most once per thread and population).
fn shared_survival_table(n: u64) -> Rc<[f64]> {
    SURVIVAL_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(table) = cache.get(&n) {
            return Rc::clone(table);
        }
        if cache.len() >= SURVIVAL_CACHE_CAPACITY {
            cache.clear();
        }
        let table: Rc<[f64]> = collision_survival_table(n).into();
        crate::telemetry::note_survival_table_build();
        cache.insert(n, Rc::clone(&table));
        table
    })
}

/// A uniform draw in the open interval `(0, 1)`, so its log is finite.
#[inline]
fn open01(rng: &mut SimRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// Draws one agent uniformly from a multiset of `total` agents given as
/// `(state, count)` entries, returning `(entry index, state)`.
fn draw_from_multiset(rng: &mut SimRng, entries: &[(usize, u64)], total: u64) -> (usize, usize) {
    let mut threshold = uniform_below(rng, total);
    for (index, &(state, count)) in entries.iter().enumerate() {
        if threshold < count {
            return (index, state);
        }
        threshold -= count;
    }
    unreachable!("multiset total overstated")
}

/// A population-protocol execution resolving whole collision-bounded batches
/// of interactions per statistical draw.
///
/// Same [`SimulationEngine`] surface as [`crate::BatchSimulation`] and
/// usable with the same protocols
/// — statically enumerated ([`EnumerableProtocol`]) or dynamically
/// discovered ([`crate::indexer::DiscoveredProtocol`]). Prefer it when most
/// interactions change state; prefer the batched engine when silence
/// dominates.
///
/// [`Protocol::interact`]: crate::Protocol::interact
#[derive(Debug)]
pub struct MultiBatchSimulation<P: EnumerableProtocol> {
    protocol: P,
    counts: CountConfiguration,
    rng: SimRng,
    interactions: u64,
    epochs: u64,
    ln_collision_survival: Rc<[f64]>,
    /// Observability handle; disabled by default, in which case every probe
    /// is an early-out on a `None` and the RNG stream is untouched.
    telemetry: Telemetry,
    /// The `multibatch.run` span of the current run call: opened by its
    /// first advance, closed when the run loop ends.
    span: Option<SpanGuard>,
}

impl<P: EnumerableProtocol> MultiBatchSimulation<P> {
    /// Creates a multi-batch simulation from an explicit count
    /// configuration, returning a typed error on invalid input.
    ///
    /// # Supported populations
    ///
    /// `2 ≤ n ≤ 2⁶²` ([`crate::count_config::MAX_POPULATION`]): collision
    /// weights widen through `u128`, and memory is `O(#occupied states +
    /// √n)` (the shared survival table holds `O(√n)` entries, built at most
    /// once per thread and population). Larger populations yield
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
        let ln_collision_survival = shared_survival_table(counts.population());
        Ok(MultiBatchSimulation {
            protocol,
            counts,
            rng: SimRng::seed_from_u64(seed),
            interactions: 0,
            epochs: 0,
            ln_collision_survival,
            telemetry: Telemetry::disabled(),
            span: None,
        })
    }

    /// Attaches a [`Telemetry`] handle; counters, the collision-length
    /// histogram, and run spans recorded from now on land in its report.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached [`Telemetry`] handle (disabled unless
    /// [`Self::set_telemetry`] was called with an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Creates a multi-batch simulation from an explicit count configuration.
    ///
    /// # Panics
    ///
    /// Panics on any input [`Self::try_new`] rejects.
    pub fn new(protocol: P, counts: CountConfiguration, seed: u64) -> Self {
        // lint:allow(panic): documented panicking wrapper; message pinned by should_panic test
        Self::try_new(protocol, counts, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a multi-batch simulation from the protocol's clean initial
    /// configuration.
    ///
    /// Builds the counts directly via
    /// [`CountConfiguration::from_clean_init`] — no `O(n)` per-agent vector
    /// is ever materialized. Supports the same population range as
    /// [`Self::try_new`].
    pub fn clean(protocol: P, seed: u64) -> Self
    where
        P: CleanInit,
    {
        let counts = CountConfiguration::from_clean_init(&protocol);
        Self::new(protocol, counts, seed)
    }

    /// Number of epochs (batches) executed — the quantity the engine's
    /// running time is proportional to, each covering `Θ(√n)` interactions.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Decomposes the simulation into its protocol and current count
    /// configuration, discarding the RNG and the survival table.
    ///
    /// The engine-handoff primitive used by [`crate::AdaptiveSimulation`];
    /// see [`crate::BatchSimulation::into_parts`] for the accounting
    /// conventions.
    pub fn into_parts(self) -> (P, CountConfiguration) {
        (self.protocol, self.counts)
    }

    /// Grows the count vector when the protocol discovered new states (a
    /// no-op for statically enumerated protocols).
    fn sync_state_space(&mut self) {
        let q = self.protocol.num_states();
        if q > self.counts.num_states() {
            self.counts.ensure_num_states(q);
        }
    }

    /// Samples the epoch length `L`: the number of interactions before one
    /// first reuses a touched agent, by inverse transform against the
    /// precomputed survival table. Always at least 1.
    fn sample_collision_length(&mut self) -> u64 {
        let ln_u = open01(&mut self.rng).ln();
        let first_not_above = self.ln_collision_survival.partition_point(|&s| s > ln_u);
        (first_not_above - 1) as u64
    }

    /// Resolves `m` ordered `(u, v)` interactions at once, appending the
    /// outcome states (two per interaction) to `updated`.
    fn resolve_group(&mut self, u: usize, v: usize, m: u64, updated: &mut Vec<(usize, u64)>) {
        if self.protocol.is_silent(u, v) {
            self.telemetry.count(Counter::MultiBatchGroupsSilent, 1);
            updated.push((u, m));
            updated.push((v, m));
            return;
        }
        let support = self.protocol.transition_support(u, v);
        match support.len() {
            0 => {
                // Unknown outcome distribution: sample each interaction blind
                // (the only per-interaction work the engine ever does).
                self.telemetry.count(Counter::MultiBatchGroupsBlind, 1);
                self.telemetry
                    .count(Counter::MultiBatchBlindInteractions, m);
                let interaction = self.interactions;
                for _ in 0..m {
                    let mut ctx = InteractionCtx::new(&mut self.rng, interaction);
                    let to = self.protocol.transition_indices(u, v, &mut ctx);
                    updated.push((to.0, 1));
                    updated.push((to.1, 1));
                }
            }
            1 => {
                self.telemetry
                    .count(Counter::MultiBatchGroupsDeterministic, 1);
                let (x, y) = support[0].0;
                updated.push((x, m));
                updated.push((y, m));
            }
            _ => {
                self.telemetry
                    .count(Counter::MultiBatchGroupsMultinomial, 1);
                let weights: Vec<f64> = support.iter().map(|&(_, w)| w).collect();
                let split = multinomial_split(m, &weights, &mut self.rng);
                for (&((x, y), _), count) in support.iter().zip(split) {
                    if count > 0 {
                        updated.push((x, count));
                        updated.push((y, count));
                    }
                }
            }
        }
    }

    /// Applies one transition to an ordered state pair drawn individually
    /// (the collision interaction), exactly as the batched engine would.
    fn fire_single(&mut self, u: usize, v: usize) {
        let support = self.protocol.transition_support(u, v);
        let to = match support.len() {
            0 => {
                let interaction = self.interactions;
                let mut ctx = InteractionCtx::new(&mut self.rng, interaction);
                self.protocol.transition_indices(u, v, &mut ctx)
            }
            1 => support[0].0,
            _ => sample_support(&mut self.rng, &support),
        };
        self.sync_state_space();
        self.counts.apply_transition((u, v), to);
    }

    /// Advances by one epoch, truncated to `cap` interactions, and returns
    /// the number of interactions executed (at least 1).
    fn advance_epoch(&mut self, cap: u64) -> u64 {
        debug_assert!(cap > 0);
        let n = self.counts.population();
        let length = self.sample_collision_length();
        // The collision interaction is the (length + 1)-th; it only runs if
        // it fits the cap. Truncating the collision-free prefix anywhere is
        // exact: the prefix's marginal distribution does not depend on where
        // the epoch would have ended.
        let free = length.min(cap);
        let collide = length < cap;
        self.telemetry.record_collision_length(length);
        if !collide {
            self.telemetry.count(Counter::MultiBatchTruncatedEpochs, 1);
        }

        // The 2·free distinct agents, allocated to states hypergeometrically.
        let occupied: Vec<(usize, u64)> = self.counts.occupied().collect();
        let urn: Vec<u64> = occupied.iter().map(|&(_, c)| c).collect();
        let initiators = hypergeometric_split(&urn, free, &mut self.rng);
        let rest: Vec<u64> = urn.iter().zip(&initiators).map(|(&c, &a)| c - a).collect();
        let responders = hypergeometric_split(&rest, free, &mut self.rng);

        // Match initiators to responders: a uniformly random pairing of the
        // two multisets, drawn as one multivariate hypergeometric row per
        // initiator state over the responders not yet matched.
        let mut unmatched = responders.clone();
        let mut updated: Vec<(usize, u64)> = Vec::new();
        for (ai, &a_count) in initiators.iter().enumerate() {
            if a_count == 0 {
                continue;
            }
            let row = hypergeometric_split(&unmatched, a_count, &mut self.rng);
            for (bi, &m) in row.iter().enumerate() {
                if m > 0 {
                    unmatched[bi] -= m;
                    let (u, v) = (occupied[ai].0, occupied[bi].0);
                    self.resolve_group(u, v, m, &mut updated);
                }
            }
        }

        // Commit the delayed updates in one step (sound because the batch's
        // agents are pairwise distinct, so their transitions commute).
        let removals: Vec<(usize, u64)> = occupied
            .iter()
            .enumerate()
            .map(|(i, &(s, _))| (s, initiators[i] + responders[i]))
            .filter(|&(_, c)| c > 0)
            .collect();
        self.sync_state_space();
        self.counts.apply_batch(&removals, &updated);

        let mut executed = free;
        if collide {
            // The collision interaction: a uniformly random ordered pair
            // conditioned on touching at least one of the 2·free updated
            // agents — whose states come from the outcome multiset, not the
            // committed counts at large.
            let touched = 2 * free;
            let fresh = n - touched;
            // `touched` is O(√n) but `fresh` approaches n, so the cross
            // weight overflows u64 once n · √n passes 2⁶⁴ (n ≈ 4 × 10¹²);
            // widening keeps the conditional pair-case draw exact up to the
            // engine bound. For totals within u64 the u128 draw consumes the
            // identical RNG stream (see `uniform_below_u128`).
            let w_both = u128::from(touched) * u128::from(touched - 1);
            let w_cross = u128::from(touched) * u128::from(fresh);
            let untouched: Vec<(usize, u64)> = occupied
                .iter()
                .enumerate()
                .map(|(i, &(s, c))| (s, c - initiators[i] - responders[i]))
                .filter(|&(_, c)| c > 0)
                .collect();
            let pick = uniform_below_u128(&mut self.rng, w_both + 2 * w_cross);
            let (cu, cv) = if pick < w_both {
                // Both agents touched: two distinct draws from the outcomes.
                let (entry, cu) = draw_from_multiset(&mut self.rng, &updated, touched);
                updated[entry].1 -= 1;
                let (_, cv) = draw_from_multiset(&mut self.rng, &updated, touched - 1);
                (cu, cv)
            } else if pick < w_both + w_cross {
                let (_, cu) = draw_from_multiset(&mut self.rng, &updated, touched);
                let (_, cv) = draw_from_multiset(&mut self.rng, &untouched, fresh);
                (cu, cv)
            } else {
                let (_, cu) = draw_from_multiset(&mut self.rng, &untouched, fresh);
                let (_, cv) = draw_from_multiset(&mut self.rng, &updated, touched);
                (cu, cv)
            };
            self.fire_single(cu, cv);
            executed += 1;
            self.telemetry
                .count(Counter::MultiBatchCollisionInteractions, 1);
        }
        self.interactions += executed;
        self.epochs += 1;
        self.telemetry
            .count(Counter::MultiBatchInteractions, executed);
        self.telemetry.count(Counter::MultiBatchEpochs, 1);
        executed
    }
}

/// The multi-batch engine behind the unified surface: predicates are
/// observed at epoch commits, and a frozen configuration is never reported
/// as a stall.
impl<P: EnumerableProtocol> SimulationEngine<P> for MultiBatchSimulation<P> {
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
    fn predicate_granularity(&self) -> PredicateGranularity {
        // The birthday bound puts the expected epoch length at ≈ 0.63·√n.
        let expected = (0.6321 * (self.counts.population() as f64).sqrt()).ceil() as u64;
        PredicateGranularity::EpochCommit {
            expected_interactions: expected.max(1),
        }
    }
    fn advance(&mut self, cap: u64) -> Advance {
        self.span
            .get_or_insert_with(|| self.telemetry.span(SpanKind::MultiBatchRun));
        Advance {
            executed: self.advance_epoch(cap),
            stalled: false,
        }
    }
    fn end_run(&mut self, _checks: u64) {
        self.span = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epidemic::{OneWayEpidemic, TwoWayEpidemic, INFORMED};
    use crate::protocol::{AgentId, Protocol};
    use crate::simulation::StabilizationOptions;
    use crate::telemetry::survival_table_builds;

    #[test]
    fn survival_table_is_descending_and_anchored() {
        for n in [2u64, 3, 7, 100, 10_000] {
            let table = collision_survival_table(n);
            assert_eq!(table[0], 0.0);
            // The first interaction never collides.
            assert_eq!(table[1], 0.0, "n = {n}");
            assert!(
                table.windows(2).all(|w| w[0] >= w[1]),
                "n = {n}: table not descending"
            );
            let last = *table.last().unwrap();
            assert!(
                last <= LN_SURVIVAL_CUTOFF,
                "n = {n}: table ends above the cutoff ({last})"
            );
            // Epoch lengths are bounded by the number of disjoint pairs.
            assert!(table.len() as u64 - 1 <= n / 2 + 1, "n = {n}");
        }
    }

    /// Engines for the same population must share one survival table
    /// allocation per thread: exactly one build, pointer-equal tables.
    #[test]
    fn survival_tables_are_shared_per_population() {
        // A population no other assertion in this test (or thread — libtest
        // gives each test its own thread) uses.
        let n = 77_777;
        let before = survival_table_builds();
        let a = MultiBatchSimulation::clean(OneWayEpidemic::new(n, 1), 1);
        let b = MultiBatchSimulation::clean(OneWayEpidemic::new(n, 1), 2);
        assert_eq!(survival_table_builds(), before + 1);
        assert!(Rc::ptr_eq(
            &a.ln_collision_survival,
            &b.ln_collision_survival
        ));
        // A different population is a genuine miss.
        let _c = MultiBatchSimulation::clean(OneWayEpidemic::new(n + 2, 1), 3);
        assert_eq!(survival_table_builds(), before + 2);
    }

    #[test]
    fn try_new_rejects_populations_past_the_engine_bound() {
        use crate::count_config::MAX_POPULATION;
        let over = MAX_POPULATION / 2 + 1;
        let p = OneWayEpidemic::new((2 * over) as usize, over as usize);
        let counts = CountConfiguration::from_counts(vec![over, over]);
        let err = MultiBatchSimulation::try_new(p, counts, 0).unwrap_err();
        assert_eq!(
            err,
            SimError::UnsupportedPopulation {
                population: 2 * over,
                limit: MAX_POPULATION,
            }
        );
    }

    #[test]
    fn two_agents_always_collide_on_the_second_interaction() {
        let p = TwoWayEpidemic::new(2, 1);
        let mut sim = MultiBatchSimulation::clean(p, 5);
        // Every epoch is exactly length-1 free + 1 collision = 2 interactions.
        sim.run(10);
        assert_eq!(sim.interactions(), 10);
        assert_eq!(sim.epochs(), 5);
        assert_eq!(sim.counts().count(INFORMED), 2);
    }

    #[test]
    fn multibatch_epidemic_reaches_everyone() {
        let p = OneWayEpidemic::new(256, 1);
        let mut sim = MultiBatchSimulation::clean(p, 7);
        let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), 10_000_000);
        assert!(out.satisfied);
        assert_eq!(sim.counts().count(INFORMED), 256);
        assert_eq!(sim.counts().count(0), 0);
        // Far fewer epochs than interactions: batching actually happened.
        assert!(out.interactions > 255, "got {}", out.interactions);
        assert!(
            sim.epochs() < out.interactions / 4,
            "{} epochs for {} interactions",
            sim.epochs(),
            out.interactions
        );
        assert_eq!(sim.interactions(), out.interactions);
    }

    #[test]
    fn silent_configuration_still_counts_interactions() {
        // Everyone already informed: every interaction is a no-op, but the
        // multi-batch engine resolves (and counts) all of them.
        let p = TwoWayEpidemic::new(64, 64);
        let mut sim = MultiBatchSimulation::clean(p, 3);
        assert_eq!(sim.run(100_000), 100_000);
        assert!(sim.epochs() > 0);
        assert_eq!(sim.interactions(), 100_000);
        assert_eq!(sim.counts().count(INFORMED), 64);
    }

    #[test]
    fn run_executes_exactly_the_budget() {
        let p = OneWayEpidemic::new(1_000, 1);
        let mut sim = MultiBatchSimulation::clean(p, 11);
        // A budget far below one mean epoch length still lands exactly.
        sim.run(3);
        assert_eq!(sim.interactions(), 3);
        sim.run(1_234);
        assert_eq!(sim.interactions(), 1_237);
    }

    #[test]
    fn run_until_budget_exhaustion_reports_unsatisfied() {
        let p = OneWayEpidemic::new(64, 1);
        let mut sim = MultiBatchSimulation::clean(p, 5);
        let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), 10);
        assert!(!out.satisfied);
        assert_eq!(out.interactions, 10);
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let run = |seed: u64| {
            let p = OneWayEpidemic::new(128, 1);
            let mut sim = MultiBatchSimulation::clean(p, seed);
            let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), 10_000_000);
            (out.interactions, sim.epochs(), sim.counts().clone())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn measure_stabilization_finds_epidemic_completion() {
        let p = TwoWayEpidemic::new(128, 1);
        let mut sim = MultiBatchSimulation::clean(p, 3);
        let opts = StabilizationOptions::new(128, 10_000_000).confirm_window(5_000);
        let res = sim.measure_stabilization(&mut |c| c.count(INFORMED) == c.population(), opts);
        assert!(res.stabilized());
        let t = res.stabilized_at.unwrap();
        assert!(t > 0 && t < 10_000_000);
        // The confirmation window was waited out, not the whole budget.
        assert!(res.interactions <= t + 5_000);
    }

    #[test]
    fn measure_stabilization_respects_the_confirm_window_on_silent_starts() {
        let p = TwoWayEpidemic::new(32, 32);
        let mut sim = MultiBatchSimulation::clean(p, 1);
        let opts = StabilizationOptions::new(32, 1_000_000).confirm_window(1_000);
        let res = sim.measure_stabilization(&mut |c| c.count(INFORMED) == c.population(), opts);
        assert!(res.stabilized());
        assert_eq!(res.stabilized_at, Some(0));
        assert!(res.interactions <= 1_000);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_population_panics() {
        let p = OneWayEpidemic::new(8, 1);
        let counts = CountConfiguration::from_counts(vec![3, 1]);
        let _ = MultiBatchSimulation::new(p, counts, 0);
    }

    #[test]
    #[should_panic(expected = "state space")]
    fn mismatched_state_space_panics() {
        let p = OneWayEpidemic::new(8, 1);
        let counts = CountConfiguration::from_counts(vec![4, 3, 1]);
        let _ = MultiBatchSimulation::new(p, counts, 0);
    }

    /// A randomized protocol with an enumerated two-outcome support: the
    /// initiator flips the responder to its own state or flips itself, each
    /// with probability 1/2 — exercises the multinomial outcome split.
    struct FlipCoin {
        n: usize,
    }

    impl Protocol for FlipCoin {
        type State = bool;
        fn population_size(&self) -> usize {
            self.n
        }
        fn interact(&self, u: &mut bool, v: &mut bool, ctx: &mut InteractionCtx<'_>) {
            if *u != *v {
                if ctx.sample_bool() {
                    *v = *u;
                } else {
                    *u = *v;
                }
            }
        }
    }

    impl CleanInit for FlipCoin {
        fn clean_state(&self, agent: AgentId) -> bool {
            agent.index() % 2 == 0
        }
    }

    impl EnumerableProtocol for FlipCoin {
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
        fn transition_support(
            &self,
            initiator: usize,
            responder: usize,
        ) -> Vec<((usize, usize), f64)> {
            if initiator == responder {
                vec![((initiator, responder), 1.0)]
            } else {
                vec![((initiator, initiator), 0.5), ((responder, responder), 0.5)]
            }
        }
    }

    #[test]
    fn randomized_supports_conserve_the_population() {
        let mut sim = MultiBatchSimulation::clean(FlipCoin { n: 200 }, 9);
        for _ in 0..50 {
            sim.run(500);
            let total: u64 = sim.counts().counts().iter().sum();
            assert_eq!(total, 200);
        }
        // The consensus walk eventually absorbs in an all-equal state.
        let out = sim.run_until(
            &mut |c| c.count(0) == c.population() || c.count(1) == c.population(),
            50_000_000,
        );
        assert!(out.satisfied);
    }

    /// Blind-path coverage: a randomized transition whose support is not
    /// enumerated, forcing one `interact` call per batched interaction.
    struct BlindShuffle {
        n: usize,
        k: usize,
    }

    impl Protocol for BlindShuffle {
        type State = usize;
        fn population_size(&self) -> usize {
            self.n
        }
        fn interact(&self, u: &mut usize, _v: &mut usize, ctx: &mut InteractionCtx<'_>) {
            *u = ctx.sample_below(self.k as u64) as usize;
        }
    }

    impl CleanInit for BlindShuffle {
        fn clean_state(&self, agent: AgentId) -> usize {
            agent.index() % self.k
        }
    }

    impl EnumerableProtocol for BlindShuffle {
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
    fn blind_transitions_conserve_the_population() {
        let mut sim = MultiBatchSimulation::clean(BlindShuffle { n: 60, k: 5 }, 21);
        sim.run(5_000);
        assert_eq!(sim.interactions(), 5_000);
        assert_eq!(sim.counts().counts().iter().sum::<u64>(), 60);
        assert_eq!(sim.counts().num_states(), 5);
    }
}
