//! The unified engine API: one trait over every simulation engine, a
//! builder that replaces per-engine constructor plumbing, and the adaptive
//! auto-switching engine.
//!
//! * [`SimulationEngine`] — the shared surface as an object-safe trait, with
//!   predicates over [`CountConfiguration`] (the representation every engine
//!   can serve), observed at each engine's own granularity (see below),
//! * [`EngineKind`] — the engine selector, including the [`EngineKind::Auto`]
//!   tier,
//! * [`SimBuilder`] — protocol + init + seed + kind → boxed engine, replacing
//!   the ad-hoc `new` / `from_configuration` / `clean` constructor trio at
//!   call sites,
//! * [`PerStepEngine`] — the per-agent engine behind the count-predicate
//!   surface: a [`Simulation`] plus an incrementally maintained count mirror
//!   (two `encode` calls per interaction), so per-step runs serve the same
//!   predicates as the count engines at O(1) per check,
//! * [`AdaptiveSimulation`] — the `Auto` tier: runs the multi-batch engine
//!   while the measured active-interaction fraction is high and hands the
//!   count vector off to the batched engine (and back) at a hysteresis
//!   threshold, preserving exact budget accounting and absolute interaction
//!   indices across the handoff.
//!
//! # One primitive, one loop
//!
//! Each engine implements one primitive, [`SimulationEngine::advance`]: it
//! executes at least one and at most `cap` interactions and reports an
//! [`Advance`] — how many it executed, and whether the configuration is
//! frozen (`stalled`), in which case the whole cap was consumed as silence.
//! The per-step engine advances by one interaction, the batched engine by
//! one silent run plus the state change ending it, the multi-batch engine
//! by one epoch. [`SimulationEngine::run`], [`SimulationEngine::run_until`]
//! and [`SimulationEngine::measure_stabilization`] are provided methods over
//! that primitive — the loops of [`crate::convergence`], shared with the
//! bare [`Simulation`] — so budgets, confirmation windows, stall
//! short-circuits and absolute indices mean the same on every tier. Only
//! the batched engine, and `Auto` through it, detects a frozen
//! configuration; the per-step and multi-batch engines never report a
//! stall, so pair an unreachable predicate with a finite budget there.
//!
//! # Predicate granularity
//!
//! The loops observe stop/stabilization predicates after every advance, so
//! the granularity is the engine's advance step:
//!
//! * [`PerStepEngine`] and [`BatchSimulation`] observe predicates after every
//!   interaction that can change the configuration — exact, because silent
//!   interactions cannot change it.
//! * [`MultiBatchSimulation`] observes predicates at epoch commits — the
//!   interactions inside an epoch have no defined intermediate order — so
//!   hitting times overshoot by up to one epoch of `≈ 0.63·√n`
//!   interactions, an `O(√n)` observation granularity.
//! * [`AdaptiveSimulation`] observes at the granularity of whichever engine
//!   is currently active.
//!
//! # Quick example
//!
//! ```
//! use ppsim::engine::{EngineKind, SimBuilder, SimulationEngine};
//! use ppsim::epidemic::{OneWayEpidemic, INFORMED};
//!
//! // One entry point for every engine tier: pick a kind — or let `Auto`
//! // switch between the count engines as activity rises and falls.
//! let mut sim = SimBuilder::new(OneWayEpidemic::new(10_000, 1))
//!     .seed(7)
//!     .kind(EngineKind::Auto)
//!     .build();
//! let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), u64::MAX);
//! assert!(out.satisfied);
//! assert_eq!(sim.counts().count(INFORMED), 10_000);
//! ```

use crate::batched::BatchSimulation;
use crate::configuration::Configuration;
use crate::convergence::{self, Advance, Drive, StabilizationResult};
use crate::count_config::CountConfiguration;
use crate::enumerable::EnumerableProtocol;
use crate::error::SimError;
use crate::metrics::InteractionMetrics;
use crate::multibatch::MultiBatchSimulation;
use crate::protocol::CleanInit;
use crate::rng::derive_seed;
use crate::simulation::{RunOutcome, Simulation, StabilizationOptions};
use crate::telemetry::{BalanceSummary, Counter, SpanGuard, SpanKind, Telemetry};
use serde::Serialize;
use std::marker::PhantomData;

/// The simulation engine a run executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EngineKind {
    /// The per-agent engine ([`Simulation`], served through
    /// [`PerStepEngine`]): pays for every interaction, works for any
    /// enumerable protocol, exact per-agent trajectories.
    PerStep,
    /// The batched count-based engine ([`BatchSimulation`]): skips silent
    /// runs geometrically, pays per state-changing interaction.
    Batched,
    /// The multi-batch collision sampler ([`MultiBatchSimulation`]):
    /// resolves `Θ(√n)`-interaction epochs per statistical draw, pays per
    /// epoch regardless of how many interactions change state.
    MultiBatch,
    /// The adaptive engine ([`AdaptiveSimulation`]): multi-batch while the
    /// measured active-interaction fraction is high, batched once silence
    /// dominates, switching at a hysteresis threshold.
    Auto,
}

impl EngineKind {
    /// The engine's name as used in experiment-table rows and CLI arguments.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::PerStep => "per-step",
            EngineKind::Batched => "batched",
            EngineKind::MultiBatch => "multibatch",
            EngineKind::Auto => "auto",
        }
    }

    /// Parses an engine kind from its [`EngineKind::label`] token.
    pub fn parse(token: &str) -> Option<EngineKind> {
        match token {
            "per-step" => Some(EngineKind::PerStep),
            "batched" => Some(EngineKind::Batched),
            "multibatch" => Some(EngineKind::MultiBatch),
            "auto" => Some(EngineKind::Auto),
            _ => None,
        }
    }
}

/// The shared surface of every simulation engine.
///
/// Predicates are functions of the [`CountConfiguration`] — the one
/// representation all engines can serve (the per-step engine maintains an
/// exact count mirror, see [`PerStepEngine`]). They are taken as
/// `&mut dyn FnMut` so the trait stays object-safe and a
/// [`SimBuilder`]-built `Box<dyn SimulationEngine<P>>` exposes the full
/// surface; pass a closure as `&mut |c| ...`.
///
/// Interaction-index conventions are shared across all implementations:
/// [`RunOutcome::interactions`] and [`StabilizationResult::interactions`]
/// are *relative* (executed by that call), while
/// [`StabilizationResult::stabilized_at`] and
/// [`SimulationEngine::interactions`] are *absolute* (counted from the
/// engine's construction — and preserved across [`AdaptiveSimulation`]
/// handoffs).
pub trait SimulationEngine<P: EnumerableProtocol> {
    /// The protocol being simulated.
    fn protocol(&self) -> &P;

    /// The current configuration, as state counts.
    fn counts(&self) -> &CountConfiguration;

    /// Materializes the current configuration per agent. Count engines order
    /// agents by state index (agents are anonymous); the per-step engine
    /// preserves true agent identities.
    fn to_configuration(&self) -> Configuration<P::State>;

    /// Number of interactions executed since construction (absolute).
    fn interactions(&self) -> u64;

    /// Parallel time elapsed so far (interactions divided by `n`).
    fn parallel_time(&self) -> f64 {
        self.interactions() as f64 / self.counts().population() as f64
    }

    /// The one primitive: executes at least one and at most `cap ≥ 1`
    /// interactions (one advance step, see the [module docs](self)) and
    /// reports how many, and whether the configuration is frozen. A per-step
    /// engine whose scripted scheduler ran out reports 0.
    ///
    /// A telemetry span opened by an advance stays open until
    /// [`SimulationEngine::end_run`].
    fn advance(&mut self, cap: u64) -> Advance;

    /// Ends one run call that evaluated its predicate `checks` times: closes
    /// the engine's telemetry span and flushes per-run summaries. The run
    /// loops call it; a no-op by default.
    fn end_run(&mut self, _checks: u64) {}

    /// Executes up to `budget` interactions unconditionally and returns the
    /// number executed (always `budget` except for a per-step engine whose
    /// scripted scheduler ran out).
    fn run(&mut self, budget: u64) -> u64 {
        convergence::run(&mut Counts::new(self), budget)
    }

    /// Runs until `pred` holds or `budget` interactions have been executed
    /// by this call, observing `pred` at this engine's granularity (see the
    /// [module docs](self)). Returns unsatisfied as soon as the engine
    /// stalls.
    fn run_until(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        budget: u64,
    ) -> RunOutcome {
        convergence::run_until(&mut Counts::new(self), pred, budget)
    }

    /// Measures the stabilization time of `pred`:
    /// [`StabilizationResult::stabilized_at`] is the absolute interaction
    /// index from which the predicate held until the end of the run, with
    /// the run stopping early once it has held for `opts.confirm_window`
    /// consecutive interactions, or once the engine stalls.
    fn measure_stabilization(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        opts: StabilizationOptions,
    ) -> StabilizationResult {
        convergence::measure_stabilization(&mut Counts::new(self), pred, opts)
    }
}

/// A [`SimulationEngine`] as the shared run loops drive it, observing counts.
struct Counts<'a, P, E: ?Sized>(&'a mut E, PhantomData<fn() -> P>);

impl<'a, P: EnumerableProtocol, E: SimulationEngine<P> + ?Sized> Counts<'a, P, E> {
    fn new(engine: &'a mut E) -> Self {
        Counts(engine, PhantomData)
    }
}

impl<P: EnumerableProtocol, E: SimulationEngine<P> + ?Sized> Drive for Counts<'_, P, E> {
    type View = CountConfiguration;
    fn view(&self) -> &CountConfiguration {
        self.0.counts()
    }
    fn interactions(&self) -> u64 {
        self.0.interactions()
    }
    fn population(&self) -> usize {
        self.0.counts().population() as usize
    }
    fn advance(&mut self, cap: u64) -> Advance {
        self.0.advance(cap)
    }
    fn end_run(&mut self, checks: u64) {
        self.0.end_run(checks);
    }
}

/// The fraction of ordered agent pairs that are currently *non-silent*,
/// recomputed from the counts in `O(#occupied states²)` silence queries.
///
/// This is the activity measure [`AdaptiveSimulation`] uses while the
/// multi-batch engine is active (the batched engine answers the same
/// question exactly in O(1) via [`BatchSimulation::active_fraction`]).
fn measured_active_fraction<P: EnumerableProtocol>(
    protocol: &P,
    counts: &CountConfiguration,
) -> f64 {
    let n = counts.population();
    let occupied: Vec<(usize, u64)> = counts.occupied().collect();
    // u128 accumulation: a single product c_u · c_v overflows u64 once both
    // counts pass 2³², and the total reaches n(n−1). The denominator is an
    // f64 product for the same reason.
    let mut weight = 0u128;
    for &(u, cu) in &occupied {
        for &(v, cv) in &occupied {
            if !protocol.is_silent(u, v) {
                weight += if u == v {
                    u128::from(cu) * u128::from(cu - 1)
                } else {
                    u128::from(cu) * u128::from(cv)
                };
            }
        }
    }
    weight as f64 / (n as f64 * (n - 1) as f64)
}

/// The per-agent engine behind the unified count-predicate surface.
///
/// Wraps a [`Simulation`] and maintains an **exact count mirror** of the
/// configuration: after every interaction the two touched agents' states are
/// re-encoded (two [`EnumerableProtocol::encode`] calls) and the four
/// affected counters updated, so count predicates cost O(occupied states)
/// per evaluation instead of an O(n) rebuild. The underlying simulation
/// consumes randomness exactly as a bare [`Simulation`] with the same seed —
/// trajectories are identical, the mirror is pure bookkeeping.
#[derive(Debug)]
pub struct PerStepEngine<P: EnumerableProtocol> {
    sim: Simulation<P>,
    counts: CountConfiguration,
    /// `encoded[a]` is the state index agent `a` currently holds — the
    /// per-agent half of the mirror, needed to know which counter an agent
    /// leaves when its state changes.
    encoded: Vec<usize>,
    /// Observability handle; disabled by default, in which case every probe
    /// is an early-out on a `None` and trajectories are untouched.
    telemetry: Telemetry,
    /// The `per_step.run` span of the current run call: opened by its first
    /// advance, closed when the run loop ends.
    span: Option<SpanGuard>,
}

impl<P: EnumerableProtocol> PerStepEngine<P> {
    /// Creates a per-step engine from a per-agent configuration.
    ///
    /// # Supported populations
    ///
    /// Any `n ≥ 2` that fits in memory — but the engine *is* `O(n)` in both
    /// memory (the per-agent state vector and its encoded mirror) and time
    /// (every interaction is executed), so it is practical up to `n ≈ 10⁶`;
    /// use the count engines ([`BatchSimulation`],
    /// [`MultiBatchSimulation`], [`AdaptiveSimulation`]) beyond that.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size does not match
    /// [`crate::Protocol::population_size`].
    pub fn new(protocol: P, config: Configuration<P::State>, seed: u64) -> Self {
        let encoded: Vec<usize> = config.iter().map(|s| protocol.encode(s)).collect();
        let mut counts = vec![0u64; protocol.num_states()];
        for &index in &encoded {
            counts[index] += 1;
        }
        PerStepEngine {
            sim: Simulation::new(protocol, config, seed),
            counts: CountConfiguration::from_counts(counts),
            encoded,
            telemetry: Telemetry::disabled(),
            span: None,
        }
    }

    /// Attaches a [`Telemetry`] handle. An enabled handle also exposes the
    /// per-agent [`InteractionMetrics`] (only this engine has them — see
    /// [`Self::interaction_metrics`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached [`Telemetry`] handle (disabled unless
    /// [`Self::set_telemetry`] was called with an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The per-agent interaction load since construction, as the wrapped
    /// [`Simulation`] records it — `Some` only while an enabled telemetry
    /// handle is attached (see [`SimBuilder::telemetry`]).
    ///
    /// Only the per-step engine has per-agent metrics. The count engines
    /// treat agents as anonymous multiplicities, so there is no per-agent
    /// interaction load to report under them, at any price. The telemetry
    /// deterministic stream carries an `interaction_balance` summary only
    /// for per-step runs for the same reason.
    pub fn interaction_metrics(&self) -> Option<&InteractionMetrics> {
        self.telemetry.is_enabled().then(|| self.sim.metrics())
    }

    /// Creates a per-step engine from the protocol's clean initial
    /// configuration.
    pub fn clean(protocol: P, seed: u64) -> Self
    where
        P: CleanInit,
    {
        let config = Configuration::clean(&protocol);
        Self::new(protocol, config, seed)
    }

    /// The wrapped per-agent simulation (per-agent metrics, exact
    /// configuration access).
    pub fn simulation(&self) -> &Simulation<P> {
        &self.sim
    }

    /// Executes one interaction and updates the count mirror. Returns
    /// `false` when the scheduler is exhausted.
    fn step_once(&mut self) -> bool {
        let Some(pair) = self.sim.step() else {
            return false;
        };
        self.telemetry.count(Counter::PerStepInteractions, 1);
        let (i, j) = (pair.initiator.index(), pair.responder.index());
        let (new_u, new_v) = {
            let protocol = self.sim.protocol();
            let config = self.sim.configuration();
            (
                protocol.encode(config.state(pair.initiator)),
                protocol.encode(config.state(pair.responder)),
            )
        };
        let (old_u, old_v) = (self.encoded[i], self.encoded[j]);
        if (new_u, new_v) != (old_u, old_v) {
            self.counts
                .ensure_num_states(self.sim.protocol().num_states());
            self.counts.apply_transition((old_u, old_v), (new_u, new_v));
            self.encoded[i] = new_u;
            self.encoded[j] = new_v;
        }
        true
    }
}

impl<P: EnumerableProtocol> SimulationEngine<P> for PerStepEngine<P> {
    fn protocol(&self) -> &P {
        self.sim.protocol()
    }
    fn counts(&self) -> &CountConfiguration {
        &self.counts
    }
    fn to_configuration(&self) -> Configuration<P::State> {
        Configuration::from_states(self.sim.configuration().as_slice().to_vec())
    }
    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }
    fn advance(&mut self, _cap: u64) -> Advance {
        self.span
            .get_or_insert_with(|| self.telemetry.span(SpanKind::PerStepRun));
        Advance {
            executed: u64::from(self.step_once()),
            stalled: false,
        }
    }
    /// Also pushes the current per-agent load summary into the telemetry
    /// report (while telemetry is enabled).
    fn end_run(&mut self, checks: u64) {
        self.telemetry.count(Counter::PerStepStrideChecks, checks);
        if let Some(metrics) = self.interaction_metrics() {
            self.telemetry.record_balance(BalanceSummary {
                n: self.encoded.len() as u64,
                total: metrics.total(),
                min: metrics.min(),
                max: metrics.max(),
                max_imbalance: metrics.max_imbalance(),
            });
        }
        self.span = None;
    }
}

/// Switching policy of the [`AdaptiveSimulation`].
///
/// The policy is a hysteresis band on the *active-interaction fraction* —
/// the probability that a uniformly random ordered pair changes state. The
/// batched engine's cost per interaction is proportional to that fraction
/// (it pays only for state changes), while the multi-batch engine's is a
/// constant `≈ 1/(0.63·√n)` epoch share — so high activity favors
/// multi-batch and silence favors batched. Decisions depend only on
/// simulation state (never on wall-clock time), so adaptive runs stay
/// deterministic under a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdaptiveConfig {
    /// Hand off multi-batch → batched when the active fraction drops below
    /// this.
    pub low_activity: f64,
    /// Hand off batched → multi-batch when the active fraction rises above
    /// this. Must be strictly greater than
    /// [`AdaptiveConfig::low_activity`] (the gap is the hysteresis band
    /// that prevents thrashing).
    pub high_activity: f64,
    /// Interactions between activity measurements (each measurement costs
    /// O(#occupied states²) silence queries in multi-batch mode, O(1) in
    /// batched mode). `0` resolves to `max(n, 1024)` at construction.
    pub check_interval: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            low_activity: 0.02,
            high_activity: 0.08,
            check_interval: 0,
        }
    }
}

impl AdaptiveConfig {
    /// Resolves the auto values against a population size and validates the
    /// band: `0 ≤ low_activity < high_activity ≤ 1`, both finite. (Written
    /// as one positive test so that a NaN threshold, which fails every
    /// comparison, is rejected rather than let through.)
    fn try_resolved(self, n: u64) -> Result<Self, SimError> {
        let (low, high) = (self.low_activity, self.high_activity);
        if !(0.0 <= low && low < high && high <= 1.0) {
            return Err(SimError::InvalidParameters {
                reason: format!(
                    "hysteresis band requires 0 <= low_activity < high_activity <= 1, \
                     got low_activity = {low}, high_activity = {high}"
                ),
            });
        }
        Ok(AdaptiveConfig {
            check_interval: if self.check_interval == 0 {
                n.max(1024)
            } else {
                self.check_interval
            },
            ..self
        })
    }
}

/// The currently active engine of an [`AdaptiveSimulation`].
#[derive(Debug)]
enum ActiveEngine<P: EnumerableProtocol> {
    // Boxed so the enum stays pointer-sized regardless of how wide the
    // engines' inline state (u128 Fenwick bookkeeping and friends) grows.
    Batched(Box<BatchSimulation<P>>),
    MultiBatch(Box<MultiBatchSimulation<P>>),
    /// Transient state during a handoff only; observable states are always
    /// one of the two engines.
    Swapping,
}

/// Evaluates `$body` with `$sim` bound to the active engine of an
/// [`ActiveEngine`] (a static dispatch per arm).
macro_rules! on_active {
    ($inner:expr, $sim:ident => $body:expr) => {
        match $inner {
            ActiveEngine::Batched($sim) => $body,
            ActiveEngine::MultiBatch($sim) => $body,
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        }
    };
}

/// The `Auto` engine tier: multi-batch while activity is high, batched once
/// silence dominates.
///
/// The engine measures the active-interaction fraction every
/// [`AdaptiveConfig::check_interval`] interactions and hands the count
/// vector between [`MultiBatchSimulation`] and [`BatchSimulation`] at the
/// configured hysteresis thresholds. Handoffs are **exact**: both engines
/// truncate their batches at arbitrary interaction budgets without biasing
/// the schedule (geometric silent runs are memoryless, epoch prefixes are
/// exchangeable), so the stitched run has exactly the uniform-scheduler
/// distribution, and [`SimulationEngine::interactions`] /
/// [`StabilizationResult::stabilized_at`] stay absolute across handoffs.
///
/// The per-handoff cost is one `O(#occupied states²)` pair-index rebuild
/// (when entering batched mode); the hysteresis band keeps handoffs rare.
/// Each retired engine's RNG is dropped and the successor's is seeded as
/// `derive_seed(seed, #handoffs)`, so a fixed seed still reproduces the run
/// bit-for-bit.
#[derive(Debug)]
pub struct AdaptiveSimulation<P: EnumerableProtocol> {
    inner: ActiveEngine<P>,
    /// Master seed; engine `k` (0-based by handoff count) runs under
    /// `derive_seed(seed, k)`.
    seed: u64,
    handoffs: u64,
    /// Interactions executed by retired engines — added to the active
    /// engine's counter to keep absolute indices.
    base_interactions: u64,
    config: AdaptiveConfig,
    /// Interactions until the next activity measurement.
    until_check: u64,
    /// Observability handle; cloned into every inner engine so per-mode
    /// counters and spans attribute themselves, and the handoff event
    /// stream records each swap at its absolute interaction index.
    telemetry: Telemetry,
}

impl<P: EnumerableProtocol> AdaptiveSimulation<P> {
    /// Creates an adaptive simulation with an explicit switching policy,
    /// returning a typed error on invalid input. The initial engine is
    /// chosen by measuring the initial activity against
    /// [`AdaptiveConfig::high_activity`].
    ///
    /// # Supported populations
    ///
    /// `2 ≤ n ≤ 2⁶²` ([`crate::count_config::MAX_POPULATION`]) — the
    /// adaptive tier accepts exactly what its two inner count engines
    /// accept, and inherits their `O(#occupied states + √n)` memory bound.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameters`] for population/state-space mismatches
    /// (as for [`BatchSimulation::try_new`]) or an [`AdaptiveConfig`]
    /// hysteresis band outside `0 ≤ low_activity < high_activity ≤ 1`;
    /// [`SimError::UnsupportedPopulation`] past the engine bound.
    pub fn try_with_config(
        protocol: P,
        counts: CountConfiguration,
        seed: u64,
        config: AdaptiveConfig,
    ) -> Result<Self, SimError> {
        crate::count_config::validate_engine_inputs(&protocol, &counts)?;
        let config = config.try_resolved(counts.population())?;
        let fraction = measured_active_fraction(&protocol, &counts);
        let engine_seed = derive_seed(seed, 0);
        let inner = if fraction > config.high_activity {
            ActiveEngine::MultiBatch(Box::new(MultiBatchSimulation::try_new(
                protocol,
                counts,
                engine_seed,
            )?))
        } else {
            ActiveEngine::Batched(Box::new(BatchSimulation::try_new(
                protocol,
                counts,
                engine_seed,
            )?))
        };
        Ok(AdaptiveSimulation {
            inner,
            seed,
            handoffs: 0,
            base_interactions: 0,
            until_check: config.check_interval,
            config,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a [`Telemetry`] handle, cloning it into the currently active
    /// inner engine (future handoffs hand it on automatically). An enabled
    /// handle records an `engine_selected` event for the engine running now,
    /// with the activity measurement that selected it re-taken.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry.clone();
        on_active!(&mut self.inner, sim => sim.set_telemetry(telemetry));
        if self.telemetry.is_enabled() {
            self.telemetry
                .record_engine_selected(self.current_kind().label(), self.active_fraction());
        }
    }

    /// The attached [`Telemetry`] handle (disabled unless
    /// [`Self::set_telemetry`] was called with an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Creates an adaptive simulation with an explicit switching policy.
    ///
    /// # Panics
    ///
    /// Panics on any input [`Self::try_with_config`] rejects.
    pub fn with_config(
        protocol: P,
        counts: CountConfiguration,
        seed: u64,
        config: AdaptiveConfig,
    ) -> Self {
        // lint:allow(panic): documented panicking wrapper; message pinned by should_panic test
        Self::try_with_config(protocol, counts, seed, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an adaptive simulation from the protocol's clean initial
    /// configuration.
    ///
    /// Builds the counts directly via
    /// [`CountConfiguration::from_clean_init`] — no `O(n)` per-agent vector
    /// is ever materialized. Supports the same population range as
    /// [`Self::try_with_config`].
    pub fn clean(protocol: P, seed: u64) -> Self
    where
        P: CleanInit,
    {
        let counts = CountConfiguration::from_clean_init(&protocol);
        Self::with_config(protocol, counts, seed, AdaptiveConfig::default())
    }

    /// The engine currently executing interactions
    /// ([`EngineKind::Batched`] or [`EngineKind::MultiBatch`]).
    pub fn current_kind(&self) -> EngineKind {
        match &self.inner {
            ActiveEngine::Batched(_) => EngineKind::Batched,
            ActiveEngine::MultiBatch(_) => EngineKind::MultiBatch,
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        }
    }

    /// Number of engine handoffs so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// The current active-interaction fraction — exact in batched mode,
    /// recomputed from the counts in multi-batch mode.
    pub fn active_fraction(&self) -> f64 {
        match &self.inner {
            ActiveEngine::Batched(sim) => sim.active_fraction(),
            ActiveEngine::MultiBatch(sim) => measured_active_fraction(sim.protocol(), sim.counts()),
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        }
    }

    /// Hands the protocol and count vector to the other engine.
    fn swap(&mut self) {
        // The fraction that motivated this swap, re-measured here only when
        // someone is listening (the measurement is observability, never
        // control flow — `maybe_switch` decided already).
        let fraction = if self.telemetry.is_enabled() {
            self.active_fraction()
        } else {
            0.0
        };
        let retired = std::mem::replace(&mut self.inner, ActiveEngine::Swapping);
        self.handoffs += 1;
        let next_seed = derive_seed(self.seed, self.handoffs);
        let (from, to);
        self.inner = match retired {
            ActiveEngine::Batched(sim) => {
                self.base_interactions += sim.interactions();
                let (protocol, counts) = sim.into_parts();
                let mut next = MultiBatchSimulation::new(protocol, counts, next_seed);
                next.set_telemetry(self.telemetry.clone());
                (from, to) = (EngineKind::Batched, EngineKind::MultiBatch);
                ActiveEngine::MultiBatch(Box::new(next))
            }
            ActiveEngine::MultiBatch(sim) => {
                self.base_interactions += sim.interactions();
                let (protocol, counts) = sim.into_parts();
                let mut next = BatchSimulation::new(protocol, counts, next_seed);
                next.set_telemetry(self.telemetry.clone());
                (from, to) = (EngineKind::MultiBatch, EngineKind::Batched);
                ActiveEngine::Batched(Box::new(next))
            }
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        };
        self.telemetry.count(Counter::AdaptiveHandoffs, 1);
        self.telemetry.record_handoff(
            self.handoffs,
            self.base_interactions,
            from.label(),
            to.label(),
            fraction,
        );
    }

    /// Measures activity and switches engines if it crossed the band.
    fn maybe_switch(&mut self) {
        self.telemetry.count(Counter::AdaptiveActivityChecks, 1);
        let fraction = self.active_fraction();
        let should_swap = match &self.inner {
            ActiveEngine::Batched(_) => fraction > self.config.high_activity,
            ActiveEngine::MultiBatch(_) => fraction < self.config.low_activity,
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        };
        if should_swap {
            self.swap();
        }
    }
}

impl<P: EnumerableProtocol> SimulationEngine<P> for AdaptiveSimulation<P> {
    fn protocol(&self) -> &P {
        on_active!(&self.inner, sim => sim.protocol())
    }
    fn counts(&self) -> &CountConfiguration {
        on_active!(&self.inner, sim => sim.counts())
    }
    fn to_configuration(&self) -> Configuration<P::State> {
        self.counts().to_configuration(self.protocol())
    }
    /// Absolute across handoffs (retired engines' interactions included).
    fn interactions(&self) -> u64 {
        self.base_interactions + on_active!(&self.inner, sim => sim.interactions())
    }

    /// Runs the activity check if its interval elapsed — possibly handing
    /// off — then advances the active engine, capped at the next check. A
    /// stall consumes the rest of `cap` at once: a frozen configuration
    /// cannot cross the band, so no further check is needed.
    fn advance(&mut self, cap: u64) -> Advance {
        if self.until_check == 0 {
            // The check is not part of either engine's run span.
            self.end_run(0);
            self.maybe_switch();
            self.until_check = self.config.check_interval;
        }
        let chunk = cap.min(self.until_check);
        let mut step = on_active!(&mut self.inner, sim => sim.advance(chunk));
        self.until_check -= step.executed;
        if step.stalled && chunk < cap {
            step.executed += on_active!(&mut self.inner, sim => sim.advance(cap - chunk)).executed;
        }
        step
    }
    fn end_run(&mut self, checks: u64) {
        on_active!(&mut self.inner, sim => sim.end_run(checks));
    }
}

/// How a [`SimBuilder`] initializes the population.
#[derive(Debug)]
enum BuilderInit<S> {
    Clean,
    PerAgent(Configuration<S>),
    Counts(CountConfiguration),
}

/// One constructor for every engine tier: protocol + init + seed + kind →
/// boxed [`SimulationEngine`].
///
/// Replaces the per-engine `new` / `from_configuration` / `clean`
/// constructor trio at call sites (the inherent constructors remain as the
/// primitive layer). Defaults: clean initial configuration, seed 0,
/// [`EngineKind::Auto`].
///
/// The default suits small state spaces, where counts compress the
/// population. For wide-state protocols such as `ElectLeader_r`, select
/// [`EngineKind::PerStep`] (or run the bare [`Simulation`]): a trial
/// discovers far more distinct states than there are agents, so the count
/// tiers have nothing to compress, and under [`crate::DiscoveredProtocol`]
/// they pay a hash and an intern per interaction on top. The README's
/// "Picking a tier" has the measurements.
///
/// ```
/// use ppsim::engine::{EngineKind, SimBuilder, SimulationEngine};
/// use ppsim::epidemic::{OneWayEpidemic, INFORMED};
///
/// let mut sim = SimBuilder::new(OneWayEpidemic::new(512, 1))
///     .kind(EngineKind::Batched)
///     .seed(42)
///     .build();
/// let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), u64::MAX);
/// assert!(out.satisfied);
/// ```
#[derive(Debug)]
pub struct SimBuilder<P: EnumerableProtocol> {
    protocol: P,
    seed: u64,
    kind: EngineKind,
    init: BuilderInit<P::State>,
    adaptive: AdaptiveConfig,
    telemetry: Telemetry,
}

impl<P: EnumerableProtocol + 'static> SimBuilder<P> {
    /// Starts a builder for `protocol` with the default clean init, seed 0
    /// and [`EngineKind::Auto`].
    pub fn new(protocol: P) -> Self {
        SimBuilder {
            protocol,
            seed: 0,
            kind: EngineKind::Auto,
            init: BuilderInit::Clean,
            adaptive: AdaptiveConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the engine tier.
    pub fn kind(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Initializes from an explicit per-agent configuration instead of the
    /// protocol's clean initial configuration.
    pub fn config(mut self, config: Configuration<P::State>) -> Self {
        self.init = BuilderInit::PerAgent(config);
        self
    }

    /// Initializes from an explicit count configuration (materialized into
    /// per-agent form if the per-step engine is selected).
    pub fn counts(mut self, counts: CountConfiguration) -> Self {
        self.init = BuilderInit::Counts(counts);
        self
    }

    /// Sets the [`EngineKind::Auto`] switching policy (ignored by the fixed
    /// tiers).
    pub fn adaptive_config(mut self, config: AdaptiveConfig) -> Self {
        self.adaptive = config;
        self
    }

    /// Attaches a [`Telemetry`] handle to the engine being built.
    ///
    /// Keep a clone: after the run, [`Telemetry::report`] on your copy holds
    /// the counters, histograms, spans, and the deterministic event stream.
    /// The default (a disabled handle) records nothing and costs nothing —
    /// trajectories and RNG streams are bit-identical either way.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The chosen init as a per-agent configuration.
    fn per_agent_config(protocol: &P, init: BuilderInit<P::State>) -> Configuration<P::State>
    where
        P: CleanInit,
    {
        match init {
            BuilderInit::Clean => Configuration::clean(protocol),
            BuilderInit::PerAgent(config) => config,
            BuilderInit::Counts(counts) => counts.to_configuration(protocol),
        }
    }

    /// The chosen init as a count configuration.
    ///
    /// The clean init goes through the flat
    /// [`CountConfiguration::from_clean_init`] path — never materializing an
    /// `O(n)` per-agent vector — so count-engine builds stay
    /// `O(#occupied states)` in memory at any population size.
    fn count_config(protocol: &P, init: BuilderInit<P::State>) -> CountConfiguration
    where
        P: CleanInit,
    {
        match init {
            BuilderInit::Counts(counts) => counts,
            BuilderInit::Clean => CountConfiguration::from_clean_init(protocol),
            BuilderInit::PerAgent(config) => {
                CountConfiguration::from_configuration(protocol, &config)
            }
        }
    }

    /// Builds the selected engine behind the [`SimulationEngine`] trait.
    ///
    /// This is the **only** place in the workspace that dispatches over
    /// [`EngineKind`]; everything downstream works through the trait.
    pub fn build(self) -> Box<dyn SimulationEngine<P>>
    where
        P: CleanInit,
    {
        let SimBuilder {
            protocol,
            seed,
            kind,
            init,
            adaptive,
            telemetry,
        } = self;
        match kind {
            EngineKind::PerStep => {
                let config = Self::per_agent_config(&protocol, init);
                let mut sim = PerStepEngine::new(protocol, config, seed);
                sim.set_telemetry(telemetry);
                Box::new(sim)
            }
            EngineKind::Batched => {
                let counts = Self::count_config(&protocol, init);
                let mut sim = BatchSimulation::new(protocol, counts, seed);
                sim.set_telemetry(telemetry);
                Box::new(sim)
            }
            EngineKind::MultiBatch => {
                let counts = Self::count_config(&protocol, init);
                let mut sim = MultiBatchSimulation::new(protocol, counts, seed);
                sim.set_telemetry(telemetry);
                Box::new(sim)
            }
            EngineKind::Auto => {
                let counts = Self::count_config(&protocol, init);
                let mut sim = AdaptiveSimulation::with_config(protocol, counts, seed, adaptive);
                sim.set_telemetry(telemetry);
                Box::new(sim)
            }
        }
    }

    /// Builds the [`EngineKind::Auto`] engine as its concrete type (for
    /// callers that want handoff introspection — the boxed
    /// [`SimBuilder::build`] surface does not expose it). The selected
    /// [`SimBuilder::kind`] is ignored.
    pub fn build_adaptive(self) -> AdaptiveSimulation<P>
    where
        P: CleanInit,
    {
        let SimBuilder {
            protocol,
            seed,
            init,
            adaptive,
            telemetry,
            ..
        } = self;
        let counts = Self::count_config(&protocol, init);
        let mut sim = AdaptiveSimulation::with_config(protocol, counts, seed, adaptive);
        sim.set_telemetry(telemetry);
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epidemic::{OneWayEpidemic, TwoWayEpidemic, INFORMED};
    use crate::protocol::Protocol;

    fn informed_everywhere(c: &CountConfiguration) -> bool {
        c.count(INFORMED) == c.population()
    }

    #[test]
    fn engine_kind_labels_and_parse_round_trip() {
        let kinds = [
            EngineKind::PerStep,
            EngineKind::Batched,
            EngineKind::MultiBatch,
            EngineKind::Auto,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        for (kind, label) in kinds.iter().zip(&labels) {
            assert_eq!(EngineKind::parse(label), Some(*kind));
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len(), "labels must be distinct");
        assert_eq!(EngineKind::parse("sequential"), None);
    }

    #[test]
    fn every_kind_completes_the_epidemic_through_the_trait() {
        for kind in [
            EngineKind::PerStep,
            EngineKind::Batched,
            EngineKind::MultiBatch,
            EngineKind::Auto,
        ] {
            let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
                .kind(kind)
                .seed(9)
                .build();
            let out = sim.run_until(&mut informed_everywhere, u64::MAX);
            assert!(out.satisfied, "{kind:?}");
            assert_eq!(sim.counts().count(INFORMED), 256, "{kind:?}");
            assert_eq!(sim.interactions(), out.interactions, "{kind:?}");
            assert!(sim.parallel_time() > 0.0, "{kind:?}");
            assert_eq!(sim.to_configuration().len(), 256, "{kind:?}");
            assert_eq!(sim.protocol().population_size(), 256, "{kind:?}");
        }
    }

    #[test]
    fn builder_matches_the_direct_constructors_trajectory_for_fixed_kinds() {
        // The builder must not perturb RNG streams: a `Batched` build from a
        // clean init is the same run as `BatchSimulation::clean`.
        let mut direct = BatchSimulation::clean(OneWayEpidemic::new(256, 1), 42);
        let direct_out = direct.run_until(&mut |c| c.count(INFORMED) == c.population(), u64::MAX);
        let mut built = SimBuilder::new(OneWayEpidemic::new(256, 1))
            .kind(EngineKind::Batched)
            .seed(42)
            .build();
        let built_out = built.run_until(&mut informed_everywhere, u64::MAX);
        assert_eq!(direct_out.interactions, built_out.interactions);

        let mut direct = MultiBatchSimulation::clean(OneWayEpidemic::new(256, 1), 42);
        let direct_out = direct.run_until(&mut |c| c.count(INFORMED) == c.population(), u64::MAX);
        let mut built = SimBuilder::new(OneWayEpidemic::new(256, 1))
            .kind(EngineKind::MultiBatch)
            .seed(42)
            .build();
        let built_out = built.run_until(&mut informed_everywhere, u64::MAX);
        assert_eq!(direct_out.interactions, built_out.interactions);
    }

    #[test]
    fn per_step_engine_mirrors_the_bare_simulation_exactly() {
        // Same seed, same trajectory: the count mirror is pure bookkeeping.
        let protocol = OneWayEpidemic::new(128, 1);
        let config = Configuration::clean(&protocol);
        let mut bare = Simulation::new(protocol, config, 11);
        let bare_out = bare.run_until(|c| c.iter().all(|s| *s), u64::MAX);

        let mut mirrored = PerStepEngine::clean(OneWayEpidemic::new(128, 1), 11);
        let out = mirrored.run_until(&mut informed_everywhere, u64::MAX);
        assert_eq!(out.interactions, bare_out.interactions);
        assert_eq!(mirrored.counts().count(INFORMED), 128);
    }

    #[test]
    fn per_step_mirror_stays_consistent_with_a_rebuild() {
        let mut sim = PerStepEngine::clean(TwoWayEpidemic::new(64, 3), 5);
        for _ in 0..20 {
            sim.run(50);
            let rebuilt = CountConfiguration::from_configuration(
                sim.simulation().protocol(),
                sim.simulation().configuration(),
            );
            assert_eq!(sim.counts(), &rebuilt, "mirror drifted");
        }
    }

    /// A forced-switching config: thresholds inside the epidemic's activity
    /// range and a tight check interval, so a sparse epidemic hands off
    /// batched → multi-batch → batched within one run.
    fn switchy() -> AdaptiveConfig {
        AdaptiveConfig {
            low_activity: 0.05,
            high_activity: 0.10,
            check_interval: 64,
        }
    }

    #[test]
    fn adaptive_engine_hands_off_in_both_directions() {
        let mut sim = AdaptiveSimulation::with_config(
            OneWayEpidemic::new(256, 1),
            CountConfiguration::from_configuration(
                &OneWayEpidemic::new(256, 1),
                &Configuration::clean(&OneWayEpidemic::new(256, 1)),
            ),
            7,
            switchy(),
        );
        assert_eq!(sim.current_kind(), EngineKind::Batched, "sparse start");
        let out = sim.run_until(&mut informed_everywhere, u64::MAX);
        assert!(out.satisfied);
        assert_eq!(sim.counts().count(INFORMED), 256);
        assert!(
            sim.handoffs() >= 2,
            "expected batched → multibatch → batched, got {} handoffs",
            sim.handoffs()
        );
        assert_eq!(
            sim.current_kind(),
            EngineKind::Batched,
            "the near-complete epidemic is silent again"
        );
        assert_eq!(sim.interactions(), out.interactions);
    }

    /// Satellite regression: an adaptive run that hands off
    /// batched → multibatch → batched must construct the multi-batch
    /// survival table exactly once — later multibatch entries hit the
    /// thread-local cache instead of rebuilding the `O(√n)` table.
    #[test]
    fn adaptive_handoffs_reuse_the_survival_table() {
        // The gauge lives in the telemetry layer (always on, telemetry
        // handle or not).
        use crate::telemetry::survival_table_builds;
        // A population no other test on this thread uses (libtest runs each
        // test on its own thread, so the counter starts fresh anyway).
        let n = 633;
        let before = survival_table_builds();
        let mut sim = SimBuilder::new(OneWayEpidemic::new(n, 1))
            .seed(7)
            .adaptive_config(switchy())
            .build_adaptive();
        let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), u64::MAX);
        assert!(out.satisfied);
        assert!(
            sim.handoffs() >= 2,
            "run must actually hand off (got {})",
            sim.handoffs()
        );
        assert_eq!(
            survival_table_builds() - before,
            1,
            "multibatch handoffs rebuilt the survival table"
        );
        // Force one more batched → multibatch handoff: a pure cache hit.
        assert_eq!(sim.current_kind(), EngineKind::Batched);
        let after_run = survival_table_builds();
        sim.swap();
        assert_eq!(sim.current_kind(), EngineKind::MultiBatch);
        assert_eq!(
            survival_table_builds(),
            after_run,
            "re-entering multibatch rebuilt the survival table"
        );
    }

    #[test]
    fn adaptive_try_with_config_surfaces_typed_errors() {
        let protocol = OneWayEpidemic::new(8, 1);
        let counts = CountConfiguration::from_counts(vec![3, 1]);
        let err =
            AdaptiveSimulation::try_with_config(protocol, counts, 0, AdaptiveConfig::default())
                .unwrap_err();
        assert!(err.to_string().contains("must match"), "{err}");

        let protocol = OneWayEpidemic::new(8, 1);
        let counts = CountConfiguration::from_counts(vec![7, 1]);
        let bad_band = AdaptiveConfig {
            low_activity: 0.5,
            high_activity: 0.1,
            check_interval: 0,
        };
        let err = AdaptiveSimulation::try_with_config(protocol, counts, 0, bad_band).unwrap_err();
        assert!(
            err.to_string().contains("low_activity < high_activity"),
            "{err}"
        );

        // NaN fails every comparison, so it must not slip past the band
        // check; neither may thresholds outside [0, 1] or infinite ones.
        for (low, high) in [
            (f64::NAN, 0.1),
            (0.05, f64::NAN),
            (f64::NAN, f64::NAN),
            (-0.1, 0.1),
            (0.05, 1.5),
            (0.05, f64::INFINITY),
            (f64::NEG_INFINITY, 0.1),
        ] {
            let band = AdaptiveConfig {
                low_activity: low,
                high_activity: high,
                check_interval: 0,
            };
            let err = AdaptiveSimulation::try_with_config(
                OneWayEpidemic::new(8, 1),
                CountConfiguration::from_counts(vec![7, 1]),
                0,
                band,
            )
            .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidParameters { .. }),
                "({low}, {high}): {err}"
            );
            assert!(err.to_string().contains("hysteresis band"), "{err}");
        }
        // The closed ends of [0, 1] are accepted.
        let edge = AdaptiveConfig {
            low_activity: 0.0,
            high_activity: 1.0,
            check_interval: 0,
        };
        assert!(AdaptiveSimulation::try_with_config(
            OneWayEpidemic::new(8, 1),
            CountConfiguration::from_counts(vec![7, 1]),
            0,
            edge,
        )
        .is_ok());
    }

    #[test]
    fn adaptive_initial_engine_follows_initial_activity() {
        // Half informed: the two-way epidemic's mixed pairs put the active
        // fraction near 1/2, over any default-ish high threshold.
        let sim = AdaptiveSimulation::clean(TwoWayEpidemic::new(128, 64), 3);
        assert_eq!(sim.current_kind(), EngineKind::MultiBatch);
        assert!(sim.active_fraction() > 0.4);
        // One source: activity ≈ 2/n, silence dominates.
        let sim = AdaptiveSimulation::clean(TwoWayEpidemic::new(128, 1), 3);
        assert_eq!(sim.current_kind(), EngineKind::Batched);
    }

    #[test]
    fn adaptive_budget_accounting_is_exact_across_handoffs() {
        let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
            .seed(21)
            .adaptive_config(switchy())
            .build_adaptive();
        let mut total = 0u64;
        // Odd chunk sizes deliberately misaligned with the check interval.
        for chunk in [1u64, 37, 250, 999, 1, 4_321] {
            sim.run(chunk);
            total += chunk;
            assert_eq!(sim.interactions(), total, "absolute index drifted");
        }
        assert_eq!(sim.counts().counts().iter().sum::<u64>(), 256);
    }

    #[test]
    fn adaptive_fixed_seed_is_deterministic() {
        let run = |seed: u64| {
            let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
                .seed(seed)
                .adaptive_config(switchy())
                .build_adaptive();
            let out = sim.run_until(&mut informed_everywhere, u64::MAX);
            (out.interactions, sim.handoffs(), sim.counts().clone())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0, "different seeds must diverge");
    }

    #[test]
    fn adaptive_stabilization_indices_stay_absolute_across_handoffs() {
        let warm_up = 2_000u64;
        let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
            .seed(9)
            .adaptive_config(switchy())
            .build_adaptive();
        sim.run(warm_up);
        assert!(sim.handoffs() >= 1, "warm-up must cross the high threshold");
        let opts = StabilizationOptions::new(256, u64::MAX / 2).confirm_window(5_000);
        let res = sim.measure_stabilization(&mut informed_everywhere, opts);
        assert!(res.stabilized());
        let t = res.stabilized_at.unwrap();
        // The epidemic needs ≥ n - 1 informing interactions and the sparse
        // warm-up cannot have finished it, so the absolute index lies past
        // the warm-up and within this call's executed range.
        assert!(t > warm_up, "stabilized_at {t} must include the offset");
        assert!(t <= warm_up + res.interactions);
        assert_eq!(sim.interactions(), warm_up + res.interactions);
    }

    #[test]
    fn adaptive_stall_short_circuits_the_confirm_window_in_batched_mode() {
        // All informed from the start: predicate holds, nothing can change.
        // The adaptive engine must detect the stall through its batched
        // inner engine instead of grinding epochs.
        let mut sim = AdaptiveSimulation::clean(TwoWayEpidemic::new(32, 32), 1);
        assert_eq!(sim.current_kind(), EngineKind::Batched);
        let opts = StabilizationOptions::new(32, u64::MAX / 2).confirm_window(1_000);
        let res = sim.measure_stabilization(&mut informed_everywhere, opts);
        assert!(res.stabilized());
        assert_eq!(res.stabilized_at, Some(0));
        assert!(res.interactions <= 1_000);
    }

    #[test]
    fn adaptive_run_until_budget_exhaustion_reports_unsatisfied() {
        let mut sim = AdaptiveSimulation::clean(OneWayEpidemic::new(64, 1), 5);
        let out = sim.run_until(&mut informed_everywhere, 10);
        assert!(!out.satisfied);
        assert_eq!(out.interactions, 10);
    }

    #[test]
    fn measured_activity_agrees_with_the_batched_engines_exact_answer() {
        let protocol = TwoWayEpidemic::new(100, 30);
        let counts =
            CountConfiguration::from_configuration(&protocol, &Configuration::clean(&protocol));
        let measured = measured_active_fraction(&protocol, &counts);
        let sim = BatchSimulation::new(protocol, counts, 0);
        assert!((measured - sim.active_fraction()).abs() < 1e-12);
        // 30 informed × 70 uninformed mixed ordered pairs, both orders.
        assert!((measured - (2.0 * 30.0 * 70.0) / (100.0 * 99.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "low_activity < high_activity")]
    fn inverted_hysteresis_band_is_rejected() {
        let config = AdaptiveConfig {
            low_activity: 0.5,
            high_activity: 0.1,
            check_interval: 0,
        };
        let _ = SimBuilder::new(OneWayEpidemic::new(8, 1))
            .adaptive_config(config)
            .build_adaptive();
    }

    #[test]
    fn builder_counts_init_feeds_every_kind() {
        for kind in [
            EngineKind::PerStep,
            EngineKind::Batched,
            EngineKind::MultiBatch,
            EngineKind::Auto,
        ] {
            let counts = CountConfiguration::from_counts(vec![30, 2]);
            let mut sim = SimBuilder::new(TwoWayEpidemic::new(32, 1))
                .counts(counts)
                .kind(kind)
                .seed(3)
                .build();
            assert_eq!(sim.counts().count(INFORMED), 2, "{kind:?}");
            let out = sim.run_until(&mut informed_everywhere, u64::MAX);
            assert!(out.satisfied, "{kind:?}");
        }
    }
}
