//! Integration tests for the count-based engines behind the unified
//! `ppsim::engine` API: statistical equivalence with the per-step engine,
//! and determinism regressions.
//!
//! The engines draw randomness differently, so equal seeds give different
//! trajectories; what must agree is the *distribution* of observables. The
//! epidemic completion time is the sharpest such observable available in
//! closed form (exact mean 2(n−1)·H_{n−1} for the one-way epidemic, which
//! every engine's sample mean is held to), so the equivalence tests compare
//! completion-time samples of the engines by mean, variance, and a
//! two-sample Kolmogorov–Smirnov distance; the same
//! statistics cover the enumerated baselines (direct-collision ranking,
//! loosely-stabilizing leader election) and — via the dynamic state indexer
//! (`ppsim::DiscoveredProtocol`) — `ElectLeader_r` itself. Every arm of
//! every comparison — the `Auto` adaptive tier included — goes through
//! `ppsim::SimBuilder`; there is no per-engine dispatch in this file. All
//! seeds are fixed, so these tests are deterministic — the tolerances carry
//! wide margins over the observed statistics rather than guarding against
//! flake.

use baselines::{DirectCollisionSsle, LooselyStabilizingLe};
use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
use ppsim::simulation::StabilizationOptions;
use ppsim::stats::ks_distance;
use ppsim::{
    AdaptiveConfig, BatchSimulation, CountConfiguration, DiscoveredProtocol, EngineKind,
    MultiBatchSimulation, SimBuilder, SimulationEngine, Summary, TrialFleet,
};
use ssle_core::{output, ElectLeader};

const N: usize = 512;
const TRIALS: usize = 48;
const BASE_SEED: u64 = 0xBA7C_4ED0;

/// An adaptive policy whose hysteresis band sits inside the test
/// populations' activity range, with a tight check interval — so the `Auto`
/// arms below exercise *real* handoffs (batched → multi-batch → batched for
/// a sparse epidemic), not a degenerate single-engine run. The equivalence
/// margins then certify that the handoff itself is distribution-preserving.
fn switchy() -> AdaptiveConfig {
    AdaptiveConfig {
        low_activity: 0.05,
        high_activity: 0.10,
        check_interval: 256,
    }
}

/// Trials fan out over worker threads via [`TrialFleet`]; the per-trial
/// seeds (`derive_seed(BASE_SEED, trial)`) and the returned sample order are
/// identical to the old sequential loop, so every tolerance below is
/// unaffected by the parallelism.
fn completion_samples(engine: EngineKind) -> Vec<f64> {
    TrialFleet::new(TRIALS, BASE_SEED).run(|seed| {
        let protocol = OneWayEpidemic::new(N, 1);
        measure_epidemic_time_with(protocol, engine, seed, u64::MAX).expect("epidemic completes")
            as f64
    })
}

/// Asserts that two hitting-time samples of the same distribution agree in
/// mean (relative tolerance) and KS distance (absolute bound).
fn assert_distributions_agree(
    what: &str,
    per_step: &[f64],
    batched: &[f64],
    mean_tolerance: f64,
    ks_bound: f64,
) {
    let (s_ps, s_b) = (Summary::of(per_step), Summary::of(batched));
    assert!(
        (s_ps.mean - s_b.mean).abs() < mean_tolerance * s_ps.mean,
        "{what}: means disagree — per-step {}, batched {}",
        s_ps.mean,
        s_b.mean
    );
    let d = ks_distance(per_step, batched);
    assert!(d < ks_bound, "{what}: KS distance {d} exceeds {ks_bound}");
}

#[test]
fn engines_agree_on_the_completion_time_distribution() {
    let per_step = completion_samples(EngineKind::PerStep);
    let batched = completion_samples(EngineKind::Batched);
    let s_ps = Summary::of(&per_step);
    let s_b = Summary::of(&batched);

    // Mean: the standard error of each mean is ~2% of it, so a 12%
    // tolerance is a > 4σ margin. (Each mean against the exact value:
    // `every_engine_matches_the_exact_epidemic_mean`.)
    let (m_ps, m_b) = (s_ps.mean, s_b.mean);
    assert!(
        (m_ps - m_b).abs() < 0.12 * m_ps,
        "means disagree: per-step {m_ps}, batched {m_b}"
    );

    // Variance: a factor-3 band around equality (the ratio of two 48-sample
    // variance estimates of the same distribution stays well inside it).
    let ratio = (s_ps.std_dev / s_b.std_dev).powi(2);
    assert!(
        (1.0 / 3.0..=3.0).contains(&ratio),
        "variance ratio {ratio} outside [1/3, 3]"
    );

    // KS: the 1% critical value for two 48-sample ECDFs is ≈ 0.33.
    let d = ks_distance(&per_step, &batched);
    assert!(d < 0.33, "KS distance {d} exceeds the 1% critical value");
}

/// The exact law of the one-way epidemic's completion time from one source:
/// while `k` agents are informed, an interaction informs another with
/// probability `p_k = k(n−k)/(n(n−1))`, so the completion time is a sum of
/// independent geometrics, with mean `Σₖ 1/p_k = 2(n−1)·H_{n−1}` and
/// variance `Σₖ (1−p_k)/p_k²`, `k = 1…n−1`.
fn exact_epidemic_moments(n: usize) -> (f64, f64) {
    let pairs = (n * (n - 1)) as f64;
    (1..n)
        .map(|k| (k * (n - k)) as f64 / pairs)
        .fold((0.0, 0.0), |(mean, variance), p| {
            (mean + 1.0 / p, variance + (1.0 - p) / (p * p))
        })
}

/// Every engine's mean completion time matches the exact mean, ≈ 6964 at
/// `n = 512` (`2(n−1)·ln n` would be 8% low), within five standard errors
/// of a [`TRIALS`]-sample mean (σ ≈ 930, so ±671). Multi-batch sees the
/// completion only at its next epoch boundary, and `Auto` may be running
/// multi-batch then, so their means may also overshoot by about one epoch
/// (`E[L] ≈ 0.63·√n`); `2·√n` allows for it.
#[test]
fn every_engine_matches_the_exact_epidemic_mean() {
    let (mean, variance) = exact_epidemic_moments(N);
    let harmonic: f64 = (1..N).map(|k| 1.0 / k as f64).sum();
    let closed_form = 2.0 * (N as f64 - 1.0) * harmonic;
    assert!((mean - closed_form).abs() < 1e-9 * mean);
    let tolerance = 5.0 * (variance / TRIALS as f64).sqrt();
    let epoch = 2.0 * (N as f64).sqrt();
    for (engine, overshoot) in [
        (EngineKind::PerStep, 0.0),
        (EngineKind::Batched, 0.0),
        (EngineKind::MultiBatch, epoch),
        (EngineKind::Auto, epoch),
    ] {
        let m = Summary::of(&completion_samples(engine)).mean;
        assert!(
            mean - tolerance < m && m < mean + tolerance + overshoot,
            "{engine:?}: mean {m} outside the exact {mean} -{tolerance}/+{}",
            tolerance + overshoot
        );
    }
}

/// The multi-batch collision sampler produces the same epidemic
/// completion-time distribution as the per-step engine. Its completion
/// observations carry epoch granularity (`O(√n) ≈ 28` interactions at
/// `n = 512`, ~0.4% of the ~6400-interaction mean), far inside the
/// tolerances.
#[test]
fn multibatch_agrees_on_the_completion_time_distribution() {
    let per_step = completion_samples(EngineKind::PerStep);
    let multibatch = completion_samples(EngineKind::MultiBatch);
    assert_distributions_agree(
        "multi-batch epidemic completion time",
        &per_step,
        &multibatch,
        0.12,
        0.33,
    );
}

/// The adaptive `Auto` engine produces the same epidemic completion-time
/// distribution as the per-step engine while actually switching engines
/// mid-run: under the forced [`switchy`] policy a sparse epidemic starts
/// batched, hands off to multi-batch through the dense middle, and hands
/// back once silence dominates. Passing at the fixed engines' margins is
/// the statistical-exactness check of the handoff itself.
#[test]
fn auto_agrees_on_the_completion_time_distribution() {
    let per_step = completion_samples(EngineKind::PerStep);
    let auto: Vec<f64> = TrialFleet::new(TRIALS, BASE_SEED).run_indexed(|trial, seed| {
        let mut sim = SimBuilder::new(OneWayEpidemic::new(N, 1))
            .seed(seed)
            .adaptive_config(switchy())
            .build_adaptive();
        let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
        assert!(out.satisfied);
        assert!(
            sim.handoffs() >= 2,
            "trial {trial}: expected real handoffs, got {}",
            sim.handoffs()
        );
        out.interactions as f64
    });
    assert_distributions_agree(
        "adaptive epidemic completion time",
        &per_step,
        &auto,
        0.12,
        0.33,
    );
}

/// Same statistical-equivalence check for the direct-collision SSLE
/// baseline: the observable is the time until the presumed ranks first form
/// a permutation, starting from the worst-case all-rank-1 configuration.
/// One `SimBuilder` path serves every engine arm; `Auto` uses the forced
/// switching policy.
fn direct_collision_samples(engine: EngineKind, n: usize, trials: usize) -> Vec<f64> {
    TrialFleet::new(trials, BASE_SEED ^ 0xD1).run(|seed| {
        let mut sim = SimBuilder::new(DirectCollisionSsle::new(n))
            .kind(engine)
            .seed(seed)
            .adaptive_config(switchy())
            .build();
        let out = sim.run_until(&mut |c| c.counts().iter().all(|&c| c == 1), u64::MAX);
        assert!(out.satisfied);
        out.interactions as f64
    })
}

#[test]
fn engines_agree_on_direct_collision_permutation_times() {
    // The last-collision phase is heavy-tailed, so the mean needs more
    // samples than the other observables to settle.
    let (n, trials) = (24usize, 48usize);
    let per_step = direct_collision_samples(EngineKind::PerStep, n, trials);
    let batched = direct_collision_samples(EngineKind::Batched, n, trials);
    // 48 samples per engine: the KS 1% critical value is ≈ 0.33; the
    // observed statistics (3.6% mean difference, KS 0.083) sit far inside.
    assert_distributions_agree(
        "direct-collision permutation time",
        &per_step,
        &batched,
        0.20,
        0.33,
    );
    // Multi-batch arm: the all-rank-1 start is the engine's showcase — the
    // whole diagonal is active, so batched degenerates to one transition per
    // draw while multi-batch resolves Θ(√n) interactions at once. The
    // permutation time is observed at epoch commits (granularity ≈ √24 ≈ 5
    // interactions on a mean of several hundred).
    let multibatch = direct_collision_samples(EngineKind::MultiBatch, n, trials);
    assert_distributions_agree(
        "direct-collision permutation time (multi-batch)",
        &per_step,
        &multibatch,
        0.20,
        0.33,
    );
    // Auto arm: the all-active start selects multi-batch initially and the
    // spreading ranks hand off to batched as the diagonal thins out.
    let auto = direct_collision_samples(EngineKind::Auto, n, trials);
    assert_distributions_agree(
        "direct-collision permutation time (auto)",
        &per_step,
        &auto,
        0.20,
        0.33,
    );
}

/// Statistical equivalence for the loosely-stabilizing leader election
/// baseline: the observable is the first interaction with a unique leader,
/// starting from the leaderless clean configuration.
#[test]
fn engines_agree_on_loose_le_recovery_times() {
    let n = 48usize;
    let trials = 24usize;
    let timer_max = 200u32;
    let sample = |engine: EngineKind| -> Vec<f64> {
        TrialFleet::new(trials, BASE_SEED ^ 0x10).run(|seed| {
            let protocol = LooselyStabilizingLe::with_timer_max(n, timer_max);
            let handle = protocol;
            let mut sim = SimBuilder::new(protocol).kind(engine).seed(seed).build();
            let out = sim.run_until(&mut |c| c.count_where(&handle, |s| s.leader) == 1, u64::MAX);
            assert!(out.satisfied);
            out.interactions as f64
        })
    };
    let (per_step, batched) = (sample(EngineKind::PerStep), sample(EngineKind::Batched));
    assert_distributions_agree(
        "loosely-stabilizing recovery time",
        &per_step,
        &batched,
        0.35,
        0.47,
    );
}

/// The acceptance check of the dynamic state indexer: `ElectLeader_r` itself
/// runs under the count engines via `DiscoveredProtocol` — with no up-front
/// `|Q|²` enumeration — and its stabilization-time distribution matches the
/// per-step engine's. One `SimBuilder` path serves every engine arm.
fn elect_leader_samples(engine: EngineKind, n: usize, r: usize, trials: usize) -> Vec<f64> {
    // The Rc-based `DiscoveredProtocol` is not `Send`, so it is constructed
    // inside the trial closure — each worker thread builds its own.
    TrialFleet::new(trials, BASE_SEED ^ 0xE1).run(|seed| {
        let protocol = ElectLeader::with_n_r(n, r).expect("valid parameters");
        let budget = protocol.params().suggested_budget();
        let opts = StabilizationOptions::new(n, budget);
        let discovered = DiscoveredProtocol::new(protocol);
        let handle = discovered.clone();
        let mut sim = SimBuilder::new(discovered)
            .kind(engine)
            .seed(seed)
            .adaptive_config(switchy())
            .build();
        let result =
            sim.measure_stabilization(&mut |c| output::is_correct_output_counts(&handle, c), opts);
        result.stabilized_at.expect("instance stabilizes") as f64
    })
}

#[test]
fn engines_agree_on_elect_leader_stabilization_times() {
    let (n, r) = (12usize, 3usize);
    let trials = 16usize;
    let per_step = elect_leader_samples(EngineKind::PerStep, n, r, trials);
    let batched = elect_leader_samples(EngineKind::Batched, n, r, trials);
    // 16 samples per engine: KS 1% critical ≈ 0.58; stabilization times have
    // a ~15% coefficient of variation, so a 25% mean tolerance is > 4σ.
    assert_distributions_agree(
        "ElectLeader_r stabilization time",
        &per_step,
        &batched,
        0.25,
        0.58,
    );
}

/// Acceptance check of the multi-batch engine on the paper's own protocol:
/// `ElectLeader_r` runs under `MultiBatchSimulation` via
/// `DiscoveredProtocol` — randomized ranking draws take the blind path,
/// deterministic ticks batch through the memoized supports — and its
/// stabilization-time distribution matches the per-step engine's.
#[test]
fn multibatch_agrees_on_elect_leader_stabilization_times() {
    let (n, r) = (12usize, 3usize);
    let trials = 16usize;
    let per_step = elect_leader_samples(EngineKind::PerStep, n, r, trials);
    let multibatch = elect_leader_samples(EngineKind::MultiBatch, n, r, trials);
    assert_distributions_agree(
        "ElectLeader_r stabilization time (multi-batch)",
        &per_step,
        &multibatch,
        0.25,
        0.58,
    );
}

/// The adaptive engine on the paper's own protocol: high pre-stabilization
/// activity runs multi-batch, the silent confirmation window after
/// stabilization hands off to the batched engine's geometric skipping —
/// and the stabilization-time distribution still matches the per-step
/// engine's at the fixed engines' margins.
#[test]
fn auto_agrees_on_elect_leader_stabilization_times() {
    let (n, r) = (12usize, 3usize);
    let trials = 16usize;
    let per_step = elect_leader_samples(EngineKind::PerStep, n, r, trials);
    let auto = elect_leader_samples(EngineKind::Auto, n, r, trials);
    assert_distributions_agree(
        "ElectLeader_r stabilization time (auto)",
        &per_step,
        &auto,
        0.25,
        0.58,
    );
}

#[test]
fn fixed_seed_reproduces_the_exact_trajectory() {
    let run = |seed: u64| -> (u64, u64, CountConfiguration) {
        let protocol = OneWayEpidemic::new(N, 1);
        let mut sim = BatchSimulation::clean(protocol, seed);
        let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
        assert!(out.satisfied);
        (
            out.interactions,
            sim.active_interactions(),
            sim.counts().clone(),
        )
    };
    let (interactions, active, counts) = run(123);
    let (interactions2, active2, counts2) = run(123);
    assert_eq!(interactions, interactions2);
    assert_eq!(active, active2);
    assert_eq!(counts, counts2);
    assert_ne!(run(124).0, interactions, "different seeds must diverge");
}

/// Snapshot of one full batched trajectory: a refactor of the engine, the
/// samplers, or the RNG that changes any draw will move this constant. Update
/// it only for *intentional* trajectory-affecting changes, and say so in the
/// commit message.
#[test]
fn batched_trajectory_snapshot_is_stable() {
    let protocol = OneWayEpidemic::new(256, 1);
    let mut sim = BatchSimulation::clean(protocol, 42);
    let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
    assert!(out.satisfied);
    assert_eq!(sim.counts().counts(), &[0, 256]);
    assert_eq!(sim.active_interactions(), 255);
    assert_eq!(out.interactions, 3_143, "trajectory snapshot moved");
}

#[test]
fn multibatch_fixed_seed_reproduces_the_exact_trajectory() {
    let run = |seed: u64| -> (u64, u64, CountConfiguration) {
        let protocol = OneWayEpidemic::new(N, 1);
        let mut sim = MultiBatchSimulation::clean(protocol, seed);
        let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
        assert!(out.satisfied);
        (out.interactions, sim.epochs(), sim.counts().clone())
    };
    let (interactions, epochs, counts) = run(123);
    let (interactions2, epochs2, counts2) = run(123);
    assert_eq!(interactions, interactions2);
    assert_eq!(epochs, epochs2);
    assert_eq!(counts, counts2);
    assert_ne!(run(124).0, interactions, "different seeds must diverge");
}

/// Snapshot of one full multi-batch trajectory — the analogue of the
/// 3143-interaction batched snapshot above: a refactor of the engine, the
/// hypergeometric/multinomial samplers, the collision-length table, or the
/// RNG that changes any draw will move these constants. Update them only for
/// *intentional* trajectory-affecting changes, and say so in the commit
/// message.
#[test]
fn multibatch_trajectory_snapshot_is_stable() {
    let protocol = OneWayEpidemic::new(256, 1);
    let mut sim = MultiBatchSimulation::clean(protocol, 42);
    let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
    assert!(out.satisfied);
    assert_eq!(sim.counts().counts(), &[0, 256]);
    assert_eq!(out.interactions, 3_065, "trajectory snapshot moved");
    assert_eq!(sim.epochs(), 284, "epoch-count snapshot moved");
}

/// Determinism of the adaptive engine, handoffs included: a fixed seed
/// reproduces the interaction count, the handoff count, and the final
/// counts bit-for-bit (switching decisions depend only on simulation state,
/// never on wall-clock measurements).
#[test]
fn auto_fixed_seed_reproduces_the_exact_trajectory() {
    let run = |seed: u64| -> (u64, u64, CountConfiguration) {
        let mut sim = SimBuilder::new(OneWayEpidemic::new(N, 1))
            .seed(seed)
            .adaptive_config(switchy())
            .build_adaptive();
        let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
        assert!(out.satisfied);
        (out.interactions, sim.handoffs(), sim.counts().clone())
    };
    let (interactions, handoffs, counts) = run(123);
    assert_eq!(run(123), (interactions, handoffs, counts));
    assert!(handoffs >= 2, "the sparse epidemic must hand off both ways");
    assert_ne!(run(124).0, interactions, "different seeds must diverge");
}

/// The handoff-boundary regression: an adaptive run driven in small uneven
/// budget slices must keep its absolute interaction index exact across a
/// switch (the retired engine's counter is carried over, the budget is never
/// over- or under-spent), and a warm-started stabilization measurement after
/// a handoff must still report absolute indices.
#[test]
fn auto_handoff_preserves_absolute_interaction_indices() {
    let mut sim = SimBuilder::new(OneWayEpidemic::new(N, 1))
        .seed(7)
        .adaptive_config(switchy())
        .build_adaptive();
    // Drive the run in slices misaligned with the 256-interaction check
    // interval so handoffs land mid-slice.
    let mut total = 0u64;
    for chunk in [100u64, 333, 500, 777, 1_000, 123] {
        sim.run(chunk);
        total += chunk;
        assert_eq!(sim.interactions(), total, "absolute index drifted");
    }
    assert!(sim.handoffs() >= 1, "the warm-up must cross the threshold");
    let handoffs_before = sim.handoffs();
    // Warm-started measurement: stabilized_at is absolute (includes the
    // warm-up), within this call's executed range.
    let opts = StabilizationOptions::new(N, u64::MAX / 2).confirm_window(5_000);
    let res = sim.measure_stabilization(&mut |c| c.count(1) == c.population(), opts);
    assert!(res.stabilized());
    let t = res.stabilized_at.unwrap();
    assert!(t > total, "stabilized_at {t} must include the warm-up");
    assert!(t <= total + res.interactions);
    assert_eq!(sim.interactions(), total + res.interactions);
    // The completed epidemic is silent: the engine must have handed back to
    // batched (which then short-circuits the confirmation window on stall).
    assert_eq!(sim.current_kind(), EngineKind::Batched);
    assert!(sim.handoffs() >= handoffs_before);
}

/// The count representation and the per-agent representation describe the
/// same population: converting the final batched state to a per-agent
/// configuration preserves the multiset.
#[test]
fn batched_final_state_converts_to_a_full_configuration() {
    let protocol = OneWayEpidemic::new(100, 7);
    let mut sim = BatchSimulation::clean(protocol, 5);
    sim.run(1_000);
    let config = sim.to_configuration();
    assert_eq!(config.len(), 100);
    let informed = config.count_where(|s| *s);
    assert_eq!(informed as u64, sim.counts().count(1));
    assert!(informed >= 7, "sources stay informed");
}
