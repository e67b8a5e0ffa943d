//! Stabilization detection and the one run loop every engine shares.
//!
//! A self-stabilizing protocol *stabilizes* once the population enters a
//! configuration from which the output predicate remains true forever. In a
//! finite simulation we approximate this operationally: the stabilization
//! time is the first interaction after which the predicate held continuously
//! until the end of a confirmation window (and, in the experiment harness,
//! until the end of the run).
//!
//! Every engine implements one primitive, `advance(cap)`, which executes at
//! least one and at most `cap` interactions and reports them as an
//! [`Advance`]. The three loops built on it — `run`, `run_until` and
//! `measure_stabilization` — are written here once, generic over what the
//! predicate observes: a per-agent [`crate::Configuration`] for the bare
//! [`crate::Simulation`], a [`crate::CountConfiguration`] for every
//! [`crate::SimulationEngine`]. They are monomorphized per engine, so an
//! advance is a static call. All three clamp their budget to
//! `u64::MAX − interactions()`, so the absolute interaction counter cannot
//! overflow.

use crate::simulation::{RunOutcome, StabilizationOptions};
use serde::Serialize;

/// What one `advance(cap)` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Advance {
    /// Interactions executed: at least 1 and at most the cap, or 0 when the
    /// engine can execute no more (a scripted scheduler ran out).
    pub executed: u64,
    /// The configuration is frozen — no pair can change state again — and
    /// the whole cap was consumed as silence.
    pub stalled: bool,
}

/// An engine as the run loops drive it.
pub(crate) trait Drive {
    /// What predicates observe.
    type View: ?Sized;
    /// The current configuration, as predicates observe it.
    fn view(&self) -> &Self::View;
    /// Interactions executed since construction (absolute).
    fn interactions(&self) -> u64;
    /// Population size.
    fn population(&self) -> usize;
    /// Executes at least one and at most `cap ≥ 1` interactions.
    fn advance(&mut self, cap: u64) -> Advance;
    /// Ends one loop call that evaluated its predicate `checks` times
    /// (closes telemetry spans, flushes per-run summaries).
    fn end_run(&mut self, _checks: u64) {}
}

/// Executes up to `budget` interactions unconditionally; returns the number
/// executed (less than `budget` only if the engine can execute no more).
pub(crate) fn run<E: Drive>(engine: &mut E, budget: u64) -> u64 {
    let budget = budget.min(u64::MAX - engine.interactions());
    let mut done = 0;
    while done < budget {
        let step = engine.advance(budget - done);
        if step.executed == 0 {
            break;
        }
        done += step.executed;
    }
    engine.end_run(0);
    done
}

/// Runs until `pred` holds or `budget` interactions have been executed by
/// this call, observing `pred` after every advance. A stall ends the run at
/// once: the predicate is false and can never change.
pub(crate) fn run_until<E: Drive>(
    engine: &mut E,
    mut pred: impl FnMut(&E::View) -> bool,
    budget: u64,
) -> RunOutcome {
    let budget = budget.min(u64::MAX - engine.interactions());
    let mut done = 0;
    let mut checks = 0;
    let satisfied = loop {
        checks += 1;
        if pred(engine.view()) {
            break true;
        }
        if done >= budget {
            break false;
        }
        let step = engine.advance(budget - done);
        done += step.executed;
        if step.stalled || step.executed == 0 {
            break false;
        }
    };
    engine.end_run(checks);
    RunOutcome {
        interactions: done,
        satisfied,
    }
}

/// Measures the stabilization time of `pred`: [`StabilizationResult::stabilized_at`]
/// is the absolute index from which the predicate held until the end of the
/// run, which stops early once it has held for `opts.confirm_window`
/// consecutive interactions. No advance runs past the end of the window,
/// and a stall ends the run: the current predicate value holds forever.
pub(crate) fn measure_stabilization<E: Drive>(
    engine: &mut E,
    mut pred: impl FnMut(&E::View) -> bool,
    opts: StabilizationOptions,
) -> StabilizationResult {
    let start = engine.interactions();
    let budget = opts.budget.min(u64::MAX - start);
    let mut detector = StabilizationDetector::default();
    detector.observe(start, pred(engine.view()));
    let mut checks = 1;
    let mut executed = 0;
    while executed < budget {
        let mut cap = budget - executed;
        if detector.satisfied_now() {
            let held = detector.consecutive(start + executed);
            if held >= opts.confirm_window {
                break;
            }
            cap = cap.min(opts.confirm_window - held);
        }
        let step = engine.advance(cap);
        if step.executed == 0 {
            break;
        }
        executed += step.executed;
        checks += 1;
        detector.observe(start + executed, pred(engine.view()));
        if step.stalled {
            break;
        }
    }
    engine.end_run(checks);
    StabilizationResult {
        interactions: executed,
        stabilized_at: detector.stabilized_at(),
        n: engine.population(),
    }
}

/// Tracks the first time a predicate became true and stayed true.
#[derive(Debug, Default)]
struct StabilizationDetector {
    first_satisfied: Option<u64>,
    satisfied_now: bool,
}

impl StabilizationDetector {
    /// Feeds one observation: whether the predicate holds after interaction
    /// number `interaction`.
    fn observe(&mut self, interaction: u64, satisfied: bool) {
        if satisfied {
            if self.first_satisfied.is_none() {
                self.first_satisfied = Some(interaction);
            }
        } else {
            self.first_satisfied = None;
        }
        self.satisfied_now = satisfied;
    }

    /// The first interaction index from which the predicate has held
    /// continuously up to the latest observation, if it currently holds.
    fn stabilized_at(&self) -> Option<u64> {
        if self.satisfied_now {
            self.first_satisfied
        } else {
            None
        }
    }

    /// Whether the predicate held at the latest observation.
    fn satisfied_now(&self) -> bool {
        self.satisfied_now
    }

    /// Number of consecutive interactions (ending at `now`) for which the
    /// predicate has held.
    fn consecutive(&self, now: u64) -> u64 {
        match (self.satisfied_now, self.first_satisfied) {
            (true, Some(first)) => now.saturating_sub(first),
            _ => 0,
        }
    }
}

/// The result of a stabilization measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StabilizationResult {
    /// Interactions executed **by the measuring call** (a relative count,
    /// like [`crate::RunOutcome::interactions`]).
    pub interactions: u64,
    /// The **absolute** interaction index — counted from the construction of
    /// the simulation, including interactions executed before the measuring
    /// call — at which the output predicate became true and stayed true
    /// until the end of the run, if it did. Every engine follows this
    /// convention, so warm-started measurements are comparable across them.
    pub stabilized_at: Option<u64>,
    /// Population size, for converting to parallel time.
    pub n: usize,
}

impl StabilizationResult {
    /// Whether the run stabilized within its budget.
    pub fn stabilized(&self) -> bool {
        self.stabilized_at.is_some()
    }

    /// Stabilization time in parallel time units (interactions / n), if the
    /// run stabilized.
    pub fn parallel_time(&self) -> Option<f64> {
        self.stabilized_at.map(|t| t as f64 / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_resets_on_violation() {
        let mut d = StabilizationDetector::default();
        d.observe(1, true);
        d.observe(2, true);
        assert_eq!(d.stabilized_at(), Some(1));
        assert_eq!(d.consecutive(2), 1);
        d.observe(3, false);
        assert_eq!(d.stabilized_at(), None);
        assert!(!d.satisfied_now());
        d.observe(4, true);
        assert_eq!(d.stabilized_at(), Some(4));
    }

    #[test]
    fn result_parallel_time() {
        let r = StabilizationResult {
            interactions: 1000,
            stabilized_at: Some(500),
            n: 100,
        };
        assert!(r.stabilized());
        assert_eq!(r.parallel_time(), Some(5.0));
        let r = StabilizationResult {
            interactions: 1000,
            stabilized_at: None,
            n: 100,
        };
        assert!(!r.stabilized());
        assert_eq!(r.parallel_time(), None);
    }
}
