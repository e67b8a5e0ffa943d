//! The run-loop contract every engine tier shares, checked table-driven
//! over the four [`EngineKind`]s and the bare per-agent [`Simulation`]:
//! exact budget accounting, absolute `stabilized_at` after a warm start, the
//! confirmation-window early stop, stall short-circuiting, and budgets up to
//! `u64::MAX` on warm-started engines.

use ppsim::convergence::StabilizationResult;
use ppsim::epidemic::{OneWayEpidemic, TwoWayEpidemic, INFORMED};
use ppsim::simulation::{RunOutcome, StabilizationOptions};
use ppsim::{
    CleanInit, Configuration, EngineKind, EnumerableProtocol, SimBuilder, Simulation,
    SimulationEngine,
};

/// A predicate over (informed agents, population) — the one question the
/// epidemic workloads below ask, phrased so every view can answer it.
type Pred = fn(u64, u64) -> bool;

/// The surface under test, over either predicate view.
trait Subject {
    fn run(&mut self, budget: u64) -> u64;
    fn run_until(&mut self, pred: Pred, budget: u64) -> RunOutcome;
    fn measure(&mut self, pred: Pred, opts: StabilizationOptions) -> StabilizationResult;
    fn interactions(&self) -> u64;
}

impl<P: EnumerableProtocol> Subject for Box<dyn SimulationEngine<P>> {
    fn run(&mut self, budget: u64) -> u64 {
        SimulationEngine::run(self.as_mut(), budget)
    }
    fn run_until(&mut self, pred: Pred, budget: u64) -> RunOutcome {
        SimulationEngine::run_until(
            self.as_mut(),
            &mut |c| pred(c.count(INFORMED), c.population()),
            budget,
        )
    }
    fn measure(&mut self, pred: Pred, opts: StabilizationOptions) -> StabilizationResult {
        self.measure_stabilization(&mut |c| pred(c.count(INFORMED), c.population()), opts)
    }
    fn interactions(&self) -> u64 {
        SimulationEngine::interactions(self.as_ref())
    }
}

fn informed(c: &Configuration<bool>) -> u64 {
    c.iter().filter(|s| **s).count() as u64
}

impl<P: ppsim::Protocol<State = bool>> Subject for Simulation<P> {
    fn run(&mut self, budget: u64) -> u64 {
        Simulation::run(self, budget)
    }
    fn run_until(&mut self, pred: Pred, budget: u64) -> RunOutcome {
        Simulation::run_until(self, |c| pred(informed(c), c.len() as u64), budget)
    }
    fn measure(&mut self, pred: Pred, opts: StabilizationOptions) -> StabilizationResult {
        self.measure_stabilization(|c| pred(informed(c), c.len() as u64), opts)
    }
    fn interactions(&self) -> u64 {
        Simulation::interactions(self)
    }
}

/// One table row: a label, the subject, and whether it detects a frozen
/// configuration (the batched tier, and `Auto` through it).
struct Row {
    label: &'static str,
    subject: Box<dyn Subject>,
    detects_stalls: bool,
}

/// Every engine tier plus the bare simulation, on the same initial
/// configuration and seed.
fn rows<P>(protocol: P, seed: u64) -> Vec<Row>
where
    P: EnumerableProtocol<State = bool> + CleanInit + Clone + 'static,
{
    let mut rows: Vec<Row> = [
        (EngineKind::PerStep, false),
        (EngineKind::Batched, true),
        (EngineKind::MultiBatch, false),
        (EngineKind::Auto, true),
    ]
    .into_iter()
    .map(|(kind, detects_stalls)| Row {
        label: kind.label(),
        subject: Box::new(
            SimBuilder::new(protocol.clone())
                .kind(kind)
                .seed(seed)
                .build(),
        ) as Box<dyn Subject>,
        detects_stalls,
    })
    .collect();
    let config = Configuration::clean(&protocol);
    rows.push(Row {
        label: "bare",
        subject: Box::new(Simulation::new(protocol, config, seed)),
        detects_stalls: false,
    });
    rows
}

fn all_informed(informed: u64, n: u64) -> bool {
    informed == n
}

fn never(_: u64, _: u64) -> bool {
    false
}

fn always(_: u64, _: u64) -> bool {
    true
}

#[test]
fn budget_exhaustion_reports_exact_interactions() {
    for Row {
        label, mut subject, ..
    } in rows(OneWayEpidemic::new(64, 1), 5)
    {
        let out = subject.run_until(never, 0);
        assert_eq!((out.interactions, out.satisfied), (0, false), "{label}");
        let out = subject.run_until(never, 200);
        assert_eq!((out.interactions, out.satisfied), (200, false), "{label}");
        let out = subject.run_until(never, 37);
        assert_eq!(out.interactions, 37, "{label}: the count is relative");
        assert_eq!(
            subject.interactions(),
            237,
            "{label}: the index is absolute"
        );
        assert_eq!(subject.run(63), 63, "{label}");
        assert_eq!(subject.interactions(), 300, "{label}");
    }
}

#[test]
fn stabilized_at_is_absolute_after_a_warm_start() {
    let warm_up = 10;
    let window = 2_000;
    for Row {
        label, mut subject, ..
    } in rows(OneWayEpidemic::new(64, 1), 9)
    {
        assert_eq!(subject.run(warm_up), warm_up, "{label}");
        let opts = StabilizationOptions::new(64, u64::MAX / 2).confirm_window(window);
        let res = subject.measure(all_informed, opts);
        let t = res.stabilized_at.expect(label);
        // The epidemic needs at least n - 1 informing interactions, so it
        // cannot have completed within the warm-up.
        assert!(
            t > warm_up,
            "{label}: stabilized_at {t} must include the offset"
        );
        // Completion is permanent, so the run stops exactly one window
        // after it.
        assert_eq!(res.interactions, t - warm_up + window, "{label}");
        assert_eq!(
            subject.interactions(),
            warm_up + res.interactions,
            "{label}"
        );
        assert_eq!(res.n, 64, "{label}");
    }
}

#[test]
fn confirm_window_stops_the_run_early() {
    let window = 500;
    for Row {
        label, mut subject, ..
    } in rows(OneWayEpidemic::new(256, 1), 3)
    {
        subject.run(7);
        let opts = StabilizationOptions::new(256, 1_000_000).confirm_window(window);
        let res = subject.measure(always, opts);
        assert_eq!(res.stabilized_at, Some(7), "{label}");
        assert_eq!(res.interactions, window, "{label}");
        // A predicate that never holds runs the whole budget.
        let opts = StabilizationOptions::new(256, 1_234).confirm_window(window);
        let res = subject.measure(never, opts);
        assert_eq!(
            (res.stabilized_at, res.interactions),
            (None, 1_234),
            "{label}"
        );
    }
}

#[test]
fn a_frozen_configuration_short_circuits_stall_detecting_tiers() {
    // Every agent informed: no pair can change state again.
    for Row {
        label,
        mut subject,
        detects_stalls,
    } in rows(TwoWayEpidemic::new(64, 64), 3)
    {
        // The confirmation window is consumed exactly, stall or not.
        let opts = StabilizationOptions::new(64, u64::MAX).confirm_window(1_000);
        let res = subject.measure(all_informed, opts);
        assert_eq!(
            (res.stabilized_at, res.interactions),
            (Some(0), 1_000),
            "{label}"
        );
        if detects_stalls {
            // An unreachable predicate returns at once with the whole budget
            // consumed as silence — including from a warm start, where the
            // budget is clamped to keep the absolute index in range.
            let out = subject.run_until(|informed, _| informed == 0, u64::MAX);
            assert!(!out.satisfied, "{label}");
            assert_eq!(out.interactions, u64::MAX - 1_000, "{label}");
            assert_eq!(subject.interactions(), u64::MAX, "{label}");
        }
    }
}

#[test]
fn u64_max_budgets_are_safe_after_a_warm_start() {
    for Row {
        label,
        mut subject,
        detects_stalls,
    } in rows(TwoWayEpidemic::new(64, 64), 3)
    {
        assert_eq!(subject.run(10), 10, "{label}");
        if detects_stalls {
            let out = subject.run_until(|informed, _| informed == 0, u64::MAX);
            assert_eq!(out.interactions, u64::MAX - 10, "{label}");
            assert_eq!(subject.interactions(), u64::MAX, "{label}");
            assert_eq!(subject.run(u64::MAX), 0, "{label}: no budget left");
        } else {
            // Tiers without stall detection cannot reach the bound; a
            // satisfiable predicate must still come back exact.
            let out = subject.run_until(all_informed, u64::MAX);
            assert_eq!((out.interactions, out.satisfied), (0, true), "{label}");
            let opts = StabilizationOptions::new(64, u64::MAX).confirm_window(100);
            let res = subject.measure(all_informed, opts);
            assert_eq!(
                (res.stabilized_at, res.interactions),
                (Some(10), 100),
                "{label}"
            );
        }
    }
}
