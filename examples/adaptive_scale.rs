//! Adaptive-engine showcase: one epidemic run under the `Auto` tier, with
//! the handoff timeline visible, raced against both fixed count engines.
//!
//! ```bash
//! cargo run --release --example adaptive_scale -- [n] [seed]
//! ```
//!
//! The sparse one-source epidemic is the adaptive engine's full exercise:
//! it starts almost fully silent (batched territory), passes through a
//! dense middle where most interactions change state (multi-batch
//! territory), and ends silent again — so a good policy hands off twice and
//! beats both fixed engines' whole-run wall clocks.

use harness::Cli;
use ppsim::epidemic::{OneWayEpidemic, INFORMED};
use ppsim::{EngineKind, SimBuilder, SimulationEngine};
use std::time::Instant;

const USAGE: &str = "usage: adaptive_scale [n] [seed]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 2);
    let n: usize = cli.arg(0).unwrap_or(1_000_000);
    let seed: u64 = cli.arg(1).unwrap_or(42);
    if n < 2 {
        cli.reject(&format!("n `{n}` must be at least 2"));
    }
    let nf = n as f64;
    let budget = (50.0 * nf * nf.ln().max(1.0)).ceil() as u64;

    println!("one-way epidemic (1 source), n = {n}, seed = {seed}");
    println!();

    // The adaptive run, with handoff introspection via the concrete type.
    let mut sim = SimBuilder::new(OneWayEpidemic::new(n, 1))
        .seed(seed)
        .build_adaptive();
    println!(
        "auto engine (thresholds: hand off to multi-batch above {:.0}% activity, back to \
         batched below {:.0}%):",
        100.0 * sim.adaptive_config().high_activity,
        100.0 * sim.adaptive_config().low_activity,
    );
    println!("  start in {} mode", sim.current_kind().label());
    let started = Instant::now();
    let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), budget);
    let auto_secs = started.elapsed().as_secs_f64();
    assert!(out.satisfied, "epidemic completes");
    println!("  completion interactions = {}", out.interactions);
    println!("  engine handoffs         = {}", sim.handoffs());
    println!("  final mode              = {}", sim.current_kind().label());
    println!("  wall clock              = {auto_secs:.3} s");
    println!();

    // The fixed engines on the same workload, through the same API.
    for kind in [EngineKind::Batched, EngineKind::MultiBatch] {
        let mut sim = SimBuilder::new(OneWayEpidemic::new(n, 1))
            .kind(kind)
            .seed(seed)
            .build();
        let started = Instant::now();
        let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), budget);
        let secs = started.elapsed().as_secs_f64();
        assert!(out.satisfied, "epidemic completes");
        println!("{} engine:", kind.label());
        println!("  completion interactions = {}", out.interactions);
        println!("  wall clock              = {secs:.3} s");
        println!(
            "  auto is {:.2}x this engine's wall clock",
            auto_secs / secs.max(1e-9)
        );
        println!();
    }
}
