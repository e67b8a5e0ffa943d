//! Batched-engine showcase: run a one-way epidemic at a million-agent scale
//! and compare wall-clock against the per-step engine at the same size —
//! both through the unified `ppsim::engine` API.
//!
//! ```bash
//! cargo run --release --example batched_scale -- [n] [seed]
//! ```
//!
//! The per-step comparison is skipped above 10⁷ agents, where it would take
//! minutes; the batched run stays in the sub-second range because its cost is
//! proportional to the `n − 1` state-changing interactions only. (The
//! per-step tier's completion predicate is O(1) per check thanks to its
//! count mirror, so it no longer needs coarse checking here.)

use harness::Cli;
use ppsim::epidemic::{epidemic_constant, measure_epidemic_time_with, OneWayEpidemic};
use ppsim::EngineKind;
use std::time::Instant;

const USAGE: &str = "usage: batched_scale [n] [seed]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 2);
    let n: usize = cli.arg(0).unwrap_or(1_000_000);
    let seed: u64 = cli.arg(1).unwrap_or(42);
    if n < 2 {
        cli.reject(&format!("n `{n}` must be at least 2"));
    }
    let nf = n as f64;
    let budget = (50.0 * nf * nf.ln().max(1.0)).ceil() as u64;

    println!("one-way epidemic, n = {n}, seed = {seed}");
    println!();

    let started = Instant::now();
    let t =
        measure_epidemic_time_with(OneWayEpidemic::new(n, 1), EngineKind::Batched, seed, budget)
            .expect("epidemic completes");
    let batched_secs = started.elapsed().as_secs_f64();
    println!("batched engine:");
    println!("  completion interactions = {t}");
    println!("  parallel time           = {:.2}", t as f64 / nf);
    println!("  epidemic constant       = {:.3}", epidemic_constant(t, n));
    println!("  wall clock              = {batched_secs:.3} s");
    println!(
        "  throughput              = {:.1} M interactions/s",
        t as f64 / batched_secs / 1e6
    );
    println!();

    if n > 10_000_000 {
        println!("per-step engine: skipped (n too large; try n <= 10^7)");
        return;
    }
    let started = Instant::now();
    let t =
        measure_epidemic_time_with(OneWayEpidemic::new(n, 1), EngineKind::PerStep, seed, budget)
            .expect("epidemic completes");
    let per_step_secs = started.elapsed().as_secs_f64();
    println!("per-step engine:");
    println!("  completion interactions = {t}");
    println!("  wall clock              = {per_step_secs:.3} s");
    println!(
        "  throughput              = {:.1} M interactions/s",
        t as f64 / per_step_secs / 1e6
    );
    println!();
    println!(
        "batched speedup: {:.1}x",
        per_step_secs / batched_secs.max(1e-9)
    );
}
