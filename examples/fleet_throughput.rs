//! Fleet throughput smoke: trials/sec of the same fleet workload at 1
//! worker thread versus all available threads, with an assertable speedup.
//!
//! ```bash
//! cargo run --release --example fleet_throughput            # report only
//! cargo run --release --example fleet_throughput -- --assert
//! ```
//!
//! With `--assert` the example exits nonzero unless the N-thread run beats
//! the 1-thread run by a generous margin (N-thread trials/sec must exceed
//! 1.2× single-thread when at least two cores are available) — the CI
//! fleet-throughput smoke. The margin is deliberately loose: CI runners are
//! noisy, and the guard is against *losing* parallelism entirely, not
//! against scheduler jitter. On a single-core host the assertion is vacuous
//! and the example says so.
//!
//! The trial summaries of the two runs are also compared bit-for-bit — the
//! determinism guarantee, enforced wherever the smoke runs. Any argument
//! other than `--assert` prints the usage and exits with status 2.
//!
//! The workload is one one-way-epidemic completion per trial under the
//! `Auto` engine: a few milliseconds per trial, so the fleet fan-out — not
//! the engine — dominates the measurement.

use analysis::TrialSummary;
use harness::Cli;
use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
use ppsim::{EngineKind, TrialFleet};
use std::time::Instant;

const USAGE: &str = "usage: fleet_throughput [--assert]";

/// One thread configuration's measurement.
struct FleetThroughput {
    /// Fleet wall-clock in milliseconds.
    wall_ms: f64,
    /// Trials per wall-clock second.
    trials_per_sec: f64,
    /// The trials folded in trial order (observation = completion parallel
    /// time).
    summary: TrialSummary,
}

/// Runs the fleet workload with a forced thread count and measures
/// throughput plus the aggregate.
fn measure_fleet_throughput(
    n: usize,
    trials: usize,
    base_seed: u64,
    threads: usize,
) -> FleetThroughput {
    let nf = n as f64;
    let budget = (50.0 * nf * nf.ln().max(1.0)).ceil() as u64;
    let fleet = TrialFleet::new(trials, base_seed);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds");
    let started = Instant::now();
    let observations = pool.install(|| {
        fleet.run(|seed| {
            measure_epidemic_time_with(OneWayEpidemic::new(n, 1), EngineKind::Auto, seed, budget)
                .map(|interactions| interactions as f64 / nf)
        })
    });
    let summary = TrialSummary::of(&observations);
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    FleetThroughput {
        wall_ms,
        trials_per_sec: trials as f64 / (wall_ms / 1_000.0).max(1e-9),
        summary,
    }
}

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 1);
    let assert_speedup = cli
        .arg_with(0, |token| (token == "--assert").then_some(()))
        .is_some();
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let (n, trials, base_seed) = (1_024usize, 128usize, 0xF1EE7u64);

    println!("fleet throughput smoke: epidemic n={n}, {trials} trials, auto engine");
    let single = measure_fleet_throughput(n, trials, base_seed, 1);
    println!(
        "  1 thread : {:8.1} trials/sec  ({:.0} ms wall)",
        single.trials_per_sec, single.wall_ms
    );
    if available < 2 {
        println!("  single-core host: multi-thread comparison skipped");
        if assert_speedup {
            println!("  --assert: vacuously satisfied (nothing to parallelize over)");
        }
        return;
    }

    let multi = measure_fleet_throughput(n, trials, base_seed, available);
    println!(
        "  {available} threads: {:8.1} trials/sec  ({:.0} ms wall)",
        multi.trials_per_sec, multi.wall_ms
    );
    let speedup = multi.trials_per_sec / single.trials_per_sec.max(1e-9);
    println!("  speedup  : {speedup:.2}× trials/sec");

    assert_eq!(
        single.summary, multi.summary,
        "trial summary must be bit-identical across thread counts"
    );
    println!("  aggregates bit-identical across thread counts: ok");

    if assert_speedup && speedup < 1.2 {
        eprintln!(
            "FAIL: {available}-thread fleet ran at {speedup:.2}× single-thread trials/sec \
             (expected > 1.2× on a {available}-core runner) — parallelism lost?"
        );
        std::process::exit(1);
    }
}
