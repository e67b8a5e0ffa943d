//! F1 — fleet throughput: trials/sec of a [`TrialFleet`] workload at 1
//! thread versus all available threads.
//!
//! The fleet layer's two promises are (a) independent trials scale with
//! cores and (b) aggregation is bit-identical regardless of thread count.
//! This experiment measures (a) as trials/sec rows and *asserts* (b) inline
//! by comparing the [`TrialSummary`] of the 1-thread and N-thread runs
//! (counts, mean, standard deviation, percentiles and extremes).
//!
//! The workload is one one-way-epidemic completion per trial under the
//! `Auto` engine at [`Scale::fleet_n`] agents: a few milliseconds per trial,
//! so the fleet fan-out — not the engine — dominates the measurement.

use crate::runner::TrialSummary;
use crate::scale::{EngineKind, Scale};
use crate::table::{fmt_f64, Table};
use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
use ppsim::rng::derive_seed;
use ppsim::TrialFleet;
use std::time::Instant;

/// One thread configuration's measurement.
#[derive(Debug, Clone)]
pub struct FleetThroughput {
    /// Worker threads the fleet ran with.
    pub threads: usize,
    /// Fleet wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Trials per wall-clock second.
    pub trials_per_sec: f64,
    /// The trials folded in trial order (observation = completion parallel
    /// time).
    pub summary: TrialSummary,
}

/// Runs the fleet workload with a forced thread count and measures
/// throughput plus the aggregate.
pub fn measure_fleet_throughput(
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
        threads,
        wall_ms,
        trials_per_sec: trials as f64 / (wall_ms / 1_000.0).max(1e-9),
        summary,
    }
}

/// F1 — the fleet-throughput table: one row per thread configuration.
///
/// # Panics
///
/// Panics if the 1-thread and N-thread summaries differ — that
/// would mean the fleet's schedule-independence guarantee is broken, which
/// must fail the run rather than publish a silently thread-dependent table.
pub fn f1_fleet_throughput(scale: Scale) -> Table {
    let trials = scale.fleet_trials();
    let n = scale.fleet_n();
    let base_seed = derive_seed(scale.base_seed() ^ 0xF1EE7, n as u64);
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize];
    if available >= 2 {
        thread_counts.push(2);
    }
    if available > 2 {
        thread_counts.push(available);
    }

    let mut table = Table::new(
        "F1 — fleet throughput: one-way-epidemic trials/sec, 1 thread vs N threads",
        &[
            "workload",
            "threads",
            "trials",
            "wall ms",
            "trials/sec",
            "success rate",
            "mean parallel time",
        ],
    );
    let workload = format!("epidemic n={n} (auto engine)");
    let mut runs: Vec<FleetThroughput> = Vec::new();
    for &threads in &thread_counts {
        let run = measure_fleet_throughput(n, trials, base_seed, threads);
        table.push_row([
            workload.clone(),
            threads.to_string(),
            run.summary.trials.to_string(),
            fmt_f64(run.wall_ms),
            fmt_f64(run.trials_per_sec),
            fmt_f64(run.summary.success_rate()),
            run.summary
                .mean_parallel_time()
                .map(fmt_f64)
                .unwrap_or_else(|| "-".into()),
        ]);
        runs.push(run);
    }

    let reference = &runs[0].summary;
    for run in &runs[1..] {
        assert_eq!(
            &run.summary, reference,
            "fleet summary must be bit-identical across thread counts"
        );
    }
    table.push_note(format!(
        "aggregates bit-identical across {} thread configuration(s): mean bits {:#018x}",
        runs.len(),
        reference.mean_parallel_time().unwrap_or(0.0).to_bits()
    ));
    if let (Some(single), Some(multi)) = (
        runs.iter().find(|r| r.threads == 1),
        runs.iter().rev().find(|r| r.threads > 1),
    ) {
        table.push_note(format!(
            "fleet speedup: {:.2}× trials/sec at {} threads vs 1 thread",
            multi.trials_per_sec / single.trials_per_sec.max(1e-9),
            multi.threads
        ));
    } else {
        table.push_note(
            "single-core host: N-thread comparison rows skipped (run on a multi-core machine \
             or CI for the speedup figure)"
                .to_string(),
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_throughput_aggregates_are_thread_independent() {
        let a = measure_fleet_throughput(128, 8, 0xF1, 1);
        let b = measure_fleet_throughput(128, 8, 0xF1, 4);
        assert_eq!(a.summary.trials, 8);
        assert_eq!(a.summary, b.summary);
        assert!(a.trials_per_sec > 0.0);
    }

    #[test]
    fn f1_table_has_a_one_thread_row_and_notes() {
        let table = f1_fleet_throughput(Scale::Tiny);
        assert!(table.rows.iter().any(|r| r[1] == "1"));
        assert!(
            table.notes.iter().any(|n| n.contains("bit-identical")),
            "{:?}",
            table.notes
        );
        for row in &table.rows {
            let tps: f64 = row[4].parse().unwrap();
            assert!(tps > 0.0);
            assert_eq!(row[5], fmt_f64(1.0), "every epidemic trial completes");
        }
    }
}
