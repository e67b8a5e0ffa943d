//! Fleet determinism probe: runs a fixed `TrialFleet` workload and prints
//! the aggregated statistics as a **timing-free CSV with exact bit
//! patterns**, so runs at different thread counts can be diffed
//! byte-for-byte.
//!
//! ```bash
//! RAYON_NUM_THREADS=1 cargo run --release --example fleet_determinism > one.csv
//! RAYON_NUM_THREADS=4 cargo run --release --example fleet_determinism > four.csv
//! cmp one.csv four.csv   # must be identical
//! ```
//!
//! Arguments: the trials per epidemic workload (default 96; the
//! `ElectLeader_r` workload runs a sixth of them) and `--trace <path>`. A
//! bad token prints the usage and exits with status 2.
//!
//! This is the workload behind the CI `fleet-determinism` job. Each
//! workload's trials run through `TrialFleet::run` and are folded in trial
//! order, in one thread, by `analysis::TrialSummary::of`. Every float
//! is rendered through `f64::to_bits` (hex), so even a one-ulp divergence
//! between schedules breaks the diff; there are no wall-clock columns to
//! launder nondeterminism through. The thread count is *reported* on stderr
//! only, keeping stdout identical across configurations.
//!
//! Two workloads cover both count-engine paths: a one-way epidemic under the
//! `Auto` tier (adaptive handoffs included) and an `ElectLeader_r` cell via
//! the dynamic state indexer (the Rc-based `DiscoveredProtocol` is built
//! inside each trial closure — per-worker, never shared).
//!
//! With `--trace <path>` the epidemic workload runs with a `ppsim::telemetry`
//! handle per trial (telemetry never moves a trajectory, so the CSV row is
//! the same), and the probe merges the per-trial reports in trial order and
//! writes the **deterministic stream only** as JSONL —
//! the telemetry analogue of the CSV: counters, histograms, and handoff
//! events with no wall-clock fields, so the exported file must also be
//! byte-identical across thread counts.

use analysis::TrialSummary;
use harness::Cli;
use ppsim::digest::Fnv64;
use ppsim::epidemic::OneWayEpidemic;
use ppsim::simulation::StabilizationOptions;
use ppsim::{DiscoveredProtocol, EngineKind, SimBuilder, Telemetry, TelemetryReport, TrialFleet};
use ssle_core::{output, ElectLeader};

const USAGE: &str = "usage: fleet_determinism [trials] [--trace <path>]";

const BASE_SEED: u64 = 0xDE7E_2141;

/// Runs the epidemic workload once: per trial, the parallel completion time
/// (`None` past the budget) and, when `traced`, the trial's telemetry report.
fn epidemic_trials(
    trials: usize,
    n: usize,
    traced: bool,
) -> Vec<(Option<f64>, Option<TelemetryReport>)> {
    let nf = n as f64;
    let budget = (50.0 * nf * nf.ln().max(1.0)).ceil() as u64;
    TrialFleet::new(trials, BASE_SEED).run(|seed| {
        let telemetry = if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let mut sim = SimBuilder::new(OneWayEpidemic::new(n, 1))
            .kind(EngineKind::Auto)
            .seed(seed)
            .telemetry(telemetry.clone())
            .build();
        let out = sim.run_until(&mut |c| c.count(1) == c.population(), budget);
        let time = out.satisfied.then(|| out.interactions as f64 / nf);
        (time, telemetry.report())
    })
}

fn elect_leader_times(trials: usize, n: usize, r: usize) -> Vec<Option<f64>> {
    TrialFleet::new(trials, BASE_SEED ^ 0xE1).run(|seed| {
        let protocol = ElectLeader::with_n_r(n, r).expect("valid parameters");
        let budget = protocol.params().suggested_budget();
        let opts = StabilizationOptions::new(n, budget);
        let discovered = DiscoveredProtocol::new(protocol);
        let handle = discovered.clone();
        let mut sim = SimBuilder::new(discovered)
            .kind(EngineKind::Batched)
            .seed(seed)
            .build();
        let result =
            sim.measure_stabilization(&mut |c| output::is_correct_output_counts(&handle, c), opts);
        result.stabilized_at.map(|t| t as f64 / n as f64)
    })
}

fn emit(workload: &str, observations: &[Option<f64>]) {
    let summary = TrialSummary::of(observations);
    let (mean, std_dev, min, max) = summary
        .parallel_time
        .map_or((0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY), |s| {
            (s.mean, s.std_dev, s.min, s.max)
        });
    // Digest of the successful observations in ascending order: every
    // value's bit pattern folded in (word-wise, `ppsim::digest::Fnv64` — the
    // CI diff contract pins this fold), so a single perturbed sample changes
    // the row.
    let mut sample: Vec<f64> = observations.iter().flatten().copied().collect();
    sample.sort_by(f64::total_cmp);
    let mut hasher = Fnv64::new();
    for v in &sample {
        hasher.write_f64_bits(*v);
    }
    println!(
        "{workload},{},{},{:#018x},{:#018x},{:#018x},{:#018x},{},{:#018x}",
        summary.trials,
        summary.successes,
        mean.to_bits(),
        std_dev.to_bits(),
        min.to_bits(),
        max.to_bits(),
        sample.len(),
        hasher.finish(),
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace <path>` may stand anywhere; what is left is the trial count.
    let trace = args.iter().position(|a| a == "--trace").map(|at| {
        let path = args.get(at + 1).cloned();
        args.drain(at..(at + 2).min(args.len()));
        path
    });
    let cli = Cli::new(USAGE, args, 1);
    let trace_path = trace.map(|path| path.unwrap_or_else(|| cli.reject("`--trace` needs a path")));
    let trials = cli
        .arg_with(0, |t| t.parse().ok().filter(|&t: &usize| t > 0))
        .unwrap_or(96);
    eprintln!(
        "fleet determinism probe: {trials} trials/workload on {} worker thread(s)",
        rayon::current_num_threads()
    );
    println!(
        "workload,trials,successes,mean_bits,std_dev_bits,min_bits,max_bits,samples,sample_digest"
    );
    let epidemic = epidemic_trials(trials, 512, trace_path.is_some());
    let times: Vec<Option<f64>> = epidemic.iter().map(|(time, _)| *time).collect();
    emit("epidemic_auto_n512", &times);
    emit(
        "elect_leader_n12_r3",
        &elect_leader_times(trials.div_ceil(6), 12, 3),
    );
    if let Some(path) = trace_path {
        // Merged in trial order, so the stream is schedule-independent.
        let mut merged = TelemetryReport::default();
        for (_, report) in &epidemic {
            merged.merge(report.as_ref().expect("traced trials carry a report"));
        }
        std::fs::write(&path, merged.deterministic_jsonl()).expect("write deterministic trace");
        eprintln!("wrote deterministic telemetry stream to {path}");
    }
}
