//! `sweep` — the deterministic epidemic sweep, the one experiment id outside
//! the [`super::REGISTRY`]: its [`JobSpec`] carries its own engine, seed and
//! trial count, and the rendered document embeds that spec and its result id.

use crate::runner::TrialSummary;
use crate::spec::JobSpec;
use crate::table::{fmt_f64, Table};
use ppsim::digest::{hex16, Fnv64};
use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
use ppsim::rng::derive_seed;
use ppsim::TrialFleet;

/// The experiment id of [`epidemic_sweep`], accepted by
/// [`super::by_id`] besides the [`super::REGISTRY`] ids.
pub const SWEEP_EXPERIMENT: &str = "sweep";

/// The deterministic epidemic sweep.
///
/// One one-way epidemic cell per population in
/// [`crate::Scale::batched_n_values`], run under the spec's engine with
/// `spec.trials` trials per cell (per-cell base seeds derive injectively
/// from `spec.seed`). Unlike the registry's E10 table, every column
/// here is **timing-free** — counts, seeded completion times, and a
/// word-fold FNV digest of the exact sample bit patterns — so the rendered
/// document is byte-identical across runs, machines, and thread counts.
/// `ci/sweep-quick.json` pins the Quick document.
pub fn epidemic_sweep(spec: &JobSpec) -> Table {
    let mut table = Table::new(
        format!(
            "SWEEP — deterministic epidemic sweep ({}, {}, seed {}, trials {})",
            spec.scale.label(),
            spec.engine.label(),
            spec.seed,
            spec.trials
        ),
        &[
            "n",
            "trials",
            "successes",
            "mean pt",
            "min pt",
            "max pt",
            "sample digest",
        ],
    );
    for n in spec.scale.batched_n_values() {
        let nf = n as f64;
        let budget = (50.0 * nf * nf.ln().max(1.0)).ceil() as u64;
        let observations =
            TrialFleet::new(spec.trials, derive_seed(spec.seed, n as u64)).run(|trial_seed| {
                measure_epidemic_time_with(
                    OneWayEpidemic::new(n, 1),
                    spec.engine,
                    trial_seed,
                    budget,
                )
                .map(|interactions| interactions as f64 / nf)
            });
        table.push_row(sweep_row(n, &observations));
    }
    table.push_note(format!("spec: {}", spec.canonical_json()));
    table.push_note(format!("result id: {}", spec.cache_key()));
    table.push_note(
        "timing-free by design: identical bytes for identical specs across machines \
         and thread counts"
            .to_string(),
    );
    table
}

/// One sweep cell: counts, the mean and extremes of the completion times
/// (`0`, `inf` and `-inf` when no trial completed), and the FNV digest of
/// their bit patterns in ascending order.
fn sweep_row(n: usize, observations: &[Option<f64>]) -> [String; 7] {
    let summary = TrialSummary::of(observations);
    let (mean, min, max) = summary
        .parallel_time
        .map_or((0.0, f64::INFINITY, f64::NEG_INFINITY), |s| {
            (s.mean, s.min, s.max)
        });
    let mut sample: Vec<f64> = observations.iter().flatten().copied().collect();
    sample.sort_by(f64::total_cmp);
    let mut digest = Fnv64::new();
    for value in sample {
        digest.write_f64_bits(value);
    }
    [
        n.to_string(),
        summary.trials.to_string(),
        summary.successes.to_string(),
        fmt_f64(mean),
        fmt_f64(min),
        fmt_f64(max),
        hex16(digest.finish()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use ppsim::EngineKind;

    #[test]
    fn sweep_is_deterministic_byte_for_byte() {
        let spec = JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny);
        assert_eq!(
            epidemic_sweep(&spec).to_json(),
            epidemic_sweep(&spec).to_json()
        );
    }

    #[test]
    fn sweep_responds_to_every_spec_knob() {
        let base = JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny);
        let baseline = epidemic_sweep(&base).to_json();
        for variant in [
            JobSpec {
                seed: 99,
                ..base.clone()
            },
            JobSpec {
                trials: 3,
                ..base.clone()
            },
            JobSpec {
                engine: EngineKind::Batched,
                ..base.clone()
            },
        ] {
            assert_ne!(baseline, epidemic_sweep(&variant).to_json(), "{variant:?}");
        }
    }

    #[test]
    fn sweep_cells_complete_at_tiny_scale() {
        let table = epidemic_sweep(&JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny));
        assert_eq!(table.rows.len(), Scale::Tiny.batched_n_values().len());
        for row in &table.rows {
            assert_eq!(
                row[1], row[2],
                "every epidemic trial must complete: {row:?}"
            );
        }
    }

    #[test]
    fn sweep_row_renders_a_cell_without_completions() {
        let row = sweep_row(64, &[None, None]);
        assert_eq!(
            row,
            [
                "64",
                "2",
                "0",
                "0",
                "inf",
                "-inf",
                &hex16(Fnv64::new().finish())
            ]
        );
    }

    #[test]
    fn by_id_sweep_matches_the_default_spec() {
        // The driver's `sweep` id runs the scale's default spec; the
        // committed `ci/sweep-quick.json` pivots on this.
        let via_registry =
            crate::experiments::by_id(SWEEP_EXPERIMENT).unwrap()(Scale::Tiny).to_json();
        let via_spec = epidemic_sweep(&JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny)).to_json();
        assert_eq!(via_registry, via_spec);
    }
}
