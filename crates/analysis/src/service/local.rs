//! The in-process service backend.
//!
//! [`LocalService`] is the reference implementation of
//! [`ExperimentService`]: it validates the spec and drives the experiment
//! registry (or the [`service_sweep`] workload) in the calling process, with
//! trial fan-out through `ppsim::TrialFleet` exactly as the CLI has always
//! done. The daemon's workers call straight into this type, so "what the
//! server computes" and "what a local run computes" are the same code path
//! by construction — the byte-identity contract of the service reduces to
//! the determinism of the experiments themselves.

use crate::experiments;
use crate::scale::Scale;
use crate::service::{ExperimentService, JobSpec, ServiceError, SWEEP_EXPERIMENT};
use crate::table::{fmt_f64, Table};
use ppsim::digest::{hex16, Fnv64};
use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
use ppsim::rng::derive_seed;
use ppsim::TrialFleet;

/// The in-process backend: runs jobs on the caller's thread (trials still
/// fan out across the rayon worker pool).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalService;

impl LocalService {
    /// Runs the job and returns the result as a [`Table`] (the typed form;
    /// [`ExperimentService::run_job`] renders it).
    pub fn run_table(&self, spec: &JobSpec) -> Result<Table, ServiceError> {
        spec.validate()?;
        if spec.experiment == SWEEP_EXPERIMENT {
            return Ok(service_sweep(spec));
        }
        experiments::by_id(&spec.experiment)
            .map(|run| run(spec.scale))
            .ok_or_else(|| ServiceError::UnknownExperiment(spec.experiment.clone()))
    }
}

impl ExperimentService for LocalService {
    fn run_job(&self, spec: &JobSpec) -> Result<String, ServiceError> {
        Ok(self.run_table(spec)?.to_json())
    }
}

/// The deterministic epidemic sweep — the service's native workload.
///
/// One one-way epidemic cell per population in
/// [`Scale::batched_n_values`], run under the spec's engine with
/// `spec.trials` trials per cell (per-cell base seeds derive injectively
/// from `spec.seed`). Unlike the registry's E10/F1 tables, every column
/// here is **timing-free** — counts, seeded completion times, and a
/// word-fold FNV digest of the exact sample bit patterns — so the rendered
/// document is byte-identical across runs, machines, and thread counts.
/// That property is what the cache-correctness and remote-vs-local
/// byte-diff assertions key on.
pub fn service_sweep(spec: &JobSpec) -> Table {
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
        let stats = TrialFleet::new(spec.trials, derive_seed(spec.seed, n as u64)).run_stats(
            |trial_seed| {
                measure_epidemic_time_with(
                    OneWayEpidemic::new(n, 1),
                    spec.engine,
                    trial_seed,
                    budget,
                )
                .map(|interactions| interactions as f64 / nf)
            },
        );
        let mut digest = Fnv64::new();
        for sample in stats.samples() {
            digest.write_f64_bits(*sample);
        }
        table.push_row([
            n.to_string(),
            stats.trials.to_string(),
            stats.successes.to_string(),
            fmt_f64(stats.value.mean()),
            fmt_f64(stats.value.min()),
            fmt_f64(stats.value.max()),
            hex16(digest.finish()),
        ]);
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

/// Whether `scale` keeps the sweep cheap enough for inline test use.
pub fn sweep_is_test_sized(scale: Scale) -> bool {
    matches!(scale, Scale::Tiny)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::EngineKind;

    #[test]
    fn sweep_is_deterministic_byte_for_byte() {
        let spec = JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny);
        let a = service_sweep(&spec).to_json();
        let b = service_sweep(&spec).to_json();
        assert_eq!(a, b);
        assert!(sweep_is_test_sized(spec.scale));
    }

    #[test]
    fn sweep_responds_to_every_spec_knob() {
        let base = JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny);
        let baseline = service_sweep(&base).to_json();
        assert_ne!(baseline, service_sweep(&base.clone().seed(99)).to_json());
        assert_ne!(baseline, service_sweep(&base.clone().trials(3)).to_json());
        assert_ne!(
            baseline,
            service_sweep(&base.clone().engine(EngineKind::Batched)).to_json()
        );
    }

    #[test]
    fn sweep_cells_complete_at_tiny_scale() {
        let table = service_sweep(&JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny));
        assert_eq!(table.rows.len(), Scale::Tiny.batched_n_values().len());
        for row in &table.rows {
            assert_eq!(
                row[1], row[2],
                "every epidemic trial must complete: {row:?}"
            );
        }
    }

    #[test]
    fn local_service_runs_registry_and_sweep_jobs() {
        let service = LocalService;
        let sweep = service
            .run_job(&JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny))
            .unwrap();
        assert!(sweep.contains("\"title\""));
        // The trait output is exactly the rendered table.
        let table = service
            .run_table(&JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny))
            .unwrap();
        assert_eq!(sweep, table.to_json());
        assert!(matches!(
            service.run_job(&JobSpec::new("e42", Scale::Tiny)),
            Err(ServiceError::UnknownExperiment(_))
        ));
        assert!(matches!(
            service.run_job(&JobSpec::new("e1", Scale::Tiny).seed(5)),
            Err(ServiceError::InvalidSpec(_))
        ));
    }

    #[test]
    fn by_id_sweep_matches_the_default_spec() {
        // The registry's "sweep" entry and a default-spec service run must
        // be the same bytes — the CI byte-diff pivots on this.
        let via_registry = experiments::by_id(SWEEP_EXPERIMENT).unwrap()(Scale::Tiny).to_json();
        let via_service = LocalService
            .run_job(&JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny))
            .unwrap();
        assert_eq!(via_registry, via_service);
    }
}
