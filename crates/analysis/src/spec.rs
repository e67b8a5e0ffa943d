//! The canonical description of one experiment run and its identity.
//!
//! A [`JobSpec`] names an experiment id, a [`Scale`], an [`EngineKind`], a
//! base seed and a trial count. Its [`JobSpec::canonical_json`] bytes are
//! the run's identity, and their FNV digest ([`JobSpec::cache_key`]) is the
//! short result id. The `sweep` document embeds both in its notes, so two
//! result documents can be told apart without re-running them.

use crate::scale::Scale;
use crate::table::json_escape;
use ppsim::digest::{fnv1a_64, hex16};
use ppsim::EngineKind;

/// The canonical description of one experiment run.
///
/// Two specs describe the *same run* exactly when their
/// [`JobSpec::canonical_json`] bytes match; the FNV digest of those bytes
/// ([`JobSpec::cache_key`]) names the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// A registry experiment id (`"e1"`…`"e11"`) or
    /// [`crate::experiments::sweep::SWEEP_EXPERIMENT`].
    pub experiment: String,
    /// The experiment scale (grid sizes, budgets).
    pub scale: Scale,
    /// The engine the sweep workload runs under. Registry experiments pick
    /// engines internally.
    pub engine: EngineKind,
    /// The base seed of the sweep workload (per-trial seeds derive from it).
    pub seed: u64,
    /// Trials per sweep cell.
    pub trials: usize,
}

impl JobSpec {
    /// A spec for `experiment` at `scale` with the default engine, seed, and
    /// trial count for that scale.
    pub fn new(experiment: impl Into<String>, scale: Scale) -> JobSpec {
        JobSpec {
            experiment: experiment.into(),
            scale,
            engine: EngineKind::Auto,
            seed: scale.base_seed(),
            trials: scale.trials(),
        }
    }

    /// The deterministic form: compact JSON, fixed field order, every field
    /// present. These bytes *are* the run's identity.
    pub fn canonical_json(&self) -> String {
        format!(
            "{{\"experiment\":\"{}\",\"scale\":\"{}\",\"engine\":\"{}\",\"seed\":{},\"trials\":{}}}",
            json_escape(&self.experiment),
            self.scale.label(),
            self.engine.label(),
            self.seed,
            self.trials,
        )
    }

    /// The content-addressed identity of this run: the fixed-width hex FNV
    /// digest of [`JobSpec::canonical_json`].
    pub fn cache_key(&self) -> String {
        hex16(fnv1a_64(self.canonical_json().as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::SWEEP_EXPERIMENT;

    #[test]
    fn canonical_json_is_deterministic_and_total() {
        let spec = JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny);
        let a = spec.canonical_json();
        assert_eq!(a, spec.canonical_json());
        assert_eq!(
            a,
            "{\"experiment\":\"sweep\",\"scale\":\"tiny\",\"engine\":\"auto\",\
             \"seed\":1515847680,\"trials\":2}"
        );
        // Every field is part of the identity.
        for variant in [
            JobSpec {
                seed: 7,
                ..spec.clone()
            },
            JobSpec {
                trials: 3,
                ..spec.clone()
            },
            JobSpec {
                engine: EngineKind::Batched,
                ..spec.clone()
            },
            JobSpec::new("e1", Scale::Tiny),
            JobSpec::new(SWEEP_EXPERIMENT, Scale::Quick),
        ] {
            assert_ne!(a, variant.canonical_json(), "{variant:?}");
        }
    }

    #[test]
    fn cache_key_is_the_digest_of_the_canonical_bytes() {
        let spec = JobSpec::new("e10", Scale::Quick);
        let expected = hex16(fnv1a_64(spec.canonical_json().as_bytes()));
        assert_eq!(spec.cache_key(), expected);
        assert_eq!(spec.cache_key().len(), 16);
        assert_ne!(
            spec.cache_key(),
            JobSpec::new("e11", Scale::Quick).cache_key()
        );
    }

    #[test]
    fn quick_sweep_result_id_is_pinned() {
        // The `result id` note of the committed `ci/sweep-quick.json`.
        assert_eq!(
            JobSpec::new(SWEEP_EXPERIMENT, Scale::Quick).cache_key(),
            "373cb35ddadcf7ff"
        );
    }
}
