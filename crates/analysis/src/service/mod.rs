//! The experiment service layer.
//!
//! This module is the service-trait tier of the daemon stack (the layering
//! mirrors how `ppsim::engine` layered the simulation tiers):
//!
//! * [`JobSpec`] — the canonical description of one experiment job
//!   (experiment id, [`Scale`], [`EngineKind`], seed, trials), with a
//!   deterministic wire serialization whose FNV digest
//!   ([`JobSpec::cache_key`]) is the job's stable result identity,
//! * [`ExperimentService`] — the one-method trait every backend implements:
//!   a spec goes in, the rendered result-table JSON document comes out,
//! * [`LocalService`] — the in-process backend driving the experiment
//!   registry (and the deterministic [`local::service_sweep`] workload)
//!   through `ppsim::TrialFleet`,
//! * [`JobStatus`] / [`ServiceHealth`] — the poll and health views shared by
//!   the `ssle-server` daemon (which renders them) and the `ssle-client`
//!   crate (which parses them),
//! * [`wire`] — the flat-JSON codec both sides use.
//!
//! The HTTP backend (`ssle_client::HttpClient`) implements the same trait,
//! so tests and the CLI can target either transparently; byte-identity of
//! the two backends' outputs for the same spec is the service's core
//! contract, enforced end-to-end by `tests/service_e2e.rs` and the CI
//! `server-smoke` job.

pub mod local;
pub mod wire;

use std::error::Error;
use std::fmt;

use crate::scale::Scale;
use crate::table::{json_escape, json_number};
use ppsim::digest::{fnv1a_64, hex16};
use ppsim::EngineKind;
use wire::JsonValue;

pub use local::{service_sweep, LocalService};

/// The experiment id the service accepts besides the
/// [`crate::experiments::REGISTRY`] ids: the deterministic epidemic sweep
/// that exercises the engine/seed/trials knobs.
pub const SWEEP_EXPERIMENT: &str = "sweep";

/// Errors produced by experiment services (local or remote).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The spec names an experiment no backend knows.
    UnknownExperiment(String),
    /// The spec is malformed or violates a field constraint.
    InvalidSpec(String),
    /// A client-side transport failure (connect, read, write).
    Transport(String),
    /// The peer answered, but not with the expected protocol shape.
    Protocol(String),
    /// The job ran and failed; the message is the job's recorded error.
    JobFailed(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownExperiment(id) => write!(f, "unknown experiment `{id}`"),
            ServiceError::InvalidSpec(why) => write!(f, "invalid job spec: {why}"),
            ServiceError::Transport(why) => write!(f, "transport failure: {why}"),
            ServiceError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ServiceError::JobFailed(why) => write!(f, "job failed: {why}"),
        }
    }
}

impl Error for ServiceError {}

/// The canonical description of one experiment job.
///
/// Two specs are the *same job* exactly when their [`JobSpec::canonical_json`]
/// bytes match; the FNV digest of those bytes ([`JobSpec::cache_key`]) names
/// the job everywhere — in the queue, on the poll endpoint, and as the
/// content-addressed cache filename (`cache/<key>.json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// A registry experiment id (`"e1"`…`"e11"`) or [`SWEEP_EXPERIMENT`].
    pub experiment: String,
    /// The experiment scale (grid sizes, budgets).
    pub scale: Scale,
    /// The engine the sweep workload runs under. Registry experiments pick
    /// engines internally; [`JobSpec::validate`] pins this to the default
    /// for them so it cannot split their cache identity.
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

    /// Sets the engine (sweep jobs only — see [`JobSpec::validate`]).
    pub fn engine(mut self, engine: EngineKind) -> JobSpec {
        self.engine = engine;
        self
    }

    /// Sets the base seed (sweep jobs only).
    pub fn seed(mut self, seed: u64) -> JobSpec {
        self.seed = seed;
        self
    }

    /// Sets the trials-per-cell count (sweep jobs only).
    pub fn trials(mut self, trials: usize) -> JobSpec {
        self.trials = trials;
        self
    }

    /// The deterministic wire form: compact JSON, fixed field order, every
    /// field present. These bytes *are* the job identity.
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

    /// The content-addressed identity of this job: the fixed-width hex FNV
    /// digest of [`JobSpec::canonical_json`]. Doubles as the cache filename
    /// stem and the `/jobs/:id` path segment.
    pub fn cache_key(&self) -> String {
        hex16(fnv1a_64(self.canonical_json().as_bytes()))
    }

    /// Parses a spec from its wire form. `experiment` and `scale` are
    /// required; `engine`, `seed`, and `trials` default per scale. Unknown
    /// fields are rejected so typos cannot silently change a job's meaning.
    pub fn parse_json(text: &str) -> Result<JobSpec, ServiceError> {
        let fields = wire::parse_object(text).map_err(ServiceError::InvalidSpec)?;
        for (key, _) in &fields {
            if !matches!(
                key.as_str(),
                "experiment" | "scale" | "engine" | "seed" | "trials"
            ) {
                return Err(ServiceError::InvalidSpec(format!("unknown field `{key}`")));
            }
        }
        let text_field = |key: &str| -> Result<Option<&str>, ServiceError> {
            match wire::get(&fields, key) {
                None => Ok(None),
                Some(JsonValue::Str(s)) => Ok(Some(s)),
                Some(_) => Err(ServiceError::InvalidSpec(format!(
                    "field `{key}` must be a string"
                ))),
            }
        };
        let experiment = text_field("experiment")?
            .ok_or_else(|| ServiceError::InvalidSpec("missing field `experiment`".into()))?
            .to_string();
        let scale_token = text_field("scale")?
            .ok_or_else(|| ServiceError::InvalidSpec("missing field `scale`".into()))?;
        let scale = Scale::parse(scale_token)
            .ok_or_else(|| ServiceError::InvalidSpec(format!("unknown scale `{scale_token}`")))?;
        let mut spec = JobSpec::new(experiment, scale);
        if let Some(token) = text_field("engine")? {
            spec.engine = EngineKind::parse(token)
                .ok_or_else(|| ServiceError::InvalidSpec(format!("unknown engine `{token}`")))?;
        }
        if let Some(value) = wire::get(&fields, "seed") {
            spec.seed = value.as_u64().ok_or_else(|| {
                ServiceError::InvalidSpec("field `seed` must be an unsigned integer".into())
            })?;
        }
        if let Some(value) = wire::get(&fields, "trials") {
            let trials = value.as_u64().ok_or_else(|| {
                ServiceError::InvalidSpec("field `trials` must be an unsigned integer".into())
            })?;
            spec.trials = usize::try_from(trials).map_err(|_| {
                ServiceError::InvalidSpec("field `trials` exceeds the platform size".into())
            })?;
        }
        Ok(spec)
    }

    /// Checks the field constraints: the experiment must be known, a sweep
    /// needs at least one trial, and registry experiments must carry the
    /// default engine/seed/trials (they derive their own seeds and trial
    /// counts from the scale, so an override would create cache identities
    /// that differ in name only).
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.experiment == SWEEP_EXPERIMENT {
            if self.trials == 0 {
                return Err(ServiceError::InvalidSpec(
                    "a sweep needs at least one trial per cell".into(),
                ));
            }
            return Ok(());
        }
        if crate::experiments::by_id(&self.experiment).is_some() {
            let defaults = JobSpec::new(self.experiment.clone(), self.scale);
            if *self != defaults {
                return Err(ServiceError::InvalidSpec(format!(
                    "registry experiment `{}` derives engine/seed/trials from the scale; \
                     omit the overrides (got engine {}, seed {}, trials {})",
                    self.experiment,
                    self.engine.label(),
                    self.seed,
                    self.trials,
                )));
            }
            return Ok(());
        }
        Err(ServiceError::UnknownExperiment(self.experiment.clone()))
    }
}

/// One experiment backend: a validated [`JobSpec`] in, the rendered result
/// table (the exact [`crate::Table::to_json`] document — the bytes that get
/// cached, served, and compared) out.
///
/// Implementations: [`LocalService`] (in-process) and
/// `ssle_client::HttpClient` (over the daemon's job queue). Code written
/// against this trait — the CLI, the E2E suites — cannot tell them apart
/// except by latency.
pub trait ExperimentService {
    /// Runs the job to completion and returns the result document.
    fn run_job(&self, spec: &JobSpec) -> Result<String, ServiceError>;
}

/// The lifecycle state of a queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result document is available.
    Done,
    /// Finished with an error.
    Failed,
}

impl JobState {
    /// The wire token for this state.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Parses a wire token back into a state.
    pub fn parse(token: &str) -> Option<JobState> {
        match token {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// The poll view of one job (`POST /jobs` and `GET /jobs/:id` responses).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job's content-addressed identity ([`JobSpec::cache_key`]).
    pub job: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Coarse progress in `[0, 1]`: 0 queued, 0.5 running, 1 finished.
    pub progress: f64,
    /// Whether this response was served from the content-addressed cache
    /// (or an already-finished record) rather than by scheduling work.
    pub cached: bool,
    /// The recorded error, for failed jobs.
    pub error: Option<String>,
}

impl JobStatus {
    /// Renders the wire form (uses the non-finite → `null` float policy).
    pub fn to_json(&self) -> String {
        let error = match &self.error {
            Some(e) => format!("\"{}\"", json_escape(e)),
            None => "null".to_string(),
        };
        format!(
            "{{\"job\":\"{}\",\"state\":\"{}\",\"progress\":{},\"cached\":{},\"error\":{}}}",
            json_escape(&self.job),
            self.state.label(),
            json_number(self.progress),
            self.cached,
            error,
        )
    }

    /// Parses the wire form.
    pub fn parse_json(text: &str) -> Result<JobStatus, ServiceError> {
        let fields = wire::parse_object(text).map_err(ServiceError::Protocol)?;
        let str_field = |key: &str| -> Result<String, ServiceError> {
            wire::get(&fields, key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| ServiceError::Protocol(format!("missing string field `{key}`")))
        };
        let state_token = str_field("state")?;
        let state = JobState::parse(&state_token)
            .ok_or_else(|| ServiceError::Protocol(format!("unknown state `{state_token}`")))?;
        let progress = wire::get(&fields, "progress")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| ServiceError::Protocol("missing numeric field `progress`".into()))?;
        let cached = match wire::get(&fields, "cached") {
            Some(JsonValue::Bool(b)) => *b,
            _ => false,
        };
        let error = match wire::get(&fields, "error") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ServiceError::Protocol("field `error` must be a string".into()))?
                    .to_string(),
            ),
        };
        Ok(JobStatus {
            job: str_field("job")?,
            state,
            progress,
            cached,
            error,
        })
    }
}

/// The `/healthz` view: queue depth, worker state, and the job counters the
/// cache-hit assertions read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceHealth {
    /// Size of the worker pool.
    pub workers: u64,
    /// Workers currently executing a job.
    pub busy_workers: u64,
    /// Jobs queued but not yet picked up.
    pub queue_depth: u64,
    /// Total `POST /jobs` submissions accepted.
    pub jobs_submitted: u64,
    /// Jobs that finished successfully.
    pub jobs_completed: u64,
    /// Jobs that finished with an error.
    pub jobs_failed: u64,
    /// Submissions answered from the content-addressed cache (or an
    /// already-finished record) without scheduling an execution.
    pub cache_hits: u64,
    /// Submissions that scheduled a real execution.
    pub cache_misses: u64,
}

impl ServiceHealth {
    /// Field names in wire order (shared by the writer, the parser, and the
    /// round-trip tests so the three cannot drift apart).
    const FIELDS: [&'static str; 8] = [
        "workers",
        "busy_workers",
        "queue_depth",
        "jobs_submitted",
        "jobs_completed",
        "jobs_failed",
        "cache_hits",
        "cache_misses",
    ];

    fn values(&self) -> [u64; 8] {
        [
            self.workers,
            self.busy_workers,
            self.queue_depth,
            self.jobs_submitted,
            self.jobs_completed,
            self.jobs_failed,
            self.cache_hits,
            self.cache_misses,
        ]
    }

    /// Renders the wire form.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = Self::FIELDS
            .iter()
            .zip(self.values())
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Parses the wire form.
    pub fn parse_json(text: &str) -> Result<ServiceHealth, ServiceError> {
        let fields = wire::parse_object(text).map_err(ServiceError::Protocol)?;
        let mut values = [0u64; 8];
        for (slot, key) in values.iter_mut().zip(Self::FIELDS) {
            *slot = wire::get(&fields, key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ServiceError::Protocol(format!("missing counter field `{key}`")))?;
        }
        let [workers, busy_workers, queue_depth, jobs_submitted, jobs_completed, jobs_failed, cache_hits, cache_misses] =
            values;
        Ok(ServiceHealth {
            workers,
            busy_workers,
            queue_depth,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            cache_hits,
            cache_misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_ne!(a, spec.clone().seed(7).canonical_json());
        assert_ne!(a, spec.clone().trials(3).canonical_json());
        assert_ne!(a, spec.clone().engine(EngineKind::Batched).canonical_json());
        assert_ne!(a, JobSpec::new("e1", Scale::Tiny).canonical_json());
        assert_ne!(
            a,
            JobSpec::new(SWEEP_EXPERIMENT, Scale::Quick).canonical_json()
        );
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
    fn spec_round_trips_through_the_wire() {
        let spec = JobSpec::new(SWEEP_EXPERIMENT, Scale::Quick)
            .engine(EngineKind::MultiBatch)
            .seed(u64::MAX - 3)
            .trials(7);
        let parsed = JobSpec::parse_json(&spec.canonical_json()).unwrap();
        assert_eq!(parsed, spec);
        // Field order and omitted optionals are tolerated on input…
        let sparse = JobSpec::parse_json("{\"scale\":\"quick\",\"experiment\":\"e10\"}").unwrap();
        assert_eq!(sparse, JobSpec::new("e10", Scale::Quick));
        // …but the canonical form normalizes them away.
        assert_eq!(
            sparse.canonical_json(),
            JobSpec::new("e10", Scale::Quick).canonical_json()
        );
    }

    #[test]
    fn spec_parse_rejects_malformed_input() {
        for bad in [
            "",
            "{\"scale\":\"quick\"}",
            "{\"experiment\":\"e10\"}",
            "{\"experiment\":\"e10\",\"scale\":\"medium\"}",
            "{\"experiment\":\"e10\",\"scale\":\"quick\",\"engine\":\"warp\"}",
            "{\"experiment\":\"e10\",\"scale\":\"quick\",\"seed\":-1}",
            "{\"experiment\":\"e10\",\"scale\":\"quick\",\"trials\":\"three\"}",
            "{\"experiment\":\"e10\",\"scale\":\"quick\",\"bogus\":1}",
            "{\"experiment\":7,\"scale\":\"quick\"}",
        ] {
            assert!(JobSpec::parse_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn validation_knows_the_registry_and_the_sweep() {
        assert!(JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny)
            .validate()
            .is_ok());
        assert!(JobSpec::new("e1", Scale::Tiny).validate().is_ok());
        assert!(JobSpec::new("e11", Scale::Tiny).validate().is_ok());
        for retired in ["e42", "fleet", "p1"] {
            assert!(
                matches!(
                    JobSpec::new(retired, Scale::Tiny).validate(),
                    Err(ServiceError::UnknownExperiment(_))
                ),
                "{retired}"
            );
        }
        // Sweep overrides are fine; registry overrides are not.
        assert!(JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny)
            .seed(9)
            .validate()
            .is_ok());
        assert!(matches!(
            JobSpec::new("e1", Scale::Tiny).seed(9).validate(),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(matches!(
            JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny)
                .trials(0)
                .validate(),
            Err(ServiceError::InvalidSpec(_))
        ));
    }

    #[test]
    fn job_status_round_trips() {
        for status in [
            JobStatus {
                job: "af63dc4c8601ec8c".into(),
                state: JobState::Queued,
                progress: 0.0,
                cached: false,
                error: None,
            },
            JobStatus {
                job: "0000000000000001".into(),
                state: JobState::Done,
                progress: 1.0,
                cached: true,
                error: None,
            },
            JobStatus {
                job: "ffffffffffffffff".into(),
                state: JobState::Failed,
                progress: 1.0,
                cached: false,
                error: Some("budget \"exhausted\"\n".into()),
            },
        ] {
            let parsed = JobStatus::parse_json(&status.to_json()).unwrap();
            assert_eq!(parsed, status, "wire: {}", status.to_json());
        }
    }

    #[test]
    fn job_status_progress_survives_the_null_policy() {
        // A NaN progress must serialize to valid JSON (null), not `NaN`.
        let status = JobStatus {
            job: "x".into(),
            state: JobState::Running,
            progress: f64::NAN,
            cached: false,
            error: None,
        };
        let json = status.to_json();
        assert!(json.contains("\"progress\":null"), "{json}");
        assert!(JobStatus::parse_json(&json).unwrap().progress.is_nan());
    }

    #[test]
    fn health_round_trips() {
        let health = ServiceHealth {
            workers: 2,
            busy_workers: 1,
            queue_depth: 3,
            jobs_submitted: 10,
            jobs_completed: 6,
            jobs_failed: 1,
            cache_hits: 4,
            cache_misses: 6,
        };
        assert_eq!(
            ServiceHealth::parse_json(&health.to_json()).unwrap(),
            health
        );
        assert!(ServiceHealth::parse_json("{\"workers\":1}").is_err());
    }

    #[test]
    fn job_state_labels_round_trip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ] {
            assert_eq!(JobState::parse(state.label()), Some(state));
        }
        assert_eq!(JobState::parse("paused"), None);
    }
}
