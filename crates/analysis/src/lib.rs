//! # analysis — the experiment harness of the SSLE reproduction
//!
//! This crate turns the protocols of [`ssle_core`] and [`baselines`] into the
//! measured experiments E1–E11 (the README's "Run the experiments" section
//! shows how to run them). It provides
//!
//! * [`runner`] — seeded, parallel trial execution and aggregation,
//! * [`table`] — a small result-table type with Markdown/CSV emitters,
//! * [`scale`] — the `Quick`/`Full` experiment scales (grid sizes, trial
//!   counts, budgets),
//! * [`experiments`] — one function per experiment, each returning a
//!   [`Table`] of measured rows,
//! * [`service`] — the experiment service layer: the [`ExperimentService`]
//!   trait (spec in, rendered result-table JSON out), the canonical
//!   [`JobSpec`] with its content-addressed cache key, and the in-process
//!   [`LocalService`] backend the `ssle-server` daemon's workers call into.
//!
//! The `experiments` binary in the `bench` crate is a thin wrapper over
//! these functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod scale;
pub mod service;
pub mod table;

pub use runner::{run_trials, summarize_trials, TrialOutcome, TrialSummary};
pub use scale::{EngineKind, Scale};
pub use service::{
    ExperimentService, JobSpec, JobState, JobStatus, LocalService, ServiceError, ServiceHealth,
};
pub use table::Table;
