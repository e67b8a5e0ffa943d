//! # analysis — the experiment harness of the SSLE reproduction
//!
//! This crate turns the protocols of [`ssle_core`] and [`baselines`] into the
//! measured experiments E1–E11 (the README's "Run the experiments" section
//! shows how to run them). It provides
//!
//! * [`runner`] — aggregation of per-trial [`ppsim::StabilizationResult`]
//!   records into a [`TrialSummary`],
//! * [`table`] — a small result-table type with Markdown/CSV emitters,
//! * [`scale`] — the `Quick`/`Full` experiment scales (grid sizes, trial
//!   counts, budgets),
//! * [`experiments`] — one function per experiment, each returning a
//!   [`Table`] of measured rows, listed once with its id in
//!   [`experiments::REGISTRY`],
//! * [`service`] — the experiment service layer: the [`ExperimentService`]
//!   trait (spec in, rendered result-table JSON out), the canonical
//!   [`JobSpec`] with its content-addressed cache key, and the in-process
//!   [`LocalService`] backend the `ssle-server` daemon's workers call into.
//!
//! The `experiments` binary in the `bench` crate is the one command-line
//! front end to these tables; the `ssle-server` daemon serves the same
//! registry over HTTP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod scale;
pub mod service;
pub mod table;

pub use runner::{summarize_trials, TrialSummary};
pub use scale::{EngineKind, Scale};
pub use service::{
    ExperimentService, JobSpec, JobState, JobStatus, LocalService, ServiceError, ServiceHealth,
};
pub use table::Table;
