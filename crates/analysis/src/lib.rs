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
//! * [`spec`] — the canonical [`JobSpec`] of one run, whose content-addressed
//!   [`JobSpec::cache_key`] is the result id the `sweep` document carries.
//!
//! The `experiments` binary in the `bench` crate is the one command-line
//! front end to these tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod scale;
pub mod spec;
pub mod table;

pub use runner::{summarize_trials, TrialSummary};
pub use scale::{EngineKind, Scale};
pub use spec::JobSpec;
pub use table::Table;
