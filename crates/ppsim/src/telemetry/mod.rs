//! Engine-internal tracing: counters, histograms, and timing probes with a
//! deterministic trace export.
//!
//! Every remaining scale question — why the `Auto` tier switches when it
//! does, what a multi-batch epoch costs, where a `10⁸` run spends its
//! seconds — needs visibility *inside* the engines. This module is that
//! instrumentation layer: a cheaply cloneable [`Telemetry`] handle threaded
//! through [`SimBuilder`](crate::SimBuilder) into every engine tier, which
//! records into a shared [`TelemetryReport`] when enabled and compiles down
//! to a single `Option` check (no clock read, no counter bump, no
//! allocation) when disabled — the default.
//!
//! # The determinism split
//!
//! Recorded data is partitioned into two streams, and the partition is the
//! module's core contract:
//!
//! * the **deterministic stream** (`"stream":"det"` in the JSONL export):
//!   counters, histograms, and events whose values are pure functions of
//!   `(protocol, seed, inputs)` — interaction counts, epoch counts,
//!   group-resolution paths, adaptive handoffs with their absolute
//!   interaction indices and measured active fractions, interned-state and
//!   memo-hit counts, per-agent balance summaries. Byte-identical across
//!   thread counts and runs; CI `cmp`s it.
//! * the **timing stream** (`"stream":"time"`): wall-clock span statistics
//!   (via the one lint-sanctioned clock in [`clock`]) and process gauges
//!   (peak RSS, survival-table builds — both machine- or schedule-
//!   dependent). Never fed back into RNG or control flow; stripped before
//!   any byte-identity comparison.
//!
//! Telemetry **never consumes randomness and never alters control flow**:
//! enabling it cannot move a trajectory, which the engine test-suite pins
//! by running pinned-snapshot trajectories with telemetry on.
//!
//! # Aggregation across trials
//!
//! Reports [`merge`](TelemetryReport::merge) associatively enough for fleet
//! use: counters and histograms add, span statistics merge Welford/Chan
//! style (the same discipline as [`RunningStats`](crate::RunningStats)),
//! event lists concatenate. Folding per-trial reports **in trial order**
//! (the order [`TrialFleet::run`](crate::TrialFleet::run) already
//! guarantees) keeps the merged deterministic stream bit-identical across
//! worker-thread counts.

pub mod clock;

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

/// A deterministic, fixed-order catalogue of every engine counter.
///
/// The discriminant order **is** the export order; appending new counters at
/// the end keeps existing traces comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Interactions executed by the per-step engine.
    PerStepInteractions,
    /// Predicate evaluations by the run loops on the per-step engine (the
    /// `per_step.stride_checks` label is kept so traces stay comparable).
    PerStepStrideChecks,
    /// Interactions accounted by the batched engine (silent runs included).
    BatchedInteractions,
    /// Geometric silent-run-length draws taken by the batched engine.
    BatchedGeometricDraws,
    /// Silent interactions *skipped* (not executed) via geometric draws.
    BatchedSilentSkipped,
    /// State-changing interactions executed by the batched engine.
    BatchedActiveInteractions,
    /// Batches that found no active pair and consumed their budget silently.
    BatchedStalls,
    /// Geometric draws truncated by the caller's interaction budget.
    BatchedTruncatedRuns,
    /// Active-pair selections short-circuited because exactly one pair had
    /// positive weight (no Fenwick search needed).
    BatchedForcedPicks,
    /// Fenwick-tree weight updates applied by the batched engine's pair
    /// index (slot creation, death, and per-transition refresh included).
    BatchedFenwickUpdates,
    /// Interactions accounted by the multi-batch engine.
    MultiBatchInteractions,
    /// Epochs committed by the multi-batch engine.
    MultiBatchEpochs,
    /// Epochs truncated by the caller's budget before their sampled
    /// collision length (no collision interaction executed).
    MultiBatchTruncatedEpochs,
    /// Ordered state-pair groups resolved for free because the pair is
    /// silent.
    MultiBatchGroupsSilent,
    /// Groups resolved deterministically (single-outcome support).
    MultiBatchGroupsDeterministic,
    /// Groups resolved via a multinomial split over an enumerated support.
    MultiBatchGroupsMultinomial,
    /// Groups resolved blind, one transition draw per interaction (unknown
    /// support).
    MultiBatchGroupsBlind,
    /// Individual interactions executed inside blind group resolution.
    MultiBatchBlindInteractions,
    /// Epoch-ending collision interactions executed individually.
    MultiBatchCollisionInteractions,
    /// Activity-fraction measurements taken by the adaptive engine.
    AdaptiveActivityChecks,
    /// Engine handoffs performed by the adaptive engine.
    AdaptiveHandoffs,
    /// States interned by the dynamic state indexer.
    IndexerInternedStates,
    /// Transition-support memo hits in the dynamic state indexer.
    IndexerMemoHits,
    /// Transition-support memo misses (support probed and cached).
    IndexerMemoMisses,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 24] = [
        Counter::PerStepInteractions,
        Counter::PerStepStrideChecks,
        Counter::BatchedInteractions,
        Counter::BatchedGeometricDraws,
        Counter::BatchedSilentSkipped,
        Counter::BatchedActiveInteractions,
        Counter::BatchedStalls,
        Counter::BatchedTruncatedRuns,
        Counter::BatchedForcedPicks,
        Counter::BatchedFenwickUpdates,
        Counter::MultiBatchInteractions,
        Counter::MultiBatchEpochs,
        Counter::MultiBatchTruncatedEpochs,
        Counter::MultiBatchGroupsSilent,
        Counter::MultiBatchGroupsDeterministic,
        Counter::MultiBatchGroupsMultinomial,
        Counter::MultiBatchGroupsBlind,
        Counter::MultiBatchBlindInteractions,
        Counter::MultiBatchCollisionInteractions,
        Counter::AdaptiveActivityChecks,
        Counter::AdaptiveHandoffs,
        Counter::IndexerInternedStates,
        Counter::IndexerMemoHits,
        Counter::IndexerMemoMisses,
    ];

    /// The counter's stable export name (`<engine>.<what>`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PerStepInteractions => "per_step.interactions",
            Counter::PerStepStrideChecks => "per_step.stride_checks",
            Counter::BatchedInteractions => "batched.interactions",
            Counter::BatchedGeometricDraws => "batched.geometric_draws",
            Counter::BatchedSilentSkipped => "batched.silent_skipped",
            Counter::BatchedActiveInteractions => "batched.active_interactions",
            Counter::BatchedStalls => "batched.stalls",
            Counter::BatchedTruncatedRuns => "batched.truncated_runs",
            Counter::BatchedForcedPicks => "batched.forced_picks",
            Counter::BatchedFenwickUpdates => "batched.fenwick_updates",
            Counter::MultiBatchInteractions => "multibatch.interactions",
            Counter::MultiBatchEpochs => "multibatch.epochs",
            Counter::MultiBatchTruncatedEpochs => "multibatch.truncated_epochs",
            Counter::MultiBatchGroupsSilent => "multibatch.groups_silent",
            Counter::MultiBatchGroupsDeterministic => "multibatch.groups_deterministic",
            Counter::MultiBatchGroupsMultinomial => "multibatch.groups_multinomial",
            Counter::MultiBatchGroupsBlind => "multibatch.groups_blind",
            Counter::MultiBatchBlindInteractions => "multibatch.blind_interactions",
            Counter::MultiBatchCollisionInteractions => "multibatch.collision_interactions",
            Counter::AdaptiveActivityChecks => "adaptive.activity_checks",
            Counter::AdaptiveHandoffs => "adaptive.handoffs",
            Counter::IndexerInternedStates => "indexer.interned_states",
            Counter::IndexerMemoHits => "indexer.memo_hits",
            Counter::IndexerMemoMisses => "indexer.memo_misses",
        }
    }
}

/// The timed engine phases. One span kind per engine mode, so
/// ns-per-interaction is attributable per mode even under the adaptive
/// tier (each inner engine times its own run chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// A per-step engine run chunk.
    PerStepRun,
    /// A batched engine run chunk.
    BatchedRun,
    /// A multi-batch engine run chunk.
    MultiBatchRun,
}

impl SpanKind {
    /// Every span kind, in export order.
    pub const ALL: [SpanKind; 3] = [
        SpanKind::PerStepRun,
        SpanKind::BatchedRun,
        SpanKind::MultiBatchRun,
    ];

    /// The span's stable export name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PerStepRun => "per_step.run",
            SpanKind::BatchedRun => "batched.run",
            SpanKind::MultiBatchRun => "multibatch.run",
        }
    }
}

/// Wall-clock statistics of one span kind, in nanoseconds.
///
/// Timing-stream data: merged Chan-style across trials, exported under
/// `"stream":"time"`, and never compared byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Total nanoseconds across all recorded spans.
    pub total_ns: u64,
    /// Shortest recorded span (0 when none).
    pub min_ns: u64,
    /// Longest recorded span (0 when none).
    pub max_ns: u64,
}

impl SpanStats {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// Mean span length in nanoseconds (0.0 when none recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A log₂-bucketed histogram of `u64` samples (deterministic-stream data).
///
/// Bucket `b` holds samples whose bit length is `b` (i.e. values in
/// `[2^(b-1), 2^b)`; value 0 lands in bucket 0), so the shape of e.g. the
/// multi-batch collision-length distribution is visible without retaining
/// samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl LogHistogram {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty `(bit_length, count)` buckets, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b as u32, c))
            .collect()
    }
}

/// One deterministic trace event (exported in recording order).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The adaptive engine picked its initial inner engine.
    EngineSelected {
        /// The selected engine's `EngineKind::label()`.
        kind: &'static str,
        /// The measured active fraction that decided the selection.
        active_fraction: f64,
    },
    /// The adaptive engine handed the population to the other count engine.
    Handoff {
        /// 1-based handoff ordinal within the run.
        seq: u64,
        /// Absolute interaction index at which the handoff happened (the
        /// retired engine's interactions are included).
        index: u64,
        /// The retiring engine's label.
        from: &'static str,
        /// The incoming engine's label.
        to: &'static str,
        /// The measured active fraction that triggered the switch.
        active_fraction: f64,
    },
}

/// Per-agent interaction-balance summary from the per-step engine's
/// [`InteractionMetrics`](crate::InteractionMetrics) (Lemma A.1's empirical
/// counterpart). Deterministic-stream data; unavailable under the count
/// engines, which never materialize agent identities — see
/// [`SimulationEngine::predicate_granularity`](crate::SimulationEngine::predicate_granularity)
/// for that contract.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BalanceSummary {
    /// Population size.
    pub n: u64,
    /// Total interactions recorded.
    pub total: u64,
    /// Smallest per-agent interaction count.
    pub min: u64,
    /// Largest per-agent interaction count.
    pub max: u64,
    /// Largest per-agent count over the ideal `2t/n` average.
    pub max_imbalance: f64,
}

/// The recorded data behind an enabled [`Telemetry`] handle.
#[derive(Debug, Clone, Default, PartialEq)]
struct Recorder {
    counters: [u64; Counter::ALL.len()],
    collision_length: LogHistogram,
    events: Vec<TraceEvent>,
    balance: Option<BalanceSummary>,
    spans: [SpanStats; SpanKind::ALL.len()],
}

/// The instrumentation handle threaded through
/// [`SimBuilder`](crate::SimBuilder) into every engine.
///
/// Disabled (the default) it is a `None` and every probe is a no-op —
/// engines pay one branch per probe site and nothing else. Enabled, probes
/// record into a shared recorder snapshot-able as a
/// [`TelemetryReport`]. Clones share the recorder (`Rc`): the adaptive
/// engine hands clones to its inner engines so one report covers the whole
/// run, handoffs included.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Telemetry {
    /// A disabled handle: every probe is a no-op. Same as `default()`.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with a fresh, empty recorder.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Recorder::default()))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `by` to `counter` (no-op when disabled).
    #[inline]
    pub fn count(&self, counter: Counter, by: u64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().counters[counter as usize] += by;
        }
    }

    /// Records one multi-batch collision-epoch length (no-op when disabled).
    #[inline]
    pub fn record_collision_length(&self, length: u64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().collision_length.record(length);
        }
    }

    /// Records the adaptive engine's initial engine selection.
    pub fn record_engine_selected(&self, kind: &'static str, active_fraction: f64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().events.push(TraceEvent::EngineSelected {
                kind,
                active_fraction,
            });
        }
    }

    /// Records one adaptive handoff at absolute interaction `index`.
    pub fn record_handoff(
        &self,
        seq: u64,
        index: u64,
        from: &'static str,
        to: &'static str,
        active_fraction: f64,
    ) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().events.push(TraceEvent::Handoff {
                seq,
                index,
                from,
                to,
                active_fraction,
            });
        }
    }

    /// Overwrites the per-agent interaction-balance summary (the per-step
    /// engine refreshes it after each run chunk).
    pub fn record_balance(&self, balance: BalanceSummary) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().balance = Some(balance);
        }
    }

    /// Starts a wall-clock span of `kind`; the elapsed time is recorded
    /// when the returned guard drops. Disabled handles return an inert
    /// guard without reading the clock.
    #[inline]
    pub fn span(&self, kind: SpanKind) -> SpanGuard {
        SpanGuard {
            target: self
                .inner
                .as_ref()
                .map(|rec| (Rc::clone(rec), kind, clock::now_ns())),
        }
    }

    /// Snapshots the recorded data, or `None` for a disabled handle.
    pub fn report(&self) -> Option<TelemetryReport> {
        self.inner.as_ref().map(|rec| {
            let r = rec.borrow();
            TelemetryReport {
                counters: r.counters,
                collision_length: r.collision_length.clone(),
                events: r.events.clone(),
                balance: r.balance,
                spans: r.spans,
            }
        })
    }
}

/// RAII guard of one wall-clock span; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    target: Option<(Rc<RefCell<Recorder>>, SpanKind, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, kind, started)) = self.target.take() {
            let elapsed = clock::now_ns().saturating_sub(started);
            rec.borrow_mut().spans[kind as usize].record(elapsed);
        }
    }
}

/// An immutable snapshot of everything a [`Telemetry`] handle recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    counters: [u64; Counter::ALL.len()],
    collision_length: LogHistogram,
    events: Vec<TraceEvent>,
    balance: Option<BalanceSummary>,
    spans: [SpanStats; SpanKind::ALL.len()],
}

impl TelemetryReport {
    /// The value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// The multi-batch collision-length histogram.
    pub fn collision_length(&self) -> &LogHistogram {
        &self.collision_length
    }

    /// The deterministic trace events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The per-agent balance summary, when a per-step engine recorded one.
    pub fn balance(&self) -> Option<BalanceSummary> {
        self.balance
    }

    /// Wall-clock statistics of one span kind.
    pub fn span_stats(&self, kind: SpanKind) -> SpanStats {
        self.spans[kind as usize]
    }

    /// Folds `other` into `self`: counters and histograms add, span
    /// statistics merge, events concatenate, the balance summary keeps the
    /// later (other's) value when present. Merging per-trial reports in
    /// trial order keeps the deterministic stream schedule-independent.
    pub fn merge(&mut self, other: &TelemetryReport) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine += *theirs;
        }
        self.collision_length.merge(&other.collision_length);
        self.events.extend(other.events.iter().cloned());
        if other.balance.is_some() {
            self.balance = other.balance;
        }
        for (mine, theirs) in self.spans.iter_mut().zip(other.spans.iter()) {
            mine.merge(theirs);
        }
    }

    /// The deterministic stream as JSON Lines: one `"stream":"det"` object
    /// per line, fixed field order, every counter present (zeros included)
    /// so traces from different runs align line-for-line. Byte-identical
    /// across thread counts for schedule-independent workloads.
    pub fn deterministic_jsonl(&self) -> String {
        let mut out = String::new();
        for counter in Counter::ALL {
            let _ = writeln!(
                out,
                "{{\"stream\":\"det\",\"event\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                counter.name(),
                self.counters[counter as usize],
            );
        }
        let h = &self.collision_length;
        let buckets: Vec<String> = h
            .nonzero_buckets()
            .into_iter()
            .map(|(bits, count)| format!("[{bits},{count}]"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"stream\":\"det\",\"event\":\"hist\",\"name\":\"multibatch.collision_length\",\
             \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"log2_buckets\":[{}]}}",
            h.count,
            h.sum,
            h.min,
            h.max,
            buckets.join(","),
        );
        if let Some(b) = self.balance {
            let _ = writeln!(
                out,
                "{{\"stream\":\"det\",\"event\":\"interaction_balance\",\"n\":{},\"total\":{},\
                 \"min\":{},\"max\":{},\"max_imbalance\":{}}}",
                b.n, b.total, b.min, b.max, b.max_imbalance,
            );
        }
        for event in &self.events {
            match event {
                TraceEvent::EngineSelected {
                    kind,
                    active_fraction,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"stream\":\"det\",\"event\":\"engine_selected\",\"kind\":\"{kind}\",\
                         \"active_fraction\":{active_fraction}}}",
                    );
                }
                TraceEvent::Handoff {
                    seq,
                    index,
                    from,
                    to,
                    active_fraction,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"stream\":\"det\",\"event\":\"handoff\",\"seq\":{seq},\
                         \"index\":{index},\"from\":\"{from}\",\"to\":\"{to}\",\
                         \"active_fraction\":{active_fraction}}}",
                    );
                }
            }
        }
        out
    }

    /// The timing stream as JSON Lines (`"stream":"time"`): span statistics
    /// plus process gauges (peak RSS, survival-table builds) read at call
    /// time. Machine- and schedule-dependent by design — strip these lines
    /// (filter on the `stream` field) before byte-identity comparisons.
    pub fn timing_jsonl(&self) -> String {
        let mut out = String::new();
        for kind in SpanKind::ALL {
            let s = self.spans[kind as usize];
            let _ = writeln!(
                out,
                "{{\"stream\":\"time\",\"event\":\"span\",\"name\":\"{}\",\"count\":{},\
                 \"total_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                kind.name(),
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.min_ns,
                s.max_ns,
            );
        }
        let _ = writeln!(
            out,
            "{{\"stream\":\"time\",\"event\":\"gauge\",\"name\":\"multibatch.survival_table_builds\",\
             \"value\":{}}}",
            survival_table_builds(),
        );
        if let Some(peak) = crate::mem::peak_rss_bytes() {
            let _ = writeln!(
                out,
                "{{\"stream\":\"time\",\"event\":\"gauge\",\"name\":\"process.peak_rss_bytes\",\
                 \"value\":{peak}}}",
            );
        }
        out
    }

    /// The full trace: deterministic stream first, then the timing stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.deterministic_jsonl();
        out.push_str(&self.timing_jsonl());
        out
    }
}

thread_local! {
    /// Survival-table build count for this thread (the table cache itself is
    /// thread-local, see `ppsim::multibatch`).
    static SURVIVAL_TABLE_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the thread's survival-table build gauge. Called by the multi-batch
/// engine's shared-table cache on every miss; always on (the gauge predates
/// the telemetry layer and regression tests assert on it with telemetry
/// disabled).
pub fn note_survival_table_build() {
    SURVIVAL_TABLE_BUILDS.with(|c| c.set(c.get() + 1));
}

/// How many collision-survival tables this thread has built (cache misses
/// in `ppsim::multibatch`'s shared per-`n` table cache). Thread-local and
/// monotone; a handoff that reuses the table leaves it unchanged, which is
/// the cheap way to assert cache behaviour in tests. Exported on the
/// *timing* stream (the per-thread attribution makes it
/// schedule-dependent under a trial fleet).
pub fn survival_table_builds() -> u64 {
    SURVIVAL_TABLE_BUILDS.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reports_none() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count(Counter::BatchedInteractions, 5);
        t.record_collision_length(17);
        t.record_handoff(1, 100, "batched", "multibatch", 0.5);
        t.record_balance(BalanceSummary::default());
        drop(t.span(SpanKind::BatchedRun));
        assert!(t.report().is_none(), "disabled telemetry must record zero");
        assert!(!Telemetry::default().is_enabled(), "default is disabled");
    }

    #[test]
    fn counters_accumulate_and_share_across_clones() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        t.count(Counter::MultiBatchEpochs, 2);
        clone.count(Counter::MultiBatchEpochs, 3);
        let report = t.report().unwrap();
        assert_eq!(report.counter(Counter::MultiBatchEpochs), 5);
        assert_eq!(report.counter(Counter::BatchedInteractions), 0);
    }

    #[test]
    fn histogram_tracks_shape_and_extremes() {
        let t = Telemetry::enabled();
        for len in [0u64, 1, 1, 2, 3, 900] {
            t.record_collision_length(len);
        }
        let r = t.report().unwrap();
        let h = r.collision_length();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 907);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 900);
        // 0 → bucket 0; 1,1 → bucket 1; 2,3 → bucket 2; 900 → bucket 10.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (2, 2), (10, 1)]);
        assert!((h.mean() - 907.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let t = Telemetry::enabled();
        {
            let _guard = t.span(SpanKind::MultiBatchRun);
            std::hint::black_box(0u64);
        }
        {
            let _guard = t.span(SpanKind::MultiBatchRun);
        }
        let s = t.report().unwrap().span_stats(SpanKind::MultiBatchRun);
        assert_eq!(s.count, 2);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
        assert_eq!(
            t.report().unwrap().span_stats(SpanKind::BatchedRun).count,
            0
        );
    }

    #[test]
    fn merge_adds_counters_and_concatenates_events() {
        let a = Telemetry::enabled();
        a.count(Counter::AdaptiveHandoffs, 1);
        a.record_handoff(1, 10, "multibatch", "batched", 0.01);
        let b = Telemetry::enabled();
        b.count(Counter::AdaptiveHandoffs, 2);
        b.record_handoff(1, 20, "batched", "multibatch", 0.2);
        b.record_collision_length(7);
        let mut merged = a.report().unwrap();
        merged.merge(&b.report().unwrap());
        assert_eq!(merged.counter(Counter::AdaptiveHandoffs), 3);
        assert_eq!(merged.events().len(), 2);
        assert!(matches!(
            merged.events()[1],
            TraceEvent::Handoff { index: 20, .. }
        ));
        assert_eq!(merged.collision_length().count, 1);
    }

    #[test]
    fn merge_is_reproducible_in_trial_order() {
        let trial = |seed: u64| {
            let t = Telemetry::enabled();
            t.count(Counter::BatchedInteractions, seed * 3 + 1);
            t.record_handoff(1, seed * 100, "batched", "multibatch", 0.1);
            t.report().unwrap()
        };
        let fold = || {
            let mut acc = TelemetryReport::default();
            for seed in 0..8u64 {
                acc.merge(&trial(seed));
            }
            acc.deterministic_jsonl()
        };
        assert_eq!(fold(), fold(), "trial-order folds must be byte-identical");
    }

    #[test]
    fn deterministic_stream_is_stable_and_time_free() {
        let t = Telemetry::enabled();
        t.count(Counter::BatchedInteractions, 42);
        t.record_collision_length(12);
        t.record_engine_selected("multibatch", 0.5);
        t.record_handoff(1, 3_143, "multibatch", "batched", 0.015625);
        t.record_balance(BalanceSummary {
            n: 4,
            total: 10,
            min: 1,
            max: 10,
            max_imbalance: 2.0,
        });
        {
            let _guard = t.span(SpanKind::BatchedRun);
        }
        let report = t.report().unwrap();
        let det = report.deterministic_jsonl();
        // Identical snapshots render identically, and no timing leaks in.
        assert_eq!(det, t.report().unwrap().deterministic_jsonl());
        assert!(!det.contains("\"stream\":\"time\""));
        assert!(det.contains(
            "{\"stream\":\"det\",\"event\":\"counter\",\
             \"name\":\"batched.interactions\",\"value\":42}"
        ));
        assert!(det.contains(
            "{\"stream\":\"det\",\"event\":\"handoff\",\"seq\":1,\"index\":3143,\
             \"from\":\"multibatch\",\"to\":\"batched\",\"active_fraction\":0.015625}"
        ));
        assert!(det.contains("\"event\":\"engine_selected\""));
        assert!(det.contains("\"max_imbalance\":2"));
        // Every counter is present, zeros included, once.
        for counter in Counter::ALL {
            assert_eq!(
                det.matches(&format!("\"name\":\"{}\"", counter.name()))
                    .count(),
                1,
                "{}",
                counter.name()
            );
        }
        // The timing stream carries the spans and gauges instead.
        let timing = report.timing_jsonl();
        assert!(timing.contains("\"stream\":\"time\""));
        assert!(timing.contains("\"name\":\"batched.run\""));
        assert!(timing.contains("multibatch.survival_table_builds"));
        assert!(!timing.contains("\"stream\":\"det\""));
        // Full export = det stream then timing stream.
        assert_eq!(report.to_jsonl(), format!("{det}{timing}"));
    }

    #[test]
    fn survival_build_gauge_is_monotone() {
        let before = survival_table_builds();
        note_survival_table_build();
        note_survival_table_build();
        assert_eq!(survival_table_builds(), before + 2);
    }

    #[test]
    fn peak_rss_gauge_delegates_to_mem() {
        // The timing stream's peak-RSS gauge is `ppsim::mem`'s reading:
        // present exactly where `mem` has one.
        let timing = TelemetryReport::default().timing_jsonl();
        assert_eq!(
            timing.contains("\"name\":\"process.peak_rss_bytes\""),
            crate::mem::peak_rss_bytes().is_some()
        );
    }
}
