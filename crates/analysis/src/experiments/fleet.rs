//! Thread-count independence of a real fleet workload: one-way-epidemic
//! completions under the `Auto` engine, run through [`ppsim::TrialFleet`]
//! and folded by [`crate::runner::TrialSummary`]. ppsim's own fleet test
//! uses a synthetic observation and ppsim's summary; this one covers the
//! engines and the fold that the experiments and the `fleet_throughput`
//! example use.

#[cfg(test)]
mod tests {
    use crate::runner::TrialSummary;
    use crate::scale::EngineKind;
    use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
    use ppsim::TrialFleet;
    use std::time::Instant;

    /// Runs `trials` epidemic completions at `n` agents on a forced thread
    /// count; returns their summary and the trials per wall-clock second.
    fn fleet_run(n: usize, trials: usize, base_seed: u64, threads: usize) -> (TrialSummary, f64) {
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
                measure_epidemic_time_with(
                    OneWayEpidemic::new(n, 1),
                    EngineKind::Auto,
                    seed,
                    budget,
                )
                .map(|interactions| interactions as f64 / nf)
            })
        });
        let summary = TrialSummary::of(&observations);
        let secs = started.elapsed().as_secs_f64();
        (summary, trials as f64 / secs.max(1e-9))
    }

    #[test]
    fn fleet_throughput_aggregates_are_thread_independent() {
        let (a, trials_per_sec) = fleet_run(128, 8, 0xF1, 1);
        let (b, _) = fleet_run(128, 8, 0xF1, 4);
        assert_eq!(a.trials, 8);
        assert_eq!(a, b);
        assert!(trials_per_sec > 0.0);
    }
}
