//! Guard bench for the sparse pair-weight refactor of the batched engine:
//! one full epidemic completion per iteration, under the statically
//! enumerated protocol and under the dynamic state indexer
//! (`ppsim::DiscoveredProtocol`).
//!
//! The enumerated rows measure exactly what `batched_vs_perstep` always
//! measured — a regression here means the Fenwick-backed incremental weight
//! maintenance lost ground against the old dense per-round scan. The
//! discovered rows add the adapter's interning/peeking overhead on top; the
//! two should stay within a small constant factor of each other on the
//! epidemics (two live states, one active pair).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppsim::epidemic::{OneWayEpidemic, INFORMED};
use ppsim::{BatchSimulation, DiscoveredProtocol, SimulationEngine};
use std::time::Duration;

fn budget(n: usize) -> u64 {
    let nf = n as f64;
    (50.0 * nf * nf.ln()).ceil() as u64
}

fn complete_enumerated(n: usize, seed: u64) -> u64 {
    let mut sim = BatchSimulation::clean(OneWayEpidemic::new(n, 1), seed);
    let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), budget(n));
    assert!(out.satisfied);
    out.interactions
}

fn complete_discovered(n: usize, seed: u64) -> u64 {
    let discovered = DiscoveredProtocol::new(OneWayEpidemic::new(n, 1));
    let handle = discovered.clone();
    let mut sim = BatchSimulation::clean(discovered, seed);
    let out = sim.run_until(
        &mut |c| (0..c.num_states()).all(|i| c.count(i) == 0 || handle.peek(i, |s| *s)),
        budget(n),
    );
    assert!(out.satisfied);
    out.interactions
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("epidemic_completion_indexing");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    for n in [10_000usize, 100_000, 1_000_000] {
        group.bench_with_input(BenchmarkId::new("enumerated", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                complete_enumerated(n, seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("discovered", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                complete_discovered(n, seed)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
