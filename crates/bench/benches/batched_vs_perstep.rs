//! Engine comparison bench — one full one-way-epidemic completion per
//! iteration, per engine and population size. The batched engine's cost is
//! proportional to the `n − 1` state-changing interactions; the per-step
//! engine pays for all `Θ(n log n)` of them, so the gap widens with `n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
use ppsim::EngineKind;
use std::time::Duration;

fn budget(n: usize) -> u64 {
    let nf = n as f64;
    (50.0 * nf * nf.ln()).ceil() as u64
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("epidemic_completion");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    for n in [1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("per_step", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                measure_epidemic_time_with(
                    OneWayEpidemic::new(n, 1),
                    EngineKind::PerStep,
                    seed,
                    budget(n),
                )
                .unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                measure_epidemic_time_with(
                    OneWayEpidemic::new(n, 1),
                    EngineKind::Batched,
                    seed,
                    budget(n),
                )
                .unwrap()
            });
        });
    }
    // The batched engine alone at the scale the per-step engine cannot
    // reasonably reach in a bench loop.
    group.bench_with_input(
        BenchmarkId::new("batched", 1_000_000),
        &1_000_000usize,
        |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                measure_epidemic_time_with(
                    OneWayEpidemic::new(n, 1),
                    EngineKind::Batched,
                    seed,
                    budget(n),
                )
                .unwrap()
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
