//! E8 bench — the substrate primitives: one-way epidemic completion
//! (Lemma A.2) and message load balancing (Lemma E.6).

use analysis::experiments::substrate::load_balancing_meetings;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppsim::epidemic::{measure_epidemic_time_with, OneWayEpidemic};
use ppsim::EngineKind;
use std::time::Duration;

fn bench_epidemic(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_epidemic");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));
    for n in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("one_way", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                measure_epidemic_time_with(
                    OneWayEpidemic::new(n, 1),
                    EngineKind::PerStep,
                    seed,
                    (200 * n * n) as u64,
                )
            });
        });
    }
    group.finish();
}

fn bench_load_balancing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_load_balancing");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    for m in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("group_size", m), &m, |b, &m| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                load_balancing_meetings(m, seed)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epidemic, bench_load_balancing);
criterion_main!(benches);
