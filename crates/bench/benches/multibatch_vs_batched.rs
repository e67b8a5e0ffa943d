//! Guard bench for the multi-batch collision sampler: the two count-based
//! engines race on epidemic completions.
//!
//! Two workloads bracket the trade-off:
//!
//! * **dense** epidemic (half the population informed at start): nearly every
//!   interaction is non-silent early on, so the batched engine degenerates to
//!   one Fenwick-sampled transition per state change while the multi-batch
//!   engine resolves Θ(√n) interactions per epoch — this is the regime the
//!   multi-batch engine exists for, and where its speedup must show;
//! * **sparse** epidemic (one source): only `n − 1` interactions ever change
//!   state, the batched engine's best case. The multi-batch engine pays per
//!   epoch regardless, so it only catches up once the epoch length `≈ 0.63·√n`
//!   outgrows the interactions-per-state-change ratio `2 ln n`.
//!
//! A regression of either engine (or of the hypergeometric samplers) shows up
//! as a shifted ratio between the paired rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppsim::epidemic::{OneWayEpidemic, INFORMED};
use ppsim::{BatchSimulation, MultiBatchSimulation, SimulationEngine};
use std::time::Duration;

fn budget(n: usize) -> u64 {
    let nf = n as f64;
    (50.0 * nf * nf.ln()).ceil() as u64
}

fn complete_batched(n: usize, sources: usize, seed: u64) -> u64 {
    let mut sim = BatchSimulation::clean(OneWayEpidemic::new(n, sources), seed);
    let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), budget(n));
    assert!(out.satisfied);
    out.interactions
}

fn complete_multibatch(n: usize, sources: usize, seed: u64) -> u64 {
    let mut sim = MultiBatchSimulation::clean(OneWayEpidemic::new(n, sources), seed);
    let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), budget(n));
    assert!(out.satisfied);
    out.interactions
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_epidemic_completion");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    for n in [10_000usize, 100_000, 1_000_000] {
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                complete_batched(n, n / 2, seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("multibatch", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                complete_multibatch(n, n / 2, seed)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sparse_epidemic_completion");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    let n = 1_000_000usize;
    group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            complete_batched(n, 1, seed)
        });
    });
    group.bench_with_input(BenchmarkId::new("multibatch", n), &n, |b, &n| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            complete_multibatch(n, 1, seed)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
