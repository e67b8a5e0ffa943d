//! Large-`n` smoke tests — `#[ignore]`d by default because they only make
//! sense in release mode (CI runs them with `--release -- --ignored`).
//!
//! These pin the headline claim of the overflow-safe count paths: a one-way
//! epidemic completes a *single* run at `n = 10⁸` under [`EngineKind::Auto`]
//! within a 2 GiB peak-RSS budget, and the batched and multi-batch engines
//! agree on the epidemic's mean completion time at `n = 10⁷`.

use ppsim::engine::{EngineKind, SimBuilder};
use ppsim::epidemic::OneWayEpidemic;
use ppsim::{parallel_time, peak_rss_bytes, reset_peak_rss, CountConfiguration};

/// Index of the informed state under `OneWayEpidemic`'s encoding.
const INFORMED: usize = 1;

/// Runs one clean epidemic trial to completion and returns the parallel time.
fn epidemic_completion_time(n: usize, kind: EngineKind, seed: u64) -> f64 {
    let mut sim = SimBuilder::new(OneWayEpidemic::new(n, 1))
        .kind(kind)
        .seed(seed)
        .build();
    let mut done = |c: &CountConfiguration| c.count(INFORMED) == c.population();
    let out = sim.run_until(&mut done, u64::MAX);
    assert!(
        out.satisfied,
        "epidemic must complete at n = {n} ({kind:?})"
    );
    parallel_time(out.interactions, n)
}

/// Batched and multi-batch engines agree on the `n = 10⁷` epidemic's mean
/// completion time to a coarse tolerance. The epidemic takes `Θ(log n)`
/// parallel time with concentration, so 8 trials per engine at a 15% margin
/// is far outside the noise floor while staying cheap in release mode.
#[test]
#[ignore = "release-mode smoke: ~seconds per trial at n = 10^7"]
fn epidemic_means_cross_check_at_ten_million() {
    const N: usize = 10_000_000;
    const TRIALS: u64 = 8;
    let mean = |kind: EngineKind| {
        (0..TRIALS)
            .map(|t| epidemic_completion_time(N, kind, 0xE10_0000 + t))
            .sum::<f64>()
            / TRIALS as f64
    };
    let batched = mean(EngineKind::Batched);
    let multibatch = mean(EngineKind::MultiBatch);
    let rel = (batched - multibatch).abs() / batched;
    assert!(
        rel < 0.15,
        "batched mean {batched:.3} vs multibatch mean {multibatch:.3} \
         diverge by {:.1}% (> 15%)",
        rel * 100.0
    );
    // Sanity: both are in the right ballpark for 2 ln n parallel time.
    let expected = 2.0 * (N as f64).ln();
    for (label, t) in [("batched", batched), ("multibatch", multibatch)] {
        assert!(
            t > 0.5 * expected && t < 2.0 * expected,
            "{label} mean {t:.3} outside [{:.3}, {:.3}]",
            0.5 * expected,
            2.0 * expected
        );
    }
}

/// The tentpole: a single `n = 10⁸` run completes under [`EngineKind::Auto`]
/// and peak RSS stays under 2 GiB — i.e. no per-agent allocation survives on
/// the clean count paths and no count product overflows en route.
#[test]
#[ignore = "release-mode smoke: one full run at n = 10^8"]
fn epidemic_completes_at_one_hundred_million_under_auto() {
    const N: usize = 100_000_000;
    const GIB: u64 = 1 << 30;
    // Best effort: on Linux this clears the watermark so the measurement
    // covers this test rather than whatever ran before it in the process.
    let _ = reset_peak_rss();
    let t = epidemic_completion_time(N, EngineKind::Auto, 20_260_808);
    let expected = 2.0 * (N as f64).ln();
    assert!(
        t > 0.5 * expected && t < 2.0 * expected,
        "completion time {t:.3} outside [{:.3}, {:.3}]",
        0.5 * expected,
        2.0 * expected
    );
    if let Some(peak) = peak_rss_bytes() {
        assert!(
            peak < 2 * GIB,
            "peak RSS {:.1} MiB exceeds the 2 GiB budget",
            peak as f64 / (1 << 20) as f64
        );
    }
}
