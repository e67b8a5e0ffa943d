//! Wide-regime memory smoke test — `#[ignore]`d by default because it only
//! makes sense in release mode (CI runs it with `--release -- --ignored`).
//!
//! At `n = 512, r = 128` every group has `m = 128` ranks, so once the
//! population verifies, each of its 512 agents holds `2m²` message IDs and
//! `2m²` observations. At one byte per observation (plus a short palette of
//! contents) a fresh verifier's payload is `10m² + 12m + 8` bytes, ~160 KiB;
//! at one 8-byte word per observation it was `24m² + 12m`, ~384 KiB. The
//! test binary holds this one test, so the peak RSS read from process start
//! is the trial's.

use ppsim::simulation::StabilizationOptions;
use ppsim::{peak_rss_bytes, Configuration, Simulation};
use ssle_core::{output, ElectLeader};

/// One clean `n = 512, r = 128` trial, run to stabilization and through its
/// confirmation window, peaks below 128 MiB (~93 MiB measured; ~207 MiB
/// with 8-byte observations).
#[test]
#[ignore = "release-mode smoke: one n = 512, r = 128 trial, a few seconds"]
fn a_wide_trial_peaks_below_128_mib() {
    const N: usize = 512;
    let protocol = ElectLeader::with_n_r(N, 128).expect("valid parameters");
    let budget = protocol.params().suggested_budget();
    let config = Configuration::clean(&protocol);
    let mut sim = Simulation::new(protocol, config, 7);
    let result = sim.measure_stabilization(
        output::is_correct_output,
        StabilizationOptions::new(N, budget),
    );
    assert!(result.stabilized_at.is_some(), "the trial stabilizes");
    let peak = peak_rss_bytes().expect("Linux exposes VmHWM");
    println!(
        "n = {N}, r = 128: stabilized at {:?}, peak RSS {:.1} MiB",
        result.stabilized_at,
        peak as f64 / f64::from(1 << 20)
    );
    assert!(
        peak < 128 << 20,
        "peak RSS {peak} bytes is not below 128 MiB"
    );
}
