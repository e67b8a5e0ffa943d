//! Collision detection in isolation: plant duplicated ranks in an otherwise
//! correct, fully verified population and watch `DetectCollision_r` find
//! them, comparing the message-based mechanism against the "wait until two
//! same-rank agents meet" baseline the paper argues against (Section 3.1).
//!
//! ```bash
//! cargo run --release --example collision_detection -- [n] [r] [duplicates] [trials]
//! ```

use harness::Cli;
use ppsim::rng::derive_seed;
use ppsim::{SimRng, Simulation};
use ssle_core::{ElectLeader, Scenario};

const USAGE: &str = "usage: collision_detection [n] [r] [duplicates] [trials]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 4);
    let n: usize = cli.arg(0).unwrap_or(64);
    let r: usize = cli.arg(1).unwrap_or(n / 2);
    let duplicates: usize = cli.arg(2).unwrap_or(2);
    let trials: u64 = cli.arg(3).unwrap_or(5);
    if let Err(e) = ElectLeader::with_n_r(n, r) {
        cli.reject(&format!("invalid parameters `{n} {r}`: {e}"));
    }
    // Duplicate pair i is agents (i, n - duplicates + i): the pairs are
    // disjoint only for at most n/2 of them.
    if !(1..=n / 2).contains(&duplicates) {
        cli.reject(&format!(
            "duplicates `{duplicates}` must lie in 1..={}",
            n / 2
        ));
    }
    if trials == 0 {
        cli.reject("trials `0` must be at least 1");
    }

    println!("Collision-detection latency (n = {n}, r = {r}, {duplicates} duplicated ranks)");
    println!(
        "{:>6} {:>26} {:>26}",
        "trial", "detection (interactions)", "naive same-rank meeting"
    );

    let mut detection_total = 0.0;
    let mut naive_total = 0.0;
    for trial in 0..trials {
        let protocol = ElectLeader::with_n_r(n, r).expect("parameters checked above");
        let budget = protocol.params().suggested_budget();
        let mut rng = SimRng::seed_from_u64(derive_seed(0xC0111D, trial));
        let config = Scenario::DuplicateRanks(duplicates).generate(&protocol, &mut rng);

        // Naive baseline: wait until a designated duplicate pair meets
        // directly under the uniformly random scheduler.
        let naive = simulate_direct_meeting(n, duplicates, derive_seed(0xBEEF, trial));

        let mut sim = Simulation::new(protocol, config, derive_seed(0xD07, trial));
        let outcome = sim.run_until(|c| c.any(|s| s.is_resetting()), budget);
        let detected = if outcome.satisfied {
            outcome.interactions
        } else {
            budget
        };
        println!("{trial:>6} {detected:>26} {naive:>26}");
        detection_total += detected as f64;
        naive_total += naive as f64;
    }
    println!();
    println!(
        "mean detection: {:.0} interactions ({:.1} parallel time)",
        detection_total / trials as f64,
        detection_total / trials as f64 / n as f64
    );
    println!(
        "mean naive same-rank meeting: {:.0} interactions ({:.1} parallel time)",
        naive_total / trials as f64,
        naive_total / trials as f64 / n as f64
    );
    println!(
        "The message-based mechanism should win by a growing factor as n grows (Section 3.1)."
    );
}

/// Simulates the naive baseline: how many uniformly random ordered pairs are
/// drawn until one of the `duplicates` designated agents meets its duplicate
/// partner (`1 <= duplicates <= n / 2`).
fn simulate_direct_meeting(n: usize, duplicates: usize, seed: u64) -> u64 {
    use rand::RngCore;
    let mut rng = SimRng::seed_from_u64(seed);
    // Duplicate pairs: (i, n - duplicates + i) for i in 0..duplicates.
    let mut steps = 0u64;
    loop {
        steps += 1;
        let a = (rng.next_u64() % n as u64) as usize;
        let mut b = (rng.next_u64() % (n as u64 - 1)) as usize;
        if b >= a {
            b += 1;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        if lo < duplicates && hi == n - duplicates + lo {
            return steps;
        }
    }
}
