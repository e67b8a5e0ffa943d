//! Adversarial recovery: start `ElectLeader_r` from every adversarial
//! scenario of the catalog and report how long the protocol needs to recover
//! a correct configuration — the self-stabilization property in action.
//!
//! ```bash
//! cargo run --release --example adversarial_recovery -- [n] [r] [seed]
//! ```

use ppsim::simulation::StabilizationOptions;
use ppsim::{SimRng, Simulation};
use ssle_core::{classify, output, ElectLeader, Scenario};

const USAGE: &str = "usage: adversarial_recovery [n] [r] [seed]";

/// Prints `message` and the usage, and exits with status 2.
fn reject(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}

/// The `index`-th argument parsed, `None` when absent; an unparsable token
/// is rejected.
fn arg<T: std::str::FromStr>(args: &[String], index: usize) -> Option<T> {
    let token = args.get(index)?;
    Some(
        token
            .parse()
            .unwrap_or_else(|_| reject(&format!("bad argument `{token}`"))),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = args.get(3) {
        reject(&format!("unexpected argument `{extra}`"));
    }
    let n: usize = arg(&args, 0).unwrap_or(32);
    let r: usize = arg(&args, 1).unwrap_or(8);
    let seed: u64 = arg(&args, 2).unwrap_or(7);

    let protocol = ElectLeader::with_n_r(n, r)
        .unwrap_or_else(|e| reject(&format!("invalid parameters `{n} {r}`: {e}")));
    let budget = protocol.params().suggested_budget();
    println!("Self-stabilization from adversarial configurations (n = {n}, r = {r})");
    println!(
        "{:<26} {:<30} {:>14} {:>10}",
        "scenario", "hierarchy level at start", "interactions", "par. time"
    );

    for scenario in Scenario::catalog(n) {
        let protocol = ElectLeader::with_n_r(n, r).expect("parameters checked above");
        let mut rng = SimRng::seed_from_u64(seed);
        let config = scenario.generate(&protocol, &mut rng);
        let level = classify(&config);
        let mut sim = Simulation::new(protocol, config, seed ^ 0x1234);
        let result = sim.measure_stabilization(
            output::is_correct_output,
            StabilizationOptions::new(n, budget),
        );
        match result.stabilized_at {
            Some(t) => println!(
                "{:<26} {:<30} {:>14} {:>10.1}",
                scenario.name(),
                level.label(),
                t,
                t as f64 / n as f64
            ),
            None => println!(
                "{:<26} {:<30} {:>14} {:>10}",
                scenario.name(),
                level.label(),
                "DID NOT RECOVER",
                "-"
            ),
        }
    }
    println!();
    println!(
        "Every scenario should recover: that is the self-stabilization guarantee of Theorem 1.1."
    );
}
