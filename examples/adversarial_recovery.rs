//! Adversarial recovery: start `ElectLeader_r` from every adversarial
//! scenario of the catalog and report how long the protocol needs to recover
//! a correct configuration — the self-stabilization property in action.
//!
//! ```bash
//! cargo run --release --example adversarial_recovery -- [n] [r] [seed]
//! ```

use harness::Cli;
use ppsim::simulation::StabilizationOptions;
use ppsim::{SimRng, Simulation};
use ssle_core::{classify, output, ElectLeader, Scenario};

const USAGE: &str = "usage: adversarial_recovery [n] [r] [seed]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 3);
    let n: usize = cli.arg(0).unwrap_or(32);
    let r: usize = cli.arg(1).unwrap_or(8);
    let seed: u64 = cli.arg(2).unwrap_or(7);

    let protocol = ElectLeader::with_n_r(n, r)
        .unwrap_or_else(|e| cli.reject(&format!("invalid parameters `{n} {r}`: {e}")));
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
