//! Quickstart: run `ElectLeader_r` from a clean start and watch it elect a
//! unique leader.
//!
//! ```bash
//! cargo run --release --example quickstart -- [n] [r] [seed]
//! ```

use harness::Cli;
use ppsim::simulation::StabilizationOptions;
use ppsim::{Configuration, Simulation};
use ssle_core::{output, ElectLeader};

const USAGE: &str = "usage: quickstart [n] [r] [seed]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 3);
    let n: usize = cli.arg(0).unwrap_or(64);
    let r: usize = cli.arg(1).unwrap_or(n / 2);
    let seed: u64 = cli.arg(2).unwrap_or(42);

    let protocol = ElectLeader::with_n_r(n, r)
        .unwrap_or_else(|e| cli.reject(&format!("invalid parameters: {e}")));
    let budget = protocol.params().suggested_budget();
    println!("ElectLeader_r quickstart");
    println!("  population size n  = {n}");
    println!("  trade-off param r  = {r}");
    println!(
        "  rank groups        = {}",
        protocol.partition().num_groups()
    );
    println!("  interaction budget = {budget}");
    println!();

    let config = Configuration::clean(&protocol);
    let mut sim = Simulation::new(protocol, config, seed);
    let result = sim.measure_stabilization(
        output::is_correct_output,
        StabilizationOptions::new(n, budget),
    );

    match result.stabilized_at {
        Some(t) => {
            println!(
                "stabilized after {t} interactions ({:.1} parallel time)",
                t as f64 / n as f64
            );
            let config = sim.configuration();
            println!("  unique leader: {}", output::has_unique_leader(config));
            println!("  leaders found: {}", output::leader_count(config));
            let leader = config
                .iter()
                .position(|s| s.verified_rank() == Some(1))
                .expect("a leader exists");
            println!(
                "  the leader is population slot #{leader} (the agent that committed to rank 1)"
            );
        }
        None => {
            println!(
                "did not stabilize within the budget of {} interactions — try a larger budget",
                result.interactions
            );
            std::process::exit(2);
        }
    }
}
