//! Quickstart: run `ElectLeader_r` from a clean start and watch it elect a
//! unique leader.
//!
//! ```bash
//! cargo run --release --example quickstart -- [n] [r] [seed]
//! ```

use ppsim::simulation::StabilizationOptions;
use ppsim::{Configuration, Simulation};
use ssle_core::{output, ElectLeader};

const USAGE: &str = "usage: quickstart [n] [r] [seed]";

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
    let n: usize = arg(&args, 0).unwrap_or(64);
    let r: usize = arg(&args, 1).unwrap_or(n / 2);
    let seed: u64 = arg(&args, 2).unwrap_or(42);

    let protocol =
        ElectLeader::with_n_r(n, r).unwrap_or_else(|e| reject(&format!("invalid parameters: {e}")));
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
