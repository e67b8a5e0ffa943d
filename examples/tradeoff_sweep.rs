//! The space–time trade-off of Theorem 1.1, measured end to end: the
//! stabilization time over the `(n, r)` grid on the per-step engine (E1),
//! then the state-space size along `r` at a fixed population size (E2).
//!
//! ```bash
//! cargo run --release --example tradeoff_sweep -- [tiny|quick|full]
//! ```

use analysis::experiments::tradeoff::{e1_tradeoff_time, e2_state_space};
use analysis::Scale;

const USAGE: &str = "usage: tradeoff_sweep [tiny|quick|full]";

/// Prints `message` and the usage, and exits with status 2.
fn reject(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = args.get(1) {
        reject(&format!("unexpected argument `{extra}`"));
    }
    let scale =
        Scale::from_arg(args.first().map(String::as_str)).unwrap_or_else(|why| reject(&why));
    println!("Running the Theorem 1.1 trade-off sweep at {scale:?} scale…\n");
    let time = e1_tradeoff_time(scale);
    println!("{}", time.to_markdown());
    let space = e2_state_space(scale);
    println!("{}", space.to_markdown());
    println!("Reading the two tables together gives the paper's trade-off: every doubling of r");
    println!("roughly halves the stabilization time and roughly quadruples the bit complexity.");
}
