//! The space–time trade-off of Theorem 1.1, measured end to end: the
//! stabilization time over the `(n, r)` grid on the per-step engine (E1),
//! then the state-space size along `r` at a fixed population size (E2).
//!
//! ```bash
//! cargo run --release --example tradeoff_sweep -- [tiny|quick|full]
//! ```

use analysis::experiments::tradeoff::{e1_tradeoff_time, e2_state_space};
use analysis::Scale;
use harness::Cli;

const USAGE: &str = "usage: tradeoff_sweep [tiny|quick|full]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 1);
    let scale = Scale::from_arg(cli.token(0)).unwrap_or_else(|why| cli.reject(&why));
    println!("Running the Theorem 1.1 trade-off sweep at {scale:?} scale…\n");
    let time = e1_tradeoff_time(scale);
    println!("{}", time.to_markdown());
    let space = e2_state_space(scale);
    println!("{}", space.to_markdown());
    println!("Reading the two tables together gives the paper's trade-off: every doubling of r");
    println!("roughly halves the stabilization time and roughly quadruples the bit complexity.");
}
