//! The space–time trade-off of Theorem 1.1, measured end to end: sweep the
//! trade-off parameter `r` at a fixed population size and print both the
//! stabilization time and the state-space size for every point.
//!
//! ```bash
//! cargo run --release --example tradeoff_sweep -- [tiny|quick|full]
//! ```

use analysis::experiments::tradeoff::{e1_tradeoff_time, e2_state_space};
use analysis::Scale;

fn main() {
    let scale = Scale::from_arg(std::env::args().nth(1).as_deref()).unwrap_or_else(|why| {
        eprintln!("{why}\nusage: tradeoff_sweep [tiny|quick|full]");
        std::process::exit(2);
    });
    println!("Running the Theorem 1.1 trade-off sweep at {scale:?} scale…\n");
    let time = e1_tradeoff_time(scale);
    println!("{}", time.to_markdown());
    let space = e2_state_space(scale);
    println!("{}", space.to_markdown());
    println!("Reading the two tables together gives the paper's trade-off: every doubling of r");
    println!("roughly halves the stabilization time and roughly quadruples the bit complexity.");
}
