//! `ElectLeader_r` versus the baseline protocols (experiment E6): compare
//! the time to a correct output across population sizes for three
//! `ElectLeader_r` regimes and the four baselines.
//!
//! ```bash
//! cargo run --release --example versus_baselines -- [tiny|quick|full]
//! ```

use analysis::experiments::comparison::e6_versus_baselines;
use analysis::Scale;
use harness::Cli;

const USAGE: &str = "usage: versus_baselines [tiny|quick|full]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 1);
    let scale = Scale::from_arg(cli.token(0)).unwrap_or_else(|why| cli.reject(&why));
    println!("Running the baseline comparison at {scale:?} scale…\n");
    let table = e6_versus_baselines(scale);
    println!("{}", table.to_markdown());
}
