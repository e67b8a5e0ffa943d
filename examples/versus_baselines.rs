//! `ElectLeader_r` versus the baseline protocols (experiment E6): compare
//! the time to a correct output across population sizes for three
//! `ElectLeader_r` regimes and the four baselines.
//!
//! ```bash
//! cargo run --release --example versus_baselines -- [tiny|quick|full]
//! ```

use analysis::experiments::comparison::e6_versus_baselines;
use analysis::Scale;

const USAGE: &str = "usage: versus_baselines [tiny|quick|full]";

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
    println!("Running the baseline comparison at {scale:?} scale…\n");
    let table = e6_versus_baselines(scale);
    println!("{}", table.to_markdown());
}
