//! `ElectLeader_r` versus the baseline protocols (experiment E6): compare
//! the time to a correct output across population sizes for three
//! `ElectLeader_r` regimes and the four baselines.
//!
//! ```bash
//! cargo run --release --example versus_baselines -- [tiny|quick|full]
//! ```

use analysis::experiments::comparison::e6_versus_baselines;
use analysis::Scale;

fn main() {
    let scale = Scale::from_arg(std::env::args().nth(1).as_deref()).unwrap_or_else(|why| {
        eprintln!("{why}\nusage: versus_baselines [tiny|quick|full]");
        std::process::exit(2);
    });
    println!("Running the baseline comparison at {scale:?} scale…\n");
    let table = e6_versus_baselines(scale);
    println!("{}", table.to_markdown());
}
