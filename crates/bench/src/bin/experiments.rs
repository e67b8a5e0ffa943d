//! The experiment driver: regenerates every result table (E1–E11 and the
//! `sweep` document); the README's "Run the experiments" section shows
//! typical invocations.
//!
//! ```bash
//! cargo run --release -p bench --bin experiments -- all quick
//! cargo run --release -p bench --bin experiments -- e1 full
//! cargo run --release -p bench --bin experiments -- e4 quick --csv results/
//! ```
//!
//! The first argument selects the experiment (an id of
//! `analysis::experiments::REGISTRY` — `e1` … `e11` — or `sweep`, or
//! `all`), the second the scale (`tiny`, `quick`, `full`; default `quick`).
//! A bad scale or experiment id, a third positional, an unknown flag, or
//! `--csv` without its value prints the usage and exits with status 2.
//! With `--csv <dir>` every table is additionally written as a CSV file and
//! as a JSON document into the given directory; a failed write exits with
//! status 1.

#![forbid(unsafe_code)]

use analysis::{experiments, Scale, Table};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }

    let mut csv_dir: Option<&str> = None;
    let mut positionals: Vec<&str> = Vec::new();
    // `--csv <dir>` may appear before, between, or after the (at most two)
    // positionals.
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--csv" => match iter.next() {
                Some(value) if !value.starts_with('-') => csv_dir = Some(value),
                _ => usage_error("--csv needs a value"),
            },
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            positional => positionals.push(positional),
        }
    }
    if let Some(extra) = positionals.get(2) {
        usage_error(&format!("unexpected argument `{extra}`"));
    }
    let selection = positionals.first().copied().unwrap_or("all");
    let scale =
        Scale::from_arg(positionals.get(1).copied()).unwrap_or_else(|why| usage_error(&why));

    let run = match selection {
        "all" => None,
        id => Some(
            experiments::by_id(id)
                .unwrap_or_else(|| usage_error(&format!("unknown experiment id `{id}`"))),
        ),
    };

    let started = Instant::now();
    let tables: Vec<Table> = match run {
        Some(run) => vec![run(scale)],
        None => experiments::all(scale),
    };

    for table in &tables {
        println!("{}", table.to_markdown());
    }
    eprintln!(
        "ran {} experiment(s) at {:?} scale in {:.1}s",
        tables.len(),
        scale,
        started.elapsed().as_secs_f64()
    );
    // Machine-readable footer for CI: the smoke jobs parse this line into the
    // timings artifact and alarm if the driver's memory footprint regresses.
    if let Some(peak) = ppsim::peak_rss_bytes() {
        eprintln!("peak-rss-mib: {:.1}", peak as f64 / (1u64 << 20) as f64);
    }

    if let Some(dir) = csv_dir.map(PathBuf::from) {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        for (index, table) in tables.iter().enumerate() {
            let stem = table
                .title
                .split(['—', ' '])
                .find(|s| !s.trim().is_empty())
                .map(|s| s.trim().to_lowercase())
                .unwrap_or_else(|| format!("table{index}"));
            let csv_path = dir.join(format!("{stem}.csv"));
            let json_path = dir.join(format!("{stem}.json"));
            for (path, contents) in [(csv_path, table.to_csv()), (json_path, table.to_json())] {
                if let Err(e) = std::fs::write(&path, contents) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        eprintln!("wrote CSV/JSON results to {}", dir.display());
    }
}

/// Prints `why` and the usage, then exits with status 2.
fn usage_error(why: &str) -> ! {
    eprintln!("{why}");
    print_usage();
    std::process::exit(2);
}

fn print_usage() {
    eprintln!("usage: experiments [<id>|all] [tiny|quick|full] [--csv <dir>]");
    eprintln!();
    eprintln!("ids:");
    for e in experiments::REGISTRY {
        eprintln!("  {:<5} {}", e.id, e.about);
    }
    eprintln!("  sweep deterministic epidemic sweep (timing-free; carries its spec and result id)");
}
