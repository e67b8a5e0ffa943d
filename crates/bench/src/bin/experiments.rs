//! The experiment driver: regenerates every result table (E1–E11, F1, P1,
//! and the `sweep` document); the README's "Run the experiments" section
//! shows typical invocations.
//!
//! ```bash
//! cargo run --release -p bench --bin experiments -- all quick
//! cargo run --release -p bench --bin experiments -- e1 full
//! cargo run --release -p bench --bin experiments -- e4 quick --csv results/
//! ```
//!
//! The first argument selects the experiment (an id of
//! `analysis::experiments::REGISTRY` — `e1` … `e11`, `fleet`, `p1` — or
//! `sweep`, or `all`), the second the scale (`tiny`, `quick`, `full`;
//! default `quick`). A bad scale or experiment id, a third positional, an
//! unknown flag, a flag missing its value, or `--remote` with `all`,
//! `--csv` or `--trace` prints the usage and exits with status 2. With `--csv <dir>` every table is additionally written as a CSV
//! file and as a JSON document into the given directory; a failed write
//! exits with status 1. With `--trace <path>` the driver
//! additionally runs one telemetry-instrumented adaptive epidemic (the P1
//! reference workload) and writes its trace as JSONL: the deterministic
//! event stream first, the wall-clock timing stream after.
//!
//! With `--remote HOST:PORT` a single-experiment selection runs on a
//! running `ssle-server` daemon instead of locally, and the returned
//! result-table JSON document (byte-identical to a local run) is printed to
//! stdout; `all` cannot be sent remotely.

#![forbid(unsafe_code)]

use analysis::{experiments, ExperimentService, JobSpec, Scale, Table};
use ssle_client::HttpClient;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }

    let mut csv_dir: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut remote_addr: Option<&str> = None;
    let mut positionals: Vec<&str> = Vec::new();
    // `--csv <dir>`, `--trace <path>` and `--remote <addr>` may appear
    // before, between, or after the (at most two) positionals.
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let slot = match arg.as_str() {
            "--csv" => &mut csv_dir,
            "--trace" => &mut trace_path,
            "--remote" => &mut remote_addr,
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            positional => {
                positionals.push(positional);
                continue;
            }
        };
        match iter.next() {
            Some(value) if !value.starts_with('-') => *slot = Some(value),
            _ => usage_error(&format!("{arg} needs a value")),
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
    if let Some(addr) = remote_addr {
        if run.is_none() {
            usage_error("--remote runs a single experiment id, not `all`");
        }
        if csv_dir.is_some() || trace_path.is_some() {
            usage_error("--remote prints the result document; it takes no --csv or --trace");
        }
        run_remote(addr, selection, scale);
        return;
    }

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

    if let Some(path) = trace_path.map(PathBuf::from) {
        let jsonl = analysis::experiments::profiling::reference_trace_jsonl(scale);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
        if let Err(e) = std::fs::write(&path, jsonl) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote reference telemetry trace to {}", path.display());
    }
}

/// Runs one experiment through a remote daemon and prints the result
/// document — the same bytes `Table::to_json` produces locally.
fn run_remote(addr: &str, selection: &str, scale: Scale) {
    let spec = JobSpec::new(selection, scale);
    let client = HttpClient::new(addr);
    match client.run_job(&spec) {
        // `print!`, not `println!`: stdout must carry the document's exact
        // bytes (CI byte-diffs it against a locally written `--csv` JSON
        // file, which has no trailing newline).
        Ok(document) => {
            use std::io::Write;
            let mut stdout = std::io::stdout();
            let _ = stdout.write_all(document.as_bytes());
            let _ = stdout.flush();
        }
        Err(e) => {
            eprintln!("remote job against {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints `why` and the usage, then exits with status 2.
fn usage_error(why: &str) -> ! {
    eprintln!("{why}");
    print_usage();
    std::process::exit(2);
}

fn print_usage() {
    eprintln!(
        "usage: experiments [<id>|all] [tiny|quick|full] [--csv <dir>] [--trace <path>] \
         [--remote <host:port>]"
    );
    eprintln!();
    eprintln!("ids:");
    for e in experiments::REGISTRY {
        eprintln!("  {:<5} {}", e.id, e.about);
    }
    eprintln!("  sweep deterministic epidemic sweep (timing-free; the service's native workload)");
}
