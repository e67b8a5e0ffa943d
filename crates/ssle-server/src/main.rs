//! The `ssle-server` binary: parse flags, start the daemon, run forever.
//!
//! ```text
//! ssle-server [--addr HOST:PORT] [--workers N] [--cache DIR]
//! ```
//!
//! Defaults: `127.0.0.1:7878`, 2 workers, memory-only cache. The bound
//! address is printed to stderr once listening (port 0 resolves to the
//! ephemeral port, which is how scripts discover it). An unknown flag, a
//! flag missing its value, or a worker count that is not a positive
//! integer prints the usage and exits with status 2; a failed start exits 1.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ssle_server::{spawn, ServerConfig};

fn main() -> ExitCode {
    // lint:allow(determinism): argv is the daemon's configuration input, read once at startup
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("ssle-server: {message}");
            eprintln!("usage: ssle-server [--addr HOST:PORT] [--workers N] [--cache DIR]");
            return ExitCode::from(2);
        }
    };
    match spawn(config) {
        Ok(handle) => {
            eprintln!("ssle-server: listening on {}", handle.addr());
            handle.join();
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("ssle-server: {error}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .ok()
                    .filter(|&workers| workers > 0)
                    .ok_or_else(|| "--workers needs a positive integer".to_string())?;
            }
            "--cache" => config.cache_dir = Some(PathBuf::from(value("--cache")?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_flags_parse() {
        let config = parse_args(&[]).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7878");
        assert_eq!(config.workers, 2);
        assert!(config.cache_dir.is_none());

        let config = parse_args(&strings(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--cache",
            "cache",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.workers, 4);
        assert_eq!(config.cache_dir, Some(PathBuf::from("cache")));
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_args(&strings(&["--addr"])).is_err());
        assert!(parse_args(&strings(&["--workers", "many"])).is_err());
        assert!(parse_args(&strings(&["--workers", "0"])).is_err());
        assert!(parse_args(&strings(&["--turbo"])).is_err());
    }
}
