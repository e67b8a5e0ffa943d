//! The `harness` crate: the workspace root package.
//!
//! Exists to house the repo-level integration suites in `tests/` and the
//! runnable examples in `examples/`, and re-exports the workspace crates so
//! both can reach the whole stack through one dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use baselines;
pub use ppsim;
pub use ssle_core;

/// Command-line arguments of the examples. A bad token prints what is wrong
/// and the example's usage line, and exits with status 2.
pub struct Cli {
    usage: &'static str,
    args: Vec<String>,
}

impl Cli {
    /// The program's arguments `args` (without the program name), of which
    /// there may be at most `max`; an extra one is rejected with `usage`.
    pub fn new(usage: &'static str, args: impl IntoIterator<Item = String>, max: usize) -> Self {
        let cli = Cli {
            usage,
            args: args.into_iter().collect(),
        };
        if let Some(extra) = cli.args.get(max) {
            cli.reject(&format!("unexpected argument `{extra}`"));
        }
        cli
    }

    /// Prints `message` and the usage, and exits with status 2.
    pub fn reject(&self, message: &str) -> ! {
        eprintln!("{message}\n{}", self.usage);
        std::process::exit(2)
    }

    /// The `index`-th argument, `None` when absent.
    pub fn token(&self, index: usize) -> Option<&str> {
        self.args.get(index).map(String::as_str)
    }

    /// The `index`-th argument as parsed by `parse`, `None` when absent; a
    /// token `parse` refuses is rejected.
    pub fn arg_with<T>(&self, index: usize, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let token = self.token(index)?;
        Some(parse(token).unwrap_or_else(|| self.reject(&format!("bad argument `{token}`"))))
    }

    /// The `index`-th argument parsed, `None` when absent; an unparsable
    /// token is rejected.
    pub fn arg<T: std::str::FromStr>(&self, index: usize) -> Option<T> {
        self.arg_with(index, |token| token.parse().ok())
    }
}
