//! The examples reject a mistyped scale or engine token with their usage and
//! exit status 2 instead of running a default.

use std::process::{Command, Output};

/// Runs an example through `cargo run` in this test's build profile, so the
/// binary is never stale.
fn run_example(name: &str, args: &[&str]) -> Output {
    let mut command = Command::new(env!("CARGO"));
    command.args(["run", "--quiet", "--example", name]);
    if !cfg!(debug_assertions) {
        command.arg("--release");
    }
    command
        .arg("--")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo runs")
}

fn assert_rejected(name: &str, args: &[&str], token: &str) {
    let out = run_example(name, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(stderr.contains(&format!("`{token}`")), "{name}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} ran anyway");
}

#[test]
fn scale_examples_reject_unknown_scales() {
    for name in ["tradeoff_sweep", "versus_baselines"] {
        assert_rejected(name, &["quik"], "quik");
    }
}

#[test]
fn discovered_electleader_rejects_unknown_engines() {
    assert_rejected(
        "discovered_electleader",
        &["48", "12", "3", "perstep"],
        "perstep",
    );
    assert_rejected("discovered_electleader", &["4x8"], "4x8");
}
