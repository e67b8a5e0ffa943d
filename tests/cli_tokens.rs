//! The examples reject a mistyped engine, number or flag token with their
//! usage and exit status 2 instead of running a default.

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
fn discovered_electleader_rejects_unknown_engines() {
    assert_rejected(
        "discovered_electleader",
        &["48", "12", "3", "perstep"],
        "perstep",
    );
    assert_rejected("discovered_electleader", &["4x8"], "4x8");
}

#[test]
fn discovered_electleader_rejects_bad_parameters() {
    let name = "discovered_electleader";
    assert_rejected(name, &["16", "9"], "16 9");
    assert_rejected(name, &["16", "4", "2", "batched", "extra"], "extra");
    assert_rejected(name, &["16", "4", "0"], "0");
}

#[test]
fn quickstart_rejects_bad_tokens_and_parameters() {
    assert_rejected("quickstart", &["1024", "2x6"], "2x6");
    assert_rejected("quickstart", &["x64"], "x64");
    assert_rejected("quickstart", &["64", "8", "-1"], "-1");
    assert_rejected("quickstart", &["64", "8", "7", "extra"], "extra");
    // A group of 512 ranks does not fit the 8-byte message.
    let out = run_example("quickstart", &["1024", "512"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("limited to 511 ranks"), "{stderr}");
    assert!(stderr.contains("usage: quickstart"), "{stderr}");
    assert!(out.stdout.is_empty(), "quickstart ran anyway");
}

#[test]
fn collision_detection_rejects_bad_tokens_and_parameters() {
    let name = "collision_detection";
    assert_rejected(name, &["16", "x4"], "x4");
    assert_rejected(name, &["16", "4", "2", "1", "extra"], "extra");
    // Duplicate pairs (i, n - d + i) exist only for 1 <= d <= n/2.
    assert_rejected(name, &["16", "4", "16", "1"], "16");
    assert_rejected(name, &["16", "4", "9", "1"], "9");
    assert_rejected(name, &["16", "4", "0", "1"], "0");
    // No trials would print a NaN mean.
    assert_rejected(name, &["16", "4", "2", "0"], "0");
    assert_rejected(name, &["16", "9"], "16 9");
}

#[test]
fn adversarial_recovery_rejects_bad_tokens_and_parameters() {
    let name = "adversarial_recovery";
    assert_rejected(name, &["32", "x8"], "x8");
    assert_rejected(name, &["32", "8", "-7"], "-7");
    assert_rejected(name, &["32", "8", "7", "extra"], "extra");
    assert_rejected(name, &["32", "17"], "32 17");
    assert_rejected(name, &["2"], "2 8");
}

#[test]
fn fleet_throughput_rejects_anything_but_assert() {
    assert_rejected("fleet_throughput", &["--asert"], "--asert");
    assert_rejected("fleet_throughput", &["--assert", "extra"], "extra");
}

#[test]
fn fleet_determinism_rejects_bad_tokens() {
    let name = "fleet_determinism";
    assert_rejected(name, &["abc"], "abc");
    assert_rejected(name, &["0"], "0");
    assert_rejected(name, &["8", "extra"], "extra");
    assert_rejected(name, &["8", "--trace"], "--trace");
    assert_rejected(name, &["--trace", "t.jsonl", "8", "extra"], "extra");
}
