//! The experiments driver rejects a mistyped scale token instead of running
//! at a default scale.

use std::process::Command;

#[test]
fn unknown_scale_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e10", "quik"])
        .output()
        .expect("the driver runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown scale `quik`"), "{stderr}");
    assert!(stderr.contains("usage: experiments"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment ran");
}
