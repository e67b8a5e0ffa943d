//! The `ssle-server` binary rejects bad arguments before it starts: usage
//! errors exit 2, and a daemon that cannot start exits 1.

use std::process::{Command, Output};

fn ssle_server(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssle-server"))
        .args(args)
        .output()
        .expect("the daemon binary runs")
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["--turbo"], "unknown flag `--turbo`"),
        (&["--addr"], "--addr needs a value"),
        (&["--cache"], "--cache needs a value"),
        (&["--workers"], "--workers needs a value"),
        (&["--workers", "many"], "--workers needs a positive integer"),
        (&["--workers", "-1"], "--workers needs a positive integer"),
        (&["--workers", "0"], "--workers needs a positive integer"),
    ];
    for (args, why) in cases {
        let out = ssle_server(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ssle-server"), "{args:?}: {stderr}");
        assert!(!stderr.contains("listening"), "{args:?}: {stderr}");
    }
}

#[test]
fn unusable_cache_directory_exits_1() {
    // A file squatting on the cache path makes the cache set-up fail before
    // anything binds.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("server-cli");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let file = dir.join("not-a-directory");
    std::fs::write(&file, b"").expect("scratch file");
    let out = ssle_server(&[
        "--addr",
        "127.0.0.1:0",
        "--cache",
        file.to_str().expect("utf-8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("usage: ssle-server"), "{stderr}");
    assert!(!stderr.contains("listening"), "{stderr}");
}
