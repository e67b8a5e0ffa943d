//! The experiments driver rejects bad arguments loudly instead of running
//! something else: usage errors exit 2 before any experiment runs, and a
//! failed result write exits 1.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the driver runs")
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["e10", "quik"], "unknown scale `quik`"),
        (&["e2", "tiny", "--cvs", "out"], "unknown flag `--cvs`"),
        (&["e2", "tiny", "extra"], "unexpected argument `extra`"),
        (&["e2", "tiny", "--csv"], "--csv needs a value"),
        (&["e2", "tiny", "--trace"], "--trace needs a value"),
        (&["e2", "tiny", "--remote"], "--remote needs a value"),
        (&["--csv", "--trace", "t"], "--csv needs a value"),
        (&["e99", "tiny"], "unknown experiment id `e99`"),
        (&["all", "--remote", "x"], "not `all`"),
        (
            &["sweep", "--remote", "x", "--csv", "out"],
            "no --csv or --trace",
        ),
        (
            &["sweep", "--trace", "t", "--remote", "x"],
            "no --csv or --trace",
        ),
        (&["serve"], "unknown experiment id `serve`"),
    ];
    for (args, why) in cases {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no experiment ran");
    }
}

#[test]
fn failed_result_write_exits_1() {
    // A directory squatting on `e2.csv` makes the CSV write fail.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-failed-write");
    std::fs::create_dir_all(dir.join("e2.csv")).expect("scratch directory");
    let out = experiments(&["e2", "tiny", "--csv", dir.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(!stderr.contains("wrote CSV/JSON"), "{stderr}");
}
