//! The `repro` command line: malformed invocations print the usage line
//! and exit 2 instead of panicking (exit 101).

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_command_lines_print_usage_and_exit_2() {
    for args in [
        &[][..],
        &["t1", "--threads", "x"],
        &["t1", "--threads", "1,,2"],
        &["t1", "--threads", "0"],
        &["t1", "--threads", "65"],
        &["t1", "--threads"],
        &["t1", "--secs", "x"],
        &["t1", "--secs", "-1"],
        &["t1", "--secs", "nan"],
        &["t1", "--secs"],
        &["t1", "--quick", "--secs"],
        &["t1", "--bogus"],
        // The retired scenario stack: `repro` is the paper's figures only.
        &["chaos"],
        &["t1", "chaos"],
        &["t1", "--json"],
        &["t1", "--prom"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: repro "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn well_formed_flags_still_run() {
    let (code, stderr) = run(&["t1", "--quick", "--secs", "0.1", "--threads", "1,2"]);
    assert_eq!(code, Some(0), "{stderr}");
}
