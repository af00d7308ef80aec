//! Integration: the `repro` binary's error and lint surfaces, driven as
//! a subprocess.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unwritable_out_is_a_one_line_error_not_a_panic() {
    let out = repro(&[
        "sweep",
        "--quick",
        "--samples",
        "8",
        "--threads",
        "2",
        "--out",
        "/nonexistent/dir/x.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("repro: "))
        .collect();
    assert_eq!(errors.len(), 1, "stderr:\n{stderr}");
    assert!(
        errors[0].contains("/nonexistent/dir/x.json"),
        "{}",
        errors[0]
    );
    assert!(
        stderr.trim_end().ends_with(errors[0]),
        "the error is the last line, with no usage page after it:\n{stderr}"
    );
}

#[test]
fn lint_is_a_subcommand_over_every_kind() {
    let out = repro(&["lint", "uarch"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().all(|l| l.contains(": OK (")), "{stdout}");
    assert_eq!(
        stdout.lines().count(),
        scnn_core::zoo::PRESETS.len(),
        "one line per embedded preset"
    );

    let out = repro(&["lint", "frontier"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro lint frontier"));
}
