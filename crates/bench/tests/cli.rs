//! The harness binaries reject bad input — including parsable values a
//! fault layer cannot take — with usage and exit status 2, never a
//! backtrace, and answer `--help` with usage and status 0.

use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const SIMULATE: &str = env!("CARGO_BIN_EXE_simulate");

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for bin in [FIGURES, SIMULATE] {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("spawn binary");
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
    }
}

#[test]
fn figures_rejects_an_unknown_target() {
    assert_usage_error(FIGURES, &["fig11"]);
}

#[test]
fn figures_rejects_an_unknown_flag() {
    assert_usage_error(FIGURES, &["--fast", "theory"]);
}

#[test]
fn figures_rejects_an_unparsable_or_missing_value() {
    assert_usage_error(FIGURES, &["--jobs", "x"]);
    assert_usage_error(FIGURES, &["--seed"]);
}

#[test]
fn simulate_rejects_an_unknown_flag() {
    assert_usage_error(SIMULATE, &["--bogus"]);
}

#[test]
fn simulate_rejects_an_unparsable_or_missing_value() {
    assert_usage_error(SIMULATE, &["--nodes", "many"]);
    assert_usage_error(SIMULATE, &["--chaos", "20:soon"]);
    assert_usage_error(SIMULATE, &["--allocator", "fastest"]);
    assert_usage_error(SIMULATE, &["--workload"]);
}

#[test]
fn simulate_rejects_out_of_range_layer_values() {
    for args in [
        &["--failslow", "1.5"][..],
        &["--failslow", "0.3:2"],
        &["--chaos", "-3:10"],
        &["--detector", "1.5"],
        &["--partition", "1.5:8"],
        &["--corruption", "1.5:10"],
        &["--fail", "10:99"],
        &[
            "--checkpoint",
            "10",
            "--chaos",
            "20:10",
            "--detector",
            "0.2",
            "--master-crash",
            "2",
        ],
    ] {
        assert_usage_error(SIMULATE, args);
    }
}
