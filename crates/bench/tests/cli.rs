//! CLI contract of the `figures` binary: malformed invocations exit 2
//! with a usage message on stderr — never a panic, never exit 0. These
//! run the real binary (`CARGO_BIN_EXE_figures`) and stick to argument
//! validation, so no simulation ever starts.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

fn assert_usage_exit(args: &[&str], needle: &str) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "figures {args:?} must exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(needle),
        "figures {args:?} stderr must mention {needle:?}:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "figures {args:?} must not panic:\n{stderr}"
    );
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    assert_usage_exit(&["no-such-figure"], "unknown experiment");
    assert_usage_exit(&["no-such-figure"], "tournament");
}

#[test]
fn scenario_without_operand_prints_usage() {
    assert_usage_exit(&["scenario"], "usage: figures scenario");
}

#[test]
fn bench_flags_need_values() {
    assert_usage_exit(&["bench", "--check"], "--check needs a path");
    assert_usage_exit(&["bench", "--out"], "--out needs a path");
    assert_usage_exit(&["bench", "--bogus"], "unknown bench argument");
}

#[test]
fn tournament_rejects_malformed_arguments() {
    assert_usage_exit(
        &["tournament", "--seed"],
        "--seed needs an unsigned integer",
    );
    assert_usage_exit(
        &["tournament", "--seed", "abc"],
        "usage: figures tournament",
    );
    assert_usage_exit(
        &["tournament", "--profile", "impossible"],
        "calm, brisk, stormy",
    );
    assert_usage_exit(&["tournament", "0"], "positive integer");
    assert_usage_exit(&["tournament", "2", "3"], "at most one scenario-count");
    assert_usage_exit(&["tournament", "--bogus"], "unknown tournament flag");
}

#[test]
fn fleet_and_chaos_reject_garbage_operands() {
    assert_usage_exit(&["fleet", "not-a-number"], "positive integer");
    assert_usage_exit(&["chaos", "not-a-seed"], "unsigned integers");
    assert_usage_exit(&["profile", "--bogus"], "usage: figures profile");
}

#[test]
fn figure_path_rejects_unknown_flags() {
    assert_usage_exit(&["table1", "--bogus"], "usage: figures");
}

#[test]
fn bench_check_reads_the_committed_file_before_running() {
    assert_usage_exit(
        &["bench", "--check", "/nonexistent/BENCH.json"],
        "/nonexistent/BENCH.json",
    );
}
