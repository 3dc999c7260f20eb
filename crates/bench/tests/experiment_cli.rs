//! The command-line contract every `exp_*` binary shares, driven through
//! F1 (the fastest one): one grid per run, selected by flags alone, and a
//! byte-deterministic report. Then the `regress` gate's, over F1's
//! committed baseline: exit 0 clean, 1 on any gap or drift, 2 on bad flags.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_sim::report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXP: &str = "exp_f1_scenario";

/// A fresh, empty output directory named after the calling test.
fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("experiment_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], env: &[(&str, &str)], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_f1_scenario"))
        .args(args)
        .arg("--out")
        .arg(out)
        .envs(env.iter().copied())
        .output()
        .unwrap()
}

fn report_bytes(out: &Path) -> Vec<u8> {
    std::fs::read(out.join(format!("{EXP}.json"))).unwrap()
}

#[test]
fn reports_are_full_size_byte_identical_and_ignore_the_environment() {
    let (a, b, smoke_env) = (out_dir("a"), out_dir("b"), out_dir("smoke_env"));
    assert!(run(&[], &[], &a).status.success());
    assert!(run(&[], &[], &b).status.success());
    assert!(run(&[], &[("PG_SMOKE", "1")], &smoke_env).status.success());
    let first = report_bytes(&a);
    assert_eq!(first, report_bytes(&b), "two runs wrote different reports");
    assert_eq!(
        first,
        report_bytes(&smoke_env),
        "PG_SMOKE=1 changed the report"
    );
    let report = Report::from_json(std::str::from_utf8(&first).unwrap()).unwrap();
    assert_eq!(report.meta.get("mode").map(String::as_str), Some("full"));
}

#[test]
fn smoke_flag_is_a_usage_error_and_writes_no_report() {
    let out = out_dir("smoke");
    let output = run(&["--smoke"], &[], &out);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains(&format!("usage: {EXP} [--chaos] [--out DIR]")),
        "stderr: {stderr}"
    );
    assert_eq!(std::fs::read_dir(&out).unwrap().count(), 0);
}

/// A `baselines/` holding F1's committed baseline and a `results/` holding
/// an identical fresh report, under a fresh directory named after the
/// calling test.
fn gate_dirs(name: &str) -> (PathBuf, PathBuf) {
    let root = out_dir(&format!("regress_{name}"));
    let (baselines, results) = (root.join("baselines"), root.join("results"));
    std::fs::create_dir_all(&baselines).unwrap();
    std::fs::create_dir_all(&results).unwrap();
    let committed =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../baselines/BENCH_{EXP}.json"));
    std::fs::copy(&committed, baselines.join(format!("BENCH_{EXP}.json"))).unwrap();
    std::fs::copy(&committed, results.join(format!("{EXP}.json"))).unwrap();
    (baselines, results)
}

fn regress(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_regress"))
        .args(args)
        .output()
        .unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (
        output.status.code(),
        text(output.stdout),
        text(output.stderr),
    )
}

fn regress_dirs(baselines: &Path, results: &Path) -> (Option<i32>, String, String) {
    regress(&[
        "--baselines",
        baselines.to_str().unwrap(),
        "--results",
        results.to_str().unwrap(),
    ])
}

#[test]
fn regress_passes_identical_reports() {
    let (baselines, results) = gate_dirs("identical");
    let (code, stdout, stderr) = regress_dirs(&baselines, &results);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains(&format!("ok   {EXP}")), "stdout: {stdout}");
}

#[test]
fn regress_names_a_nudged_leaf_by_its_flattened_path() {
    let (baselines, results) = gate_dirs("nudged");
    let fresh_path = results.join(format!("{EXP}.json"));
    let mut fresh = Report::from_json(&std::fs::read_to_string(&fresh_path).unwrap()).unwrap();
    *fresh.scalars.get_mut("aggregate.energy_j").unwrap() *= 1.001;
    std::fs::write(&fresh_path, fresh.to_json().unwrap()).unwrap();
    let (code, stdout, _) = regress_dirs(&baselines, &results);
    assert_eq!(code, Some(1), "stdout: {stdout}");
    assert!(stdout.contains(&format!("FAIL {EXP}")), "stdout: {stdout}");
    assert!(
        stdout.contains("scalars.aggregate.energy_j"),
        "stdout: {stdout}"
    );
}

#[test]
fn regress_fails_a_baseline_without_a_fresh_report() {
    let (baselines, results) = gate_dirs("no_fresh");
    std::fs::remove_file(results.join(format!("{EXP}.json"))).unwrap();
    let (code, _, stderr) = regress_dirs(&baselines, &results);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("missing or unreadable fresh report"),
        "stderr: {stderr}"
    );
}

#[test]
fn regress_fails_a_fresh_report_without_a_baseline() {
    let (baselines, results) = gate_dirs("no_baseline");
    let stray = results.join("exp_unbaselined.json");
    std::fs::copy(results.join(format!("{EXP}.json")), &stray).unwrap();
    let (code, _, stderr) = regress_dirs(&baselines, &results);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("FAIL exp_unbaselined: fresh report") && stderr.contains("has no baseline"),
        "stderr: {stderr}"
    );
}

#[test]
fn regress_rejects_an_unknown_flag() {
    let (code, _, stderr) = regress(&["--tolerance", "0.25"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage: regress"), "stderr: {stderr}");
}
