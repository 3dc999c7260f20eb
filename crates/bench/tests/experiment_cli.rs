//! The command-line contract every `exp_*` binary shares, driven through
//! F1 (the fastest one): one grid per run, selected by flags alone, a
//! byte-deterministic report, equal to the committed baseline, and a
//! stdout equal to its EXPERIMENTS.md block.

#![allow(clippy::unwrap_used, clippy::expect_used)]

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

/// The body of EXPERIMENTS.md's ```` ```text exp_f1_scenario ```` block.
fn documented_stdout() -> String {
    let doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(doc).unwrap();
    let fence = format!("```text {EXP}");
    let mut lines = doc.lines();
    assert!(
        lines.any(|l| l == fence),
        "EXPERIMENTS.md has no {fence} block"
    );
    lines
        .take_while(|l| *l != "```")
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn reports_are_full_size_byte_identical_and_ignore_the_environment() {
    let (a, b, smoke_env) = (out_dir("a"), out_dir("b"), out_dir("smoke_env"));
    let output = run(&[], &[], &a);
    assert!(output.status.success());
    assert!(run(&[], &[], &b).status.success());
    assert!(run(&[], &[("PG_SMOKE", "1")], &smoke_env).status.success());
    let first = report_bytes(&a);
    assert_eq!(first, report_bytes(&b), "two runs wrote different reports");
    assert_eq!(
        first,
        report_bytes(&smoke_env),
        "PG_SMOKE=1 changed the report"
    );
    let committed =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../baselines/BENCH_{EXP}.json"));
    assert!(
        first == std::fs::read(committed).unwrap(),
        "the report differs from baselines/BENCH_{EXP}.json"
    );
    assert_eq!(
        String::from_utf8(output.stdout).unwrap(),
        documented_stdout(),
        "stdout differs from the {EXP} block of EXPERIMENTS.md"
    );
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
