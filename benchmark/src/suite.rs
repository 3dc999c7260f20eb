//! The suite: all five workloads, one child process each, gathered
//! into one results file and printed as one table.

use crate::compare::{self, Results};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::workloads::Kind;
use pg_sim::report::json::{self, Value, Writer};
use std::path::{Path, PathBuf};
use std::process::Command;

/// What the suite runs.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// First line of a command's stdout, or "unknown".
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Run one workload in a child process; returns its detail JSON.
fn child(opts: &SuiteOptions, kind: Kind, trace: bool) -> Result<String, String> {
    let detail = opts
        .out_dir
        .join(format!(".detail_{}_{}.json", kind.name(), u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .arg("--detail")
        .arg(&detail);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // The child's own result line is for the driver; the suite reads the
    // detail file instead.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("{}: no result ({e}; exit {})", kind.name(), output.status))?;
    let _ = std::fs::remove_file(&detail);
    Ok(text)
}

fn print_table(title: &str, defs: &[Def], entries: &[(Kind, Value)]) {
    println!("\n{title}");
    print!("{:<36} {:<6}", "metric", "unit");
    for (k, _) in entries {
        print!(" {:>17}", k.name());
    }
    println!();
    for d in defs {
        print!("{:<36} {:<6}", d.name, d.unit);
        for (_, v) in entries {
            let x = compare::metric_value(v, d.name);
            match x {
                Some(x) if x != 0.0 && x.abs() < 1e-3 => print!(" {x:>17.3e}"),
                Some(x) if x.fract() == 0.0 && x.abs() < 1e15 => print!(" {x:>17.0}"),
                Some(x) => print!(" {x:>17.4}"),
                None => print!(" {:>17}", "-"),
            }
        }
        println!();
    }
}

/// Run the suite. Returns whether every workload was correct.
pub fn run(opts: &SuiteOptions) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = probe("rustc", &["-V"]);
    let commit = probe("git", &["rev-parse", "--short", "HEAD"]);
    let mode = if opts.smoke { "smoke" } else { "full" };
    println!(
        "pgbench {mode} seed {} seconds {} | nproc {nproc} | {rustc} | commit {commit}",
        opts.seed, opts.seconds
    );

    let mut details = Vec::new();
    for trace in [false, true] {
        if trace && !opts.trace {
            continue;
        }
        for kind in Kind::ALL {
            eprintln!(
                "running {}{}",
                kind.name(),
                if trace { " (traced)" } else { "" }
            );
            details.push((kind, trace, child(opts, kind, trace)?));
        }
    }

    let mut w = Writer::new();
    w.begin_object();
    w.key("schema");
    w.string("pgbench-results/v1");
    w.key("mode");
    w.string(mode);
    w.key("seed");
    w.uint(opts.seed);
    w.key("seconds");
    let _ = w.float(opts.seconds);
    w.key("nproc");
    w.uint(nproc as u64);
    w.key("rustc");
    w.string(&rustc);
    w.key("commit");
    w.string(&commit);
    w.key("workloads");
    // The children's entries are already JSON; splice them in verbatim.
    w.string("@WORKLOADS@");
    w.end_object();
    let body = details
        .iter()
        .map(|(_, _, d)| d.as_str())
        .collect::<Vec<_>>()
        .join(",\n  ");
    let file = w
        .finish()
        .replace("\"@WORKLOADS@\"", &format!("[\n  {body}\n]"));
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, &file).map_err(|e| e.to_string())?;

    let mut all_correct = true;
    for traced in [false, true] {
        let entries: Vec<(Kind, Value)> = details
            .iter()
            .filter(|(_, t, _)| *t == traced)
            .filter_map(|(k, _, d)| json::parse(d).ok().map(|v| (*k, v)))
            .collect();
        if entries.is_empty() {
            continue;
        }
        if traced {
            print_table("per-layer metrics (traced run)", &PER_LAYER, &entries);
        } else {
            print_table("end-to-end metrics (untraced run)", &END_TO_END, &entries);
        }
        for (k, v) in &entries {
            let Value::Object(o) = v else { continue };
            if !matches!(o.get("correct"), Some(Value::Bool(true))) {
                all_correct = false;
                println!("INVALID {}: {:?}", k.name(), o.get("failures"));
            }
        }
    }
    println!("\nresults: {}", path.display());
    Ok(all_correct)
}

/// Load and parse a results file.
pub fn load(path: &Path) -> Result<Results, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
}
