//! `pgbench compare A.json B.json`: did B get worse than A?
//!
//! One row per metric × workload: both values, the relative change, the
//! bound, and a verdict. Simulated metrics of two same-seed runs must
//! agree exactly (any worsening is a regression); host metrics may move
//! within their bound. A host metric whose repeats spread wider than the
//! bound while the two runs' ranges overlap is `unresolved`, not `same`.

use crate::metrics::{self, Better, Def, LedgerKind, SIM_EXACT};
use pg_sim::report::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload in a results file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// Min and max over repeats, where the file carries them.
    pub range: Option<(f64, f64)>,
}

/// One workload of a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub digest: String,
    pub correct: bool,
    pub metrics: BTreeMap<String, Reading>,
}

/// A parsed results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub mode: String,
    pub seed: u64,
    pub workloads: Vec<WorkloadResult>,
}

fn obj(v: &Value) -> Option<&BTreeMap<String, Value>> {
    match v {
        Value::Object(o) => Some(o),
        _ => None,
    }
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(x)) => Some(*x),
        _ => None,
    }
}

/// `entry.metrics.<name>.value` of one workload entry of a results file.
pub(crate) fn metric_value(entry: &Value, name: &str) -> Option<f64> {
    let metric = obj(entry)?.get("metrics").and_then(obj)?.get(name)?;
    num(obj(metric)?.get("value"))
}

fn text(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

/// Parse a `pgbench-results/v1` file.
pub fn parse(src: &str) -> Result<Results, String> {
    let root = json::parse(src).map_err(|e| e.to_string())?;
    let root = obj(&root).ok_or("results file is not an object")?;
    if text(root.get("schema")) != Some("pgbench-results/v1") {
        return Err("not a pgbench-results/v1 file".into());
    }
    let mode = text(root.get("mode")).ok_or("missing mode")?.to_string();
    let seed = num(root.get("seed")).ok_or("missing seed")? as u64;
    let Some(Value::Array(list)) = root.get("workloads") else {
        return Err("missing workloads".into());
    };
    let mut workloads = Vec::new();
    for w in list {
        let w = obj(w).ok_or("workload is not an object")?;
        if matches!(w.get("traced"), Some(Value::Bool(true))) {
            continue;
        }
        let mut metrics = BTreeMap::new();
        for (name, m) in w.get("metrics").and_then(obj).ok_or("missing metrics")? {
            let m = obj(m).ok_or("metric is not an object")?;
            metrics.insert(
                name.clone(),
                Reading {
                    value: num(m.get("value")).ok_or("metric without value")?,
                    range: num(m.get("min")).zip(num(m.get("max"))),
                },
            );
        }
        workloads.push(WorkloadResult {
            name: text(w.get("name")).ok_or("workload without name")?.into(),
            digest: text(w.get("digest")).unwrap_or_default().into(),
            correct: matches!(w.get("correct"), Some(Value::Bool(true))),
            metrics,
        });
    }
    Ok(Results {
        mode,
        seed,
        workloads,
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Judge one metric: how much worse `b` is, the tolerance applied, and
/// the verdict.
pub fn judge(def: &Def, a: Reading, b: Reading, same_seed: bool) -> (f64, f64, Verdict) {
    let tol = if def.ledger == LedgerKind::Sim && same_seed {
        SIM_EXACT
    } else {
        def.bound
    };
    let by = worse_by(def.better, a.value, b.value);
    let verdict = if by.abs() <= tol {
        Verdict::Same
    } else if by < 0.0 {
        Verdict::Better
    } else {
        let noisy = a.range.zip(b.range).is_some_and(|((a0, a1), (b0, b1))| {
            let spread = |lo: f64, hi: f64| (hi - lo) / lo.abs().max(f64::MIN_POSITIVE);
            let overlap = a0 <= b1 && b0 <= a1;
            overlap && spread(a0, a1).max(spread(b0, b1)) > tol
        });
        if noisy {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    };
    (by, tol, verdict)
}

/// Compare two results files. Returns the printed table and whether any
/// row is `worse` (or any digest differs under one seed).
pub fn compare(a: &Results, b: &Results) -> Result<(String, bool), String> {
    if a.mode != b.mode {
        return Err(format!(
            "refusing to compare a {} run with a {} run",
            a.mode, b.mode
        ));
    }
    let same_seed = a.seed == b.seed;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<28} {:<18} {:>14} {:>14} {:>9} {:>8}  verdict",
        "metric", "workload", "A", "B", "worse by", "bound"
    );
    for def in &metrics::END_TO_END {
        for wa in &a.workloads {
            let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
                return Err(format!("workload {} missing from B", wa.name));
            };
            let (Some(&ra), Some(&rb)) = (wa.metrics.get(def.name), wb.metrics.get(def.name))
            else {
                return Err(format!("{} missing on {}", def.name, wa.name));
            };
            // A throughput is its wall time inverted: same repeat spread.
            let range_of = |w: &WorkloadResult, r: Reading| {
                r.range.or_else(|| {
                    (def.name == "answers_per_host_s")
                        .then(|| w.metrics.get("wall_s").and_then(|m| m.range))
                        .flatten()
                        .map(|(lo, hi)| (r.value * lo / hi, r.value))
                })
            };
            let ra = Reading {
                range: range_of(wa, ra),
                ..ra
            };
            let rb = Reading {
                range: range_of(wb, rb),
                ..rb
            };
            let (by, tol, verdict) = judge(def, ra, rb, same_seed);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<28} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>8}  {}",
                def.name,
                wa.name,
                ra.value,
                rb.value,
                by * 100.0,
                if tol < 1e-6 {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", tol * 100.0)
                },
                verdict.as_str()
            );
        }
    }
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        let verdict = if !same_seed {
            "n/a (seeds differ)"
        } else if wa.digest == wb.digest {
            "same"
        } else {
            any_worse = true;
            "worse"
        };
        let _ = writeln!(
            out,
            "{:<28} {:<18} {:>14} {:>14} {:>9} {:>8}  {}",
            "sim_digest", wa.name, wa.digest, wb.digest, "", "exact", verdict
        );
        if !(wa.correct && wb.correct) {
            any_worse = true;
            let _ = writeln!(
                out,
                "{:<28} {:<18} output checks failed",
                "correct", wa.name
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static Def {
        metrics::END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    fn r(value: f64, range: Option<(f64, f64)>) -> Reading {
        Reading { value, range }
    }

    #[test]
    fn host_metrics_move_within_their_bound() {
        let d = def("wall_s");
        let tight = |v: f64| r(v, Some((v, v * 1.01)));
        assert_eq!(
            judge(d, tight(1.0), tight(1.0 + d.bound * 0.9), true).2,
            Verdict::Same
        );
        assert_eq!(
            judge(d, tight(1.0), tight(1.0 + d.bound * 1.5), true).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(d, tight(1.0), tight(1.0 - d.bound * 1.5), true).2,
            Verdict::Better
        );
        // Wide, overlapping repeat ranges: cannot tell.
        let wide = |v: f64| r(v, Some((v, v * (1.0 + 2.0 * d.bound))));
        assert_eq!(
            judge(d, wide(1.0), wide(1.0 + d.bound * 1.2), true).2,
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let d = def("answers_per_host_s");
        assert_eq!(
            judge(d, r(100.0, None), r(50.0, None), true).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(d, r(100.0, None), r(200.0, None), true).2,
            Verdict::Better
        );
    }

    #[test]
    fn sim_metrics_are_exact_under_one_seed_only() {
        let d = def("sim_resp_p95_s");
        let a = r(100.0, None);
        assert_eq!(judge(d, a, r(100.0, None), true).2, Verdict::Same);
        assert_eq!(judge(d, a, r(100.000_001, None), true).2, Verdict::Worse);
        assert_eq!(judge(d, a, r(99.999_999, None), true).2, Verdict::Better);
        // Different seeds: the cross-seed bound applies instead.
        assert_eq!(judge(d, a, r(100.000_001, None), false).2, Verdict::Same);
    }

    #[test]
    fn smoke_and_full_runs_do_not_compare() {
        let file = |mode: &str| Results {
            mode: mode.into(),
            seed: 1,
            workloads: Vec::new(),
        };
        assert!(compare(&file("smoke"), &file("full")).is_err());
        assert!(compare(&file("full"), &file("full")).is_ok());
    }
}
