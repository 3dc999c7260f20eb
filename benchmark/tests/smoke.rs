//! Whole-benchmark tests at smoke size: determinism, conservation, the
//! transparency of the tracing wrappers, and agreement between the metric
//! tables and `BENCHMARK.json`.

use pg_sim::report::json::{self, Value};
use pgbench::compare;
use pgbench::metrics::{END_TO_END, PER_LAYER};
use pgbench::run::{self, Options};
use pgbench::timed::Capture;
use pgbench::workloads::Kind;
use std::path::PathBuf;

const SEED: u64 = 7;

#[test]
fn smoke_workloads_repeat_exactly_and_pass_their_checks() {
    for kind in Kind::ALL {
        let a = kind.run_once(true, SEED, None);
        let b = kind.run_once(true, SEED, None);
        assert_eq!(
            a.ledger.digest(),
            b.ledger.digest(),
            "{}: same seed, different ledger",
            kind.name()
        );
        assert!(
            a.ledger.failures.is_empty(),
            "{}: {:?}",
            kind.name(),
            a.ledger.failures
        );
        assert!(
            a.ledger.answers >= 1_000,
            "{}: too few answers",
            kind.name()
        );
        assert_eq!(a.ledger.errors, 0, "{}", kind.name());
        let other = kind.run_once(true, SEED + 1, None);
        assert_ne!(
            a.ledger.digest(),
            other.ledger.digest(),
            "{}: the seed must reach the inputs",
            kind.name()
        );
    }
}

#[test]
fn tracing_wrappers_are_bit_transparent() {
    for kind in Kind::ALL {
        let plain = kind.run_once(true, SEED, None);
        let cap = Capture::shared(1 << 10);
        let traced = kind.run_once(true, SEED, Some(&cap));
        assert_eq!(
            plain.ledger.digest(),
            traced.ledger.digest(),
            "{}: wrapping the engine and the arrivals changed the run",
            kind.name()
        );
        let cap = cap.borrow();
        assert!(!cap.tracer.spans().is_empty());
        assert_eq!(cap.tracer.spans()[0].name, "run");
        assert_eq!(cap.max_late_s, 0.0, "{}: an arrival was late", kind.name());
        // The capture counts submissions: every offered query, plus, on
        // the metro workloads, each time a refused one knocked again.
        let submitted = cap.offered.iter().sum::<u64>();
        let retries = traced
            .ledger
            .layer
            .get("runtime.retries")
            .copied()
            .unwrap_or(0.0);
        assert_eq!(
            submitted,
            traced.ledger.offered + retries as u64,
            "{}: the capture saw every submission",
            kind.name()
        );
    }
}

/// A scratch directory under `benchmark/out/`, which git ignores.
fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

fn options(kind: Kind, trace: bool, out_dir: PathBuf) -> Options {
    Options {
        kind,
        seed: SEED,
        seconds: 0.0,
        trace,
        smoke: true,
        out_dir,
    }
}

#[test]
fn an_invocation_reports_every_metric_of_its_table() {
    let out_dir = scratch("invocation");
    for kind in [Kind::FireResponse, Kind::FederationFaults] {
        let plain = run::untraced(options(kind, false, out_dir.clone()));
        assert!(plain.correct, "{:?}", plain.failures);
        assert_eq!(plain.metrics.len(), END_TO_END.len());
        assert!(plain.metrics.iter().all(|(_, v)| *v > 0.0));
        assert_eq!(plain.failed, 0);

        let traced = run::traced(options(kind, true, out_dir.clone()));
        assert!(traced.correct, "{:?}", traced.failures);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let digest_match = traced
            .metrics
            .iter()
            .find(|(d, _)| d.name == "trace.digest_match");
        assert_eq!(
            digest_match.map(|(_, v)| *v),
            Some(1.0),
            "traced and untraced agree"
        );
        let trace_file = out_dir.join(format!("trace_{}.json", kind.name()));
        let trace = json::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
        let Value::Object(trace) = trace else {
            panic!("trace file is not an object");
        };
        assert_eq!(trace["schema"], Value::String("pgbench-trace/v1".into()));

        // The driver's line carries exactly the four contract keys.
        let Value::Object(line) = json::parse(&plain.driver_line()).unwrap() else {
            panic!("driver line is not an object");
        };
        let keys: Vec<&str> = line.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
    let _ = std::fs::remove_dir_all(out_dir);
}

#[test]
fn results_files_round_trip_and_smoke_refuses_full() {
    let out_dir = scratch("round-trip");
    let outcome = run::untraced(options(Kind::FireResponse, false, out_dir));
    let file = |mode: &str| {
        format!(
            r#"{{"schema":"pgbench-results/v1","mode":"{mode}","seed":7,"workloads":[{}]}}"#,
            outcome.detail()
        )
    };
    let smoke = compare::parse(&file("smoke")).unwrap();
    assert_eq!(smoke.workloads[0].name, "fire_response");
    assert_eq!(smoke.workloads[0].metrics.len(), END_TO_END.len());
    assert!(smoke.workloads[0].metrics["wall_s"].range.is_some());
    let (table, any_worse) = compare::compare(&smoke, &smoke).unwrap();
    assert!(
        !any_worse,
        "a file never regresses against itself:\n{table}"
    );
    assert!(!table.contains("unresolved"));
    let full = compare::parse(&file("full")).unwrap();
    assert!(compare::compare(&smoke, &full).is_err());
}

/// `BENCHMARK.json` is what the driver reads; the tables in `metrics.rs`
/// are what the program prints. They must name the same things.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Value::Object(root) = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap() else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = root.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let field = |v: &Value, k: &str| match v {
        Value::Object(o) => o.get(k).cloned(),
        _ => None,
    };
    let list = |k: &str| match &root[k] {
        Value::Array(a) => a.clone(),
        _ => panic!("{k} is not a list"),
    };
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(field(entry, "name"), Some(Value::String(def.name.into())));
            assert_eq!(field(entry, "unit"), Some(Value::String(def.unit.into())));
            assert_eq!(
                field(entry, "better"),
                Some(Value::String(def.better.as_str().into()))
            );
            if key == "end_to_end" {
                assert_eq!(field(entry, "bound"), Some(Value::Number(def.bound)));
                assert!(def.bound > 0.0 && def.bound <= 0.25);
            }
        }
    }
    let names: Vec<Value> = list("workloads")
        .iter()
        .filter_map(|w| field(w, "name"))
        .collect();
    let expected: Vec<Value> = Kind::ALL
        .iter()
        .map(|k| Value::String(k.name().into()))
        .collect();
    assert_eq!(names, expected);
}
