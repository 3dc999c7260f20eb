//! One benchmark invocation: one workload, one seed, one process.
//!
//! A workload is [`SITES`] independent sites (cells, buildings,
//! federations), each built from its own seed derived from `--seed`.
//!
//! * The **host ledger** is measured on the first site (the first six on
//!   `federation_faults`, back to back as one unit): it is rebuilt and run
//!   again until `--seconds` of host time have been spent (at least
//!   [`MIN_REPEATS`] times), set-up and run timed separately. `wall_s` is
//!   the *minimum* over repeats. On this shared box a repeat of a few
//!   tenths of a second meets a quiet moment often enough for the minimum
//!   of some forty of them to hold within a few percent, where their
//!   median swings by a third. `setup_s` is the minimum too.
//! * The **simulated ledger** pools all sites. It repeats bit for bit, so
//!   one run of each further site is enough, and the pooling is what makes
//!   the answered fraction and the tail percentile steady from seed to
//!   seed. Every repeat of the first site must give the same digest.

use crate::ledger::Ledger;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{self, Fold};
use crate::timed::{Capture, SharedCapture};
use crate::trace::Tracer;
use crate::workloads::Kind;
use pg_sim::report::json::Writer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Independent sites pooled into the simulated ledger.
pub const SITES: u64 = 8;
/// Fewest repeats of the host sites per invocation.
pub const MIN_REPEATS: usize = 3;
/// Spans written in full to a trace file; the per-name summary always
/// covers all of them.
const MAX_TRACE_ROWS: usize = 200_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    /// Host seconds to keep repeating for.
    pub seconds: f64,
    /// The separate traced run, for the per-layer metrics.
    pub trace: bool,
    /// Reduced sizes (tests and `--smoke`); never comparable to full runs.
    pub smoke: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    pub options: Options,
    pub repeats: usize,
    /// Output checks and determinism all passed.
    pub correct: bool,
    pub failures: Vec<String>,
    /// Queries offered.
    pub attempted: u64,
    /// Queries the engine accepted and then failed on.
    pub failed: u64,
    pub digest: u64,
    /// Answers behind the response-time percentiles.
    pub resp_samples: usize,
    /// Metric values in table order: end-to-end on an untraced run,
    /// per-layer on a traced one.
    pub metrics: Vec<(&'static Def, f64)>,
    /// Min / median / max over repeats of the host-time metrics.
    pub folds: BTreeMap<&'static str, Fold>,
    /// Run-phase host time of every repeat, in order.
    pub walls: Vec<f64>,
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seed of site `site` of the workload `--seed` names.
pub fn site_seed(seed: u64, site: u64) -> u64 {
    pg_sim::rng::mix(seed, site)
}

/// The end-to-end values: the pooled ledger's simulated costs, and the
/// host-time folds of the host sites, which gave `host_answers` answers.
fn end_to_end(
    ledger: &Ledger,
    host_answers: u64,
    wall: Fold,
    setup: Fold,
) -> BTreeMap<&'static str, f64> {
    let resp = stats::sorted(&ledger.resp_s);
    let answers = ledger.answers.max(1) as f64;
    let offered = ledger.offered.max(1) as f64;
    BTreeMap::from([
        ("wall_s", wall.min),
        ("answers_per_host_s", host_answers as f64 / wall.min),
        ("setup_s", setup.min),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_answered_frac", ledger.answers as f64 / offered),
        (
            "sim_deadline_met_frac",
            ledger.deadline_met as f64 / offered,
        ),
        (
            "sim_resp_p50_s",
            stats::quantile_sorted(&resp, 0.5).unwrap_or(0.0),
        ),
        (
            "sim_resp_p95_s",
            stats::tail_quantile(&resp, 0.95).unwrap_or(0.0),
        ),
        ("sim_energy_mj_per_answer", ledger.energy_j * 1e3 / answers),
        ("sim_wire_bytes_per_answer", ledger.wire_bytes / answers),
        ("sim_compute_ops_per_answer", ledger.ops / answers),
    ])
}

/// Checks every workload shares: enough answers for the tail percentile,
/// no engine errors, every end-to-end metric non-zero.
fn common_checks(ledger: &mut Ledger) {
    let answers = ledger.resp_s.len();
    let beyond = stats::beyond(answers, 0.99);
    ledger.check(beyond >= stats::MIN_BEYOND, || {
        format!("only {beyond} of {answers} answers lie beyond p99")
    });
    let errors = ledger.errors;
    ledger.check(errors == 0, || format!("{errors} queries answered Err"));
}

fn table(defs: &'static [Def], values: &BTreeMap<&'static str, f64>) -> Vec<(&'static Def, f64)> {
    defs.iter()
        .map(|d| (d, values.get(d.name).copied().unwrap_or(0.0)))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn untraced(options: Options) -> Outcome {
    let Options {
        kind, seed, smoke, ..
    } = options;
    let started = Instant::now();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut first: Option<Ledger> = None;
    let mut failures = Vec::new();
    let host_sites = kind.host_sites();
    while walls.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < options.seconds {
        // One repeat: the host sites back to back, timed as one unit.
        let mut pass = Ledger::new(false);
        let (mut wall_s, mut setup_s) = (0.0, 0.0);
        for site in 0..host_sites {
            let once = kind.run_once(smoke, site_seed(seed, site), None);
            wall_s += once.wall_s;
            setup_s += once.setup_s;
            pass.merge(once.ledger);
        }
        walls.push(wall_s);
        setups.push(setup_s);
        match &first {
            None => first = Some(pass),
            Some(f) if f.digest() != pass.digest() => failures.push(format!(
                "repeat {}: digest {:016x} != first repeat's {:016x}",
                walls.len(),
                pass.digest(),
                f.digest()
            )),
            Some(_) => {}
        }
    }
    let mut ledger = first.expect("at least one repeat ran");
    let host_answers = ledger.answers;
    for site in host_sites..SITES {
        ledger.merge(kind.run_once(smoke, site_seed(seed, site), None).ledger);
    }
    common_checks(&mut ledger);
    failures.append(&mut ledger.failures);
    let wall = stats::fold(&walls).expect("repeats ran");
    let setup = stats::fold(&setups).expect("repeats ran");
    let values = end_to_end(&ledger, host_answers, wall, setup);
    for (name, v) in &values {
        if !(v.is_finite() && *v > 0.0) {
            failures.push(format!("{name} = {v}: end-to-end metrics are never 0"));
        }
    }
    Outcome {
        repeats: walls.len(),
        correct: failures.is_empty(),
        failures,
        attempted: ledger.offered,
        failed: ledger.errors,
        digest: ledger.digest(),
        resp_samples: ledger.resp_s.len(),
        metrics: table(&END_TO_END, &values),
        folds: BTreeMap::from([("wall_s", wall), ("setup_s", setup)]),
        walls,
        options,
    }
}

/// Busy seconds of the span names in `names`, summed.
fn busy(by: &BTreeMap<&'static str, crate::trace::NameStats>, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| by.get(n))
        .map(|s| s.busy_s)
        .sum::<f64>()
        + 0.0 // an empty f64 sum is -0.0
}

/// The traced run: per-layer metrics of the first site. Untraced and
/// traced repeats alternate for `--seconds`, so the overhead compares
/// minimum with minimum; spans come from the fastest traced repeat, and
/// the probes replay what it recorded.
pub fn traced(options: Options) -> Outcome {
    let Options { kind, smoke, .. } = options;
    let seed = site_seed(options.seed, 0);
    let started = Instant::now();
    let mut failures = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut plain_digest = None;
    // The fastest traced repeat is the one whose spans noise inflated least.
    let mut best: Option<(crate::workloads::Once, SharedCapture)> = None;
    while plain_walls.len() < 2 || started.elapsed().as_secs_f64() < options.seconds {
        let plain = kind.run_once(smoke, seed, None);
        plain_walls.push(plain.wall_s);
        plain_digest = Some(plain.ledger.digest());
        drop(plain);
        let cap = Capture::shared(1 << 20);
        let once = kind.run_once(smoke, seed, Some(&cap));
        traced_walls.push(once.wall_s);
        if best.as_ref().is_none_or(|(b, _)| once.wall_s < b.wall_s) {
            best = Some((once, cap));
        }
    }
    let (mut once, cap) = best.expect("two pairs ran");
    let cap = std::rc::Rc::try_unwrap(cap)
        .expect("the run has dropped its wrappers")
        .into_inner();
    let digest_match = plain_digest == Some(once.ledger.digest());
    if !digest_match {
        failures.push(format!(
            "traced digest {:016x} != untraced {:016x}",
            once.ledger.digest(),
            plain_digest.unwrap_or(0)
        ));
    }
    common_checks(&mut once.ledger);
    failures.append(&mut once.ledger.failures);
    let ledger = &once.ledger;

    let mut v: BTreeMap<&'static str, f64> = ledger.layer.clone();
    v.extend(probes::run(
        kind,
        smoke,
        seed,
        &cap,
        ledger,
        &mut once.replay,
    ));

    // Boundary spans of the live run.
    let by = cap.tracer.by_name();
    let arrivals = [
        "runtime.arrivals.peek",
        "runtime.arrivals.next",
        "runtime.arrivals.retry",
    ];
    let calls = |name: &str| by.get(name).map_or(0.0, |s| s.calls as f64);
    v.insert("runtime.arrivals.calls", calls("runtime.arrivals.next"));
    v.insert("runtime.arrivals.busy_s", busy(&by, &arrivals));
    v.insert("runtime.arrivals.max_late_s", cap.max_late_s);
    v.insert("runtime.sched.rounds", calls("core.engine.batch"));
    let single_cell = matches!(kind, Kind::MetroDay | Kind::MetroBandit | Kind::ScaleChurn);
    if single_cell {
        // Everything inside the run span that is neither the generator
        // nor the engine is the scheduler itself.
        v.insert(
            "runtime.sched.self_s",
            by.get("run").map_or(0.0, |s| s.self_s),
        );
    }
    let admitted = v.get("runtime.admitted").copied().unwrap_or(0.0);
    if admitted > 0.0 {
        v.insert("runtime.useful_frac", ledger.answers as f64 / admitted);
    }
    // The tail beyond the end-to-end p95: steady only within one seed.
    let resp = stats::sorted(&ledger.resp_s);
    v.insert(
        "runtime.resp_p99_s",
        stats::tail_quantile(&resp, 0.99).unwrap_or(0.0),
    );
    v.insert("core.engine.batches", calls("core.engine.batch"));
    v.insert("core.engine.busy_s", busy(&by, &["core.engine.batch"]));
    v.insert(
        "core.engine.estimate_busy_s",
        busy(&by, &["core.engine.estimate", "core.engine.headroom"]),
    );
    for (span, calls_name, busy_name) in [
        (
            "core.submit.simple",
            "core.submit.simple.calls",
            "core.submit.simple.busy_s",
        ),
        (
            "core.submit.aggregate",
            "core.submit.aggregate.calls",
            "core.submit.aggregate.busy_s",
        ),
        (
            "core.submit.complex",
            "core.submit.complex.calls",
            "core.submit.complex.busy_s",
        ),
        (
            "core.submit.continuous",
            "core.submit.continuous.calls",
            "core.submit.continuous.busy_s",
        ),
    ] {
        v.insert(calls_name, calls(span));
        v.insert(busy_name, busy(&by, &[span]));
    }
    let respond = stats::sorted(&cap.tracer.durations_s("core.respond"));
    for (name, q) in [("core.respond.p50_ms", 0.5), ("core.respond.p95_ms", 0.95)] {
        v.insert(
            name,
            stats::quantile_sorted(&respond, q).unwrap_or(0.0) * 1e3,
        );
    }
    v.insert(
        "core.shared_frac",
        ledger.shared as f64 / ledger.answers.max(1) as f64,
    );
    v.insert("compose.execute.busy_s", busy(&by, &["compose.execute"]));
    let sent = v.get("agent.bus.sent").copied().unwrap_or(0.0);
    if sent > 0.0 {
        let wasted = v.get("agent.bus.retries").copied().unwrap_or(0.0)
            + v.get("agent.bus.dead_letter").copied().unwrap_or(0.0);
        v.insert("agent.bus.wasted_frac", wasted / sent);
    }

    // The tracer's own cost, and what the leaf layers leave unexplained.
    let plain = stats::fold(&plain_walls).expect("two pairs ran");
    let with_spans = stats::fold(&traced_walls).expect("two pairs ran");
    let leaves = [
        "runtime.arrivals.busy_s",
        "runtime.sched.self_s",
        "runtime.journal.append_busy_s",
        "runtime.journal.replay_busy_s",
        "query.parse.busy_s",
        "partition.features.busy_s",
        "partition.choose.busy_s",
        "partition.observe.busy_s",
        "sensornet.collect.busy_s",
        "net.repair.busy_s",
        "grid.pde.busy_s",
        "grid.sched.busy_s",
        "compose.execute.busy_s",
        "federation.gossip.busy_s",
        "federation.handoff.merge_busy_s",
        "agent.bus.busy_s",
    ];
    let attributed: f64 = leaves.iter().filter_map(|n| v.get(n)).sum();
    v.insert(
        "trace.overhead_frac",
        (with_spans.min - plain.min) / plain.min,
    );
    v.insert("trace.unattributed_s", plain.min - attributed);
    v.insert("trace.spans", cap.tracer.spans().len() as f64);
    v.insert("trace.digest_match", f64::from(u8::from(digest_match)));

    if let Err(e) = write_trace(&options, &cap.tracer) {
        failures.push(format!("trace file: {e}"));
    }
    Outcome {
        repeats: plain_walls.len(),
        correct: failures.is_empty(),
        failures,
        attempted: ledger.offered,
        failed: ledger.errors,
        digest: ledger.digest(),
        resp_samples: ledger.resp_s.len(),
        metrics: table(&PER_LAYER, &v),
        folds: BTreeMap::from([("wall_s", plain), ("traced_wall_s", with_spans)]),
        walls: plain_walls,
        options,
    }
}

fn write_trace(options: &Options, tracer: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(&options.out_dir)?;
    let path = options
        .out_dir
        .join(format!("trace_{}.json", options.kind.name()));
    std::fs::write(path, tracer.to_json(options.kind.name(), MAX_TRACE_ROWS))
}

impl Outcome {
    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn driver_line(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("correct");
        w.bool(self.correct);
        w.key("attempted");
        w.uint(self.attempted.max(1));
        w.key("failed");
        w.uint(self.failed);
        w.key("metrics");
        self.write_metrics(&mut w, false);
        w.end_object();
        w.finish()
    }

    fn write_metrics(&self, w: &mut Writer, with_folds: bool) {
        w.begin_object();
        for (def, value) in &self.metrics {
            w.key(def.name);
            w.begin_object();
            w.key("value");
            // A non-finite value has already failed the run's checks.
            if w.float(*value).is_err() {
                w.uint(0);
            }
            w.key("unit");
            w.string(def.unit);
            if let Some(f) = self.folds.get(def.name).filter(|_| with_folds) {
                for (k, x) in [("min", f.min), ("median", f.median), ("max", f.max)] {
                    w.key(k);
                    let _ = w.float(x);
                }
            }
            w.end_object();
        }
        w.end_object();
    }

    /// The workload's entry in a results file: the driver's line plus what
    /// `compare` needs (repeat spreads, digest, sizes).
    pub fn detail(&self) -> String {
        let o = &self.options;
        let mut w = Writer::new();
        w.begin_object();
        w.key("name");
        w.string(o.kind.name());
        w.key("traced");
        w.bool(o.trace);
        w.key("loop");
        w.string(&o.kind.loop_kind(o.smoke));
        w.key("sizes");
        w.begin_object();
        for (k, x) in o.kind.sizes(o.smoke) {
            w.key(k);
            w.string(&x);
        }
        w.end_object();
        w.key("sites");
        w.uint(SITES);
        w.key("host_sites");
        w.uint(o.kind.host_sites());
        w.key("repeats");
        w.uint(self.repeats as u64);
        w.key("walls_s");
        w.begin_array();
        for x in &self.walls {
            let _ = w.float(*x);
        }
        w.end_array();
        w.key("correct");
        w.bool(self.correct);
        w.key("failures");
        w.begin_array();
        for f in &self.failures {
            w.string(f);
        }
        w.end_array();
        w.key("attempted");
        w.uint(self.attempted);
        w.key("failed");
        w.uint(self.failed);
        w.key("digest");
        w.string(&format!("{:016x}", self.digest));
        w.key("resp_samples");
        w.uint(self.resp_samples as u64);
        w.key("metrics");
        self.write_metrics(&mut w, true);
        w.end_object();
        w.finish()
    }
}
