//! **T16** — the multi-query runtime: N concurrent in-flight queries over
//! one shared sensor network (§2's many-handhelds scenario).
//!
//! T16a sweeps offered load (1–64 queries submitted at once) × scheduling
//! policy (FIFO, EDF, energy-weighted fair share) through a bounded
//! admission queue, measuring per-query response time (with percentiles),
//! total energy, bytes on air, admission-rejection rate, and the fraction
//! of queries that rode a shared collection epoch. T16b is the tentpole
//! assertion: 16 overlapping-region aggregates through the runtime reuse
//! one aggregation tree and must spend measurably fewer bytes on air than
//! the same 16 queries submitted serially — the experiment *asserts* the
//! reduction rather than just reporting it. T16c pushes a concurrent
//! workload through the unified fault plan: every admitted query must come
//! back `Ok` with its own degradation report, never an error.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t16_multiquery [-- --smoke]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{fmt, header, Experiment};
use pg_core::PervasiveGrid;
use pg_partition::decide::Policy;
use pg_partition::model::SolutionModel;
use pg_runtime::{MultiQueryRuntime, QueryOpts, RuntimeConfig, SchedPolicy};
use pg_sensornet::region::Region;
use pg_sim::fault::FaultPlan;
use pg_sim::metrics::Samples;
use pg_sim::{Duration, SimTime};
use std::process::ExitCode;

/// The rotating query mix: aggregates over overlapping scopes (shareable)
/// interleaved with targeted simple reads (never shared).
const MIX: [&str; 8] = [
    "SELECT AVG(temp) FROM sensors",
    "SELECT MAX(temp) FROM sensors WHERE region(west)",
    "SELECT AVG(temp) FROM sensors WHERE region(east)",
    "SELECT temp FROM sensors WHERE sensor_id = 7",
    "SELECT MAX(temp) FROM sensors",
    "SELECT AVG(temp) FROM sensors WHERE region(west)",
    "SELECT temp FROM sensors WHERE sensor_id = 11",
    "SELECT MAX(temp) FROM sensors WHERE region(east)",
];

fn grid(seed: u64) -> PervasiveGrid {
    PervasiveGrid::building(1, 6, seed)
        .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
        .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
        .build()
}

fn sched_cfg(policy: SchedPolicy) -> RuntimeConfig {
    RuntimeConfig::builder()
        .capacity(48)
        .epoch(Duration::from_secs(30))
        .slots_per_epoch(8)
        .policy(policy)
        .build()
}

/// Per-cell accumulator, folded across seeds in seed order.
#[derive(Default)]
struct Cell {
    resp_s: Vec<f64>,
    energy_j: f64,
    bytes: f64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    shared: u64,
    errors: u64,
    missed: u64,
    epochs: u64,
}

/// One seeded run: submit `load` queries up front (staggered deadlines),
/// then run epochs until the queue drains.
fn run_cell(load: usize, policy: SchedPolicy, seed: u64) -> Cell {
    let mut rt = MultiQueryRuntime::new(sched_cfg(policy), grid(seed));
    for i in 0..load {
        let deadline = Duration::from_secs(45 + (i as u64 % 16) * 15);
        rt.submit(MIX[i % MIX.len()], QueryOpts::with_deadline(deadline));
    }
    let mut cell = Cell {
        epochs: rt.run_until_idle(64) as u64,
        admitted: rt.admitted,
        rejected: rt.rejected,
        energy_j: rt.energy_spent_j(),
        ..Cell::default()
    };
    for o in rt.outcomes() {
        cell.completed += 1;
        match &o.response {
            Ok(_) => {
                cell.resp_s.push(o.response_time_s());
                cell.bytes += o.attribution.bytes;
                cell.shared += u64::from(o.attribution.shared);
                cell.missed += u64::from(o.deadline_exceeded());
            }
            Err(_) => cell.errors += 1,
        }
    }
    cell
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t16_multiquery");
    let reps: u64 = exp.scale(8, 2);
    exp.set_meta("reps", reps.to_string());

    // --- T16a: offered load × scheduling policy. ---
    println!("T16a: offered load x policy, {reps} seeds per cell (36-sensor floor, 8 slots/epoch, 30 s epochs, queue capacity 48)");
    header(
        "per-query response time includes queue wait; reject = admission queue full",
        &[
            ("load", 5),
            ("policy", 6),
            ("p50 s", 8),
            ("p95 s", 8),
            ("energy J", 9),
            ("bytes", 10),
            ("reject", 7),
            ("shared", 7),
            ("missed", 7),
        ],
    );
    let policies = [SchedPolicy::Fifo, SchedPolicy::Edf, SchedPolicy::EnergyFair];
    for load in [1usize, 4, 16, 64] {
        for policy in policies {
            let mut st = Cell::default();
            let mut resp = Samples::new();
            for c in (0..reps).map(|seed| run_cell(load, policy, seed)) {
                for &r in &c.resp_s {
                    resp.record(r);
                }
                st.energy_j += c.energy_j;
                st.bytes += c.bytes;
                st.admitted += c.admitted;
                st.rejected += c.rejected;
                st.completed += c.completed;
                st.shared += c.shared;
                st.errors += c.errors;
                st.missed += c.missed;
                st.epochs += c.epochs;
            }
            let n = reps as f64;
            let submitted = (st.admitted + st.rejected) as f64;
            let reject_rate = st.rejected as f64 / submitted;
            let ok = (st.completed - st.errors).max(1) as f64;
            let cell = format!("load{load}.{}", policy.name());
            let p50 = resp.quantile(0.5).unwrap_or(0.0);
            let p95 = resp.quantile(0.95).unwrap_or(0.0);
            exp.report_mut()
                .record_samples(format!("{cell}.response_s"), &mut resp);
            exp.set_scalar(format!("{cell}.energy_j"), st.energy_j / n);
            exp.set_scalar(format!("{cell}.bytes"), st.bytes / n);
            exp.set_scalar(format!("{cell}.reject_rate"), reject_rate);
            exp.set_scalar(format!("{cell}.shared_frac"), st.shared as f64 / ok);
            exp.set_scalar(format!("{cell}.missed_frac"), st.missed as f64 / ok);
            exp.set_counter(format!("{cell}.errors"), st.errors);
            exp.set_scalar(format!("{cell}.epochs"), st.epochs as f64 / n);
            println!(
                "{load:>5}  {:>6}  {:>8.1}  {:>8.1}  {:>9}  {:>10}  {reject_rate:>7.2}  {:>7.2}  {:>7.2}",
                policy.name(),
                p50,
                p95,
                fmt(st.energy_j / n),
                fmt(st.bytes / n),
                st.shared as f64 / ok,
                st.missed as f64 / ok,
            );
        }
        println!();
    }
    println!(
        "shape to check: at load 1 every policy is identical (one query, one \
         epoch); response p95 climbs with load as the backlog queues; load 64 \
         overflows the 48-query queue so reject rate goes positive; EDF \
         trades tail latency for deadline adherence (missed stays lowest); \
         shared_frac grows with load as overlapping aggregates batch into \
         common epochs."
    );

    // --- T16b: shared-tree reuse vs 16 serial submissions. ---
    println!("\nT16b: 16 overlapping-region aggregates, concurrent (one shared tree) vs serial (16 tree epochs)");
    header(
        "same queries, same seeds, placement pinned to the in-network tree",
        &[("mode", 10), ("bytes", 10), ("energy J", 9), ("answers", 8)],
    );
    let b_reps: u64 = exp.scale(8, 2);
    let build = |seed: u64| {
        PervasiveGrid::building(1, 6, seed)
            .policy(Policy::Static(SolutionModel::InNetworkTree))
            .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
            .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
            .build()
    };
    let texts: Vec<&str> = (0..16)
        .map(|i| {
            [
                "SELECT AVG(temp) FROM sensors",
                "SELECT MAX(temp) FROM sensors WHERE region(west)",
                "SELECT AVG(temp) FROM sensors WHERE region(east)",
                "SELECT MAX(temp) FROM sensors",
            ][i % 4]
        })
        .collect();
    let pairs: Vec<(f64, f64, f64, f64, u64)> = (0..b_reps)
        .map(|seed| {
            let mut serial = build(seed);
            let (mut s_bytes, mut s_energy) = (0.0, 0.0);
            for t in &texts {
                let r = serial.submit(t).expect("serial aggregate answers");
                s_bytes += r.cost.bytes;
                s_energy += r.cost.energy_j;
            }
            let cfg = RuntimeConfig::builder()
                .capacity(16)
                .slots_per_epoch(16)
                .build();
            let mut rt = MultiQueryRuntime::new(cfg, build(seed));
            for t in &texts {
                assert!(rt.submit(t, QueryOpts::default()).is_accepted());
            }
            rt.run_epoch();
            let mut answers = 0u64;
            let (mut c_bytes, mut c_energy) = (0.0, 0.0);
            for o in rt.outcomes() {
                let r = o.response.as_ref().expect("concurrent aggregate answers");
                assert!(o.attribution.shared, "all 16 must ride the shared tree");
                answers += u64::from(r.value.is_some());
                c_bytes += o.attribution.bytes;
                c_energy += o.attribution.energy_j;
            }
            // The tentpole acceptance assertion: shared-tree reuse must
            // measurably cut the bytes on air versus serial execution.
            assert!(
                c_bytes < s_bytes,
                "seed {seed}: shared {c_bytes} bytes must beat serial {s_bytes}"
            );
            (s_bytes, s_energy, c_bytes, c_energy, answers)
        })
        .collect();
    let (mut s_bytes, mut s_energy, mut c_bytes, mut c_energy, mut answers) =
        (0.0, 0.0, 0.0, 0.0, 0u64);
    for (sb, se, cb, ce, a) in pairs {
        s_bytes += sb;
        s_energy += se;
        c_bytes += cb;
        c_energy += ce;
        answers += a;
    }
    let n = b_reps as f64;
    exp.set_scalar("reuse.serial_bytes", s_bytes / n);
    exp.set_scalar("reuse.shared_bytes", c_bytes / n);
    exp.set_scalar("reuse.serial_energy_j", s_energy / n);
    exp.set_scalar("reuse.shared_energy_j", c_energy / n);
    exp.set_scalar("reuse.byte_ratio", c_bytes / s_bytes);
    exp.set_counter("reuse.answers", answers);
    println!(
        "{:>10}  {:>10}  {:>9}  {:>8}",
        "serial",
        fmt(s_bytes / n),
        fmt(s_energy / n),
        16 * b_reps,
    );
    println!(
        "{:>10}  {:>10}  {:>9}  {answers:>8}",
        "concurrent",
        fmt(c_bytes / n),
        fmt(c_energy / n),
    );
    println!(
        "shape to check: the concurrent bytes land well under serial (the \
         byte_ratio scalar, asserted < 1 per seed): overlapping member sets \
         collapse into shared strata so each tree edge carries one packet \
         for the whole workload."
    );

    // --- T16c: concurrent workload under the unified fault plan. ---
    println!("\nT16c: 16 concurrent queries under chaos (30 % loss + base outage)");
    header(
        "degrade per query, never fail the batch",
        &[
            ("answered", 9),
            ("errors", 7),
            ("retries", 8),
            ("degraded", 9),
        ],
    );
    let c_reps: u64 = exp.scale(8, 2);
    let chaos: Vec<(u64, u64, u64, u64)> = (0..c_reps)
        .map(|seed| {
            let plan = FaultPlan::builder(seed ^ 0x716C)
                .message_loss(0.3)
                .base_outage(SimTime::from_secs(30), SimTime::from_secs(90))
                .build()
                .expect("valid chaos plan");
            let pg = PervasiveGrid::building(1, 6, seed)
                .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
                .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
                .faults(plan)
                .build();
            let mut rt = MultiQueryRuntime::new(sched_cfg(SchedPolicy::Fifo), pg);
            for i in 0..16 {
                rt.submit(MIX[i % MIX.len()], QueryOpts::default());
            }
            rt.run_until_idle(32);
            let (mut answered, mut errors, mut retries, mut degraded) = (0u64, 0u64, 0u64, 0u64);
            for o in rt.outcomes() {
                match &o.response {
                    Ok(r) => {
                        answered += u64::from(r.value.is_some());
                        retries += r.degradation.retries;
                        degraded += u64::from(r.degradation.is_degraded());
                    }
                    Err(_) => errors += 1,
                }
            }
            (answered, errors, retries, degraded)
        })
        .collect();
    let (mut answered, mut errors, mut retries, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    for (a, e, r, d) in chaos {
        answered += a;
        errors += e;
        retries += r;
        degraded += d;
    }
    assert_eq!(errors, 0, "faults must degrade queries, never error them");
    exp.set_counter("chaos.answered", answered);
    exp.set_counter("chaos.errors", errors);
    exp.set_counter("chaos.retries", retries);
    exp.set_counter("chaos.degraded", degraded);
    println!("{answered:>9}  {errors:>7}  {retries:>8}  {degraded:>9}");
    println!(
        "shape to check: zero errors under chaos — every admitted query \
         returns an answer plus its own degradation report (retries spent, \
         outage wait paid in latency)."
    );

    exp.finish()
}
