//! **T16** — the multi-query runtime: N concurrent in-flight queries over
//! one shared sensor network (§2's many-handhelds scenario).
//!
//! T16a sweeps offered load (1–64 queries submitted at once) × scheduling
//! policy (FIFO, EDF, energy-weighted fair share) through a bounded
//! admission queue, measuring per-query response time (with percentiles),
//! total energy, bytes on air, admission-rejection rate, and the fraction
//! of queries that rode a shared collection epoch. T16b is the tentpole
//! claim: 16 overlapping-region aggregates through the runtime reuse
//! one aggregation tree and must spend measurably fewer bytes on air than
//! the same 16 queries submitted serially — the experiment *claims* the
//! reduction rather than just reporting it. T16c pushes a concurrent
//! workload through the unified fault plan: every admitted query must come
//! back `Ok` with its own degradation report, never an error.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t16_multiquery
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{floor, Cell, Experiment, RunStats};
use pg_partition::decide::Policy;
use pg_partition::model::SolutionModel;
use pg_runtime::{MultiQueryRuntime, QueryOpts, RuntimeConfig, SchedPolicy, TraceArrivals};
use pg_sim::fault::FaultPlan;
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

fn sched_cfg(policy: SchedPolicy) -> RuntimeConfig {
    RuntimeConfig::builder()
        .capacity(48)
        .epoch(Duration::from_secs(30))
        .slots_per_epoch(8)
        .policy(policy)
        .build()
}

/// One seeded run: submit `load` queries up front (staggered deadlines),
/// then run epochs, with no further arrivals, until the queue drains.
/// Returns the epochs that took and the run's books.
fn run_cell(load: usize, policy: SchedPolicy, seed: u64) -> (u64, RunStats) {
    let mut rt = MultiQueryRuntime::new(sched_cfg(policy), floor(seed).build());
    for i in 0..load {
        let deadline = Duration::from_secs(45 + (i as u64 % 16) * 15);
        rt.submit(MIX[i % MIX.len()], QueryOpts::with_deadline(deadline));
    }
    let epochs = rt.run_stream(&mut TraceArrivals::new([]), 64) as u64;
    (epochs, RunStats::of(&rt))
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t16_multiquery");
    let reps: u64 = 8;
    exp.set_meta("reps", reps.to_string());

    // --- T16a: offered load × scheduling policy. ---
    println!("T16a: offered load x policy, {reps} seeds per cell (36-sensor floor, 8 slots/epoch, 30 s epochs, queue capacity 48)");
    exp.table("per-query response time includes queue wait; reject = admission queue full");
    let policies = [SchedPolicy::Fifo, SchedPolicy::Edf, SchedPolicy::EnergyFair];
    for load in [1usize, 4, 16, 64] {
        // What FIFO spent at this load, seed by seed.
        let mut fifo_energy_j = Vec::new();
        for policy in policies {
            let (mut st, mut epochs) = (RunStats::default(), 0);
            for seed in 0..reps {
                let (run_epochs, run) = run_cell(load, policy, seed);
                match policy {
                    SchedPolicy::Fifo => fifo_energy_j.push(run.energy_j),
                    // With a backlog to order, cheapest-first is not
                    // arrival order, and it spends less.
                    SchedPolicy::EnergyFair if load >= 16 => {
                        let mut claims = exp.claims(&format!("load{load}")).seed(seed);
                        let fifo = fifo_energy_j[seed as usize];
                        claims.below("efair_vs_fifo_energy_j", run.energy_j, fifo);
                    }
                    _ => {}
                }
                epochs += run_epochs;
                st.absorb(&run);
            }
            let n = reps as f64;
            let submitted = (st.admitted + st.rejected) as f64;
            let ok = (st.completed - st.errors).max(1) as f64;
            let cell = format!("load{load}.{}", policy.name());
            let p50 = st.resp.quantile(0.5).unwrap_or(0.0);
            let p95 = st.resp.quantile(0.95).unwrap_or(0.0);
            exp.report_mut()
                .record_samples(format!("{cell}.response_s"), &mut st.resp);
            exp.set_counter(format!("{cell}.errors"), st.errors);
            exp.set_scalar(format!("{cell}.epochs"), epochs as f64 / n);
            exp.row(
                &cell,
                &[
                    Cell::int("load", 5, load),
                    Cell::text("policy", 6, policy.name()),
                    Cell::fixed("p50 s", 8, 1, p50),
                    Cell::fixed("p95 s", 8, 1, p95),
                    Cell::eng("energy J", 9, st.energy_j / n).key("energy_j"),
                    Cell::eng("bytes", 10, st.bytes / n).key("bytes"),
                    Cell::fixed("reject", 7, 2, st.rejected as f64 / submitted).key("reject_rate"),
                    Cell::fixed("shared", 7, 2, st.shared as f64 / ok).key("shared_frac"),
                    Cell::fixed("missed", 7, 2, (st.dl_total - st.dl_met) as f64 / ok)
                        .key("missed_frac"),
                ],
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
    exp.table("same queries, same seeds, placement pinned to the in-network tree");
    let b_reps: u64 = 8;
    let build = |seed: u64| {
        floor(seed)
            .policy(Policy::Static(SolutionModel::InNetworkTree))
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
    // Totals over the seeds, each seed's own sums added in seed order.
    let (mut s_bytes, mut s_energy, mut c_bytes, mut c_energy, mut answers) =
        (0.0, 0.0, 0.0, 0.0, 0u64);
    for seed in 0..b_reps {
        let mut serial = build(seed);
        let (mut sb, mut se) = (0.0, 0.0);
        for t in &texts {
            let r = serial.submit(t).expect("serial aggregate answers");
            sb += r.cost.bytes;
            se += r.cost.energy_j;
        }
        let cfg = RuntimeConfig::builder()
            .capacity(16)
            .slots_per_epoch(16)
            .build();
        let mut rt = MultiQueryRuntime::new(cfg, build(seed));
        let accepted = (texts.iter())
            .filter(|t| rt.submit(t, QueryOpts::default()).is_accepted())
            .count();
        // One epoch serves all sixteen as one batch.
        let epoch = rt.config().epoch;
        rt.step(epoch, &mut TraceArrivals::new([]));
        let (mut cb, mut ce, mut unshared) = (0.0, 0.0, 0u64);
        for o in rt.outcomes() {
            let r = o.response.as_ref().expect("concurrent aggregate answers");
            unshared += u64::from(!o.attribution.shared);
            answers += u64::from(r.value.is_some());
            cb += o.attribution.bytes;
            ce += o.attribution.energy_j;
        }
        // All 16 ride the shared tree, and the tentpole claim: shared-tree
        // reuse measurably cuts the bytes on air versus serial execution.
        let mut claims = exp.claims("reuse").seed(seed);
        claims.equal("accepted", accepted, texts.len());
        claims.equal("unshared", unshared, 0u64);
        claims.below("shared_vs_serial_bytes", cb, sb);
        s_bytes += sb;
        s_energy += se;
        c_bytes += cb;
        c_energy += ce;
    }
    let n = b_reps as f64;
    exp.set_scalar("reuse.byte_ratio", c_bytes / s_bytes);
    exp.row(
        "reuse",
        &[
            Cell::text("mode", 10, "serial"),
            Cell::eng("bytes", 10, s_bytes / n).key("serial_bytes"),
            Cell::eng("energy J", 9, s_energy / n).key("serial_energy_j"),
            Cell::int("answers", 8, 16 * b_reps),
        ],
    );
    exp.row(
        "reuse",
        &[
            Cell::text("mode", 10, "concurrent"),
            Cell::eng("bytes", 10, c_bytes / n).key("shared_bytes"),
            Cell::eng("energy J", 9, c_energy / n).key("shared_energy_j"),
            Cell::int("answers", 8, answers).key("answers"),
        ],
    );
    println!(
        "shape to check: the concurrent bytes land well under serial (the \
         byte_ratio scalar, asserted < 1 per seed): overlapping member sets \
         collapse into shared strata so each tree edge carries one packet \
         for the whole workload."
    );

    // --- T16c: concurrent workload under the unified fault plan. ---
    println!("\nT16c: 16 concurrent queries under chaos (30 % loss + base outage)");
    exp.table("degrade per query, never fail the batch");
    let c_reps: u64 = 8;
    let (mut answered, mut errors, mut retries, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..c_reps {
        let plan = FaultPlan::builder(seed ^ 0x716C)
            .message_loss(0.3)
            .base_outage(SimTime::from_secs(30), SimTime::from_secs(90))
            .build()
            .expect("valid chaos plan");
        let pg = floor(seed).faults(plan).build();
        let mut rt = MultiQueryRuntime::new(sched_cfg(SchedPolicy::Fifo), pg);
        for i in 0..16 {
            rt.submit(MIX[i % MIX.len()], QueryOpts::default());
        }
        rt.run_stream(&mut TraceArrivals::new([]), 32);
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
    }
    // Faults degrade queries, never error them.
    exp.claims("chaos").equal("errors", errors, 0u64);
    exp.row(
        "chaos",
        &[
            Cell::int("answered", 9, answered).key("answered"),
            Cell::int("errors", 7, errors).key("errors"),
            Cell::int("retries", 8, retries).key("retries"),
            Cell::int("degraded", 9, degraded).key("degraded"),
        ],
    );
    println!(
        "shape to check: zero errors under chaos — every admitted query \
         returns an answer plus its own degradation report (retries spent, \
         outage wait paid in latency)."
    );

    exp.finish()
}
