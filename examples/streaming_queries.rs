//! Concurrent and streaming queries over one building grid through the
//! multi-query runtime. First a burst: sixteen users submit at once, and
//! EDF scheduling shares aggregation trees with per-query attribution.
//! Then an open-loop Poisson stream of handheld users, while a caller
//! steers in-flight work through query handles (poll, tighten a deadline,
//! cancel).
//!
//! ```sh
//! cargo run --example streaming_queries
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pervasive_grid::core::{GridRuntime, PervasiveGrid};
use pervasive_grid::runtime::{
    ArrivalProcess, PoissonArrivals, QueryOpts, QueryStatus, RuntimeConfig, SchedPolicy,
    TraceArrivals,
};
use pervasive_grid::sensornet::region::Region;
use pervasive_grid::sim::{Duration, SimTime};

/// One floor of 6 × 6 sensors with overlapping west and east wings.
fn building() -> PervasiveGrid {
    PervasiveGrid::building(1, 6, 42)
        .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
        .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
        .build()
}

/// Sixteen overlapping queries with staggered deadlines, all in flight at
/// once, served until the queue drains.
fn burst() {
    let cfg = RuntimeConfig::builder().policy(SchedPolicy::Edf).build();
    let mut rt = GridRuntime::new(cfg, building());
    // Admission is a typed verdict, never a panic.
    let mix = [
        "SELECT AVG(temp) FROM sensors WHERE region(west)",
        "SELECT MAX(temp) FROM sensors WHERE region(east)",
        "SELECT AVG(temp) FROM sensors",
        "SELECT temp FROM sensors WHERE sensor_id = 7",
    ];
    for i in 0..16u64 {
        let opts = QueryOpts::with_deadline(Duration::from_secs(60 + i * 15));
        let verdict = rt.submit(mix[i as usize % mix.len()], opts);
        assert!(verdict.is_accepted());
    }
    // Nothing else arrives: the queue alone drives the epochs.
    let epochs = rt.run_stream(&mut TraceArrivals::new([]), 64);

    println!(
        "burst: answered {} queries in {epochs} epoch(s)",
        rt.outcomes().len()
    );
    println!(
        "{:>3}  {:>9}  {:>8}  {:>9}  {:>6}  value",
        "id", "bytes", "time ms", "energy uJ", "shared"
    );
    for q in rt.outcomes() {
        // Per-query attribution even when answers shared one tree.
        println!(
            "{:>3}  {:>9.0}  {:>8.1}  {:>9.1}  {:>6}  {:?}",
            q.id.0,
            q.attribution.bytes,
            1e3 * q.attribution.time_s,
            1e6 * q.attribution.energy_j,
            q.attribution.shared,
            q.response.as_ref().ok().and_then(|r| r.value),
        );
    }
    let shared = rt
        .outcomes()
        .iter()
        .filter(|q| q.attribution.shared)
        .count();
    println!(
        "{shared}/16 answers rode shared aggregation trees; {:.1} uJ total\n",
        1e6 * rt.energy_spent_j()
    );
}

/// An open-loop stream, with one query watched and one cancelled.
fn stream() {
    let cfg = RuntimeConfig::builder()
        .policy(SchedPolicy::Edf)
        .preemption(true)
        .build();
    let mut rt = GridRuntime::new(cfg, building());

    // An open-loop offered load: users arrive at ~0.05 Hz for ten minutes,
    // rotating through a fixed query mix. Same seed, same arrival stream.
    let mix = vec![
        (
            "SELECT AVG(temp) FROM sensors WHERE region(west)".to_string(),
            QueryOpts::with_deadline(Duration::from_secs(180)),
        ),
        (
            "SELECT MAX(temp) FROM sensors WHERE region(east)".to_string(),
            QueryOpts::default().priority(1),
        ),
        (
            "SELECT AVG(temp) FROM sensors".to_string(),
            QueryOpts::default(),
        ),
    ];
    let mut arrivals = PoissonArrivals::new(7, 0.05, SimTime::from_secs(600), mix);

    // A direct submission alongside the stream: keep its handle to steer it.
    let verdict = rt.submit(
        "SELECT MIN(temp) FROM sensors",
        QueryOpts::with_deadline(Duration::from_secs(300)),
    );
    let handle = verdict.handle().expect("admitted");
    println!("stream: submitted {handle}: {:?}", rt.poll(handle));

    // Impatient user: pull the deadline in. Only ever tightens.
    assert!(rt.tighten_deadline(handle, Duration::from_secs(90)));

    // Second handle: submit, change our mind, cancel before it runs.
    let verdict = rt.submit("SELECT AVG(temp) FROM sensors", QueryOpts::default());
    let doomed = verdict.handle().expect("admitted");
    assert!(rt.cancel(doomed));
    assert!(matches!(rt.poll(doomed), QueryStatus::Cancelled));

    // Drive the runtime in 30 s steps until the stream is exhausted and the
    // queue drains, watching our query through the other users' arrivals.
    let epoch = rt.config().epoch;
    let mut watching = true;
    while !arrivals.is_exhausted() || rt.queue_depth() > 0 {
        rt.step(epoch, &mut arrivals);
        if !watching {
            continue;
        }
        let t = rt.engine().now.as_secs_f64();
        match rt.poll(handle) {
            QueryStatus::Queued { rank, depth } => {
                println!("t={t:>4.0}s  queued {}/{depth}", rank + 1);
            }
            QueryStatus::Completed(q) => {
                println!(
                    "t={t:>4.0}s  done: {:?} after {:.1}s",
                    q.response.as_ref().ok().and_then(|r| r.value),
                    q.response_time_s(),
                );
                watching = false;
            }
            status => println!("t={t:>4.0}s  {status:?}"),
        }
    }

    let done = rt.outcomes().len();
    let hit = rt
        .outcomes()
        .iter()
        .filter(|q| !q.deadline_exceeded())
        .count();
    println!(
        "{} arrivals, {done} answered, {hit}/{done} within deadline, 1 cancelled, {:.1} uJ",
        arrivals.emitted() + 2,
        1e6 * rt.energy_spent_j()
    );
}

fn main() {
    burst();
    stream();
}
