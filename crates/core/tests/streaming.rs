//! Streaming-runtime integration tests over a real `PervasiveGrid`: the
//! batch-equivalence property (a t=0 arrival stream with preemption off is
//! bit-identical to submitting the workload at t=0 and then running an
//! empty stream), open-loop Poisson load end to end, and the tree lifetime
//! through the grid.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_core::{PervasiveGrid, Policy, TreeMaintenance};
use pg_runtime::{
    MultiQueryRuntime, PoissonArrivals, QueryOpts, RuntimeConfig, SchedPolicy, TraceArrivals,
};
use pg_sensornet::region::Region;
use pg_sensornet::shared::TREE_BEACON_BYTES;
use pg_sim::{Duration, SimTime};
use propcheck::check;

fn grid(seed: u64) -> PervasiveGrid {
    PervasiveGrid::building(1, 6, seed)
        .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
        .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
        .build()
}

/// Deadlines all ≥ one epoch so EDF admission never rejects at t=0.
const WORKLOAD: [(&str, u64); 6] = [
    ("SELECT AVG(temp) FROM sensors", 40),
    ("SELECT MAX(temp) FROM sensors WHERE region(west)", 70),
    ("SELECT AVG(temp) FROM sensors WHERE region(east)", 100),
    ("SELECT MAX(temp) FROM sensors", 130),
    ("SELECT AVG(temp) FROM sensors WHERE region(west)", 160),
    ("SELECT temp FROM sensors WHERE sensor_id = 7", 190),
];

fn policy_of(ix: u8) -> SchedPolicy {
    match ix % 3 {
        0 => SchedPolicy::Fifo,
        1 => SchedPolicy::Edf,
        _ => SchedPolicy::EnergyFair,
    }
}

fn cfg(policy: SchedPolicy) -> RuntimeConfig {
    RuntimeConfig::builder()
        .slots_per_epoch(2)
        .policy(policy)
        .build()
}

/// Bit-exact per-outcome fingerprint, in completion order.
fn fingerprint(rt: &MultiQueryRuntime<PervasiveGrid>) -> Vec<String> {
    rt.outcomes()
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let body = match &o.response {
                Ok(r) => format!(
                    "ok v={:?} e={} b={} t={} shared={}",
                    r.value.map(f64::to_bits),
                    r.cost.energy_j.to_bits(),
                    r.cost.bytes.to_bits(),
                    r.cost.time_s.to_bits(),
                    o.attribution.shared,
                ),
                Err(e) => format!("err {e}"),
            };
            format!("{} #{i} wait={} {body}", o.text, o.queue_wait_s.to_bits())
        })
        .collect()
}

fn ordered_workload(order: &[usize]) -> Vec<(String, QueryOpts)> {
    order
        .iter()
        .map(|&i| {
            let (text, dl) = WORKLOAD[i];
            (
                text.to_string(),
                QueryOpts::with_deadline(Duration::from_secs(dl)),
            )
        })
        .collect()
}

/// Serve what was submitted, with no further arrivals, until it drains.
fn drain(rt: &mut MultiQueryRuntime<PervasiveGrid>, max_epochs: usize) -> usize {
    rt.run_stream(&mut TraceArrivals::new([]), max_epochs)
}

/// Batch path: submit everything at t=0, then run an empty stream.
fn batch_fingerprint(order: &[usize], policy: SchedPolicy, seed: u64) -> Vec<String> {
    let mut rt = MultiQueryRuntime::new(cfg(policy), grid(seed));
    for (text, opts) in ordered_workload(order) {
        let adm = rt.submit(&text, opts);
        assert!(adm.is_accepted(), "workload fits the queue");
    }
    drain(&mut rt, 64);
    fingerprint(&rt)
}

/// Streaming path: the same workload expressed as a t=0 arrival trace,
/// driven through `run_stream` with preemption off.
fn stream_fingerprint(order: &[usize], policy: SchedPolicy, seed: u64) -> Vec<String> {
    let mut rt = MultiQueryRuntime::new(cfg(policy), grid(seed));
    let mut arrivals = TraceArrivals::batch_at_zero(ordered_workload(order));
    rt.run_stream(&mut arrivals, 64);
    assert_eq!(rt.arrived, order.len() as u64);
    fingerprint(&rt)
}

/// Batch equivalence: submitting a workload at t=0 and then calling
/// `run_stream` feeds the engine the exact same advance/execute
/// sequence as streaming that workload as a t=0 trace
/// (`TraceArrivals::batch_at_zero`), preemption off — outcomes are
/// bit-identical (values, costs, waits, completion order) for every
/// submission order and scheduling policy.
#[test]
fn t0_streaming_is_bit_identical_to_batch() {
    check("t0_streaming_is_bit_identical_to_batch", 12, |g| {
        let keys = g.vec(6..=6, |g| g.range(0u8..=255));
        let policy_ix = g.range(0u8..3);
        let seed = g.range(1u64..50);
        let mut order: Vec<usize> = (0..WORKLOAD.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let policy = policy_of(policy_ix);
        assert_eq!(
            batch_fingerprint(&order, policy, seed),
            stream_fingerprint(&order, policy, seed)
        );
    });
}

/// Open-loop Poisson load, end to end: every arrival is either answered or
/// visibly rejected, the clock advances with the offered load, and the
/// runtime drains to idle once the stream dries up.
#[test]
fn poisson_stream_drains_to_idle_on_a_real_grid() {
    let cfg = RuntimeConfig::builder()
        .capacity(16)
        .slots_per_epoch(4)
        .policy(SchedPolicy::Edf)
        .preemption(true)
        .build();
    let mut rt = MultiQueryRuntime::new(cfg, grid(42));
    let mix = vec![
        (
            "SELECT AVG(temp) FROM sensors".to_string(),
            QueryOpts::with_deadline(Duration::from_secs(120)),
        ),
        (
            "SELECT MAX(temp) FROM sensors WHERE region(east)".to_string(),
            QueryOpts::default().priority(1),
        ),
    ];
    let mut arrivals = PoissonArrivals::new(9, 0.1, SimTime::from_secs(600), mix);
    rt.run_stream(&mut arrivals, 10_000);

    assert!(arrivals.emitted() > 20, "0.1 Hz x 600 s offered load");
    assert_eq!(rt.arrived, arrivals.emitted());
    assert_eq!(rt.queue_depth(), 0, "stream must drain to idle");
    let answered = rt.outcomes().len() as u64;
    assert_eq!(answered + rt.rejected, arrivals.emitted());
    assert!(
        rt.engine().now >= SimTime::from_secs(570),
        "clock follows load"
    );
}

/// Tree lifetime is the grid's setting under every policy: `Free` is the
/// default and bit-identical to an explicitly-Free build, an `Incremental`
/// grid builds its tree once over three shared chunks and pays one flood of
/// construction beacons, and `Policy::Bandit` — whose learner places
/// queries, never trees — leaves both modes exactly as configured.
#[test]
fn the_configured_tree_lifetime_holds_under_every_policy() {
    let run = |policy: Policy, mode: Option<TreeMaintenance>| {
        let mut b = PervasiveGrid::building(1, 6, 42)
            .policy(policy)
            .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
            .region("east", Region::room(10.0, 0.0, 30.0, 30.0));
        if let Some(m) = mode {
            b = b.tree_maintenance(m);
        }
        let cfg = RuntimeConfig::builder().slots_per_epoch(2).build();
        let mut rt = MultiQueryRuntime::new(cfg, b.build());
        // Six shareable aggregates, two slots per epoch: three shared
        // chunks.
        for _ in 0..3 {
            for text in [
                "SELECT AVG(temp) FROM sensors",
                "SELECT MAX(temp) FROM sensors",
            ] {
                assert!(rt.submit(text, QueryOpts::default()).is_accepted());
            }
        }
        drain(&mut rt, 16);
        assert_eq!(rt.outcomes().len(), 6);
        assert!(rt.outcomes().iter().all(|o| o.attribution.shared));
        let bytes: f64 = rt.outcomes().iter().map(|o| o.attribution.bytes).sum();
        let energy: f64 = rt.outcomes().iter().map(|o| o.attribution.energy_j).sum();
        let session = &rt.engine().tree_session;
        (bytes, energy, session.rebuilds, session.control_bytes_total)
    };
    // Every one of the 35 sensors beacons once.
    let one_flood = 35 * TREE_BEACON_BYTES;

    let (default_b, default_e, default_r, default_c) = run(Policy::Adaptive, None);
    let (free_b, free_e, free_r, free_c) = run(Policy::Adaptive, Some(TreeMaintenance::Free));
    // Default == Free, bit-exact (the v1 path, no control-plane charge).
    assert_eq!(default_b.to_bits(), free_b.to_bits());
    assert_eq!(default_e.to_bits(), free_e.to_bits());
    assert_eq!((default_r, default_c), (0, 0));
    assert_eq!((free_r, free_c), (0, 0));

    // One build serves all three chunks, and its beacons are billed.
    let (incr_b, _, incr_r, incr_c) = run(Policy::Adaptive, Some(TreeMaintenance::Incremental));
    assert_eq!((incr_r, incr_c), (1, one_flood));
    assert!(incr_b > free_b, "{incr_b} vs {free_b}");

    for (mode, want) in [
        (TreeMaintenance::Free, (0, 0)),
        (TreeMaintenance::Incremental, (1, one_flood)),
    ] {
        let (_, _, rebuilds, control) = run(Policy::Bandit, Some(mode));
        assert_eq!((rebuilds, control), want, "Policy::Bandit under {mode:?}");
    }
}
