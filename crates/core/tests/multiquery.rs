//! Integration and property tests for the multi-query runtime over a real
//! `PervasiveGrid`: scheduler determinism under submission interleaving,
//! EDF ordering, energy-fair estimates that never touch the radios,
//! shared-tree byte savings, and single-query delegation equivalence.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_core::{PervasiveGrid, PgError};
use pg_partition::decide::Policy;
use pg_partition::model::SolutionModel;
use pg_runtime::{
    BatchQuery, MultiQueryRuntime, QueryEngine, QueryOpts, RuntimeConfig, SchedPolicy,
    TraceArrivals,
};
use pg_sensornet::region::Region;
use pg_sim::Duration;
use propcheck::check;

fn grid(seed: u64) -> PervasiveGrid {
    PervasiveGrid::building(1, 6, seed)
        .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
        .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
        .build()
}

/// Serve what was submitted, with no further arrivals, until it drains.
fn drain(rt: &mut MultiQueryRuntime<PervasiveGrid>, max_epochs: usize) -> usize {
    rt.run_stream(&mut TraceArrivals::new([]), max_epochs)
}

/// One epoch-wide step with no arrivals: at most one service round.
fn round(rt: &mut MultiQueryRuntime<PervasiveGrid>) -> usize {
    let epoch = rt.config().epoch;
    rt.step(epoch, &mut TraceArrivals::new([]))
}

/// A fixed workload with pairwise-distinct deadlines (all ≥ one epoch),
/// submitted in arbitrary interleavings by the property test below.
const WORKLOAD: [(&str, u64); 6] = [
    ("SELECT AVG(temp) FROM sensors", 40),
    ("SELECT MAX(temp) FROM sensors WHERE region(west)", 70),
    ("SELECT AVG(temp) FROM sensors WHERE region(east)", 100),
    ("SELECT MAX(temp) FROM sensors", 130),
    ("SELECT AVG(temp) FROM sensors WHERE region(west)", 160),
    ("SELECT temp FROM sensors WHERE sensor_id = 7", 190),
];

/// Run the workload in `order` under EDF and return a canonical per-query
/// fingerprint (keyed by query text, bit-exact costs).
fn edf_fingerprint(order: &[usize]) -> Vec<(String, String)> {
    let cfg = RuntimeConfig::builder()
        .slots_per_epoch(2)
        .policy(SchedPolicy::Edf)
        .build();
    let mut rt = MultiQueryRuntime::new(cfg, grid(11));
    for &i in order {
        let (text, dl) = WORKLOAD[i];
        let adm = rt.submit(text, QueryOpts::with_deadline(Duration::from_secs(dl)));
        assert!(adm.is_accepted(), "workload fits the queue");
    }
    drain(&mut rt, 64);
    let mut per: Vec<(String, String)> = rt
        .outcomes()
        .iter()
        .map(|o| {
            let body = match &o.response {
                Ok(r) => format!(
                    "ok v={:?} e={} b={} t={} shared={} wait={}",
                    r.value.map(f64::to_bits),
                    r.cost.energy_j.to_bits(),
                    r.cost.bytes.to_bits(),
                    r.cost.time_s.to_bits(),
                    o.attribution.shared,
                    o.queue_wait_s.to_bits(),
                ),
                Err(e) => format!("err {e}"),
            };
            (o.text.clone(), format!("#{} {}", o.completion_index, body))
        })
        .collect();
    per.sort();
    per
}

/// Scheduler determinism: under EDF with distinct deadlines, *any*
/// submission interleaving of the same workload on the same seed
/// yields bit-identical per-query outcomes (values, costs, completion
/// indices, queue waits).
#[test]
fn edf_outcomes_are_interleaving_invariant() {
    check("edf_outcomes_are_interleaving_invariant", 64, |g| {
        let keys = g.vec(6..=6, |g| g.range(0u8..=255));
        // Derive a permutation of 0..6 from the random keys.
        let mut order: Vec<usize> = (0..WORKLOAD.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let canonical: Vec<usize> = (0..WORKLOAD.len()).collect();
        assert_eq!(edf_fingerprint(&order), edf_fingerprint(&canonical));
    });
}

#[test]
fn edf_never_completes_a_later_deadline_first() {
    // Submitted in reverse-deadline order; EDF must service them in
    // deadline order (one slot per epoch forces full serialization).
    let cfg = RuntimeConfig::builder()
        .slots_per_epoch(1)
        .policy(SchedPolicy::Edf)
        .build();
    let mut rt = MultiQueryRuntime::new(cfg, grid(3));
    let queries = [
        ("SELECT MAX(temp) FROM sensors", 300u64),
        ("SELECT AVG(temp) FROM sensors WHERE region(east)", 200),
        ("SELECT AVG(temp) FROM sensors", 100),
    ];
    for (text, dl) in queries {
        assert!(rt
            .submit(text, QueryOpts::with_deadline(Duration::from_secs(dl)))
            .is_accepted());
    }
    drain(&mut rt, 16);
    let deadlines: Vec<_> = rt.outcomes().iter().map(|o| o.deadline.unwrap()).collect();
    assert_eq!(rt.outcomes().len(), 3);
    assert!(
        deadlines.windows(2).all(|w| w[0] <= w[1]),
        "completion order must follow deadlines: {deadlines:?}"
    );
}

#[test]
fn energy_fair_estimates_never_touch_the_batteries() {
    let cfg = RuntimeConfig::builder()
        .policy(SchedPolicy::EnergyFair)
        .build();
    let mut rt = MultiQueryRuntime::new(cfg, grid(5));
    rt.enable_journal();
    let before = rt.engine().energy_consumed();
    for text in [
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors WHERE region(west)",
    ] {
        assert!(rt.submit(text, QueryOpts::default()).is_accepted());
    }
    // Admission asked the engine for both ordering keys...
    let queued = rt.journal().unwrap().open_queries();
    assert_eq!(queued.len(), 2);
    assert!(queued.iter().all(|q| q.estimate_j > 0.0), "{queued:?}");
    // ...without a radio waking up, and nothing ran before a round.
    assert_eq!(
        rt.engine().energy_consumed(),
        before,
        "estimating must not touch the radios"
    );
    assert!(rt.outcomes().is_empty());
    assert_eq!(round(&mut rt), 2);
    assert!(rt.engine().energy_consumed() > before);
}

#[test]
fn overlapping_aggregates_share_the_tree_and_spend_fewer_bytes() {
    // The same 8 overlapping region aggregates, serial vs concurrent, on
    // identically-seeded grids pinned to the in-network tree placement.
    let build = || {
        PervasiveGrid::building(1, 6, 9)
            .policy(Policy::Static(SolutionModel::InNetworkTree))
            .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
            .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
            .build()
    };
    let texts: Vec<&str> = vec![
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors WHERE region(west)",
        "SELECT AVG(temp) FROM sensors WHERE region(east)",
        "SELECT MAX(temp) FROM sensors",
        "SELECT AVG(temp) FROM sensors WHERE region(west)",
        "SELECT MAX(temp) FROM sensors WHERE region(east)",
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors",
    ];

    let mut serial = build();
    let mut serial_bytes = 0.0;
    for t in &texts {
        serial_bytes += serial.submit(t).unwrap().cost.bytes;
    }

    let cfg = RuntimeConfig::builder()
        .slots_per_epoch(texts.len())
        .build();
    let mut rt = MultiQueryRuntime::new(cfg, build());
    for t in &texts {
        assert!(rt.submit(t, QueryOpts::default()).is_accepted());
    }
    assert_eq!(round(&mut rt), texts.len());
    let outcomes = rt.outcomes();
    let mut shared_bytes = 0.0;
    for o in outcomes {
        let r = o.response.as_ref().unwrap();
        assert!(o.attribution.shared, "all eight aggregates must share");
        assert!(r.value.is_some(), "shared answers still arrive");
        shared_bytes += o.attribution.bytes;
    }
    assert!(
        shared_bytes < serial_bytes / 2.0,
        "shared epoch must at least halve the bytes: {shared_bytes} vs {serial_bytes}"
    );
}

#[test]
fn batch_of_one_matches_plain_submit() {
    // The engine's batch path with a single entry is the same pipeline as
    // `submit` (which itself delegates through the single-query plan).
    let text = "SELECT AVG(temp) FROM sensors WHERE region(west)";
    let mut a = grid(13);
    let direct = a.submit(text).unwrap();

    let mut b = grid(13);
    let batch = [BatchQuery {
        text,
        deadline: None,
        brownout: false,
    }];
    let mut out = b.execute_batch(&batch);
    let (resp, attr) = out.pop().unwrap().unwrap();
    assert_eq!(resp, direct);
    assert!(!attr.shared);
    assert_eq!(attr.energy_j.to_bits(), direct.cost.energy_j.to_bits());
}

#[test]
fn brownout_batches_answer_coarser_and_are_annotated() {
    // The same two overlapping aggregates on identically-seeded grids:
    // the browned-out batch answers from a subsampled stratum — cheaper
    // on the wire, annotated in the degradation report, never empty.
    let texts = [
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors WHERE region(west)",
    ];
    let run = |brownout: bool| {
        let mut g = grid(23);
        let batch: Vec<BatchQuery<'_>> = texts
            .iter()
            .map(|&text| BatchQuery {
                text,
                deadline: None,
                brownout,
            })
            .collect();
        g.execute_batch(&batch)
    };
    let full = run(false);
    let brown = run(true);
    let mut full_bytes = 0.0;
    let mut brown_bytes = 0.0;
    for (f, b) in full.iter().zip(&brown) {
        let (fr, fa) = f.as_ref().unwrap();
        let (br, ba) = b.as_ref().unwrap();
        assert!(fa.shared && ba.shared, "both rides share the tree");
        assert!(!fr.degradation.brownout);
        assert!(br.degradation.brownout, "brownout must be annotated");
        assert!(br.degradation.is_degraded());
        assert!(br.value.is_some(), "brownout degrades, never drops answers");
        full_bytes += fa.bytes;
        brown_bytes += ba.bytes;
    }
    assert!(
        brown_bytes < full_bytes,
        "coarser strata must spend fewer bytes: {brown_bytes} vs {full_bytes}"
    );
}

#[test]
fn single_path_brownout_is_annotated() {
    // Non-shareable entries can't ride a coarser stratum, but the client
    // still learns the round ran browned out.
    let mut g = grid(23);
    let batch = [BatchQuery {
        text: "SELECT temp FROM sensors WHERE sensor_id = 7",
        deadline: None,
        brownout: true,
    }];
    let (resp, attr) = g.execute_batch(&batch).pop().unwrap().unwrap();
    assert!(!attr.shared);
    assert!(resp.degradation.brownout);
}

#[test]
fn mixed_batches_fail_per_query_not_wholesale() {
    let cfg = RuntimeConfig::builder().slots_per_epoch(4).build();
    let mut rt = MultiQueryRuntime::new(cfg, grid(17));
    for text in [
        "SELECT AVG(temp) FROM sensors",
        "NOT EVEN SQL",
        "SELECT MAX(temp) FROM sensors",
        "SELECT temp FROM sensors WHERE sensor_id = 9999",
    ] {
        assert!(rt.submit(text, QueryOpts::default()).is_accepted());
    }
    round(&mut rt);
    let outcomes = rt.outcomes();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes[0].response.is_ok());
    assert!(matches!(outcomes[1].response, Err(PgError::Parse(_))));
    assert!(outcomes[2].response.is_ok());
    assert!(matches!(outcomes[3].response, Err(PgError::Exec(_))));
    // The two good aggregates still shared the tree around the failures.
    assert!(outcomes[0].attribution.shared);
    assert!(outcomes[2].attribution.shared);
}

#[test]
fn multiquery_runtime_reports_in_pg_report_v1_shape() {
    let mut rt = MultiQueryRuntime::new(RuntimeConfig::default(), grid(21));
    for (text, dl) in WORKLOAD {
        rt.submit(text, QueryOpts::with_deadline(Duration::from_secs(dl)));
    }
    drain(&mut rt, 32);
    let report = rt.report("t16_unit");
    let json = report.to_json().unwrap();
    for key in [
        "\"admitted\"",
        "\"completed\"",
        "\"rejection_rate\"",
        "\"energy_spent_j\"",
        "\"response_s\"",
    ] {
        assert!(json.contains(key), "report must carry {key}: {json}");
    }
}
