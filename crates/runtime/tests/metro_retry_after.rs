//! Regression: a [`MetroWorkload`] client never resubmits a bounced query
//! before the runtime's `retry_after` hint has elapsed — end to end,
//! through `run_stream`, not just at the backoff formula.
//!
//! Method: wrap the workload in a spy [`ArrivalProcess`] that records the
//! earliest legal resubmission instant (`now + retry_after`) every time
//! the runtime bounces an arrival *and the client actually schedules a
//! retry*. The delivered stream is then diffed against a clean drain of
//! the same-seed workload (whose natural arrivals are independent of the
//! consumer — retries ride a separate RNG fork): whatever the real run
//! delivered beyond the natural multiset is exactly the retries. Each
//! individual retry fires at or after its own threshold, so the
//! ascending-sorted retry instants must dominate the ascending-sorted
//! thresholds pairwise — which is what the test asserts.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_runtime::{
    Arrival, ArrivalProcess, Attribution, BatchQuery, DeviceClass, EngineOutcome, MetroConfig,
    MetroWorkload, MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryEngine, QueryOpts,
    RuntimeConfig, SchedPolicy,
};
use pg_sim::{Duration, SimTime};
use std::collections::BTreeMap;

/// Minimal engine: fixed-cost echo, effectively infinite battery.
struct Echo {
    now: SimTime,
}

impl QueryEngine for Echo {
    type Response = String;
    type Error = String;

    fn now(&self) -> SimTime {
        self.now
    }
    fn advance(&mut self, dt: Duration) {
        self.now += dt;
    }
    fn estimate_energy_j(&mut self, _text: &str) -> Option<f64> {
        Some(0.0)
    }
    fn note_pressure(&mut self, _queue_depth: usize, _overload_level: f64) {}
    fn execute_batch(&mut self, batch: &[BatchQuery<'_>]) -> Vec<EngineOutcome<String, String>> {
        batch
            .iter()
            .map(|q| {
                Ok((
                    q.text.to_string(),
                    Attribution {
                        energy_j: 0.0,
                        bytes: 40.0,
                        time_s: 0.5,
                        retries: 0,
                        shared: batch.len() > 1,
                    },
                ))
            })
            .collect()
    }
}

/// Spy wrapper: delegates everything, records delivered arrivals and the
/// `now + retry_after` threshold of every bounce that led to a retry.
struct Spy {
    inner: MetroWorkload,
    delivered: Vec<(SimTime, String)>,
    thresholds: Vec<SimTime>,
}

impl ArrivalProcess for Spy {
    fn peek(&mut self) -> Option<SimTime> {
        self.inner.peek()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.inner.next_arrival()?;
        self.delivered.push((a.at, a.text.clone()));
        Some(a)
    }

    fn on_overload(&mut self, arrival: Arrival, retry_after: Duration, now: SimTime) {
        let before = self.inner.retries();
        self.inner.on_overload(arrival, retry_after, now);
        if self.inner.retries() > before {
            self.thresholds.push(now + retry_after);
        }
    }
}

/// ~3× the 4-slots-per-30s service capacity, compressed into two hours so
/// the shed watermark engages and backpressure bounces real arrivals.
fn metro_cfg() -> MetroConfig {
    let day_s = 7_200u64;
    let users = 1_000u64;
    let floor = 0.2;
    let flash_mult = 8.0;
    let (flash_every, flash_len) = (600.0, 90.0);
    let e_diurnal = floor + (1.0 - floor) * 0.5;
    let e_flash = 1.0 + (flash_mult - 1.0) * (flash_len / flash_every);
    let e_queries = 3.3;
    let target_hz = 3.0 * 4.0 / 30.0;
    let spd = target_hz * day_s as f64 / (users as f64 * e_diurnal * e_flash * e_queries);
    MetroConfig {
        users,
        sessions_per_user_day: spd,
        day: Duration::from_secs(day_s),
        horizon: SimTime::from_secs(day_s),
        diurnal_floor: floor,
        flash_rate_mult: flash_mult,
        flash_every: Duration::from_secs(flash_every as u64),
        flash_len: Duration::from_secs(flash_len as u64),
        pareto_alpha: 1.5,
        queries_min: 1.0,
        queries_cap: 50,
        think_mean: Duration::from_secs(10),
        retry_max: 8,
        classes: vec![DeviceClass {
            name: "handheld".into(),
            weight: 1.0,
            mix: vec![(
                "SELECT AVG(temp) FROM sensors".into(),
                QueryOpts::with_deadline(Duration::from_secs(120)),
            )],
        }],
    }
}

fn runtime() -> MultiQueryRuntime<Echo> {
    let cfg = RuntimeConfig::builder()
        .capacity(32)
        .epoch(Duration::from_secs(30))
        .slots_per_epoch(4)
        .policy(SchedPolicy::Edf)
        .overload(OverloadConfig::watermarks(
            OverloadPolicy::Shed,
            0,
            0,
            16,
            24,
        ))
        .build();
    MultiQueryRuntime::new(cfg, Echo { now: SimTime::ZERO })
}

#[test]
fn metro_client_never_resubmits_before_retry_after() {
    let seed = 0xba5e;
    let mut spy = Spy {
        inner: MetroWorkload::new(seed, metro_cfg()),
        delivered: Vec::new(),
        thresholds: Vec::new(),
    };
    let mut rt = runtime();
    rt.run_stream(&mut spy, 200_000);

    // The test is vacuous unless backpressure actually retried something.
    assert!(
        spy.inner.retries() > 0,
        "load never tripped the shed watermark; nothing was retried"
    );

    // The natural (retry-free) offered stream of the same seed: retries
    // ride a dedicated RNG fork, so a consumer that never signals
    // overload sees exactly the non-retry arrivals of the real run.
    let mut natural: BTreeMap<(SimTime, String), u64> = BTreeMap::new();
    let mut clean = MetroWorkload::new(seed, metro_cfg());
    while let Some(a) = clean.next_arrival() {
        *natural.entry((a.at, a.text)).or_insert(0) += 1;
    }

    // Whatever was delivered beyond the natural multiset is the retries.
    let mut retries: Vec<SimTime> = Vec::new();
    for (at, text) in spy.delivered {
        match natural.get_mut(&(at, text.clone())) {
            Some(n) if *n > 0 => *n -= 1,
            _ => retries.push(at),
        }
    }
    assert_eq!(
        retries.len() as u64,
        spy.inner.retries(),
        "delivered-minus-natural should be exactly the scheduled retries"
    );
    assert_eq!(retries.len(), spy.thresholds.len());

    // Each retry fires at or after its own `now + retry_after`, so the
    // sorted sequences must dominate pairwise.
    retries.sort();
    spy.thresholds.sort();
    for (i, (&r, &th)) in retries.iter().zip(&spy.thresholds).enumerate() {
        assert!(
            r >= th,
            "retry #{i} resubmitted at {:?} before its earliest legal instant {:?}",
            r,
            th
        );
    }
}

/// A client bounced again and again backs off past 2³² × `retry_after`
/// and past the end of simulated time without a panic: a retry that would
/// land beyond the horizon is given up.
#[test]
fn backoff_past_the_end_of_time_gives_up() {
    let cfg = MetroConfig {
        users: 1,
        sessions_per_user_day: 20.0,
        day: Duration::from_secs(1_000_000_000),
        horizon: SimTime::from_secs(18_000_000_000),
        retry_max: 64,
        ..MetroConfig::default()
    };
    let mut w = MetroWorkload::new(1, cfg);
    while let Some(a) = w.next_arrival() {
        let at = a.at;
        w.on_overload(a, Duration::from_millis(1), at);
    }
    assert!(w.retries() > 0);
    assert!(w.gave_up() > 0);
}
