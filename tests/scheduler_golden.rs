//! Tier-1 guard on the multi-query scheduler: a bit-exact digest of
//! everything two journaling runtimes let a caller observe while a seeded
//! script interleaves `submit` / `cancel` / `extract` + `admit_migrated` /
//! `tighten_deadline` / `step` / `crash` / `recover_from_journal` over an
//! echo engine — one digest per `SchedPolicy` × `OverloadPolicy` ×
//! preemption on/off.
//!
//! A digest folds every verdict (the id of the handle it issued, or its
//! `RejectReason`), the `poll` status of every handle after every
//! operation, each batch the engine was handed (text, remaining deadline,
//! brownout flag) and each pressure note, and at the end the outcomes, all
//! public counters, the report, the count of journal records appended and
//! the journal's kept entries (variant and id; payloads are folded the
//! first time `open_queries` shows them). Shed queries are seen through
//! the `shed` counter and each handle's `poll`.
//!
//! Outcomes and migrants are folded field by field, not by their `Debug`
//! text, so a change to the shape of a record that keeps its values leaves
//! the digests where they are (debug and release agree). The constants
//! were re-captured when the journal came to keep only the open entries
//! and the shed log was deleted. One thing is left out on purpose: the
//! script never crashes a runtime that holds a tightened query —
//! `crates/runtime/tests/journal_recovery.rs` pins that a tightening
//! survives a crash.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pervasive_grid::runtime::{
    Admission, Arrival, ArrivalProcess, Attribution, BatchQuery, EngineOutcome, JournalRecord,
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryEngine, QueryHandle, QueryOpts,
    QueryStatus, RuntimeConfig, SchedPolicy, TraceArrivals,
};
use pervasive_grid::sim::{Duration, SimTime};

const OPS: usize = 420;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_u64(h: &mut u64, x: u64) {
    fnv(h, &x.to_le_bytes());
}

/// SplitMix64: the script's only source of choices.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Answers with the text length at 0.25 J per character (so estimates
/// differ and `EnergyFair` has something to order), fails texts starting
/// with "fail", and folds everything the scheduler hands it into `seen`.
struct Echo {
    now: SimTime,
    battery_j: f64,
    seen: u64,
}

fn cost_j(text: &str) -> f64 {
    text.len() as f64 * 0.25
}

impl QueryEngine for Echo {
    type Response = usize;
    type Error = String;

    fn now(&self) -> SimTime {
        self.now
    }
    fn advance(&mut self, dt: Duration) {
        self.now += dt;
    }
    fn estimate_energy_j(&mut self, text: &str) -> Option<f64> {
        (!text.starts_with("opaque")).then(|| cost_j(text))
    }
    fn note_pressure(&mut self, queue_depth: usize, overload_level: f64) {
        fnv_u64(&mut self.seen, queue_depth as u64);
        fnv_u64(&mut self.seen, overload_level.to_bits());
    }
    fn execute_batch(&mut self, batch: &[BatchQuery<'_>]) -> Vec<EngineOutcome<usize, String>> {
        fnv_u64(&mut self.seen, batch.len() as u64);
        batch
            .iter()
            .map(|q| {
                fnv(&mut self.seen, q.text.as_bytes());
                fnv_u64(
                    &mut self.seen,
                    q.deadline.map_or(u64::MAX, |d| d.as_nanos()),
                );
                fnv_u64(&mut self.seen, u64::from(q.brownout));
                if q.text.starts_with("fail") {
                    return Err("boom".to_string());
                }
                let energy_j = cost_j(q.text) * if q.brownout { 0.5 } else { 1.0 };
                self.battery_j -= energy_j;
                Ok((
                    q.text.len(),
                    Attribution {
                        energy_j,
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

const TEXTS: [&str; 8] = [
    "SELECT temp FROM sensors",
    "SELECT AVG(temp) FROM sensors WHERE region(west)",
    "SELECT MAX(temp) FROM sensors",
    "q",
    "fail on purpose",
    "opaque to the estimator",
    "SELECT temperature_distribution() FROM sensors WHERE region(core)",
    "SELECT MIN(temp) FROM sensors WHERE region(east)",
];
/// Relative deadlines, seconds; 0 = none, 20 is shorter than one epoch.
const DEADLINES_S: [u64; 8] = [0, 0, 20, 45, 90, 90, 240, 600];
const PRIORITIES: [u8; 6] = [0, 0, 0, 0, 1, 2];

fn draw_query(s: &mut Script) -> (&'static str, QueryOpts) {
    let mut opts = QueryOpts::default().priority(s.pick(&PRIORITIES));
    let d = s.pick(&DEADLINES_S);
    if d > 0 {
        opts.deadline = Some(Duration::from_secs(d));
    }
    (s.pick(&TEXTS), opts)
}

/// A verdict as the id of the handle it issued, or as why it was refused.
fn fold_verdict(h: &mut u64, verdict: &Admission) {
    match verdict {
        Admission::Admitted { handle } => fnv_u64(h, handle.id().0),
        Admission::Rejected { reason, .. } => fnv(h, format!("{reason:?}").as_bytes()),
    }
}

type Rt = MultiQueryRuntime<Echo>;

fn runtime(policy: SchedPolicy, overload: OverloadPolicy, preemption: bool) -> Rt {
    let cfg = RuntimeConfig::builder()
        .capacity(12)
        .epoch(Duration::from_secs(30))
        .slots_per_epoch(2)
        .policy(policy)
        .preemption(preemption)
        .overload(OverloadConfig::watermarks(overload, 3, 5, 7, 9))
        .build();
    let engine = Echo {
        now: SimTime::ZERO,
        battery_j: 2_500.0,
        seen: 0xcbf2_9ce4_8422_2325,
    };
    let mut rt = MultiQueryRuntime::new(cfg, engine);
    rt.enable_journal();
    rt
}

/// A window's arrivals that log the verdict on each as it is submitted:
/// its handle when admitted, `None` when refused.
struct Logged {
    arrivals: TraceArrivals,
    log: Vec<Option<QueryHandle>>,
}

impl ArrivalProcess for Logged {
    fn peek(&mut self) -> Option<SimTime> {
        self.arrivals.peek()
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.arrivals.next_arrival()?;
        self.log.push(None);
        Some(a)
    }
    fn on_admitted(&mut self, handle: QueryHandle) {
        if let Some(last) = self.log.last_mut() {
            *last = Some(handle);
        }
    }
}

/// One runtime plus what the script remembers about it.
struct Side {
    rt: Rt,
    /// Verdicts of every submission, direct or streamed, since the last
    /// `observe`, in call order: the handle issued, or `None`.
    log: Vec<Option<QueryHandle>>,
    handles: Vec<QueryHandle>,
    tightened: Vec<QueryHandle>,
    /// Ids below this have had their journal payload folded.
    payloads_seen: u64,
}

impl Side {
    /// A handle to aim the next cancel / extract / tighten at: usually one
    /// that is still queued, sometimes any handle ever issued.
    fn target(&self, s: &mut Script) -> Option<QueryHandle> {
        let queued: Vec<QueryHandle> = self
            .handles
            .iter()
            .copied()
            .filter(|&handle| self.rt.poll(handle).is_queued())
            .collect();
        if queued.is_empty() || s.below(4) == 0 {
            (!self.handles.is_empty()).then(|| s.pick(&self.handles))
        } else {
            Some(s.pick(&queued))
        }
    }

    /// Fold the verdict log (whose handles — direct submissions and
    /// streamed arrivals alike — join `handles`), what every handle polls
    /// as, then any queued-query payload the journal has not shown before.
    fn observe(&mut self, h: &mut u64) {
        for entry in std::mem::take(&mut self.log) {
            fnv_u64(h, entry.map_or(u64::MAX, |handle| handle.id().0));
            self.handles.extend(entry);
        }
        for &handle in &self.handles {
            match self.rt.poll(handle) {
                QueryStatus::Queued { rank, depth } => {
                    fnv_u64(h, 1);
                    fnv_u64(h, rank as u64);
                    fnv_u64(h, depth as u64);
                }
                QueryStatus::Completed(o) => {
                    fnv_u64(h, 2);
                    fnv_u64(h, o.id.0);
                }
                QueryStatus::Cancelled => fnv_u64(h, 3),
                QueryStatus::Shed => fnv_u64(h, 4),
                QueryStatus::Lost => fnv_u64(h, 5),
                QueryStatus::Migrated => fnv_u64(h, 6),
                QueryStatus::Unknown => fnv_u64(h, 7),
            }
        }
        fnv_u64(h, self.rt.queue_depth() as u64);
        fnv(h, format!("{:?}", self.rt.overload_state()).as_bytes());
        let open = self.rt.journal().expect("journal on").open_queries();
        for q in open {
            if q.id.0 < self.payloads_seen {
                continue;
            }
            self.payloads_seen = q.id.0 + 1;
            fnv_u64(h, q.id.0);
            fnv(h, q.text.as_bytes());
            fnv_u64(h, q.submitted_at.as_nanos());
            fnv_u64(h, q.deadline_abs.map_or(u64::MAX, SimTime::as_nanos));
            fnv_u64(h, q.estimate_j.to_bits());
            fnv_u64(h, u64::from(q.priority));
        }
    }

    fn holds_a_tightened_query(&self) -> bool {
        self.tightened.iter().any(|&t| self.rt.poll(t).is_queued())
    }

    /// Everything left to see once the script is over.
    fn finish(&mut self, h: &mut u64) {
        let rt = &self.rt;
        for (i, o) in rt.outcomes().iter().enumerate() {
            fnv_u64(h, i as u64);
            fnv_u64(h, o.id.0);
            fnv(h, o.text.as_bytes());
            fnv_u64(h, o.submitted_at.as_nanos());
            fnv_u64(h, o.started_at.as_nanos());
            fnv_u64(h, o.deadline.map_or(u64::MAX, SimTime::as_nanos));
            fnv_u64(h, u64::from(o.brownout));
            fnv(h, format!("{:?}{:?}", o.response, o.attribution).as_bytes());
            fnv_u64(h, o.queue_wait_s.to_bits());
            fnv_u64(h, u64::from(o.deadline_exceeded()));
        }
        for counter in [
            rt.admitted,
            rt.rejected,
            rt.cancelled,
            rt.arrived,
            rt.preemptions,
            rt.shed,
            rt.browned_out,
            rt.migrated_out,
            rt.migrated_in,
            rt.lost,
            rt.recovered,
        ] {
            fnv_u64(h, counter);
        }
        fnv_u64(h, rt.energy_spent_j().to_bits());
        fnv(h, rt.report("golden").to_json().unwrap().as_bytes());
        let journal = rt.journal().expect("journal on");
        fnv_u64(h, journal.len() as u64);
        for r in journal.records() {
            let (tag, q) = match r {
                JournalRecord::Admitted(q) => (1, q),
                JournalRecord::MigratedIn(q) => (2, q),
                r => panic!("a closed or tightening record was kept: {r:?}"),
            };
            fnv_u64(h, tag);
            fnv_u64(h, q.id.0);
        }
        fnv_u64(h, rt.engine().seen);
        fnv_u64(h, rt.engine().battery_j.to_bits());
        fnv_u64(h, rt.engine().now.as_nanos());
    }
}

/// 0–4 arrivals inside `[now, now + dt)`.
fn window(s: &mut Script, now: SimTime, dt: Duration) -> TraceArrivals {
    let n = s.below(5);
    TraceArrivals::new((0..n).map(|_| {
        let (text, opts) = draw_query(s);
        Arrival {
            at: now + Duration::from_nanos(s.next() % dt.as_nanos()),
            text: text.to_string(),
            opts,
        }
    }))
}

fn digest(policy: SchedPolicy, overload: OverloadPolicy, preemption: bool) -> u64 {
    let mut s = Script(0x5eed ^ ((policy as u64) << 8) ^ ((overload as u64) << 4));
    let mut sides = [(); 2].map(|()| Side {
        rt: runtime(policy, overload, preemption),
        log: Vec::new(),
        handles: Vec::new(),
        tightened: Vec::new(),
        payloads_seen: 0,
    });
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..OPS {
        let k = s.below(2);
        let op = s.below(16);
        fnv_u64(&mut h, op as u64);
        match op {
            0..=3 => {
                let (text, opts) = draw_query(&mut s);
                let verdict = sides[k].rt.submit(text, opts);
                fold_verdict(&mut h, &verdict);
                sides[k].log.push(verdict.handle());
            }
            4..=8 => {
                let Some(handle) = sides[k].target(&mut s) else {
                    continue;
                };
                fnv_u64(&mut h, handle.id().0);
                match op {
                    4 => fnv_u64(&mut h, u64::from(sides[k].rt.cancel(handle))),
                    5 | 6 => match sides[k].rt.extract(handle) {
                        Some(m) => {
                            fnv(&mut h, m.text.as_bytes());
                            fnv_u64(&mut h, m.submitted_at.as_nanos());
                            fnv_u64(&mut h, m.deadline_abs.map_or(u64::MAX, SimTime::as_nanos));
                            fnv_u64(&mut h, u64::from(m.priority));
                            let verdict = sides[1 - k].rt.admit_migrated(m);
                            fold_verdict(&mut h, &verdict);
                            sides[1 - k].handles.extend(verdict.handle());
                        }
                        None => fnv_u64(&mut h, 0),
                    },
                    _ => {
                        let to = Duration::from_secs(s.pick(&[40, 100, 300]));
                        let tightened = sides[k].rt.tighten_deadline(handle, to);
                        fnv_u64(&mut h, u64::from(tightened));
                        if tightened {
                            sides[k].tightened.push(handle);
                        }
                    }
                }
            }
            9 if !sides[k].holds_a_tightened_query() => {
                fnv_u64(&mut h, sides[k].rt.crash() as u64);
            }
            9 | 10 => fnv_u64(&mut h, sides[k].rt.recover_from_journal() as u64),
            // Time moves on both sides at once: migrants carry their
            // submission instant across, so the clocks must agree.
            _ => {
                let dt = Duration::from_secs(s.pick(&[10, 30, 30, 45]));
                for side in &mut sides {
                    let mut arrivals = Logged {
                        arrivals: window(&mut s, side.rt.engine().now, dt),
                        log: Vec::new(),
                    };
                    fnv_u64(&mut h, side.rt.step(dt, &mut arrivals) as u64);
                    side.log.append(&mut arrivals.log);
                }
            }
        }
        for side in &mut sides {
            side.observe(&mut h);
        }
    }
    // Recover what is still lost, then drain.
    for side in &mut sides {
        fnv_u64(&mut h, side.rt.recover_from_journal() as u64);
        let steps = side.rt.run_stream(&mut TraceArrivals::new([]), 64);
        fnv_u64(&mut h, steps as u64);
        side.observe(&mut h);
        side.finish(&mut h);
    }
    h
}

const POLICIES: [SchedPolicy; 3] = [SchedPolicy::Fifo, SchedPolicy::Edf, SchedPolicy::EnergyFair];
const OVERLOADS: [OverloadPolicy; 3] = [
    OverloadPolicy::None,
    OverloadPolicy::Shed,
    OverloadPolicy::BrownoutShed,
];
/// Policy-major, then overload policy, then preemption off / on.
const PINNED: [u64; 18] = [
    0x1119_9b23_dff7_a235,
    0xc7e0_c7b1_2a86_2f71,
    0x87dc_c581_f550_5de8,
    0xec29_4c46_51d9_10c6,
    0xea59_6200_7a5d_6f45,
    0xa56a_8867_a5f4_4c0e,
    0xdb84_e8ae_32b6_6c86,
    0x01b3_8bf0_41b0_a9cf,
    0xec0e_7e25_cd46_fd8c,
    0xae9f_0dc2_9dc9_9d63,
    0x02ef_823d_cdb0_eafd,
    0x9eee_b984_5148_559c,
    0x25fe_f095_7018_423e,
    0xf360_eee4_f981_6bd6,
    0xaf6c_3065_f9e7_2340,
    0x7055_dcdc_0192_c7a7,
    0x15cd_9d33_25e0_71a1,
    0x152e_bfe6_09f5_d171,
];

#[test]
fn scheduler_digests_are_pinned_over_every_policy_combination() {
    let mut got = Vec::new();
    for policy in POLICIES {
        for overload in OVERLOADS {
            for preemption in [false, true] {
                got.push(digest(policy, overload, preemption));
            }
        }
    }
    assert_eq!(
        got,
        PINNED,
        "scheduler behaviour moved; got {}",
        got.iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
