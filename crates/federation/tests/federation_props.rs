//! Federation-level property tests.
//!
//! 1. **Zero-cost wrapper**: a two-cell federation with every user homed
//!    in cell 0 and no mobility behaves *bit-identically*, per seed, to a
//!    standalone single-cell `run_stream` over the same arrivals — the
//!    federation layer adds membership, gossip, and routing around the
//!    runtime without perturbing a single scheduling decision.
//! 2. **Gossip convergence**: after enough rounds with up to `f` crashed
//!    cells, every live cell's local live-set agrees exactly with the
//!    ground truth — suspicion and eviction are purely local staleness
//!    judgments, yet the federation converges without any orchestrator;
//!    and recovered cells (volunteer churn) are rehabilitated everywhere.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_core::PervasiveGrid;
use pg_federation::gossip::EVICT_AFTER;
use pg_federation::handoff::HandoffStore;
use pg_federation::{
    gossip_round, CellId, Federation, FederationConfig, GossipConfig, LoadDigest, Membership, Trace,
};
use pg_runtime::{
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryOpts, RuntimeConfig, SchedPolicy,
    TraceArrivals,
};
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use proptest::prelude::*;
use rand::Rng;

const EPOCH_S: u64 = 30;

fn cell_runtime(seed: u64) -> MultiQueryRuntime<PervasiveGrid> {
    let pg = PervasiveGrid::building(1, 4, seed).build();
    let cfg = RuntimeConfig::builder()
        .capacity(64)
        .epoch(Duration::from_secs(EPOCH_S))
        .slots_per_epoch(2)
        .policy(SchedPolicy::Edf)
        .overload(OverloadConfig::watermarks(
            OverloadPolicy::Shed,
            0,
            0,
            24,
            40,
        ))
        .build();
    MultiQueryRuntime::new(cfg, pg)
}

/// A seeded Poisson arrival list over a handful of users.
fn arrivals(seed: u64, rate_hz: f64, horizon_s: u64) -> Vec<(SimTime, u64, String, QueryOpts)> {
    let mut rng = RngStreams::new(seed).fork("prop-arrivals");
    let texts = [
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors",
        "SELECT temp FROM sensors WHERE sensor_id = 3",
    ];
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
        if t >= horizon_s as f64 {
            break;
        }
        let user = rng.gen_range(0..6u64);
        let text = texts[rng.gen_range(0..texts.len())];
        out.push((
            SimTime::from_secs_f64(t),
            user,
            text.to_string(),
            QueryOpts::with_deadline(Duration::from_secs(120)),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: the federation is a zero-cost wrapper when nobody
    /// roams. (Absorption is disabled: it is a deliberate behavioral
    /// *feature* that rescues shed load, not wrapper overhead.)
    #[test]
    fn stationary_two_cell_federation_matches_standalone(
        seed in 0u64..1_000,
        rate_centi_hz in 2u32..12,
    ) {
        let rate_hz = f64::from(rate_centi_hz) / 100.0;
        let horizon_s = 3_600;
        let offered = arrivals(seed, rate_hz, horizon_s);

        // Standalone single cell over the identical arrival trace.
        let mut alone = cell_runtime(seed);
        let mut trace = TraceArrivals::new(offered.iter().map(|(at, _, text, opts)| {
            pg_runtime::Arrival { at: *at, text: text.clone(), opts: *opts }
        }));
        alone.run_stream(&mut trace, 100_000);

        // Two-cell federation, every user pinned to cell 0 by a moveless
        // trace.
        let runtimes = vec![cell_runtime(seed), cell_runtime(seed + 1)];
        let traces = (0..6u64)
            .map(|u| Trace { user: u, start: CellId(0), moves: vec![] })
            .collect();
        let fcfg = FederationConfig {
            redirect: false,
            ..FederationConfig::default()
        };
        let mut fed = Federation::new(fcfg, runtimes, traces);
        for (at, user, text, opts) in &offered {
            fed.offer(*at, *user, text.clone(), *opts);
        }
        fed.run(SimTime::from_secs(horizon_s));

        // No cross-cell machinery may have engaged…
        prop_assert_eq!(fed.stats.migrations_opened, 0);
        prop_assert_eq!(fed.stats.forwards_opened, 0);
        prop_assert_eq!(fed.stats.absorbed, 0);
        prop_assert!(fed.cells()[1].rt.outcomes().is_empty());

        // …and cell 0 made bit-identical scheduling decisions.
        let a = alone.outcomes();
        let b = fed.cells()[0].rt.outcomes();
        prop_assert_eq!(a.len(), b.len(), "outcome counts diverge");
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(&x.text, &y.text);
            prop_assert_eq!(x.submitted_at, y.submitted_at);
            prop_assert_eq!(x.started_at, y.started_at);
            prop_assert_eq!(x.completion_index, y.completion_index);
            prop_assert_eq!(x.queue_wait_s.to_bits(), y.queue_wait_s.to_bits());
            prop_assert_eq!(x.deadline, y.deadline);
            prop_assert_eq!(x.brownout, y.brownout);
            prop_assert_eq!(&x.response, &y.response);
            prop_assert_eq!(x.attribution, y.attribution);
        }
        prop_assert_eq!(alone.rejected, fed.cells()[0].rt.rejected);
        prop_assert_eq!(alone.shed, fed.cells()[0].rt.shed);
        prop_assert_eq!(
            alone.energy_spent_j().to_bits(),
            fed.cells()[0].rt.energy_spent_j().to_bits()
        );
    }

    /// Satellite: gossip convergence under crashes. After K rounds with
    /// ≤ f crashed cells, every live cell agrees on exactly the live set;
    /// revived cells are rehabilitated.
    #[test]
    fn gossip_live_sets_agree_under_crashes(
        seed in any::<u64>(),
        n in 3usize..12,
        crash_mask in any::<u64>(),
    ) {
        let cfg = GossipConfig::default();
        let round_s = cfg.round.as_secs_f64() as u64;
        // Rounds until a silent peer must be evicted, plus slack for the
        // view to have converged beforehand.
        let evict_rounds = (EVICT_AFTER.as_secs_f64() / round_s as f64).ceil() as u64 + 5;

        let mut members: Vec<Membership> = (0..n)
            .map(|i| Membership::new(CellId(i as u32), &[CellId(0)], SimTime::ZERO))
            .collect();
        let mut handoffs: Vec<HandoffStore> = (0..n).map(|_| HandoffStore::new()).collect();
        // f < n crashed cells drawn from the mask bits; cell 0 (the
        // introducer) stays up so the pre-crash bootstrap is never
        // degenerate, and at least two cells stay live so agreement is
        // non-trivial.
        let mut up = vec![true; n];
        for (i, u) in up.iter_mut().enumerate().skip(1) {
            *u = (crash_mask >> i) & 1 == 0;
        }
        for i in 1..n {
            if up.iter().filter(|&&u| u).count() >= 2 {
                break;
            }
            up[i] = true;
        }

        let mut round = 0u64;
        let mut run = |members: &mut Vec<Membership>,
                       handoffs: &mut Vec<HandoffStore>,
                       up: &[bool],
                       rounds: u64| {
            for _ in 0..rounds {
                round += 1;
                let now = SimTime::from_secs(round_s * round);
                for (i, m) in members.iter_mut().enumerate() {
                    if up[i] {
                        m.beat(now, LoadDigest::default());
                    }
                }
                gossip_round(members, handoffs, up, now, &cfg, seed, round);
            }
        };

        // Bootstrap with everyone up, then crash the picked set.
        let all_up = vec![true; n];
        run(&mut members, &mut handoffs, &all_up, 12);
        run(&mut members, &mut handoffs, &up.clone(), evict_rounds);

        let truth: Vec<CellId> = (0..n)
            .filter(|&i| up[i])
            .map(|i| CellId(i as u32))
            .collect();
        for (i, m) in members.iter().enumerate() {
            if !up[i] {
                continue;
            }
            let mut live = m.live_set();
            live.sort();
            prop_assert_eq!(
                &live, &truth,
                "cell {} disagrees on the live set after {} rounds", i, evict_rounds
            );
        }

        // Volunteer churn: revive everyone; advancing heartbeats must
        // rehabilitate every cell in every view.
        run(&mut members, &mut handoffs, &all_up, 12);
        let everyone: Vec<CellId> = (0..n).map(|i| CellId(i as u32)).collect();
        for m in &members {
            let mut live = m.live_set();
            live.sort();
            prop_assert_eq!(&live, &everyone, "{} not fully rehabilitated", m.me);
        }
    }
}
