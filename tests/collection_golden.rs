//! Tier-1 guard on the collection hot path: bit-exact digests of a mixed
//! batch served through `PervasiveGrid::execute_batch` — shared aggregation
//! strata, a browned-out entry, a COST-bounded aggregate and a simple read
//! on the single-query path — followed by one dedicated TAG epoch, over
//! five epochs with battery deaths and a crash window in between.
//!
//! The constants were captured on the commit *before* collection epochs
//! went linear-time (base-rooted route tables cached per network); any
//! change to a simulated byte, joule, rng draw or float merge order in
//! that path moves a digest. The seed-2 row pinned `Persistent` until that
//! mode was deleted; it now pins `Incremental`, with constants captured at
//! 2340776, the commit before the deletion (debug = `--release`).
//!
//! `strategy_digests` pins the four single-query epoch bodies directly —
//! direct, TAG tree, cluster (k = 1 and 5) and cluster summaries (k = 4) —
//! on one lossy, faulted network that keeps draining. Its constants were
//! captured at 60e5904, the commit *before* the five collection strategies
//! were rewritten over one billing meter, in debug and `--release` (the
//! same bits in both).
//!
//! `duplicate_batch_digest` pins a batch that repeats its texts — the case
//! `execute_batch` resolves once per distinct `(text, brownout)`. Its
//! constants were captured at 0db6e09, when every entry still resolved its
//! own members, features and ground truth (debug = `--release`).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pervasive_grid::core::PervasiveGrid;
use pervasive_grid::net::energy::RadioModel;
use pervasive_grid::net::geom::Point;
use pervasive_grid::net::link::LinkModel;
use pervasive_grid::net::topology::{NodeId, Topology};
use pervasive_grid::runtime::{BatchQuery, QueryEngine};
use pervasive_grid::sensornet::aggregate::{AggFn, ValueFilter, ValueOp};
use pervasive_grid::sensornet::cluster::{cluster_collection, cluster_summaries, elect_heads};
use pervasive_grid::sensornet::collect::{direct_collection, tree_aggregation};
use pervasive_grid::sensornet::region::Region;
use pervasive_grid::sensornet::{CollectionReport, SensorNetwork, TemperatureField};
use pervasive_grid::sim::fault::FaultPlan;
use pervasive_grid::sim::{Duration, SimTime};
use pervasive_grid::TreeMaintenance;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: [(&str, bool); 8] = [
    ("SELECT AVG(temp) FROM sensors", false),
    ("SELECT MAX(temp) FROM sensors WHERE region(west)", false),
    ("SELECT AVG(temp) FROM sensors WHERE region(east)", true),
    ("SELECT MIN(temp) FROM sensors WHERE region(core)", false),
    (
        "SELECT COUNT(temp) FROM sensors WHERE {region(core) AND temp > 21}",
        false,
    ),
    ("SELECT temp FROM sensors WHERE sensor_id = 17", false),
    (
        "SELECT AVG(temp) FROM sensors WHERE region(west) COST time 60",
        false,
    ),
    ("SELECT SUM(temp) FROM sensors WHERE region(east)", false),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// (values, attributed bytes, attributed energy) digests of five epochs.
fn digests(seed: u64, mode: TreeMaintenance) -> (u64, u64, u64) {
    let plan = FaultPlan::builder(seed)
        .message_loss(0.05)
        .node_crash(41, SimTime::from_secs(30), SimTime::from_secs(90))
        .build()
        .unwrap();
    let mut pg = PervasiveGrid::building(2, 20, seed)
        .tree_maintenance(mode)
        .faults(plan)
        .region("west", Region::room(0.0, 0.0, 57.0, 95.0))
        .region("east", Region::room(38.0, 0.0, 95.0, 95.0))
        .region("core", Region::room(24.0, 24.0, 71.0, 71.0))
        .build();
    let batch: Vec<BatchQuery<'_>> = BATCH
        .iter()
        .map(|&(text, brownout)| BatchQuery {
            text,
            deadline: Some(Duration::from_secs(300)),
            brownout,
        })
        .collect();
    let tag_members: Vec<NodeId> = (1..pg.net.len() as u32).step_by(3).map(NodeId).collect();
    let tag_filter = ValueFilter::all();
    let mut tag_rng = StdRng::seed_from_u64(seed ^ 0x7A6);
    let (mut values, mut bytes, mut energy) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for epoch in 0..5u32 {
        if epoch == 2 {
            pg.net.drain(NodeId(23), f64::INFINITY);
            pg.net.drain(NodeId(440), f64::INFINITY);
        }
        for outcome in pg.execute_batch(&batch) {
            let (response, attribution) = outcome.unwrap();
            fnv(&mut values, response.value.map_or(u64::MAX, f64::to_bits));
            fnv(&mut values, response.delivered_frac.to_bits());
            fnv(&mut values, response.cost.ops.to_bits());
            fnv(&mut values, response.cost.time_s.to_bits());
            fnv(&mut bytes, attribution.bytes.to_bits());
            fnv(&mut bytes, attribution.retries);
            fnv(&mut energy, attribution.energy_j.to_bits());
        }
        let tag = tree_aggregation(
            &mut pg.net,
            &tag_members,
            &pg.field,
            pg.now,
            AggFn::Avg,
            &tag_filter,
            &mut tag_rng,
        );
        fnv(&mut values, tag.value.map_or(u64::MAX, f64::to_bits));
        fnv(&mut values, tag.delivered as u64);
        fnv(&mut bytes, tag.total_bytes);
        fnv(&mut bytes, tag.retries);
        fnv(&mut energy, tag.energy_j.to_bits());
        fnv(&mut energy, pg.energy_consumed().to_bits());
        QueryEngine::advance(&mut pg, Duration::from_secs(30));
    }
    (values, bytes, energy)
}

#[test]
fn mixed_batch_digests_are_pinned_over_three_seeds() {
    let pinned = [
        (
            1,
            TreeMaintenance::Free,
            (
                0xafeb_7bbb_c0cc_d88a_u64,
                0x33c2_26c3_362d_aa9d_u64,
                0x53cc_7ee0_1f25_4bd0_u64,
            ),
        ),
        (
            2,
            TreeMaintenance::Incremental,
            (
                0xe2ae_b420_6687_b62b,
                0xab51_063f_a4ad_0d4b,
                0x0e82_5ddd_f238_ed57,
            ),
        ),
        (
            3,
            TreeMaintenance::Incremental,
            (
                0xc392_fed2_30ae_f6a7,
                0xe837_a125_fbfe_7afd,
                0x78cf_ad22_346b_e392,
            ),
        ),
    ];
    for (seed, mode, want) in pinned {
        let got = digests(seed, mode);
        assert_eq!(
            got, want,
            "seed {seed} under {mode:?}: (values, bytes, energy) = {got:#x?}"
        );
    }
}

fn fnv_report(h: &mut u64, r: &CollectionReport) {
    fnv(h, r.value.map_or(u64::MAX, f64::to_bits));
    fnv(h, r.partial.count);
    for x in [
        r.partial.sum,
        r.partial.sum_sq,
        r.partial.min,
        r.partial.max,
    ] {
        fnv(h, x.to_bits());
    }
    fnv(h, r.energy_j.to_bits());
    fnv(h, r.max_node_energy_j.to_bits());
    fnv(h, r.bytes_to_base);
    fnv(h, r.total_bytes);
    fnv(h, r.latency.as_nanos());
    fnv(h, r.cpu_ops);
    fnv(h, r.participating as u64);
    fnv(h, r.delivered as u64);
    fnv(h, r.retries);
}

/// Sensors that keep a 0.1 J lead over everyone else, so they are the
/// elected heads for as long as they live.
const HEADS: [u32; 5] = [24, 26, 33, 40, 45];
/// A base-adjacent forwarder and a head, crashed over epochs 1 and 2.
const CRASHED: [u32; 2] = [1, 33];

/// One digest per strategy (direct, tree, cluster k=1, cluster k=5,
/// summaries k=4) over five epochs of one 7×7 network: link loss 0.2, plan
/// loss 0.05, the `CRASHED` window, a forwarder and a leaf that run dry on
/// their own, a head killed before epoch 3, and a `temp > 21` push-down.
fn strategy_digests_for(seed: u64) -> [u64; 5] {
    let mut plan = FaultPlan::builder(seed).message_loss(0.05);
    for node in CRASHED {
        plan = plan.node_crash(node.into(), SimTime::from_secs(30), SimTime::from_secs(90));
    }
    let mut net = SensorNetwork::new(
        Topology::grid(7, 7, 10.0, 11.0),
        NodeId(0),
        RadioModel::mote(),
        LinkModel::new(250e3, Duration::from_millis(5), 0.2).unwrap(),
        1.0,
    );
    net.set_fault_plan(plan.build().unwrap());
    let members: Vec<NodeId> = (1..net.len() as u32).map(NodeId).collect();
    for &m in &members {
        match m.0 {
            // Forwarder 14 and leaf 48 die mid-run, in the middle of a hop.
            14 => net.drain(m, 1.0 - 150e-6),
            48 => net.drain(m, 1.0 - 40e-6),
            id if HEADS.contains(&id) => true,
            _ => net.drain(m, 0.1),
        };
    }
    let field = TemperatureField::building_fire(Point::flat(40.0, 30.0), SimTime::ZERO, 300.0);
    let filter = ValueFilter::all().and(ValueOp::Gt, 21.0);
    let mut rngs: Vec<StdRng> = (0..5u64)
        .map(|i| StdRng::seed_from_u64(seed ^ (0x5D << i)))
        .collect();
    let mut h = [FNV_OFFSET; 5];
    for epoch in 0..5u64 {
        let t = SimTime::from_secs(30 * epoch);
        if epoch == 3 {
            net.drain(NodeId(45), f64::INFINITY);
        }
        if epoch == 1 {
            let heads = elect_heads(&net, &members, 5);
            assert!(heads.contains(&NodeId(33)), "a crashed head is elected");
        }
        let (agg, rng) = (AggFn::Avg, &mut rngs);
        let (r, raw) = direct_collection(&mut net, &members, &field, t, agg, &filter, &mut rng[0]);
        fnv_report(&mut h[0], &r);
        for (id, reading) in raw {
            fnv(&mut h[0], u64::from(id.0));
            fnv(&mut h[0], reading.to_bits());
        }
        let r = tree_aggregation(&mut net, &members, &field, t, agg, &filter, &mut rng[1]);
        fnv_report(&mut h[1], &r);
        for (i, k) in [(2, 1), (3, 5)] {
            let r = cluster_collection(
                &mut net,
                &members,
                &field,
                t,
                AggFn::StdDev,
                k,
                &filter,
                &mut rng[i],
            );
            fnv_report(&mut h[i], &r);
        }
        let (r, points) = cluster_summaries(&mut net, &members, &field, t, 4, &mut rng[4]);
        fnv_report(&mut h[4], &r);
        for (p, mean) in points {
            for x in [p.x, p.y, p.z, mean] {
                fnv(&mut h[4], x.to_bits());
            }
        }
    }
    assert!(!net.is_alive(NodeId(14)) && !net.is_alive(NodeId(48)));
    h
}

#[test]
fn strategy_digests() {
    // (direct, tree, cluster k=1, cluster k=5, summaries k=4) per seed.
    let pinned: [[u64; 5]; 3] = [
        [
            0xf728_3771_88f7_a0d6,
            0xf788_ea56_a7a2_d248,
            0x1141_0a9d_cb20_cf31,
            0x1c9e_8476_29c3_8296,
            0x7d4e_33b5_e18d_88c2,
        ],
        [
            0x2cf3_f403_626b_fc48,
            0xc205_b1f6_3ee2_89ab,
            0x97a3_69da_7b0c_1a11,
            0xa165_6a11_1a4b_11fd,
            0xa26d_17ac_eb53_1531,
        ],
        [
            0xd103_1dfb_5e91_a382,
            0x7ba1_401c_7c28_6a6f,
            0x40fb_97b4_4061_3ccf,
            0x7220_6a9b_1286_7f80,
            0x4d17_407f_8612_a2f6,
        ],
    ];
    let got = [1, 2, 3].map(strategy_digests_for);
    assert_eq!(got, pinned, "got {got:#x?}");
}

const DUP_A: &str = "SELECT AVG(temp) FROM sensors WHERE region(west)";
const DUP_B: &str = "SELECT MAX(temp) FROM sensors WHERE {region(core) AND temp > 21}";
const DUP_C: &str = "SELECT AVG(temp) FROM sensors WHERE region(west) COST time 60";
/// Duplicates, both fidelities of one text, a parse error and a text that
/// does not qualify for the shared tree, in one batch.
const DUP_BATCH: [(&str, bool); 8] = [
    (DUP_A, false),
    (DUP_B, false),
    (DUP_A, false),
    (DUP_A, true),
    (DUP_B, true),
    ("nonsense", false),
    (DUP_C, false),
    (DUP_A, false),
];

/// One digest over three rounds of `DUP_BATCH` on one cell that burns
/// (truth moves between rounds), loses packets (link 0.2, plan 0.05), has a
/// forwarder crashed over round 1 and batteries small enough that sensors
/// run dry mid-run: every outcome's value, cost vector, `accuracy_err`,
/// `delivered_frac` and retries, then the learner's calibration book.
fn duplicate_batch_digest_for(seed: u64, mode: TreeMaintenance) -> u64 {
    let plan = FaultPlan::builder(seed)
        .message_loss(0.05)
        .node_crash(41, SimTime::from_secs(30), SimTime::from_secs(60))
        .build()
        .unwrap();
    let mut pg = PervasiveGrid::building(2, 20, seed)
        .tree_maintenance(mode)
        .faults(plan)
        .battery(6e-4)
        .link(LinkModel::new(250e3, Duration::from_millis(5), 0.2).unwrap())
        .region("west", Region::room(0.0, 0.0, 57.0, 95.0))
        .region("core", Region::room(24.0, 24.0, 71.0, 71.0))
        .build();
    pg.ignite(Point::flat(40.0, 45.0), 300.0);
    let batch: Vec<BatchQuery<'_>> = DUP_BATCH
        .iter()
        .map(|&(text, brownout)| BatchQuery {
            text,
            deadline: Some(Duration::from_secs(300)),
            brownout,
        })
        .collect();
    let sensors = pg.alive_sensors();
    let mut h = FNV_OFFSET;
    for _round in 0..3 {
        for outcome in pg.execute_batch(&batch) {
            let Ok((r, _)) = outcome else {
                fnv(&mut h, 0xE44);
                continue;
            };
            fnv(&mut h, r.value.map_or(u64::MAX, f64::to_bits));
            for x in [r.cost.energy_j, r.cost.time_s, r.cost.bytes, r.cost.ops] {
                fnv(&mut h, x.to_bits());
            }
            fnv(&mut h, r.accuracy_err.map_or(u64::MAX, f64::to_bits));
            fnv(&mut h, r.delivered_frac.to_bits());
            fnv(&mut h, r.degradation.retries);
        }
        fnv(&mut h, pg.decision.calibration_len() as u64);
        fnv(&mut h, pg.decision.calibration_error(usize::MAX).to_bits());
        QueryEngine::advance(&mut pg, Duration::from_secs(30));
    }
    assert!(pg.alive_sensors() < sensors, "the cell must be draining");
    h
}

#[test]
fn duplicate_batch_digest() {
    let pinned = [
        (1, TreeMaintenance::Free, 0x2a35_7fd1_7b3f_28d4_u64),
        (2, TreeMaintenance::Incremental, 0x9f6d_86af_12f1_b1ef),
    ];
    for (seed, mode, want) in pinned {
        let got = duplicate_batch_digest_for(seed, mode);
        assert_eq!(got, want, "seed {seed} under {mode:?}: {got:#x}");
    }
}
