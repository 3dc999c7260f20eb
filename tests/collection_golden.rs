//! Tier-1 guard on the collection hot path: bit-exact digests of a mixed
//! batch served through `PervasiveGrid::execute_batch` — shared aggregation
//! strata, a browned-out entry, a COST-bounded aggregate and a simple read
//! on the single-query path — followed by one dedicated TAG epoch, over
//! five epochs with battery deaths and a crash window in between.
//!
//! The constants were captured on the commit *before* collection epochs
//! went linear-time (base-rooted route tables cached per network); any
//! change to a simulated byte, joule, rng draw or float merge order in
//! that path moves a digest.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pervasive_grid::core::PervasiveGrid;
use pervasive_grid::net::topology::NodeId;
use pervasive_grid::runtime::{BatchQuery, QueryEngine};
use pervasive_grid::sensornet::aggregate::{AggFn, ValueFilter};
use pervasive_grid::sensornet::collect::tree_aggregation_filtered;
use pervasive_grid::sensornet::region::Region;
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
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
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
        let tag = tree_aggregation_filtered(
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
            TreeMaintenance::Persistent,
            (
                0x764c_4fe3_fafd_2939,
                0x5054_7ceb_c2e9_0558,
                0x380c_a079_6816_f108,
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
