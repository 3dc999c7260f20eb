//! Microbenchmark: one epoch of each collection strategy, plus the three
//! hot spots pgbench found on its big cells — a shared collection epoch, a
//! dedicated TAG epoch and a feature extraction at 800–2 500 sensors.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::standard_world;
use pg_core::PervasiveGrid;
use pg_net::topology::NodeId;
use pg_partition::exec::ExecContext;
use pg_partition::features::QueryFeatures;
use pg_sensornet::aggregate::{AggFn, ValueFilter};
use pg_sensornet::cluster::cluster_collection;
use pg_sensornet::collect::{direct_collection, tree_aggregation};
use pg_sensornet::region::Region;
use pg_sensornet::shared::{SharedQuery, SharedTreeSession, TreeMaintenance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("collection_epoch");
    g.sample_size(20);
    for &n in &[50usize, 200] {
        for name in ["direct", "tree", "cluster(k=5)"] {
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter_batched(
                    || {
                        let w = standard_world(n, 3);
                        let members: Vec<_> = w
                            .net
                            .topology()
                            .nodes()
                            .filter(|&x| x != w.net.base())
                            .collect();
                        (w, members)
                    },
                    |(mut w, members)| {
                        let mut rng = StdRng::seed_from_u64(9);
                        let (net, ms, f, t) = (&mut w.net, &members, &w.field, w.now);
                        let (avg, all) = (AggFn::Avg, &ValueFilter::all());
                        match name {
                            "direct" => direct_collection(net, ms, f, t, avg, all, &mut rng).0,
                            "tree" => tree_aggregation(net, ms, f, t, avg, all, &mut rng),
                            _ => cluster_collection(net, ms, f, t, avg, 5, all, &mut rng),
                        }
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    g.finish();
}

fn bench_partial_merge(c: &mut Criterion) {
    use pg_sensornet::aggregate::Partial;
    let parts: Vec<Partial> = (0..1_000).map(|i| Partial::of(i as f64)).collect();
    c.bench_function("partial_merge_1000", |b| {
        b.iter(|| {
            let mut acc = Partial::empty();
            for p in &parts {
                acc.merge(p);
            }
            acc.finalize(AggFn::StdDev)
        });
    });
}

/// pgbench's cells: `floors` floors of `side × side` sensors with the
/// overlapping west/east/core regions its workloads query.
fn cell(floors: usize, side: usize) -> PervasiveGrid {
    let extent = (side as f64 - 1.0) * 5.0;
    PervasiveGrid::building(floors, side, 3)
        .region("west", Region::room(0.0, 0.0, extent * 0.6, extent))
        .region("east", Region::room(extent * 0.4, 0.0, extent, extent))
        .region(
            "core",
            Region::room(extent * 0.25, extent * 0.25, extent * 0.75, extent * 0.75),
        )
        .build()
}

/// `count` aggregates cycling over the whole cell and its three regions.
fn overlapping_queries(pg: &PervasiveGrid, count: usize) -> Vec<SharedQuery> {
    let topo = pg.net.topology();
    let mut selections: Vec<Vec<NodeId>> = vec![topo.nodes().skip(1).collect()];
    selections.extend(pg.regions.values().map(|r| r.members(topo)));
    (0..count)
        .map(|i| SharedQuery {
            members: selections[i % selections.len()].clone(),
            filter: ValueFilter::all(),
            agg: [AggFn::Avg, AggFn::Max, AggFn::Min][i % 3],
        })
        .collect()
}

fn bench_large_cells(c: &mut Criterion) {
    let metro = cell(2, 20);
    let scale = cell(4, 25);

    let mut g = c.benchmark_group("shared_collection_epoch");
    for (pg, queries) in [(&metro, 2usize), (&scale, 14)] {
        let id = format!("{}x{queries}", pg.net.len());
        let queries = overlapping_queries(pg, queries);
        g.bench_function(id, |b| {
            b.iter_batched(
                // A clone starts with no working memory: one epoch here, so
                // the timed one is the steady state a session's rounds see.
                || {
                    let mut net = pg.net.clone();
                    let mut rng = StdRng::seed_from_u64(8);
                    SharedTreeSession::new(TreeMaintenance::Free)
                        .collect(&mut net, &queries, &pg.field, pg.now, &mut rng);
                    net
                },
                |mut net| {
                    let mut rng = StdRng::seed_from_u64(9);
                    SharedTreeSession::new(TreeMaintenance::Free)
                        .collect(&mut net, &queries, &pg.field, pg.now, &mut rng)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();

    let mut g = c.benchmark_group("collection_epoch");
    let members: Vec<NodeId> = scale.net.topology().nodes().skip(1).collect();
    g.bench_function(BenchmarkId::new("tree", scale.net.len()), |b| {
        b.iter_batched(
            || scale.net.clone(),
            |mut net| {
                let mut rng = StdRng::seed_from_u64(9);
                let all = ValueFilter::all();
                let (f, t) = (&scale.field, scale.now);
                tree_aggregation(&mut net, &members, f, t, AggFn::Avg, &all, &mut rng)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();

    let mut scale = scale;
    let query = pg_query::parse("SELECT AVG(temp) FROM sensors WHERE region(west)").unwrap();
    let ctx = ExecContext {
        net: &mut scale.net,
        grid: &scale.grid,
        field: &scale.field,
        regions: &scale.regions,
        now: scale.now,
    };
    c.bench_function("features_extract_2500", |b| {
        b.iter(|| QueryFeatures::extract(&ctx, &query));
    });
}

criterion_group!(benches, bench_epoch, bench_partial_merge, bench_large_cells);
criterion_main!(benches);
