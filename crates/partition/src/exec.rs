//! Execute a query under a chosen solution model, measuring actual costs.
//!
//! This is §4's "Simulator" component: "The simulator simulates the
//! solution model for the query and returns the results." Every execution
//! returns the measured [`CostVector`] (computation, data transfer, energy,
//! response time) plus result accuracy, which the decision maker compares
//! against its estimates.
//!
//! [`execute_once`] takes the [`Resolved`] selection that [`resolve`]
//! worked out before the run, and cannot fail. [`members_of`] and
//! [`QueryFeatures::extract`] wrap the same selection only for pgbench's
//! replay probes (ROADMAP item 12).
//!
//! An aggregate's accuracy is judged against ground truth: the noise-free
//! aggregate over the asked stratum, on the field as it stands at the
//! answer's instant. That value reads only the stratum's positions, the
//! aggregate, the value filter and the frozen field, so the selection
//! memoises it per stratum ([`Resolved::truth`]) and scans its members
//! again only when one of those differs. A calm field never moves, so a
//! steady stream pays one scan per text and stratum, not one per answer.

use crate::features::QueryFeatures;
use crate::model::{CostVector, SolutionModel};
use pg_grid::pde::{Problem, Solver};
use pg_grid::reduction::{self, Reading};
use pg_grid::sched::{GridCluster, Job};
use pg_net::geom::Point;
use pg_net::topology::NodeId;
use pg_query::ast::Query;
use pg_query::classify::{inner_kind, QueryKind};
use pg_sensornet::aggregate::{AggFn, Partial, ValueFilter, ValueOp, READING_WIRE_BYTES};
use pg_sensornet::cluster::{cluster_collection, cluster_summaries};
use pg_sensornet::collect::{direct_collection, tree_aggregation, CollectionReport};
use pg_sensornet::field::{FrozenField, TemperatureField};
use pg_sensornet::network::SensorNetwork;
use pg_sensornet::region::Region;
use pg_sim::SimTime;
use rand::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Sustained FLOP rate of the base station / PDA. A 2003-era handheld
/// (StrongARM/XScale, software floating point) sustains ~10 MFLOPS on
/// double-precision stencil code — the gap that makes §4's "it is simply
/// not feasible" argument for grid offload real.
pub const BASE_FLOPS: f64 = 1e7;
/// Effective FLOP rate of one sensor mote.
pub const SENSOR_FLOPS: f64 = 4e6;
/// Wire size of the final answer returned to the client, bytes.
pub const RESULT_BYTES: u64 = 8;

/// The world a query executes against.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// The sensor network (mutated: batteries drain).
    pub net: &'a mut SensorNetwork,
    /// The wired grid behind the base station.
    pub grid: &'a GridCluster,
    /// Ground-truth physical field.
    pub field: &'a TemperatureField,
    /// Named regions; only [`members_of`] reads them.
    pub regions: &'a BTreeMap<String, Region>,
    /// Simulated submission instant.
    pub now: SimTime,
}

/// Why a query could not be resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// `WHERE region(name)` names an unregistered region.
    UnknownRegion(String),
    /// `WHERE sensor_id = n` is out of range or is the base station.
    UnknownSensor(u32),
    /// The WHERE clause selects no sensor other than the base station.
    NoMembers,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownRegion(r) => write!(f, "unknown region '{r}'"),
            ExecError::UnknownSensor(s) => write!(f, "unknown sensor #{s}"),
            ExecError::NoMembers => write!(f, "query selects no sensors"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Measured outcome of one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The scalar answer (reading, aggregate, or peak reconstructed
    /// temperature for Complex queries). `None` when nothing arrived.
    pub value: Option<f64>,
    /// Measured costs.
    pub cost: CostVector,
    /// Fraction of requested readings represented in the answer.
    pub delivered_frac: f64,
    /// Relative error vs. ground truth, when measurable.
    pub accuracy_err: Option<f64>,
    /// Link-layer retransmissions the collection spent getting here.
    pub retries: u64,
}

/// A query's selection, resolved once before it runs.
#[derive(Debug)]
pub struct Resolved {
    /// The selected sensors, base station excluded; never empty.
    pub members: Vec<NodeId>,
    /// Learner features of the full selection.
    pub features: QueryFeatures,
    /// The box a Complex query reconstructs over: its named region clamped
    /// to the deployment hull, or the hull itself.
    pub bounds: Region,
    /// The last ground truth worked out over each stratum, the full
    /// selection's first (see [`truth`](Self::truth)).
    truths: [RefCell<Option<Truth>>; 2],
}

/// One memoised ground truth and everything it read besides the stratum's
/// members: the aggregate, the value filter and the field.
#[derive(Debug)]
struct Truth {
    agg: AggFn,
    filter: ValueFilter,
    field: FrozenField,
    value: Option<f64>,
}

/// Brownout keeps the members with an even node id.
fn even(n: &NodeId) -> bool {
    n.0.is_multiple_of(2)
}

impl Resolved {
    /// Does `brownout` thin the selection? Only when some member is even,
    /// so a thinned stratum is never empty.
    fn thinned(&self, brownout: bool) -> bool {
        brownout && self.members.iter().any(even)
    }

    /// The sensors an execution asks. Brownout answers from a coarser
    /// stratum — roughly every other member — while the overload lasts. The
    /// cut is keyed on node id parity, not list position, so overlapping
    /// queries keep overlapping members and their stratum entries still
    /// merge on shared packets. A non-empty member set always keeps at
    /// least one node: degraded, never empty.
    pub fn stratum(&self, brownout: bool) -> Vec<NodeId> {
        // Nine in ten shared entries of an overloaded metro stream are
        // browned out: compacting the copy in place costs well under what a
        // filtered collect does.
        let mut asked = self.members.clone();
        if self.thinned(brownout) {
            asked.retain(even);
        }
        asked
    }

    /// Ground truth of `agg` over the [`stratum`](Self::stratum) that
    /// `brownout` asks, noise-free, honouring the source-side value filter
    /// the execution applied, on `field` as it stands at the answer's
    /// instant.
    ///
    /// Besides those it reads only the members' positions in the immutable
    /// topology of `net`, the network this selection was resolved against.
    /// So each stratum keeps the last truth worked out over it and answers
    /// again from it while the aggregate, the filter and the field compare
    /// equal — exactly the value a fresh scan gives, and a calm field never
    /// moves. The memo lives as long as the resolution does.
    pub fn truth(
        &self,
        net: &SensorNetwork,
        field: &FrozenField,
        brownout: bool,
        agg: AggFn,
        filter: &ValueFilter,
    ) -> Option<f64> {
        let mut slot = self.truths[usize::from(brownout)].borrow_mut();
        if let Some(t) = slot.as_ref() {
            if t.agg == agg && t.filter == *filter && t.field == *field {
                return t.value;
            }
        }
        let thinned = self.thinned(brownout);
        let mut p = Partial::empty();
        for m in self.members.iter().filter(|&m| !thinned || even(m)) {
            let v = net.ground_truth(*m, field);
            if filter.matches(v) {
                p.add(v);
            }
        }
        let value = p.finalize(agg);
        *slot = Some(Truth {
            agg,
            filter: filter.clone(),
            field: field.clone(),
            value,
        });
        value
    }
}

/// Resolve `query` against a network and its named regions. Reads only the
/// text, the region's box and the immutable topology.
pub fn resolve(
    net: &SensorNetwork,
    regions: &BTreeMap<String, Region>,
    query: &Query,
) -> Result<Resolved, ExecError> {
    let (members, region) = select(net, regions, query)?;
    let hull = deployment_hull(net);
    Ok(Resolved {
        features: QueryFeatures::of_members(net, query, &members),
        bounds: clamp_region(&region.unwrap_or(hull), &hull),
        members,
        truths: Default::default(),
    })
}

/// The member set of a query (a wrapper over [`resolve`]'s selection).
pub fn members_of(ctx: &ExecContext<'_>, query: &Query) -> Result<Vec<NodeId>, ExecError> {
    select(ctx.net, ctx.regions, query).map(|(members, _)| members)
}

/// The one selection: a named sensor, else the named region's sensors,
/// else every sensor, never the base station; and the named region's box.
fn select(
    net: &SensorNetwork,
    regions: &BTreeMap<String, Region>,
    query: &Query,
) -> Result<(Vec<NodeId>, Option<Region>), ExecError> {
    let base = net.base();
    let target = query.target_sensor();
    if let Some(id) = target.filter(|&id| id as usize >= net.len() || NodeId(id) == base) {
        return Err(ExecError::UnknownSensor(id));
    }
    let region = query.region().map(|r| regions.get(r).ok_or(r)).transpose();
    let region = region
        .map_err(|r| ExecError::UnknownRegion(r.into()))?
        .copied();
    let mut members: Vec<NodeId> = match (target, &region) {
        (Some(id), _) => vec![NodeId(id)],
        (None, Some(r)) => r.members(net.topology()),
        (None, None) => net.topology().nodes().collect(),
    };
    members.retain(|&m| m != base);
    if members.is_empty() {
        return Err(ExecError::NoMembers);
    }
    Ok((members, region))
}

/// Execute `query` once under `model`, at `ctx.now`, over the selection
/// that [`resolve`] worked out before the call.
///
/// This is exactly one execution of the query's body: an EPOCH clause is
/// not read here. Running a continuous query epoch after epoch is the
/// pipeline's job (`pg_core::runtime::execute_query`).
pub fn execute_once<R: Rng>(
    ctx: &mut ExecContext<'_>,
    query: &Query,
    resolved: &Resolved,
    model: SolutionModel,
    rng: &mut R,
) -> Outcome {
    match inner_kind(query) {
        QueryKind::Aggregate => exec_aggregate(ctx, query, resolved, model, rng),
        QueryKind::Complex => exec_complex(ctx, resolved, model, rng),
        // The rest is Simple: `inner_kind` names only one-shot classes.
        _ => exec_simple(ctx, &resolved.members, model, rng),
    }
}

/// The source-side value predicate a query pushes down to the sensing
/// site (TAG-style): its WHERE comparisons on the reading attribute
/// (`temp`/`value`). Other attribute names are metadata predicates the
/// membership resolution already handled. Public so the multi-query batch
/// path can reuse the exact single-query semantics.
pub fn value_filter(query: &Query) -> ValueFilter {
    use pg_query::ast::{CmpOp, Pred};
    let mut f = ValueFilter::all();
    for p in &query.wher {
        if let Pred::Cmp(attr, op, bound) = p {
            if attr.eq_ignore_ascii_case("temp") || attr.eq_ignore_ascii_case("value") {
                let op = match op {
                    CmpOp::Eq => ValueOp::Eq,
                    CmpOp::Lt => ValueOp::Lt,
                    CmpOp::Le => ValueOp::Le,
                    CmpOp::Gt => ValueOp::Gt,
                    CmpOp::Ge => ValueOp::Ge,
                };
                f = f.and(op, *bound);
            }
        }
    }
    f
}

fn report_cost(r: &CollectionReport) -> CostVector {
    CostVector {
        energy_j: r.energy_j,
        time_s: r.latency.as_secs_f64(),
        bytes: r.total_bytes as f64,
        ops: r.cpu_ops as f64,
    }
}

/// Relative error of a measured value against ground truth, with a unit
/// floor on the denominator so near-zero truths don't explode the metric.
pub fn rel_err(measured: f64, truth: f64) -> f64 {
    (measured - truth).abs() / truth.abs().max(1.0)
}

fn exec_simple<R: Rng>(
    ctx: &mut ExecContext<'_>,
    members: &[NodeId],
    model: SolutionModel,
    rng: &mut R,
) -> Outcome {
    // One reading to the base station; the transport is identical for
    // every placement — only GridOffload adds a pointless backhaul bounce.
    let all = ValueFilter::all();
    let (report, raw) =
        direct_collection(ctx.net, members, ctx.field, ctx.now, AggFn::Avg, &all, rng);
    let mut cost = report_cost(&report);
    if matches!(
        model,
        SolutionModel::GridOffload { .. } | SolutionModel::Hybrid { .. }
    ) {
        // For a single reading there is nothing to summarize in-network:
        // Hybrid degenerates to grid offload with one record.
        let bh = ctx.grid.backhaul();
        cost.time_s += (bh.tx_time(READING_WIRE_BYTES) + bh.tx_time(RESULT_BYTES)).as_secs_f64();
        cost.bytes += (READING_WIRE_BYTES + RESULT_BYTES) as f64;
    }
    let value = raw.first().map(|&(_, v)| v);
    let accuracy_err =
        value.map(|v| rel_err(v, ctx.net.ground_truth(members[0], &ctx.field.at(ctx.now))));
    Outcome {
        value,
        cost,
        delivered_frac: report.delivery_ratio(),
        accuracy_err,
        retries: report.retries,
    }
}

fn exec_aggregate<R: Rng>(
    ctx: &mut ExecContext<'_>,
    query: &Query,
    resolved: &Resolved,
    model: SolutionModel,
    rng: &mut R,
) -> Outcome {
    let members = &resolved.members;
    let agg = query.first_agg().unwrap_or(AggFn::Avg);
    // WHERE comparisons on the reading push down to the sensing site
    // (TAG-style): failing readings never transmit.
    let filter = value_filter(query);
    let report = match model {
        SolutionModel::InNetworkTree => {
            tree_aggregation(ctx.net, members, ctx.field, ctx.now, agg, &filter, rng)
        }
        // For decomposable aggregates the Hybrid's in-network half already
        // produces the answer: it IS cluster collection.
        SolutionModel::InNetworkCluster { heads } | SolutionModel::Hybrid { heads } => {
            cluster_collection(
                ctx.net, members, ctx.field, ctx.now, agg, heads, &filter, rng,
            )
        }
        SolutionModel::BaseStation | SolutionModel::GridOffload { .. } => {
            direct_collection(ctx.net, members, ctx.field, ctx.now, agg, &filter, rng).0
        }
    };
    let mut cost = report_cost(&report);
    if let SolutionModel::GridOffload { .. } = model {
        // Ship the delivered readings up the backhaul, aggregate there,
        // return the scalar. (Pointless for aggregates — the experiment
        // shows exactly that.)
        let ship = report.delivered as u64 * READING_WIRE_BYTES;
        let job = Job {
            name: "aggregate".into(),
            ops: report.delivered as u64 * 20,
            input_bytes: ship,
            output_bytes: RESULT_BYTES,
        };
        cost.time_s += ctx.grid.single_job_time_at(&job, ctx.now).as_secs_f64();
        cost.bytes += (ship + RESULT_BYTES) as f64;
        cost.ops += job.ops as f64;
    }
    let truth = resolved.truth(ctx.net, &ctx.field.at(ctx.now), false, agg, &filter);
    Outcome {
        value: report.value,
        cost,
        delivered_frac: report.delivery_ratio(),
        accuracy_err: report.value.zip(truth).map(|(v, t)| rel_err(v, t)),
        retries: report.retries,
    }
}

/// Grid resolution for the reconstruction problem: 1-metre cells up to 40
/// per axis, with the spacing stretched beyond that so the box always
/// covers the whole region (truncating the region would park hot sensors on
/// the fixed ambient boundary and wreck the reconstruction). Computation
/// therefore grows with region size until the 40-cell cap, then plateaus —
/// the knob behind the T8 base-vs-grid crossover.
fn problem_dims(extent: (f64, f64, f64)) -> (usize, usize, usize, f64) {
    const MAX_CELLS: f64 = 39.0;
    let max_ext = extent.0.max(extent.1).max(extent.2).max(1.0);
    let spacing = (max_ext / MAX_CELLS).max(1.0);
    let dim = |e: f64| (((e / spacing).ceil() as usize) + 1).clamp(3, MAX_CELLS as usize + 1);
    (
        dim(extent.0),
        dim(extent.1),
        dim(extent.2.max(1.0)),
        spacing,
    )
}

fn exec_complex<R: Rng>(
    ctx: &mut ExecContext<'_>,
    resolved: &Resolved,
    model: SolutionModel,
    rng: &mut R,
) -> Outcome {
    let members = &resolved.members;
    // Collection phase. The solver needs (position, value) pairs, so
    // aggregation trees (which lose identity) cannot carry the data:
    // most placements start with a direct raw collection. The Hybrid
    // placement instead reduces in-network — cluster heads ship one
    // (centroid, mean) summary each — §4's "combination of the approaches".
    let (report, readings): (_, Vec<Reading>) = if let SolutionModel::Hybrid { heads } = model {
        cluster_summaries(ctx.net, members, ctx.field, ctx.now, heads, rng)
    } else {
        let all = ValueFilter::all();
        let (report, raw) =
            direct_collection(ctx.net, members, ctx.field, ctx.now, AggFn::Avg, &all, rng);
        let readings = raw
            .iter()
            .map(|&(n, v)| (ctx.net.topology().position(n), v))
            .collect();
        (report, readings)
    };
    let mut cost = report_cost(&report);

    // Build the PDE problem. The box boundary is pinned at the mean of the
    // delivered readings rather than building ambient: a room interior to a
    // burning building has hot "walls", and the mean reading is the best
    // boundary guess the compute site actually possesses.
    let (ext_x, ext_y, ext_z) = resolved.bounds.extent();
    let (nx, ny, nz, spacing) = problem_dims((ext_x, ext_y, ext_z));
    let mut origin = resolved.bounds.min;
    if ext_z < spacing {
        // Flat deployment: lift sensors onto the middle z-plane so their
        // constraints land in the interior, not on the fixed shell.
        origin.z -= spacing;
    }
    // `GridOffload` may region-average the readings before they cross the
    // backhaul. Whatever the placement, its system is solved once, here; the
    // `match` below only prices where that solve ran.
    let readings = match model {
        SolutionModel::GridOffload { reduction_cell_m } => {
            reduction::reduce_readings(&readings, reduction_cell_m)
        }
        _ => readings,
    };
    let boundary = if readings.is_empty() {
        ctx.field.ambient
    } else {
        readings.iter().map(|r| r.1).sum::<f64>() / readings.len() as f64
    };
    let mut p = Problem::new(nx, ny, nz, origin, spacing, boundary);
    for (pos, v) in &readings {
        p.add_constraint(pos, *v);
    }
    let (field3, stats) = p.solve(Solver::ConjugateGradient, 1e-4, 4_000);

    let shipped_bytes = match model {
        SolutionModel::Hybrid { .. } | SolutionModel::GridOffload { .. } => {
            // Ship the (already reduced) readings and solve on the grid.
            let ship = reduction::wire_bytes(readings.len());
            let job = Job {
                name: "pde-solve".into(),
                ops: stats.ops,
                input_bytes: ship,
                output_bytes: RESULT_BYTES,
            };
            cost.time_s += ctx.grid.single_job_time_at(&job, ctx.now).as_secs_f64();
            ship
        }
        SolutionModel::BaseStation => {
            cost.time_s += stats.ops as f64 / BASE_FLOPS;
            0
        }
        SolutionModel::InNetworkTree | SolutionModel::InNetworkCluster { .. } => {
            // Distributed in-network solve: one Jacobi sweep per radio
            // round, every member exchanging one value with each
            // neighbour per sweep — §4's "simply not feasible" placement,
            // priced honestly rather than forbidden.
            // Approximate Jacobi sweep count for the same residual: CG
            // iterations squared is the classic gap; cap for sanity.
            let sweeps = ((stats.iterations as u64).pow(2)).clamp(100, 20_000);
            let slot = ctx.net.link().expected_tx_time(READING_WIRE_BYTES);
            let per_sweep_bytes = members.len() as u64 * READING_WIRE_BYTES * 4; // ~4 neighbours
            let radio = *ctx.net.radio();
            let range = ctx.net.topology().range();
            let exchange_energy = sweeps as f64
                * members.len() as f64
                * (radio.tx_energy(READING_WIRE_BYTES * 8, range)
                    + 4.0 * radio.rx_energy(READING_WIRE_BYTES * 8));
            let compute_energy = radio.cpu_energy((stats.ops / members.len().max(1) as u64).max(1));
            // Drain the network proportionally (spread over members).
            let per_member = (exchange_energy + compute_energy) / members.len() as f64;
            for &m in members {
                ctx.net.drain(m, per_member);
            }
            cost.energy_j += exchange_energy + compute_energy;
            cost.time_s += sweeps as f64 * slot.as_secs_f64()
                + stats.ops as f64 / (SENSOR_FLOPS * members.len() as f64);
            cost.bytes += (sweeps * per_sweep_bytes) as f64;
            0
        }
    };
    cost.ops += stats.ops as f64;
    cost.bytes += shipped_bytes as f64 + RESULT_BYTES as f64;

    // Accuracy: RMSE of the reconstruction against the analytic field over
    // the *interior* cells (the fixed shell holds assumed wall values, not
    // reconstructions), relative to the field's dynamic range in the box.
    let mut truth_min = f64::INFINITY;
    let mut truth_max = f64::NEG_INFINITY;
    let mut sq_sum = 0.0;
    let mut count = 0usize;
    let truth_at = ctx.field.at(ctx.now);
    for z in 1..nz - 1 {
        for y in 1..ny - 1 {
            for x in 1..nx - 1 {
                let truth = truth_at.temperature(&p.position_of(x, y, z));
                truth_min = truth_min.min(truth);
                truth_max = truth_max.max(truth);
                let got = field3.get(x, y, z);
                sq_sum += (got - truth) * (got - truth);
                count += 1;
            }
        }
    }
    let rmse = (sq_sum / count as f64).sqrt();
    let range = (truth_max - truth_min).max(1.0);
    let peak = field3
        .raw()
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);

    Outcome {
        value: Some(peak),
        cost,
        delivered_frac: report.delivery_ratio(),
        accuracy_err: Some(rmse / range),
        retries: report.retries,
    }
}

/// Bounding box of the whole deployment.
fn deployment_hull(net: &SensorNetwork) -> Region {
    let (inf, topo) = (f64::INFINITY, net.topology());
    let empty = Region {
        min: Point::new(inf, inf, inf),
        max: Point::new(-inf, -inf, -inf),
    };
    topo.nodes()
        .map(|n| topo.position(n))
        .fold(empty, |h, p| Region {
            min: zip(h.min, p, f64::min),
            max: zip(h.max, p, f64::max),
        })
}

/// Clamp an (possibly half-infinite) region to the deployment hull. A
/// region disjoint from the hull clamps to an inverted (empty) box, which
/// `contains` correctly rejects everywhere.
fn clamp_region(region: &Region, hull: &Region) -> Region {
    Region {
        min: zip(region.min, hull.min, f64::max),
        max: zip(region.max, hull.max, f64::min),
    }
}

/// `f` of two points, axis by axis.
fn zip(a: Point, b: Point, f: fn(f64, f64) -> f64) -> Point {
    Point::new(f(a.x, b.x), f(a.y, b.y), f(a.z, b.z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_net::energy::RadioModel;
    use pg_net::link::LinkModel;
    use pg_net::topology::Topology;
    use pg_query::parse;
    use pg_sim::Duration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (
        SensorNetwork,
        GridCluster,
        TemperatureField,
        BTreeMap<String, Region>,
    ) {
        let topo = Topology::grid(6, 6, 10.0, 11.0);
        let mut net = SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap(),
            100.0,
        );
        net.noise_sd = 0.0;
        let grid = GridCluster::campus();
        let field = TemperatureField::building_fire(Point::flat(25.0, 25.0), SimTime::ZERO, 300.0);
        let mut regions = BTreeMap::new();
        regions.insert("room210".to_string(), Region::room(0.0, 0.0, 30.0, 30.0));
        (net, grid, field, regions)
    }

    /// Resolve `q` against `c`'s network and regions, then run it once.
    fn once(c: &mut ExecContext<'_>, q: &Query, model: SolutionModel, rng: &mut StdRng) -> Outcome {
        let resolved = resolve(c.net, c.regions, q).unwrap();
        execute_once(c, q, &resolved, model, rng)
    }

    fn ctx<'a>(
        net: &'a mut SensorNetwork,
        grid: &'a GridCluster,
        field: &'a TemperatureField,
        regions: &'a BTreeMap<String, Region>,
    ) -> ExecContext<'a> {
        ExecContext {
            net,
            grid,
            field,
            regions,
            now: SimTime::from_secs(600),
        }
    }

    #[test]
    fn simple_query_returns_the_sensor_reading() {
        let (mut net, grid, field, regions) = world();
        let mut c = ctx(&mut net, &grid, &field, &regions);
        let q = parse("SELECT temp FROM sensors WHERE sensor_id = 14").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = once(&mut c, &q, SolutionModel::BaseStation, &mut rng);
        let expect = c
            .net
            .ground_truth(NodeId(14), &field.at(SimTime::from_secs(600)));
        assert_eq!(out.value, Some(expect));
        assert_eq!(out.delivered_frac, 1.0);
        assert!(out.cost.energy_j > 0.0 && out.cost.time_s > 0.0);
    }

    #[test]
    fn simple_query_grid_offload_just_adds_latency() {
        let (mut net, grid, field, regions) = world();
        let q = parse("SELECT temp FROM sensors WHERE sensor_id = 14").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let base = {
            let mut c = ctx(&mut net, &grid, &field, &regions);
            once(&mut c, &q, SolutionModel::BaseStation, &mut rng)
        };
        let (mut net2, grid2, field2, regions2) = world();
        let mut rng2 = StdRng::seed_from_u64(1);
        let offl = {
            let mut c = ctx(&mut net2, &grid2, &field2, &regions2);
            once(
                &mut c,
                &q,
                SolutionModel::GridOffload {
                    reduction_cell_m: 0.0,
                },
                &mut rng2,
            )
        };
        assert!(offl.cost.time_s > base.cost.time_s);
        assert_eq!(offl.value, base.value);
    }

    #[test]
    fn aggregate_models_agree_on_value_but_differ_in_cost() {
        let q = parse("SELECT AVG(temp) FROM sensors WHERE region(room210)").unwrap();
        let mut outcomes = Vec::new();
        for model in [
            SolutionModel::InNetworkTree,
            SolutionModel::InNetworkCluster { heads: 2 },
            SolutionModel::BaseStation,
            SolutionModel::GridOffload {
                reduction_cell_m: 0.0,
            },
        ] {
            let (mut net, grid, field, regions) = world();
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let mut rng = StdRng::seed_from_u64(9);
            outcomes.push(once(&mut c, &q, model, &mut rng));
        }
        let v0 = outcomes[0].value.unwrap();
        for o in &outcomes {
            assert!((o.value.unwrap() - v0).abs() < 1e-9, "values must agree");
            assert!(o.accuracy_err.unwrap() < 1e-9, "noise-free => exact");
        }
        // Grid offload strictly slower than base station for an aggregate.
        assert!(outcomes[3].cost.time_s > outcomes[2].cost.time_s);
    }

    #[test]
    fn tree_ships_fewer_bytes_at_network_scale() {
        // Network-wide aggregate: past the partial-vs-reading crossover
        // (a small room query sits below it — that is experiment T2).
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let run = |model| {
            let (mut net, grid, field, regions) = world();
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let mut rng = StdRng::seed_from_u64(9);
            once(&mut c, &q, model, &mut rng)
        };
        let tree = run(SolutionModel::InNetworkTree);
        let direct = run(SolutionModel::BaseStation);
        assert!(
            tree.cost.bytes < direct.cost.bytes,
            "{} !< {}",
            tree.cost.bytes,
            direct.cost.bytes
        );
        assert!(tree.cost.energy_j < direct.cost.energy_j);
    }

    #[test]
    fn complex_query_reconstructs_the_hot_spot() {
        let (mut net, grid, field, regions) = world();
        let mut c = ctx(&mut net, &grid, &field, &regions);
        let q =
            parse("SELECT temperature_distribution() FROM sensors WHERE region(room210)").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = once(
            &mut c,
            &q,
            SolutionModel::GridOffload {
                reduction_cell_m: 0.0,
            },
            &mut rng,
        );
        let peak = out.value.unwrap();
        assert!(peak > 100.0, "reconstruction must see the fire: {peak}");
        let err = out.accuracy_err.unwrap();
        assert!(err < 0.5, "relative RMSE should be sane: {err}");
        assert!(out.cost.ops > 1e4, "a PDE solve is real work");
    }

    #[test]
    fn complex_in_network_is_feasible_but_prohibitive() {
        let q =
            parse("SELECT temperature_distribution() FROM sensors WHERE region(room210)").unwrap();
        let run = |model| {
            let (mut net, grid, field, regions) = world();
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let mut rng = StdRng::seed_from_u64(4);
            once(&mut c, &q, model, &mut rng)
        };
        let grid_out = run(SolutionModel::GridOffload {
            reduction_cell_m: 0.0,
        });
        let innet = run(SolutionModel::InNetworkTree);
        assert!(
            innet.cost.energy_j > 10.0 * grid_out.cost.energy_j,
            "in-network solve should drain far more energy: {} vs {}",
            innet.cost.energy_j,
            grid_out.cost.energy_j
        );
        assert!(innet.cost.time_s > grid_out.cost.time_s);
    }

    #[test]
    fn reduction_trades_accuracy_for_bytes() {
        let q = parse("SELECT temperature_distribution() FROM sensors").unwrap();
        let run = |cell| {
            let (mut net, grid, field, regions) = world();
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let mut rng = StdRng::seed_from_u64(5);
            once(
                &mut c,
                &q,
                SolutionModel::GridOffload {
                    reduction_cell_m: cell,
                },
                &mut rng,
            )
        };
        let full = run(0.0);
        let reduced = run(25.0);
        assert!(reduced.cost.bytes < full.cost.bytes);
        assert!(
            reduced.accuracy_err.unwrap() >= full.accuracy_err.unwrap(),
            "coarser data cannot be more accurate: {} vs {}",
            reduced.accuracy_err.unwrap(),
            full.accuracy_err.unwrap()
        );
    }

    #[test]
    fn hybrid_ships_fewest_backhaul_bytes_for_complex() {
        let q = parse("SELECT temperature_distribution() FROM sensors").unwrap();
        let run = |model| {
            let (mut net, grid, field, regions) = world();
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let mut rng = StdRng::seed_from_u64(8);
            once(&mut c, &q, model, &mut rng)
        };
        let grid_out = run(SolutionModel::GridOffload {
            reduction_cell_m: 0.0,
        });
        let hybrid = run(SolutionModel::Hybrid { heads: 4 });
        // Hybrid moves far fewer bytes overall: members reach heads in one
        // hop and only 4 summaries travel onward.
        assert!(
            hybrid.cost.bytes < grid_out.cost.bytes,
            "{} !< {}",
            hybrid.cost.bytes,
            grid_out.cost.bytes
        );
        // The reconstruction still sees the fire and stays in the same
        // accuracy regime. (It is NOT necessarily worse than raw readings:
        // cluster centroids average out sensor noise, and on this world the
        // 4-summary reconstruction slightly beats the 35-point one.)
        assert!(hybrid.value.unwrap() > 100.0);
        assert!(hybrid.accuracy_err.unwrap() < 0.6);
        let _ = grid_out.accuracy_err;
    }

    #[test]
    fn hybrid_equals_cluster_for_aggregates() {
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let run = |model| {
            let (mut net, grid, field, regions) = world();
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let mut rng = StdRng::seed_from_u64(9);
            once(&mut c, &q, model, &mut rng)
        };
        let cluster = run(SolutionModel::InNetworkCluster { heads: 3 });
        let hybrid = run(SolutionModel::Hybrid { heads: 3 });
        assert_eq!(cluster.value, hybrid.value);
        assert!((cluster.cost.energy_j - hybrid.cost.energy_j).abs() < 1e-12);
    }

    /// An EPOCH clause is the pipeline's to repeat: below it, a
    /// continuous query is one execution of its body.
    #[test]
    fn an_epoch_clause_runs_one_execution() {
        let run = |text: &str| {
            let (mut net, grid, field, regions) = world();
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let q = parse(text).unwrap();
            let mut rng = StdRng::seed_from_u64(6);
            once(&mut c, &q, SolutionModel::InNetworkTree, &mut rng)
        };
        assert_eq!(
            run("SELECT AVG(temp) FROM sensors WHERE region(room210) EPOCH DURATION 10"),
            run("SELECT AVG(temp) FROM sensors WHERE region(room210)")
        );
    }

    #[test]
    fn value_predicates_push_down_to_the_source() {
        // The fire at (25,25) at t=600 puts sensors between ~180 and
        // ~320 C: "WHERE temp > 250" selects only the core, and the cooler
        // sensors must not transmit (fewer bytes than unfiltered).
        let hot = parse("SELECT AVG(temp) FROM sensors WHERE temp > 250").unwrap();
        let all = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let run = |q: &pg_query::ast::Query, model| {
            let (mut net, grid, field, regions) = world();
            net.noise_sd = 0.0;
            let mut c = ctx(&mut net, &grid, &field, &regions);
            let mut rng = StdRng::seed_from_u64(11);
            once(&mut c, q, model, &mut rng)
        };
        for model in [SolutionModel::BaseStation, SolutionModel::InNetworkTree] {
            let filtered = run(&hot, model);
            let unfiltered = run(&all, model);
            let vf = filtered.value.unwrap();
            let vu = unfiltered.value.unwrap();
            assert!(vf > 250.0, "filtered average must exceed the bound: {vf}");
            assert!(vf > vu, "hot-only average beats overall: {vf} vs {vu}");
            assert!(
                filtered.cost.bytes < unfiltered.cost.bytes,
                "{}: push-down must save bytes: {} vs {}",
                model.name(),
                filtered.cost.bytes,
                unfiltered.cost.bytes
            );
            // Accuracy is judged against the *filtered* ground truth.
            assert!(filtered.accuracy_err.unwrap() < 1e-9);
        }
    }

    #[test]
    fn errors_for_bad_targets() {
        let (net, _, _, regions) = world();
        let err = |text: &str| resolve(&net, &regions, &parse(text).unwrap()).unwrap_err();
        assert_eq!(
            err("SELECT temp FROM sensors WHERE sensor_id = 999"),
            ExecError::UnknownSensor(999)
        );
        // The base station is not a sensor a query can read.
        assert_eq!(
            err("SELECT temp FROM sensors WHERE sensor_id = 0"),
            ExecError::UnknownSensor(0)
        );
        assert_eq!(
            err("SELECT temp FROM sensors WHERE region(nowhere)"),
            ExecError::UnknownRegion("nowhere".into())
        );
    }

    /// A region holding only the base station, and one disjoint from the
    /// deployment, select no members.
    #[test]
    fn a_region_without_sensors_selects_no_members() {
        let (net, _, _, mut regions) = world();
        regions.insert("base".into(), Region::room(-1.0, -1.0, 1.0, 1.0));
        regions.insert("away".into(), Region::room(100.0, 100.0, 200.0, 200.0));
        for name in ["base", "away"] {
            let q = parse(&format!(
                "SELECT AVG(temp) FROM sensors WHERE region({name})"
            ))
            .unwrap();
            assert_eq!(
                resolve(&net, &regions, &q).err(),
                Some(ExecError::NoMembers),
                "{name}"
            );
        }
    }

    /// The reconstruction box is the deployment hull when no region is
    /// named, a named region clamped to the hull otherwise.
    #[test]
    fn bounds_are_the_region_clamped_to_the_hull() {
        let (net, _, _, mut regions) = world();
        regions.insert("site".into(), Region::room(-100.0, -100.0, 100.0, 100.0));
        let bounds = |text: &str| {
            resolve(&net, &regions, &parse(text).unwrap())
                .unwrap()
                .bounds
        };
        let boxed = |x: f64| Region {
            min: Point::new(0.0, 0.0, 0.0),
            max: Point::new(x, x, 0.0),
        };
        let complex = "SELECT temperature_distribution() FROM sensors";
        assert_eq!(bounds(complex), boxed(50.0));
        assert_eq!(
            bounds(&format!("{complex} WHERE region(site)")),
            boxed(50.0)
        );
        assert_eq!(
            bounds(&format!("{complex} WHERE region(room210)")),
            boxed(30.0)
        );
    }
}
