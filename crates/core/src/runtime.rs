//! The Pervasive Grid runtime: query text in, answer + learning out.

use crate::error::PgError;
use crate::multiquery::ResolutionMemo;
use pg_grid::sched::GridCluster;
use pg_net::energy::RadioModel;
use pg_net::geom::Point;
use pg_net::link::LinkModel;
use pg_net::topology::{NodeId, Topology};
use pg_partition::decide::{DecisionConfig, DecisionMaker, Policy};
use pg_partition::exec::{execute_once, ExecContext};
use pg_partition::features::QueryFeatures;
use pg_partition::learn::Reward;
use pg_partition::model::{CostVector, SolutionModel};
use pg_query::ast::Query;
use pg_query::classify::{classify, QueryKind};
use pg_sensornet::field::TemperatureField;
use pg_sensornet::network::SensorNetwork;
use pg_sensornet::region::Region;
use pg_sensornet::shared::{SharedTreeSession, TreeMaintenance};
use pg_sim::fault::FaultPlan;
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// How far a response deviated from the fault-free ideal.
///
/// Every [`QueryResponse`] carries one; under the empty fault plan and no
/// deadline it is all-default. The paper's §3 demands the system be
/// "tolerant to failures" and degrade gracefully — this report is where
/// that degradation becomes visible instead of silently low values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationReport {
    /// A non-empty fault plan was installed when the query ran.
    pub faults_active: bool,
    /// Link-layer retransmissions spent collecting the answer.
    pub retries: u64,
    /// Seconds the query waited for the base station to recover before
    /// executing (outages cost latency, not answers).
    pub base_outage_wait_s: f64,
    /// The deadline budget in force, seconds: the builder-level deadline
    /// or the query's own `COST time` bound, whichever is tighter.
    pub deadline_s: Option<f64>,
    /// The response missed its deadline budget (measured time over budget,
    /// or no placement could be predicted to fit it).
    pub deadline_exceeded: bool,
    /// No model satisfied the effective bounds and the runtime fell back
    /// to a degraded placement rather than rejecting the query.
    pub fallback_model: bool,
    /// The query ran in brownout mode: the engine answered from a coarser
    /// aggregation stratum (a subsample of the member set) to shed work
    /// under overload instead of dropping the query outright.
    pub brownout: bool,
}

impl DegradationReport {
    /// True when anything deviated from the fault-free ideal.
    pub fn is_degraded(&self) -> bool {
        self.retries > 0
            || self.base_outage_wait_s > 0.0
            || self.deadline_exceeded
            || self.fallback_model
            || self.brownout
    }
}

/// How a response crossed cells on its way to the user, when it did.
///
/// A single-cell deployment never sets this: `submit` and the multi-query
/// engine leave it [`Default`] (no cells, no handoff). The federation
/// layer stamps it when a roaming user's query migrates between cells or
/// completes remotely with the result forwarded home, so the client can
/// always audit *where* an answer was computed relative to where it was
/// asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// The cell the query was originally admitted at.
    pub origin_cell: Option<u32>,
    /// The cell whose base station actually serviced it.
    pub served_cell: Option<u32>,
    /// The cross-cell path the answer took, if any.
    pub handoff: Option<CrossCellHandoff>,
}

impl Provenance {
    /// True when the answer crossed a cell boundary.
    pub fn is_cross_cell(&self) -> bool {
        self.handoff.is_some()
            || match (self.origin_cell, self.served_cell) {
                (Some(o), Some(s)) => o != s,
                _ => false,
            }
    }
}

/// The cross-cell route a roaming user's answer took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossCellHandoff {
    /// The queued query migrated with the user and was re-planned and
    /// serviced at the destination cell.
    Migrated,
    /// The query completed at its origin cell after the user left; the
    /// result was forwarded to the user's new cell.
    ForwardedHome,
    /// The origin cell was dead or shedding at admission; a gossip-chosen
    /// neighbor absorbed the query.
    Absorbed,
}

/// The answer returned to the client for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The scalar answer (`None` when nothing arrived).
    pub value: Option<f64>,
    /// The query class the processor assigned.
    pub kind: QueryKind,
    /// The solution model the decision maker chose.
    pub model: SolutionModel,
    /// Measured execution cost.
    pub cost: CostVector,
    /// Fraction of requested readings represented.
    pub delivered_frac: f64,
    /// Measured relative error, when ground truth was computable.
    pub accuracy_err: Option<f64>,
    /// What the faults and deadline budget cost this answer.
    pub degradation: DegradationReport,
    /// Which cell(s) produced this answer, when a federation is involved.
    pub provenance: Provenance,
}

/// Builder for a [`PervasiveGrid`].
#[derive(Debug)]
pub struct GridBuilder {
    topology: Topology,
    battery_j: f64,
    link: LinkModel,
    policy: Policy,
    seed: u64,
    regions: BTreeMap<String, Region>,
    faults: FaultPlan,
    deadline: Option<Duration>,
    tree_maintenance: TreeMaintenance,
}

impl GridBuilder {
    /// Start from a topology; the base station is node 0.
    pub fn new(topology: Topology) -> Self {
        GridBuilder {
            topology,
            battery_j: 50.0,
            link: LinkModel::sensor_radio(),
            policy: Policy::Adaptive,
            seed: 42,
            regions: BTreeMap::new(),
            faults: FaultPlan::none(),
            deadline: None,
            tree_maintenance: TreeMaintenance::Free,
        }
    }

    /// Set per-sensor battery capacity, joules.
    pub fn battery(mut self, joules: f64) -> Self {
        self.battery_j = joules;
        self
    }

    /// Set the sensor radio link model.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Set the decision policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Register a named region for `WHERE region(name)`.
    pub fn region(mut self, name: impl Into<String>, r: Region) -> Self {
        self.regions.insert(name.into(), r);
        self
    }

    /// Install a fault plan: the same plan drives node crashes and message
    /// faults in the sensor substrate, worker outages in the grid, and
    /// base-station outage wait-outs in the runtime itself.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Set an end-to-end deadline budget. It propagates into planning as a
    /// response-time bound (net of any base-outage wait already incurred);
    /// responses that miss it are annotated, never rejected.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set how shared aggregation trees live across scheduling epochs:
    /// [`TreeMaintenance::Free`] (default, v1 — trees materialize at no
    /// modelled cost) or [`TreeMaintenance::Incremental`] (build once,
    /// repair only around a dead node). Every policy keeps this mode for
    /// the grid's lifetime.
    pub fn tree_maintenance(mut self, mode: TreeMaintenance) -> Self {
        self.tree_maintenance = mode;
        self
    }

    /// Construct the runtime.
    pub fn build(self) -> PervasiveGrid {
        let streams = RngStreams::new(self.seed);
        let mut net = SensorNetwork::new(
            self.topology,
            NodeId(0),
            RadioModel::mote(),
            self.link,
            self.battery_j,
        );
        net.set_fault_plan(self.faults.clone());
        let mut grid = GridCluster::campus();
        grid.set_fault_plan(self.faults.clone());
        PervasiveGrid {
            exec_rng: streams.fork("exec"),
            net,
            grid,
            field: TemperatureField::calm(21.0),
            regions: self.regions,
            decision: DecisionMaker::with_config(self.policy, self.seed, DecisionConfig::default()),
            now: SimTime::ZERO,
            faults: self.faults,
            deadline: self.deadline,
            tree_session: SharedTreeSession::new(self.tree_maintenance),
            resolutions: ResolutionMemo::default(),
        }
    }
}

/// The running Pervasive Grid.
#[derive(Debug)]
pub struct PervasiveGrid {
    /// The sensor substrate (batteries drain as queries run).
    pub net: SensorNetwork,
    /// The wired grid behind the base station.
    pub grid: GridCluster,
    /// Ground-truth physical field.
    pub field: TemperatureField,
    /// Named regions.
    pub regions: BTreeMap<String, Region>,
    /// The adaptive decision maker.
    pub decision: DecisionMaker,
    /// The runtime clock.
    pub now: SimTime,
    /// The installed fault plan (the empty plan when none was given).
    pub faults: FaultPlan,
    /// End-to-end deadline budget, if one was set.
    pub deadline: Option<Duration>,
    /// Shared aggregation-tree lifetime across scheduling epochs (v1 Free
    /// mode by default; see [`GridBuilder::tree_maintenance`]).
    pub tree_session: SharedTreeSession,
    pub(crate) exec_rng: StdRng,
    /// What each batch text resolved to on the shared-tree path, kept for
    /// the grid's lifetime.
    pub(crate) resolutions: ResolutionMemo,
}

impl PervasiveGrid {
    /// The paper's building: `floors` floors of `side × side` sensors,
    /// 5 m pitch, 4 m between floors, base station at a corner.
    pub fn building(floors: usize, side: usize, seed: u64) -> GridBuilder {
        let topo = Topology::building(floors, side, side, 5.0, 4.0, 8.0);
        GridBuilder::new(topo).seed(seed)
    }

    /// Submit query text: the full Figure-1 pipeline.
    ///
    /// What a scheduler round does for a queue of one, without the
    /// scheduler: note the pressure of one waiting query, then hand the
    /// batch engine a one-entry batch — so the single-query and concurrent
    /// paths are one code path. No admission gates, no clock movement.
    pub fn submit(&mut self, text: &str) -> Result<QueryResponse, PgError> {
        use pg_runtime::{BatchQuery, QueryEngine};
        self.note_pressure(1, 0.0);
        let only = BatchQuery {
            text,
            deadline: None,
            brownout: false,
        };
        match self.execute_batch(&[only]).pop() {
            Some(outcome) => outcome.map(|(response, _)| response),
            None => Err(PgError::Config("batch engine returned no outcome".into())),
        }
    }

    /// The Figure-1 pipeline body. `sched_deadline_s` is the remaining
    /// deadline budget handed down by the multi-query scheduler, `None` on
    /// the plain single-query path (keeping that path bit-identical to the
    /// pre-scheduler pipeline).
    pub(crate) fn submit_inner(
        &mut self,
        query: &Query,
        sched_deadline_s: Option<f64>,
    ) -> Result<QueryResponse, PgError> {
        // 1. Query Processor: the batch engine parsed; classify.
        let kind = classify(query);

        // Base-station outage: the centralized manager waits the outage
        // out and pays it in latency — the answer is delayed, not lost.
        let exec_at = self.faults.base_up_at(self.now);
        let wait_s = exec_at.since(self.now).as_secs_f64();

        // The effective deadline budget: the builder-level deadline, the
        // query's own COST time bound, or the scheduler's remaining budget,
        // whichever is tightest.
        let deadline_s = [
            self.deadline.map(|d| d.as_secs_f64()),
            query.time_bound(),
            sched_deadline_s,
        ]
        .into_iter()
        .flatten()
        .reduce(f64::min);
        // Propagate the *remaining* budget into planning: seconds already
        // burned waiting out the outage are gone. When there is no builder
        // or scheduler deadline and no wait, the query's own bounds already
        // say it all — leave them untouched (bit-identical to the
        // fault-free pipeline).
        let mut planned = query.clone();
        if let Some(d) = deadline_s {
            if self.deadline.is_some() || sched_deadline_s.is_some() || wait_s > 0.0 {
                use pg_query::ast::CostBound;
                planned.cost.retain(|c| !matches!(c, CostBound::TimeS(_)));
                planned.cost.push(CostBound::TimeS((d - wait_s).max(0.0)));
            }
        }

        // 2. Feature extraction against the live network.
        let features = {
            let ctx = ExecContext {
                net: &mut self.net,
                grid: &self.grid,
                field: &self.field,
                regions: &self.regions,
                now: exec_at,
            };
            QueryFeatures::extract(&ctx, &planned)
                .ok_or(PgError::Exec(pg_partition::exec::ExecError::NoMembers))?
        };

        // 3. Decision Maker: pick the placement within COST bounds. When
        // the budget (or the fault plan) leaves no feasible model, degrade
        // instead of rejecting: re-plan against the user's own bounds, and
        // past that fall back to the base-station placement. A plain
        // infeasible-COST query with no faults and no deadline still
        // rejects — that contract (T10) is unchanged.
        let mut fallback_model = false;
        let model = match self
            .decision
            .choose(&self.net, &self.grid, &planned, &features)
        {
            Ok(m) => m,
            Err(_) => {
                fallback_model = true;
                let user_plan = if planned.cost != query.cost {
                    self.decision
                        .choose(&self.net, &self.grid, query, &features)
                        .ok()
                } else {
                    None
                };
                match user_plan {
                    Some(m) => m,
                    None if self.faults.is_active() => SolutionModel::BaseStation,
                    None => return Err(PgError::CostBoundsUnsatisfiable),
                }
            }
        };

        // 4. Simulator: execute on the substrates.
        let outcome = {
            let mut ctx = ExecContext {
                net: &mut self.net,
                grid: &self.grid,
                field: &self.field,
                regions: &self.regions,
                now: exec_at,
            };
            execute_once(&mut ctx, query, model, &mut self.exec_rng)?
        };

        // 5. Adaptive feedback: incorporate actuals into the learner. The
        // outage wait is not a property of the placement, so the learner
        // sees the execution cost alone — but the full outcome signal
        // (loss, deadline fate including the wait, retries) rides along
        // for the composite-reward policies.
        self.decision.observe(
            &self.net,
            &self.grid,
            features,
            model,
            Reward {
                cost: outcome.cost,
                loss_frac: (1.0 - outcome.delivered_frac).clamp(0.0, 1.0),
                deadline_missed: deadline_s.is_some_and(|d| outcome.cost.time_s + wait_s > d),
                retries: outcome.retries,
                dead_letters: 0,
            },
        );

        let mut cost = outcome.cost;
        cost.time_s += wait_s;
        let degradation = DegradationReport {
            faults_active: self.faults.is_active(),
            retries: outcome.retries,
            base_outage_wait_s: wait_s,
            deadline_s,
            deadline_exceeded: deadline_s.is_some_and(|d| cost.time_s > d),
            fallback_model,
            brownout: false,
        };
        Ok(QueryResponse {
            value: outcome.value,
            kind,
            model,
            cost,
            delivered_frac: outcome.delivered_frac,
            accuracy_err: outcome.accuracy_err,
            degradation,
            provenance: Provenance::default(),
        })
    }

    /// Advance the runtime clock (e.g. between fire-scenario phases).
    pub fn advance(&mut self, dt: Duration) {
        self.now += dt;
    }

    /// Live sensors (base excluded).
    pub fn alive_sensors(&self) -> usize {
        self.net.alive_sensors()
    }

    /// Total sensor energy consumed so far, joules.
    pub fn energy_consumed(&self) -> f64 {
        self.net.total_consumed()
    }

    /// Convenience for examples: set the fire alight at the runtime's
    /// current position/time.
    pub fn ignite(&mut self, center: Point, peak: f64) {
        self.field = TemperatureField::building_fire(center, self.now, peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> PervasiveGrid {
        PervasiveGrid::building(1, 5, 7)
            .region("corner", Region::room(0.0, 0.0, 12.0, 12.0))
            .build()
    }

    #[test]
    fn simple_query_round_trips() {
        let mut pg = runtime();
        let r = pg
            .submit("SELECT temp FROM sensors WHERE sensor_id = 12")
            .unwrap();
        assert_eq!(r.kind, QueryKind::Simple);
        assert!(r.value.is_some());
        assert!(r.cost.energy_j > 0.0);
    }

    #[test]
    fn aggregate_query_uses_region() {
        let mut pg = runtime();
        let r = pg
            .submit("SELECT AVG(temp) FROM sensors WHERE region(corner)")
            .unwrap();
        assert_eq!(r.kind, QueryKind::Aggregate);
        let v = r.value.unwrap();
        assert!((v - 21.0).abs() < 3.0, "calm building ≈ ambient: {v}");
    }

    #[test]
    fn parse_errors_are_returned() {
        let mut pg = runtime();
        assert!(matches!(pg.submit("GIMME data"), Err(PgError::Parse(_))));
    }

    #[test]
    fn impossible_cost_bounds_reject() {
        let mut pg = runtime();
        let r = pg.submit("SELECT AVG(temp) FROM sensors COST energy 0.000000001");
        assert_eq!(r, Err(PgError::CostBoundsUnsatisfiable));
    }

    #[test]
    fn queries_drain_energy_and_feed_the_learner() {
        let mut pg = runtime();
        assert_eq!(pg.decision.history_len(), 0);
        let before = pg.energy_consumed();
        pg.submit("SELECT MAX(temp) FROM sensors").unwrap();
        assert!(pg.energy_consumed() > before);
        assert_eq!(pg.decision.history_len(), 1);
    }

    #[test]
    fn ignite_heats_subsequent_answers() {
        let mut pg = runtime();
        let cold = pg
            .submit("SELECT MAX(temp) FROM sensors")
            .unwrap()
            .value
            .unwrap();
        pg.ignite(Point::flat(10.0, 10.0), 400.0);
        pg.advance(Duration::from_secs(600));
        let hot = pg
            .submit("SELECT MAX(temp) FROM sensors")
            .unwrap()
            .value
            .unwrap();
        assert!(hot > cold + 100.0, "fire must show: {cold} -> {hot}");
    }

    #[test]
    fn fault_free_runs_report_no_degradation() {
        let mut pg = runtime();
        let r = pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
        assert_eq!(r.degradation, DegradationReport::default());
        assert!(!r.degradation.is_degraded());
    }

    #[test]
    fn base_outage_is_waited_out_not_failed() {
        let plan = FaultPlan::builder(3)
            .base_outage(SimTime::ZERO, SimTime::from_secs(60))
            .build()
            .unwrap();
        let mut pg = PervasiveGrid::building(1, 5, 7).faults(plan).build();
        let r = pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
        assert!(r.value.is_some());
        assert_eq!(r.degradation.base_outage_wait_s, 60.0);
        assert!(r.cost.time_s > 60.0, "wait must show in the measured time");
        assert!(r.degradation.is_degraded());
        // After the outage window there is nothing to wait for.
        pg.advance(Duration::from_secs(120));
        let r = pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
        assert_eq!(r.degradation.base_outage_wait_s, 0.0);
    }

    #[test]
    fn chaos_queries_degrade_gracefully() {
        // The acceptance bar: >=30 % message loss plus a base-station
        // outage still answers, with the degradation spelled out.
        let plan = FaultPlan::builder(11)
            .message_loss(0.35)
            .base_outage(SimTime::ZERO, SimTime::from_secs(30))
            .build()
            .unwrap();
        let mut pg = PervasiveGrid::building(1, 5, 7).faults(plan).build();
        let mut total_retries = 0;
        for q in [
            "SELECT AVG(temp) FROM sensors",
            "SELECT MAX(temp) FROM sensors",
            "SELECT temp FROM sensors WHERE sensor_id = 12",
        ] {
            let r = pg.submit(q).unwrap_or_else(|e| panic!("{q} failed: {e}"));
            assert!(r.delivered_frac > 0.0, "{q}: nothing delivered");
            assert!(r.degradation.faults_active);
            total_retries += r.degradation.retries;
        }
        // Heavy loss forces retransmissions somewhere across the batch.
        assert!(total_retries > 0, "35 % loss must cost retries");
    }

    #[test]
    fn missed_deadline_is_annotated_never_rejected() {
        // A 1 ms end-to-end budget is unmeetable by any placement: the
        // runtime degrades to a best-effort answer and says so.
        let mut pg = PervasiveGrid::building(1, 5, 7)
            .deadline(Duration::from_millis(1))
            .build();
        let r = pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
        assert!(r.value.is_some());
        assert_eq!(r.degradation.deadline_s, Some(0.001));
        assert!(r.degradation.deadline_exceeded);
        assert!(r.degradation.fallback_model);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let run = |deadline: Option<Duration>| {
            let mut b = PervasiveGrid::building(1, 5, 7);
            if let Some(d) = deadline {
                b = b.deadline(d);
            }
            let mut pg = b.build();
            pg.submit("SELECT AVG(temp) FROM sensors").unwrap()
        };
        let plain = run(None);
        let roomy = run(Some(Duration::from_secs(3600)));
        assert_eq!(plain.value, roomy.value);
        assert_eq!(plain.cost, roomy.cost);
        assert!(!roomy.degradation.deadline_exceeded);
        assert!(!roomy.degradation.fallback_model);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut pg = PervasiveGrid::building(1, 5, seed).build();
            pg.submit("SELECT AVG(temp) FROM sensors").unwrap().value
        };
        assert_eq!(run(9), run(9));
        // (Different seeds may or may not differ — no assertion.)
    }
}
