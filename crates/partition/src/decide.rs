//! The Decision Maker.
//!
//! §4: "Decision maker would decide the solution model to use based on type
//! of query, historic data and known features of the network at hand. …
//! The system will be made adaptive by comparing the estimates of energy
//! consumption and response time with the actual values … during the
//! execution of the query and the results would be incorporated into the
//! learning technique."
//!
//! [`Policy::Adaptive`] predicts each candidate's cost from k-NN history
//! (falling back to the analytic estimator while history is thin), applies
//! the query's COST bounds as a hard filter, picks the cheapest under the
//! scalarization weights, and explores ε-greedily. [`Policy::Bandit`]
//! replaces the case memory with a contextual LinUCB learner over an
//! extended arm space, steering by the composite outcome reward (cost +
//! observed degradation) and the live health context — see [`crate::learn`].
//! Static policies and a clairvoyant [`oracle_choice`] bound both from
//! below and above.
//!
//! Every policy scores the same way: its candidate list, each candidate's
//! predicted cost, the COST filter. Only the pick differs — arm 0, a
//! uniform draw, or the policy's learner.

use crate::estimate::estimate;
use crate::exec::{execute_once, resolve, ExecContext};
use crate::features::QueryFeatures;
use crate::learn::{bandit_candidates, CandidateArm, KnnLearner, LinUcbLearner, NetHealth, Reward};
use crate::model::{within_bounds, CostVector, CostWeights, SolutionModel};
use pg_grid::sched::GridCluster;
use pg_query::ast::Query;
use pg_sensornet::field::TemperatureField;
use pg_sensornet::network::SensorNetwork;
use pg_sensornet::region::Region;
use pg_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Strategy-selection policies for experiment T3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Always the given placement (the static baselines).
    Static(SolutionModel),
    /// Uniform-random placement (the floor).
    Random,
    /// k-NN history + analytic fallback + ε-greedy exploration.
    Adaptive,
    /// Contextual LinUCB bandit over the extended arm space, learning from
    /// the composite outcome reward (T22).
    Bandit,
}

impl Policy {
    /// The placements this policy chooses among.
    fn candidates(self, members: usize) -> Vec<SolutionModel> {
        match self {
            Policy::Static(m) => vec![m],
            Policy::Bandit => bandit_candidates(members),
            Policy::Random | Policy::Adaptive => SolutionModel::candidates(members),
        }
    }
}

/// Neighbourhood size of the adaptive policy's k-NN case memory.
const KNN_K: usize = 5;

/// Capacity of the `(predicted, actual)` calibration ring: long streaming
/// runs keep a bounded window instead of growing per query.
const CALIBRATION_CAP: usize = 1024;

/// Why no model could be chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoFeasibleModel;

/// The k-NN policy's ablation switches (A1 turns them off).
#[derive(Debug, Clone, Copy)]
pub struct DecisionConfig {
    /// ε-greedy exploration rate.
    pub epsilon: f64,
    /// Blend k-NN predictions with the analytic estimate by neighbour
    /// distance (off: pure k-NN once any history exists).
    pub blend: bool,
    /// Restrict exploration to candidates predicted within 5× of the best
    /// (off: uniform ε-greedy).
    pub safe_explore: bool,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            epsilon: 0.1,
            blend: true,
            safe_explore: true,
        }
    }
}

impl DecisionConfig {
    /// Scalarization weights in force: always [`CostWeights::default`].
    pub fn weights(&self) -> CostWeights {
        CostWeights::default()
    }
}

/// Fixed-capacity ring of `(predicted, actual)` scalar-cost pairs.
#[derive(Debug, Clone)]
struct CalibrationRing {
    buf: Vec<(f64, f64)>,
    head: usize,
    cap: usize,
}

impl CalibrationRing {
    fn new(cap: usize) -> Self {
        CalibrationRing {
            buf: Vec::new(),
            head: 0,
            cap: cap.max(1),
        }
    }

    fn push(&mut self, v: (f64, f64)) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries most-recent-first.
    fn iter_recent(&self) -> impl Iterator<Item = &(f64, f64)> {
        let n = self.buf.len();
        (0..n).map(move |i| {
            // head is the *oldest* entry once the ring is full; newest is
            // head-1. While filling, newest is the last element.
            let idx = (self.head + n - 1 - i) % n.max(1);
            &self.buf[idx]
        })
    }
}

/// The learner a policy keeps: the bandit for [`Policy::Bandit`], the
/// k-NN case memory for every other policy.
#[derive(Debug)]
enum Learner {
    Knn(KnnLearner),
    Bandit(LinUcbLearner),
}

/// The adaptive decision maker: policy + learner + health telemetry.
#[derive(Debug)]
pub struct DecisionMaker {
    cfg: DecisionConfig,
    policy: Policy,
    learner: Learner,
    /// Draws the random policy's picks and the k-NN policy's exploration.
    rng: StdRng,
    calibration: CalibrationRing,
    health: NetHealth,
}

impl DecisionMaker {
    /// A decision maker with the given policy, RNG seed and configuration.
    pub fn with_config(policy: Policy, seed: u64, cfg: DecisionConfig) -> Self {
        let learner = match policy {
            Policy::Bandit => Learner::Bandit(LinUcbLearner::new()),
            _ => Learner::Knn(KnnLearner::new(
                KNN_K,
                cfg.epsilon,
                cfg.blend,
                cfg.safe_explore,
            )),
        };
        DecisionMaker {
            cfg,
            policy,
            learner,
            rng: StdRng::seed_from_u64(seed),
            calibration: CalibrationRing::new(CALIBRATION_CAP),
            health: NetHealth::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The configuration in force.
    pub fn config(&self) -> &DecisionConfig {
        &self.cfg
    }

    /// Number of outcomes the learner has absorbed.
    pub fn history_len(&self) -> usize {
        match &self.learner {
            Learner::Knn(knn) => knn.observations(),
            Learner::Bandit(bandit) => bandit.observations(),
        }
    }

    /// Publish the scheduler's queue pressure: waiting-queue depth and
    /// overload level (0 normal, 0.5 brownout, 1 shed). Context for the
    /// bandit; a no-op for every other policy's choices.
    pub fn note_pressure(&mut self, queue_depth: usize, overload_level: f64) {
        self.health.set_pressure(queue_depth, overload_level);
    }

    /// Predicted cost of one candidate, by the active learner: for k-NN, a
    /// confidence-weighted blend of history and the analytic estimate; for
    /// the bandit, the analytic prior (its own value model is scalar).
    pub fn predict(
        &self,
        net: &SensorNetwork,
        grid: &GridCluster,
        features: &QueryFeatures,
        model: &SolutionModel,
    ) -> CostVector {
        let analytic = estimate(net, grid, features, model);
        match &self.learner {
            Learner::Knn(knn) => knn.predict_cost(features, model, analytic),
            Learner::Bandit(_) => analytic,
        }
    }

    /// Choose a placement for `query`. Returns `Err(NoFeasibleModel)` when
    /// every candidate's *predicted* cost violates the query's COST bounds
    /// — the cost-bounded rejection of experiment T10.
    pub fn choose(
        &mut self,
        net: &SensorNetwork,
        grid: &GridCluster,
        query: &Query,
        features: &QueryFeatures,
    ) -> Result<SolutionModel, NoFeasibleModel> {
        let weights = self.cfg.weights();
        let feasible: Vec<CandidateArm> = self
            .policy
            .candidates(features.members)
            .into_iter()
            .enumerate()
            .map(|(key, model)| {
                let predicted = self.predict(net, grid, features, &model);
                CandidateArm {
                    key,
                    model,
                    predicted,
                    score: weights.scalar(&predicted),
                }
            })
            .filter(|a| within_bounds(query, &a.predicted, None))
            .collect();
        if feasible.is_empty() {
            return Err(NoFeasibleModel);
        }
        let i = match (self.policy, &self.learner) {
            (Policy::Static(_), _) => 0,
            (Policy::Random, _) => self.rng.gen_range(0..feasible.len()),
            (_, Learner::Knn(knn)) => knn.select(&feasible, &mut self.rng),
            (_, Learner::Bandit(bandit)) => bandit.select(features, &self.health, &feasible),
        };
        Ok(feasible[i].model)
    }

    /// Feed back the outcome of an execution ("comparing the estimates …
    /// with the actual values" — §4): cost actuals *and* observed
    /// degradation (loss fraction, deadline miss, dead letters;
    /// [`Reward::from_cost`] when only the cost is known). The k-NN learner
    /// consumes the cost; the bandit consumes the composite reward; the
    /// health EWMAs absorb the loss fraction and deadline miss either way.
    pub fn observe(
        &mut self,
        net: &SensorNetwork,
        grid: &GridCluster,
        features: QueryFeatures,
        model: SolutionModel,
        reward: Reward,
    ) {
        let weights = self.cfg.weights();
        let predicted = self.predict(net, grid, &features, &model);
        let score = weights.scalar(&predicted);
        self.calibration.push((score, weights.scalar(&reward.cost)));
        match &mut self.learner {
            Learner::Knn(knn) => knn.record(features, model, reward.cost),
            Learner::Bandit(bandit) => {
                // Recover the arm key within the bandit's candidate space so
                // it updates the right per-arm model. A model outside the
                // space (e.g. a forced fallback placement) maps onto its
                // family representative.
                let candidates = bandit_candidates(features.members);
                let key = candidates
                    .iter()
                    .position(|m| *m == model)
                    .or_else(|| candidates.iter().position(|m| m.family() == model.family()))
                    .unwrap_or(0);
                let arm = CandidateArm {
                    key,
                    model,
                    predicted,
                    score,
                };
                bandit.observe(&features, &self.health, &arm, &reward);
            }
        }
        self.health.absorb(&reward);
    }

    /// Mean relative calibration error over the last `window` recordings —
    /// drops as the learner absorbs actuals.
    pub fn calibration_error(&self, window: usize) -> f64 {
        let tail: Vec<&(f64, f64)> = self.calibration.iter_recent().take(window.max(1)).collect();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter()
            .map(|(p, a)| (p - a).abs() / a.abs().max(1e-9))
            .sum::<f64>()
            / tail.len() as f64
    }

    /// Number of calibration pairs currently held (at most 1 024: long
    /// streaming runs keep a bounded window).
    pub fn calibration_len(&self) -> usize {
        self.calibration.len()
    }
}

/// Clairvoyant baseline: execute every candidate on a clone of the world
/// and return the truly cheapest placement with its measured cost.
pub fn oracle_choice(
    net: &SensorNetwork,
    grid: &GridCluster,
    field: &TemperatureField,
    regions: &BTreeMap<String, Region>,
    now: SimTime,
    query: &Query,
    seed: u64,
) -> Option<(SolutionModel, CostVector)> {
    let weights = CostWeights::default();
    let resolved = resolve(net, regions, query).ok()?;
    let mut best: Option<(SolutionModel, CostVector, f64)> = None;
    for model in SolutionModel::candidates(resolved.members.len()) {
        let mut trial = net.clone();
        let mut ctx = ExecContext {
            net: &mut trial,
            grid,
            field,
            regions,
            now,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let out = execute_once(&mut ctx, query, &resolved, model, &mut rng);
        if !within_bounds(query, &out.cost, out.accuracy_err) {
            continue;
        }
        let s = weights.scalar(&out.cost);
        if best.as_ref().is_none_or(|(_, _, bs)| s < *bs) {
            best = Some((model, out.cost, s));
        }
    }
    best.map(|(m, c, _)| (m, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_net::energy::RadioModel;
    use pg_net::geom::Point;
    use pg_net::link::LinkModel;
    use pg_net::topology::{NodeId, Topology};
    use pg_query::parse;
    use pg_sim::Duration;

    pub(super) fn world() -> (
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
        let mut regions = BTreeMap::new();
        regions.insert("room210".into(), Region::room(0.0, 0.0, 30.0, 30.0));
        (
            net,
            GridCluster::campus(),
            TemperatureField::building_fire(Point::flat(25.0, 25.0), SimTime::ZERO, 300.0),
            regions,
        )
    }

    /// A decision maker under the default configuration.
    fn maker(policy: Policy, seed: u64) -> DecisionMaker {
        DecisionMaker::with_config(policy, seed, DecisionConfig::default())
    }

    fn features(
        net: &SensorNetwork,
        regions: &BTreeMap<String, Region>,
        q: &Query,
    ) -> QueryFeatures {
        resolve(net, regions, q).unwrap().features
    }

    #[test]
    fn static_policy_returns_its_model() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let mut dm = maker(Policy::Static(SolutionModel::BaseStation), 1);
        assert_eq!(
            dm.choose(&net, &grid, &q, &f),
            Ok(SolutionModel::BaseStation)
        );
    }

    #[test]
    fn adaptive_learns_to_avoid_a_bad_model() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let mut dm = DecisionMaker::with_config(
            Policy::Adaptive,
            2,
            // Pure exploitation for determinism.
            DecisionConfig {
                epsilon: 0.0,
                ..DecisionConfig::default()
            },
        );
        // Teach it that BaseStation is catastrophically expensive here.
        let awful = Reward::from_cost(CostVector {
            energy_j: 100.0,
            time_s: 1_000.0,
            bytes: 1e9,
            ops: 1e12,
        });
        let nice = Reward::from_cost(CostVector {
            energy_j: 1e-4,
            time_s: 0.1,
            bytes: 100.0,
            ops: 100.0,
        });
        dm.observe(&net, &grid, f, SolutionModel::BaseStation, awful);
        dm.observe(&net, &grid, f, SolutionModel::InNetworkTree, nice);
        let choice = dm.choose(&net, &grid, &q, &f).unwrap();
        assert_eq!(choice, SolutionModel::InNetworkTree);
    }

    #[test]
    fn cost_bounds_reject_when_nothing_fits() {
        let (net, grid, _, regions) = world();
        // 1 nanojoule energy budget: nothing can run.
        let q = parse("SELECT AVG(temp) FROM sensors COST energy 0.000000001").unwrap();
        let f = features(&net, &regions, &q);
        for policy in [
            Policy::Static(SolutionModel::BaseStation),
            Policy::Random,
            Policy::Adaptive,
            Policy::Bandit,
        ] {
            let mut dm = maker(policy, 3);
            assert_eq!(dm.choose(&net, &grid, &q, &f), Err(NoFeasibleModel));
        }
    }

    #[test]
    fn calibration_error_shrinks_with_history() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let mut dm = maker(Policy::Adaptive, 4);
        let actual = Reward::from_cost(CostVector {
            energy_j: 0.02,
            time_s: 1.0,
            bytes: 5_000.0,
            ops: 3_000.0,
        });
        // First recording: prediction comes from the coarse estimator.
        dm.observe(&net, &grid, f, SolutionModel::BaseStation, actual);
        let early = dm.calibration_error(1);
        // Subsequent recordings: k-NN replays the actual, error collapses.
        for _ in 0..5 {
            dm.observe(&net, &grid, f, SolutionModel::BaseStation, actual);
        }
        let late = dm.calibration_error(1);
        assert!(
            late < early.max(1e-12),
            "calibration must improve: {early} -> {late}"
        );
        assert!(late < 1e-6);
    }

    #[test]
    fn calibration_ring_is_bounded() {
        let mut ring = CalibrationRing::new(8);
        for i in 0..50 {
            ring.push((f64::from(i), 0.0));
        }
        assert_eq!(ring.len(), 8);
        // Most recent first, the oldest of the window last.
        let kept: Vec<f64> = ring.iter_recent().map(|&(p, _)| p).collect();
        assert_eq!(kept, [49.0, 48.0, 47.0, 46.0, 45.0, 44.0, 43.0, 42.0]);
    }

    #[test]
    fn oracle_picks_the_truly_cheapest() {
        let (net, grid, field, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors WHERE region(room210)").unwrap();
        let (model, cost) = oracle_choice(
            &net,
            &grid,
            &field,
            &regions,
            SimTime::from_secs(600),
            &q,
            7,
        )
        .unwrap();
        // Verify optimality by re-running every candidate.
        let w = CostWeights::default();
        let resolved = resolve(&net, &regions, &q).unwrap();
        for cand in SolutionModel::candidates(20) {
            let mut trial = net.clone();
            let mut ctx = ExecContext {
                net: &mut trial,
                grid: &grid,
                field: &field,
                regions: &regions,
                now: SimTime::from_secs(600),
            };
            let mut rng = StdRng::seed_from_u64(7);
            let out = execute_once(&mut ctx, &q, &resolved, cand, &mut rng);
            assert!(
                w.scalar(&cost) <= w.scalar(&out.cost) + 1e-12,
                "oracle ({}) beaten by {}",
                model.name(),
                cand.name()
            );
        }
    }

    #[test]
    fn random_policy_is_seeded_deterministic() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let run = |seed| {
            let mut dm = maker(Policy::Random, seed);
            (0..10)
                .map(|_| dm.choose(&net, &grid, &q, &f).unwrap().name())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn bandit_choices_are_seeded_deterministic() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let run = |seed| {
            let mut dm = maker(Policy::Bandit, seed);
            let mut names = Vec::new();
            for i in 0..30 {
                let m = dm.choose(&net, &grid, &q, &f).unwrap();
                names.push(m.name());
                let actual = CostVector {
                    energy_j: 0.001 * (1 + m.family()) as f64,
                    time_s: 0.2 * (1 + i % 3) as f64,
                    bytes: 100.0,
                    ops: 100.0,
                };
                dm.observe(&net, &grid, f, m, Reward::from_cost(actual));
            }
            names
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn bandit_exploits_the_consistently_cheap_arm() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let mut dm = maker(Policy::Bandit, 6);
        // Tree is cheap, everything else dear.
        let cost_of = |m: &SolutionModel| {
            let s = if m.family() == 0 { 0.05 } else { 3.0 };
            CostVector {
                energy_j: s * 0.1,
                time_s: 0.1,
                bytes: 100.0,
                ops: 100.0,
            }
        };
        for _ in 0..60 {
            let m = dm.choose(&net, &grid, &q, &f).unwrap();
            dm.observe(&net, &grid, f, m, Reward::from_cost(cost_of(&m)));
        }
        let mut tree_picks = 0;
        for _ in 0..10 {
            let m = dm.choose(&net, &grid, &q, &f).unwrap();
            if m.family() == 0 {
                tree_picks += 1;
            }
            dm.observe(&net, &grid, f, m, Reward::from_cost(cost_of(&m)));
        }
        assert!(tree_picks >= 8, "bandit must exploit: {tree_picks}/10");
    }

    /// The bandit's own value model is scalar, so `predict` is the
    /// analytic prior for every arm however much it has observed: an arm
    /// that differs from `predict`'s argmin differs from the estimator's,
    /// which is not the same as an exploratory pick.
    #[test]
    fn bandit_predict_is_the_analytic_estimate() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let mut dm = maker(Policy::Bandit, 8);
        let cost = CostVector {
            energy_j: 0.01,
            time_s: 2.0,
            bytes: 1e4,
            ops: 1e4,
        };
        for observed in [0, 10, 30] {
            while dm.history_len() < observed {
                let m = dm.choose(&net, &grid, &q, &f).unwrap();
                dm.observe(&net, &grid, f, m, Reward::from_cost(cost));
            }
            for m in bandit_candidates(f.members) {
                assert_eq!(
                    dm.predict(&net, &grid, &f, &m),
                    estimate(&net, &grid, &f, &m),
                    "{} after {observed} observations",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn health_tracks_degradation_and_pressure() {
        let (n, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&n, &regions, &q);
        let mut dm = maker(Policy::Bandit, 9);
        dm.note_pressure(32, 1.0);
        assert_eq!(dm.health.queue_depth, 32);
        assert_eq!(dm.health.overload_level, 1.0);
        dm.observe(
            &n,
            &grid,
            f,
            SolutionModel::BaseStation,
            Reward {
                cost: CostVector::default(),
                loss_frac: 0.8,
                deadline_missed: true,
                retries: 3,
                dead_letters: 1,
            },
        );
        assert!(dm.health.loss_ewma > 0.0);
        assert!(dm.health.miss_ewma > 0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::learn::BanditConfig;
    use propcheck::check;

    /// With exploration disabled (α = 0) under stationary per-arm
    /// rewards, the bandit converges to the static-best arm and stays
    /// there, for every seed.
    #[test]
    fn bandit_converges_to_static_best_per_seed() {
        check("bandit_converges_to_static_best_per_seed", 16, |g| {
            let seed = g.range(0u64..1_000);
            let best_family = g.range(0usize..5);
            let (net, grid, _, regions) = super::tests::world();
            let q = pg_query::parse("SELECT AVG(temp) FROM sensors").unwrap();
            let f = resolve(&net, &regions, &q).unwrap().features;
            let mut dm =
                DecisionMaker::with_config(Policy::Bandit, seed, DecisionConfig::default());
            dm.learner = Learner::Bandit(LinUcbLearner::with_config(BanditConfig {
                alpha: 0.0,
                gamma: 1.0,
            }));
            let cost_of = |m: &SolutionModel| {
                let s = if m.family() == best_family { 0.05 } else { 4.0 };
                CostVector {
                    energy_j: s * 0.1,
                    time_s: 0.1,
                    bytes: 0.0,
                    ops: 0.0,
                }
            };
            for _ in 0..60 {
                let m = dm.choose(&net, &grid, &q, &f).unwrap();
                dm.observe(&net, &grid, f, m, Reward::from_cost(cost_of(&m)));
            }
            for _ in 0..10 {
                let m = dm.choose(&net, &grid, &q, &f).unwrap();
                assert_eq!(m.family(), best_family);
                dm.observe(&net, &grid, f, m, Reward::from_cost(cost_of(&m)));
            }
        });
    }
}
