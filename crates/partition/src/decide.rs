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
use crate::exec::{execute_once, ExecContext, Outcome, Resolved};
use crate::features::QueryFeatures;
use crate::learn::{bandit_candidates, CandidateArm, KnnLearner, LinUcbLearner, NetHealth, Reward};
use crate::model::{within_bounds, CostVector, CostWeights, SolutionModel};
use pg_grid::sched::GridCluster;
use pg_query::ast::Query;
use pg_sensornet::network::SensorNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

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

/// Capacity of the `(predicted, actual)` calibration window: long streaming
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
    /// `(predicted, actual)` scalar costs, oldest first, at most
    /// [`CALIBRATION_CAP`] of them.
    calibration: VecDeque<(f64, f64)>,
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
            calibration: VecDeque::new(),
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
        if self.calibration.len() == CALIBRATION_CAP {
            self.calibration.pop_front();
        }
        self.calibration
            .push_back((score, weights.scalar(&reward.cost)));
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
        let tail: Vec<&(f64, f64)> = self.calibration.iter().rev().take(window.max(1)).collect();
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

/// Clairvoyant baseline: execute every candidate placement of the resolved
/// `query` on its own clone of `ctx`'s network, each from an RNG seeded with
/// `seed`, and return the one whose outcome scores lowest under `objective`
/// (the first of equals) with that score. Outcomes that break the query's
/// COST bounds are left out; `None` when none is left.
pub fn oracle_choice(
    ctx: &ExecContext,
    query: &Query,
    resolved: &Resolved,
    seed: u64,
    objective: impl Fn(&Outcome) -> f64,
) -> Option<(SolutionModel, f64)> {
    let mut best: Option<(SolutionModel, f64)> = None;
    for model in SolutionModel::candidates(resolved.members.len()) {
        let mut trial = SensorNetwork::clone(ctx.net);
        let mut trial_ctx = ExecContext {
            net: &mut trial,
            ..*ctx
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let out = execute_once(&mut trial_ctx, query, resolved, model, &mut rng);
        if !within_bounds(query, &out.cost, out.accuracy_err) {
            continue;
        }
        let score = objective(&out);
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((model, score));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::resolve;
    use pg_net::energy::RadioModel;
    use pg_net::geom::Point;
    use pg_net::link::LinkModel;
    use pg_net::topology::{NodeId, Topology};
    use pg_query::parse;
    use pg_sensornet::field::TemperatureField;
    use pg_sensornet::region::Region;
    use pg_sim::Duration;
    use pg_sim::SimTime;
    use std::collections::BTreeMap;

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
    fn calibration_window_is_bounded() {
        let (net, grid, _, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let f = features(&net, &regions, &q);
        let mut dm = maker(Policy::Adaptive, 5);
        let cost = |i: u32| CostVector {
            energy_j: 0.01,
            time_s: f64::from(i + 1),
            bytes: 1e3,
            ops: 1e3,
        };
        for i in 0..1_100 {
            dm.observe(
                &net,
                &grid,
                f,
                SolutionModel::BaseStation,
                Reward::from_cost(cost(i)),
            );
        }
        assert_eq!(dm.calibration_len(), 1_024);
        // The window of one is the newest pair: the last actual recorded.
        let (predicted, actual) = dm.calibration[CALIBRATION_CAP - 1];
        let w = CostWeights::default();
        assert_eq!(actual, w.scalar(&cost(1_099)));
        // The 76 oldest pairs were dropped.
        assert_eq!(dm.calibration[0].1, w.scalar(&cost(76)));
        let want = (predicted - actual).abs() / actual.abs().max(1e-9);
        assert_eq!(dm.calibration_error(1).to_bits(), want.to_bits());
    }

    #[test]
    fn oracle_picks_the_truly_cheapest() {
        let (mut net, grid, field, regions) = world();
        let q = parse("SELECT AVG(temp) FROM sensors WHERE region(room210)").unwrap();
        let resolved = resolve(&net, &regions, &q).unwrap();
        let now = SimTime::from_secs(600);
        let w = CostWeights::default();
        let mut ctx = ExecContext {
            net: &mut net,
            grid: &grid,
            field: &field,
            regions: &regions,
            now,
        };
        let (model, best) =
            oracle_choice(&ctx, &q, &resolved, 7, |out| w.scalar(&out.cost)).unwrap();
        // Verify optimality by re-running every candidate on the network
        // itself: the oracle's trials left it as they found it.
        for cand in SolutionModel::candidates(20) {
            let mut trial = ctx.net.clone();
            let mut rng = StdRng::seed_from_u64(7);
            let out = execute_once(
                &mut ExecContext {
                    net: &mut trial,
                    ..ctx
                },
                &q,
                &resolved,
                cand,
                &mut rng,
            );
            assert!(
                best <= w.scalar(&out.cost) + 1e-12,
                "oracle ({}) beaten by {}",
                model.name(),
                cand.name()
            );
        }
        let mut rng = StdRng::seed_from_u64(7);
        let out = execute_once(&mut ctx, &q, &resolved, model, &mut rng);
        assert_eq!(w.scalar(&out.cost).to_bits(), best.to_bits());
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
    use crate::exec::resolve;
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
