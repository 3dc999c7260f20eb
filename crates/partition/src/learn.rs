//! Online learning behind the decision maker: its two learners — the k-NN
//! case memory (`KnnLearner`, the Pythia-style regressor the repo started
//! with) and a contextual LinUCB bandit (`LinUcbLearner`) that closes §4's
//! adaptive loop on the *full* outcome signal, not cost actuals alone.
//!
//! §4: "standard machine learning techniques would be used on the data to
//! select the right approach", made adaptive "by comparing the estimates
//! with the actual values during the execution". The bandit takes that
//! literally as an online decision problem: each query is a context (query
//! features + live network health + scheduler pressure), each solution
//! model is an arm, and the composite [`Reward`] blends the scalar cost
//! actual with observed degradation — loss fraction, deadline misses,
//! dead letters — so the learner steers by what the runtime *experienced*,
//! not just what the radio billed.
//!
//! The LinUCB estimator is per-arm ridge regression maintained via
//! Sherman–Morrison rank-one updates, with a per-observation discount
//! (`gamma < 1`) that ages out stale evidence — the mechanism that lets it
//! track a mid-run environment shift (faults ramping, load ramping) that
//! the k-NN memory is structurally slow to follow (its distance-0
//! neighbours are the oldest cases, which never age).

use crate::features::QueryFeatures;
use crate::knn::KnnRegressor;
use crate::model::{CostVector, CostWeights, SolutionModel};
use pg_query::classify::QueryKind;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Live network-health telemetry: EWMA of per-query degradation signals
/// plus the scheduler's queue pressure, maintained by the decision maker
/// and fed to the bandit as context.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct NetHealth {
    /// EWMA of the per-query loss fraction (`1 - delivered_frac`).
    pub loss_ewma: f64,
    /// EWMA of deadline misses (0/1 per query).
    pub miss_ewma: f64,
    /// Waiting-queue depth last published by the scheduler.
    pub queue_depth: usize,
    /// Overload level last published by the scheduler: 0 normal,
    /// 0.5 brownout, 1 shed.
    pub overload_level: f64,
}

/// EWMA smoothing factor for the health tracker.
const HEALTH_ALPHA: f64 = 0.2;

impl NetHealth {
    /// Fold one observed outcome into the EWMAs.
    pub fn absorb(&mut self, reward: &Reward) {
        let ewma = |prev: f64, x: f64| (1.0 - HEALTH_ALPHA) * prev + HEALTH_ALPHA * x;
        self.loss_ewma = ewma(self.loss_ewma, reward.loss_frac.clamp(0.0, 1.0));
        self.miss_ewma = ewma(self.miss_ewma, f64::from(reward.deadline_missed));
    }

    /// Record the scheduler's queue pressure (depth + overload level).
    pub fn set_pressure(&mut self, queue_depth: usize, overload_level: f64) {
        self.queue_depth = queue_depth;
        self.overload_level = overload_level.clamp(0.0, 1.0);
    }
}

/// The full outcome signal of one executed query, as seen by the learner.
///
/// The k-NN learner consumes only `cost`; the bandit collapses everything
/// into one composite scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reward {
    /// Measured execution cost (excludes queue wait and outage wait).
    pub cost: CostVector,
    /// Fraction of requested readings that did *not* arrive.
    pub loss_frac: f64,
    /// The response missed its effective deadline budget.
    pub deadline_missed: bool,
    /// Link-layer retransmissions spent on this answer (carried with the
    /// outcome; neither learner reads it).
    pub retries: u64,
    /// Agent-bus dead letters attributed to this query's window.
    pub dead_letters: u64,
}

impl Reward {
    /// A pure-cost reward: no degradation observed (the fault-free common
    /// case).
    pub fn from_cost(cost: CostVector) -> Reward {
        Reward {
            cost,
            loss_frac: 0.0,
            deadline_missed: false,
            retries: 0,
            dead_letters: 0,
        }
    }
}

/// Weight of the squashed scalar cost in the composite bandit reward.
///
/// The scalar cost is squashed to `[0, 1)` by [`squash`] so a
/// single catastrophic pull cannot blow up the ridge estimate; degradation
/// terms are already bounded. The composite reward is the *negative*
/// weighted sum — higher is better, and everything lives in a bounded
/// range, which keeps the linear model well-conditioned.
const REWARD_COST: f64 = 1.0;
/// Weight of the loss fraction.
const REWARD_LOSS: f64 = 0.5;
/// Weight of a deadline miss.
const REWARD_DEADLINE: f64 = 1.0;
/// Weight of dead letters (saturating at 4 per query).
const REWARD_DEAD_LETTER: f64 = 0.25;
/// Scalar-cost squash midpoint: a cost of `COST_SCALE` maps to 0.5.
const COST_SCALE: f64 = 5.0;

/// A scalar cost (negative ones count as zero) squashed to `[0, 1)`.
fn squash(scalar_cost: f64) -> f64 {
    let s = scalar_cost.max(0.0);
    s / (s + COST_SCALE)
}

/// Collapse an outcome into the composite scalar reward (≤ 0; higher is
/// better). `scalar_cost` is the cost vector under the decision maker's
/// scalarization weights.
fn composite_reward(scalar_cost: f64, r: &Reward) -> f64 {
    -(REWARD_COST * squash(scalar_cost)
        + REWARD_LOSS * r.loss_frac.clamp(0.0, 1.0)
        + REWARD_DEADLINE * f64::from(r.deadline_missed)
        + REWARD_DEAD_LETTER * (r.dead_letters.min(4) as f64 / 4.0))
}

/// One scored candidate placement as presented to a learner.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateArm {
    /// Stable arm index within the full (unfiltered) candidate set — the
    /// bandit's per-arm model key, invariant under feasibility filtering.
    pub key: usize,
    /// The placement.
    pub model: SolutionModel,
    /// The learner's cost prediction for this arm.
    pub predicted: CostVector,
    /// Scalarized `predicted` under the weights in force.
    pub score: f64,
}

/// The k-NN case-memory learner (`Policy::Adaptive`, and the memory the
/// static and random policies keep): distance-blended prediction, decayed
/// safe ε-greedy exploration.
#[derive(Debug)]
pub(crate) struct KnnLearner {
    knn: KnnRegressor,
    epsilon: f64,
    blend: bool,
    safe_explore: bool,
}

impl KnnLearner {
    /// A learner over an empty case memory.
    pub fn new(k: usize, epsilon: f64, blend: bool, safe_explore: bool) -> Self {
        KnnLearner {
            knn: KnnRegressor::with_k(k),
            epsilon,
            blend,
            safe_explore,
        }
    }

    /// Pick an index into `arms`, which is non-empty: the cheapest score,
    /// or with decayed probability ε a draw from `rng`.
    pub fn select(&self, arms: &[CandidateArm], rng: &mut StdRng) -> usize {
        let Some(best) = arms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.score.total_cmp(&b.1.score))
        else {
            return 0;
        };
        // Safe ε-greedy: explore only among candidates predicted within 5×
        // of the best (a placement already predicted to be 100× dearer —
        // e.g. an in-network PDE solve — teaches nothing worth its price),
        // and decay exploration as history accumulates.
        let eps = self.epsilon / (1.0 + self.observations() as f64 / 25.0);
        if rng.gen::<f64>() < eps {
            let near: Vec<usize> = if self.safe_explore {
                arms.iter()
                    .enumerate()
                    .filter(|(_, a)| a.score <= 5.0 * best.1.score + 1e-12)
                    .map(|(i, _)| i)
                    .collect()
            } else {
                (0..arms.len()).collect()
            };
            return near[rng.gen_range(0..near.len())];
        }
        best.0
    }

    /// Deposit the measured cost of running `model`.
    pub fn record(&mut self, features: QueryFeatures, model: SolutionModel, cost: CostVector) {
        self.knn.record(features, model, cost);
    }

    /// Predicted cost of running `model`: the analytic prior while the
    /// family has no history, else history blended with it by distance.
    pub fn predict_cost(
        &self,
        features: &QueryFeatures,
        model: &SolutionModel,
        analytic: CostVector,
    ) -> CostVector {
        match self.knn.predict(features, model) {
            None => analytic,
            Some((learned, _)) if !self.blend => learned,
            Some((learned, nearest)) => {
                let w = 1.0 / (1.0 + nearest * nearest * 4.0);
                learned.scale(w).add(&analytic.scale(1.0 - w))
            }
        }
    }

    /// Number of outcomes absorbed so far.
    pub fn observations(&self) -> usize {
        self.knn.len()
    }
}

/// LinUCB hyper-parameters: one value each in the system, varied only by
/// tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BanditConfig {
    /// UCB exploration width (0 disables optimism beyond the one free
    /// pull every unseen arm gets).
    pub alpha: f64,
    /// Per-observation evidence discount (`< 1` tracks nonstationary
    /// environments; `1` is the stationary textbook update).
    pub gamma: f64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            alpha: 0.8,
            gamma: 0.98,
        }
    }
}

/// Context dimensionality of the placement bandit.
const BANDIT_DIM: usize = 10;

/// Evidence-decayed exploration width: `alpha / (1 + n/64)`.
fn decayed_alpha(alpha: f64, observations: usize) -> f64 {
    alpha / (1.0 + observations as f64 / 64.0)
}

/// One arm's discounted ridge regression, maintained as `A⁻¹` directly
/// via Sherman–Morrison rank-one updates (no matrix inversion on the hot
/// path — `select` is O(arms · D²), `observe` is O(D²) for D =
/// [`BANDIT_DIM`]).
#[derive(Debug, Clone)]
struct LinArm {
    a_inv: [[f64; BANDIT_DIM]; BANDIT_DIM],
    b: [f64; BANDIT_DIM],
    pulls: u64,
}

impl LinArm {
    fn new() -> Self {
        let mut a_inv = [[0.0; BANDIT_DIM]; BANDIT_DIM];
        for (i, row) in a_inv.iter_mut().enumerate() {
            row[i] = 1.0; // ridge prior A = I
        }
        LinArm {
            a_inv,
            b: [0.0; BANDIT_DIM],
            pulls: 0,
        }
    }

    /// `θᵀx + alpha·sqrt(xᵀA⁻¹x)` — the UCB index.
    fn ucb(&self, x: &[f64; BANDIT_DIM], alpha: f64) -> f64 {
        let mut mean = 0.0;
        let mut width2 = 0.0;
        for (i, row) in self.a_inv.iter().enumerate() {
            let ainv_x_i: f64 = row.iter().zip(x.iter()).map(|(a, xj)| a * xj).sum();
            // θ_i = (A⁻¹ b)_i; θᵀx accumulated as bᵀ(A⁻¹x) since A⁻¹ is
            // symmetric.
            mean += self.b[i] * ainv_x_i;
            width2 += x[i] * ainv_x_i;
        }
        mean + alpha * width2.max(0.0).sqrt()
    }

    /// Discounted rank-one update: `A ← γA + xxᵀ`, `b ← γb + r·x`,
    /// maintaining `A⁻¹` by Sherman–Morrison on `(γA)⁻¹ = A⁻¹/γ`.
    fn update(&mut self, x: &[f64; BANDIT_DIM], r: f64, gamma: f64) {
        let g = gamma.clamp(1e-3, 1.0);
        for row in self.a_inv.iter_mut() {
            for v in row.iter_mut() {
                *v /= g;
            }
        }
        // u = A⁻¹x; denom = 1 + xᵀA⁻¹x; A⁻¹ ← A⁻¹ − u uᵀ / denom.
        let mut u = [0.0; BANDIT_DIM];
        for (ui, row) in u.iter_mut().zip(self.a_inv.iter()) {
            *ui = row.iter().zip(x.iter()).map(|(a, xj)| a * xj).sum();
        }
        let denom = 1.0 + x.iter().zip(u.iter()).map(|(xi, ui)| xi * ui).sum::<f64>();
        for i in 0..BANDIT_DIM {
            for j in 0..BANDIT_DIM {
                self.a_inv[i][j] -= u[i] * u[j] / denom;
            }
        }
        for (bi, xi) in self.b.iter_mut().zip(x.iter()) {
            *bi = g * *bi + r * xi;
        }
        self.pulls += 1;
    }
}

/// The contextual LinUCB placement bandit (`Policy::Bandit`).
///
/// Per-arm disjoint linear models over a small hand-crafted context:
/// the analytic cost prior (squashed), the query class, the member count,
/// and the live health/pressure telemetry. Unseen arms predict reward 0 —
/// above every seen arm's (negative) reward — so each arm is explored
/// once before optimism takes over; ties break toward the lowest arm
/// index, keeping selection fully deterministic.
#[derive(Debug)]
pub(crate) struct LinUcbLearner {
    cfg: BanditConfig,
    arms: BTreeMap<usize, LinArm>,
    observations: usize,
}

impl LinUcbLearner {
    /// A fresh bandit. Selection is deterministic and draws no randomness.
    pub fn new() -> Self {
        Self::with_config(BanditConfig::default())
    }

    /// A fresh bandit under other hyper-parameters than the system's.
    pub fn with_config(cfg: BanditConfig) -> Self {
        LinUcbLearner {
            cfg,
            arms: BTreeMap::new(),
            observations: 0,
        }
    }

    /// The context vector for one (query, health, arm) triple.
    fn context_vector(
        features: &QueryFeatures,
        health: &NetHealth,
        arm: &CandidateArm,
    ) -> [f64; BANDIT_DIM] {
        let one_hot = |k| if features.kind == k { 1.0 } else { 0.0 };
        [
            1.0,
            squash(arm.score),
            one_hot(QueryKind::Simple),
            one_hot(QueryKind::Aggregate),
            one_hot(QueryKind::Complex),
            ((features.members as f64) + 1.0).ln() / 5.0,
            health.loss_ewma,
            health.miss_ewma,
            health.overload_level,
            ((health.queue_depth as f64) + 1.0).ln() / 5.0,
        ]
    }

    /// Pick the index into `arms`, which is non-empty, with the highest
    /// UCB index; ties go to the lowest index.
    pub fn select(
        &self,
        features: &QueryFeatures,
        health: &NetHealth,
        arms: &[CandidateArm],
    ) -> usize {
        // The discount (`A ← γA + xxᵀ`) regrows uncertainty in *every*
        // direction each update, so a fixed alpha keeps re-exploring arms
        // whose ruin is already established in rarely-seen directions.
        // Decay the optimism with evidence instead: mid-run flips are
        // driven by the pulled arm's reward collapsing (fresh bad rewards
        // tank its discounted estimate), not by optimism, so a shrinking
        // alpha still tracks nonstationarity while letting windowed regret
        // actually converge.
        let alpha = decayed_alpha(self.cfg.alpha, self.observations());
        let mut best: Option<(usize, f64)> = None;
        for (i, arm) in arms.iter().enumerate() {
            let x = Self::context_vector(features, health, arm);
            let p = match self.arms.get(&arm.key) {
                Some(state) => state.ucb(&x, alpha),
                // Unseen arm: θ = 0, A = I.
                None => {
                    let norm2: f64 = x.iter().map(|v| v * v).sum();
                    alpha * norm2.sqrt()
                }
            };
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((i, p));
            }
        }
        best.map_or(0, |(i, _)| i)
    }

    /// Feed back the measured outcome of executing `arm`.
    pub fn observe(
        &mut self,
        features: &QueryFeatures,
        health: &NetHealth,
        arm: &CandidateArm,
        reward: &Reward,
    ) {
        let x = Self::context_vector(features, health, arm);
        let scalar = CostWeights::default().scalar(&reward.cost);
        let r = composite_reward(scalar, reward);
        self.arms
            .entry(arm.key)
            .or_insert_with(LinArm::new)
            .update(&x, r, self.cfg.gamma);
        self.observations += 1;
    }

    /// Number of outcomes absorbed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }
}

/// The bandit policy's extended arm space: the five standard candidates
/// plus two knob variants — a region-reducing grid offload (the paper's
/// accuracy/data trade-off) and a denser cluster split — so the bandit
/// selects jointly over placement *and* its scheduling-relevant knobs.
pub fn bandit_candidates(members: usize) -> Vec<SolutionModel> {
    let mut v = SolutionModel::candidates(members);
    v.push(SolutionModel::GridOffload {
        reduction_cell_m: 4.0,
    });
    let heads = pg_sensornet::cluster::default_head_count(members);
    v.push(SolutionModel::InNetworkCluster {
        heads: (heads * 2).max(2),
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(members: usize, kind: QueryKind) -> QueryFeatures {
        QueryFeatures {
            kind,
            continuous: false,
            members,
            mean_hops: 2.0,
            network_size: 100,
            epoch_s: 0.0,
        }
    }

    fn arm(key: usize, scalar: f64) -> CandidateArm {
        let c = CostVector {
            energy_j: scalar * 0.1,
            time_s: 0.0,
            bytes: 0.0,
            ops: 0.0,
        };
        CandidateArm {
            key,
            model: SolutionModel::candidates(20)[key % 5],
            predicted: c,
            score: scalar,
        }
    }

    #[test]
    fn composite_reward_is_bounded_and_monotone() {
        let cheap = Reward::from_cost(CostVector {
            energy_j: 0.01,
            ..Default::default()
        });
        let dear = Reward::from_cost(CostVector {
            energy_j: 100.0,
            ..Default::default()
        });
        let r_cheap = composite_reward(0.1, &cheap);
        let r_dear = composite_reward(1000.0, &dear);
        assert!(r_cheap > r_dear, "{r_cheap} vs {r_dear}");
        assert!(r_dear >= -(REWARD_COST + REWARD_LOSS + REWARD_DEADLINE + REWARD_DEAD_LETTER));
        let missed = Reward {
            deadline_missed: true,
            ..cheap
        };
        assert!(composite_reward(0.1, &missed) < r_cheap);
    }

    #[test]
    fn unseen_arms_are_each_tried_once() {
        let mut bandit = LinUcbLearner::new();
        let arms: Vec<CandidateArm> = (0..5).map(|k| arm(k, 1.0 + k as f64)).collect();
        let (f, h) = (feats(20, QueryKind::Aggregate), NetHealth::default());
        let mut seen = Vec::new();
        for _ in 0..5 {
            let i = bandit.select(&f, &h, &arms);
            seen.push(arms[i].key);
            bandit.observe(&f, &h, &arms[i], &Reward::from_cost(arms[i].predicted));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "every arm explored once");
    }

    #[test]
    fn bandit_converges_to_the_cheap_arm_under_stationary_rewards() {
        let mut bandit = LinUcbLearner::with_config(BanditConfig {
            alpha: 0.0,
            gamma: 1.0,
        });
        let arms: Vec<CandidateArm> = vec![arm(0, 8.0), arm(1, 0.5), arm(2, 8.0)];
        let (f, h) = (feats(20, QueryKind::Aggregate), NetHealth::default());
        for _ in 0..40 {
            let i = bandit.select(&f, &h, &arms);
            bandit.observe(&f, &h, &arms[i], &Reward::from_cost(arms[i].predicted));
        }
        for _ in 0..10 {
            let i = bandit.select(&f, &h, &arms);
            assert_eq!(arms[i].key, 1, "exploitation must lock onto the cheap arm");
            bandit.observe(&f, &h, &arms[i], &Reward::from_cost(arms[i].predicted));
        }
    }

    #[test]
    fn discounted_bandit_tracks_a_reward_flip() {
        // Arm 0 is cheap for 60 rounds, then becomes terrible; arm 1 is
        // steady. The discounted bandit must switch to arm 1.
        let mut bandit = LinUcbLearner::with_config(BanditConfig {
            alpha: 0.4,
            gamma: 0.9,
        });
        let arms: Vec<CandidateArm> = vec![arm(0, 0.5), arm(1, 2.0)];
        let (f, h) = (feats(20, QueryKind::Aggregate), NetHealth::default());
        let cost_of = |k: usize, t: usize| -> CostVector {
            let scalar = match (k, t < 60) {
                (0, true) => 0.5,
                (0, false) => 50.0,
                _ => 2.0,
            };
            CostVector {
                energy_j: scalar * 0.1,
                ..Default::default()
            }
        };
        let mut late_picks = [0u32; 2];
        for t in 0..160 {
            let i = bandit.select(&f, &h, &arms);
            if t >= 120 {
                late_picks[arms[i].key] += 1;
            }
            bandit.observe(
                &f,
                &h,
                &arms[i],
                &Reward::from_cost(cost_of(arms[i].key, t)),
            );
        }
        assert!(
            late_picks[1] > late_picks[0],
            "bandit must follow the flip: {late_picks:?}"
        );
    }

    #[test]
    fn bandit_selection_is_deterministic() {
        let run = || {
            let mut bandit = LinUcbLearner::new();
            let arms: Vec<CandidateArm> = (0..7).map(|k| arm(k, 1.0 + (k % 3) as f64)).collect();
            let (f, h) = (feats(20, QueryKind::Aggregate), NetHealth::default());
            (0..50)
                .map(|_| {
                    let i = bandit.select(&f, &h, &arms);
                    bandit.observe(&f, &h, &arms[i], &Reward::from_cost(arms[i].predicted));
                    i
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn health_ewma_decays_toward_observations() {
        let mut h = NetHealth::default();
        let degraded = Reward {
            cost: CostVector::default(),
            loss_frac: 1.0,
            deadline_missed: true,
            retries: 5,
            dead_letters: 1,
        };
        for _ in 0..30 {
            h.absorb(&degraded);
        }
        assert!(h.loss_ewma > 0.95);
        assert!(h.miss_ewma > 0.95);
        let clean = Reward::from_cost(CostVector::default());
        for _ in 0..30 {
            h.absorb(&clean);
        }
        assert!(h.loss_ewma < 0.05, "EWMA must forget: {}", h.loss_ewma);
    }

    #[test]
    fn extended_candidates_add_knob_arms() {
        let v = bandit_candidates(40);
        assert_eq!(v.len(), 7);
        assert!(matches!(
            v[5],
            SolutionModel::GridOffload {
                reduction_cell_m
            } if reduction_cell_m > 0.0
        ));
        assert!(matches!(v[6], SolutionModel::InNetworkCluster { .. }));
    }
}
