//! Roaming users: mobility traces over cells and next-cell prediction.
//!
//! A metro deployment is modeled as `cells` adjacent coverage strips along
//! one axis of an arena. Each user spawns at a random-waypoint position
//! (the home strip becomes the home cell) and then commutes: a personal
//! cyclic route over cells, one hop per dwell period. Commutes are the
//! predictable kind of mobility the paper's §3 proactive loop targets —
//! a [`NextCellPredictor`] trained on historical traces (and updated
//! online) anticipates each hop so plan caches can be pre-warmed at the
//! predicted destination before the user arrives.

use crate::gossip::CellId;
use pg_net::mobility::{MobilityConfig, Waypoint, ARENA_SIDE};
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use rand::Rng;
use std::collections::BTreeMap;

/// One cell-to-cell move in a user's itinerary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// When the user crosses the boundary.
    pub at: SimTime,
    /// The cell entered.
    pub to: CellId,
}

/// One user's mobility trace: a start cell and time-ordered moves.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The roaming user.
    pub user: u64,
    /// Where the user starts at t = 0.
    pub start: CellId,
    /// Boundary crossings, sorted by time.
    pub moves: Vec<Move>,
}

impl Trace {
    /// The cell the user occupies at instant `t`.
    pub fn cell_at(&self, t: SimTime) -> CellId {
        let mut cell = self.start;
        for m in &self.moves {
            if m.at <= t {
                cell = m.to;
            } else {
                break;
            }
        }
        cell
    }
}

/// Trace-generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct RoamingConfig {
    /// Roaming users to generate.
    pub users: usize,
    /// Cells in the federation (coverage strips).
    pub cells: usize,
    /// Trace horizon: no move is scheduled at or past this.
    pub horizon: Duration,
    /// Minimum dwell in a cell before the next hop.
    pub dwell_min: Duration,
    /// Maximum dwell in a cell before the next hop.
    pub dwell_max: Duration,
}

/// Generate commute traces: user `u`'s home cell comes from a
/// random-waypoint spawn position in the metro arena (the arena is split
/// into `cells` equal strips along x), and the itinerary is the fixed ring
/// `home, home+1, …` with per-hop dwell drawn uniformly from
/// `[dwell_min, dwell_max]`. Deterministic per `(seed, u)`.
pub fn commute_traces(seed: u64, cfg: &RoamingConfig) -> Vec<Trace> {
    assert!(cfg.cells > 0, "a federation needs at least one cell");
    let streams = RngStreams::new(seed);
    let arena = MobilityConfig::pedestrian();
    let strip = ARENA_SIDE / cfg.cells as f64;
    (0..cfg.users as u64)
        .map(|u| {
            let mut rng = streams.fork_indexed("roam", u);
            let spawn = Waypoint::spawn(&arena, &mut rng);
            let home = ((spawn.position().x / strip) as usize).min(cfg.cells - 1);
            let start = CellId(home as u32);
            let mut moves = Vec::new();
            let mut cell = home;
            let mut t = SimTime::ZERO;
            loop {
                let dwell_s =
                    rng.gen_range(cfg.dwell_min.as_secs_f64()..=cfg.dwell_max.as_secs_f64());
                t += Duration::from_secs_f64(dwell_s);
                if t >= SimTime::ZERO + cfg.horizon {
                    break;
                }
                cell = (cell + 1) % cfg.cells;
                moves.push(Move {
                    at: t,
                    to: CellId(cell as u32),
                });
            }
            Trace {
                user: u,
                start,
                moves,
            }
        })
        .collect()
}

/// A first-order Markov next-cell predictor over mobility traces.
///
/// Transition counts are kept per `(user, cell)` with a federation-wide
/// per-cell fallback; prediction is the argmax (smallest cell id breaking
/// ties, so prediction is deterministic). Train it offline on historical
/// traces with [`train`](NextCellPredictor::train), then keep it honest
/// online with [`observe`](NextCellPredictor::observe) as moves happen.
#[derive(Debug, Clone, Default)]
pub struct NextCellPredictor {
    per_user: BTreeMap<(u64, CellId), BTreeMap<CellId, u64>>,
    global: BTreeMap<CellId, BTreeMap<CellId, u64>>,
    /// Transitions observed (training plus online).
    pub observations: u64,
}

impl NextCellPredictor {
    /// An empty predictor.
    pub fn new() -> Self {
        NextCellPredictor::default()
    }

    /// Record one observed transition.
    pub fn observe(&mut self, user: u64, from: CellId, to: CellId) {
        *self
            .per_user
            .entry((user, from))
            .or_default()
            .entry(to)
            .or_insert(0) += 1;
        *self.global.entry(from).or_default().entry(to).or_insert(0) += 1;
        self.observations += 1;
    }

    /// Offline training pass over historical traces.
    pub fn train(&mut self, traces: &[Trace]) {
        for t in traces {
            let mut from = t.start;
            for m in &t.moves {
                self.observe(t.user, from, m.to);
                from = m.to;
            }
        }
    }

    /// Where is `user`, currently in `cell`, most likely headed next?
    /// Falls back to the federation-wide transition table for users (or
    /// cells) never seen before; `None` only when `cell` itself is new.
    pub fn predict(&self, user: u64, cell: CellId) -> Option<CellId> {
        let argmax = |m: &BTreeMap<CellId, u64>| {
            m.iter()
                .max_by(|(ca, na), (cb, nb)| na.cmp(nb).then(cb.cmp(ca)))
                .map(|(&c, _)| c)
        };
        self.per_user
            .get(&(user, cell))
            .and_then(argmax)
            .or_else(|| self.global.get(&cell).and_then(argmax))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RoamingConfig {
        RoamingConfig {
            users: 12,
            cells: 4,
            horizon: Duration::from_secs(3_600),
            dwell_min: Duration::from_secs(200),
            dwell_max: Duration::from_secs(400),
        }
    }

    #[test]
    fn traces_are_deterministic_and_in_range() {
        let a = commute_traces(9, &cfg());
        let b = commute_traces(9, &cfg());
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.start, tb.start);
            assert_eq!(ta.moves, tb.moves);
            assert!((ta.start.0 as usize) < cfg().cells);
            let mut last = SimTime::ZERO;
            for m in &ta.moves {
                assert!((m.to.0 as usize) < cfg().cells);
                assert!(m.at > last, "moves must be strictly ordered");
                last = m.at;
            }
        }
        let c = commute_traces(10, &cfg());
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.moves != y.moves),
            "different seeds should differ"
        );
    }

    #[test]
    fn cell_at_follows_the_itinerary() {
        let t = Trace {
            user: 0,
            start: CellId(2),
            moves: vec![
                Move {
                    at: SimTime::from_secs(10),
                    to: CellId(3),
                },
                Move {
                    at: SimTime::from_secs(20),
                    to: CellId(0),
                },
            ],
        };
        assert_eq!(t.cell_at(SimTime::ZERO), CellId(2));
        assert_eq!(t.cell_at(SimTime::from_secs(10)), CellId(3));
        assert_eq!(t.cell_at(SimTime::from_secs(15)), CellId(3));
        assert_eq!(t.cell_at(SimTime::from_secs(25)), CellId(0));
    }

    #[test]
    fn trained_predictor_nails_commute_hops() {
        let traces = commute_traces(21, &cfg());
        let mut p = NextCellPredictor::new();
        p.train(&traces);
        assert!(p.observations > 0);
        // Commutes are ring walks: every hop from every trace must be
        // predicted exactly once trained.
        for t in &traces {
            let mut from = t.start;
            for m in &t.moves {
                assert_eq!(p.predict(t.user, from), Some(m.to));
                from = m.to;
            }
        }
    }

    #[test]
    fn untrained_user_falls_back_to_global_table() {
        let mut p = NextCellPredictor::new();
        p.observe(1, CellId(0), CellId(1));
        p.observe(2, CellId(0), CellId(2));
        p.observe(3, CellId(0), CellId(2));
        // User 99 was never seen: global argmax says cell 2.
        assert_eq!(p.predict(99, CellId(0)), Some(CellId(2)));
        // A brand-new cell has no information at all.
        assert_eq!(p.predict(99, CellId(7)), None);
    }
}
