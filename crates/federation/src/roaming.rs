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

#[cfg(test)]
mod oracle;

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
///
/// # Panics
/// Panics when `cells` is 0, when `dwell_min` exceeds `dwell_max`, or when
/// `dwell_max` is zero (a user who never dwells would never leave the
/// first instant) — configuration errors, not runtime conditions.
pub fn commute_traces(seed: u64, cfg: &RoamingConfig) -> Vec<Trace> {
    assert!(cfg.cells > 0, "a federation needs at least one cell");
    assert!(
        cfg.dwell_min <= cfg.dwell_max,
        "dwell range is reversed: {} > {}",
        cfg.dwell_min,
        cfg.dwell_max
    );
    assert!(
        cfg.dwell_max > Duration::ZERO,
        "dwell must be positive: the range ends at 0"
    );
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
/// per-cell fallback, each in one flat table sorted by key: `(user, from,
/// to)` and `(from, to)`. Every row a prediction reads is one contiguous
/// run of its table, sorted by destination. Train it offline on historical
/// traces with [`train`](NextCellPredictor::train) (one sort and one
/// run-length count per table), then keep it honest online with
/// [`observe`](NextCellPredictor::observe) (a binary-search upsert) as
/// moves happen. [`predict`](NextCellPredictor::predict) is the row's
/// argmax: the highest count, then the lowest cell id, so prediction is
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct NextCellPredictor {
    /// `((user, from, to), count)`, sorted by key.
    per_user: Vec<((u64, CellId, CellId), u64)>,
    /// `((from, to), count)`, sorted by key.
    global: Vec<((CellId, CellId), u64)>,
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
        bump(&mut self.per_user, (user, from, to));
        bump(&mut self.global, (from, to));
        self.observations += 1;
    }

    /// Offline training pass over historical traces: one observation per
    /// hop.
    pub fn train(&mut self, traces: &[Trace]) {
        let hops: Vec<(u64, CellId, CellId)> = traces
            .iter()
            .flat_map(|t| {
                let froms = std::iter::once(t.start).chain(t.moves.iter().map(|m| m.to));
                froms.zip(&t.moves).map(|(from, m)| (t.user, from, m.to))
            })
            .collect();
        absorb(&mut self.per_user, hops.iter().copied());
        absorb(
            &mut self.global,
            hops.iter().map(|&(_, from, to)| (from, to)),
        );
        self.observations += hops.len() as u64;
    }

    /// Where is `user`, currently in `cell`, most likely headed next?
    /// Falls back to the federation-wide transition table for users (or
    /// cells) never seen before; `None` only when `cell` itself is new.
    pub fn predict(&self, user: u64, cell: CellId) -> Option<CellId> {
        argmax(
            &self.per_user,
            |&(u, from, to)| ((u, from), to),
            (user, cell),
        )
        .or_else(|| argmax(&self.global, |&(from, to)| (from, to), cell))
    }
}

/// Count one more `key` in a sorted table.
fn bump<K: Ord>(table: &mut Vec<(K, u64)>, key: K) {
    match table.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(i) => table[i].1 += 1,
        Err(i) => table.insert(i, (key, 1)),
    }
}

/// Count every key of `keys` (one per observation) into a sorted table:
/// one sort, then one run-length count.
fn absorb<K: Ord + Copy>(table: &mut Vec<(K, u64)>, keys: impl Iterator<Item = K>) {
    table.extend(keys.map(|k| (k, 1)));
    table.sort_unstable_by_key(|&(k, _)| k);
    table.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// The destination of the row `row` in a sorted table whose keys `split`
/// into `(row, destination)`: the highest count, then the lowest cell id.
/// `None` when the row is empty.
fn argmax<K, R: Ord>(
    table: &[(K, u64)],
    split: impl Fn(&K) -> (R, CellId),
    row: R,
) -> Option<CellId> {
    let start = table.partition_point(|(k, _)| split(k).0 < row);
    table[start..]
        .iter()
        .map_while(|(k, n)| {
            let (r, to) = split(k);
            (r == row).then_some((to, *n))
        })
        .max_by(|(ca, na), (cb, nb)| na.cmp(nb).then(cb.cmp(ca)))
        .map(|(to, _)| to)
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
    #[should_panic(expected = "dwell must be positive: the range ends at 0")]
    fn a_zero_dwell_is_refused_before_it_hangs() {
        let cfg = RoamingConfig {
            dwell_min: Duration::ZERO,
            dwell_max: Duration::ZERO,
            ..cfg()
        };
        commute_traces(9, &cfg);
    }

    #[test]
    #[should_panic(expected = "dwell range is reversed: 400.000000s > 200.000000s")]
    fn a_reversed_dwell_range_is_refused_by_name() {
        let cfg = RoamingConfig {
            dwell_min: Duration::from_secs(400),
            dwell_max: Duration::from_secs(200),
            ..cfg()
        };
        commute_traces(9, &cfg);
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

    mod against_oracle {
        use super::super::oracle;
        use super::*;
        use propcheck::{check, Gen};

        const USERS: u64 = 4;
        const CELLS: u32 = 5;

        /// Up to six traces over users `0..USERS` and cells `0..CELLS`,
        /// hops to any cell (so rows hold several destinations and their
        /// counts tie often).
        fn traces(g: &mut Gen) -> Vec<Trace> {
            g.vec(0..6, |g| Trace {
                user: g.range(0..USERS),
                start: CellId(g.range(0..CELLS)),
                moves: g.vec(0..8, |g| Move {
                    at: SimTime::ZERO,
                    to: CellId(g.range(0..CELLS)),
                }),
            })
        }

        /// Every prediction agrees, for each trained user, a user seen only
        /// online (`USERS`), one never seen, each cell and one never seen.
        fn agree(flat: &NextCellPredictor, nested: &oracle::NextCellPredictor) {
            assert_eq!(flat.observations, nested.observations);
            for user in (0..=USERS).chain([99]) {
                for cell in (0..=CELLS).map(CellId) {
                    assert_eq!(
                        flat.predict(user, cell),
                        nested.predict(user, cell),
                        "user {user}, {cell:?}"
                    );
                }
            }
        }

        /// A training pass, drawn online observations, then a second
        /// training pass into the filled tables: after each step the flat
        /// tables predict what the nested maps do.
        #[test]
        fn flat_tables_predict_what_the_nested_maps_do() {
            check("flat_tables_predict_what_the_nested_maps_do", 512, |g| {
                let mut flat = NextCellPredictor::new();
                let mut nested = oracle::NextCellPredictor::default();
                let history = traces(g);
                flat.train(&history);
                nested.train(&history);
                agree(&flat, &nested);
                for _ in 0..g.range(0usize..24) {
                    let user = g.range(0..=USERS);
                    let (from, to) = (CellId(g.range(0..CELLS)), CellId(g.range(0..CELLS)));
                    flat.observe(user, from, to);
                    nested.observe(user, from, to);
                    agree(&flat, &nested);
                }
                let more = traces(g);
                flat.train(&more);
                nested.train(&more);
                agree(&flat, &nested);
            });
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
