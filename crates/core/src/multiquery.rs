//! `PervasiveGrid` as a [`QueryEngine`]: the bridge between the generic
//! multi-query scheduler (`pg-runtime`) and the concrete Figure-1 pipeline.
//!
//! The paper's scenario is many handheld users querying one shared fabric
//! at once (§2). This module makes that concrete: a
//! [`MultiQueryRuntime<PervasiveGrid>`](GridRuntime) queues N queries,
//! batches each epoch's slots into one `execute_batch` call, and the
//! engine here runs *overlapping aggregate
//! queries through one shared collection tree* — sampling each sensor once
//! and piggybacking per-query partial state on shared packets — while
//! everything else goes through the ordinary single-query pipeline.
//!
//! Every entry, solo or shared, and every admission-time energy estimate
//! takes its query, member set and learner features from one step
//! (`PervasiveGrid::resolve`), which parses and resolves each distinct
//! text once for the grid's lifetime; an entry that cannot be parsed or
//! resolved fails with the reason it names (a parse error, an unknown
//! region or sensor, an empty selection).
//!
//! Batch execution order: shared aggregate groups first (in batch order),
//! then the remaining entries one by one in batch order. Results are
//! returned in batch order regardless. A shared entry's attributed share
//! leaves through the same answer step as a solo execution
//! (`PervasiveGrid::answer`, in `runtime.rs`): one deadline budget, one
//! learner observation, one response and attribution shape for both. The
//! scheduler's [`QueryOutcome`](pg_runtime::QueryOutcome) list is the audit
//! trail for concurrent workloads; a plain `submit` returns its `Result`
//! and keeps no copy.
//!
//! A query rides the shared tree when its text parses and resolves (one
//! memo lookup), it classifies as Aggregate (one-shot, no EPOCH), carries
//! no COST bounds (bounds need the decision maker's per-model accounting),
//! and the base station is up — and at least one other query in the batch
//! qualifies too. Per-query energy/bytes/ops attribution comes from the
//! shared collection itself and sums to the measured totals.
//!
//! Each entry, shared or solo, is judged against the ground truth its
//! resolution memoises per stratum ([`Resolved::truth`]): a chunk freezes
//! the field once, and an entry whose aggregate, filter, stratum and field
//! are those of the truth held reuses it instead of rescanning its members.
//! The scan reads nothing else, so the reused value has the fresh one's
//! bits; on a calm field each text and stratum is scanned once.

use crate::error::PgError;
use crate::runtime::{PervasiveGrid, Placement, QueryResponse};
use pg_partition::exec::{self, rel_err, value_filter, ExecError, Outcome, Resolved};
use pg_partition::model::{CostVector, SolutionModel};
use pg_query::ast::Query;
use pg_query::classify::{classify, QueryKind};
use pg_query::ParseError;
use pg_runtime::{Attribution, BatchQuery, EngineOutcome, MultiQueryRuntime, QueryEngine};
use pg_sensornet::aggregate::{AggFn, PARTIAL_WIRE_BYTES};
use pg_sensornet::region::Region;
use pg_sensornet::shared::{SharedQuery, MAX_SHARED_QUERIES, STRATUM_KEY_WIRE_BYTES};
use pg_sim::{Duration, SimTime};
use std::rc::Rc;

/// The concrete multi-query runtime: a scheduler that owns a grid (reach
/// it through `engine()` / `engine_mut()`; a single query needs no
/// scheduler at all — [`PervasiveGrid::submit`] runs its query straight
/// through the pipeline).
pub type GridRuntime = MultiQueryRuntime<PervasiveGrid>;

/// Texts the resolution memo holds at most. The memo starts over rather
/// than pass it, so a stream of unique texts cannot grow it.
const MEMO_CAP: usize = 256;

/// What a text becomes: its query and what the query resolved to.
pub(crate) type Work = (Rc<Query>, Rc<Resolved>);

/// One memoised text: its parse error, or its query resolved.
pub(crate) type Memo = Result<Resolution, ParseError>;

/// A parsed text's query and its resolution. A resolution depends only on
/// the query, the box its region names and the immutable topology (through
/// base-tree hop counts); `regions` is a public field, so each entry keeps
/// the box it was resolved against and is worked out again from the held
/// query when the name maps elsewhere (or, having named no known region,
/// now does).
#[derive(Debug)]
pub(crate) struct Resolution {
    query: Rc<Query>,
    /// The box the query's region named (`None`: it names no known region).
    region: Option<Region>,
    resolved: Result<Rc<Resolved>, ExecError>,
}

/// The work a memo entry holds, or the error its text earns.
fn work(memo: &Memo) -> Result<Work, PgError> {
    let memo = memo.as_ref().map_err(|e| PgError::from(e.clone()))?;
    Ok((memo.query.clone(), memo.resolved.clone()?))
}

/// One batch entry that qualified for the shared aggregation tree.
struct Shareable {
    idx: usize,
    query: Rc<Query>,
    resolved: Rc<Resolved>,
}

impl PervasiveGrid {
    /// The one step from text to work: [`pg_query::parse`] of `text`,
    /// then [`exec::resolve`] of the query, parse errors first. A metro
    /// stream repeats a handful of texts for the grid's whole life, so each
    /// distinct text is parsed once and resolved once, failure included,
    /// until its region is re-pointed. A browned-out shared entry asks a
    /// coarser stratum of the members (see [`Resolved::stratum`]) but keeps
    /// the full selection's features, so brownout never shifts the learner's
    /// inputs. The resolution also holds each stratum's last ground truth
    /// ([`Resolved::truth`]), so the memo's cap bounds those too, and a
    /// re-pointed region drops them with the resolution.
    pub(crate) fn resolve(&mut self, text: &str) -> Result<Work, PgError> {
        let named = |q: &Query| q.region().and_then(|r| self.regions.get(r)).copied();
        let parsed = match self.resolutions.get(text) {
            Some(Ok(memo)) if memo.region != named(&memo.query) => Ok(memo.query.clone()),
            Some(memo) => return work(memo),
            None => pg_query::parse(text).map(Rc::new),
        };
        let memo = parsed.map(|query| Resolution {
            region: named(&query),
            resolved: exec::resolve(&self.net, &self.regions, &query).map(Rc::new),
            query,
        });
        if self.resolutions.len() >= MEMO_CAP && !self.resolutions.contains_key(text) {
            self.resolutions.clear();
        }
        let out = work(&memo);
        self.resolutions.insert(text.to_owned(), memo);
        out
    }

    /// Batch entries that can ride one shared collection epoch: one-shot
    /// aggregates with no COST bounds that resolve. Empty unless at least
    /// two qualify — a lone aggregate gains nothing from the stratum
    /// machinery and stays on the single-query path.
    fn shareable_entries(&mut self, batch: &[BatchQuery<'_>]) -> Vec<Shareable> {
        if batch.len() < 2 || self.net.fault_plan().is_base_down(self.now) {
            return Vec::new();
        }
        let mut out: Vec<Shareable> = batch
            .iter()
            .enumerate()
            .filter_map(|(idx, bq)| {
                let (query, resolved) = self.resolve(bq.text).ok()?;
                let shares = classify(&query) == QueryKind::Aggregate && query.cost.is_empty();
                shares.then_some(Shareable {
                    idx,
                    query,
                    resolved,
                })
            })
            .collect();
        if out.len() < 2 {
            out.clear();
        }
        out
    }

    /// Run one shared collection epoch for `chunk` (≤ 64 queries): each
    /// entry's batch index and answer, in chunk order.
    fn execute_shared_chunk(
        &mut self,
        chunk: &[Shareable],
        batch: &[BatchQuery<'_>],
    ) -> Vec<(usize, (QueryResponse, Attribution))> {
        let shared_queries: Vec<SharedQuery> = chunk
            .iter()
            .map(|s| SharedQuery {
                members: s.resolved.stratum(batch[s.idx].brownout),
                filter: value_filter(&s.query),
                agg: s.query.first_agg().unwrap_or(AggFn::Avg),
            })
            .collect();
        // The chunk rides the grid's tree session under the configured
        // mode, whatever the policy: under Free it rides the network's base
        // tree at no modelled cost (v1 semantics); under Incremental the
        // session also charges the tree's construction and repair beacons,
        // attributed evenly across the chunk below.
        let report = self.tree_session.collect(
            &mut self.net,
            &shared_queries,
            &self.field,
            self.now,
            &mut self.exec_rng,
        );
        let latency_s = report.latency.as_secs_f64();
        let control_bytes_share = report.control_bytes as f64 / chunk.len() as f64;
        let control_energy_share = report.control_energy_j / chunk.len() as f64;
        // Every entry's ground truth reads the field as it stands now; each
        // resolution keeps its truths until the field moves.
        let field = self.field.at(self.now);

        let mut answers = Vec::with_capacity(chunk.len());
        for (s, (pq, sq)) in chunk
            .iter()
            .zip(report.per_query.iter().zip(&shared_queries))
        {
            let bq = &batch[s.idx];
            let truth = s
                .resolved
                .truth(&self.net, &field, bq.brownout, sq.agg, &sq.filter);
            // The learner sees each query's attributed share as an
            // InNetworkTree actual, plus the degradation it came with.
            let outcome = Outcome {
                value: pq.value,
                cost: CostVector {
                    energy_j: pq.energy_j + control_energy_share,
                    time_s: latency_s,
                    bytes: pq.bytes + control_bytes_share,
                    ops: pq.ops,
                },
                delivered_frac: pq.delivery_ratio(),
                accuracy_err: pq.value.zip(truth).map(|(v, t)| rel_err(v, t)),
                retries: pq.retries,
            };
            let placement = Placement {
                features: s.resolved.features,
                model: SolutionModel::InNetworkTree,
                kind: QueryKind::Aggregate,
                fallback_model: false,
            };
            let deadline_s = self.deadline_budget(&s.query, bq.deadline);
            let answered = self.answer(placement, outcome, 0.0, deadline_s, bq.brownout, true);
            answers.push((s.idx, answered));
        }
        answers
    }
}

impl QueryEngine for PervasiveGrid {
    type Response = QueryResponse;
    type Error = PgError;

    fn now(&self) -> SimTime {
        self.now
    }

    fn advance(&mut self, dt: Duration) {
        PervasiveGrid::advance(self, dt);
    }

    /// Scheduler pressure flows straight into the decision maker's health
    /// context: the bandit's selections condition on queue depth and
    /// overload level the moment the scheduler observes them.
    fn note_pressure(&mut self, queue_depth: usize, overload_level: f64) {
        self.decision.note_pressure(queue_depth, overload_level);
    }

    /// Deterministic first-order cost model, the energy-fair ordering key:
    /// every member ships one stratum entry one hop at nominal range, plus
    /// the matching receive. No rng is touched, so asking at admission
    /// never perturbs the execution stream.
    fn estimate_energy_j(&mut self, text: &str) -> Option<f64> {
        let (_, resolved) = self.resolve(text).ok()?;
        let bits = 8 * (STRATUM_KEY_WIRE_BYTES + PARTIAL_WIRE_BYTES);
        let range = self.net.topology().range();
        let radio = self.net.radio();
        let per_member = radio.tx_energy(bits, range) + radio.rx_energy(bits);
        Some(per_member * resolved.features.members as f64)
    }

    fn execute_batch(
        &mut self,
        batch: &[BatchQuery<'_>],
    ) -> Vec<EngineOutcome<QueryResponse, PgError>> {
        // Overlapping aggregates ride shared collection epochs, at most 64
        // queries (the stratum-mask width) per epoch. Their answers come
        // out in batch order.
        let shareable = self.shareable_entries(batch);
        let mut shared = shareable
            .chunks(MAX_SHARED_QUERIES)
            .flat_map(|chunk| self.execute_shared_chunk(chunk, batch))
            .collect::<Vec<_>>()
            .into_iter()
            .peekable();

        // Everything else — simple reads, COST-bounded queries, parse
        // errors — goes through the ordinary pipeline, in batch order.
        batch
            .iter()
            .enumerate()
            .map(|(i, bq)| match shared.next_if(|(j, _)| *j == i) {
                Some((_, answered)) => Ok(answered),
                None => self
                    .resolve(bq.text)
                    .and_then(|work| self.submit_inner(work, bq.deadline, bq.brownout)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_net::link::LinkModel;

    /// One floor of 6 × 6 sensors at 5 m pitch over lossless links, so a
    /// COUNT answers exactly the sensors its query asked.
    fn lossless_grid() -> PervasiveGrid {
        PervasiveGrid::building(1, 6, 3)
            .link(LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap())
            .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
            .build()
    }

    /// Each entry's value; every entry must have ridden the shared tree.
    fn shared_values(pg: &mut PervasiveGrid, texts: &[&str]) -> Vec<Option<f64>> {
        let batch: Vec<BatchQuery<'_>> = texts
            .iter()
            .map(|&text| BatchQuery {
                text,
                deadline: None,
                brownout: false,
            })
            .collect();
        pg.execute_batch(&batch)
            .into_iter()
            .map(|outcome| {
                let (response, attribution) = outcome.unwrap();
                assert!(attribution.shared);
                response.value
            })
            .collect()
    }

    /// Solo and shared entries leave the one answer step alike: each
    /// attribution is its response's cost and retries, and each budget is
    /// the tightest of the builder deadline and the query's own bound.
    #[test]
    fn each_attribution_is_its_responses_cost_and_retries() {
        let mut pg = PervasiveGrid::building(1, 6, 3)
            .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
            .deadline(Duration::from_secs(60))
            .build();
        let batch = [
            "SELECT AVG(temp) FROM sensors WHERE region(east)",
            "SELECT MAX(temp) FROM sensors",
            "SELECT AVG(temp) FROM sensors COST time 30",
        ]
        .map(|text| BatchQuery {
            text,
            deadline: None,
            brownout: false,
        });
        let answers: Vec<_> = pg
            .execute_batch(&batch)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let shared: Vec<bool> = answers.iter().map(|(_, a)| a.shared).collect();
        assert_eq!(shared, [true, true, false]);
        let budgets: Vec<_> = answers
            .iter()
            .map(|(r, _)| r.degradation.deadline_s)
            .collect();
        assert_eq!(budgets, [Some(60.0), Some(60.0), Some(30.0)]);
        for (r, a) in &answers {
            assert_eq!(a.energy_j, r.cost.energy_j);
            assert_eq!(a.bytes, r.cost.bytes);
            assert_eq!(a.time_s, r.cost.time_s);
            assert_eq!(a.retries, r.degradation.retries);
        }
    }

    /// A bad entry keeps its error kind while the two good aggregates
    /// beside it still share. A malformed text keeps its parse error each
    /// time it is asked, from the batch, `submit` and the energy estimate.
    #[test]
    fn a_bad_entry_keeps_its_error_kind_in_a_shared_batch() {
        let mut pg = lossless_grid();
        let malformed = "SELECT AVG(temp) FROM sensors WHERE";
        let batch = [
            "SELECT AVG(temp) FROM sensors WHERE region(east)",
            "SELECT AVG(temp) FROM sensors WHERE region(nowhere)",
            malformed,
            "SELECT MAX(temp) FROM sensors",
            malformed,
        ]
        .map(|text| BatchQuery {
            text,
            deadline: None,
            brownout: false,
        });
        let out = pg.execute_batch(&batch);
        assert!(out[0].as_ref().unwrap().1.shared);
        assert_eq!(
            out[1],
            Err(PgError::Exec(ExecError::UnknownRegion("nowhere".into())))
        );
        assert!(out[3].as_ref().unwrap().1.shared);
        let unparsed = PgError::Parse(pg_query::parse(malformed).unwrap_err());
        assert_eq!(out[2].as_ref().unwrap_err(), &unparsed);
        assert_eq!(out[4].as_ref().unwrap_err(), &unparsed);
        assert_eq!(pg.submit(malformed).unwrap_err(), unparsed);
        assert_eq!(pg.estimate_energy_j(malformed), None);
    }

    /// A region holding no sensor but the base station selects no
    /// members, alone and beside two aggregates that still share.
    #[test]
    fn a_region_of_only_the_base_selects_no_members() {
        let mut pg = lossless_grid();
        pg.regions
            .insert("base".into(), Region::room(-1.0, -1.0, 1.0, 1.0));
        let text = "SELECT AVG(temp) FROM sensors WHERE region(base)";
        let none = Err(PgError::Exec(ExecError::NoMembers));
        assert_eq!(pg.submit(text).map(|r| r.value), none);
        let batch = [
            "SELECT AVG(temp) FROM sensors WHERE region(east)",
            text,
            "SELECT MAX(temp) FROM sensors",
        ]
        .map(|text| BatchQuery {
            text,
            deadline: None,
            brownout: false,
        });
        let out = pg.execute_batch(&batch);
        assert!(out[0].as_ref().unwrap().1.shared);
        assert_eq!(out[1], Err(PgError::Exec(ExecError::NoMembers)));
        assert!(out[2].as_ref().unwrap().1.shared);
    }

    /// A text that failed to resolve is worked out again once the region
    /// it names is registered.
    #[test]
    fn a_region_registered_after_a_failed_resolution_is_resolved_again() {
        let mut pg = lossless_grid();
        let text = "SELECT COUNT(temp) FROM sensors WHERE region(west)";
        let unknown = Err(PgError::Exec(ExecError::UnknownRegion("west".into())));
        assert_eq!(pg.submit(text).map(|r| r.value), unknown);
        pg.regions
            .insert("west".into(), Region::room(0.0, 0.0, 7.0, 30.0));
        // Columns x = 0 (the base's, less the base) and x = 5.
        assert_eq!(pg.submit(text).unwrap().value, Some(11.0));
        assert_eq!(shared_values(&mut pg, &[text; 2]), [Some(11.0); 2]);
    }

    #[test]
    fn a_repointed_region_is_resolved_again() {
        let mut pg = lossless_grid();
        let batch = ["SELECT COUNT(temp) FROM sensors WHERE region(east)"; 3];
        // Columns x = 10, 15, 20, 25 of six sensors each.
        assert_eq!(shared_values(&mut pg, &batch), [Some(24.0); 3]);
        pg.regions
            .insert("east".into(), Region::room(20.0, 0.0, 30.0, 30.0));
        assert_eq!(shared_values(&mut pg, &batch), [Some(12.0); 3]);
    }

    /// Two same-seed grids answer the same drawn batches alike when one
    /// clears its memo before every batch, across a re-pointed region; the
    /// warm memo never holds more texts than it has seen.
    #[test]
    fn a_warm_memo_answers_what_a_cold_one_does() {
        const POOL: [&str; 10] = [
            "SELECT temp FROM sensors WHERE sensor_id = 14",
            "SELECT AVG(temp) FROM sensors WHERE region(east)",
            "SELECT COUNT(temp) FROM sensors WHERE region(east)",
            "SELECT MAX(temp) FROM sensors",
            "SELECT temperature_distribution() FROM sensors WHERE region(east)",
            "SELECT AVG(temp) FROM sensors WHERE region(east) EPOCH DURATION 10 s",
            "SELECT AVG(temp) FROM sensors COST time 30",
            "SELECT AVG(temp) FROM sensors WHERE",
            "SELECT AVG(temp) FROM sensors WHERE region(nowhere)",
            "SELECT MIN(temp) FROM sensors WHERE region(base)",
        ];
        let grid = || {
            let mut pg = lossless_grid();
            pg.regions
                .insert("base".into(), Region::room(-1.0, -1.0, 1.0, 1.0));
            pg
        };
        propcheck::check("a_warm_memo_answers_what_a_cold_one_does", 128, |g| {
            let batches = g.vec(2..7, |g| {
                g.vec(1..6, |g| BatchQuery {
                    text: POOL[g.range(0..POOL.len())],
                    deadline: g.bool().then(|| Duration::from_secs(g.range(1..60u64))),
                    brownout: g.bool(),
                })
            });
            let (mut warm, mut cold) = (grid(), grid());
            let mut seen = std::collections::HashSet::new();
            for (i, batch) in batches.iter().enumerate() {
                if i == batches.len() / 2 {
                    for pg in [&mut warm, &mut cold] {
                        pg.regions
                            .insert("east".into(), Region::room(20.0, 0.0, 30.0, 30.0));
                    }
                }
                cold.resolutions.clear();
                assert_eq!(warm.execute_batch(batch), cold.execute_batch(batch));
                seen.extend(batch.iter().map(|bq| bq.text));
                assert!(warm.resolutions.len() <= seen.len());
            }
        });
    }

    /// Two same-seed grids answer the same drawn batches alike, down to the
    /// bits of every `accuracy_err`, when one clears its memo (and with it
    /// every ground truth worked out so far) before every batch: solo and
    /// shared aggregates with and without value filters, browned out or
    /// not, across a re-pointed region and a fire lit mid-stream, whose
    /// field then moves whenever the clock does.
    #[test]
    fn a_warm_truth_memo_answers_what_a_cold_one_does() {
        const POOL: [&str; 8] = [
            "SELECT AVG(temp) FROM sensors WHERE region(east)",
            "SELECT MAX(temp) FROM sensors WHERE {region(east) AND temp > 22}",
            "SELECT COUNT(temp) FROM sensors WHERE temp > 21.5",
            "SELECT SUM(temp) FROM sensors",
            "SELECT MIN(temp) FROM sensors WHERE temp < 60",
            "SELECT AVG(temp) FROM sensors WHERE temp > 25 COST time 30",
            "SELECT MAX(temp) FROM sensors WHERE region(east) EPOCH DURATION 10 s",
            "SELECT temp FROM sensors WHERE sensor_id = 14",
        ];
        propcheck::check("a_warm_truth_memo_answers_what_a_cold_one_does", 96, |g| {
            let batches = g.vec(2..8, |g| {
                let secs = g.range(0..90u64);
                let batch = g.vec(1..6, |g| BatchQuery {
                    text: POOL[g.range(0..POOL.len())],
                    deadline: None,
                    brownout: g.bool(),
                });
                (secs, batch)
            });
            let ignite_at = g.range(0..batches.len());
            let repoint_at = g.range(0..batches.len());
            let (mut warm, mut cold) = (lossless_grid(), lossless_grid());
            for (i, (secs, batch)) in batches.iter().enumerate() {
                for pg in [&mut warm, &mut cold] {
                    pg.advance(Duration::from_secs(*secs));
                    if i == ignite_at {
                        pg.ignite(pg_net::geom::Point::flat(12.0, 12.0), 300.0);
                    }
                    if i == repoint_at {
                        pg.regions
                            .insert("east".into(), Region::room(20.0, 0.0, 30.0, 30.0));
                    }
                }
                cold.resolutions.clear();
                let (w, c) = (warm.execute_batch(batch), cold.execute_batch(batch));
                let bits = |out: &[EngineOutcome<QueryResponse, PgError>]| {
                    out.iter()
                        .map(|o| o.as_ref().ok()?.0.accuracy_err.map(f64::to_bits))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&w), bits(&c), "batch {i}");
                assert_eq!(w, c, "batch {i}");
            }
        });
    }

    #[test]
    fn the_memo_stays_within_its_cap() {
        let mut pg = lossless_grid();
        let texts: Vec<String> = (0..MEMO_CAP + 44)
            .map(|i| format!("SELECT AVG(temp) FROM sensors WHERE temp > {i}"))
            .collect();
        let mut most = 0;
        for pair in texts.chunks(2) {
            let pair: Vec<&str> = pair.iter().map(String::as_str).collect();
            assert_eq!(shared_values(&mut pg, &pair).len(), 2);
            most = most.max(pg.resolutions.len());
            assert!(pg.resolutions.len() <= MEMO_CAP);
        }
        assert_eq!(most, MEMO_CAP, "the memo filled before it started over");
    }
}
