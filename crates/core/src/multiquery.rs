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
//! A query rides the shared tree when it parses, classifies as Aggregate
//! (one-shot, no EPOCH), carries no COST bounds (bounds need the decision
//! maker's per-model accounting), resolves at least one member, and the
//! base station is up — and at least one other query in the batch
//! qualifies too. Per-query energy/bytes/ops attribution comes from the
//! shared collection itself and sums to the measured totals.

use crate::error::PgError;
use crate::runtime::{PervasiveGrid, Placement, QueryResponse};
use pg_net::topology::NodeId;
use pg_partition::exec::{
    members_of, rel_err, truth_aggregate, value_filter, ExecContext, Outcome,
};
use pg_partition::features::QueryFeatures;
use pg_partition::model::{CostVector, SolutionModel};
use pg_query::ast::Query;
use pg_query::classify::{classify, QueryKind};
use pg_runtime::{BatchQuery, EngineOutcome, MultiQueryRuntime, QueryEngine};
use pg_sensornet::aggregate::{AggFn, PARTIAL_WIRE_BYTES};
use pg_sensornet::region::Region;
use pg_sensornet::shared::{SharedQuery, MAX_SHARED_QUERIES, STRATUM_KEY_WIRE_BYTES};
use pg_sim::{Duration, SimTime};
use std::collections::HashMap;
use std::rc::Rc;

/// The concrete multi-query runtime: a scheduler that owns a grid (reach
/// it through `engine()` / `engine_mut()`; a single query needs no
/// scheduler at all — [`PervasiveGrid::submit`] hands this engine a
/// one-entry batch directly).
pub type GridRuntime = MultiQueryRuntime<PervasiveGrid>;

/// Texts a [`ResolutionMemo`] holds at most. The memo starts over rather
/// than pass it, so a stream of unique texts cannot grow it.
const MEMO_CAP: usize = 256;

/// What the shared-tree path works out once per distinct `(text,
/// brownout)` for the grid's lifetime. A resolution depends only on the
/// text, the box its region names and the immutable topology (through
/// base-tree hop counts), so every batch entry that repeats the pair shares
/// one copy. `regions` is a public field: each entry keeps the box it was
/// resolved against, and is worked out again when the name maps elsewhere.
#[derive(Debug, Default)]
pub(crate) struct ResolutionMemo {
    /// Per text, one slot per brownout setting, indexed by `brownout`.
    by_text: HashMap<String, [Option<Memo>; 2]>,
}

/// One memoised resolution.
#[derive(Debug)]
struct Memo {
    /// The box the text's region named (`None`: it names no known region).
    region: Option<Region>,
    /// `None` when the text cannot ride a shared tree.
    resolved: Option<Rc<Resolved>>,
}

impl ResolutionMemo {
    /// The kept resolution of `text`, unless its region now names another
    /// box. Looked up by `&str`: a hit builds no key.
    fn get(&self, text: &str, brownout: bool, region: Option<Region>) -> Option<&Memo> {
        let slots = self.by_text.get(text)?;
        slots[usize::from(brownout)]
            .as_ref()
            .filter(|m| m.region == region)
    }

    fn insert(&mut self, text: &str, brownout: bool, memo: Memo) {
        if self.by_text.len() >= MEMO_CAP && !self.by_text.contains_key(text) {
            self.by_text.clear();
        }
        self.by_text.entry(text.to_owned()).or_default()[usize::from(brownout)] = Some(memo);
    }
}

/// Members and features of one shareable text.
#[derive(Debug)]
struct Resolved {
    /// The sensors the shared epoch asks — under brownout, already the
    /// coarser stratum (every other member).
    members: Vec<NodeId>,
    /// Learner features of the full selection — from the un-thinned member
    /// list, so brownout never shifts the learner's inputs.
    features: QueryFeatures,
}

/// One batch entry that qualified for the shared aggregation tree.
struct Shareable<'q> {
    idx: usize,
    query: &'q Query,
    resolved: Rc<Resolved>,
    /// The scheduler asked for brownout fidelity; the response will be
    /// annotated via `DegradationReport::brownout`.
    brownout: bool,
}

impl PervasiveGrid {
    /// Members and features of `query` if it can ride the shared tree:
    /// a one-shot aggregate with no COST bounds (bounds need the decision
    /// maker's per-model accounting) that selects at least one sensor.
    fn resolve_shareable(&mut self, query: &Query, brownout: bool) -> Option<Rc<Resolved>> {
        if classify(query) != QueryKind::Aggregate || !query.cost.is_empty() {
            return None;
        }
        let ctx = ExecContext {
            net: &mut self.net,
            grid: &self.grid,
            field: &self.field,
            regions: &self.regions,
            now: self.now,
        };
        let mut members = members_of(&ctx, query).ok()?;
        // Features depend only on the query and the immutable topology,
        // so taking them here equals taking them right before the
        // collection, as the single-query pipeline does.
        let features = QueryFeatures::of_members(&self.net, query, &members);
        // Brownout: answer from a coarser stratum — roughly every
        // other member — while the overload lasts. The cut is keyed on
        // node id parity, not list position, so overlapping queries
        // keep overlapping members and their stratum entries still
        // merge on shared packets. A non-empty member set always keeps
        // at least one node: degraded, never empty.
        if brownout && members.iter().any(|n| n.0 % 2 == 0) {
            members.retain(|n| n.0 % 2 == 0);
        }
        Some(Rc::new(Resolved { members, features }))
    }

    /// Batch entries that can ride one shared collection epoch (`parsed`
    /// is the batch, parsed, in batch order). Empty unless at least two
    /// qualify — a lone aggregate gains nothing from the stratum machinery
    /// and stays on the single-query path.
    fn shareable_entries<'q>(
        &mut self,
        batch: &[BatchQuery<'_>],
        parsed: &'q [Result<Query, PgError>],
    ) -> Vec<Shareable<'q>> {
        if batch.len() < 2 || self.faults.is_base_down(self.now) {
            return Vec::new();
        }
        let mut out = Vec::new();
        // A metro stream repeats a handful of texts for the grid's whole
        // life: each distinct `(text, brownout)` is resolved once, accepted
        // or not, until its region is re-pointed.
        for (idx, (bq, query)) in batch.iter().zip(parsed).enumerate() {
            let Ok(query) = query else {
                continue;
            };
            let region = query.region().and_then(|r| self.regions.get(r)).copied();
            let resolved = match self.resolutions.get(bq.text, bq.brownout, region) {
                Some(memo) => memo.resolved.clone(),
                None => {
                    let resolved = self.resolve_shareable(query, bq.brownout);
                    let memo = Memo {
                        region,
                        resolved: resolved.clone(),
                    };
                    self.resolutions.insert(bq.text, bq.brownout, memo);
                    resolved
                }
            };
            if let Some(resolved) = resolved {
                out.push(Shareable {
                    idx,
                    query,
                    resolved,
                    brownout: bq.brownout,
                });
            }
        }
        if out.len() < 2 {
            out.clear();
        }
        out
    }

    /// Run one shared collection epoch for `chunk` (≤ 64 queries) and fill
    /// the corresponding `slots`.
    fn execute_shared_chunk(
        &mut self,
        chunk: &[Shareable<'_>],
        batch: &[BatchQuery<'_>],
        slots: &mut [Option<EngineOutcome<QueryResponse, PgError>>],
    ) {
        let shared_queries: Vec<SharedQuery> = chunk
            .iter()
            .map(|s| SharedQuery {
                members: s.resolved.members.clone(),
                filter: value_filter(s.query),
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
        // Ground truth is a pure function of the resolved query, the field
        // and `now`, none of which moves inside a chunk: one per resolution.
        let mut truths: Vec<(&Rc<Resolved>, Option<f64>)> = Vec::new();

        for (s, (pq, sq)) in chunk
            .iter()
            .zip(report.per_query.iter().zip(&shared_queries))
        {
            let known = truths.iter().find(|(r, _)| Rc::ptr_eq(r, &s.resolved));
            let truth = match known {
                Some(&(_, truth)) => truth,
                None => {
                    let (members, field) = (&s.resolved.members, &self.field);
                    let truth =
                        truth_aggregate(&self.net, field, self.now, members, sq.agg, &sq.filter);
                    truths.push((&s.resolved, truth));
                    truth
                }
            };
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
            let deadline_s = self.deadline_budget(s.query, batch[s.idx].deadline);
            let answered = self.answer(placement, outcome, 0.0, deadline_s, s.brownout, true);
            slots[s.idx] = Some(Ok(answered));
        }
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
        let query = pg_query::parse(text).ok()?;
        let members = {
            let ctx = ExecContext {
                net: &mut self.net,
                grid: &self.grid,
                field: &self.field,
                regions: &self.regions,
                now: self.now,
            };
            members_of(&ctx, &query).ok()?
        };
        let bits = 8 * (STRATUM_KEY_WIRE_BYTES + PARTIAL_WIRE_BYTES);
        let range = self.net.topology().range();
        let radio = self.net.radio();
        let per_member = radio.tx_energy(bits, range) + radio.rx_energy(bits);
        Some(per_member * members.len() as f64)
    }

    fn execute_batch(
        &mut self,
        batch: &[BatchQuery<'_>],
    ) -> Vec<EngineOutcome<QueryResponse, PgError>> {
        let mut slots: Vec<Option<EngineOutcome<QueryResponse, PgError>>> = vec![None; batch.len()];
        // Parse each entry once; both paths below read the parsed form.
        let parsed: Vec<Result<Query, PgError>> = batch
            .iter()
            .map(|bq| pg_query::parse(bq.text).map_err(PgError::from))
            .collect();

        // Overlapping aggregates ride shared collection epochs, at most 64
        // queries (the stratum-mask width) per epoch.
        let shareable = self.shareable_entries(batch, &parsed);
        for chunk in shareable.chunks(MAX_SHARED_QUERIES) {
            self.execute_shared_chunk(chunk, batch, &mut slots);
        }

        // Everything else — simple reads, COST-bounded queries, parse
        // errors — goes through the ordinary pipeline, in batch order.
        for (i, (bq, query)) in batch.iter().zip(&parsed).enumerate() {
            if slots[i].is_some() {
                continue;
            }
            slots[i] = Some(match query {
                Ok(q) => self.submit_inner(q, bq),
                Err(e) => Err(e.clone()),
            });
        }

        slots
            .into_iter()
            .map(|s| s.unwrap_or_else(|| Err(PgError::Config("batch slot not executed".into()))))
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
            most = most.max(pg.resolutions.by_text.len());
            assert!(pg.resolutions.by_text.len() <= MEMO_CAP);
        }
        assert_eq!(most, MEMO_CAP, "the memo filled before it started over");
    }
}
