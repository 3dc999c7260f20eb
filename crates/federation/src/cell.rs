//! One base-station cell of the federation.
//!
//! A [`Cell`] is the paper's Figure 1 unit — one base station fronting one
//! sensor field — wrapped for federation: it owns its
//! [`MultiQueryRuntime`] over a [`PervasiveGrid`], a proactive
//! [`PlanCache`] (warmed by the next-cell predictor when roaming users are
//! predicted to arrive), an inter-cell agent address on the federation
//! bus, and the per-window bookkeeping the driver needs to correlate
//! streamed admissions with the roaming users that offered them: the
//! runtime tells the window the handle of each arrival it admits
//! ([`ArrivalProcess::on_admitted`]), and the window pairs it with the
//! arrival's offerer and provenance tag.

use crate::gossip::{CellId, LoadDigest};
use crate::handoff::HandoffId;
use pg_agent::AgentId;
use pg_compose::proactive::{PlanBook, PlanCache};
use pg_core::{PervasiveGrid, Provenance};
use pg_runtime::arrivals::{Arrival, ArrivalProcess};
use pg_runtime::{MultiQueryRuntime, QueryHandle, QueryId};
use pg_sim::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// What the driver remembers about one admitted query until its outcome
/// is harvested. Kept for a traced user's query (the user may roam away
/// while it waits) and for any query that arrived across cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryTag {
    /// Who offered it.
    pub user: u64,
    /// Cross-cell provenance to stamp on the outcome: the query was
    /// absorbed from another cell, or migrated in.
    pub provenance: Option<Provenance>,
    /// The user roamed away while the query was near the head of the
    /// queue: it finishes here, and the answer travels under this
    /// replicated handoff record.
    pub forward: Option<HandoffId>,
}

/// The per-window arrival feed for one cell.
///
/// The federation routes each window's due arrivals here (tagged with the
/// offering user and, for redirected admissions, their cross-cell
/// provenance), then drives the cell's runtime with
/// [`MultiQueryRuntime::step`] — which pulls them back out through the
/// [`ArrivalProcess`] trait exactly as a standalone cell would pull from
/// its own workload. The runtime hands back the verdict on the arrival it
/// just consumed: an admitted one lands in `admitted` with its handle, one
/// bounced with `Overloaded` backpressure in `bounced` for the federation
/// to redirect (peer load absorption) or drop.
#[derive(Debug, Default)]
pub struct WindowArrivals {
    due: VecDeque<(Arrival, u64, Option<Provenance>)>,
    /// Offerer and provenance tag of the arrival last handed out.
    last: (u64, Option<Provenance>),
    admitted: Vec<(QueryHandle, u64, Option<Provenance>)>,
    bounced: Vec<(Arrival, u64)>,
}

impl WindowArrivals {
    /// Queue one routed arrival for the coming window. Must be pushed in
    /// non-decreasing time order (the federation routes in time order).
    pub(crate) fn push(&mut self, arrival: Arrival, user: u64, tag: Option<Provenance>) {
        debug_assert!(
            self.due.back().is_none_or(|(a, _, _)| a.at <= arrival.at),
            "window arrivals must be pushed in time order"
        );
        self.due.push_back((arrival, user, tag));
    }

    /// Arrivals the runtime admitted this window, in submission order:
    /// the handle each got, its offerer and its provenance tag.
    pub(crate) fn take_admitted(&mut self) -> Vec<(QueryHandle, u64, Option<Provenance>)> {
        std::mem::take(&mut self.admitted)
    }

    /// Arrivals the runtime refused with `Overloaded` backpressure.
    pub(crate) fn take_bounced(&mut self) -> Vec<(Arrival, u64)> {
        std::mem::take(&mut self.bounced)
    }

    /// Anything still queued (should be empty after a full window step).
    pub(crate) fn pending(&self) -> usize {
        self.due.len()
    }
}

impl ArrivalProcess for WindowArrivals {
    fn peek(&mut self) -> Option<SimTime> {
        self.due.front().map(|(a, _, _)| a.at)
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let (a, user, tag) = self.due.pop_front()?;
        self.last = (user, tag);
        Some(a)
    }

    // The runtime answers for the most recently consumed arrival, so the
    // last one handed out names its offerer.
    fn on_overload(&mut self, arrival: Arrival, _retry_after: Duration, _now: SimTime) {
        self.bounced.push((arrival, self.last.0));
    }

    fn on_admitted(&mut self, handle: QueryHandle) {
        let (user, tag) = self.last;
        self.admitted.push((handle, user, tag));
    }
}

/// One base-station cell: identity, runtime, proactive plan cache, bus
/// address, and the driver-side bookkeeping for roaming users.
#[derive(Debug)]
pub struct Cell {
    /// Federation-wide identity (index into the cell slice).
    pub id: CellId,
    /// The cell's own streaming runtime over its own grid.
    pub rt: MultiQueryRuntime<PervasiveGrid>,
    /// Proactive plan cache over the federation's shared plan book,
    /// pre-warmed by the next-cell predictor.
    pub cache: PlanCache,
    /// This cell's endpoint on the inter-cell agent bus.
    pub agent: AgentId,
    /// The per-window arrival feed.
    pub(crate) window: WindowArrivals,
    /// Outcomes already harvested (index into `rt.outcomes()`).
    pub(crate) outcomes_seen: usize,
    /// One tag per admitted query the driver still has business with.
    pub(crate) tags: BTreeMap<QueryId, QueryTag>,
}

impl Cell {
    /// Wrap a ready runtime as federation cell `id`, reachable at `agent`
    /// on the bus. The plan cache draws on the federation's one `book`
    /// with the given TTL (`Duration::ZERO` = purely reactive: every
    /// migration pays the full re-planning path).
    pub fn new(
        id: CellId,
        rt: MultiQueryRuntime<PervasiveGrid>,
        agent: AgentId,
        book: Rc<PlanBook>,
        cache_ttl: Duration,
    ) -> Self {
        Cell {
            id,
            rt,
            cache: PlanCache::shared(book, cache_ttl),
            agent,
            window: WindowArrivals::default(),
            outcomes_seen: 0,
            tags: BTreeMap::new(),
        }
    }

    /// Is this cell's base station down at `t` (per its own fault plan)?
    pub fn is_down(&self, t: SimTime) -> bool {
        self.rt.engine().net.fault_plan().is_base_down(t)
    }

    /// The load summary this cell would gossip at `now`: live queue depth,
    /// overload state and base-station health.
    pub fn load_digest(&self, now: SimTime) -> LoadDigest {
        LoadDigest {
            queue_depth: self.rt.queue_depth() as u32,
            overload: self.rt.overload_state(),
            base_down: self.is_down(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_runtime::{OverloadConfig, OverloadPolicy, QueryOpts, RuntimeConfig};

    #[test]
    fn window_arrivals_track_users_and_bounces() {
        // One waiting query puts the cell in shed mode, so of two arrivals
        // at the same instant the first is admitted and the second bounced.
        let cfg = RuntimeConfig::builder()
            .epoch(Duration::from_secs(30))
            .overload(OverloadConfig::watermarks(OverloadPolicy::Shed, 0, 0, 0, 1))
            .build();
        let mut rt = MultiQueryRuntime::new(cfg, PervasiveGrid::building(1, 4, 1).build());
        let mut w = WindowArrivals::default();
        let arr = || Arrival {
            at: SimTime::from_secs(1),
            text: "SELECT AVG(temp) FROM sensors".into(),
            opts: QueryOpts::default(),
        };
        let tag = Provenance {
            origin_cell: Some(2),
            ..Provenance::default()
        };
        w.push(arr(), 7, Some(tag));
        w.push(arr(), 8, None);
        rt.step(Duration::from_secs(30), &mut w);
        assert_eq!(w.pending(), 0);
        let admitted = w.take_admitted();
        assert_eq!(admitted.len(), 1);
        let (handle, user, provenance) = admitted[0];
        assert_eq!((user, provenance), (7, Some(tag)));
        assert_eq!(rt.outcomes()[0].id, handle.id());
        let bounced = w.take_bounced();
        assert_eq!(bounced.len(), 1);
        assert_eq!(bounced[0].1, 8);
    }
}
