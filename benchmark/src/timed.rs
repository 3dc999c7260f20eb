//! Boundary spans at the two public trait seams of the multi-query
//! runtime: the arrival process and the query engine.
//!
//! `MultiQueryRuntime` is generic over both, so the traced run wraps the
//! real generator and the real `PervasiveGrid` and hands the wrappers in.
//! The wrappers forward every call unchanged — a wrapped run must produce
//! the same ledger digest as an unwrapped one — and record, besides the
//! spans, the inputs the layer probes replay afterwards.

use crate::trace::Tracer;
use pg_core::{PervasiveGrid, PgError, QueryResponse};
use pg_runtime::{Arrival, ArrivalProcess, BatchQuery, EngineOutcome, QueryEngine};
use pg_sim::{Duration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Everything the traced run records: spans plus probe inputs.
#[derive(Debug)]
pub struct Capture {
    pub tracer: Tracer,
    /// Distinct query texts, by first appearance.
    pub texts: Vec<String>,
    text_ids: BTreeMap<String, u32>,
    /// How many times each text was offered.
    pub offered: Vec<u64>,
    /// Every engine batch, in order.
    pub batches: Vec<Batch>,
    /// Workload epoch counter, stamped onto batches (churn replay).
    pub epoch: u32,
    /// The engine clock, as of its last `advance`.
    engine_now: SimTime,
    /// Worst simulated lateness of an arrival's delivery, seconds.
    pub max_late_s: f64,
}

/// One `execute_batch` call as the engine saw it.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The workload epoch it ran in (churn replay).
    pub epoch: u32,
    /// The engine clock when it ran.
    pub at: SimTime,
    /// `(text id, brownout)` per entry, in batch order.
    pub items: Vec<(u32, bool)>,
}

/// The capture is shared by the two wrappers and the workload driver.
pub type SharedCapture = Rc<RefCell<Capture>>;

impl Capture {
    pub fn shared(span_capacity: usize) -> SharedCapture {
        Rc::new(RefCell::new(Capture {
            tracer: Tracer::new(span_capacity),
            texts: Vec::new(),
            text_ids: BTreeMap::new(),
            offered: Vec::new(),
            batches: Vec::new(),
            epoch: 0,
            engine_now: SimTime::ZERO,
            max_late_s: 0.0,
        }))
    }

    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.text_ids.get(text) {
            return id;
        }
        let id = self.texts.len() as u32;
        self.texts.push(text.to_string());
        self.offered.push(0);
        self.text_ids.insert(text.to_string(), id);
        id
    }

    /// Count `text` as offered once (for drivers without an arrival
    /// process, e.g. the closed-loop fire response).
    pub fn offer(&mut self, text: &str) {
        let id = self.intern(text);
        self.offered[id as usize] += 1;
    }
}

/// Run `f` inside a span.
pub fn spanned<R>(cap: &SharedCapture, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    let id = cap.borrow_mut().tracer.enter(name, op);
    let out = f();
    cap.borrow_mut().tracer.exit(id);
    out
}

/// An [`ArrivalProcess`] with a span around every call.
#[derive(Debug)]
pub struct TimedArrivals<A> {
    inner: A,
    cap: SharedCapture,
    consumed: u64,
}

impl<A: ArrivalProcess> TimedArrivals<A> {
    pub fn new(inner: A, cap: SharedCapture) -> Self {
        TimedArrivals {
            inner,
            cap,
            consumed: 0,
        }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: ArrivalProcess> ArrivalProcess for TimedArrivals<A> {
    fn peek(&mut self) -> Option<SimTime> {
        let op = self.consumed;
        let inner = &mut self.inner;
        spanned(&self.cap, "runtime.arrivals.peek", op, || inner.peek())
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let op = self.consumed;
        let inner = &mut self.inner;
        let arrival = spanned(&self.cap, "runtime.arrivals.next", op, || {
            inner.next_arrival()
        });
        if let Some(a) = &arrival {
            self.consumed += 1;
            let mut cap = self.cap.borrow_mut();
            cap.offer(&a.text);
            // The scheduler delivers an arrival at max(clock, due instant):
            // a clock already past the due instant is delivery lateness.
            let late = cap.engine_now.as_secs_f64() - a.at.as_secs_f64();
            cap.max_late_s = cap.max_late_s.max(late);
        }
        arrival
    }

    fn on_overload(&mut self, arrival: Arrival, retry_after: Duration, now: SimTime) {
        let op = self.consumed;
        let inner = &mut self.inner;
        spanned(&self.cap, "runtime.arrivals.retry", op, || {
            inner.on_overload(arrival, retry_after, now);
        });
    }
}

/// Engines that are, or wrap, a `PervasiveGrid`: lets one generic driver
/// reach the grid (to kill sensors, to read energy) on both runs.
pub trait GridEngine: QueryEngine<Response = QueryResponse, Error = PgError> {
    fn grid(&self) -> &PervasiveGrid;
    fn grid_mut(&mut self) -> &mut PervasiveGrid;
}

impl GridEngine for PervasiveGrid {
    fn grid(&self) -> &PervasiveGrid {
        self
    }
    fn grid_mut(&mut self) -> &mut PervasiveGrid {
        self
    }
}

/// A [`QueryEngine`] with a span around every call that does work.
#[derive(Debug)]
pub struct TimedEngine<E> {
    inner: E,
    cap: SharedCapture,
    batches: u64,
    estimates: u64,
}

impl<E: QueryEngine> TimedEngine<E> {
    pub fn new(inner: E, cap: SharedCapture) -> Self {
        cap.borrow_mut().engine_now = inner.now();
        TimedEngine {
            inner,
            cap,
            batches: 0,
            estimates: 0,
        }
    }
}

impl<E: QueryEngine> QueryEngine for TimedEngine<E> {
    type Response = E::Response;
    type Error = E::Error;

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance(&mut self, dt: Duration) {
        self.inner.advance(dt);
        self.cap.borrow_mut().engine_now = self.inner.now();
    }

    fn available_energy_j(&self) -> f64 {
        let inner = &self.inner;
        spanned(&self.cap, "core.engine.headroom", self.estimates, || {
            inner.available_energy_j()
        })
    }

    fn estimate_energy_j(&mut self, text: &str) -> Option<f64> {
        let op = self.estimates;
        self.estimates += 1;
        let inner = &mut self.inner;
        spanned(&self.cap, "core.engine.estimate", op, || {
            inner.estimate_energy_j(text)
        })
    }

    fn note_pressure(&mut self, queue_depth: usize, overload_level: f64) {
        self.inner.note_pressure(queue_depth, overload_level);
    }

    fn execute_batch(
        &mut self,
        batch: &[BatchQuery<'_>],
    ) -> Vec<EngineOutcome<Self::Response, Self::Error>> {
        let op = self.batches;
        self.batches += 1;
        {
            let mut cap = self.cap.borrow_mut();
            let items = batch
                .iter()
                .map(|q| (cap.intern(q.text), q.brownout))
                .collect();
            let (epoch, at) = (cap.epoch, self.inner.now());
            cap.batches.push(Batch { epoch, at, items });
        }
        let inner = &mut self.inner;
        spanned(&self.cap, "core.engine.batch", op, || {
            inner.execute_batch(batch)
        })
    }
}

impl GridEngine for TimedEngine<PervasiveGrid> {
    fn grid(&self) -> &PervasiveGrid {
        &self.inner
    }
    fn grid_mut(&mut self) -> &mut PervasiveGrid {
        &mut self.inner
    }
}
