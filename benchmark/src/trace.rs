//! Span recorder for the traced run.
//!
//! The benchmark is single-threaded, so spans nest by a plain stack: the
//! span open when another is entered is its parent. Spans live in one
//! pre-sized `Vec` and are only written out when the run is over.

use pg_sim::report::json::Writer;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" marker.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`crate.operation`).
    pub name: &'static str,
    /// Index of the span that was open when this one started, or [`ROOT`].
    pub parent: u32,
    /// Workload-level operation id (arrival number, batch number, round).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls, busy time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub busy_s: f64,
    pub self_s: f64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it has to grow.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record an already-measured span (for tests and synthetic entries).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Children of one parent never overlap (one thread,
    /// one stack), so their durations simply add.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Calls / busy / self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.busy_s += s.dur_ns() as f64 * 1e-9;
            e.self_s += own_ns as f64 * 1e-9;
        }
        out
    }

    /// Durations of every span named `name`, seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// The trace as JSON: a per-name summary over *all* spans, then the
    /// first `max_spans` spans in full as
    /// `[name, parent, op, start_ns, end_ns]` rows (`parent` −1 = none).
    pub fn to_json(&self, workload: &str, max_spans: usize) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("schema");
        w.string("pgbench-trace/v1");
        w.key("workload");
        w.string(workload);
        w.key("spans_total");
        w.uint(self.spans.len() as u64);
        w.key("spans_written");
        w.uint(self.spans.len().min(max_spans) as u64);
        w.key("by_name");
        w.begin_object();
        for (name, st) in self.by_name() {
            w.key(name);
            w.begin_object();
            w.key("calls");
            w.uint(st.calls);
            // Durations are finite by construction.
            w.key("busy_s");
            let _ = w.float(st.busy_s);
            w.key("self_s");
            let _ = w.float(st.self_s);
            w.end_object();
        }
        w.end_object();
        w.key("columns");
        w.begin_array();
        for c in ["name", "parent", "op", "start_ns", "end_ns"] {
            w.string(c);
        }
        w.end_array();
        w.key("spans");
        w.begin_array();
        for s in self.spans.iter().take(max_spans) {
            w.begin_array();
            w.string(s.name);
            if s.parent == ROOT {
                let _ = w.float(-1.0);
            } else {
                w.uint(u64::from(s.parent));
            }
            w.uint(s.op);
            w.uint(s.start_ns);
            w.uint(s.end_ns);
            w.end_array();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::new(8);
        let run = t.push(span("run", ROOT, 0, 100));
        let a = t.push(span("engine", run, 10, 40)); // sibling 1
        t.push(span("engine", run, 50, 70)); // sibling 2
        t.push(span("collect", a, 15, 25)); // nested in sibling 1
        let own = t.self_ns();
        assert_eq!(own, vec![50, 20, 20, 10]);
        let by = t.by_name();
        assert_eq!(by["engine"].calls, 2);
        assert!((by["engine"].busy_s - 50e-9).abs() < 1e-15);
        assert!((by["engine"].self_s - 40e-9).abs() < 1e-15);
        assert!((by["run"].self_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn enter_exit_nest_by_stack() {
        let mut t = Tracer::new(4);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 8);
        t.exit(inner);
        t.exit(outer);
        let after = t.enter("after", 9);
        t.exit(after);
        let s = t.spans();
        assert_eq!(s[0].parent, ROOT);
        assert_eq!(s[1].parent, outer);
        assert_eq!(s[2].parent, ROOT);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].op, 8);
    }

    #[test]
    fn json_caps_the_span_rows_but_not_the_summary() {
        let mut t = Tracer::new(4);
        for i in 0..5 {
            t.push(span("x", ROOT, i * 10, i * 10 + 5));
        }
        let v = pg_sim::report::json::parse(&t.to_json("w", 2)).unwrap();
        let pg_sim::report::json::Value::Object(o) = v else {
            panic!("object expected");
        };
        assert_eq!(o["spans_total"], pg_sim::report::json::Value::Number(5.0));
        let pg_sim::report::json::Value::Array(rows) = &o["spans"] else {
            panic!("array expected");
        };
        assert_eq!(rows.len(), 2);
    }
}
