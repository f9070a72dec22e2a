//! Spans recorded by the harness around each call it makes into a layer.
//!
//! The tracer lives entirely in the benchmark: nothing inside the program
//! under test is instrumented, so a layer's span is the wall-clock of one
//! public call. Spans stay in memory and are written once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one op share an id; 0 is set-up and probes.
    pub op_id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// While off, `enter` records nothing. Spans already open stay open
    /// and close normally.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Spans entered from now on belong to op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span. For calls that record no span of their own.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        });
    }

    /// Durations, in milliseconds, of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// A span's duration minus its direct children's. Spans nest (`exit`
    /// asserts it), so children neither overlap nor outlast their parent.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = (self.spans.iter())
            .filter(|s| s.parent == Some(idx))
            .map(Span::ns)
            .sum();
        self.spans[idx].ns() - children
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = self.self_ns(i);
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += 1;
                }
                None => out.push((s.name, own, 1)),
            }
        }
        out
    }

    /// The whole trace as one JSON document (see README, "Reading a trace").
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + 96 * self.spans.len());
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"self_ns\":{{"
        );
        for (i, (name, ns, count)) in self.self_ns_by_name().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"self_ns\":{ns},\"spans\":{count}}}"
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::new(true);
        t.push_raw("op", 0, 100, None); // 0
        t.push_raw("reset", 10, 20, Some(0)); // 1: sibling
        t.push_raw("run", 20, 90, Some(0)); // 2: sibling
        t.push_raw("prep", 30, 50, Some(2)); // 3: nested in run
        t.push_raw("main", 50, 80, Some(2)); // 4: nested in run
        assert_eq!(t.self_ns(0), 100 - 10 - 70);
        assert_eq!(t.self_ns(2), 70 - 20 - 30);
        assert_eq!(t.self_ns(1), 10);
        assert_eq!(t.self_ns(3), 20);
        // grandchildren are the child's business, not the root's
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name[0], ("op", 20, 1));
        let total: u64 = by_name.iter().map(|e| e.1).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn enter_exit_nest_and_tag_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.enter("op");
        let got = t.span("runner.run", || 41 + 1);
        t.exit(outer);
        assert_eq!(got, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op_id, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations_ms("runner.run").len(), 1);
        let json = t.to_json("w", 3);
        assert!(json.contains("\"name\":\"runner.run\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("op");
        t.exit(id);
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.spans.is_empty());
    }
}
