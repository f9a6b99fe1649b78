//! In-memory span recording for the traced run.
//!
//! The harness opens a span around every call it times into the
//! simulator's crates; nothing inside the crates is instrumented. Spans stay
//! in memory until the run ends, when they are written out as JSON lines.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`sim.step.kswapd`, `compress.lzo_4k`, ...).
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The benchmark workload the call belongs to.
    pub workload: &'static str,
    /// The swap scheme the call ran for (`-` for scheme-free calls).
    pub scheme: Rc<str>,
}

impl Span {
    /// Host nanoseconds between start and end.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; costs one branch per call when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    scheme: Rc<str>,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer for `workload`; records nothing unless `enabled`.
    #[must_use]
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload,
            scheme: Rc::from("-"),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Label the spans that follow with `scheme`.
    pub fn set_scheme(&mut self, scheme: &str) {
        self.scheme = Rc::from(scheme);
    }

    /// Host nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one. Returns `None` when
    /// recording is off.
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        Some(self.push(name, start_ns, start_ns))
    }

    /// Close the span `id` opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Time `call` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = call();
        self.end(id);
        out
    }

    /// Record an already-timed leaf call under the innermost open span (for
    /// calls whose name is known only from their result).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.push(name, start_ns, end_ns);
            self.open.pop();
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            workload: self.workload,
            scheme: Rc::clone(&self.scheme),
        });
        self.open.push(id);
        id
    }

    /// Hand over the spans recorded so far and start a new block. Span ids
    /// and parents index into the returned block.
    pub fn take_spans(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Write the spans of every block as one JSON object per line, numbering
/// them across blocks.
///
/// # Errors
///
/// Returns any error of the underlying writer.
pub fn write_jsonl(blocks: &[&[Span]], out: &mut impl Write) -> io::Result<()> {
    let mut base = 0;
    for block in blocks {
        for (id, span) in block.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| (base + p).to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\",\"scheme\":\"{}\"}}",
                base + id,
                span.name,
                span.start_ns,
                span.end_ns,
                span.workload,
                span.scheme
            )?;
        }
        base += block.len();
    }
    Ok(())
}

/// Total and self time of every span name, in nanoseconds. A span's self
/// time is its duration minus the durations of its direct children; the
/// harness never runs children in parallel, so children do not overlap.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += span.duration_ns();
        entry.1 += span.duration_ns().saturating_sub(children);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "w",
            scheme: Rc::from("s"),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 100, None),
            span("step", 10, 30, Some(0)),
            span("step", 40, 50, Some(0)),
            span("inner", 42, 48, Some(2)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["run"], (100, 70));
        assert_eq!(times["step"], (30, 24));
        assert_eq!(times["inner"], (6, 6));
    }

    #[test]
    fn self_time_sums_repeated_names_and_roots() {
        let spans = vec![
            span("setup", 0, 10, None),
            span("new", 2, 9, Some(0)),
            span("setup", 20, 25, None),
            span("new", 20, 25, Some(2)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["setup"], (15, 3));
        assert_eq!(times["new"], (12, 12));
    }

    #[test]
    fn tracer_nests_spans_and_records_leaves() {
        let mut tracer = Tracer::new("w", true);
        tracer.set_scheme("ZRAM");
        let outer = tracer.begin("run");
        let t0 = tracer.now_ns();
        tracer.record("sim.step.launch", t0, t0 + 5);
        let value = tracer.time("inner", || 7);
        tracer.end(outer);
        assert_eq!(value, 7);
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(&*spans[0].scheme, "ZRAM");
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new("w", false);
        let id = tracer.begin("run");
        tracer.record("leaf", 0, 1);
        tracer.end(id);
        assert!(id.is_none());
        assert!(tracer.take_spans().is_empty());
    }

    #[test]
    fn spans_write_as_one_json_object_per_line() {
        let mut tracer = Tracer::new("w", true);
        let id = tracer.begin("run");
        tracer.record("leaf", 1, 2);
        tracer.end(id);
        let first = tracer.take_spans();
        let id = tracer.begin("run");
        tracer.record("leaf", 3, 4);
        tracer.end(id);
        let second = tracer.take_spans();
        let mut out = Vec::new();
        write_jsonl(&[&first, &second], &mut out).expect("writing to a Vec cannot fail");
        let text = String::from_utf8(out).expect("ASCII");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"run\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[3].starts_with("{\"id\":3,\"name\":\"leaf\""));
        assert!(lines[3].contains("\"parent\":2,"));
    }
}
