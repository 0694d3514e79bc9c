//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory, written as JSON lines when the run ends.
//!
//! The tracer lives on the thread that drives the workload; spans of work
//! done on other threads (served requests) are recorded after the fact
//! from timestamps those threads collected.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 for the root), `count` the work items it covered.
pub struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indexes into `spans` of the spans still open, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    /// `origin` is the process start, so span times read as run offsets.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off mid-run, so that one traced run can
    /// compare passes with and without it (`bench.trace_overhead`). Spans
    /// already open stay open and close normally.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) -> usize {
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_at(name, Instant::now())
    }

    /// [`begin`](Self::begin) for a span that started at `start`.
    pub fn begin_at(&mut self, name: &'static str, start: Instant) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.ns(start);
        let i = self.push(name, start, start, 0);
        self.stack.push(i);
        Open(Some(i))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open, count: u64) {
        self.end_at(span, Instant::now(), count);
    }

    /// [`end`](Self::end) for a span that ended at `end`.
    pub fn end_at(&mut self, span: Open, end: Instant, count: u64) {
        let Some(i) = span.0 else { return };
        assert_eq!(self.stack.pop(), Some(i), "spans must nest");
        self.spans[i].end_ns = self.ns(end);
        self.spans[i].count = count;
    }

    /// Records an interval timed elsewhere as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, count: u64) {
        if self.enabled {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(name, s, e, count);
        }
    }

    /// Runs `f` inside a span and returns its result with the wall
    /// seconds it took (measured whether or not tracing is on).
    pub fn time<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(span, count);
        (out, secs)
    }

    /// Per span name: calls, total seconds, and self seconds (duration
    /// minus the part covered by child spans).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[s.id as usize]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e9;
            e.2 += own as f64 / 1e9;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}
