//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start and end, the span that caused it and the
//! op it belongs to.  Spans stay in memory while the run measures and are
//! written out once at the end.  A span's self time is its duration minus
//! the durations of its direct children.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `sim.run`.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span; it becomes the parent of spans opened before [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// Total and self time per span name, in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(children) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += span.duration_ns();
            entry.1 += span.duration_ns().saturating_sub(child_ns);
        }
        totals
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::default();
        tracer.enter("op");
        tracer.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("child", || ());
        tracer.exit();
        let totals = tracer.totals();
        let (op_total, op_self) = totals["op"];
        let (child_total, child_self) = totals["child"];
        assert_eq!(child_total, child_self, "leaf spans are all self time");
        assert_eq!(op_self, op_total - child_total);
        assert!(child_total >= 2_000_000);
        assert_eq!(tracer.spans[1].parent, Some(0));
    }
}
