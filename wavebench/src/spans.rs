//! In-memory spans recorded around calls into the program's layers.
//!
//! A traced run wraps each call the benchmark makes into a layer's public
//! functions in a span (name, start, end, parent, request id). Spans stay
//! in memory while the run measures and are written out as JSON lines
//! when it ends. A layer's self time is its span's duration minus the
//! part covered by its child spans. An untraced run records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::now;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `mpisim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by the spans of one operation.
    pub id: u64,
    /// Duration of the child spans inside this one.
    pub child_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus the time covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// A span recorder. Disabled tracers record nothing and cost
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose span times count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
            child_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.ns(now());
        self.close(idx, end_ns);
        out
    }

    /// Record a span whose ends were timed elsewhere (e.g. a request
    /// from its due time to its reply).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
            child_ns: 0,
        });
        let end_ns = self.ns(end);
        self.close(idx, end_ns);
    }

    fn close(&mut self, idx: usize, end_ns: u64) {
        self.spans[idx].end_ns = end_ns;
        if let Some(p) = self.spans[idx].parent {
            let d = self.spans[idx].dur_ns();
            self.spans[p].child_ns += d;
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self times, in nanoseconds, of every span named `name`.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64)
            .collect()
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns(),
                s.id
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
        let mut t = Tracer::new(true, now());
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = &t.spans()[0];
        let inner = &t.spans()[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(outer.child_ns, inner.dur_ns());
        assert!(outer.self_ns() < outer.dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, now());
        assert_eq!(t.span("x", 0, |_| 7), 7);
        t.record("y", 0, now(), now());
        assert!(t.spans().is_empty());
    }
}
