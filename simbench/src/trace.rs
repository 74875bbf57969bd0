//! In-memory spans recorded around the benchmark's own calls into the
//! simulator's crates.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started. Spans live in memory until the run ends and are then written
//! out as TSV. A disabled tracer only runs the wrapped closure, so the
//! end-to-end metrics are measured with tracing off.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.allocate`.
    pub name: &'static str,
    /// Offset of the start from the tracer's origin.
    pub start: Duration,
    /// Offset of the end from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records nested spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`. Spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// For every span called `parent`, the summed duration of its direct
    /// children called `child`, in seconds.
    pub fn child_totals(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut totals: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(id, _)| (id, 0.0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(t) = totals.iter_mut().find(|(id, _)| Some(*id) == s.parent) {
                t.1 += s.duration().as_secs_f64();
            }
        }
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// The spans as TSV: one header line, then `id parent name start_us
    /// end_us self_us` per span, where self time is the span's duration
    /// minus the time its children cover.
    pub fn to_tsv(&self) -> String {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out = String::from("id\tparent\tname\tstart_us\tend_us\tself_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.duration().saturating_sub(child_time[id]).as_micros()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[2].end <= spans[0].end);
        assert_eq!(t.durations("inner").len(), 2);
        let inner: f64 = t.durations("inner").iter().sum();
        assert_eq!(t.child_totals("outer", "inner"), vec![inner]);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
