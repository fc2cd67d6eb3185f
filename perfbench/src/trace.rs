//! Spans recorded by the benchmark around each call into a layer, kept
//! in memory and written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! caused it and the id of the op it belongs to. A layer's self time is
//! its span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::out::{json_number, json_string, Obj};
use crate::stats;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `pgraph.json.parse`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// A work count measured at the boundary (bytes, elements), or 0.
    pub work: f64,
    /// The count `work` is a share of (elements total), or 0.
    pub of: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The span recorder. With recording off every call runs untouched and
/// nothing is kept, so one code path serves traced and untraced ops.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// True while recording.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between ops.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (a child of the innermost open one); a root span
    /// starts a new op id. Returns a handle for [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
            work: 0.0,
            of: 0.0,
        });
        let ix = self.spans.len() - 1;
        self.stack.push(ix);
        Some(ix)
    }

    /// Closes the span `enter` opened, recording its work counts.
    pub fn exit(&mut self, handle: Option<usize>, work: f64, of: f64) {
        let Some(ix) = handle else { return };
        let end_ns = self.now();
        let span = &mut self.spans[ix];
        span.end_ns = end_ns;
        span.work = work;
        span.of = of;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(ix), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let handle = self.enter(name);
        let out = f();
        self.exit(handle, 0.0, 0.0);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Median duration (µs) of the spans named `name`, 0 if none.
    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(&self.durations(name))
    }

    /// Work counts of the spans named `name`.
    pub fn works(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.work)
            .collect()
    }

    /// Self time (µs) of every span: duration minus its children's.
    pub fn self_micros(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::micros).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.micros();
            }
        }
        own
    }

    /// Per span name: count, total and median duration, total and
    /// median self time.
    pub fn summary(&self) -> Obj {
        let own = self.self_micros();
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.micros());
            entry.1.push(own);
        }
        by_name
            .into_iter()
            .fold(Obj::new(), |o, (name, (dur, own))| {
                o.obj(
                    name,
                    Obj::new()
                        .int("count", dur.len() as u64)
                        .num("total_us", dur.iter().sum())
                        .num("p50_us", stats::median(&dur))
                        .num("self_total_us", own.iter().sum())
                        .num("self_p50_us", stats::median(&own)),
                )
            })
    }

    /// The spans as JSON lines, one span per line.
    pub fn span_lines(&self) -> String {
        let mut out = String::new();
        for (ix, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\": {ix}, \"name\": {}, \"op\": {}, \"parent\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"work\": {}, \"of\": {}}}\n",
                json_string(s.name),
                s.op,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                json_number(s.work),
                json_number(s.of),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_share_ids() {
        let mut t = Tracer::new(true);
        let root = t.enter("op.test");
        t.time("layer.a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root, 0.0, 0.0);
        let root2 = t.enter("op.test");
        t.exit(root2, 0.0, 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_micros();
        assert!((own[0] - (spans[0].micros() - spans[1].micros())).abs() < 1e-6);
        assert!(own[1] >= 2000.0);
        assert_eq!(t.span_lines().lines().count(), 3);
    }

    #[test]
    fn an_idle_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let h = t.enter("op.test");
        assert_eq!(t.time("layer.a", || 5), 5);
        t.exit(h, 1.0, 2.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.median_us("layer.a"), 0.0);
    }
}
