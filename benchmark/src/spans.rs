//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans from its own files: a root span around
//! each end-to-end call, then child spans around each layer's public
//! call replayed on that operation's data. Every span carries the id of
//! the operation it belongs to and of the span that caused it. Spans stay
//! in memory until the run ends; nothing is written while timing.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to (one id per end-to-end call).
    pub op: usize,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled [`Recorder::time`] still
/// returns the duration (the untraced run needs it) but stores nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans (bytes, units,
    /// iterations), one value per operation.
    counts: BTreeMap<&'static str, Vec<f64>>,
    next_op: usize,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            next_op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (the traced run times its first few
    /// operations unrecorded to measure what recording costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> usize {
        self.next_op += 1;
        self.next_op
    }

    /// Store a span measured elsewhere (the serve clients time on their
    /// own threads and hand their spans over after joining).
    pub fn push(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.enabled.then(|| {
            self.spans.push(Span {
                name,
                op,
                parent,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            });
            self.spans.len() - 1
        })
    }

    /// Run `f`, returning its result, its wall time, and — when enabled —
    /// the id of the span recorded around it.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration, Option<SpanId>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(name, op, parent, start, end);
        (out, end - start, id)
    }

    /// [`Self::time`] for a child span whose duration the caller does not
    /// need.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.time(name, op, parent, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record one operation's value of the count `name` (kept whether or
    /// not span recording is on: counts cost nothing to take).
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Every recorded value of the count `name`.
    pub fn counted(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Per operation, the summed duration in ms of its spans called
    /// `name` (one entry per operation that has any), in operation order.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.op).or_default() += s.duration_ns();
        }
        sums.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Duration in ms of every span called `name`, one entry per span.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per operation that has a `whole` span: the time of its spans named
    /// in `parts` over the time of its `whole` spans.
    pub fn per_op_share(&self, parts: &[&str], whole: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            if s.name == whole {
                sums.entry(s.op).or_default().1 += s.duration_ns();
            } else if parts.contains(&s.name) {
                sums.entry(s.op).or_default().0 += s.duration_ns();
            }
        }
        sums.into_values()
            .filter(|&(_, whole)| whole > 0)
            .map(|(part, whole)| part as f64 / whole as f64)
            .collect()
    }

    /// The whole recording as one JSON document.
    pub fn to_json(&self) -> Value {
        let self_ns = self_times_ns(&self.spans);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(&self_ns)
            .enumerate()
            .map(|(id, (s, &own))| {
                json!({
                    "id": id,
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": own
                })
            })
            .collect();
        Value::Array(spans)
    }
}

/// Self time of each span: its duration minus the summed durations of the
/// spans naming it as parent. Replayed children run *after* their root
/// rather than inside it, so the subtraction follows the parent link, not
/// the clock; for children that do nest in time the two agree.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: usize, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            span("b", 1, Some(0), 50, 70),
            span("a.inner", 1, Some(1), 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn self_time_of_replayed_children_follows_the_parent_link() {
        // The children ran after the root ended (a replay) and still
        // count against it.
        let spans = vec![
            span("root", 7, None, 0, 100),
            span("leaf", 7, Some(0), 200, 230),
            span("leaf", 7, Some(0), 240, 260),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn self_time_saturates_when_children_outlast_the_parent() {
        let spans = vec![
            span("root", 1, None, 0, 10),
            span("slow-replay", 1, Some(0), 20, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn recorder_groups_span_time_by_operation() {
        let mut rec = Recorder::new(true);
        let op1 = rec.next_op();
        let (_, _, root) = rec.time("root", op1, None, || {
            std::thread::sleep(Duration::from_micros(50))
        });
        rec.child("leaf", op1, root, || ());
        rec.child("leaf", op1, root, || ());
        let op2 = rec.next_op();
        rec.child("leaf", op2, None, || ());
        assert_eq!(rec.per_op_ms("leaf").len(), 2);
        assert_eq!(rec.per_op_ms("root").len(), 1);
        assert!(rec.per_op_ms("absent").is_empty());
        assert_eq!(rec.spans().len(), 4);
        assert_eq!(rec.spans()[1].parent, root);
        assert_eq!(rec.each_ms("leaf").len(), 3);
        // Only the first operation has a `root` to take a share of.
        assert_eq!(rec.per_op_share(&["leaf"], "root").len(), 1);
    }

    #[test]
    fn disabled_recorder_times_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let (value, took, id) = rec.time("root", 1, None, || 42);
        assert_eq!(value, 42);
        assert!(took.as_nanos() < 1_000_000_000);
        assert_eq!(id, None);
        assert!(rec.spans().is_empty());
    }
}
