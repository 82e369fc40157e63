//! In-memory spans for the traced pass.
//!
//! A span is recorded around a call into a public function of the program
//! under test, never inside it. Spans are kept in memory and written out
//! when the pass ends. Every span of one pass shares the trace id.

use std::time::Instant;

use crate::json::Json;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the trace epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// All spans of one traced pass.
#[derive(Debug)]
pub struct Trace {
    pub id: u64,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(id: u64) -> Trace {
        Trace {
            id,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the trace epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Seconds from the trace epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Record a finished span.
    pub fn record(&mut self, name: &str, start: f64, end: f64, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent);
        out
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// The part of span `id` its children cover: the length of the union
    /// of the child intervals, clipped to the span.
    pub fn covered(&self, id: SpanId) -> f64 {
        let me = &self.spans[id];
        let mut intervals: Vec<(f64, f64)> = self
            .children(id)
            .map(|c| (c.start.max(me.start), c.end.min(me.end)))
            .filter(|(s, e)| e > s)
            .collect();
        intervals.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
        let mut covered = 0.0;
        let mut cursor = f64::NEG_INFINITY;
        for (s, e) in intervals {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        covered
    }

    /// A span's own time: its duration minus what its children cover.
    pub fn self_time(&self, id: SpanId) -> f64 {
        (self.spans[id].duration() - self.covered(id)).max(0.0)
    }

    /// The closure of span `id`: the share of its duration that no child
    /// accounts for. A leaf has closure 1 by this definition, so callers
    /// ask only for spans they gave children.
    pub fn unattributed_share(&self, id: SpanId) -> f64 {
        let d = self.spans[id].duration();
        if d <= 0.0 {
            0.0
        } else {
            self.self_time(id) / d
        }
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("trace_id", Json::Str(format!("{:016x}", self.id))),
            ("workload", Json::Str(workload.to_string())),
            ("unit", Json::Str("s".to_string())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::obj([
                                ("id", Json::Num(i as f64)),
                                ("name", Json::Str(s.name.clone())),
                                ("start", Json::Num(s.start)),
                                ("end", Json::Num(s.end)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("self", Json::Num(self.self_time(i))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_to(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let mut t = Trace::new(1);
        let run = t.record("run", 0.0, 10.0, None);
        t.record("setup", 0.0, 2.0, Some(run));
        t.record("batch", 2.0, 9.0, Some(run));
        assert!(close_to(t.covered(run), 9.0));
        assert!(close_to(t.self_time(run), 1.0));
        assert!(close_to(t.unattributed_share(run), 0.1));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut t = Trace::new(1);
        let run = t.record("run", 0.0, 10.0, None);
        t.record("a", 1.0, 5.0, Some(run));
        t.record("b", 3.0, 7.0, Some(run));
        // A child that pokes out of its parent is clipped to it.
        t.record("c", 9.0, 12.0, Some(run));
        assert!(close_to(t.covered(run), 7.0));
        assert!(close_to(t.self_time(run), 3.0));
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let mut t = Trace::new(1);
        let run = t.record("run", 0.0, 4.0, None);
        let batch = t.record("batch", 0.0, 3.0, Some(run));
        t.record("transport", 0.0, 2.5, Some(batch));
        assert!(close_to(t.self_time(run), 1.0));
        assert!(close_to(t.self_time(batch), 0.5));
    }

    #[test]
    fn closure_sum_children_plus_self_equals_the_parent() {
        let mut t = Trace::new(7);
        let run = t.record("run", 0.0, 8.0, None);
        for (i, (s, e)) in [(0.0, 1.0), (1.5, 4.0), (4.0, 7.25)].iter().enumerate() {
            t.record(&format!("batch[{i}]"), *s, *e, Some(run));
        }
        let children: f64 = t.children(run).map(Span::duration).sum();
        assert!(close_to(
            children + t.self_time(run),
            t.span(run).duration()
        ));
        assert!(close_to(t.unattributed_share(run), 1.25 / 8.0));
    }
}
