//! In-memory spans recorded around the benchmark's own calls into each
//! layer. With tracing off every call is a no-op, so untraced runs time
//! the bare program.

use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The repository module the span's time belongs to.
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Timeline (thread) the span ran on.
    pub lane: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    lane: u32,
    /// Lanes handed out by [`lane`](Self::lane).
    lanes: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle of an open span; closing it records the end time.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            lane: 0,
            lanes: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's clock, on a lane
    /// no earlier tracer of this one used: each thread's timeline is
    /// charged from its own first span to its last.
    pub fn lane(&mut self) -> Self {
        self.lanes += 1;
        Tracer {
            on: self.on,
            t0: self.t0,
            lane: self.lanes,
            lanes: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            lane: self.lane,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans close in nesting order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, layer);
        let out = f();
        self.close(id);
        out
    }

    /// Records, under the innermost open span, a child of known duration
    /// that the program itself measured (a recorder histogram or a
    /// statistic it returns). It is placed at the parent's start.
    pub fn child(&mut self, name: &'static str, layer: &'static str, secs: f64) -> Option<usize> {
        let parent = *self.open.last()?;
        Some(self.child_of(parent, name, layer, secs))
    }

    /// [`child`](Self::child) under a given span, for a child of a
    /// recorded child.
    pub fn child_of(
        &mut self,
        parent: usize,
        name: &'static str,
        layer: &'static str,
        secs: f64,
    ) -> usize {
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start + secs.max(0.0),
            parent: Some(parent),
            lane: self.lane,
        });
        self.spans.len() - 1
    }

    /// Moves another lane's spans into this tracer.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-layer self time: each span's duration minus what its children
/// cover, summed by layer. Layers come out in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_secs = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, c) in spans.iter().zip(&child_secs) {
        let own = s.secs() - c;
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += own,
            None => out.push((s.layer, own)),
        }
    }
    out
}

/// Total duration of the top-level spans on each lane.
pub fn covered_secs(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::secs)
        .sum()
}

/// The spans as JSON lines: name, layer, lane, start, end, parent.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"lane\": {}, \
             \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}}}\n",
            s.name, s.layer, s.lane, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start,
            end,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("engine", 0.0, 10.0, None),
            span("rrset", 0.0, 6.0, Some(0)),
            span("prr", 0.0, 4.0, Some(1)),
            span("prr", 6.0, 7.0, Some(0)),
            span("tree", 12.0, 13.0, None),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st,
            vec![("engine", 3.0), ("rrset", 2.0), ("prr", 5.0), ("tree", 1.0)]
        );
        assert_eq!(covered_secs(&spans), 11.0);
        let total: f64 = st.iter().map(|(_, t)| t).sum();
        assert_eq!(total, covered_secs(&spans));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", "prr", || 7);
        t.child("y", "prr", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nesting_and_merge_keep_parents() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", "engine");
        t.span("inner", "prr", || ());
        t.child("derived", "rrset", 0.0);
        t.close(outer);
        let mut other = t.lane();
        let a = other.open("a", "serve");
        other.span("b", "serve", || ());
        other.close(a);
        t.merge(other);
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None, Some(3)]);
        assert_eq!(t.spans[4].lane, 1);
    }
}
