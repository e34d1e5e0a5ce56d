//! In-memory span recording and self-time accounting.
//!
//! A span is one timed call into a layer: its name, start, end, parent span
//! and the query it belongs to. Page-store time is not recorded as one span
//! per node read — that would cost more than the reads — but accumulated
//! per parent span ([`Span::store_ns`]) by the timing reader. The spans are
//! kept in memory and written out once, when the benchmark ends.
//!
//! A span's **self time** is its duration minus the part of it its child
//! spans cover, minus its accumulated store time (see [`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `filter`.
    pub name: &'static str,
    /// Query (or request) the span belongs to.
    pub query: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin.
    pub end_ns: u64,
    /// Page-store time spent inside this span outside any child span.
    pub store_ns: u64,
}

/// Where span boundaries go: a [`Tracer`] records them, [`NoSpans`]
/// compiles them away (the untimed replay).
pub trait SpanSink {
    /// Opens a span nested in the innermost open one; returns its id.
    fn open(&mut self, name: &'static str) -> usize;
    /// Closes span `id` (the innermost open one), charging `store` to it.
    fn close(&mut self, id: usize, store: Duration);
}

/// The span sink that records nothing.
#[derive(Debug, Default)]
pub struct NoSpans;

impl SpanSink for NoSpans {
    #[inline(always)]
    fn open(&mut self, _name: &'static str) -> usize {
        0
    }

    #[inline(always)]
    fn close(&mut self, _id: usize, _store: Duration) {}
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    query: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`; tracers of concurrent
    /// threads share one origin so their spans can be merged.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            query: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags the spans opened from now on with query id `query`.
    pub fn set_query(&mut self, query: u32) {
        self.query = query;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, remapping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes the spans as tab-separated rows:
    /// `id query parent name start_ns end_ns store_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tquery\tparent\tname\tstart_ns\tend_ns\tstore_ns\tself_ns"
        )?;
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.query, s.name, s.start_ns, s.end_ns, s.store_ns
            )?;
        }
        out.flush()
    }
}

impl SpanSink for Tracer {
    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query: self.query,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            store_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize, store: Duration) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.store_ns += store.as_nanos() as u64;
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals (clipped to the span) minus its own
/// store time, saturating at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered + s.store_ns)
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Number of spans.
    pub spans: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed store time, ns.
    pub store_ns: u64,
}

/// Sums self and store time per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.name).or_default();
        t.spans += 1;
        t.self_ns += self_ns;
        t.store_ns += s.store_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, store: u64) -> Span {
        Span {
            name,
            query: 0,
            parent,
            start_ns: start,
            end_ns: end,
            store_ns: store,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_store() {
        let spans = vec![
            span("query", None, 0, 100, 0),
            span("leaf", Some(0), 10, 90, 5),
            span("filter", Some(1), 20, 50, 10),
            span("refine", Some(1), 50, 70, 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 25, 20, 20]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["leaf"].store_ns, 5);
        assert_eq!(totals["filter"].self_ns, 20);
        let all_self: u64 = totals.values().map(|t| t.self_ns + t.store_ns).sum();
        assert_eq!(all_self, 100, "self + store times partition the root");
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Concurrent children (e.g. two client threads' requests under one
        // parent) must not push self time below zero or double count.
        let spans = vec![
            span("root", None, 0, 100, 0),
            span("a", Some(0), 10, 60, 0),
            span("b", Some(0), 40, 80, 0),
            span("c", Some(0), 90, 120, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.set_query(7);
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner, Duration::from_nanos(3));
        t.close(outer, Duration::ZERO);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].store_ns, 3);
        assert_eq!(t.spans()[0].query, 7);

        let mut u = Tracer::new(origin);
        let a = u.open("outer");
        let b = u.open("inner");
        u.close(b, Duration::ZERO);
        u.close(a, Duration::ZERO);
        t.absorb(u);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new(Instant::now());
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a, Duration::ZERO);
    }
}
