//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API. A span's self time is its duration minus the part
//! of it covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `end_ns` is 0 while the span is open.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder. A disabled tracer records nothing, so the untraced run
/// pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.push(name, start_ns, 0);
    }

    /// Closes the innermost open span and returns its duration in
    /// nanoseconds (0 when disabled).
    pub fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("end() without an open span");
        let span = &mut self.spans[id];
        span.end_ns = now.max(span.start_ns);
        span.end_ns - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
        if end_ns == 0 {
            self.open.push(id);
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over all closed spans.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// Writes every span as `id\tparent\tname\tstart_ns\tend_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: self time is each span's duration minus the summed
/// durations of its direct children (children never outlive parents).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100) holds submit [10,40) and submit [50,90); the second
        // submit holds wal [55,75).
        let spans = vec![
            span("pass", 0, 100, None),
            span("submit", 10, 40, Some(0)),
            span("submit", 50, 90, Some(0)),
            span("wal", 55, 75, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["pass"].total_ns, 100);
        assert_eq!(t["pass"].self_ns, 100 - 30 - 40);
        assert_eq!(t["submit"].count, 2);
        assert_eq!(t["submit"].total_ns, 70);
        assert_eq!(t["submit"].self_ns, 30 + (40 - 20));
        assert_eq!(t["wal"].self_ns, 20);
        // Self times partition the root exactly.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_nests_spans_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.begin("outer");
        tr.span("inner", || std::hint::black_box(1 + 1));
        tr.end();
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.spans().is_empty());
    }
}
