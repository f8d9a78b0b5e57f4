//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Every thread owns a [`Tracer`]; the spans stay in memory and are merged
//! and written out when the run ends. Span ids are process-global so a
//! request's root span can be reserved on the thread that submits it and
//! recorded on the thread that completes it.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Traced and untraced requests alternate in segments of this length, so
/// one traced run measures the tracing overhead against itself.
const SEGMENT: Duration = Duration::from_millis(250);

/// Requests stop being traced once a thread holds this many spans, which
/// bounds memory and the trace file on high-rate workloads.
const REQUEST_SPAN_CAP: usize = 100_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request the span belongs to (0 outside any request).
    pub request: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.epoch)
    }

    /// Whether a request issued at `at` is traced: always off in an
    /// untraced run, alternating by segment in a traced one until the
    /// thread's span cap is reached.
    pub fn traces_at(&self, at: Instant) -> bool {
        self.enabled
            && self.spans.len() < REQUEST_SPAN_CAP
            && (at.saturating_duration_since(self.epoch).as_nanos() / SEGMENT.as_nanos())
                .is_multiple_of(2)
    }

    pub fn reserve() -> u64 {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request,
        });
    }

    /// Record a span if tracing is on; returns its id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = Self::reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Time `body` as a span (if tracing is on) and return its result.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = body();
        self.record(name, parent, 0, start, Instant::now());
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Per span name: (calls, total ms, self ms). A span's self time is its
/// duration minus the part of it that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|span| span.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for span in spans {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&span.id) {
            kids.sort_unstable();
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let entry = out.entry(span.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += total as f64 / 1e6;
        entry.2 += total.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Write the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            span.id, span.parent, span.name, span.start_ns, span.end_ns, span.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, 0, "root", 0, 10_000_000),
            // Overlapping children cover 2..7 ms once.
            span(2, 1, "child", 2_000_000, 5_000_000),
            span(3, 1, "child", 4_000_000, 7_000_000),
        ];
        let times = self_times(&spans);
        let (calls, total, own) = times["root"];
        assert_eq!(calls, 1);
        assert!((total - 10.0).abs() < 1e-9);
        assert!((own - 5.0).abs() < 1e-9);
        assert_eq!(times["child"].0, 2);
        assert!((times["child"].2 - 6.0).abs() < 1e-9);
    }
}
