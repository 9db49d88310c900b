//! Spans recorded around the calls into each layer, kept in memory and
//! written out when the run ends, plus the self-time arithmetic the
//! `*.share` metrics come from.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of every operation.
pub const OP_SPAN: &str = "op";

/// One timed interval. `parent` is the id of the span that caused it (`0`
/// for an operation's root span); spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one client thread for one pass. All tracers of a run
/// share `epoch`, so their timestamps are comparable; ids are made unique
/// across the run by reserving the high bits for the tracer's `stream`
/// number (one per client per pass).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, stream: usize) -> Self {
        Tracer {
            epoch,
            next_id: ((stream as u64) << 32) + 1,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.reserve_id();
        self.record_reserved(id, name, parent, op, start_ns, end_ns);
        id
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        (result, self.record(name, parent, op, start, end))
    }

    /// Reserves an id for a span whose end is not known yet (an operation's
    /// root); finish it with [`Tracer::record_reserved`].
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The layer a span's time is attributed to: its name without the last
/// component (`exec.open` → `exec`, `core.cache.prepare` → `core.cache`);
/// the root span is its own layer, holding whatever no child covers.
pub fn layer_of(name: &str) -> &str {
    match name.rfind('.') {
        Some(dot) => &name[..dot],
        None => name,
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`. Children
/// that overlap (two pool workers reading chunks at once) are counted once,
/// and a child reaching outside its parent cannot push self time negative.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(start, end)| (start.max(lo), end.min(hi)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (start, end) in clipped {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover. Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get(&span.id)
                .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer summed over `spans`, and the summed duration of the
/// root spans those shares are relative to.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LayerTimes {
    pub op_total_ns: u64,
    pub self_ns: BTreeMap<String, u64>,
}

impl LayerTimes {
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut out = LayerTimes::default();
        for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            if span.name == OP_SPAN {
                out.op_total_ns += span.duration_ns();
            }
            *out.self_ns
                .entry(layer_of(span.name).to_string())
                .or_default() += self_ns;
        }
        out
    }

    /// The layer's self time as a share of the root spans' total.
    pub fn share(&self, layer: &str) -> f64 {
        if self.op_total_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.op_total_ns as f64
    }
}

/// Durations (ns) of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes the spans as one JSON document, streamed (a run records hundreds
/// of thousands of spans).
pub fn write_trace(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn layers_drop_the_last_name_component() {
        assert_eq!(layer_of("exec.open"), "exec");
        assert_eq!(layer_of("core.cache.prepare"), "core.cache");
        assert_eq!(layer_of("core.server.queue"), "core.server");
        assert_eq!(layer_of("format.read_chunk"), "format");
        assert_eq!(layer_of(OP_SPAN), "op");
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, OP_SPAN, 0, 1000),
            span(2, 1, "sql.parse", 0, 100),
            span(3, 1, "exec.open", 100, 900),
            span(4, 3, "format.read_chunk", 200, 300),
        ];
        assert_eq!(self_times_ns(&spans), vec![100, 100, 700, 100]);
        let layers = LayerTimes::from_spans(&spans);
        assert_eq!(layers.op_total_ns, 1000);
        assert!((layers.share("exec") - 0.7).abs() < 1e-12);
        assert!((layers.share("format") - 0.1).abs() < 1e-12);
        assert!((layers.share("op") - 0.1).abs() < 1e-12);
        assert_eq!(layers.share("core.server"), 0.0);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(layers.self_ns.values().sum::<u64>(), 1000);
    }

    #[test]
    fn overlapping_children_neither_double_count_nor_go_negative() {
        // Two pool workers read chunks concurrently under one `exec.open`:
        // [100, 400) and [200, 600) overlap, a third read [550, 700) chains
        // on, and a straggler [850, 1200) outlives its parent's end (900).
        let spans = vec![
            span(1, 0, "exec.open", 100, 900),
            span(2, 1, "format.read_chunk", 100, 400),
            span(3, 1, "format.read_chunk", 200, 600),
            span(4, 1, "format.read_chunk", 550, 700),
            span(5, 1, "format.read_chunk", 850, 1200),
        ];
        let self_ns = self_times_ns(&spans);
        // Union inside the parent: [100, 700) + [850, 900) = 650 of 800.
        assert_eq!(self_ns[0], 150);
        // Children summed naively (300 + 400 + 150 + 350 = 1200) exceed the
        // parent; the union keeps the parent's self time non-negative.
        assert!(self_ns.iter().all(|&ns| ns <= 800));
    }

    #[test]
    fn tracer_ids_are_unique_across_streams() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        let mut b = Tracer::new(epoch, 1);
        let root = a.reserve_id();
        let ((), child) = a.span("sql.parse", root, root, || ());
        let start = a.now_ns();
        a.record_reserved(root, OP_SPAN, 0, root, 0, start);
        let other = b.record("sql.parse", 0, 9, 0, 1);
        assert_ne!(root, child);
        assert_ne!(child, other);
        let spans = a.into_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
