//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name (`<layer>.<call>`), start and end in host nanoseconds
//! since the tracer was made, the index of its parent span, and the id of
//! the op it belongs to. With tracing off, `begin`/`end` read no clock and
//! store nothing, so untraced ops pay only a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Op id of spans outside the timed ops (set-up, probes); they are
/// written out but left out of the per-op self times.
pub const PROBE_OP: u64 = u64::MAX;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Per-name aggregate: every span's duration and self time, in ms.
#[derive(Default)]
pub struct NameTimes {
    pub total_ms: Vec<f64>,
    pub self_ms: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            op: PROBE_OP,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        self.spans[idx].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Number of traced timed ops.
    pub fn traced_ops(&self) -> usize {
        let ops: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .map(|s| s.op)
            .filter(|&op| op != PROBE_OP)
            .collect();
        ops.len()
    }

    /// Each span with its duration and self time (duration minus the
    /// part its children cover), in ns.
    fn with_self_ns(&self) -> impl Iterator<Item = (&Span, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, child)| {
            let dur = s.end_ns - s.start_ns;
            (s, dur, dur.saturating_sub(child))
        })
    }

    /// Duration and self time of every span, grouped by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTimes> {
        let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
        for (s, dur, self_ns) in self.with_self_ns() {
            let e = out.entry(s.name).or_default();
            e.total_ms.push(dur as f64 / 1e6);
            e.self_ms.push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Self time of the timed ops' spans, summed per layer (the
    /// span-name prefix before the dot).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, _, self_ns) in self.with_self_ns().filter(|(s, _, _)| s.op != PROBE_OP) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines: name, op, start, end, parent.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
