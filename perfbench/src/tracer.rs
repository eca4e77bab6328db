//! Spans recorded from the benchmark's own files around calls into each
//! layer's public functions. Kept in memory, aggregated at the end of the
//! run, and written out as Chrome trace-event JSON.

use angel_core::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

const NONE: usize = usize::MAX;

/// Spans (and Recorder events) written to the trace file, from the start of
/// the run: enough to inspect, and small enough for `trace_lint`, which
/// takes minutes on a multi-megabyte trace. The per-layer metrics cover
/// every span.
pub const EXPORT_LIMIT: usize = 4000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
    /// The operation (request, iteration, submission) the span belongs to.
    pub op: u64,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Off: `begin`/`end` are no-ops, so the same code path runs untraced.
    pub on: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            on,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return NONE;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            dur_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        if idx == NONE {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.dur_ns = now.saturating_sub(span.start_ns).max(1);
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time (span minus its children).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.dur_ns;
            t.self_ns += s.dur_ns.saturating_sub(child_ns[i]);
        }
        out
    }

    pub fn total(&self, name: &str) -> Totals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Chrome trace events (`X` phase, microseconds) of the first
    /// [`EXPORT_LIMIT`] spans, under `pid`.
    pub fn chrome_events(&self, pid: u64) -> Vec<serde_json::Value> {
        let mut out = vec![serde_json::json!({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": "perfbench"},
        })];
        for s in self.spans.iter().take(EXPORT_LIMIT) {
            out.push(serde_json::json!({
                "name": s.name,
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns as f64 / 1e3,
                "args": {"op": s.op, "parent": s.parent.map_or(-1, |p| p as i64)},
            }));
        }
        out
    }
}

/// Chrome trace events of the first [`EXPORT_LIMIT`] events in `recorder`'s
/// ring, under `pid`.
pub fn runtime_events(recorder: &Recorder, pid: u64) -> Vec<serde_json::Value> {
    let events = recorder.events();
    angel_core::obs::export::runtime_trace_events(&events[..events.len().min(EXPORT_LIMIT)], pid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.calls, i.calls), (1, 2));
        assert_eq!(o.self_ns, o.busy_ns - i.busy_ns);
        assert_eq!(i.self_ns, i.busy_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.time("y", || ());
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
