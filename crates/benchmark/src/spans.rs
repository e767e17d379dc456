//! Call-side spans: the benchmark records one span around every call it
//! makes into a layer's public functions. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its line number in the export).
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Microseconds since the log's epoch.
    pub start_us: f64,
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: Option<u64>,
}

/// In-memory span log shared by the load-generation threads. A disabled
/// log (untraced run) records nothing.
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("no span recorder panicked");
        spans.push(Span {
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span that starts now; children can name it as their parent
    /// before [`SpanLog::close`] stamps its end.
    pub fn open(&self, name: &str, parent: Option<SpanId>, request: Option<u64>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened with [`SpanLog::open`] now.
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
            self.spans.lock().expect("no span recorder panicked")[id].end_us = end_us;
        }
    }

    /// Times `f` as a span; returns its result and the wall clock in ms.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panicked")
            .clone()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let own = self_times_us(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_us)) in spans.iter().zip(own).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"request\":{},\"self_us\":{}}}",
                chet_hisa::json::escape(&s.name),
                s.start_us,
                s.end_us,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                self_us,
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

/// Sum of self times per span name, largest first (the `--trace` table).
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, usize, f64)> {
    let mut by_name = std::collections::BTreeMap::<&str, (usize, f64)>::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, us))| (n.to_string(), c, us))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            request: Some(1),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0.0, 100.0, None),
            span("submit", 10.0, 30.0, Some(0)),
            // Overlaps `submit` on [20, 30]: the union covers [10, 60].
            span("wait", 20.0, 60.0, Some(0)),
            // A grandchild shortens `wait`, not `request`.
            span("poll", 25.0, 35.0, Some(2)),
            // Sticks out of its parent: only [90, 100] counts.
            span("late", 90.0, 120.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![40.0, 20.0, 30.0, 10.0, 30.0]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        let now = Instant::now();
        assert_eq!(log.record("x", now, now, None, None), None);
        assert_eq!(log.time("y", None, None, || 7).0, 7);
        assert_eq!(log.open("z", None, None), None);
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn parents_and_requests_are_kept() {
        let log = SpanLog::new(true);
        let root = log.open("request", None, Some(9));
        log.time("submit", root, Some(9), || ());
        log.close(root);
        let spans = log.snapshot();
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[0].request, Some(9));
        assert!(spans[0].end_us >= spans[1].end_us);
    }
}
