//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end, the span
//! that caused it, and the id of the workload operation it belongs to.
//! Spans are kept in memory and written out once, at exit; a disabled
//! recorder runs the wrapped call and records nothing, so the untraced
//! run pays no tracing cost.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, `0` for a root.
    pub parent: u64,
    /// Workload operation shared by every span of one request.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span sink shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` of operation `op`, nested
    /// under `parent` (`0` for a root). `f` receives the new span's id,
    /// to parent its own children.
    pub fn span<T>(&self, name: &'static str, op: u64, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns: start,
                end_ns: end.max(start),
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }

    /// Self time (duration minus the time its children cover) of every
    /// span as `(op, seconds)`, grouped by span name in recording order.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<(u64, f64)>> {
        let spans = self.spans();
        let mut child_secs: HashMap<u64, f64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_secs.entry(s.parent).or_default() += s.secs();
        }
        let mut out: BTreeMap<&'static str, Vec<(u64, f64)>> = BTreeMap::new();
        for s in &spans {
            let own = s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
            out.entry(s.name).or_default().push((s.op, own.max(0.0)));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
