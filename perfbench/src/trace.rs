//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions: nothing inside the program is changed.
//! Each span has a name, a start and an end (ns since the recorder was made),
//! the span that caused it, and a work count (characters fed, lanes stepped,
//! interpreter instructions, ...) so that ratios are taken where the work
//! happens. The whole set is written out as JSON lines when the run ends.
//!
//! A disabled recorder records nothing; the untraced run uses one, so its
//! end-to-end timings carry no tracing cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` when the recorder is off.
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    count: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans of this name.
    pub spans: u64,
    /// Summed duration in ns.
    pub ns: u64,
    /// Summed work count.
    pub count: u64,
}

impl Totals {
    /// Mean span duration in µs (0 when there are no spans).
    pub fn mean_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.ns as f64 / 1e3 / self.spans as f64
        }
    }

    /// Mean span duration in ms (0 when there are no spans).
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }

    /// Summed duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// The span recorder (see the module docs).
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switch recording on or off (the traced run alternates, to measure the
    /// recorder's own cost).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled() {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            count: 0,
        });
        Some(spans.len() - 1)
    }

    /// Close a span, attaching its work count.
    pub fn end(&self, id: SpanId, count: u64) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans[id].end_ns = end_ns;
        spans[id].count = count;
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so it
    /// can open children.
    pub fn scope<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id, 0);
        out
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in spans.iter() {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.ns += s.end_ns - s.start_ns;
            t.count += s.count;
        }
        out
    }

    /// Write every span as one JSON line:
    /// `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…,"count":…}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}
