//! Spans around every call the benchmark makes into a layer's public API.
//!
//! Every call is timed the same way whether tracing is on or off (two
//! `Instant` reads), so end-to-end figures come from the same clock in
//! both modes. With tracing on, each call also leaves a [`Span`] record
//! — name, start, end, parent span and request id — kept in memory and
//! written out as JSON lines when the run ends. A layer's self time is a
//! span's duration minus the part its child spans cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    id: u64,
    /// Id of the enclosing span, `0` for a root.
    parent: u64,
    /// Request the call served, `0` outside client requests.
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

thread_local! {
    /// Open spans on this thread, innermost last: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    /// Parent for work a server thread does on behalf of the innermost
    /// open span of the client thread (the `EngineSource` load behind a
    /// `Reload`).
    handed_off: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `enabled == false` calls are only timed.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            handed_off: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Times `f` as span `name` under the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.record(name, None, None, f)
    }

    /// Times `f` as span `name`, the root of client request `req`.
    pub fn request<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        self.record(name, None, Some(req), f)
    }

    /// Makes the innermost open span on this thread the parent of the
    /// next [`Tracer::span_handed_off`] call on any thread.
    pub fn hand_off(&self) {
        if self.enabled {
            let top = OPEN.with(|o| o.borrow().last().copied()).unwrap_or((0, 0));
            *self.handed_off.lock().expect("tracer lock poisoned") = top;
        }
    }

    /// Times `f` as span `name` under the span last handed off.
    pub fn span_handed_off<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let parent = self
            .enabled
            .then(|| *self.handed_off.lock().expect("tracer lock poisoned"));
        self.record(name, parent, None, f)
    }

    fn record<T>(
        &self,
        name: &'static str,
        parent: Option<(u64, u64)>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, inherited) = parent
            .or_else(|| OPEN.with(|o| o.borrow().last().copied()))
            .unwrap_or((0, 0));
        let req = req.unwrap_or(inherited);
        OPEN.with(|o| o.borrow_mut().push((id, req)));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|o| o.borrow_mut().pop());
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        self.spans.lock().expect("tracer lock poisoned").push(Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (out, end - start)
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    /// Self times in seconds, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter() {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            out.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Median (mean of the middle two for an even count); `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `p` (0–100); `0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}
