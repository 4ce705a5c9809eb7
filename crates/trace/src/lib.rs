//! # lddp-trace
//!
//! Zero-dependency structured tracing for the LDDP engines: spans,
//! instant events, monotonic counters and fixed-bucket histograms
//! recorded through a cheap [`TraceSink`] trait, plus two exporters —
//! Chrome trace-event JSON ([`chrome`], loadable in Perfetto or
//! `chrome://tracing`) and a flat JSON-lines metrics dump ([`metrics`]).
//!
//! The design constraint is that *disabled* tracing must cost nothing:
//! every instrumentation site checks [`TraceSink::enabled`] once and
//! takes the untraced path when it returns `false`, so the no-op
//! [`NullSink`] compiles down to a branch that never fires. The
//! collecting [`Recorder`] keeps everything in memory until an exporter
//! serializes a [`TraceData`] snapshot.
//!
//! Timestamps are plain `f64` seconds on whatever clock the emitter
//! uses: the discrete-event simulator feeds *model* time, the thread
//! engine feeds wall time from a run-local epoch. Tracks give each
//! modelled engine its own "process" in the exported timeline (see
//! [`tracks`]).
//!
//! ```
//! use lddp_trace::{Recorder, Span, TraceSink, tracks};
//!
//! let rec = Recorder::new();
//! rec.span(Span::new("wave", tracks::CPU, 0.0, 1e-3).with_arg("cells", 4096u64));
//! rec.count("waves", 1);
//! rec.observe("wave_span_s", 1e-3);
//! let json = lddp_trace::chrome::to_chrome_json(&rec.snapshot());
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod live;
pub mod metrics;

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Coordinates of a timeline lane: `pid` is the exported "process"
/// (one per modelled engine), `tid` the lane within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Track {
    /// Process id in the exported trace.
    pub pid: u32,
    /// Thread (lane) id within the process.
    pub tid: u32,
}

/// Well-known tracks. One process per modelled engine, so Perfetto
/// groups the lanes the way the paper's figures do.
pub mod tracks {
    use super::Track;

    /// The modelled multicore CPU (model-time spans).
    pub const CPU: Track = Track { pid: 1, tid: 1 };
    /// The modelled GPU.
    pub const GPU: Track = Track { pid: 2, tid: 1 };
    /// The PCIe link between them (boundary copies, setup/teardown).
    pub const LINK: Track = Track { pid: 3, tid: 1 };
    /// Schedule structure: one span per phase (CPU-only ramp, shared…).
    pub const SCHEDULE: Track = Track { pid: 4, tid: 1 };
    /// The parameter tuner (one lane of sweep evaluations).
    pub const TUNER: Track = Track { pid: 5, tid: 1 };

    /// Process id of the wall-clock worker threads of `lddp-parallel`.
    pub const WORKERS_PID: u32 = 6;

    /// Lane of wall-clock worker thread `idx`.
    pub fn worker(idx: usize) -> Track {
        Track {
            pid: WORKERS_PID,
            tid: idx as u32 + 1,
        }
    }

    /// Process id of the `lddp-serve` serving subsystem (wall clock).
    pub const SERVE_PID: u32 = 7;

    /// The serve queue lane: one `serve.queue_wait` span per request,
    /// from admission to the moment a worker picks it up.
    pub const SERVE_QUEUE: Track = Track {
        pid: SERVE_PID,
        tid: 1,
    };

    /// Lane of serve worker `idx` (batch + solve spans).
    pub fn serve_worker(idx: usize) -> Track {
        Track {
            pid: SERVE_PID,
            tid: idx as u32 + 2,
        }
    }

    /// Human name of a process id, used by the exporters' metadata.
    pub fn process_name(pid: u32) -> &'static str {
        match pid {
            1 => "CPU (model)",
            2 => "GPU (model)",
            3 => "Link (PCIe model)",
            4 => "Schedule",
            5 => "Tuner",
            6 => "Workers (wall clock)",
            7 => "Serve (wall clock)",
            _ => "Track",
        }
    }
}

/// The serve subsystem's span catalog: every span and sample name
/// `lddp-serve` emits into a [`TraceSink`], as constants, so dashboards
/// and tests don't drift from the instrumentation sites (see
/// `docs/SERVING.md` for semantics). Request counts and latency
/// distributions are not traced; they live in the server's `/stats`
/// and `/metrics` views.
pub mod catalog {
    /// Span: request sat in the admission queue (queue lane; args:
    /// `id`, `problem`).
    pub const SPAN_QUEUE_WAIT: &str = "serve.queue_wait";
    /// Span: one batch execution on a worker lane (args: `batch`,
    /// `key`, `cache_hit`).
    pub const SPAN_BATCH: &str = "serve.batch";
    /// Span: one request's solve within a batch (args: `id`,
    /// `problem`, `n`).
    pub const SPAN_SOLVE: &str = "serve.solve";
    /// Span: the once-per-batch parameter resolution (tuner-cache
    /// lookup or sweep) on a worker lane (args: `key`, `cache_hit`).
    pub const SPAN_TUNE: &str = "serve.tune";
    /// Span (zero-duration marker): one brownout-ladder level
    /// transition on the queue lane (args: `from`, `to`).
    pub const SPAN_BROWNOUT: &str = "serve.brownout";
    /// Sample series: queue depth after each admission.
    pub const SMP_QUEUE_DEPTH: &str = "serve.queue_depth";
}

/// A typed span/instant argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// A complete (begin+end) span on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (low-cardinality; details go in `args`).
    pub name: String,
    /// Track the span lives on.
    pub track: Track,
    /// Start time, seconds on the emitter's clock.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// A span with no arguments.
    pub fn new(name: impl Into<String>, track: Track, start_s: f64, dur_s: f64) -> Self {
        Span {
            name: name.into(),
            track,
            start_s,
            dur_s,
            args: Vec::new(),
        }
    }

    /// Attaches an argument.
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }

    /// End time, seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }
}

/// A zero-duration marker on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Event name.
    pub name: String,
    /// Track it lives on.
    pub track: Track,
    /// Time, seconds.
    pub t_s: f64,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl InstantEvent {
    /// An instant with no arguments.
    pub fn new(name: impl Into<String>, track: Track, t_s: f64) -> Self {
        InstantEvent {
            name: name.into(),
            track,
            t_s,
            args: Vec::new(),
        }
    }

    /// Attaches an argument.
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

/// One timeline sample of a numeric series (a Chrome `C` event).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Series name.
    pub name: String,
    /// Track (only `pid` matters for counters).
    pub track: Track,
    /// Time, seconds.
    pub t_s: f64,
    /// Sampled value.
    pub value: f64,
}

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper bound
/// of bucket `i`; one overflow bucket catches the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: f64,
    /// Number of recorded values.
    pub count: u64,
}

impl Histogram {
    /// A histogram with the given (strictly increasing) upper bounds.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            count: 0,
        }
    }

    /// Exponential bounds `start, start*factor, …` (`count` of them).
    pub fn exponential(start: f64, factor: f64, count: usize) -> Self {
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        Histogram::with_bounds(bounds)
    }

    /// The default latency histogram: 1 ns … ≈17 s, factor 4.
    pub fn default_seconds() -> Self {
        Histogram::exponential(1e-9, 4.0, 18)
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` clamped to 0..=1) from the bucket
    /// counts: the inclusive upper bound of the bucket holding the
    /// rank. Overflow-bucket ranks report the last finite bound (the
    /// histogram does not track an exact max). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound_idx = idx.min(self.bounds.len().saturating_sub(1));
                return self.bounds.get(bound_idx).copied().unwrap_or(0.0);
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// The cheap recording interface every engine emits through.
///
/// All methods take `&self` so one sink can be shared across call
/// sites; implementations provide their own interior mutability.
/// Instrumentation sites must check [`TraceSink::enabled`] before doing
/// any work (clock reads, allocation) purely for tracing — that is the
/// contract that makes [`NullSink`] free.
pub trait TraceSink {
    /// Whether events will be kept. Sites skip instrumentation work
    /// entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records a complete span.
    fn span(&self, span: Span);

    /// Records an instant event.
    fn instant(&self, event: InstantEvent);

    /// Increments a monotonic counter.
    fn count(&self, name: &str, delta: u64);

    /// Records one timeline sample of a numeric series.
    fn sample(&self, track: Track, name: &str, t_s: f64, value: f64);

    /// Records a value into the named histogram (default bucket bounds
    /// unless the sink was configured otherwise).
    fn observe(&self, name: &str, value: f64);
}

/// The sink that keeps nothing. [`TraceSink::enabled`] returns `false`,
/// so instrumented code skips its tracing work entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn span(&self, _span: Span) {}
    fn instant(&self, _event: InstantEvent) {}
    fn count(&self, _name: &str, _delta: u64) {}
    fn sample(&self, _track: Track, _name: &str, _t_s: f64, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
}

/// Everything a [`Recorder`] collected, ready for an exporter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Spans in emission order.
    pub spans: Vec<Span>,
    /// Instant events in emission order.
    pub instants: Vec<InstantEvent>,
    /// Counter samples in emission order.
    pub samples: Vec<CounterSample>,
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl TraceData {
    /// Total busy seconds of spans on `track`.
    pub fn track_busy_s(&self, track: Track) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.track == track)
            .map(|s| s.dur_s)
            .sum()
    }

    /// Spans with the given name, in emission order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    data: TraceData,
}

/// The collecting sink: keeps every event in memory, hands out
/// [`TraceData`] snapshots for export.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// An empty recorder with default histogram bounds.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Pre-registers a histogram with explicit bucket bounds (otherwise
    /// the first [`TraceSink::observe`] creates it with
    /// [`Histogram::default_seconds`]).
    pub fn register_histogram(&self, name: &str, bounds: Vec<f64>) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .data
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds));
    }

    /// A deep copy of everything recorded so far.
    pub fn snapshot(&self) -> TraceData {
        self.inner.lock().unwrap().data.clone()
    }

    /// Consumes the recorder, returning the collected data.
    pub fn into_data(self) -> TraceData {
        self.inner.into_inner().unwrap().data
    }
}

impl TraceSink for Recorder {
    fn span(&self, span: Span) {
        self.inner.lock().unwrap().data.spans.push(span);
    }

    fn instant(&self, event: InstantEvent) {
        self.inner.lock().unwrap().data.instants.push(event);
    }

    fn count(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.data.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.data.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn sample(&self, track: Track, name: &str, t_s: f64, value: f64) {
        self.inner.lock().unwrap().data.samples.push(CounterSample {
            name: name.to_string(),
            track,
            t_s,
            value,
        });
    }

    fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .data
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::default_seconds)
            .record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        // All calls are no-ops (and must not panic).
        NullSink.span(Span::new("x", tracks::CPU, 0.0, 1.0));
        NullSink.count("c", 3);
        NullSink.observe("h", 0.5);
    }

    #[test]
    fn recorder_collects_everything() {
        let rec = Recorder::new();
        assert!(rec.enabled());
        rec.span(Span::new("a", tracks::CPU, 0.0, 1.0).with_arg("cells", 7usize));
        rec.span(Span::new("b", tracks::GPU, 1.0, 2.0));
        rec.instant(InstantEvent::new("mark", tracks::TUNER, 0.5).with_arg("v", 1.5));
        rec.count("waves", 2);
        rec.count("waves", 3);
        rec.sample(tracks::LINK, "bytes", 0.1, 64.0);
        rec.observe("lat", 1e-6);
        rec.observe("lat", 1e-3);
        let data = rec.snapshot();
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.instants.len(), 1);
        assert_eq!(data.samples.len(), 1);
        assert_eq!(data.counters["waves"], 5);
        let h = &data.histograms["lat"];
        assert_eq!(h.count, 2);
        assert!((h.mean() - (1e-6 + 1e-3) / 2.0).abs() < 1e-12);
        assert!((data.track_busy_s(tracks::CPU) - 1.0).abs() < 1e-12);
        assert_eq!(data.spans_named("b").count(), 1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1, 1]);
        assert_eq!(h.count, 5);
        // Boundary values land in the lower bucket (inclusive bound).
        let mut h2 = Histogram::with_bounds(vec![1.0]);
        h2.record(1.0);
        assert_eq!(h2.counts, vec![1, 0]);
    }

    #[test]
    fn exponential_bounds_cover_wide_range() {
        let h = Histogram::default_seconds();
        assert_eq!(h.bounds.len(), 18);
        assert!(h.bounds[0] == 1e-9);
        assert!(*h.bounds.last().unwrap() > 10.0);
    }

    #[test]
    fn explicit_histogram_bounds_are_respected() {
        let rec = Recorder::new();
        rec.register_histogram("w", vec![0.1, 0.2]);
        rec.observe("w", 0.15);
        let data = rec.snapshot();
        assert_eq!(data.histograms["w"].counts, vec![0, 1, 0]);
    }

    #[test]
    fn worker_tracks_are_distinct() {
        assert_ne!(tracks::worker(0), tracks::worker(1));
        assert_eq!(tracks::worker(0).pid, tracks::WORKERS_PID);
        assert_eq!(tracks::process_name(1), "CPU (model)");
    }
}
