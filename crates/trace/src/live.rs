//! Live telemetry: always-on, bounded-memory instruments for a running
//! server, as opposed to the snapshot-and-export [`Recorder`](crate::Recorder) layer.
//!
//! The offline layer ([`Recorder`](crate::Recorder) → [`chrome`](crate::chrome) /
//! [`metrics`](crate::metrics)) keeps *every* event in memory until an
//! exporter drains it — ideal for a bounded run, fatal for a server
//! handling live traffic. This module provides the complementary live
//! layer, all of it O(1) in request count:
//!
//! - [`Counter`] — a sharded monotonic `u64` counter (one cache line
//!   per shard, relaxed atomics; increments never contend on a lock).
//! - [`FloatCounter`] — a monotonic `f64` counter (CAS-loop add) for
//!   accumulating seconds of busy time.
//! - [`Gauge`] — a last-write-wins `f64` instantaneous value.
//! - [`HistogramSketch`] — a mergeable log-linear sketch: fixed bucket
//!   array keyed by the sample's binary exponent plus a linear
//!   subdivision, so quantile estimates carry a bounded relative error
//!   ([`SKETCH_RELATIVE_ERROR`], ≤ 3.2%) without storing samples.
//! - [`FlightRecorder`] — a fixed-capacity ring of the most recent
//!   spans/instants, always on, dumpable after the fact (the "what was
//!   the server doing just before the incident" view).
//! - [`LiveRegistry`] — the named-series registry tying them together,
//!   with Prometheus text exposition ([`LiveRegistry::to_prometheus`]).
//!
//! The hot path is lock-free: every instrument hands out `Arc` handles,
//! and recording through a handle touches only atomics. Registration
//! (name → handle lookup) takes a read lock on a `BTreeMap` — callers
//! on latency-critical paths should resolve handles once and keep them.

use crate::{InstantEvent, Span, TraceData};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

// ---- counters ------------------------------------------------------

/// Shards per [`Counter`]. Eight cache lines bound the memory cost
/// while splitting increment traffic across enough lines that worker
/// pools of typical size do not false-share.
const COUNTER_SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a fixed shard by arrival order; round-robin
    /// assignment keeps a worker pool spread across all shards.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

/// A monotonic counter sharded across cache lines: `add` touches one
/// relaxed atomic on the calling thread's shard, `get` sums the shards.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `delta` (lock-free, relaxed).
    pub fn add(&self, delta: u64) {
        let shard = SHARD.with(|s| *s);
        self.shards[shard].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A monotonic `f64` counter (e.g. accumulated busy seconds). Adds are
/// a CAS loop on the value's bit pattern — lock-free, no allocation.
#[derive(Debug, Default)]
pub struct FloatCounter {
    bits: AtomicU64,
}

impl FloatCounter {
    /// A zeroed counter.
    pub fn new() -> FloatCounter {
        FloatCounter::default()
    }

    /// Adds `delta` (negative deltas are ignored: the counter is
    /// monotonic by contract).
    pub fn add(&self, delta: f64) {
        // NaN and non-positive deltas are both ignored: the counter is
        // monotonic by contract.
        if delta.is_nan() || delta <= 0.0 {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// An instantaneous `f64` value (queue depth, breaker state). Writes
/// are last-write-wins relaxed stores.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// ---- histogram sketch ----------------------------------------------

/// Linear subdivisions per power of two. Sixteen keeps the relative
/// quantile error under 1/32 while the whole sketch stays ~8 KiB.
const SUBBUCKETS: usize = 16;
/// Smallest binary exponent with its own buckets (≈ 9.3e-10); values
/// below land in the first range bucket.
const MIN_EXP: i64 = -30;
/// Largest binary exponent with its own buckets (≈ 1.7e10); values
/// above land in the overflow bucket.
const MAX_EXP: i64 = 33;
const RANGE_BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUBBUCKETS;
/// Bucket 0 holds zero/negative/non-finite samples; the last bucket is
/// overflow.
const NUM_BUCKETS: usize = RANGE_BUCKETS + 2;

/// Worst-case relative error of [`HistogramSketch::quantile`] for
/// positive samples inside the sketch range: a bucket spans
/// `2^e/16`, the estimate is its midpoint, so the estimate is within
/// `1/32` (3.125%) of any sample in the bucket.
pub const SKETCH_RELATIVE_ERROR: f64 = 1.0 / (2.0 * SUBBUCKETS as f64);

/// Bucket index of a sample, derived from the `f64` bit pattern: the
/// biased exponent picks the octave, the top four mantissa bits pick
/// the linear sub-bucket. No floating-point math on the hot path.
fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if exp < MIN_EXP {
        return 1;
    }
    if exp > MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    let sub = ((bits >> 48) & 0xf) as usize;
    1 + (exp - MIN_EXP) as usize * SUBBUCKETS + sub
}

/// Midpoint representative of a bucket (what quantile estimates
/// report).
fn bucket_mid(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    if idx >= NUM_BUCKETS - 1 {
        return (2f64).powi((MAX_EXP + 1) as i32);
    }
    let (exp, sub) = ((idx - 1) / SUBBUCKETS, (idx - 1) % SUBBUCKETS);
    let base = (2f64).powi((MIN_EXP + exp as i64) as i32);
    base * (1.0 + (sub as f64 + 0.5) / SUBBUCKETS as f64)
}

/// Exclusive upper bound of a bucket (Prometheus `le` labels).
fn bucket_upper(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    if idx >= NUM_BUCKETS - 1 {
        return f64::INFINITY;
    }
    let (exp, sub) = ((idx - 1) / SUBBUCKETS, (idx - 1) % SUBBUCKETS);
    let base = (2f64).powi((MIN_EXP + exp as i64) as i32);
    base * (1.0 + (sub as f64 + 1.0) / SUBBUCKETS as f64)
}

/// A mergeable log-linear histogram sketch: fixed memory (~8 KiB),
/// lock-free recording, quantile estimation with relative error
/// bounded by [`SKETCH_RELATIVE_ERROR`] — no samples stored.
///
/// Buckets subdivide each power of two into [`SUBBUCKETS`] linear
/// steps across `2^-30 ..= 2^33` (≈ 1 ns to ≈ 500 years when samples
/// are seconds). Zero/negative/non-finite samples count in a dedicated
/// bucket whose representative is 0.
pub struct HistogramSketch {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    /// Exact maximum, tracked as a bit-pattern `fetch_max` (valid for
    /// non-negative floats, whose IEEE-754 order matches integer
    /// order).
    max_bits: AtomicU64,
}

impl std::fmt::Debug for HistogramSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSketch")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for HistogramSketch {
    fn default() -> Self {
        HistogramSketch::new()
    }
}

impl HistogramSketch {
    /// An empty sketch.
    pub fn new() -> HistogramSketch {
        let counts: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        HistogramSketch {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    /// Records one sample (lock-free).
    pub fn observe(&self, v: f64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() && v > 0.0 {
            self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of positive finite samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact largest positive sample seen (0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`q` clamped to 0..=1): the midpoint of
    /// the bucket holding the rank, clamped to the exact tracked
    /// maximum so estimates never exceed an observed value's ceiling.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0.0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // Rank of the target sample among `total`, 1-based.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for idx in 0..NUM_BUCKETS {
            seen += self.counts[idx].load(Ordering::Relaxed);
            if seen >= rank {
                if idx == NUM_BUCKETS - 1 {
                    // Overflow bucket: the exact max is the only
                    // representative we have.
                    return self.max();
                }
                return bucket_mid(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Folds another sketch into this one (bucket-wise add; the exact
    /// max is the max of both).
    pub fn merge(&self, other: &HistogramSketch) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_bits
            .fetch_max(other.max_bits.load(Ordering::Relaxed), Ordering::Relaxed);
        let add = other.sum();
        if add > 0.0 {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + add).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs in
    /// ascending order, ending with `(+Inf, total)` — the Prometheus
    /// `_bucket` series. The zero/negative bucket reports upper bound 0.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for idx in 0..NUM_BUCKETS {
            let c = self.counts[idx].load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                if idx < NUM_BUCKETS - 1 {
                    out.push((bucket_upper(idx), cum));
                }
            }
        }
        out.push((f64::INFINITY, cum));
        out
    }
}

// ---- flight recorder -----------------------------------------------

/// Default number of events a [`FlightRecorder`] retains.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// One retained flight-recorder event.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A complete span.
    Span(Span),
    /// An instant marker.
    Instant(InstantEvent),
}

impl FlightEvent {
    /// Event name.
    pub fn name(&self) -> &str {
        match self {
            FlightEvent::Span(s) => &s.name,
            FlightEvent::Instant(e) => &e.name,
        }
    }

    /// End time (instants end when they happen), seconds on the
    /// emitter's clock.
    pub fn end_s(&self) -> f64 {
        match self {
            FlightEvent::Span(s) => s.end_s(),
            FlightEvent::Instant(e) => e.t_s,
        }
    }
}

/// A fixed-capacity ring of the most recent spans/instants: always on,
/// bounded memory, oldest events overwritten first. The write path
/// takes a short mutex (spans are emitted a handful of times per
/// request, not per cell); counters and histograms — the truly hot
/// instruments — never touch it.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<VecDeque<FlightEvent>>,
    capacity: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A ring retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
        }
    }

    /// Retention capacity, events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, event: FlightEvent) {
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Records a span.
    pub fn record_span(&self, span: Span) {
        self.push(FlightEvent::Span(span));
    }

    /// Records an instant.
    pub fn record_instant(&self, event: InstantEvent) {
        self.push(FlightEvent::Instant(event));
    }

    /// The retained events in recording order (oldest first).
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The retained events whose end time is at or after `min_end_s`,
    /// as a [`TraceData`] ready for
    /// [`chrome::to_chrome_json`](crate::chrome::to_chrome_json). Pass `f64::NEG_INFINITY` for everything.
    pub fn snapshot_since(&self, min_end_s: f64) -> TraceData {
        let mut data = TraceData::default();
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for ev in ring.iter() {
            if ev.end_s() < min_end_s {
                continue;
            }
            match ev {
                FlightEvent::Span(s) => data.spans.push(s.clone()),
                FlightEvent::Instant(e) => data.instants.push(e.clone()),
            }
        }
        data
    }
}

// ---- registry ------------------------------------------------------

/// A fully-qualified series: metric family plus its label set, in
/// emission order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    family: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(family: &str, labels: &[(&str, &str)]) -> SeriesKey {
        SeriesKey {
            family: family.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// The live-telemetry registry: named counters, gauges and histogram
/// sketches plus one [`FlightRecorder`], exposable as Prometheus text.
///
/// Handle resolution (`counter`/`gauge`/`histogram`) takes a read lock
/// and returns an `Arc` — resolve once on setup paths, record through
/// the handle on hot paths.
#[derive(Debug)]
pub struct LiveRegistry {
    counters: RwLock<BTreeMap<SeriesKey, Arc<Counter>>>,
    fcounters: RwLock<BTreeMap<SeriesKey, Arc<FloatCounter>>>,
    gauges: RwLock<BTreeMap<SeriesKey, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<SeriesKey, Arc<HistogramSketch>>>,
    help: RwLock<BTreeMap<String, String>>,
    flight: FlightRecorder,
}

impl Default for LiveRegistry {
    fn default() -> Self {
        LiveRegistry::new()
    }
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<SeriesKey, Arc<T>>>, key: SeriesKey) -> Arc<T> {
    if let Some(found) = map.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return Arc::clone(found);
    }
    let mut write = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(write.entry(key).or_default())
}

impl LiveRegistry {
    /// An empty registry with the default flight-recorder capacity.
    pub fn new() -> LiveRegistry {
        LiveRegistry::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// An empty registry whose flight recorder retains `capacity`
    /// events.
    pub fn with_flight_capacity(capacity: usize) -> LiveRegistry {
        LiveRegistry {
            counters: RwLock::new(BTreeMap::new()),
            fcounters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            help: RwLock::new(BTreeMap::new()),
            flight: FlightRecorder::new(capacity),
        }
    }

    fn note_help(&self, family: &str, help: &str) {
        if help.is_empty() {
            return;
        }
        let mut map = self.help.write().unwrap_or_else(|e| e.into_inner());
        map.entry(family.to_string())
            .or_insert_with(|| help.to_string());
    }

    /// The counter for `family` + `labels`, created on first use.
    pub fn counter(&self, family: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        self.note_help(family, help);
        get_or_create(&self.counters, SeriesKey::new(family, labels))
    }

    /// The float counter for `family` + `labels`, created on first use.
    pub fn fcounter(&self, family: &str, labels: &[(&str, &str)], help: &str) -> Arc<FloatCounter> {
        self.note_help(family, help);
        get_or_create(&self.fcounters, SeriesKey::new(family, labels))
    }

    /// The gauge for `family` + `labels`, created on first use.
    pub fn gauge(&self, family: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        self.note_help(family, help);
        get_or_create(&self.gauges, SeriesKey::new(family, labels))
    }

    /// The histogram sketch for `family` + `labels`, created on first
    /// use.
    pub fn histogram(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<HistogramSketch> {
        self.note_help(family, help);
        get_or_create(&self.histograms, SeriesKey::new(family, labels))
    }

    /// The always-on flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Renders every registered series in the Prometheus text
    /// exposition format (version 0.0.4): `# HELP` / `# TYPE` lines per
    /// family, then one sample line per series, label values escaped.
    /// Families are sorted by name; series within a family by label
    /// set. Histograms render cumulative `_bucket{le=…}` lines for
    /// non-empty buckets plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let help = self.help.read().unwrap_or_else(|e| e.into_inner());
        let help_of = |family: &str| -> String { help.get(family).cloned().unwrap_or_default() };
        let mut out = String::with_capacity(4096);

        // family -> (type, rendered series lines)
        let mut families: BTreeMap<String, (&'static str, Vec<String>)> = BTreeMap::new();
        let mut push = |family: &str, kind: &'static str, line: String| {
            families
                .entry(family.to_string())
                .or_insert_with(|| (kind, Vec::new()))
                .1
                .push(line);
        };

        for (key, c) in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let mut line = String::new();
            write_series(
                &mut line,
                &key.family,
                &borrow_labels(&key.labels),
                c.get() as f64,
            );
            push(&key.family, "counter", line);
        }
        for (key, c) in self
            .fcounters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let mut line = String::new();
            write_series(&mut line, &key.family, &borrow_labels(&key.labels), c.get());
            push(&key.family, "counter", line);
        }
        for (key, g) in self.gauges.read().unwrap_or_else(|e| e.into_inner()).iter() {
            let mut line = String::new();
            write_series(&mut line, &key.family, &borrow_labels(&key.labels), g.get());
            push(&key.family, "gauge", line);
        }
        for (key, h) in self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let mut lines = String::new();
            let base = borrow_labels(&key.labels);
            for (upper, cum) in h.cumulative_buckets() {
                let le = fmt_value(upper);
                let mut labels: Vec<(&str, &str)> = base.clone();
                labels.push(("le", &le));
                write_series(
                    &mut lines,
                    &format!("{}_bucket", key.family),
                    &labels,
                    cum as f64,
                );
            }
            write_series(&mut lines, &format!("{}_sum", key.family), &base, h.sum());
            write_series(
                &mut lines,
                &format!("{}_count", key.family),
                &base,
                h.count() as f64,
            );
            // Trailing newline is re-added per line by write_series;
            // strip the final one so the Vec join below stays uniform.
            push(&key.family, "histogram", lines.trim_end().to_string());
        }

        for (family, (kind, lines)) in &families {
            let h = help_of(family);
            if !h.is_empty() {
                out.push_str("# HELP ");
                out.push_str(family);
                out.push(' ');
                out.push_str(&h.replace('\\', "\\\\").replace('\n', "\\n"));
                out.push('\n');
            }
            out.push_str("# TYPE ");
            out.push_str(family);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            for line in lines {
                out.push_str(line.trim_end());
                out.push('\n');
            }
        }
        out
    }
}

fn borrow_labels(labels: &[(String, String)]) -> Vec<(&str, &str)> {
    labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

// ---- exposition helpers --------------------------------------------

/// Escapes a Prometheus label value (`\`, `"`, newline).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value the way Prometheus text exposition expects
/// (`+Inf`/`-Inf` for infinities, shortest-round-trip otherwise).
pub fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        crate::json::num(v)
    }
}

/// Appends one `name{labels} value` exposition line to `out`.
pub fn write_series(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_value(value));
    out.push('\n');
}

/// Appends `# HELP` / `# TYPE` lines for a family rendered outside the
/// registry (values computed at scrape time).
pub fn write_family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Parses Prometheus text exposition into `(series, value)` pairs,
/// where `series` is the full `name{labels}` string. Comment and blank
/// lines are skipped; unparsable values are dropped. This is the
/// scrape side used by the load generator's before/after delta.
pub fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(split) = line.rfind(' ') else {
            continue;
        };
        let (series, value) = line.split_at(split);
        let value = value.trim();
        let parsed = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => match v.parse::<f64>() {
                Ok(f) => f,
                Err(_) => continue,
            },
        };
        out.push((series.trim().to_string(), parsed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracks;

    #[test]
    fn concurrent_counter_increments_total_correctly() {
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per = 10_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per);
    }

    #[test]
    fn float_counter_accumulates_and_ignores_nonpositive() {
        let c = FloatCounter::new();
        c.add(0.5);
        c.add(1.25);
        c.add(-3.0);
        c.add(f64::NAN);
        assert!((c.get() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(42.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn sketch_quantiles_match_exact_within_documented_error() {
        let sketch = HistogramSketch::new();
        // Latency-shaped samples spanning three decades: 1 ms … 1 s.
        let mut exact: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for &v in &exact {
            sketch.observe(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = sketch.quantile(q);
            let rel = (est - truth).abs() / truth;
            assert!(
                rel <= SKETCH_RELATIVE_ERROR + 1e-9,
                "q={q}: est {est} vs exact {truth} (rel {rel})"
            );
        }
        assert_eq!(sketch.count(), 1000);
        assert!((sketch.max() - 1.0).abs() < 1e-12);
        assert!((sketch.sum() - exact.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn sketch_concurrent_observes_keep_count() {
        let sketch = Arc::new(HistogramSketch::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let sk = Arc::clone(&sketch);
                s.spawn(move || {
                    for i in 0..5_000 {
                        sk.observe((t * 5_000 + i) as f64 * 1e-6 + 1e-6);
                    }
                });
            }
        });
        assert_eq!(sketch.count(), 20_000);
    }

    #[test]
    fn sketch_handles_degenerate_samples_and_empty() {
        let sketch = HistogramSketch::new();
        assert_eq!(sketch.quantile(0.5), 0.0);
        sketch.observe(0.0);
        sketch.observe(-3.0);
        sketch.observe(f64::NAN);
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.quantile(0.5), 0.0);
        sketch.observe(1e300); // overflow bucket, clamped to exact max
        assert_eq!(sketch.quantile(1.0), 1e300);
    }

    #[test]
    fn sketch_merge_folds_counts_and_max() {
        let a = HistogramSketch::new();
        let b = HistogramSketch::new();
        for i in 1..=100 {
            a.observe(i as f64 * 1e-3);
            b.observe(i as f64 * 1e-2);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert!((a.max() - 1.0).abs() < 1e-12);
        let p100 = a.quantile(1.0);
        assert!((p100 - 1.0).abs() / 1.0 <= SKETCH_RELATIVE_ERROR + 1e-9);
    }

    #[test]
    fn flight_ring_overwrites_oldest_first() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record_span(Span::new(format!("s{i}"), tracks::CPU, i as f64, 0.5));
        }
        assert_eq!(fr.len(), 3);
        let names: Vec<String> = fr.events().iter().map(|e| e.name().to_string()).collect();
        assert_eq!(names, vec!["s2", "s3", "s4"], "oldest events dropped first");
    }

    #[test]
    fn flight_snapshot_filters_by_end_time() {
        let fr = FlightRecorder::new(16);
        fr.record_span(Span::new("old", tracks::CPU, 0.0, 1.0));
        fr.record_instant(InstantEvent::new("mark", tracks::CPU, 5.0));
        fr.record_span(Span::new("new", tracks::CPU, 9.0, 1.0));
        let all = fr.snapshot_since(f64::NEG_INFINITY);
        assert_eq!(all.spans.len(), 2);
        assert_eq!(all.instants.len(), 1);
        let recent = fr.snapshot_since(4.0);
        assert_eq!(recent.spans.len(), 1);
        assert_eq!(recent.spans[0].name, "new");
        assert_eq!(recent.instants.len(), 1);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let reg = LiveRegistry::new();
        let a = reg.counter("lddp_test_total", &[("k", "v")], "help");
        let b = reg.counter("lddp_test_total", &[("k", "v")], "");
        a.add(3);
        assert_eq!(b.get(), 3);
        let other = reg.counter("lddp_test_total", &[("k", "w")], "");
        assert_eq!(other.get(), 0);
    }

    /// The golden exposition test: exact HELP/TYPE lines, label
    /// escaping, histogram bucket/sum/count structure.
    #[test]
    fn prometheus_exposition_format_is_golden() {
        let reg = LiveRegistry::new();
        reg.counter("lddp_requests_total", &[("code", "ok")], "Requests served.")
            .add(5);
        reg.counter("lddp_requests_total", &[("code", "err")], "")
            .add(2);
        reg.gauge("lddp_queue_depth", &[], "Jobs queued.").set(7.0);
        reg.counter(
            "lddp_weird_total",
            &[("path", "a\\b\"c\nd")],
            "Escaping test.",
        )
        .inc();
        let h = reg.histogram("lddp_latency_seconds", &[], "Latency.");
        h.observe(0.5);
        h.observe(0.5);
        h.observe(2.0);

        let text = reg.to_prometheus();
        assert!(text.contains("# HELP lddp_requests_total Requests served.\n"));
        assert!(text.contains("# TYPE lddp_requests_total counter\n"));
        assert!(text.contains("lddp_requests_total{code=\"ok\"} 5\n"));
        assert!(text.contains("lddp_requests_total{code=\"err\"} 2\n"));
        assert!(text.contains("# TYPE lddp_queue_depth gauge\n"));
        assert!(text.contains("lddp_queue_depth 7\n"));
        assert!(
            text.contains("lddp_weird_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "label escaping: {text}"
        );
        assert!(text.contains("# TYPE lddp_latency_seconds histogram\n"));
        assert!(text.contains("lddp_latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lddp_latency_seconds_count 3\n"));
        assert!(text.contains("lddp_latency_seconds_sum 3\n"));
        // Cumulative: the 0.5 bucket holds two samples before +Inf.
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lddp_latency_seconds_bucket"))
            .collect();
        assert!(bucket_lines.len() >= 2);
        assert!(bucket_lines[0].ends_with(" 2"), "{bucket_lines:?}");

        // And it parses back.
        let parsed = parse_prometheus(&text);
        let find = |name: &str| {
            parsed
                .iter()
                .find(|(s, _)| s == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {name} in {parsed:?}"))
        };
        assert_eq!(find("lddp_requests_total{code=\"ok\"}"), 5.0);
        assert_eq!(find("lddp_queue_depth"), 7.0);
        assert_eq!(find("lddp_latency_seconds_count"), 3.0);
    }

    #[test]
    fn help_and_type_precede_series_lines() {
        let reg = LiveRegistry::new();
        reg.counter("lddp_a_total", &[], "A.").inc();
        let text = reg.to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help = lines
            .iter()
            .position(|l| l.starts_with("# HELP lddp_a_total"));
        let ty = lines
            .iter()
            .position(|l| l.starts_with("# TYPE lddp_a_total"));
        let series = lines.iter().position(|l| *l == "lddp_a_total 1");
        assert!(help < ty && ty < series, "{lines:?}");
    }

    #[test]
    fn parse_prometheus_skips_comments_and_garbage() {
        let text = "# HELP x y\n# TYPE x counter\nx 3\nnot-a-line\nbad value\n\ny{a=\"b\"} 4.5\ninf_series +Inf\n";
        let parsed = parse_prometheus(text);
        assert!(parsed.contains(&("x".to_string(), 3.0)));
        assert!(parsed.contains(&("y{a=\"b\"}".to_string(), 4.5)));
        assert!(parsed
            .iter()
            .any(|(s, v)| s == "inf_series" && v.is_infinite()));
        assert!(!parsed.iter().any(|(s, _)| s == "not-a-line"));
    }
}
