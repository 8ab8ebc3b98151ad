//! # xic-obs — observability for the xic validation stack
//!
//! A lightweight span/counter layer threaded through the whole pipeline
//! (`xic-xml` → `xic-validate` → `xic-implication` → the CLI) so a run is
//! no longer a black box: where did the time go (parse? column
//! extraction? which constraint kind?), how much work was done (nodes,
//! attributes, entity expansions, chase steps), and how busy were the
//! parallel stages (per-chunk timings, stream-pipeline occupancy, peak
//! in-flight frames)?
//!
//! The design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Instrumented code holds an [`Obs`]
//!    handle — a pointer-sized `Option`. While it is [`Obs::off`] (the
//!    default everywhere), every instrumentation point is one untaken
//!    branch: no clock is read, no atomic touched, nothing allocated.
//!    E14 (see `EXPERIMENTS.md`) keeps the disabled-handle overhead of
//!    the full validation pipeline within measurement noise (&lt; 2 %).
//! 2. **No dependencies.** Timing is [`std::time::Instant`], aggregation
//!    is a mutex around two B-tree maps, counters flush in batches. No
//!    `tracing`, no `serde`; the JSON codec for [`Metrics`] is ~100 lines
//!    in this crate.
//! 3. **Off the hot path even when enabled.** Instrumentation points sit
//!    at *phase*, *constraint*, *chunk* and *edit* granularity — never
//!    per node or per event. Per-item totals (nodes, attributes, XML
//!    events) are accumulated in plain local fields by the code that
//!    already owns a loop over them and recorded once at the end.
//!
//! ## Using it
//!
//! Everything starts from a [`Collector`] — usually a
//! [`MetricsCollector`] — wrapped in an [`Obs`] handle and handed to the
//! component under observation:
//!
//! ```
//! use xic_obs::{MetricsCollector, Obs};
//!
//! let collector = MetricsCollector::shared();
//! let obs = Obs::new(collector.clone());
//!
//! {
//!     let _guard = obs.span("check"); // records on drop
//!     obs.add("nodes", 10_001);
//! }
//!
//! let m = collector.snapshot();
//! assert_eq!(m.counter("nodes"), 10_001);
//! assert_eq!(m.span("check").count, 1);
//! assert!(m.wall_nanos >= m.span("check").nanos);
//! ```
//!
//! The resulting [`Metrics`] snapshot serializes to a stable, key-ordered
//! JSON document ([`Metrics::to_json`] / [`Metrics::parse_json`]) and a
//! human-readable table ([`Metrics::to_text`]); the `xic` CLI surfaces
//! both through `--metrics text|json`.
//!
//! ## Span taxonomy
//!
//! Span and counter names are dotted, lower-case, and stable — they are
//! part of the CLI's JSON output. The validation stack uses:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `parse` | span | producing the document: tree parse, or the fused streaming pass |
//! | `structure` | span | Definition 2.4 clauses 1–3 (streaming: the deferred node-order sort) |
//! | `plan` | span | extent/column extraction (`DocIndex` build) |
//! | `check` | span | constraint checking over the planned columns |
//! | `check.key` … `check.inverse_id` | span | per-constraint-kind share of `check` |
//! | `merge` | span | concatenating per-constraint violation lists in Σ order |
//! | `par.constraint`, `par.chunk` | span | one parallel task at each fan-out grain |
//! | `stream.apply`, `stream.recv_wait` | span | pipeline occupancy: consumer work vs. waiting on the lexer thread |
//! | `edit.batch` | span | one `LiveValidator::apply_batch` call (a single edit is a one-edit batch) |
//! | `implication.query`, `chase` | span | one implication query / chase run |
//! | `nodes`, `attrs`, `violations` | counter | document totals per run |
//! | `xml.events`, `xml.entity_expansions` | counter | lexer/parser totals |
//! | `stream.batches`, `par.tasks`, `edits` | counter | work items per run |
//! | `violations.raised`, `violations.cleared` | counter | `ReportDiff` totals across edits |
//! | `implication.rules`, `chase.steps` | counter | proof-rule applications / chase firings |
//! | `stream.peak_depth` | maximum | peak in-flight element frames (streaming) |
//! | `alloc.count` | counter | heap acquisitions process-wide (binaries installing the [`alloc`] hooks) |
//! | `alloc.peak` | maximum | peak live heap bytes process-wide (same condition) |
//!
//! ## Tracing
//!
//! Setting the `XIC_TRACE` environment variable makes the CLI's collector
//! echo every matching span to stderr as it closes (`XIC_TRACE=1` for
//! everything, or a comma-separated list of name prefixes such as
//! `XIC_TRACE=check,edit`). Each line carries the originating thread's
//! first-seen ordinal and the span's start offset from collector
//! creation — `[xic-trace] t2 +14.103ms par.chunk 3.220ms` — so
//! interleaved parallel spans stay attributable. See [`TraceFilter`].
//!
//! ## Distributions, timelines, scraping
//!
//! Beyond span *sums*, three surfaces answer tail and timeline questions:
//!
//! - **Histograms** ([`Histogram`]): span families opted in via
//!   [`MetricsCollector::with_histograms`] record log₂-bucketed latency
//!   distributions, surfaced as p50/p95/p99/max in [`Metrics`], its JSON
//!   and text renderings, and the CLI's `--metrics`.
//! - **Timelines** ([`TraceCollector`]): a bounded ring of raw span
//!   events (name, thread, start, duration) exporting Chrome
//!   trace-event JSON for `chrome://tracing` / Perfetto (`--trace-out`).
//!   Combine with a [`MetricsCollector`] under a [`Fanout`].
//! - **Scraping** ([`Metrics::to_prometheus`]): Prometheus text
//!   exposition of counters, maxima, span sums and histogram buckets,
//!   served live by `xic serve` at `GET /metrics`.
//! - **Request scoping** ([`request_scope`] / [`current_request`]): a
//!   thread-local request id tags every span a [`TraceCollector`]
//!   records while the scope is held, so one request's span tree (queue
//!   wait → route → shard dispatch → `edit.batch` → `wal.append`) can
//!   be stitched back together from the shared ring — drained live by
//!   `xic serve` at `GET /trace`.
//! - **Access logs** ([`AccessLog`] / [`AccessRecord`]): one compact
//!   JSON line per served request (id, doc, route, status, bytes,
//!   queue-wait and handler latency), sampled N:1 under load
//!   (`xic serve --access-log`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
pub mod alloc;
mod histogram;
pub mod json;
mod metrics;
mod prom;
mod trace;

pub use access::{AccessLog, AccessRecord};
pub use histogram::{bucket_of, bucket_upper, Histogram, BUCKETS};
pub use metrics::{Metrics, SpanStat};
pub use trace::{
    current_request, request_scope, Fanout, RequestScope, TraceCollector, TraceEvent,
    DEFAULT_TRACE_CAPACITY,
};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// A sink for observability events.
///
/// Implementations must be cheap and thread-safe: spans and counters are
/// reported from parallel validation workers. The provided
/// [`Collector::metrics`] hook lets aggregating collectors surface a
/// [`Metrics`] snapshot through code that only holds the trait object
/// (e.g. to embed metrics in a validation `Report`).
pub trait Collector: Send + Sync {
    /// A span named `name` completed, having taken `nanos` nanoseconds.
    fn record_span(&self, name: &'static str, nanos: u64);

    /// Adds `delta` to the counter named `name`.
    fn add(&self, name: &'static str, delta: u64);

    /// Raises the maximum named `name` to at least `value`.
    fn record_max(&self, name: &'static str, value: u64);

    /// A snapshot of everything recorded so far, if this collector
    /// aggregates (the default implementation returns `None`).
    fn metrics(&self) -> Option<Metrics> {
        None
    }
}

/// The handle instrumented code holds: either off (the default — every
/// operation is one untaken branch) or a shared reference to a
/// [`Collector`].
///
/// `Obs` is deliberately owned and cloneable rather than borrowed, so
/// long-lived components (validators, solvers, live documents) can store
/// it without growing lifetime parameters.
#[derive(Clone, Default)]
pub struct Obs {
    collector: Option<Arc<dyn Collector>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// A handle forwarding to `collector`.
    pub fn new(collector: Arc<dyn Collector>) -> Self {
        Obs {
            collector: Some(collector),
        }
    }

    /// The disabled handle (what `Default` also produces).
    pub fn off() -> Self {
        Obs::default()
    }

    /// Whether a collector is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Starts a span; the returned guard records the elapsed time into
    /// `name` when dropped. When disabled, no clock is read.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            active: self.collector.as_deref().map(|c| (c, name, Instant::now())),
        }
    }

    /// Adds `delta` to the counter `name` (no-op when disabled).
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(c) = self.collector.as_deref() {
            c.add(name, delta);
        }
    }

    /// Raises the maximum `name` to at least `value` (no-op when
    /// disabled).
    #[inline]
    pub fn max(&self, name: &'static str, value: u64) {
        if let Some(c) = self.collector.as_deref() {
            c.record_max(name, value);
        }
    }

    /// Records an already-measured span duration (for callers that time
    /// a region themselves, e.g. across a thread boundary).
    #[inline]
    pub fn record_span(&self, name: &'static str, nanos: u64) {
        if let Some(c) = self.collector.as_deref() {
            c.record_span(name, nanos);
        }
    }

    /// A [`Metrics`] snapshot from the attached collector, if it
    /// aggregates one (see [`Collector::metrics`]).
    pub fn snapshot(&self) -> Option<Metrics> {
        self.collector.as_deref().and_then(Collector::metrics)
    }
}

/// An in-flight span (see [`Obs::span`]); records on drop.
///
/// Dropping the guard of a disabled handle does nothing — not even a
/// clock read happened when it was created.
#[must_use = "a span records when the guard is dropped"]
pub struct Span<'a> {
    active: Option<(&'a dyn Collector, &'static str, Instant)>,
}

impl Span<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((c, name, start)) = self.active.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            c.record_span(name, nanos);
        }
    }
}

/// Which span names the collector echoes to stderr as they close.
///
/// Built from the `XIC_TRACE` environment variable by
/// [`TraceFilter::from_env`]: `1`, `all` or `*` match every span; any
/// other value is a comma-separated list of name prefixes (`check` also
/// matches `check.key`).
#[derive(Clone, Debug)]
pub struct TraceFilter {
    /// `None` ⇒ match everything; otherwise the accepted name prefixes.
    prefixes: Option<Vec<String>>,
}

impl TraceFilter {
    /// A filter matching every span.
    pub fn all() -> Self {
        TraceFilter { prefixes: None }
    }

    /// A filter matching spans whose name starts with any of `prefixes`.
    pub fn prefixes<I: IntoIterator<Item = S>, S: Into<String>>(prefixes: I) -> Self {
        TraceFilter {
            prefixes: Some(prefixes.into_iter().map(Into::into).collect()),
        }
    }

    /// The filter requested by the `XIC_TRACE` environment variable, or
    /// `None` when the variable is unset or empty.
    pub fn from_env() -> Option<Self> {
        let v = std::env::var("XIC_TRACE").ok()?;
        Self::parse(&v)
    }

    /// Parses an `XIC_TRACE` value (see the type docs). Empty ⇒ `None`.
    pub fn parse(value: &str) -> Option<Self> {
        let v = value.trim();
        if v.is_empty() {
            return None;
        }
        if v == "1" || v == "all" || v == "*" {
            return Some(TraceFilter::all());
        }
        Some(TraceFilter::prefixes(
            v.split(',').map(str::trim).filter(|p| !p.is_empty()),
        ))
    }

    /// Whether `name` passes the filter.
    pub fn matches(&self, name: &str) -> bool {
        match &self.prefixes {
            None => true,
            Some(ps) => ps.iter().any(|p| name.starts_with(p.as_str())),
        }
    }
}

/// The standard aggregating [`Collector`]: span totals, counters and
/// maxima behind one mutex. Spans and counters arrive at phase,
/// constraint, chunk and edit granularity (a few hundred events per run),
/// so a mutex around two B-tree maps is plenty fast and keeps the crate
/// dependency-free.
///
/// Optionally echoes matching spans to stderr as they close (see
/// [`TraceFilter`]); `wall_nanos` in the snapshot is the time since
/// construction.
pub struct MetricsCollector {
    start: Instant,
    trace: Option<TraceFilter>,
    /// Span families recording full latency histograms (empty ⇒ none).
    hist_families: Vec<String>,
    /// First-seen thread ordinals for `XIC_TRACE` stderr lines (touched
    /// only on the traced path).
    tids: Mutex<HashMap<ThreadId, u64>>,
    inner: Mutex<metrics::Inner>,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector::new()
    }
}

/// The span families that record latency histograms by default (see
/// [`MetricsCollector::with_histograms`]): per-edit latency, parallel
/// chunk tasks, constraint checks, stream-pipeline stalls, and the
/// durability path (`wal.append`, `snapshot.write`, `recover.replay`) —
/// the distributions operators alert on. Families with no samples cost
/// nothing and emit no series.
pub const DEFAULT_HIST_FAMILIES: [&str; 7] = [
    "edit",
    "par.chunk",
    "check",
    "stream.recv_wait",
    "wal",
    "snapshot",
    "recover",
];

/// Whether span `name` belongs to `family`: equal, or `family` followed
/// by a dotted suffix (`check` matches `check.key`, not `checkpoint`).
fn family_matches(family: &str, name: &str) -> bool {
    name == family
        || (name.len() > family.len()
            && name.starts_with(family)
            && name.as_bytes()[family.len()] == b'.')
}

impl MetricsCollector {
    /// An empty collector; the snapshot's wall clock starts now.
    pub fn new() -> Self {
        MetricsCollector {
            start: Instant::now(),
            trace: None,
            hist_families: Vec::new(),
            tids: Mutex::new(HashMap::new()),
            inner: Mutex::new(metrics::Inner::default()),
        }
    }

    /// An empty collector that also echoes spans matching `filter` to
    /// stderr as they close.
    pub fn with_trace(filter: TraceFilter) -> Self {
        MetricsCollector {
            trace: Some(filter),
            ..MetricsCollector::new()
        }
    }

    /// An empty collector recording latency histograms for the
    /// [`DEFAULT_HIST_FAMILIES`].
    pub fn with_histograms() -> Self {
        let mut c = MetricsCollector::new();
        c.enable_default_histograms();
        c
    }

    /// Enables histogram recording for the [`DEFAULT_HIST_FAMILIES`].
    pub fn enable_default_histograms(&mut self) {
        self.set_histogram_families(DEFAULT_HIST_FAMILIES);
    }

    /// Enables histogram recording for exactly `families` (a family
    /// matches its own name plus any dotted suffix).
    pub fn set_histogram_families<I: IntoIterator<Item = S>, S: Into<String>>(
        &mut self,
        families: I,
    ) {
        self.hist_families = families.into_iter().map(Into::into).collect();
    }

    /// A collector honouring the `XIC_TRACE` environment variable,
    /// ready to share (`Arc`-wrapped for [`Obs::new`]).
    pub fn shared() -> Arc<Self> {
        Arc::new(match TraceFilter::from_env() {
            Some(f) => MetricsCollector::with_trace(f),
            None => MetricsCollector::new(),
        })
    }

    /// [`MetricsCollector::shared`] plus histogram recording for the
    /// [`DEFAULT_HIST_FAMILIES`] (what `xic serve` and
    /// `--metrics` with histograms use).
    pub fn shared_with_histograms() -> Arc<Self> {
        let mut c = match TraceFilter::from_env() {
            Some(f) => MetricsCollector::with_trace(f),
            None => MetricsCollector::new(),
        };
        c.enable_default_histograms();
        Arc::new(c)
    }

    /// Everything recorded so far, with `wall_nanos` the time since this
    /// collector was created.
    pub fn snapshot(&self) -> Metrics {
        let wall = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.inner.lock().unwrap().snapshot(wall)
    }
}

impl Collector for MetricsCollector {
    fn record_span(&self, name: &'static str, nanos: u64) {
        if let Some(t) = &self.trace {
            if t.matches(name) {
                // Attribute the span: first-seen thread ordinal plus its
                // start offset (now − duration) from collector creation,
                // so interleaved parallel spans read unambiguously.
                let now = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let start = now.saturating_sub(nanos);
                let tid = {
                    let mut tids = self.tids.lock().unwrap();
                    let next = tids.len() as u64;
                    *tids.entry(std::thread::current().id()).or_insert(next)
                };
                eprintln!(
                    "[xic-trace] t{tid} +{:.3}ms {name} {:.3}ms",
                    start as f64 / 1e6,
                    nanos as f64 / 1e6
                );
            }
        }
        let record_hist = self.hist_families.iter().any(|f| family_matches(f, name));
        let mut inner = self.inner.lock().unwrap();
        inner.record_span(name, nanos);
        if record_hist {
            inner.record_hist(name, nanos);
        }
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.inner.lock().unwrap().add(name, delta);
    }

    fn record_max(&self, name: &'static str, value: u64) {
        self.inner.lock().unwrap().record_max(name, value);
    }

    fn metrics(&self) -> Option<Metrics> {
        Some(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_is_cheap() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        let g = obs.span("parse");
        obs.add("nodes", 5);
        obs.max("depth", 9);
        drop(g);
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn spans_counters_and_maxima_aggregate() {
        let c = MetricsCollector::shared();
        let obs = Obs::new(c.clone());
        for _ in 0..3 {
            let _g = obs.span("check");
        }
        obs.record_span("check", 1_000);
        obs.add("nodes", 7);
        obs.add("nodes", 4);
        obs.max("depth", 3);
        obs.max("depth", 9);
        obs.max("depth", 5);
        let m = c.snapshot();
        assert_eq!(m.span("check").count, 4);
        assert!(m.span("check").nanos >= 1_000);
        assert_eq!(m.counter("nodes"), 11);
        assert_eq!(m.counter("depth"), 9);
        assert!(m.wall_nanos > 0);
        assert!(obs.snapshot().is_some());
    }

    #[test]
    fn histogram_families_record_distributions() {
        let c = Arc::new(MetricsCollector::with_histograms());
        let obs = Obs::new(c.clone());
        obs.record_span("edit", 800);
        obs.record_span("edit", 1_200);
        obs.record_span("edit.set_attr", 500); // dotted suffix of a family
        obs.record_span("check.key", 2_000);
        obs.record_span("parse", 9_999); // not a histogram family
        let m = c.snapshot();
        assert_eq!(m.hist("edit").unwrap().count, 2);
        assert_eq!(m.hist("edit").unwrap().max, 1_200);
        assert_eq!(m.hist("edit.set_attr").unwrap().count, 1);
        assert_eq!(m.hist("check.key").unwrap().count, 1);
        assert!(m.hist("parse").is_none());
        // Span sums are unaffected by histogram capture.
        assert_eq!(m.span("parse").nanos, 9_999);
        assert_eq!(m.span("edit").count, 2);
        // Off by default.
        let plain = MetricsCollector::new();
        plain.record_span("edit", 1);
        assert!(plain.snapshot().hist("edit").is_none());
    }

    #[test]
    fn family_matching_requires_dot_boundary() {
        assert!(family_matches("check", "check"));
        assert!(family_matches("check", "check.key"));
        assert!(!family_matches("check", "checkpoint"));
        assert!(!family_matches("check", "chec"));
        assert!(family_matches("par.chunk", "par.chunk"));
        assert!(!family_matches("par.chunk", "par.constraint"));
    }

    #[test]
    fn trace_filter_parsing() {
        assert!(TraceFilter::parse("").is_none());
        assert!(TraceFilter::parse("  ").is_none());
        for all in ["1", "all", "*"] {
            let f = TraceFilter::parse(all).unwrap();
            assert!(f.matches("anything"));
        }
        let f = TraceFilter::parse("check, edit").unwrap();
        assert!(f.matches("check"));
        assert!(f.matches("check.key"));
        assert!(f.matches("edit.set_attr"));
        assert!(!f.matches("parse"));
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let c = MetricsCollector::shared();
        let obs = Obs::new(c.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let obs = obs.clone();
                s.spawn(move || {
                    let _g = obs.span("par.task");
                    obs.add("par.tasks", 1);
                });
            }
        });
        let m = c.snapshot();
        assert_eq!(m.span("par.task").count, 4);
        assert_eq!(m.counter("par.tasks"), 4);
    }
}
