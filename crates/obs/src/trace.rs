//! A bounded ring buffer of raw span events, exportable as a Chrome
//! trace-event timeline.
//!
//! Where [`MetricsCollector`](crate::MetricsCollector) aggregates (span
//! sums, counters, histograms), a [`TraceCollector`] keeps the *events
//! themselves* — name, originating thread, start offset, duration — so
//! thread overlap and parallel-task occupancy can be inspected on a timeline
//! instead of inferred from totals. [`TraceCollector::to_chrome_json`]
//! renders the buffer in the Chrome trace-event array format, which loads
//! directly in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! (the `xic` CLI writes it via `--trace-out`).
//!
//! Each recording thread owns its own fixed-capacity ring (default
//! 65 536 events per thread), so the record path locks only a mutex no
//! other thread touches and recorders never contend with each other.
//! When a ring fills, that thread's *oldest* events are dropped and
//! counted, so a long run keeps its most recent window and the export
//! says how much history was shed. Exports merge the rings in thread
//! order. Spans report only on close, so a span's start offset is
//! reconstructed as `now − duration` against the collector's epoch —
//! exact for the event itself, unaffected by ring overflow.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::{Collector, Metrics};

thread_local! {
    /// The request id spans recorded on this thread are attributed to
    /// (0 = no request in scope).
    static CURRENT_REQ: Cell<u64> = const { Cell::new(0) };
    /// This thread's ring per collector it has recorded to, keyed by the
    /// collector's unique generation (never reused, so a recycled
    /// allocation address can't alias a dead collector's cache entry).
    static MY_RINGS: RefCell<Vec<(u64, Arc<Mutex<ThreadRing>>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Generation source for [`TraceCollector`] identity.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

/// The request id currently in scope on this thread, or 0 when none is.
pub fn current_request() -> u64 {
    CURRENT_REQ.get()
}

/// Attributes every span recorded on this thread to request `req` until
/// the returned guard drops (restoring the previous scope, so nesting is
/// safe). Request ids are caller-assigned; 0 means "no request" and makes
/// the guard a no-op tag.
///
/// This is how a request id crosses layers without threading a parameter
/// through every [`Obs`](crate::Obs) call site: an HTTP worker wraps route
/// dispatch in a scope, a shard thread wraps each dequeued request, and
/// any [`TraceCollector`] they share tags the spans automatically.
///
/// ```
/// use xic_obs::{current_request, request_scope};
///
/// assert_eq!(current_request(), 0);
/// {
///     let _scope = request_scope(7);
///     assert_eq!(current_request(), 7);
/// }
/// assert_eq!(current_request(), 0);
/// ```
pub fn request_scope(req: u64) -> RequestScope {
    let prev = CURRENT_REQ.replace(req);
    RequestScope { prev }
}

/// RAII guard from [`request_scope`]; restores the previous request id on
/// drop.
#[must_use = "the scope ends when this guard drops"]
pub struct RequestScope {
    prev: u64,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQ.set(self.prev);
    }
}

/// Default ring capacity (events). At phase/chunk/edit granularity this
/// holds minutes of history; a heavy `apply-edits` run overflows
/// gracefully (oldest dropped, counted in [`TraceCollector::dropped`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// One completed span, as raw material for a timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The span name (see the taxonomy table in the crate docs).
    pub name: &'static str,
    /// Ordinal of the originating thread (0 = first thread seen).
    pub tid: u64,
    /// Nanoseconds from collector creation to the span's start.
    pub start_nanos: u64,
    /// The span's duration in nanoseconds.
    pub dur_nanos: u64,
    /// The request id in scope when the span closed (see
    /// [`request_scope`]); 0 when the span was not request-scoped.
    pub req: u64,
}

/// One recording thread's private ring. Each thread locks only its own
/// ring on the record path, so concurrent recorders never contend;
/// exports and drains walk the registry and take the rings one by one.
struct ThreadRing {
    /// This thread's ordinal (order of first recorded span).
    tid: u64,
    events: VecDeque<TraceEvent>,
    /// Events shed by ring overflow (oldest-first).
    dropped: u64,
}

/// A [`Collector`] recording raw span events into a bounded ring buffer.
///
/// Counters and maxima are ignored — this collector is about *when*
/// things happened, not totals; pair it with a
/// [`MetricsCollector`](crate::MetricsCollector) under a
/// [`Fanout`](crate::Fanout) to get both.
///
/// ```
/// use xic_obs::{Obs, TraceCollector};
/// use std::sync::Arc;
///
/// let tc = Arc::new(TraceCollector::new());
/// let obs = Obs::new(tc.clone());
/// obs.span("check").end();
/// let events = tc.events();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].name, "check");
/// assert_eq!(events[0].tid, 0);
/// ```
pub struct TraceCollector {
    start: Instant,
    capacity: usize,
    /// Unique collector identity (keys the thread-local ring cache).
    gen: u64,
    /// Every recording thread's ring, in first-span order (index = tid).
    rings: Mutex<Vec<Arc<Mutex<ThreadRing>>>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// An empty ring with the default capacity; the timeline epoch
    /// (offset 0) is now.
    pub fn new() -> Self {
        TraceCollector::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An empty ring holding at most `capacity` events (minimum 1) per
    /// recording thread.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCollector {
            start: Instant::now(),
            capacity: capacity.max(1),
            gen: NEXT_GEN.fetch_add(1, Ordering::Relaxed),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Registers (once per thread) and returns this thread's ring.
    fn my_ring(&self) -> Arc<Mutex<ThreadRing>> {
        MY_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(g, _)| *g == self.gen) {
                return ring.clone();
            }
            // First span from this thread: register a fresh ring. Also
            // drop cache entries whose collector is gone (the registry
            // held the only other strong reference), so a long-lived
            // thread outliving many collectors doesn't accumulate rings.
            cache.retain(|(_, r)| Arc::strong_count(r) > 1);
            let mut rings = self.rings.lock().unwrap();
            let ring = Arc::new(Mutex::new(ThreadRing {
                tid: rings.len() as u64,
                events: VecDeque::new(),
                dropped: 0,
            }));
            rings.push(ring.clone());
            drop(rings);
            cache.push((self.gen, ring.clone()));
            ring
        })
    }

    /// A merged snapshot: every thread's buffered events (grouped by
    /// thread ordinal, oldest first within each) and the total overflow
    /// count. When `clear` is set the rings are emptied as they are read.
    fn collect(&self, clear: bool) -> (Vec<TraceEvent>, u64) {
        let rings = self.rings.lock().unwrap();
        let mut events = Vec::new();
        let mut dropped = 0;
        for ring in rings.iter() {
            let mut r = ring.lock().unwrap();
            events.extend(r.events.iter().copied());
            dropped += r.dropped;
            if clear {
                r.events.clear();
                r.dropped = 0;
            }
        }
        (events, dropped)
    }

    /// The buffered events, grouped by thread ordinal (oldest first
    /// within each thread).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.collect(false).0
    }

    /// How many events ring overflow has shed so far (all threads).
    pub fn dropped(&self) -> u64 {
        self.collect(false).1
    }

    /// Renders the buffer in Chrome trace-event **array form** — a JSON
    /// array of complete (`"ph": "X"`) events with microsecond `ts`/`dur`
    /// — loadable as-is in `chrome://tracing` or Perfetto. Thread
    /// ordinals become `tid`; `pid` is always 1; request-scoped events
    /// carry `"args": {"req": N}`. If overflow shed events, a
    /// zero-duration metadata-style marker named `xic.trace_dropped`
    /// leads the array so the loss is visible on the timeline.
    pub fn to_chrome_json(&self) -> String {
        let (events, dropped) = self.collect(false);
        render_chrome_json(&events, dropped)
    }

    /// Like [`TraceCollector::to_chrome_json`], but empties the rings
    /// (events and the dropped count) as they are rendered, so each
    /// event is exported at most once. This backs the daemon's live
    /// `GET /trace` endpoint: successive drains partition the timeline.
    pub fn drain_chrome_json(&self) -> String {
        let (events, dropped) = self.collect(true);
        render_chrome_json(&events, dropped)
    }
}

fn render_chrome_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut items = Vec::with_capacity(events.len() + 1);
    if dropped > 0 {
        items.push(Json::Object(vec![
            (
                "name".into(),
                Json::String(format!("xic.trace_dropped: {dropped}")),
            ),
            ("ph".into(), Json::String("X".into())),
            ("ts".into(), Json::Number(0.0)),
            ("dur".into(), Json::Number(0.0)),
            ("pid".into(), Json::Number(1.0)),
            ("tid".into(), Json::Number(0.0)),
        ]));
    }
    for e in events {
        let mut pairs = vec![
            ("name".into(), Json::String(e.name.to_string())),
            ("ph".into(), Json::String("X".into())),
            ("ts".into(), Json::Number(e.start_nanos as f64 / 1e3)),
            ("dur".into(), Json::Number(e.dur_nanos as f64 / 1e3)),
            ("pid".into(), Json::Number(1.0)),
            ("tid".into(), Json::Number(e.tid as f64)),
        ];
        if e.req != 0 {
            pairs.push((
                "args".into(),
                Json::Object(vec![("req".into(), Json::Number(e.req as f64))]),
            ));
        }
        items.push(Json::Object(pairs));
    }
    Json::Array(items).render()
}

impl Collector for TraceCollector {
    fn record_span(&self, name: &'static str, nanos: u64) {
        // The span just closed: its start is `now − duration` relative to
        // the collector's epoch (saturating in case the span began before
        // the collector existed).
        let now = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let start_nanos = now.saturating_sub(nanos);
        let ring = self.my_ring();
        let mut r = ring.lock().unwrap();
        if r.events.len() == self.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        let tid = r.tid;
        r.events.push_back(TraceEvent {
            name,
            tid,
            start_nanos,
            dur_nanos: nanos,
            req: current_request(),
        });
    }

    fn add(&self, _name: &'static str, _delta: u64) {}

    fn record_max(&self, _name: &'static str, _value: u64) {}
}

/// A [`Collector`] forwarding every event to several collectors — e.g. a
/// [`MetricsCollector`](crate::MetricsCollector) for aggregates *and* a
/// [`TraceCollector`] for the timeline, behind one [`Obs`](crate::Obs)
/// handle. [`Collector::metrics`] returns the first child snapshot.
pub struct Fanout {
    children: Vec<std::sync::Arc<dyn Collector>>,
}

impl Fanout {
    /// A collector forwarding to every collector in `children`.
    pub fn new(children: Vec<std::sync::Arc<dyn Collector>>) -> Self {
        Fanout { children }
    }
}

impl Collector for Fanout {
    fn record_span(&self, name: &'static str, nanos: u64) {
        for c in &self.children {
            c.record_span(name, nanos);
        }
    }

    fn add(&self, name: &'static str, delta: u64) {
        for c in &self.children {
            c.add(name, delta);
        }
    }

    fn record_max(&self, name: &'static str, value: u64) {
        for c in &self.children {
            c.record_max(name, value);
        }
    }

    fn metrics(&self) -> Option<Metrics> {
        self.children.iter().find_map(|c| c.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::{MetricsCollector, Obs};
    use std::sync::Arc;

    #[test]
    fn records_events_with_plausible_offsets() {
        let tc = Arc::new(TraceCollector::new());
        let obs = Obs::new(tc.clone());
        obs.record_span("parse", 5_000);
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.record_span("check", 1_000);
        let ev = tc.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "parse");
        assert_eq!(ev[0].dur_nanos, 5_000);
        // The second span started strictly after the first (≥ 2 ms later).
        assert!(ev[1].start_nanos > ev[0].start_nanos);
        assert_eq!(tc.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let tc = TraceCollector::with_capacity(3);
        for name in ["a", "b", "c", "d", "e"] {
            tc.record_span(name, 10);
        }
        let ev = tc.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].name, "c");
        assert_eq!(ev[2].name, "e");
        assert_eq!(tc.dropped(), 2);
        // The export flags the loss.
        assert!(tc.to_chrome_json().contains("xic.trace_dropped: 2"));
    }

    #[test]
    fn threads_get_stable_first_seen_ordinals() {
        let tc = Arc::new(TraceCollector::new());
        tc.record_span("main", 1); // this thread becomes tid 0
        std::thread::scope(|s| {
            for _ in 0..3 {
                let tc = tc.clone();
                s.spawn(move || {
                    tc.record_span("worker", 1);
                    tc.record_span("worker", 2);
                });
            }
        });
        let ev = tc.events();
        assert_eq!(ev.len(), 7);
        assert_eq!(ev[0].tid, 0);
        let mut tids: Vec<u64> = ev.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids, vec![0, 1, 2, 3]);
        // Both spans from one worker share a tid.
        for w in 1..=3 {
            assert_eq!(ev.iter().filter(|e| e.tid == w).count(), 2);
        }
    }

    /// The acceptance-criteria schema check: array form, every event has
    /// `name`/`ph:"X"`/`ts`/`dur`/`pid`/`tid` (plus a trailing `args`
    /// object only when request-scoped), and the document parses as JSON
    /// (what `chrome://tracing` / Perfetto require of an import).
    #[test]
    fn chrome_export_matches_trace_event_schema() {
        let tc = Arc::new(TraceCollector::new());
        let obs = Obs::new(tc.clone());
        {
            let _g = obs.span("check");
            obs.record_span("par.chunk", 42_000);
        }
        {
            let _scope = request_scope(9);
            obs.record_span("edit.batch", 1_000);
        }
        let out = tc.to_chrome_json();
        let doc = json::parse(&out).expect("trace export must be valid JSON");
        let events = doc.as_array("trace doc").unwrap();
        assert_eq!(events.len(), 3);
        for ev in events {
            let obj = ev.as_object("trace event").unwrap();
            let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
            let name = obj[0].1.as_str("name").unwrap();
            if name == "edit.batch" {
                assert_eq!(keys, ["name", "ph", "ts", "dur", "pid", "tid", "args"]);
                let args = ev.get("args").unwrap();
                assert_eq!(args.get("req").unwrap().as_u64("req").unwrap(), 9);
            } else {
                assert_eq!(keys, ["name", "ph", "ts", "dur", "pid", "tid"]);
            }
            let get = |k: &str| ev.get(k).unwrap();
            assert_eq!(get("ph"), &json::Json::String("X".into()));
            assert!(matches!(get("ts"), json::Json::Number(n) if *n >= 0.0));
            assert!(matches!(get("dur"), json::Json::Number(n) if *n >= 0.0));
            assert_eq!(get("pid").as_u64("pid").unwrap(), 1);
            get("tid").as_u64("tid").unwrap();
        }
    }

    #[test]
    fn request_scope_tags_spans_and_restores_on_drop() {
        let tc = Arc::new(TraceCollector::new());
        let obs = Obs::new(tc.clone());
        obs.record_span("boot", 10);
        {
            let _outer = request_scope(3);
            obs.record_span("http.request", 20);
            {
                let _inner = request_scope(4);
                obs.record_span("edit.batch", 30);
            }
            // Nested scope ended: back to the outer request.
            obs.record_span("wal.append", 40);
        }
        obs.record_span("idle", 50);
        let reqs: Vec<u64> = tc.events().iter().map(|e| e.req).collect();
        assert_eq!(reqs, vec![0, 3, 4, 3, 0]);
        // Scoping is per-thread: another thread is untagged.
        let _scope = request_scope(8);
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(current_request(), 0));
        });
        assert_eq!(current_request(), 8);
    }

    #[test]
    fn drain_empties_ring_and_partitions_exports() {
        let tc = TraceCollector::with_capacity(2);
        tc.record_span("a", 1);
        tc.record_span("b", 1);
        tc.record_span("c", 1); // overflows: "a" dropped
        let first = tc.drain_chrome_json();
        assert!(first.contains("xic.trace_dropped: 1"));
        assert!(first.contains("\"b\"") && first.contains("\"c\""));
        // Drained: ring and dropped count both reset.
        assert_eq!(tc.events().len(), 0);
        assert_eq!(tc.dropped(), 0);
        tc.record_span("d", 1);
        let second = tc.drain_chrome_json();
        assert!(!second.contains("trace_dropped"));
        assert!(second.contains("\"d\"") && !second.contains("\"c\""));
    }

    #[test]
    fn fanout_feeds_metrics_and_trace_together() {
        let mc = Arc::new(MetricsCollector::new());
        let tc = Arc::new(TraceCollector::new());
        let fan = Arc::new(Fanout::new(vec![mc.clone(), tc.clone()]));
        let obs = Obs::new(fan);
        obs.record_span("edit", 1_234);
        obs.add("edits", 1);
        obs.max("stream.peak_depth", 9);
        let m = mc.snapshot();
        assert_eq!(m.span("edit").count, 1);
        assert_eq!(m.counter("edits"), 1);
        assert_eq!(tc.events().len(), 1);
        // Fanout::metrics surfaces the aggregating child's snapshot.
        assert!(obs.snapshot().is_some());
    }
}
