//! `xic serve` — a multi-tenant validation daemon over a store of
//! documents.
//!
//! The daemon is three layers, all std-only (no external crates):
//!
//! 1. **A concurrent connection layer.** The accept loop feeds a bounded
//!    queue drained by a fixed pool of worker threads; when the queue is
//!    full the accept thread answers `503` on the spot (admission
//!    control under edit bursts). Connections are HTTP/1.1 keep-alive:
//!    every request and response is `Content-Length`-framed (see
//!    [`crate::http`]), so one connection serves many requests. A
//!    per-connection read timeout (`--timeout`) frees a worker from a
//!    stalled client; oversized bodies are refused with `413` before
//!    being read (`--max-body`); malformed request lines and headers get
//!    a `400`, never a silently dropped connection.
//! 2. **A document store.** Documents are keyed by id: `PUT /docs/{id}`
//!    ingests an XML document (its internal `<!DOCTYPE>` subset, or the
//!    server's `--dtd/--root`, supplies the structure; `--sigma` the
//!    constraints), `GET /docs` lists ids, `DELETE /docs/{id}` evicts.
//!    The legacy un-prefixed routes (`GET /report`, `POST /edits`) alias
//!    the doc id `default`, which a positional document on the command
//!    line pre-loads — a one-document invocation behaves exactly as it
//!    did before the store existed.
//! 3. **A sharded validator pool.** Each document's [`LiveValidator`]
//!    is owned by its own *shard* — a dedicated thread holding the
//!    `DtdC`, `Validator` and `LiveValidator` and draining a request
//!    channel. Edits and reports for one doc serialize in channel order
//!    (byte-identical to `xic apply-edits` on the same script sequence),
//!    while requests for different docs run fully in parallel on their
//!    own shards. The channel is also the ownership story: the
//!    validator borrows the `DtdC` on the shard's stack, which no map
//!    of `Mutex`es could express safely.
//!
//! | endpoint | behaviour |
//! |----------|-----------|
//! | `PUT /docs/{id}` | ingest/replace a document; responds `201`/`200` with its validation report |
//! | `GET /docs` | list document ids, one per line |
//! | `GET /docs/{id}/report` | the doc's current validation report |
//! | `POST /docs/{id}/edits` | apply an `apply-edits` script as one batch (or per line under `--sequential`); the response is byte-identical to `xic apply-edits` on the same script |
//! | `DELETE /docs/{id}` | evict the document and stop its shard |
//! | `POST /docs/{id}/snapshot` | write the doc's snapshot now (`400` without `--state-dir`) |
//! | `GET /report`, `POST /edits` | aliases for doc `default` |
//! | `GET /metrics` | Prometheus text exposition: the HTTP layer's collector merged with every doc's collector, each labeled `doc="<id>"` |
//! | `GET /metrics.json` | the same merged snapshot as [`Metrics`] JSON |
//! | `GET /docs/{id}/metrics` | one document's Prometheus exposition, `doc`-labeled exactly as in the merged view (`404` on unknown doc) |
//! | `GET /healthz` | liveness + readiness: `200 ok` while serving, `503 draining` once a drain begins (the process is live either way) |
//! | `GET /status` | JSON introspection: uptime, build version, queue depth/capacity, and per-doc WAL records / `last_seq` / snapshot age from real [`DocStore`]/[`Wal`] state |
//! | `GET /trace` | drain the request-scoped span ring as Chrome trace-event JSON (`400` under `--trace-buffer 0`) |
//! | `POST /shutdown` | drain: stop accepting, serve everything already queued, join workers and shards, exit |
//!
//! **Durability (`--state-dir DIR`).** Each document keeps
//! `DIR/<id>/snapshot.bin` (a versioned, checksummed image of its live
//! validator, published by atomic rename), `wal.log` (acknowledged edit
//! batches, appended after they propagate and *before* the reply, fsynced
//! per `--fsync`), and
//! `dtd.txt` (the DTD in force, so internal-`<!DOCTYPE>` documents survive
//! restarts). Snapshots are written on ingest, on eviction/shutdown (the
//! shard's exit), on `POST /docs/{id}/snapshot`, and every
//! `--snapshot-every N` acknowledged batches; each snapshot is stamped
//! with the WAL sequence it subsumes and published *before* the log is
//! emptied, so a crash between the two steps only leaves records that
//! recovery skips by sequence. On boot every persisted doc is recovered —
//! snapshot decode + [`LiveValidator::from_state`] + WAL replay — and
//! served warm;
//! `DELETE` evicts the shard but keeps its on-disk state (remove
//! `DIR/<id>/` to forget a document). A corrupt snapshot or WAL record
//! fails the boot with its reason, never silently drops state.
//!
//! Observability: the HTTP layer records `http.requests`, an
//! `http.request` latency histogram, a per-route `http.route.*` family,
//! `serve.queue_wait` (time a connection sat in the accept queue) and
//! `serve.shard_dispatch` (send + reply across the shard channel);
//! each doc shard's collector carries the full validator taxonomy
//! (`parse`, `edit.batch`, `violations.raised`, …) plus a
//! `doc.requests` counter, merged into `/metrics` under its `doc` label.
//!
//! **Request scoping.** Every request gets a monotonic id at read time.
//! The worker holds a [`request_scope`] guard across route dispatch and
//! each shard holds one around every dequeued [`DocRequest`], so all
//! spans either thread records — including `edit.batch`, `wal.append`
//! and `snapshot.write` deep in the shard — land in the shared
//! [`TraceCollector`] ring tagged with that id (`args: {"req": N}` in
//! the Chrome export). `GET /trace` drains the ring live;
//! `--trace-out FILE` writes the final window at shutdown;
//! `--trace-buffer N` sizes the ring (0 disables tracing entirely).
//! `--access-log FILE|-` appends one JSON line per served request on
//! the same ids ([`AccessRecord`]), sampled by `--log-sample N`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xic::obs::json::Json;
use xic::obs::{Collector, DEFAULT_TRACE_CAPACITY};
use xic::prelude::*;

use crate::http::{self, HttpError, Request};
use crate::{durable, load_dtdc, parse_opts, read, Opts, Script};

/// The address `xic serve` binds when `--addr` is absent.
const DEFAULT_ADDR: &str = "127.0.0.1:9100";

/// Default cap on request bodies (`--max-body` overrides).
const DEFAULT_MAX_BODY: usize = 16 * 1024 * 1024;

/// Default per-connection read timeout in seconds (`--timeout`).
const DEFAULT_TIMEOUT_SECS: f64 = 10.0;

/// Default bound of the accept queue (`--queue`).
const DEFAULT_QUEUE: usize = 128;

/// The doc id the legacy un-prefixed routes alias.
const DEFAULT_DOC: &str = "default";

/// Entry point of the `serve` subcommand: binds `--addr` (default
/// `127.0.0.1:9100`), announces the address on stdout, and serves until
/// `POST /shutdown`.
pub(crate) fn cmd_serve(o: &Opts, out: &mut String) -> Result<i32, String> {
    let addr = o.addr.as_deref().unwrap_or(DEFAULT_ADDR);
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    {
        // `run` only prints `out` after the command returns; a daemon has
        // to announce its address before blocking in the accept loop.
        let mut stdout = std::io::stdout();
        let _ = writeln!(
            stdout,
            "xic serve listening on http://{local} (PUT/GET/DELETE /docs/{{id}}, GET /docs, \
             GET /docs/{{id}}/report, POST /docs/{{id}}/edits, GET /docs/{{id}}/metrics, \
             GET /report, GET /metrics, GET /healthz, GET /status, GET /trace, POST /edits, \
             POST /shutdown)"
        );
        let _ = stdout.flush();
    }
    serve_loop(listener, o)?;
    let _ = writeln!(out, "xic serve: shut down cleanly");
    Ok(0)
}

/// Runs the serve loop on an already-bound listener. `args` is the
/// `serve` subcommand's argument list (an optional document path to
/// pre-load as doc `default`, plus `--dtd`, `--root`, `--sigma`, …); the
/// `--addr` flag is ignored here, since the caller owns the socket.
/// Returns when `POST /shutdown` has drained the daemon.
///
/// This is the testable surface of the daemon: bind `127.0.0.1:0`
/// yourself, hand the listener over, and talk HTTP to the port you got.
pub fn serve_on(listener: TcpListener, args: &[String]) -> Result<(), String> {
    serve_loop(listener, &parse_opts(args)?)
}

/// One request a worker forwards to a document shard. The leading `u64`
/// is the originating HTTP request's id: the shard re-enters its
/// [`request_scope`] before handling, so spans recorded on the shard
/// thread stay attributed across the channel hop.
enum DocRequest {
    /// Render the current validation report.
    Report(u64, SyncSender<String>),
    /// Apply an edit script; `Ok` is the rendered diff + report.
    Edits(u64, String, SyncSender<Result<String, EditFailure>>),
    /// Write the doc's snapshot now (requires `--state-dir`); `Ok` names
    /// the file written, `Err` explains why it could not be.
    Snapshot(u64, SyncSender<Result<String, String>>),
    /// Report the shard's durable-state counters for `GET /status`.
    Status(u64, SyncSender<DocShardStatus>),
}

/// One shard's introspection snapshot, from the state the shard itself
/// owns (its open [`Wal`] handle), not from re-reading disk.
struct DocShardStatus {
    /// Whether the shard persists (`--state-dir`).
    durable: bool,
    /// Complete batches currently in the WAL.
    wal_records: u64,
    /// The sequence number of the last acknowledged batch (survives
    /// snapshot resets — the WAL never rewinds its counter).
    wal_last_seq: u64,
    /// Batches logged since the last snapshot.
    since_snapshot: u64,
}

/// The store's handle on one document shard.
struct DocHandle {
    tx: mpsc::Sender<DocRequest>,
    collector: Arc<MetricsCollector>,
    join: JoinHandle<()>,
}

/// Everything the worker pool shares.
struct Store {
    docs: RwLock<BTreeMap<String, DocHandle>>,
    opts: Arc<Opts>,
    http_collector: Arc<MetricsCollector>,
    http_obs: Obs,
    draining: AtomicBool,
    addr: SocketAddr,
    max_body: usize,
    read_timeout: Duration,
    /// The `--state-dir` document store; `None` runs in-memory only.
    disk: Option<DocStore>,
    /// Auto-snapshot after this many acknowledged batches (0 = only on
    /// ingest, eviction, shutdown and demand).
    snapshot_every: u64,
    /// When the daemon started (uptime in `/status` and `/metrics`).
    started: Instant,
    /// The shared request-scoped span ring (`GET /trace`, `--trace-out`);
    /// `None` under `--trace-buffer 0`.
    trace: Option<Arc<TraceCollector>>,
    /// The JSON-lines access log (`--access-log`); `None` when off.
    access_log: Option<AccessLog>,
    /// The monotonic request-id source (first request gets 1).
    next_req: AtomicU64,
    /// Connections currently sitting in the accept queue.
    queue_depth: AtomicUsize,
    /// The accept queue's bound (`--queue`).
    queue_capacity: usize,
}

/// One accepted connection waiting for a worker, stamped so
/// `serve.queue_wait` can record how long it sat in the queue.
struct WorkItem {
    stream: TcpStream,
    enqueued: Instant,
}

fn serve_loop(listener: TcpListener, o: &Opts) -> Result<(), String> {
    let doc_path = match o.positional.as_slice() {
        [] => None,
        [p] => Some(p.clone()),
        _ => return Err("serve takes at most one document".into()),
    };
    let opts = Arc::new(o.clone());

    // The HTTP layer gets its own collector (request counters + the
    // http.* and serve.* latency histograms), merged with every doc
    // shard's collector at scrape time via `Metrics::merge`.
    let http_collector = {
        let mut c = MetricsCollector::new();
        c.set_histogram_families(["http", "serve"]);
        Arc::new(c)
    };
    // One trace ring shared by the HTTP workers and every shard: request
    // scoping is what keys the interleaved spans back to their request.
    let trace = match o.trace_buffer.unwrap_or(DEFAULT_TRACE_CAPACITY) {
        0 => None,
        n => Some(Arc::new(TraceCollector::with_capacity(n))),
    };
    let http_obs = match &trace {
        Some(tc) => Obs::new(Arc::new(Fanout::new(vec![
            http_collector.clone() as Arc<dyn Collector>,
            tc.clone() as Arc<dyn Collector>,
        ]))),
        None => Obs::new(http_collector.clone()),
    };
    let access_log = match &o.access_log {
        Some(path) => Some(
            AccessLog::open(path, o.log_sample.unwrap_or(1))
                .map_err(|e| format!("cannot open --access-log {path}: {e}"))?,
        ),
        None => None,
    };
    let queue_capacity = o.queue.unwrap_or(DEFAULT_QUEUE).max(1);
    let store = Arc::new(Store {
        docs: RwLock::new(BTreeMap::new()),
        opts: opts.clone(),
        http_obs,
        http_collector,
        draining: AtomicBool::new(false),
        addr: listener.local_addr().map_err(|e| e.to_string())?,
        max_body: o.max_body.unwrap_or(DEFAULT_MAX_BODY),
        read_timeout: Duration::from_secs_f64(o.timeout_secs.unwrap_or(DEFAULT_TIMEOUT_SECS)),
        disk: durable::open_store(o)?,
        snapshot_every: o.snapshot_every.unwrap_or(0),
        started: Instant::now(),
        trace,
        access_log,
        next_req: AtomicU64::new(0),
        queue_depth: AtomicUsize::new(0),
        queue_capacity,
    });

    // Boot recovery: warm-start every document persisted under
    // --state-dir (snapshot + WAL replay) before accepting traffic. A
    // corrupt or unloadable doc fails the boot with its reason — the
    // operator repairs or purges its subdirectory rather than silently
    // serving a partial store.
    if let Some(disk) = &store.disk {
        let ids = disk
            .doc_ids()
            .map_err(|e| format!("scan {}: {e}", disk.root().display()))?;
        for id in ids {
            recover_doc(&store, &id).map_err(|e| format!("recover doc '{id}': {e}"))?;
        }
    }

    // Pre-load the positional document as the `default` doc, so the
    // legacy single-document invocation keeps working unchanged — unless
    // boot recovery already warm-started `default`, in which case the
    // recovered state (which carries every acknowledged edit) wins over
    // re-ingesting the file.
    if let Some(path) = doc_path {
        if store.docs.read().unwrap().contains_key(DEFAULT_DOC) {
            let mut stdout = std::io::stdout();
            let _ = writeln!(
                stdout,
                "xic serve: doc 'default' recovered from --state-dir; ignoring {path}"
            );
            let _ = stdout.flush();
        } else {
            let src = read(&path)?;
            if let (_, Err(e)) = put_doc(&store, DEFAULT_DOC, src) {
                return Err(e
                    .trim_end()
                    .strip_prefix("error: ")
                    .unwrap_or(&e)
                    .to_string());
            }
        }
    }

    // Fixed worker pool over a bounded accept queue.
    let workers = o
        .http_threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(2, 8)
        })
        .max(1);
    let (work_tx, work_rx) = mpsc::sync_channel::<WorkItem>(store.queue_capacity);
    let work_rx = Arc::new(Mutex::new(work_rx));
    let pool: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let store = store.clone();
            let work_rx = work_rx.clone();
            std::thread::spawn(move || loop {
                // Receiver behind a mutex: std's receiver is not Clone,
                // and the handoff is a tiny fraction of request service
                // time. recv errors once the accept loop drops the
                // sender and the queue is drained — the drain contract.
                let item = match work_rx.lock().unwrap().recv() {
                    Ok(item) => item,
                    Err(_) => break,
                };
                store.queue_depth.fetch_sub(1, Ordering::Relaxed);
                serve_connection(&store, item);
            })
        })
        .collect();

    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        if store.draining.load(Ordering::SeqCst) {
            // The wake connection `POST /shutdown` makes (or any later
            // arrival): stop accepting.
            break;
        }
        let item = WorkItem {
            stream,
            enqueued: Instant::now(),
        };
        store.queue_depth.fetch_add(1, Ordering::Relaxed);
        match work_tx.try_send(item) {
            Ok(()) => {}
            Err(TrySendError::Full(item)) => {
                store.queue_depth.fetch_sub(1, Ordering::Relaxed);
                // Admission control: the queue is full, shed the new
                // connection immediately rather than wedging the accept
                // loop behind slow workers.
                store.http_obs.add("http.rejected", 1);
                let mut s = item.stream;
                let _ = http::write_response(
                    &mut s,
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "server busy: accept queue full, retry\n",
                    false,
                );
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }

    // Drain: no new accepts; everything already queued is still served.
    drop(work_tx);
    for w in pool {
        let _ = w.join();
    }
    // Stop the shards: dropping every sender ends each shard's loop.
    let docs = std::mem::take(&mut *store.docs.write().unwrap());
    for (_, handle) in docs {
        drop(handle.tx);
        let _ = handle.join.join();
    }
    // Continuous export: persist whatever the ring still holds (events
    // since the last `GET /trace` drain, including the shards' exit
    // snapshots joined above).
    if let (Some(path), Some(tc)) = (&o.trace_out, &store.trace) {
        std::fs::write(path, tc.to_chrome_json())
            .map_err(|e| format!("cannot write --trace-out {path}: {e}"))?;
    }
    // Every worker has exited: drain the access log's buffered tail.
    if let Some(log) = &store.access_log {
        log.flush();
    }
    Ok(())
}

/// Serves one connection until the client closes, errs, times out, or a
/// drain begins: the keep-alive loop of one worker.
fn serve_connection(store: &Store, item: WorkItem) {
    let WorkItem { stream, enqueued } = item;
    // The queue wait is paid once per connection but attributed to the
    // *first request* served on it, so the span lands inside that
    // request's scope (and its access-log line) instead of floating
    // unattributed before the request even exists.
    let mut queue_wait = Some(u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let _ = stream.set_read_timeout(Some(store.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match http::read_request(&mut reader, store.max_body) {
            Ok(req) => req,
            Err(HttpError::Closed) | Err(HttpError::Timeout) | Err(HttpError::Io(_)) => return,
            Err(HttpError::Malformed(m)) => {
                // A broken request still deserves a framed answer; the
                // connection closes because framing may be lost.
                let _ = http::write_response(
                    &mut writer,
                    "400 Bad Request",
                    "text/plain; charset=utf-8",
                    &format!("error: {m}\n"),
                    false,
                );
                return;
            }
            Err(HttpError::TooLarge { declared, limit }) => {
                let _ = http::write_response(
                    &mut writer,
                    "413 Payload Too Large",
                    "text/plain; charset=utf-8",
                    &format!("error: body of {declared} bytes exceeds --max-body {limit}\n"),
                    false,
                );
                return;
            }
        };
        // Everything recorded until the guard drops — by this worker or
        // by a shard processing this request — carries this id.
        let rid = store.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let scope = request_scope(rid);
        let qw = queue_wait.take();
        if let Some(nanos) = qw {
            store.http_obs.record_span("serve.queue_wait", nanos);
        }
        let span = store.http_obs.span("http.request");
        store.http_obs.add("http.requests", 1);
        let handled = Instant::now();
        let resp = route(store, &req);
        let handler_nanos = u64::try_from(handled.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // The route is only known after dispatch, so the per-route family
        // is recorded as an elapsed duration rather than a live span.
        store.http_obs.record_span(resp.route, handler_nanos);
        span.end();
        drop(scope);
        if let Some(log) = &store.access_log {
            log.record(&AccessRecord {
                req: rid,
                doc: doc_of(&req.path),
                method: req.method.clone(),
                path: req.path.clone(),
                route: resp.route.to_string(),
                status: status_code(resp.status),
                bytes_in: req.body.len() as u64,
                bytes_out: resp.body.len() as u64,
                queue_wait_nanos: qw.unwrap_or(0),
                handler_nanos,
            });
        }
        // Close at a response boundary once draining: in-flight requests
        // complete, idle reuse does not outlive the drain.
        let keep = req.keep_alive && !resp.shutdown && !store.draining.load(Ordering::SeqCst);
        let ok = http::write_response(
            &mut writer,
            resp.status,
            resp.content_type,
            &resp.body,
            keep,
        )
        .is_ok();
        if resp.shutdown {
            begin_drain(store);
        }
        if !keep || !ok {
            return;
        }
    }
}

/// The numeric status of a `"200 OK"`-style status line.
fn status_code(status: &str) -> u16 {
    status
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The document a path addresses: `/docs/{id}...` names `{id}`, the
/// legacy aliases name `default`, anything else is `""`.
fn doc_of(path: &str) -> String {
    match path {
        "/report" | "/edits" => DEFAULT_DOC.to_string(),
        _ => match path.strip_prefix("/docs/") {
            Some(rest) if !rest.is_empty() => {
                rest.split('/').next().unwrap_or_default().to_string()
            }
            _ => String::new(),
        },
    }
}

/// Flags the drain and wakes the accept loop with a throwaway
/// connection so it observes the flag without another client arriving.
fn begin_drain(store: &Store) {
    store.draining.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(store.addr);
}

/// A routed response, tagged with the `http.route.*` span that counts
/// it and whether it triggers the drain.
struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
    route: &'static str,
    shutdown: bool,
}

impl Response {
    fn text(status: &'static str, route: &'static str, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            route,
            shutdown: false,
        }
    }
}

/// Validates a document id: non-empty, `[A-Za-z0-9._-]`.
fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Dispatches one parsed request against the store.
fn route(store: &Store, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/report") => doc_report(store, DEFAULT_DOC),
        ("POST", "/edits") => doc_edits(store, DEFAULT_DOC, &req.body),
        ("GET", "/docs") => {
            let ids: String = store
                .docs
                .read()
                .unwrap()
                .keys()
                .map(|id| format!("{id}\n"))
                .collect();
            Response::text("200 OK", "http.route.docs", ids)
        }
        ("GET", "/metrics") => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: merged_metrics(store).to_prometheus(),
            route: "http.route.metrics",
            shutdown: false,
        },
        ("GET", "/metrics.json") => Response {
            status: "200 OK",
            content_type: "application/json; charset=utf-8",
            body: merged_metrics(store).to_json(),
            route: "http.route.metrics",
            shutdown: false,
        },
        ("POST", "/shutdown") => Response {
            status: "200 OK",
            content_type: "text/plain; charset=utf-8",
            body: "shutting down\n".into(),
            route: "http.route.shutdown",
            shutdown: true,
        },
        ("GET", "/healthz") => healthz(store),
        ("GET", "/status") => status_json(store),
        ("GET", "/trace") => trace_json(store),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/docs/") {
                if let (Some(id), "GET") = (rest.strip_suffix("/report"), method) {
                    return doc_report(store, id);
                }
                if let (Some(id), "POST") = (rest.strip_suffix("/edits"), method) {
                    return doc_edits(store, id, &req.body);
                }
                if let (Some(id), "POST") = (rest.strip_suffix("/snapshot"), method) {
                    return doc_snapshot(store, id);
                }
                if let (Some(id), "GET") = (rest.strip_suffix("/metrics"), method) {
                    return doc_metrics(store, id);
                }
                if !rest.contains('/') {
                    match method {
                        "PUT" => {
                            let (status, body) = put_doc(store, rest, req.body.clone());
                            let (status, body) = match body {
                                Ok(report) => (status, report),
                                Err(e) => ("400 Bad Request", e),
                            };
                            return Response::text(status, "http.route.put_doc", body);
                        }
                        "DELETE" => return delete_doc(store, rest),
                        _ => {}
                    }
                }
                // No /docs/ shape matched. A malformed suffix — invalid
                // id characters, an empty id, extra path segments, an
                // unknown action — is the client's error (400); a
                // well-formed path with the wrong method or no handler
                // is plain not-found (404), so 404 rates stay alertable
                // without malformed-request noise.
                let (id, action) = match rest.rsplit_once('/') {
                    Some((id, action)) => (id, Some(action)),
                    None => (rest, None),
                };
                let known_action = matches!(
                    action,
                    None | Some("report" | "edits" | "snapshot" | "metrics")
                );
                if !(valid_id(id) && known_action) {
                    return Response::text(
                        "400 Bad Request",
                        "http.route.bad_request",
                        format!("malformed /docs path: {method} {path}\n"),
                    );
                }
            }
            Response::text(
                "404 Not Found",
                "http.route.not_found",
                format!("no such endpoint: {method} {path}\n"),
            )
        }
    }
}

/// `GET /healthz`: liveness is answering at all; readiness flips to 503
/// once a drain begins, so load balancers stop routing to a daemon that
/// is finishing its queue.
fn healthz(store: &Store) -> Response {
    if store.draining.load(Ordering::SeqCst) {
        Response::text(
            "503 Service Unavailable",
            "http.route.healthz",
            "live: ok\nready: draining\n".into(),
        )
    } else {
        Response::text(
            "200 OK",
            "http.route.healthz",
            "live: ok\nready: ok\n".into(),
        )
    }
}

/// `GET /trace`: drain the shared span ring as Chrome trace-event JSON.
fn trace_json(store: &Store) -> Response {
    match &store.trace {
        Some(tc) => Response {
            status: "200 OK",
            content_type: "application/json; charset=utf-8",
            body: tc.drain_chrome_json(),
            route: "http.route.trace",
            shutdown: false,
        },
        None => Response::text(
            "400 Bad Request",
            "http.route.trace",
            "error: request tracing disabled (--trace-buffer 0)\n".into(),
        ),
    }
}

/// `GET /docs/{id}/metrics`: one document's Prometheus exposition, with
/// the same `doc` label the merged `/metrics` view applies.
fn doc_metrics(store: &Store, id: &str) -> Response {
    let snapshot = store
        .docs
        .read()
        .unwrap()
        .get(id)
        .map(|handle| handle.collector.snapshot().with_label("doc", id));
    match snapshot {
        Some(m) => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: m.to_prometheus(),
            route: "http.route.doc_metrics",
            shutdown: false,
        },
        None => Response::text(
            "404 Not Found",
            "http.route.doc_metrics",
            format!("no such document: {id}\n"),
        ),
    }
}

/// Asks `id`'s shard for its durable-state counters.
fn doc_status(store: &Store, id: &str) -> Option<DocShardStatus> {
    let tx = store.docs.read().unwrap().get(id)?.tx.clone();
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let span = store.http_obs.span("serve.shard_dispatch");
    tx.send(DocRequest::Status(current_request(), reply_tx))
        .ok()?;
    let reply = reply_rx.recv().ok();
    span.end();
    reply
}

/// `GET /status`: live daemon introspection as JSON — uptime and build
/// info, accept-queue occupancy, and per-doc durable state (WAL records
/// and `last_seq` from the shard's open handle, snapshot size/age from
/// disk metadata).
fn status_json(store: &Store) -> Response {
    let ids: Vec<String> = store.docs.read().unwrap().keys().cloned().collect();
    let mut docs = Vec::new();
    for id in &ids {
        let Some(st) = doc_status(store, id) else {
            continue; // evicted or died between listing and asking
        };
        let mut pairs = vec![("id".into(), Json::String(id.clone()))];
        if st.durable {
            pairs.push(("wal_records".into(), Json::Number(st.wal_records as f64)));
            pairs.push(("wal_last_seq".into(), Json::Number(st.wal_last_seq as f64)));
            pairs.push((
                "since_snapshot".into(),
                Json::Number(st.since_snapshot as f64),
            ));
        }
        if let Some(disk) = &store.disk {
            if let Ok(Some(snap)) = disk.snapshot_stats(id) {
                let age = snap.modified.elapsed().unwrap_or_default().as_secs();
                pairs.push(("snapshot_bytes".into(), Json::Number(snap.bytes as f64)));
                pairs.push(("snapshot_age_seconds".into(), Json::Number(age as f64)));
            }
        }
        docs.push(Json::Object(pairs));
    }
    let draining = store.draining.load(Ordering::SeqCst);
    let body = Json::Object(vec![
        (
            "version".into(),
            Json::String(env!("CARGO_PKG_VERSION").into()),
        ),
        (
            "uptime_seconds".into(),
            Json::Number(store.started.elapsed().as_secs() as f64),
        ),
        ("ready".into(), Json::Bool(!draining)),
        ("draining".into(), Json::Bool(draining)),
        (
            "queue".into(),
            Json::Object(vec![
                (
                    "depth".into(),
                    Json::Number(store.queue_depth.load(Ordering::Relaxed) as f64),
                ),
                ("capacity".into(), Json::Number(store.queue_capacity as f64)),
            ]),
        ),
        (
            "docs".into(),
            Json::Object(vec![
                ("count".into(), Json::Number(docs.len() as f64)),
                ("resident".into(), Json::Array(docs)),
            ]),
        ),
    ]);
    Response {
        status: "200 OK",
        content_type: "application/json; charset=utf-8",
        body: body.render(),
        route: "http.route.status",
        shutdown: false,
    }
}

/// The merged scrape: the HTTP layer's snapshot plus each doc's
/// collector snapshot labeled `doc="<id>"`, with daemon-level gauges
/// stamped in at scrape time (maxima render as plain Prometheus gauges):
/// `xic_build_info{version="…"} 1`, `xic_uptime_seconds`, accept-queue
/// occupancy, and per-doc snapshot age from disk metadata.
fn merged_metrics(store: &Store) -> Metrics {
    let mut m = store.http_collector.snapshot();
    for (id, handle) in store.docs.read().unwrap().iter() {
        m.merge(&handle.collector.snapshot().with_label("doc", id));
    }
    m.maxima.insert(
        format!("build.info#version={}", env!("CARGO_PKG_VERSION")),
        1,
    );
    m.maxima
        .insert("uptime.seconds".into(), store.started.elapsed().as_secs());
    m.maxima.insert(
        "serve.queue_depth".into(),
        store.queue_depth.load(Ordering::Relaxed) as u64,
    );
    m.maxima
        .insert("serve.queue_capacity".into(), store.queue_capacity as u64);
    if let Some(disk) = &store.disk {
        let ids: Vec<String> = store.docs.read().unwrap().keys().cloned().collect();
        for id in ids {
            if let Ok(Some(snap)) = disk.snapshot_stats(&id) {
                let age = snap.modified.elapsed().unwrap_or_default().as_secs();
                m.maxima
                    .insert(format!("snapshot.age_seconds#doc={id}"), age);
            }
        }
    }
    m
}

/// Ingests (or replaces) document `id` from `src`. On success the shard
/// is registered and the body is its initial validation report; `Err`
/// carries a rendered `400` body. The bool-ish status distinguishes
/// create (`201`) from replace (`200`).
fn put_doc(store: &Store, id: &str, src: String) -> (&'static str, Result<String, String>) {
    if !valid_id(id) {
        return (
            "400 Bad Request",
            Err(format!(
                "error: bad document id {id:?} (allowed: [A-Za-z0-9._-]+)\n"
            )),
        );
    }
    // Durable replace: stop the old shard (it writes its exit snapshot)
    // *before* the new shard resets the doc's on-disk state — otherwise
    // the old shard's final snapshot could clobber the new document.
    let mut replaced = false;
    if store.disk.is_some() {
        if let Some(prev) = store.docs.write().unwrap().remove(id) {
            drop(prev.tx);
            let _ = prev.join.join();
            replaced = true;
        }
    }
    let handle = match start_shard(store, id, ShardInit::Cold(src)) {
        Ok(handle) => handle,
        Err((status, e)) => return (status, Err(format!("error: {e}\n"))),
    };
    let prev = store.docs.write().unwrap().insert(id.to_string(), handle);
    let status = if let Some(prev) = prev {
        drop(prev.tx);
        let _ = prev.join.join();
        "200 OK"
    } else if replaced {
        "200 OK"
    } else {
        "201 Created"
    };
    match shard_report(store, id) {
        Some(report) => (status, Ok(report)),
        None => (
            "500 Internal Server Error",
            Err("error: document shard died after load\n".into()),
        ),
    }
}

/// How a shard obtains its initial validator state.
enum ShardInit {
    /// Parse and validate this XML source from scratch (a `PUT`).
    Cold(String),
    /// Warm-start from the `--state-dir` snapshot + WAL (boot recovery).
    Warm,
}

/// Spawns a document shard and waits for it to load. `Err` carries the
/// HTTP status the failure maps to plus the reason.
fn start_shard(
    store: &Store,
    id: &str,
    init: ShardInit,
) -> Result<DocHandle, (&'static str, String)> {
    let collector = MetricsCollector::shared_with_histograms();
    let (tx, rx) = mpsc::channel();
    let (ready_tx, ready_rx) = mpsc::sync_channel(1);
    let join = {
        let opts = store.opts.clone();
        let collector = collector.clone();
        let trace = store.trace.clone();
        let id = id.to_string();
        let disk = store.disk.clone().map(|d| (d, store.snapshot_every));
        std::thread::spawn(move || {
            run_doc_shard(init, id, &opts, disk, collector, trace, rx, ready_tx)
        })
    };
    match ready_rx.recv() {
        Ok(Ok(())) => Ok(DocHandle {
            tx,
            collector,
            join,
        }),
        Ok(Err(e)) => {
            let _ = join.join();
            Err(("400 Bad Request", e))
        }
        Err(_) => Err((
            "500 Internal Server Error",
            "document shard died during load".into(),
        )),
    }
}

/// Boot recovery of one persisted document: warm-start its shard from
/// the snapshot + WAL and register it in the store.
fn recover_doc(store: &Store, id: &str) -> Result<(), String> {
    let handle = start_shard(store, id, ShardInit::Warm).map_err(|(_, e)| e)?;
    store.docs.write().unwrap().insert(id.to_string(), handle);
    Ok(())
}

/// Evicts document `id`, joining its shard.
fn delete_doc(store: &Store, id: &str) -> Response {
    let handle = store.docs.write().unwrap().remove(id);
    match handle {
        Some(handle) => {
            drop(handle.tx);
            let _ = handle.join.join();
            Response::text("200 OK", "http.route.delete_doc", format!("deleted {id}\n"))
        }
        None => Response::text(
            "404 Not Found",
            "http.route.delete_doc",
            format!("no such document: {id}\n"),
        ),
    }
}

/// Asks `id`'s shard for its report; `None` when the doc is absent or
/// its shard died.
fn shard_report(store: &Store, id: &str) -> Option<String> {
    let tx = store.docs.read().unwrap().get(id)?.tx.clone();
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let span = store.http_obs.span("serve.shard_dispatch");
    tx.send(DocRequest::Report(current_request(), reply_tx))
        .ok()?;
    let reply = reply_rx.recv().ok();
    span.end();
    reply
}

fn doc_report(store: &Store, id: &str) -> Response {
    match shard_report(store, id) {
        Some(report) => Response::text("200 OK", "http.route.report", report),
        None => Response::text(
            "404 Not Found",
            "http.route.report",
            format!("no such document: {id}\n"),
        ),
    }
}

fn doc_edits(store: &Store, id: &str, script: &str) -> Response {
    let tx = match store.docs.read().unwrap().get(id) {
        Some(handle) => handle.tx.clone(),
        None => {
            return Response::text(
                "404 Not Found",
                "http.route.edits",
                format!("no such document: {id}\n"),
            )
        }
    };
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let span = store.http_obs.span("serve.shard_dispatch");
    if tx
        .send(DocRequest::Edits(
            current_request(),
            script.to_string(),
            reply_tx,
        ))
        .is_err()
    {
        return Response::text(
            "404 Not Found",
            "http.route.edits",
            format!("no such document: {id}\n"),
        );
    }
    let reply = reply_rx.recv();
    span.end();
    match reply {
        Ok(Ok(rendered)) => Response::text("200 OK", "http.route.edits", rendered),
        Ok(Err(EditFailure::Script(e))) => Response::text(
            "400 Bad Request",
            "http.route.edits",
            format!("error: {e}\n"),
        ),
        Ok(Err(EditFailure::Server(e))) => Response::text(
            "500 Internal Server Error",
            "http.route.edits",
            format!("error: {e}\n"),
        ),
        Err(_) => Response::text(
            "500 Internal Server Error",
            "http.route.edits",
            "error: document shard died\n".into(),
        ),
    }
}

/// Asks `id`'s shard to write its snapshot now.
fn doc_snapshot(store: &Store, id: &str) -> Response {
    let tx = match store.docs.read().unwrap().get(id) {
        Some(handle) => handle.tx.clone(),
        None => {
            return Response::text(
                "404 Not Found",
                "http.route.snapshot",
                format!("no such document: {id}\n"),
            )
        }
    };
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let span = store.http_obs.span("serve.shard_dispatch");
    if tx
        .send(DocRequest::Snapshot(current_request(), reply_tx))
        .is_err()
    {
        return Response::text(
            "404 Not Found",
            "http.route.snapshot",
            format!("no such document: {id}\n"),
        );
    }
    let reply = reply_rx.recv();
    span.end();
    match reply {
        Ok(Ok(body)) => Response::text("200 OK", "http.route.snapshot", body),
        Ok(Err(e)) => Response::text(
            "400 Bad Request",
            "http.route.snapshot",
            format!("error: {e}\n"),
        ),
        Err(_) => Response::text(
            "500 Internal Server Error",
            "http.route.snapshot",
            "error: document shard died\n".into(),
        ),
    }
}

/// The body of one document shard: owns the `DtdC` → `Validator` →
/// [`LiveValidator`] chain on its stack (the borrow chain that cannot
/// live in a shared map) and serializes every request for its document
/// in channel order. Exits when the store drops the last sender.
#[allow(clippy::too_many_arguments)]
fn run_doc_shard(
    init: ShardInit,
    id: String,
    opts: &Opts,
    disk: Option<(DocStore, u64)>,
    collector: Arc<MetricsCollector>,
    trace: Option<Arc<TraceCollector>>,
    rx: Receiver<DocRequest>,
    ready: SyncSender<Result<(), String>>,
) {
    // The shard's aggregates stay per-doc (merged into /metrics under its
    // label), while its raw spans additionally feed the daemon-wide trace
    // ring, tagged by whatever request scope is active when they close.
    let obs = match trace {
        Some(tc) => Obs::new(Arc::new(Fanout::new(vec![
            collector as Arc<dyn Collector>,
            tc as Arc<dyn Collector>,
        ]))),
        None => Obs::new(collector),
    };
    // Either path ends with the `DtdC` on this stack plus a starting
    // state for the validator borrowing it.
    enum Start {
        Cold(DataTree),
        Warm(Box<Recovered>),
    }
    let (dtdc, start) = match init {
        ShardInit::Cold(src) => {
            let doc = {
                let _parse = obs.span("parse");
                match parse_document(&src) {
                    Ok(doc) => doc,
                    Err(e) => {
                        let _ = ready.send(Err(e.to_string()));
                        return;
                    }
                }
            };
            match load_dtdc(opts, doc.dtd.as_ref(), true) {
                Ok(d) => (d, Start::Cold(doc.tree)),
                Err(e) => {
                    let _ = ready.send(Err(e));
                    return;
                }
            }
        }
        ShardInit::Warm => {
            // A warm shard is only ever spawned by boot recovery, which
            // requires --state-dir.
            let Some((store, _)) = disk.as_ref() else {
                let _ = ready.send(Err("warm start requires --state-dir".into()));
                return;
            };
            match durable::load_doc(opts, store, &id) {
                Ok((dtdc, recovered)) => (dtdc, Start::Warm(Box::new(recovered))),
                Err(e) => {
                    let _ = ready.send(Err(e));
                    return;
                }
            }
        }
    };
    let mut options = if opts.lenient {
        Options::lenient()
    } else {
        Options::default()
    };
    if let Some(threads) = opts.threads {
        options = options.with_threads(threads);
    }
    let validator = Validator::with_matcher(&dtdc, MatcherKind::Dfa, options).with_obs(obs.clone());
    let (mut live, mut sdisk) = match start {
        Start::Cold(tree) => {
            let live = LiveValidator::new(&validator, tree);
            // Durable mode persists the ingested document before the PUT
            // is acknowledged: open the WAL (learning the highest sequence
            // any leftover records carry), publish the snapshot atomically
            // stamped with that sequence — so a crash before the reset
            // below leaves only records the snapshot subsumes, which
            // recovery skips — then empty the log, then the DTD sidecar.
            let sdisk = match disk {
                Some((store, snapshot_every)) => {
                    let persisted = (|| {
                        let wal = store.open_wal(&id).map_err(|e| e.to_string())?;
                        let mut d = ShardDisk {
                            store,
                            id: id.clone(),
                            wal,
                            snapshot_every,
                            since_snapshot: 0,
                        };
                        snapshot_now(&live, &mut d, &obs)?;
                        durable::write_meta(&d.store, &id, dtdc.structure())?;
                        Ok::<ShardDisk, String>(d)
                    })();
                    match persisted {
                        Ok(d) => Some(d),
                        Err(e) => {
                            let _ = ready.send(Err(format!("persist: {e}")));
                            return;
                        }
                    }
                }
                None => None,
            };
            (live, sdisk)
        }
        Start::Warm(recovered) => {
            let (store, snapshot_every) = disk.expect("warm start checked --state-dir above");
            match replay(&validator, *recovered, &obs) {
                Ok((live, wal, since_snapshot)) => (
                    live,
                    Some(ShardDisk {
                        store,
                        id: id.clone(),
                        wal,
                        snapshot_every,
                        since_snapshot,
                    }),
                ),
                Err(e) => {
                    let _ = ready.send(Err(e));
                    return;
                }
            }
        }
    };
    let _ = ready.send(Ok(()));
    while let Ok(req) = rx.recv() {
        obs.add("doc.requests", 1);
        // Re-enter the originating request's scope for the whole handling
        // — a shard serves one request at a time, so every span it (or
        // the validator/WAL code it calls) records belongs to this id.
        match req {
            DocRequest::Report(rid, reply) => {
                let _scope = request_scope(rid);
                let _ = reply.send(live.report().to_string());
            }
            DocRequest::Edits(rid, script, reply) => {
                let _scope = request_scope(rid);
                let result =
                    apply_edit_script(&mut live, &script, opts.sequential, sdisk.as_mut(), &obs);
                if let (Err(EditFailure::Server(_)), Some(d)) = (&result, sdisk.as_mut()) {
                    // The batch is applied in memory but not logged: reload
                    // the document from what the disk holds. If that fails
                    // too the shard exits without replying (the route's
                    // "document shard died" 500) and without its exit
                    // snapshot, which would persist the unlogged batch.
                    match reload(&validator, d, &obs) {
                        Ok(fresh) => live = fresh,
                        Err(_) => return,
                    }
                }
                let _ = reply.send(result);
            }
            DocRequest::Snapshot(rid, reply) => {
                let _scope = request_scope(rid);
                let _ = reply.send(match sdisk.as_mut() {
                    Some(d) => snapshot_now(&live, d, &obs)
                        .map(|path| format!("snapshot written: {path}\n")),
                    None => Err("daemon is running without --state-dir".into()),
                });
            }
            DocRequest::Status(rid, reply) => {
                let _scope = request_scope(rid);
                let _ = reply.send(match sdisk.as_ref() {
                    Some(d) => DocShardStatus {
                        durable: true,
                        wal_records: d.wal.records(),
                        wal_last_seq: d.wal.last_seq(),
                        since_snapshot: d.since_snapshot,
                    },
                    None => DocShardStatus {
                        durable: false,
                        wal_records: 0,
                        wal_last_seq: 0,
                        since_snapshot: 0,
                    },
                });
            }
        }
    }
    // The store dropped the last sender: the doc is being evicted or the
    // daemon is draining. Persist the final state so the next boot
    // warm-starts from a fresh snapshot and an empty WAL (best-effort —
    // the WAL already holds every acknowledged batch if this fails).
    if let Some(d) = sdisk.as_mut() {
        let _ = snapshot_now(&live, d, &obs);
    }
}

/// One shard's durable context under `--state-dir`.
struct ShardDisk {
    store: DocStore,
    id: String,
    wal: Wal,
    snapshot_every: u64,
    /// Batches logged since the last snapshot (includes batches replayed
    /// from the WAL at warm start — they are still in the log).
    since_snapshot: u64,
}

/// Writes the shard's snapshot and empties its WAL (through the shard's
/// own handle, keeping its append position in lockstep). The snapshot is
/// stamped with the WAL's last acknowledged sequence and published before
/// the log reset, so a crash between the two steps leaves only records
/// the snapshot subsumes — recovery skips them by sequence. Returns the
/// snapshot path written.
fn snapshot_now(
    live: &LiveValidator<'_, '_>,
    disk: &mut ShardDisk,
    obs: &Obs,
) -> Result<String, String> {
    let state = live.export_state();
    let snap = disk
        .store
        .snapshot_path(&disk.id)
        .map_err(|e| e.to_string())?;
    {
        let _span = obs.span("snapshot.write");
        write_snapshot(&snap, &state, disk.wal.last_seq()).map_err(|e| e.to_string())?;
    }
    disk.wal.reset().map_err(|e| e.to_string())?;
    obs.add("snapshot.writes", 1);
    disk.since_snapshot = 0;
    Ok(snap.display().to_string())
}

/// Warm-starts a live validator from a loaded snapshot + WAL: decode the
/// state, then replay every logged batch on top of it. Returns the
/// validator, the WAL positioned for appending, and the batches replayed
/// (still in the log, so they count toward the next snapshot). Boot
/// recovery and the reload after a failed WAL append both come through
/// here.
fn replay<'v, 'd>(
    validator: &'v Validator<'d>,
    recovered: Recovered,
    obs: &Obs,
) -> Result<(LiveValidator<'v, 'd>, Wal, u64), String> {
    let Recovered {
        state,
        batches,
        wal,
        ..
    } = recovered;
    let span = obs.span("recover.replay");
    let mut live = LiveValidator::from_state(validator, state).map_err(|e| e.to_string())?;
    for batch in &batches {
        live.apply_batch(batch)
            .map_err(|e| format!("wal replay: {}", e.error))?;
    }
    span.end();
    obs.add("recover.replays", 1);
    obs.add("recover.batches", batches.len() as u64);
    Ok((live, wal, batches.len() as u64))
}

/// Rebuilds the shard's live validator from its snapshot + WAL on disk,
/// replacing the shard's WAL handle: after a failed append, memory holds
/// a batch the log does not, and this brings memory back to the disk.
fn reload<'v, 'd>(
    validator: &'v Validator<'d>,
    disk: &mut ShardDisk,
    obs: &Obs,
) -> Result<LiveValidator<'v, 'd>, String> {
    let recovered = disk
        .store
        .load(&disk.id)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no snapshot for doc '{}'", disk.id))?;
    let (live, wal, since_snapshot) = replay(validator, recovered, obs)?;
    disk.wal = wal;
    disk.since_snapshot = since_snapshot;
    Ok(live)
}

/// Why `POST /edits` failed, and whose fault it was.
enum EditFailure {
    /// The script: a malformed line, or an edit that cannot apply (`400`).
    Script(String),
    /// The server: the applied batch could not be logged (`500`).
    Server(String),
}

/// Plays an edit script against the live document, rendering exactly what
/// `xic apply-edits` prints: the script lines, the batch diff (or per-edit
/// ± diffs when the daemon was started with `--sequential`), then the new
/// report.
///
/// The script is parsed once. A malformed line rejects it before anything
/// is applied or logged; an edit that cannot apply keeps the edits before
/// it. Under `--state-dir` the applied edits — the whole script, or that
/// prefix — are appended to the WAL as one record after propagation and
/// before the reply, so a `200` means the batch is on disk and replay
/// always reproduces the in-memory state. A failed append is a
/// [`EditFailure::Server`] fault: the caller must reload from disk.
fn apply_edit_script(
    live: &mut LiveValidator<'_, '_>,
    script: &str,
    sequential: bool,
    disk: Option<&mut ShardDisk>,
    obs: &Obs,
) -> Result<String, EditFailure> {
    let script = Script::parse(script)
        .map_err(|(line, e)| EditFailure::Script(format!("edits line {line}: {e}")))?;
    let mut out = String::new();
    let applied = script.apply(live, sequential, &mut out);
    if let Some(disk) = disk {
        let n = match &applied {
            Ok(()) => script.edits.len(),
            Err(e) => e.index,
        };
        if n > 0 {
            let span = obs.span("wal.append");
            disk.wal
                .append(&script.edits[..n])
                .map_err(|e| EditFailure::Server(format!("wal append: {e}")))?;
            span.end();
            obs.add("wal.records", 1);
            disk.since_snapshot += 1;
            // The batch is applied and logged, so a failed snapshot must
            // not fail the request (a retry would apply it twice). The
            // counter stays unreset and the next batch retries.
            if disk.snapshot_every > 0 && disk.since_snapshot >= disk.snapshot_every {
                let _ = snapshot_now(live, disk, obs);
            }
        }
    }
    if let Err(e) = applied {
        return Err(EditFailure::Script(format!(
            "edits line {}: {}",
            script.line_of(&e),
            e.error
        )));
    }
    let _ = write!(out, "{}", live.report());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpClient;
    use crate::tests::{tmp, unique_path};

    const BOOK_DTD: &str = "\
<!ELEMENT book (entry, author*, section*, ref)>
<!ELEMENT entry (title, publisher)>
<!ELEMENT title (#PCDATA)> <!ELEMENT publisher (#PCDATA)>
<!ELEMENT author (#PCDATA)> <!ELEMENT text (#PCDATA)>
<!ELEMENT section (title, (text | section)*)>
<!ELEMENT ref EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!ATTLIST section sid CDATA #REQUIRED>
<!ATTLIST ref to NMTOKENS #IMPLIED>";

    const BOOK_SIGMA: &str = "\
entry.isbn -> entry
section.sid -> section
ref.to <=s entry.isbn";

    const GOOD_DOC: &str = r#"<book>
  <entry isbn="x1"><title>T</title><publisher>P</publisher></entry>
  <author>A</author>
  <ref to="x1"/>
</book>"#;

    /// One keep-alive HTTP exchange on a fresh connection; returns
    /// (status code, body).
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut c = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
        c.request(method, path, body).unwrap()
    }

    /// The book fixture's CLI flags (shared by the daemon and the
    /// `apply-edits` byte-identity cross-checks).
    fn book_flags() -> Vec<String> {
        let dtd = tmp("book.dtd", BOOK_DTD);
        let sigma = tmp("book.sigma", BOOK_SIGMA);
        [
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
        ]
        .iter()
        .map(ToString::to_string)
        .collect()
    }

    /// Binds port 0, starts the daemon on the book fixture (pre-loaded
    /// as doc `default`) with `extra` flags, runs `f` against it, then
    /// shuts it down cleanly.
    fn with_daemon(doc: &str, extra: &[&str], f: impl FnOnce(SocketAddr)) {
        let doc = tmp("doc.xml", doc);
        let mut args = vec![doc.to_str().unwrap().to_string()];
        args.extend(book_flags());
        args.extend(extra.iter().map(ToString::to_string));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || serve_on(listener, &args));
        f(addr);
        let (status, _) = http(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn report_metrics_and_edits_round_trip() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let (status, report) = http(addr, "GET", "/report", "");
            assert_eq!(status, 200);
            assert!(report.contains("valid"), "{report}");

            // Prometheus exposition: # TYPE headers, counters, and the
            // default doc's series labeled doc="default".
            let (status, prom) = http(addr, "GET", "/metrics", "");
            assert_eq!(status, 200);
            assert!(prom.contains("# TYPE xic_wall_seconds gauge"), "{prom}");
            assert!(
                prom.contains("# TYPE xic_http_requests_total counter"),
                "{prom}"
            );
            assert!(
                prom.contains("xic_span_seconds_count{span=\"parse\",doc=\"default\"}"),
                "{prom}"
            );
            assert!(
                prom.contains("xic_doc_requests_total{doc=\"default\"}"),
                "{prom}"
            );

            // Two edit scripts: break the foreign key, then repair it.
            // Each POST is one batch — in a single script the two writes
            // to the same attribute would coalesce to the net no-op.
            let script = "set-attr 5 to dangling\n";
            let (status, diff) = http(addr, "POST", "/edits", script);
            assert_eq!(status, 200, "{diff}");
            assert!(diff.contains("edit: set-attr 5 to dangling"), "{diff}");
            assert!(diff.contains("batch: 1 edits"), "{diff}");
            assert!(diff.contains("+ "), "{diff}");
            let (status, repair) = http(addr, "POST", "/edits", "set-attr 5 to x1\n");
            assert_eq!(status, 200, "{repair}");
            assert!(repair.contains("- "), "{repair}");
            assert!(repair.contains("valid"), "{repair}");

            // /edits responses match `xic apply-edits` byte-for-byte on
            // the same script against the same starting document.
            let doc = tmp("doc.xml", GOOD_DOC);
            let script_file = tmp("script.txt", script);
            let mut args = vec![
                "apply-edits".to_string(),
                doc.to_str().unwrap().to_string(),
                script_file.to_str().unwrap().to_string(),
            ];
            args.extend(book_flags());
            let mut cli_out = String::new();
            // Exit 1: the dangling reference leaves the document invalid.
            assert_eq!(crate::run(&args, &mut cli_out), 1);
            assert_eq!(diff, cli_out, "serve /edits diverged from apply-edits");

            // After the edits, the histogram series are live: each POST
            // ran one `edit.batch` span on the default doc's shard, and
            // the HTTP layer recorded per-route histograms.
            let (_, prom) = http(addr, "GET", "/metrics", "");
            assert!(
                prom.contains("# TYPE xic_edit_batch_seconds histogram"),
                "{prom}"
            );
            assert!(
                prom.contains("xic_edit_batch_seconds_bucket{doc=\"default\",le=\"+Inf\"} 2"),
                "{prom}"
            );
            assert!(
                prom.contains("xic_edits_total{doc=\"default\"} 2"),
                "{prom}"
            );
            assert!(
                prom.contains("# TYPE xic_http_request_seconds histogram"),
                "{prom}"
            );
            assert!(
                prom.contains("# TYPE xic_http_route_edits_seconds histogram"),
                "{prom}"
            );
            assert!(
                prom.contains("# TYPE xic_serve_queue_wait_seconds histogram"),
                "{prom}"
            );

            // The same snapshot as JSON, parseable back into Metrics.
            let (status, json) = http(addr, "GET", "/metrics.json", "");
            assert_eq!(status, 200);
            let m = Metrics::parse_json(&json).unwrap();
            assert!(m.hist("http.request").unwrap().count > 0, "{json}");
            assert_eq!(m.counter("edits#doc=default"), 2, "{json}");
        });
    }

    #[test]
    fn bad_requests_get_4xx_and_leave_the_daemon_alive() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let (status, body) = http(addr, "GET", "/nope", "");
            assert_eq!(status, 404);
            assert!(body.contains("no such endpoint"), "{body}");

            let (status, body) = http(addr, "POST", "/edits", "frobnicate 1\n");
            assert_eq!(status, 400);
            assert!(body.contains("unknown edit"), "{body}");

            let (status, body) = http(addr, "GET", "/docs/ghost/report", "");
            assert_eq!(status, 404);
            assert!(body.contains("no such document"), "{body}");

            let (status, _) = http(addr, "DELETE", "/docs/ghost", "");
            assert_eq!(status, 404);

            let (status, body) = http(addr, "PUT", "/docs/bad%20id", "<x/>");
            assert_eq!(status, 400);
            assert!(body.contains("bad document id"), "{body}");

            // Still serving after the errors.
            let (status, _) = http(addr, "GET", "/report", "");
            assert_eq!(status, 200);
        });
    }

    #[test]
    fn edits_mutate_the_served_document() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let (_, before) = http(addr, "GET", "/report", "");
            assert!(before.contains("valid"), "{before}");
            let (status, _) = http(addr, "POST", "/edits", "set-attr 5 to dangling\n");
            assert_eq!(status, 200);
            let (_, after) = http(addr, "GET", "/report", "");
            assert!(after.contains("dangling"), "{after}");
        });
    }

    #[test]
    fn document_store_crud_round_trip() {
        with_daemon(GOOD_DOC, &[], |addr| {
            // One keep-alive connection drives the whole exchange.
            let mut c = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
            let with_dtd = format!("<!DOCTYPE book [\n{BOOK_DTD}\n]>\n{GOOD_DOC}");
            let (status, report) = c.request("PUT", "/docs/a", &with_dtd).unwrap();
            assert_eq!(status, 201, "{report}");
            assert!(report.contains("valid"), "{report}");
            // Replacing an existing doc is 200, not 201.
            let (status, _) = c.request("PUT", "/docs/a", &with_dtd).unwrap();
            assert_eq!(status, 200);
            let (status, _) = c.request("PUT", "/docs/b", &with_dtd).unwrap();
            assert_eq!(status, 201);

            let (status, ids) = c.request("GET", "/docs", "").unwrap();
            assert_eq!(status, 200);
            assert_eq!(ids, "a\nb\ndefault\n");

            // Doc-scoped report and edits; the default doc is untouched.
            let (status, r) = c.request("GET", "/docs/a/report", "").unwrap();
            assert_eq!(status, 200);
            assert!(r.contains("valid"), "{r}");
            let (status, diff) = c
                .request("POST", "/docs/a/edits", "set-attr 5 to dangling\n")
                .unwrap();
            assert_eq!(status, 200, "{diff}");
            assert!(diff.contains("+ "), "{diff}");
            let (_, r) = c.request("GET", "/docs/a/report", "").unwrap();
            assert!(r.contains("dangling"), "{r}");
            let (_, r) = c.request("GET", "/docs/default/report", "").unwrap();
            assert!(r.contains("valid (0 violations)"), "{r}");

            // Per-doc metrics labels for both tenants.
            let (_, prom) = c.request("GET", "/metrics", "").unwrap();
            assert!(prom.contains("xic_edits_total{doc=\"a\"} 1"), "{prom}");
            assert!(prom.contains("xic_doc_requests_total{doc=\"b\"}"), "{prom}");

            let (status, body) = c.request("DELETE", "/docs/a", "").unwrap();
            assert_eq!(status, 200);
            assert!(body.contains("deleted a"), "{body}");
            let (status, _) = c.request("GET", "/docs/a/report", "").unwrap();
            assert_eq!(status, 404);
            let (_, ids) = c.request("GET", "/docs", "").unwrap();
            assert_eq!(ids, "b\ndefault\n");
        });
    }

    #[test]
    fn put_rejects_documents_that_do_not_load() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let (status, body) = http(addr, "PUT", "/docs/broken", "<book><unclosed>");
            assert_eq!(status, 400);
            assert!(body.contains("error: "), "{body}");
            let (_, ids) = http(addr, "GET", "/docs", "");
            assert_eq!(ids, "default\n");
        });
    }

    #[test]
    fn oversized_and_malformed_requests_get_framed_errors() {
        with_daemon(GOOD_DOC, &["--max-body", "64"], |addr| {
            // 413 before the body is read.
            let (status, body) = http(addr, "POST", "/edits", &"x".repeat(65));
            assert_eq!(status, 413, "{body}");
            assert!(body.contains("--max-body 64"), "{body}");

            // A garbage request line gets a framed 400, not a dropped
            // connection.
            use std::io::{Read, Write};
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 400 Bad Request"), "{resp}");

            // Small bodies still fit under the 64-byte cap.
            let (status, _) = http(addr, "GET", "/report", "");
            assert_eq!(status, 200);
        });
    }

    #[test]
    fn stalled_connections_time_out_without_wedging_workers() {
        with_daemon(
            GOOD_DOC,
            &["--timeout", "0.2", "--http-threads", "1"],
            |addr| {
                // A client that connects and sends nothing: with one worker,
                // only the read timeout can free the daemon to serve others.
                let stalled = TcpStream::connect(addr).unwrap();
                let start = Instant::now();
                let (status, _) = http(addr, "GET", "/report", "");
                assert_eq!(status, 200);
                assert!(
                    start.elapsed() >= Duration::from_millis(100),
                    "expected the stalled client to hold the worker briefly"
                );
                drop(stalled);
            },
        );
    }

    /// The report portion of an `apply-edits` CLI run: everything after
    /// the echoed script lines and the ± batch diff.
    fn report_of(cli_out: &str) -> String {
        let mut at = 0;
        for line in cli_out.lines() {
            if line.starts_with("edit: ") || line.starts_with("batch: ") || line.starts_with("  ") {
                at += line.len() + 1;
            } else {
                break;
            }
        }
        cli_out[at..].to_string()
    }

    #[test]
    fn same_doc_concurrent_edits_serialize_to_the_sequential_report() {
        // Two clients hammer the same document concurrently. Each owns a
        // disjoint attribute, so the final tree is the same whatever the
        // interleaving — but only because the shard serializes the edits;
        // a lost update would leave a stale value or a torn report.
        const ROUNDS: usize = 25;
        with_daemon(GOOD_DOC, &["--http-threads", "4"], |addr| {
            let writer = move |attr_node: &'static str, prefix: &'static str| {
                let mut c = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
                for i in 0..ROUNDS {
                    let script = format!("set-attr {attr_node} {prefix}{i}\n");
                    let (status, body) = c.request("POST", "/edits", &script).unwrap();
                    assert_eq!(status, 200, "{body}");
                }
            };
            let a = std::thread::spawn(move || writer("1 isbn", "a"));
            let b = std::thread::spawn(move || writer("5 to", "b"));
            a.join().unwrap();
            b.join().unwrap();
            let (status, served) = http(addr, "GET", "/report", "");
            assert_eq!(status, 200);

            // The equivalent sequential script: all of A's edits, then all
            // of B's, replayed by `xic apply-edits` from the same start.
            let mut script = String::new();
            for i in 0..ROUNDS {
                let _ = writeln!(script, "set-attr 1 isbn a{i}");
            }
            for i in 0..ROUNDS {
                let _ = writeln!(script, "set-attr 5 to b{i}");
            }
            let doc = tmp("doc.xml", GOOD_DOC);
            let script_file = tmp("concurrent-sequential.txt", &script);
            let mut args = vec![
                "apply-edits".to_string(),
                doc.to_str().unwrap().to_string(),
                script_file.to_str().unwrap().to_string(),
            ];
            args.extend(book_flags());
            let mut cli_out = String::new();
            crate::run(&args, &mut cli_out);
            assert_eq!(
                served,
                report_of(&cli_out),
                "concurrent serve diverged from the sequential apply-edits run"
            );
        });
    }

    #[test]
    fn different_docs_succeed_in_parallel_under_contention() {
        with_daemon(GOOD_DOC, &["--http-threads", "4"], |addr| {
            let with_dtd = format!("<!DOCTYPE book [\n{BOOK_DTD}\n]>\n{GOOD_DOC}");
            for id in ["a", "b"] {
                let (status, _) = http(addr, "PUT", &format!("/docs/{id}"), &with_dtd);
                assert_eq!(status, 201);
            }
            let hammer = move |id: &'static str| {
                let mut c = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
                for i in 0..25 {
                    let script = format!("set-attr 5 to {id}{i}\n");
                    let (status, body) = c
                        .request("POST", &format!("/docs/{id}/edits"), &script)
                        .unwrap();
                    assert_eq!(status, 200, "{body}");
                }
            };
            let a = std::thread::spawn(move || hammer("a"));
            let b = std::thread::spawn(move || hammer("b"));
            a.join().unwrap();
            b.join().unwrap();
            // Each doc saw only its own client's writes.
            let (_, ra) = http(addr, "GET", "/docs/a/report", "");
            let (_, rb) = http(addr, "GET", "/docs/b/report", "");
            assert!(ra.contains("a24"), "{ra}");
            assert!(rb.contains("b24"), "{rb}");
            assert!(!ra.contains("b24"), "{ra}");
            let (_, prom) = http(addr, "GET", "/metrics", "");
            assert!(prom.contains("xic_edits_total{doc=\"a\"} 25"), "{prom}");
            assert!(prom.contains("xic_edits_total{doc=\"b\"} 25"), "{prom}");
        });
    }

    #[test]
    fn shutdown_during_edit_burst_loses_no_accepted_request() {
        // Clients burst keep-alive edits while a shutdown lands mid-burst.
        // The drain contract: every request the daemon accepted is served
        // in full — a client sees either a complete response or a clean
        // close at a response boundary, never a truncated one.
        let doc = tmp("doc.xml", GOOD_DOC);
        let mut args = vec![doc.to_str().unwrap().to_string()];
        args.extend(book_flags());
        args.extend(["--http-threads".to_string(), "2".to_string()]);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || serve_on(listener, &args));

        let burst = move |tag: &'static str| -> u64 {
            use std::io::ErrorKind;
            let clean = |k: ErrorKind| {
                matches!(
                    k,
                    ErrorKind::UnexpectedEof
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::ConnectionRefused
                        | ErrorKind::BrokenPipe
                )
            };
            let mut served = 0u64;
            'outer: for round in 0..50 {
                let mut c = match HttpClient::connect(addr, Duration::from_secs(30)) {
                    Ok(c) => c,
                    Err(e) if clean(e.kind()) => break,
                    Err(e) => panic!("{tag}: unexpected connect error {e}"),
                };
                for i in 0..20 {
                    let script = format!("set-attr 5 to {tag}{round}x{i}\n");
                    match c.request("POST", "/edits", &script) {
                        Ok((200, _)) => served += 1,
                        Ok((status, body)) => panic!("{tag}: unexpected {status}: {body}"),
                        Err(e) if clean(e.kind()) => break 'outer,
                        // Any other error is a response lost mid-frame.
                        Err(e) => panic!("{tag}: truncated response: {e}"),
                    }
                }
            }
            served
        };
        let clients: Vec<_> = ["c0", "c1", "c2", "c3"]
            .into_iter()
            .map(|tag| std::thread::spawn(move || burst(tag)))
            .collect();
        std::thread::sleep(Duration::from_millis(60));
        let (status, body) = http(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200, "{body}");

        let mut total = 0;
        for c in clients {
            total += c.join().unwrap();
        }
        assert!(total > 0, "burst never got going before the shutdown");
        // The daemon drained and exited cleanly.
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn state_dir_restart_preserves_edited_state() {
        let state = unique_path("restart");
        let state_s = state.to_str().unwrap().to_string();
        let mut expected = String::new();
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            let (status, body) = http(addr, "POST", "/edits", "set-attr 5 to dangling\n");
            assert_eq!(status, 200, "{body}");
            let (_, report) = http(addr, "GET", "/report", "");
            assert!(report.contains("dangling"), "{report}");
            expected = report;

            // The durability path shows up in the merged scrape: the WAL
            // append latency histogram and the snapshot counter.
            let (_, prom) = http(addr, "GET", "/metrics", "");
            assert!(prom.contains("xic_wal_append_seconds"), "{prom}");
            assert!(
                prom.contains("xic_snapshot_writes_total{doc=\"default\"}"),
                "{prom}"
            );
        });
        // Same command line again: boot recovery warm-starts `default`
        // from the exit snapshot, and the recovered (edited) state wins
        // over re-ingesting the pristine positional document.
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            let (status, report) = http(addr, "GET", "/report", "");
            assert_eq!(status, 200);
            assert_eq!(
                report, expected,
                "warm start diverged from pre-restart state"
            );
            let (status, body) = http(addr, "POST", "/docs/default/snapshot", "");
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("snapshot written:"), "{body}");
            let (status, _) = http(addr, "POST", "/edits", "set-attr 5 to x1\n");
            assert_eq!(status, 200);
        });
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn wal_batches_replay_on_boot() {
        let state = unique_path("walreplay");
        let state_s = state.to_str().unwrap().to_string();
        // Run A persists the pristine document and shuts down cleanly.
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            let (status, _) = http(addr, "GET", "/report", "");
            assert_eq!(status, 200);
        });
        // Emulate a crash after an acknowledged edit but before any
        // snapshot: append the batch to the WAL exactly as the daemon
        // would have, leaving the snapshot stale.
        let disk = DocStore::open(&state, FsyncPolicy::Always).unwrap();
        let mut wal = disk.open_wal("default").unwrap();
        wal.append(&[BatchEdit::SetAttr {
            node: NodeId::from_index(5),
            attr: "to".into(),
            value: AttrValue::single("dangling"),
        }])
        .unwrap();
        drop(wal);
        // Run B must replay the logged batch on top of the snapshot.
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            let (status, report) = http(addr, "GET", "/report", "");
            assert_eq!(status, 200);
            assert!(report.contains("dangling"), "{report}");
        });
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn snapshot_endpoint_requires_state_dir() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let (status, body) = http(addr, "POST", "/docs/default/snapshot", "");
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("--state-dir"), "{body}");
            let (status, _) = http(addr, "POST", "/docs/ghost/snapshot", "");
            assert_eq!(status, 404);
        });
    }

    #[test]
    fn put_docs_survive_restart_even_after_delete() {
        let state = unique_path("multidoc");
        let state_s = state.to_str().unwrap().to_string();
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            // An internal-DOCTYPE document: its structure must survive the
            // restart through the dtd.txt sidecar.
            let with_dtd = format!("<!DOCTYPE book [\n{BOOK_DTD}\n]>\n{GOOD_DOC}");
            let (status, _) = http(addr, "PUT", "/docs/a", &with_dtd);
            assert_eq!(status, 201);
            let (status, body) = http(addr, "POST", "/docs/a/edits", "set-attr 5 to dangling\n");
            assert_eq!(status, 200, "{body}");
            // DELETE evicts the shard (writing its exit snapshot) but
            // keeps the on-disk state.
            let (status, _) = http(addr, "DELETE", "/docs/a", "");
            assert_eq!(status, 200);
            let (_, ids) = http(addr, "GET", "/docs", "");
            assert_eq!(ids, "default\n");
        });
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            let (_, ids) = http(addr, "GET", "/docs", "");
            assert_eq!(ids, "a\ndefault\n");
            let (status, report) = http(addr, "GET", "/docs/a/report", "");
            assert_eq!(status, 200);
            assert!(report.contains("dangling"), "{report}");
        });
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let mut c = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
            for _ in 0..5 {
                let (status, report) = c.request("GET", "/report", "").unwrap();
                assert_eq!(status, 200);
                assert!(report.contains("valid"), "{report}");
            }
            let (_, prom) = c.request("GET", "/metrics", "").unwrap();
            // All six requests so far arrived on one connection: exactly
            // one queue_wait sample against six http.request samples.
            let count = |needle: &str| -> u64 {
                prom.lines()
                    .find(|l| l.starts_with(needle) && !l.starts_with('#'))
                    .and_then(|l| l.rsplit(' ').next())
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("missing {needle} in {prom}"))
            };
            assert_eq!(count("xic_serve_queue_wait_seconds_count"), 1, "{prom}");
            assert_eq!(count("xic_http_requests_total"), 6, "{prom}");
        });
    }

    /// `GET /status`, parsed.
    fn fetch_status(addr: SocketAddr) -> Json {
        let (status, body) = http(addr, "GET", "/status", "");
        assert_eq!(status, 200, "{body}");
        xic::obs::json::parse(&body).unwrap()
    }

    /// The `docs.resident` entry for `id` in a parsed `/status` body.
    fn resident<'a>(status: &'a Json, id: &str) -> &'a Json {
        status
            .get("docs")
            .unwrap()
            .get("resident")
            .unwrap()
            .as_array("resident")
            .unwrap()
            .iter()
            .find(|d| d.get("id").unwrap().as_str("id").unwrap() == id)
            .unwrap_or_else(|| panic!("doc {id} missing from /status"))
    }

    fn num(v: &Json, key: &str) -> u64 {
        v.get(key)
            .unwrap_or_else(|| panic!("{key} missing"))
            .as_u64(key)
            .unwrap()
    }

    #[test]
    fn healthz_status_and_daemon_gauges_report_live_state() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let (status, body) = http(addr, "GET", "/healthz", "");
            assert_eq!(status, 200);
            assert_eq!(body, "live: ok\nready: ok\n");

            let st = fetch_status(addr);
            assert_eq!(
                st.get("version").unwrap().as_str("version").unwrap(),
                env!("CARGO_PKG_VERSION")
            );
            assert!(matches!(st.get("ready"), Some(Json::Bool(true))), "{st:?}");
            assert!(
                matches!(st.get("draining"), Some(Json::Bool(false))),
                "{st:?}"
            );
            let queue = st.get("queue").unwrap();
            assert_eq!(num(queue, "capacity"), 128);
            assert_eq!(num(st.get("docs").unwrap(), "count"), 1);
            let default = resident(&st, "default");
            // In-memory daemon: no durable counters on the entry.
            assert!(default.get("wal_records").is_none(), "{default:?}");

            // Build info and daemon gauges in the Prometheus scrape.
            let (_, prom) = http(addr, "GET", "/metrics", "");
            let build = format!(
                "xic_build_info{{version=\"{}\"}} 1",
                env!("CARGO_PKG_VERSION")
            );
            assert!(prom.contains(&build), "{prom}");
            assert!(prom.contains("# TYPE xic_build_info gauge"), "{prom}");
            assert!(prom.contains("\nxic_uptime_seconds "), "{prom}");
            assert!(prom.contains("xic_serve_queue_capacity 128"), "{prom}");
            assert!(prom.contains("\nxic_serve_queue_depth "), "{prom}");
        });
    }

    #[test]
    fn per_doc_metrics_scrape_matches_merged_labels() {
        with_daemon(GOOD_DOC, &[], |addr| {
            let with_dtd = format!("<!DOCTYPE book [\n{BOOK_DTD}\n]>\n{GOOD_DOC}");
            let (status, _) = http(addr, "PUT", "/docs/a", &with_dtd);
            assert_eq!(status, 201);
            let (status, _) = http(addr, "POST", "/docs/a/edits", "set-attr 5 to dangling\n");
            assert_eq!(status, 200);

            // The per-doc scrape carries the same doc label the merged
            // view applies, so dashboards can use one query for both.
            let (status, solo) = http(addr, "GET", "/docs/a/metrics", "");
            assert_eq!(status, 200, "{solo}");
            assert!(solo.contains("xic_edits_total{doc=\"a\"} 1"), "{solo}");
            assert!(solo.contains("xic_doc_requests_total{doc=\"a\"}"), "{solo}");
            // But not the other tenants' series.
            assert!(!solo.contains("doc=\"default\""), "{solo}");

            let (_, merged) = http(addr, "GET", "/metrics", "");
            assert!(merged.contains("xic_edits_total{doc=\"a\"} 1"), "{merged}");

            let (status, body) = http(addr, "GET", "/docs/ghost/metrics", "");
            assert_eq!(status, 404);
            assert!(body.contains("no such document"), "{body}");
        });
    }

    #[test]
    fn route_taxonomy_separates_not_found_from_bad_request() {
        with_daemon(GOOD_DOC, &[], |addr| {
            // Well-formed paths with no handler: 404.
            let (status, _) = http(addr, "GET", "/nope", "");
            assert_eq!(status, 404);
            let (status, _) = http(addr, "POST", "/docs/default", "");
            assert_eq!(status, 404);
            // Malformed /docs shapes: 400, not 404.
            let (status, body) = http(addr, "GET", "/docs/a/b/c", "");
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("malformed /docs path"), "{body}");
            let (status, body) = http(addr, "GET", "/docs/a/frobnicate", "");
            assert_eq!(status, 400, "{body}");

            let (_, prom) = http(addr, "GET", "/metrics", "");
            let count = |needle: &str| -> u64 {
                prom.lines()
                    .find(|l| l.starts_with(needle) && !l.starts_with('#'))
                    .and_then(|l| l.rsplit(' ').next())
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("missing {needle} in {prom}"))
            };
            assert_eq!(count("xic_http_route_not_found_seconds_count"), 2, "{prom}");
            assert_eq!(
                count("xic_http_route_bad_request_seconds_count"),
                2,
                "{prom}"
            );
        });
    }

    #[test]
    fn access_log_lines_round_trip_and_sample() {
        let log = unique_path("accesslog");
        let log_s = log.to_str().unwrap().to_string();
        let script = "set-attr 5 to dangling\n";
        with_daemon(
            GOOD_DOC,
            &["--access-log", &log_s, "--log-sample", "1"],
            |addr| {
                let (status, _) = http(addr, "GET", "/report", "");
                assert_eq!(status, 200);
                let (status, _) = http(addr, "POST", "/edits", script);
                assert_eq!(status, 200);
                let (status, _) = http(addr, "GET", "/healthz", "");
                assert_eq!(status, 200);
            },
        );
        // Daemon fully drained: the log holds our 3 requests + shutdown.
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        // Every line parses, and re-rendering reproduces it byte-for-byte.
        let records: Vec<AccessRecord> = lines
            .iter()
            .map(|l| {
                let r = AccessRecord::parse(l).unwrap();
                assert_eq!(r.to_json_line(), *l);
                r
            })
            .collect();
        // Sequential requests: strictly increasing request ids.
        for w in records.windows(2) {
            assert!(w[0].req < w[1].req, "{text}");
        }
        let edits = &records[1];
        assert_eq!(edits.method, "POST");
        assert_eq!(edits.path, "/edits");
        assert_eq!(edits.doc, "default");
        assert_eq!(edits.route, "http.route.edits");
        assert_eq!(edits.status, 200);
        assert_eq!(edits.bytes_in, script.len() as u64);
        assert!(edits.bytes_out > 0);
        assert!(edits.handler_nanos > 0);
        let _ = std::fs::remove_file(&log);

        // --log-sample 3 keeps every 3rd offered request: of 6 offered
        // (5 reports + the shutdown), indices 0 and 3 are written.
        let log = unique_path("accesslog-sampled");
        let log_s = log.to_str().unwrap().to_string();
        with_daemon(
            GOOD_DOC,
            &["--access-log", &log_s, "--log-sample", "3"],
            |addr| {
                for _ in 0..5 {
                    let (status, _) = http(addr, "GET", "/report", "");
                    assert_eq!(status, 200);
                }
            },
        );
        let text = std::fs::read_to_string(&log).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn status_wal_counters_match_disk_after_snapshot_cycle() {
        let state = unique_path("statuswal");
        let state_s = state.to_str().unwrap().to_string();
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            for value in ["dangling", "x1"] {
                let (status, body) =
                    http(addr, "POST", "/edits", &format!("set-attr 5 to {value}\n"));
                assert_eq!(status, 200, "{body}");
            }
            let st = fetch_status(addr);
            let d = resident(&st, "default");
            assert_eq!(num(d, "wal_records"), 2, "{d:?}");
            assert_eq!(num(d, "wal_last_seq"), 2, "{d:?}");
            assert_eq!(num(d, "since_snapshot"), 2, "{d:?}");

            let (status, body) = http(addr, "POST", "/docs/default/snapshot", "");
            assert_eq!(status, 200, "{body}");

            // The reset empties the log without rewinding its sequence:
            // last_seq keeps counting acknowledged batches across cycles.
            let st = fetch_status(addr);
            let d = resident(&st, "default");
            assert_eq!(num(d, "wal_records"), 0, "{d:?}");
            assert_eq!(num(d, "wal_last_seq"), 2, "{d:?}");
            assert_eq!(num(d, "since_snapshot"), 0, "{d:?}");
            assert!(num(d, "snapshot_bytes") > 0, "{d:?}");
            assert!(num(d, "snapshot_age_seconds") < 60, "{d:?}");

            // /status agrees with the bytes on disk: the published
            // snapshot is stamped with the same last-applied sequence.
            let disk = DocStore::open(&state, FsyncPolicy::Always).unwrap();
            let path = disk.snapshot_path("default").unwrap();
            let (_, disk_seq) = read_snapshot(&path).unwrap();
            assert_eq!(disk_seq, num(d, "wal_last_seq"));
            let stats = disk.snapshot_stats("default").unwrap().unwrap();
            assert_eq!(stats.bytes, num(d, "snapshot_bytes"));

            // The next batch lands in the fresh log at sequence 3.
            let (status, _) = http(addr, "POST", "/edits", "set-attr 5 to dangling\n");
            assert_eq!(status, 200);
            let st = fetch_status(addr);
            let d = resident(&st, "default");
            assert_eq!(num(d, "wal_records"), 1, "{d:?}");
            assert_eq!(num(d, "wal_last_seq"), 3, "{d:?}");
            assert_eq!(num(d, "since_snapshot"), 1, "{d:?}");
        });
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn healthz_flips_to_not_ready_during_drain() {
        let doc = tmp("doc.xml", GOOD_DOC);
        let mut args = vec![doc.to_str().unwrap().to_string()];
        args.extend(book_flags());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || serve_on(listener, &args));

        // A keep-alive connection established before the drain: its
        // worker keeps serving it until the response after the flag flip
        // closes it at a boundary.
        let mut c = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
        let (status, body) = c.request("GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ready: ok"), "{body}");

        let (status, _) = http(addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);

        // The drain begins just after the shutdown response is written;
        // poll until readiness flips (bounded, normally 1-2 probes).
        let mut flipped = false;
        for _ in 0..500 {
            let (status, body) = c.request("GET", "/healthz", "").unwrap();
            if status == 503 {
                assert!(body.contains("ready: draining"), "{body}");
                flipped = true;
                break;
            }
            assert_eq!(status, 200, "{body}");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(flipped, "healthz never reported draining");
        drop(c);
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn trace_endpoint_drains_request_scoped_span_chain() {
        let state = unique_path("tracechain");
        let state_s = state.to_str().unwrap().to_string();
        let trace_out = unique_path("tracechain-out");
        let trace_out_s = trace_out.to_str().unwrap().to_string();
        let events_of = |body: &str| -> Vec<Json> {
            match xic::obs::json::parse(body).unwrap() {
                Json::Array(events) => events,
                other => panic!("/trace is not an array: {other:?}"),
            }
        };
        let req_of = |e: &Json| -> u64 {
            e.get("args")
                .and_then(|a| a.get("req"))
                .map_or(0, |r| r.as_u64("req").unwrap())
        };
        let name_of =
            |e: &Json| -> String { e.get("name").unwrap().as_str("name").unwrap().into() };
        with_daemon(
            GOOD_DOC,
            &["--state-dir", &state_s, "--trace-out", &trace_out_s],
            |addr| {
                // Drain boot noise so the next drain isolates one request.
                let (status, _) = http(addr, "GET", "/trace", "");
                assert_eq!(status, 200);

                // One edit on a fresh connection: its queue wait, HTTP
                // spans, shard dispatch, batch, and WAL append all carry
                // the same request id.
                let (status, _) = http(addr, "POST", "/edits", "set-attr 5 to dangling\n");
                assert_eq!(status, 200);

                let (status, body) = http(addr, "GET", "/trace", "");
                assert_eq!(status, 200);
                let events = events_of(&body);
                let edit_reqs: Vec<u64> = events
                    .iter()
                    .filter(|e| name_of(e) == "http.route.edits")
                    .map(&req_of)
                    .collect();
                assert_eq!(edit_reqs.len(), 1, "{body}");
                let rid = edit_reqs[0];
                assert!(rid > 0, "{body}");
                for expect in [
                    "serve.queue_wait",
                    "http.request",
                    "http.route.edits",
                    "serve.shard_dispatch",
                    "edit.batch",
                    "wal.append",
                ] {
                    let n = events
                        .iter()
                        .filter(|e| req_of(e) == rid && name_of(e) == expect)
                        .count();
                    assert_eq!(n, 1, "span {expect} not exactly once for req {rid}: {body}");
                }

                // Drained means drained: the id never reappears.
                let (_, body) = http(addr, "GET", "/trace", "");
                assert!(!events_of(&body).iter().any(|e| req_of(e) == rid), "{body}");
            },
        );
        // --trace-out persisted whatever the ring held at exit (the
        // shutdown request, shard exit snapshots) as loadable JSON.
        let tail = std::fs::read_to_string(&trace_out).unwrap();
        assert!(matches!(
            xic::obs::json::parse(&tail).unwrap(),
            Json::Array(_)
        ));
        let _ = std::fs::remove_file(&trace_out);
        let _ = std::fs::remove_dir_all(&state);
    }

    /// Runs `apply-edits` on `GOOD_DOC` with `script`, returning the exit
    /// code, the output, and the script's path.
    fn apply_edits_cli(script: &str, extra: &[&str]) -> (i32, String, String) {
        let doc = tmp("doc.xml", GOOD_DOC);
        let script_file = tmp("script.txt", script);
        let mut args = vec![
            "apply-edits".to_string(),
            doc.to_str().unwrap().to_string(),
            script_file.to_str().unwrap().to_string(),
        ];
        args.extend(book_flags());
        args.extend(extra.iter().map(ToString::to_string));
        let mut out = String::new();
        let code = crate::run(&args, &mut out);
        (code, out, script_file.to_str().unwrap().to_string())
    }

    /// A malformed line rejects the whole script with its line number and
    /// applies (and logs) nothing; an edit that cannot apply keeps the
    /// applied prefix. Pinned in every mode: `apply-edits`, serve, and
    /// serve `--state-dir`, each batched and `--sequential`.
    #[test]
    fn failing_scripts_behave_the_same_in_every_mode() {
        const MALFORMED: &str = "set-attr 5 to dangling\nset-attr 1 isbn x9\nfrobnicate 1\n";
        const STUCK: &str = "set-attr 5 to dangling\nset-attr 999 isbn x9\nset-attr 1 isbn x7\n";
        let (_, pristine, _) = apply_edits_cli("", &[]);
        let (_, prefix, _) = apply_edits_cli("set-attr 5 to dangling\n", &[]);
        let prefix = report_of(&prefix);
        assert!(prefix.contains("dangling"), "{prefix}");

        for mode in [&[][..], &["--sequential"][..]] {
            let sequential = !mode.is_empty();
            // apply-edits: the error names the script line; a malformed
            // script echoes no edit, a stuck one echoes its applied prefix
            // only when each line is its own batch.
            let (code, out, path) = apply_edits_cli(MALFORMED, mode);
            assert_eq!(code, 2, "{out}");
            assert!(out.contains(&format!("{path}:3: unknown edit")), "{out}");
            assert!(!out.contains("edit: "), "nothing may apply: {out}");
            let (code, out, path) = apply_edits_cli(STUCK, mode);
            assert_eq!(code, 2, "{out}");
            assert!(out.contains(&format!("{path}:2: unknown vertex")), "{out}");
            let echoed: Vec<&str> = out.lines().filter(|l| l.starts_with("edit: ")).collect();
            let expected: &[&str] = if sequential {
                &["edit: set-attr 5 to dangling"]
            } else {
                &[]
            };
            assert_eq!(echoed, expected, "{out}");

            for durable in [false, true] {
                let state = unique_path("modes");
                let state_s = state.to_str().unwrap().to_string();
                let mut flags: Vec<&str> = mode.to_vec();
                if durable {
                    flags.extend(["--state-dir", &state_s]);
                }
                with_daemon(GOOD_DOC, &flags, |addr| {
                    for id in ["m", "s"] {
                        let (status, body) = http(addr, "PUT", &format!("/docs/{id}"), GOOD_DOC);
                        assert_eq!(status, 201, "{body}");
                    }
                    let wal_records = |id: &str| {
                        let st = fetch_status(addr);
                        num(resident(&st, id), "wal_records")
                    };
                    let label = format!("sequential={sequential} durable={durable}");

                    let (status, body) = http(addr, "POST", "/docs/m/edits", MALFORMED);
                    assert_eq!(status, 400, "{label}: {body}");
                    assert!(
                        body.contains("edits line 3: unknown edit"),
                        "{label}: {body}"
                    );
                    let (_, report) = http(addr, "GET", "/docs/m/report", "");
                    assert_eq!(report, pristine, "{label}: malformed script applied");
                    if durable {
                        assert_eq!(wal_records("m"), 0, "{label}: malformed script logged");
                    }

                    let (status, body) = http(addr, "POST", "/docs/s/edits", STUCK);
                    assert_eq!(status, 400, "{label}: {body}");
                    assert!(
                        body.contains("edits line 2: unknown vertex"),
                        "{label}: {body}"
                    );
                    let (_, report) = http(addr, "GET", "/docs/s/report", "");
                    assert_eq!(report, prefix, "{label}: applied prefix lost");
                    if durable {
                        assert_eq!(wal_records("s"), 1, "{label}: prefix not logged once");
                    }
                });
                let _ = std::fs::remove_dir_all(&state);
            }
        }
    }

    /// Copies every file of a `--state-dir` tree: a crash image of a
    /// running daemon's disk.
    fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let dest = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_tree(&entry.path(), &dest);
            } else {
                std::fs::copy(entry.path(), dest).unwrap();
            }
        }
    }

    /// A script failing on line 2 logs exactly its applied line 1: the WAL
    /// gains one record, and both a crash image of the disk and a clean
    /// restart recover the report the daemon served before.
    #[test]
    fn failing_script_logs_its_applied_prefix_across_restarts() {
        let state = unique_path("failing-restart");
        let state_s = state.to_str().unwrap().to_string();
        let image = unique_path("failing-restart-image");
        let image_s = image.to_str().unwrap().to_string();
        let mut before = String::new();
        with_daemon(GOOD_DOC, &["--state-dir", &state_s], |addr| {
            let records = |addr| num(resident(&fetch_status(addr), "default"), "wal_records");
            let start = records(addr);
            let script = "set-attr 5 to dangling\nset-attr 999 to x1\nset-attr 5 to x1\n";
            let (status, body) = http(addr, "POST", "/edits", script);
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("edits line 2"), "{body}");
            assert_eq!(records(addr), start + 1);
            let (_, report) = http(addr, "GET", "/report", "");
            assert!(
                report.contains("dangling"),
                "line 1 must stay applied: {report}"
            );
            before = report;
            copy_tree(&state, &image);
        });
        for dir in [&image_s, &state_s] {
            with_daemon(GOOD_DOC, &["--state-dir", dir], |addr| {
                let (status, report) = http(addr, "GET", "/report", "");
                assert_eq!(status, 200);
                assert_eq!(report, before, "recovery from {dir} diverged");
            });
        }
        let _ = std::fs::remove_dir_all(&state);
        let _ = std::fs::remove_dir_all(&image);
    }

    /// A `--snapshot-every` snapshot that fails after the batch was applied
    /// and logged still answers 200; `since_snapshot` stays unreset so the
    /// next batch retries, and succeeds once the obstacle is gone.
    #[test]
    fn failed_periodic_snapshot_still_acknowledges_the_batch() {
        let state = unique_path("snapshot-fail");
        let state_s = state.to_str().unwrap().to_string();
        with_daemon(
            GOOD_DOC,
            &["--state-dir", &state_s, "--snapshot-every", "1"],
            |addr| {
                let since = |addr| num(resident(&fetch_status(addr), "default"), "since_snapshot");
                // Answered only once boot has persisted the document.
                assert_eq!(since(addr), 0);
                // A non-empty directory where the snapshot goes makes the
                // atomic rename fail, whatever the process's privileges.
                let snap = DocStore::open(&state, FsyncPolicy::Always)
                    .unwrap()
                    .snapshot_path("default")
                    .unwrap();
                std::fs::remove_file(&snap).unwrap();
                std::fs::create_dir_all(snap.join("blocker")).unwrap();
                for (n, value) in [(1, "dangling"), (2, "x1")] {
                    let script = format!("set-attr 5 to {value}\n");
                    let (status, body) = http(addr, "POST", "/edits", &script);
                    assert_eq!(status, 200, "{body}");
                    assert_eq!(
                        since(addr),
                        n,
                        "a failed snapshot must not reset the counter"
                    );
                }
                std::fs::remove_dir_all(&snap).unwrap();
                let (status, body) = http(addr, "POST", "/edits", "set-attr 5 to x1\n");
                assert_eq!(status, 200, "{body}");
                assert_eq!(since(addr), 0, "the retried snapshot succeeds");
                assert!(snap.is_file());
            },
        );
        let _ = std::fs::remove_dir_all(&state);
    }
}
