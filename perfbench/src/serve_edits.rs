//! `serve_edits`: an in-process `xic serve` daemon (`serve_on` on port 0,
//! default `--http-threads`, `--state-dir` in scratch, `--fsync never`, no
//! periodic snapshot) serving two ~5×10⁴-vertex documents of the
//! constraint-heavy schema, Σ given as a `--sigma` file. The load is a
//! closed loop of two keep-alive clients, one per document, each waiting
//! for its reply as an editor waits for its diff: every eighth request is
//! `GET /docs/{id}/report`, the rest post 8-line `set-attr` scripts from
//! [`EditStream`]. This is the HTTP → queue → shard → `apply_batch` → WAL
//! path on a working set that fits in cache, with almost no XML lexing.
//! The unit operation is one edit request.
//!
//! WAL appends are not synced: a synced 512-byte write on the 2-CPU
//! development VM costs 76–96 µs and varies ±12% from run to run, more
//! than the whole CPU path of an edit, so under `--fsync always` the
//! metric would measure the host's disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xic::obs::alloc as mem;
use xic::obs::json::{self, Json};
use xic::obs::Metrics;

use crate::gen::{self, Doc, EditStream, SCRIPT_LINES};
use crate::{
    daemon_args, file_len, fresh_dir, mean, median, quantile, repeated_setup, request, Config,
    Daemon, Outcome, Scale,
};

/// Documents served, one client each.
const DOCS: usize = 2;

/// Every this-many-th request of a client reads the report.
const REPORT_EVERY: u64 = 8;

/// The measured loop runs as back-to-back phases of this many seconds,
/// each with fresh client threads and connections. On a 2-CPU host an
/// edit's latency is mostly thread hand-offs, and it depends on where the
/// scheduler places clients, workers and shards: one client's median
/// ranged 0.08–0.18 ms across phases of one run. Many short phases
/// sample many placements per run instead of a few.
const PHASE_SECONDS: f64 = 0.2;

/// Bytes of a WAL file before its first record (magic and version).
const WAL_HEADER_BYTES: u64 = 8;

/// In a traced run, client 0 drains `GET /trace` every this many of its
/// requests, well before a daemon thread's 65 536-event ring can wrap.
const DRAIN_EVERY: u64 = 2048;

fn vertices(scale: Scale) -> usize {
    match scale {
        Scale::Full => 50_000,
        Scale::Tiny => 2_000,
    }
}

/// The system under load: both documents ingested by a running daemon.
struct Served {
    docs: Vec<Doc>,
    /// Per doc, its order vertices and its edit-stream seed.
    orders: Vec<Vec<usize>>,
    seeds: Vec<u64>,
    sigma: PathBuf,
    state: PathBuf,
    daemon: Daemon,
}

/// Generates the inputs, starts the daemon in `dir` and `PUT`s both
/// documents.
fn serve(cfg: &Config, dir: &Path, traced: bool) -> Result<Served, String> {
    fresh_dir(dir)?;
    let seeds: Vec<u64> = (0..DOCS as u64)
        .map(|j| gen::sub_seed(cfg.seed, j))
        .collect();
    let docs: Vec<Doc> = seeds
        .iter()
        .map(|&s| gen::doc(vertices(cfg.scale), s))
        .collect();
    let orders = docs
        .iter()
        .map(|d| gen::order_vertices(&d.src))
        .collect::<Result<Vec<_>, _>>()?;
    let sigma = dir.join("sigma.txt");
    std::fs::write(&sigma, gen::sigma_text(&docs[0].dtdc)).map_err(|e| e.to_string())?;
    let state = dir.join("state");
    let daemon = Daemon::start(daemon_args(&sigma, &state, traced))?;
    let mut admin = daemon.client()?;
    for (j, d) in docs.iter().enumerate() {
        request(&mut admin, "PUT", &format!("/docs/d{j}"), &d.src)?;
    }
    Ok(Served {
        docs,
        orders,
        seeds: seeds.iter().map(|&s| gen::sub_seed(s, 2)).collect(),
        sigma,
        state,
        daemon,
    })
}

/// What one client saw during a measured loop.
#[derive(Default)]
struct ClientLog {
    edit_s: Vec<f64>,
    report_s: Vec<f64>,
    scripts: u64,
    errors: Vec<String>,
    traces: Vec<String>,
}

/// Client `j`'s closed loop on doc `d{j}` over a fresh connection until
/// `deadline` (at least one request), continuing `stream` and appending to
/// `log`. Stops at its first failed request: the daemon's state is then
/// unknown, and the end-of-run checks report the miss.
fn client(
    served: &Served,
    j: usize,
    stream: &mut EditStream,
    log: &mut ClientLog,
    deadline: Instant,
    drain: bool,
) {
    let mut c = match served.daemon.client() {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(e);
            return;
        }
    };
    let (edits, report) = (format!("/docs/d{j}/edits"), format!("/docs/d{j}/report"));
    let mut k = (log.edit_s.len() + log.report_s.len()) as u64;
    let first = k;
    while k == first || Instant::now() < deadline {
        k += 1;
        if drain && k.is_multiple_of(DRAIN_EVERY) {
            match request(&mut c, "GET", "/trace", "") {
                Ok(body) => log.traces.push(body),
                Err(e) => log.errors.push(e),
            }
        }
        let reading = k.is_multiple_of(REPORT_EVERY);
        let script = if reading {
            String::new()
        } else {
            stream.next_script()
        };
        let t0 = Instant::now();
        let reply = if reading {
            request(&mut c, "GET", &report, "")
        } else {
            request(&mut c, "POST", &edits, &script)
        };
        let t = t0.elapsed().as_secs_f64();
        match reply {
            Ok(_) if reading => log.report_s.push(t),
            Ok(_) => {
                log.edit_s.push(t);
                log.scripts += 1;
            }
            Err(e) => {
                log.errors.push(e);
                break;
            }
        }
    }
}

/// One measured loop, and what the daemon said after it.
struct Measured {
    logs: Vec<ClientLog>,
    wall: f64,
    peak_heap: u64,
    reports: Vec<String>,
    metrics: Metrics,
    traces: Vec<String>,
}

impl Measured {
    /// Every edit request's latency in seconds, both clients.
    fn edit_s(&self) -> Vec<f64> {
        self.logs.iter().flat_map(|l| l.edit_s.clone()).collect()
    }
}

fn measure(served: &Served, seconds: f64, traced: bool) -> Result<Measured, String> {
    let mut streams: Vec<EditStream> = (0..DOCS)
        .map(|j| EditStream::new(served.seeds[j], served.orders[j].clone()))
        .collect();
    let mut logs: Vec<ClientLog> = (0..DOCS).map(|_| ClientLog::default()).collect();
    mem::reset_peak();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut deadline = start;
    while deadline < end {
        deadline = end.min(deadline + Duration::from_secs_f64(PHASE_SECONDS));
        std::thread::scope(|s| {
            for (j, (stream, log)) in streams.iter_mut().zip(&mut logs).enumerate() {
                if log.errors.is_empty() {
                    s.spawn(move || client(served, j, stream, log, deadline, traced && j == 0));
                }
            }
        });
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_heap = mem::stats().peak;
    // The clients have hung up, so a worker is free for this connection.
    let mut admin = served.daemon.client()?;
    let mut traces: Vec<String> = logs.iter().flat_map(|l| l.traces.clone()).collect();
    if traced {
        traces.push(request(&mut admin, "GET", "/trace", "")?);
    }
    let reports = (0..DOCS)
        .map(|j| request(&mut admin, "GET", &format!("/docs/d{j}/report"), ""))
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = Metrics::parse_json(&request(&mut admin, "GET", "/metrics.json", "")?)?;
    Ok(Measured {
        logs,
        wall,
        peak_heap,
        reports,
        metrics,
        traces,
    })
}

/// The final report `xic apply-edits` prints for doc `j` after the
/// loop's `scripts` scripts, replayed from the same seed.
fn oracle_report(served: &Served, j: usize, scripts: u64, dir: &Path) -> Result<String, String> {
    let doc_path = dir.join(format!("oracle-d{j}.xml"));
    let script_path = dir.join(format!("oracle-d{j}.edits"));
    let mut stream = EditStream::new(served.seeds[j], served.orders[j].clone());
    let script: String = (0..scripts).map(|_| stream.next_script()).collect();
    std::fs::write(&doc_path, &served.docs[j].src).map_err(|e| e.to_string())?;
    std::fs::write(&script_path, script).map_err(|e| e.to_string())?;
    let args: Vec<String> = [
        "apply-edits",
        &doc_path.display().to_string(),
        &script_path.display().to_string(),
        "--sigma",
        &served.sigma.display().to_string(),
        "--lang",
        "Lu",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let mut out = String::new();
    let code = xic_cli::run(&args, &mut out);
    if code > 1 {
        return Err(format!("apply-edits oracle failed: {out}"));
    }
    // The report is the tail starting at its header line.
    let mut at = None;
    let mut pos = 0;
    for line in out.split_inclusive('\n') {
        if line.starts_with("invalid: ") || line.starts_with("valid (") {
            at = Some(pos);
        }
        pos += line.len();
    }
    at.map(|i| out[i..].to_string())
        .ok_or_else(|| format!("apply-edits printed no report: {out}"))
}

/// Counts the loop's requests and runs its correctness checks.
fn verify(served: &Served, run: &Measured, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    for (j, log) in run.logs.iter().enumerate() {
        out.attempted += (log.edit_s.len() + log.report_s.len() + log.errors.len()) as u64;
        out.failed += log.errors.len() as u64;
        let first = log
            .errors
            .first()
            .map_or(String::new(), |e| format!(": {e}"));
        out.check(
            format!("d{j}: every request answered 2xx{first}"),
            log.errors.is_empty(),
        );
        let oracle = oracle_report(served, j, log.scripts, dir)?;
        out.check(
            format!(
                "d{j}: final /report is byte-identical to apply-edits after {} scripts",
                log.scripts
            ),
            run.reports[j] == oracle,
        );
        let counted = run.metrics.counter(&format!("edits#doc=d{j}"));
        out.check(
            format!("d{j}: edits#doc counter ({counted}) matches the edits sent"),
            counted == log.scripts * SCRIPT_LINES as u64,
        );
    }
    Ok(())
}

fn teardown(served: Served) -> Result<(), String> {
    served.daemon.shutdown()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.facts
        .push(("docs x clients", format!("{DOCS} x {DOCS}, closed loop")));
    out.facts
        .push(("fsync", "never (WAL appends unsynced)".into()));
    if !cfg.trace {
        let dir = cfg.scratch.join("serve");
        let (served, setup_s) = repeated_setup(|| serve(cfg, &dir, false), teardown)?;
        describe(&served, &mut out);
        let run = measure(&served, cfg.seconds, false)?;
        verify(&served, &run, &dir, &mut out)?;
        teardown(served)?;
        let edits = run.edit_s();
        let reports: Vec<f64> = run.logs.iter().flat_map(|l| l.report_s.clone()).collect();
        let rate = edits.len() as f64 / run.wall;
        out.set("setup_s", setup_s);
        out.set("op_p50_ms", median(&edits) * 1e3);
        out.set("ops_per_s", rate);
        out.set("peak_heap_mb", run.peak_heap as f64 / 1e6);
        out.detail("edit_req_per_s", rate, "req/s");
        out.detail("edit_p50_ms", median(&edits) * 1e3, "ms");
        out.detail("edit_p99_ms", quantile(&edits, 0.99) * 1e3, "ms");
        out.detail("report_p50_ms", median(&reports) * 1e3, "ms");
        out.detail("edit requests", edits.len() as f64, "count");
        out.detail("report requests", reports.len() as f64, "count");
        return Ok(out);
    }

    // Traced: half the time on an untraced daemon, half on one with the
    // span ring on, whose per-request chains give the layer split.
    let half = cfg.seconds / 2.0;
    let dir = cfg.scratch.join("serve-plain");
    let plain = serve(cfg, &dir, false)?;
    describe(&plain, &mut out);
    let plain_run = measure(&plain, half, false)?;
    verify(&plain, &plain_run, &dir, &mut out)?;
    teardown(plain)?;

    let dir = cfg.scratch.join("serve-traced");
    let traced = serve(cfg, &dir, true)?;
    let run = measure(&traced, half, true)?;
    verify(&traced, &run, &dir, &mut out)?;
    let lines: u64 = run.logs.iter().map(|l| l.scripts).sum::<u64>() * SCRIPT_LINES as u64;
    let wal_bytes: u64 = (0..DOCS)
        .map(|j| file_len(&traced.state.join(format!("d{j}/wal.log"))))
        .sum();
    let snapshot_bytes = file_len(&traced.state.join("d0/snapshot.bin"));
    let src_bytes = traced.docs[0].src.len();
    teardown(traced)?;

    let traced_edits = run.edit_s();
    let chains = Chains::from_traces(&run.traces)?;
    out.check(
        format!(
            "the drained trace holds a chain for every edit request ({} of {})",
            chains.edits,
            traced_edits.len()
        ),
        chains.edits as usize == traced_edits.len(),
    );
    let per_edit = |s: f64| s / chains.edits.max(1) as f64;
    let layers = [
        ("serve.queue_wait_s", per_edit(chains.queue_wait)),
        ("http.request_self_s", per_edit(chains.request_self)),
        ("serve.shard_self_s", per_edit(chains.shard_self)),
        ("live.batch_s", per_edit(chains.batch)),
        ("storage.wal_append_s", per_edit(chains.wal_append)),
    ];
    for (name, value) in layers {
        out.set(name, value);
    }
    let op = mean(&traced_edits);
    let counter = |name: &str| -> f64 {
        (0..DOCS)
            .map(|j| run.metrics.counter(&format!("{name}#doc=d{j}")) as f64)
            .sum()
    };
    out.set(
        "http.route_report_s",
        chains.route_report / chains.reports.max(1) as f64,
    );
    out.set(
        "live.coalesced_ratio",
        counter("edit.coalesced") / counter("edit.count"),
    );
    out.set("http.rejected", run.metrics.counter("http.rejected") as f64);
    out.set(
        "storage.wal_bytes_per_edit",
        wal_bytes.saturating_sub(WAL_HEADER_BYTES * DOCS as u64) as f64 / lines.max(1) as f64,
    );
    out.set("storage.snapshot_bytes", snapshot_bytes as f64);
    out.set(
        "storage.snapshot_bytes_per_src_byte",
        snapshot_bytes as f64 / src_bytes as f64,
    );
    out.set(
        "obs.trace_overhead",
        median(&traced_edits) / median(&plain_run.edit_s()),
    );
    out.set("op.traced_s", op);
    out.set(
        "op.unattributed_s",
        op - layers.iter().map(|(_, v)| v).sum::<f64>(),
    );
    Ok(out)
}

fn describe(served: &Served, out: &mut Outcome) {
    out.facts
        .push(("vertices per doc", served.docs[0].vertices.to_string()));
    out.facts
        .push(("source bytes per doc", served.docs[0].src.len().to_string()));
    out.check(
        "the generated --sigma parses back to the schema's constraints",
        gen::sigma_round_trips(&served.docs[0].dtdc),
    );
}

/// Per-request layer times summed over the edit and report requests of
/// drained `GET /trace` bodies (Chrome trace events tagged with
/// `args.req`). Self times follow the daemon's chain
/// `serve.queue_wait → http.request → http.route.* →
/// serve.shard_dispatch → {wal.append, edit.batch}`: a span's self time
/// is its duration minus its children's.
#[derive(Debug, Default)]
struct Chains {
    edits: u64,
    reports: u64,
    queue_wait: f64,
    request_self: f64,
    shard_self: f64,
    batch: f64,
    wal_append: f64,
    route_report: f64,
}

impl Chains {
    fn from_traces(bodies: &[String]) -> Result<Chains, String> {
        let mut by_req: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
        for body in bodies {
            for ev in &trace_events(body)? {
                let req = match ev.get("args").and_then(|a| a.get("req")) {
                    Some(Json::Number(r)) => *r as u64,
                    _ => continue,
                };
                let name = ev.get("name").ok_or("trace event without a name")?;
                let Some(Json::Number(dur_us)) = ev.get("dur") else {
                    return Err("trace event without a duration".into());
                };
                *by_req
                    .entry(req)
                    .or_default()
                    .entry(name.as_str("name")?.to_string())
                    .or_default() += dur_us / 1e6;
            }
        }
        let mut c = Chains::default();
        for spans in by_req.values() {
            let s = |name: &str| spans.get(name).copied().unwrap_or(0.0);
            if spans.contains_key("http.route.edits") {
                c.edits += 1;
                c.queue_wait += s("serve.queue_wait");
                c.request_self += s("http.request") - s("serve.shard_dispatch");
                c.shard_self += s("serve.shard_dispatch") - s("edit.batch") - s("wal.append");
                c.batch += s("edit.batch");
                c.wal_append += s("wal.append");
            } else if spans.contains_key("http.route.report") {
                c.reports += 1;
                c.route_report += s("http.route.report");
            }
        }
        Ok(c)
    }
}

/// The event objects of a drained `GET /trace` array, parsed one at a
/// time: `json::parse` re-validates the rest of its input for every
/// string character, which is quadratic on a multi-megabyte array. Span
/// names hold no braces, so brace depth finds the objects.
fn trace_events(body: &str) -> Result<Vec<Json>, String> {
    let mut events = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced trace JSON")?;
                if depth == 0 {
                    events.push(json::parse(&body[start..=i])?);
                }
            }
            _ => {}
        }
    }
    Ok(events)
}
