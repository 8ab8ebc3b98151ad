//! # xic-cli — the `xic` command-line tool
//!
//! A thin, dependency-free front end over the `xic` workspace:
//!
//! ```text
//! xic validate <doc.xml> [--dtd FILE --root NAME] [--sigma FILE --lang L|Lu|Lid] [--lenient] [--threads N] [--no-stream] [--metrics text|json|prom] [--trace-out FILE]
//! xic apply-edits <doc.xml> <edits.txt> [--dtd FILE --root NAME] [--sigma FILE --lang L|Lu|Lid] [--lenient] [--metrics text|json|prom] [--trace-out FILE]
//! xic serve    [<doc.xml>] --addr HOST:PORT [--dtd FILE --root NAME] [--sigma FILE --lang L|Lu|Lid] [--http-threads N] [--queue N] [--max-body BYTES] [--timeout SECS] [--state-dir DIR --fsync always|never --snapshot-every N] [--access-log FILE|- --log-sample N] [--trace-buffer N --trace-out FILE]
//! xic snapshot <doc.xml> --state-dir DIR [--doc-id ID] [--dtd FILE --root NAME] [--sigma FILE --lang L|Lu|Lid]
//! xic recover  --state-dir DIR [--doc-id ID] [--sigma FILE --lang L|Lu|Lid]
//! xic implies  --dtd FILE --root NAME --sigma FILE --lang L|Lu|Lid [--finite|--unrestricted] CONSTRAINT
//! xic path     --dtd FILE --root NAME --sigma FILE CONSTRAINT
//! xic render   <doc.xml>
//! xic xsd      --dtd FILE --root NAME --sigma FILE --lang L|Lu|Lid
//! ```
//!
//! * `validate` — checks a document against a `DTD^C` (Definition 2.4).
//!   The DTD comes from `--dtd`, or from the document's own `<!DOCTYPE>`
//!   internal subset. `Σ` comes from `--sigma` (the constraint syntax of
//!   `xic-constraints`, one per line, `#` comments). By default the check
//!   streams over the source text in one bounded-memory pass
//!   ([`Validator::validate_events`]); `--no-stream` materializes the
//!   document tree first. Both paths print identical reports.
//!   `--metrics text|json` appends a per-phase breakdown (parse,
//!   structure, plan, check, merge timings plus node/attribute/violation
//!   counters) from the [`xic::obs`] layer; `--trace-out FILE` writes
//!   every span as a Chrome trace-event timeline.
//! * `apply-edits` — loads a document into a [`LiveValidator`], plays a
//!   line-based edit script against it (`set-attr`, `remove-attr`,
//!   `set-text`, `delete`, `insert`; vertices are addressed by the node
//!   numbers `render` prints), and prints the violations the script raised
//!   (`+`) and cleared (`-`) followed by the final report — incremental
//!   revalidation, never a from-scratch pass. By default the whole script
//!   is submitted as one [`LiveValidator::apply_batch`] call: repeated
//!   writes to the same (vertex, attribute) or text slot coalesce
//!   last-writer-wins and propagation runs once for the batch, so the
//!   printed diff is the script's *net* effect. `--sequential` submits
//!   each line as its own one-edit batch and prints its diff; the final
//!   report is identical either way. The script is parsed before
//!   anything applies, so a malformed line rejects it whole.
//! * `snapshot` / `recover` — durable live-validator state (`xic-storage`):
//!   `snapshot` validates a document and persists its state as a versioned,
//!   checksummed snapshot under `--state-dir`; `recover` warm-starts from
//!   the snapshot plus the write-ahead log of edit batches `serve
//!   --state-dir` appends, and prints the identical report without parsing
//!   or revalidating from scratch.
//! * `implies` — decides `Σ ⊨ φ` / `Σ ⊨_f φ` with the solver matching
//!   `--lang`, printing the derivation or a countermodel when available.
//!   Derivations are re-checked before printing; a countermodel written
//!   with `--emit-countermodel` is first validated under Σ ∪ {φ}, and the
//!   command fails without writing it unless φ, and only φ, is violated.
//! * `path` — decides a Section-4 path constraint
//!   (`a.b.c -> a.d`, `a.b <= c.d`, `a.b <=> c.d`) against `Σ` in `L_id`.
//! * `render` — prints the Figure-2 style outline of a document.
//! * `xsd` — exports `Σ` as XML Schema identity constraints
//!   (`xs:key`/`xs:keyref`), flagging the forms XML Schema cannot express
//!   (set-valued foreign keys, inverses).
//!
//! Exit codes: 0 = valid/implied, 1 = invalid/not implied, 2 = usage or
//! input error. The library entry point [`run`] is used directly by the
//! tests; `main` only forwards `std::env::args`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
pub mod http;
mod serve;

pub use serve::serve_on;

use std::fmt::Write as _;

use xic::implication::lu::Mode;
use xic::prelude::*;

/// Parsed command-line options.
#[derive(Default, Debug, Clone)]
struct Opts {
    positional: Vec<String>,
    dtd: Option<String>,
    root: Option<String>,
    sigma: Option<String>,
    lang: Option<String>,
    lenient: bool,
    sequential: bool,
    finite: bool,
    unrestricted: bool,
    emit_countermodel: Option<String>,
    threads: Option<usize>,
    no_stream: bool,
    ids: bool,
    metrics: Option<String>,
    trace_out: Option<String>,
    addr: Option<String>,
    max_body: Option<usize>,
    http_threads: Option<usize>,
    queue: Option<usize>,
    timeout_secs: Option<f64>,
    state_dir: Option<String>,
    fsync: Option<String>,
    snapshot_every: Option<u64>,
    doc_id: Option<String>,
    access_log: Option<String>,
    log_sample: Option<u64>,
    trace_buffer: Option<usize>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match a.as_str() {
            "--dtd" => o.dtd = Some(grab("--dtd")?),
            "--root" => o.root = Some(grab("--root")?),
            "--sigma" => o.sigma = Some(grab("--sigma")?),
            "--lang" => o.lang = Some(grab("--lang")?),
            "--emit-countermodel" => o.emit_countermodel = Some(grab("--emit-countermodel")?),
            "--threads" => {
                let v = grab("--threads")?;
                o.threads = Some(
                    v.parse()
                        .map_err(|_| format!("--threads expects a number, got {v:?}"))?,
                );
            }
            "--metrics" => {
                let v = grab("--metrics")?;
                if v != "text" && v != "json" && v != "prom" {
                    return Err(format!("--metrics expects text, json or prom, got {v:?}"));
                }
                o.metrics = Some(v);
            }
            "--trace-out" => o.trace_out = Some(grab("--trace-out")?),
            "--addr" => o.addr = Some(grab("--addr")?),
            "--max-body" => {
                let v = grab("--max-body")?;
                o.max_body = Some(
                    v.parse()
                        .map_err(|_| format!("--max-body expects a byte count, got {v:?}"))?,
                );
            }
            "--http-threads" => {
                let v = grab("--http-threads")?;
                o.http_threads = Some(
                    v.parse()
                        .map_err(|_| format!("--http-threads expects a number, got {v:?}"))?,
                );
            }
            "--queue" => {
                let v = grab("--queue")?;
                o.queue = Some(
                    v.parse()
                        .map_err(|_| format!("--queue expects a number, got {v:?}"))?,
                );
            }
            "--timeout" => {
                let v = grab("--timeout")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--timeout expects seconds, got {v:?}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--timeout expects positive seconds, got {v:?}"));
                }
                o.timeout_secs = Some(secs);
            }
            "--state-dir" => o.state_dir = Some(grab("--state-dir")?),
            "--fsync" => {
                let v = grab("--fsync")?;
                if v != "always" && v != "never" {
                    return Err(format!("--fsync expects always or never, got {v:?}"));
                }
                o.fsync = Some(v);
            }
            "--snapshot-every" => {
                let v = grab("--snapshot-every")?;
                o.snapshot_every =
                    Some(v.parse().map_err(|_| {
                        format!("--snapshot-every expects a batch count, got {v:?}")
                    })?);
            }
            "--doc-id" => o.doc_id = Some(grab("--doc-id")?),
            "--access-log" => o.access_log = Some(grab("--access-log")?),
            "--log-sample" => {
                let v = grab("--log-sample")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--log-sample expects a number, got {v:?}"))?;
                if n == 0 {
                    return Err("--log-sample expects a number >= 1 (1 = log everything)".into());
                }
                o.log_sample = Some(n);
            }
            "--trace-buffer" => {
                let v = grab("--trace-buffer")?;
                o.trace_buffer = Some(v.parse().map_err(|_| {
                    format!("--trace-buffer expects an event count (0 disables), got {v:?}")
                })?);
            }
            "--lenient" => o.lenient = true,
            "--sequential" => o.sequential = true,
            "--ids" => o.ids = true,
            "--stream" => o.no_stream = false,
            "--no-stream" => o.no_stream = true,
            "--finite" => o.finite = true,
            "--unrestricted" => o.unrestricted = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn parse_lang(s: Option<&str>) -> Result<Language, String> {
    match s.unwrap_or("Lu") {
        "L" | "l" => Ok(Language::L),
        "Lu" | "lu" | "L_u" => Ok(Language::Lu),
        "Lid" | "lid" | "L_id" => Ok(Language::Lid),
        other => Err(format!(
            "unknown language {other:?} (expected L, Lu or Lid)"
        )),
    }
}

/// Builds the `DTD^C` from `--dtd/--root/--sigma/--lang`, or from a parsed
/// document's internal subset when `--dtd` is absent.
fn load_dtdc(o: &Opts, doc_dtd: Option<&DtdStructure>, checked: bool) -> Result<DtdC, String> {
    let structure = match (&o.dtd, doc_dtd) {
        (Some(path), _) => {
            let root = o
                .root
                .as_deref()
                .ok_or("--dtd requires --root <element>")?;
            parse_dtd(&read(path)?, root).map_err(|e| e.to_string())?
        }
        (None, Some(d)) => d.clone(),
        (None, None) => {
            return Err("no DTD: pass --dtd FILE --root NAME, or use a document with an internal <!DOCTYPE> subset".into())
        }
    };
    dtdc_of(o, structure, checked)
}

/// Builds the `DTD^C` of `structure` with `--sigma/--lang`. When `checked`
/// is false the set-level well-formedness of `Σ` is skipped (implication
/// accepts arbitrary constraint sets; side conditions are derived).
fn dtdc_of(o: &Opts, structure: DtdStructure, checked: bool) -> Result<DtdC, String> {
    let lang = parse_lang(o.lang.as_deref())?;
    let sigma_src = match &o.sigma {
        Some(path) => read(path)?,
        None => String::new(),
    };
    if checked {
        DtdC::parse(structure, lang, &sigma_src)
    } else {
        let sigma =
            Constraint::parse_set(&sigma_src, &structure, lang).map_err(|e| e.to_string())?;
        Ok(DtdC::new_unchecked(structure, lang, sigma))
    }
}

/// The observability wiring for one invocation: the handle instrumented
/// code holds, plus the trace ring when `--trace-out` asked for one (the
/// caller drains it into the file after the run).
struct ObsSetup {
    obs: Obs,
    trace: Option<std::sync::Arc<TraceCollector>>,
}

/// Builds the [`Obs`] handle for this invocation: a fresh
/// [`MetricsCollector`] (with latency histograms on the default span
/// families) when `--metrics` was passed, a [`TraceCollector`] ring when
/// `--trace-out` was, both under a [`Fanout`] when both were — otherwise
/// the disabled handle, where the validator never reads a clock.
fn obs_setup(o: &Opts) -> ObsSetup {
    let metrics = o
        .metrics
        .as_ref()
        .map(|_| MetricsCollector::shared_with_histograms());
    let trace = o
        .trace_out
        .as_ref()
        .map(|_| std::sync::Arc::new(TraceCollector::new()));
    let obs = match (metrics, &trace) {
        (None, None) => Obs::off(),
        (Some(m), None) => Obs::new(m),
        (None, Some(t)) => Obs::new(t.clone()),
        (Some(m), Some(t)) => Obs::new(std::sync::Arc::new(Fanout::new(vec![m, t.clone()]))),
    };
    ObsSetup { obs, trace }
}

/// Writes the Chrome trace-event export to `--trace-out`, if requested.
fn emit_trace(o: &Opts, setup: &ObsSetup) -> Result<(), String> {
    if let (Some(path), Some(tc)) = (&o.trace_out, &setup.trace) {
        std::fs::write(path, tc.to_chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Appends the metrics block after a report, in the `--metrics` format.
///
/// When the process runs under a counting global allocator (the `xic`
/// binary installs one; see `main.rs`), the snapshot gains the heap
/// totals as an `alloc.count` counter and an `alloc.peak` maximum.
/// Library embedders without the allocator see no such keys.
fn emit_metrics(o: &Opts, metrics: Option<&Metrics>, out: &mut String) {
    let (Some(fmt), Some(m)) = (o.metrics.as_deref(), metrics) else {
        return;
    };
    let alloc = xic::obs::alloc::stats();
    let mut with_alloc;
    let m = if alloc.count > 0 {
        with_alloc = m.clone();
        with_alloc
            .counters
            .insert("alloc.count".into(), alloc.count);
        with_alloc.maxima.insert("alloc.peak".into(), alloc.peak);
        &with_alloc
    } else {
        m
    };
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    match fmt {
        "json" => {
            let _ = writeln!(out, "{}", m.to_json());
        }
        "prom" => out.push_str(&m.to_prometheus()),
        _ => {
            let _ = write!(out, "{}", m.to_text());
        }
    }
}

/// Runs the CLI. Returns the process exit code; human-readable output goes
/// to `out`.
pub fn run(args: &[String], out: &mut String) -> i32 {
    match run_inner(args, out) {
        Ok(code) => code,
        Err(msg) => {
            let _ = writeln!(out, "error: {msg}");
            let _ = writeln!(out, "{USAGE}");
            2
        }
    }
}

const USAGE: &str = "\
usage:
  xic validate <doc.xml> [--dtd FILE --root NAME] [--sigma FILE --lang L|Lu|Lid] [--lenient]
               [--threads N]   (0 = auto, 1 = sequential; reports are identical either way)
               [--stream|--no-stream]  (default --stream: single-pass validation straight
               from the source text; --no-stream parses a tree first — same report)
               [--metrics text|json|prom]  (append per-phase timings, counters and latency
               histograms after the report; prom = Prometheus text exposition)
               [--trace-out FILE]  (write a Chrome trace-event / Perfetto timeline of
               all spans; open in chrome://tracing or ui.perfetto.dev)
  xic apply-edits <doc.xml> <edits.txt> [--dtd FILE --root NAME] [--sigma FILE --lang L|Lu|Lid]
               [--lenient] [--sequential] [--metrics text|json|prom] [--trace-out FILE]
               incremental revalidation: the whole script is applied as ONE
               batch (repeated writes to the same cell coalesce, one
               propagation pass), printing the net violations it raised (+)
               and cleared (-), then the final report. --sequential applies
               each line as its own one-edit batch, printing its ± diff —
               same final report, more propagation work. A malformed line
               rejects the whole script. Script lines (# comments;
               vertices are the node numbers `render --ids` prints):
                 set-attr NODE ATTR V[,V...]    remove-attr NODE ATTR
                 set-text NODE INDEX [TEXT]     delete NODE
                 insert PARENT POSITION <xml fragment>
  xic serve    [<doc.xml>] [--addr HOST:PORT] [--dtd FILE --root NAME] [--sigma FILE --lang L|Lu|Lid]
               [--lenient] [--sequential] [--threads N] [--http-threads N] [--queue N]
               [--max-body BYTES] [--timeout SECS]
               [--state-dir DIR] [--fsync always|never] [--snapshot-every N]
               [--access-log FILE|-] [--log-sample N] [--trace-buffer N] [--trace-out FILE]
               long-running multi-tenant validation daemon (default --addr
               127.0.0.1:9100): a store of documents keyed by id, each on
               its own validator shard — independent docs are served in
               parallel, edits to one doc serialize. Connections are
               HTTP/1.1 keep-alive, handled by a fixed pool of
               --http-threads workers over a bounded --queue of accepted
               connections (full queue => 503); bodies above --max-body are
               refused with 413, and --timeout bounds each read so stalled
               clients cannot wedge a worker. The optional positional
               document pre-loads as doc id `default`. HTTP endpoints:
                 PUT    /docs/{id}         ingest/replace a document (body =
                                           XML; internal <!DOCTYPE> or the
                                           server --dtd/--root supplies the
                                           structure, --sigma the Σ);
                                           responds with its report
                 GET    /docs              list document ids
                 GET    /docs/{id}/report  current validation report
                 POST   /docs/{id}/edits   edit-script body (apply-edits
                                           syntax); the response matches
                                           apply-edits output exactly
                 DELETE /docs/{id}         evict the document
                 GET    /report            alias for /docs/default/report
                 POST   /edits             alias for /docs/default/edits
                 POST   /docs/{id}/snapshot  write the doc's snapshot now
                                           (requires --state-dir)
                 GET    /metrics           Prometheus text exposition, all
                                           docs merged per doc-id label
                 GET    /metrics.json      the same snapshot as JSON
                 GET    /docs/{id}/metrics one doc's Prometheus exposition
                                           (404 on unknown doc)
                 GET    /healthz           liveness + readiness (503 while
                                           draining)
                 GET    /status            JSON introspection: uptime, build
                                           info, queue depth/capacity, and
                                           per-doc WAL/snapshot state
                 GET    /trace             drain the request-scoped span ring
                                           as Chrome trace-event JSON
                 POST   /shutdown          drain in-flight work and exit
               With --state-dir DIR the daemon is durable: every acknowledged
               edit batch is appended to a per-doc write-ahead log before it
               is acknowledged (--fsync always|never, default always), snapshots
               are written on ingest, eviction, shutdown, on demand, and
               every --snapshot-every N batches; on boot every persisted doc
               is recovered (snapshot + WAL replay) and served warm.
               Observability: every request gets a monotonic id tagging its
               spans in a bounded trace ring (--trace-buffer N events,
               default 65536, 0 disables; GET /trace drains it, --trace-out
               FILE writes the final window at shutdown); --access-log
               FILE|- appends one JSON line per request (every --log-sample
               N-th under load, default 1 = all).
  xic snapshot <doc.xml> --state-dir DIR [--doc-id ID] [--dtd FILE --root NAME]
               [--sigma FILE --lang L|Lu|Lid] [--lenient] [--threads N] [--fsync always|never]
               validate the document and persist its live-validator state as
               a versioned checksummed snapshot under DIR/ID (default id:
               `default`), ready for `xic recover` or `xic serve --state-dir`
  xic recover  --state-dir DIR [--doc-id ID] [--sigma FILE --lang L|Lu|Lid]
               [--lenient] [--threads N]
               warm-start the document from its snapshot + WAL (no XML parse,
               no from-scratch validation) and print its report; pass the
               same --sigma/--lang the snapshot was taken with (the DTD is
               the one the document was persisted with, from its dtd.txt)
  xic implies  --dtd FILE --root NAME --sigma FILE --lang L|Lu|Lid [--finite|--unrestricted]
               [--emit-countermodel FILE] CONSTRAINT
  xic path     --dtd FILE --root NAME --sigma FILE CONSTRAINT
  xic render   <doc.xml> [--ids]
  xic xsd      --dtd FILE --root NAME --sigma FILE --lang L|Lu|Lid";

fn run_inner(args: &[String], out: &mut String) -> Result<i32, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let o = parse_opts(rest)?;
    match cmd.as_str() {
        "validate" => cmd_validate(&o, out),
        "apply-edits" => cmd_apply_edits(&o, out),
        "snapshot" => cmd_snapshot(&o, out),
        "recover" => cmd_recover(&o, out),
        "serve" => serve::cmd_serve(&o, out),
        "implies" => cmd_implies(&o, out),
        "path" => cmd_path(&o, out),
        "render" => cmd_render(&o, out),
        "xsd" => cmd_xsd(&o, out),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_validate(o: &Opts, out: &mut String) -> Result<i32, String> {
    let [doc_path] = o.positional.as_slice() else {
        return Err("validate takes exactly one document".into());
    };
    let src = read(doc_path)?;
    let options = live_options(o);
    let setup = obs_setup(o);
    let obs = setup.obs.clone();
    let report = if o.no_stream {
        let doc = {
            // On the tree path parsing happens up front, outside the
            // validator — time it here so the phase breakdown still
            // covers the whole run.
            let _parse = obs.span("parse");
            parse_document(&src).map_err(|e| e.to_string())?
        };
        let dtdc = load_dtdc(o, doc.dtd.as_ref(), true)?;
        let validator = Validator::with_options(&dtdc, options).with_obs(obs.clone());
        validator.validate(&doc.tree)
    } else {
        // Default path: one bounded-memory pass — the document is never
        // built as a tree. The DTD is pulled from the prolog before the
        // first element event, so `load_dtdc` sees it exactly as the tree
        // path would.
        let mut events = parse_events(&src);
        let doc_dtd = events.dtd().map_err(|e| e.to_string())?.cloned();
        let dtdc = load_dtdc(o, doc_dtd.as_ref(), true)?;
        let validator = Validator::with_options(&dtdc, options).with_obs(obs.clone());
        validator
            .validate_events(events)
            .map_err(|e| e.to_string())?
    };
    let _ = write!(out, "{report}");
    emit_metrics(o, report.metrics.as_ref(), out);
    emit_trace(o, &setup)?;
    Ok(if report.is_valid() { 0 } else { 1 })
}

/// Splits `n` whitespace-separated tokens off the front of `line` and
/// returns them with the (trimmed) remainder of the line.
fn split_tokens(line: &str, n: usize) -> Result<(Vec<&str>, &str), String> {
    let mut rest = line;
    let mut toks = Vec::with_capacity(n);
    for _ in 0..n {
        rest = rest.trim_start();
        let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        if end == 0 {
            return Err(format!("too few arguments in {line:?}"));
        }
        toks.push(&rest[..end]);
        rest = &rest[end..];
    }
    Ok((toks, rest.trim_start()))
}

/// Parses a vertex address: the node number `render --ids` prints, with an
/// optional `#` or `n` prefix (`7`, `#7` and `n7` all name vertex 7).
fn parse_node(s: &str) -> Result<NodeId, String> {
    let digits = s.strip_prefix(['#', 'n']).unwrap_or(s);
    digits
        .parse::<u32>()
        .map(|i| NodeId::from_index(i as usize))
        .map_err(|_| format!("bad node id {s:?} (expected a node number, e.g. 7 or #7)"))
}

/// Parses one line of an edit script into a batch request.
fn parse_script_edit(line: &str) -> Result<BatchEdit, String> {
    let (cmd, _) = split_tokens(line, 1)?;
    match cmd[0] {
        "set-attr" => {
            let (toks, value) = split_tokens(line, 3)?;
            if value.is_empty() {
                return Err("set-attr NODE ATTR V[,V...]: missing value".into());
            }
            let vals: Vec<&str> = value.split(',').collect();
            let av = if let [single] = vals.as_slice() {
                AttrValue::single(*single)
            } else {
                AttrValue::set(vals)
            };
            Ok(BatchEdit::SetAttr {
                node: parse_node(toks[1])?,
                attr: toks[2].into(),
                value: av,
            })
        }
        "remove-attr" => {
            let (toks, rest) = split_tokens(line, 3)?;
            if !rest.is_empty() {
                return Err("remove-attr takes exactly NODE ATTR".into());
            }
            Ok(BatchEdit::RemoveAttr {
                node: parse_node(toks[1])?,
                attr: toks[2].into(),
            })
        }
        "set-text" => {
            let (toks, text) = split_tokens(line, 3)?;
            let index: usize = toks[2]
                .parse()
                .map_err(|_| format!("bad text index {:?}", toks[2]))?;
            Ok(BatchEdit::SetText {
                node: parse_node(toks[1])?,
                index,
                text: text.into(),
            })
        }
        "delete" => {
            let (toks, rest) = split_tokens(line, 2)?;
            if !rest.is_empty() {
                return Err("delete takes exactly NODE".into());
            }
            Ok(BatchEdit::DeleteSubtree {
                node: parse_node(toks[1])?,
            })
        }
        "insert" => {
            let (toks, fragment) = split_tokens(line, 3)?;
            let position: usize = toks[2]
                .parse()
                .map_err(|_| format!("bad position {:?}", toks[2]))?;
            let sub = parse_document(fragment).map_err(|e| format!("bad fragment: {e}"))?;
            Ok(BatchEdit::InsertSubtree {
                parent: parse_node(toks[1])?,
                position,
                fragment: sub.tree,
            })
        }
        other => Err(format!(
            "unknown edit {other:?} (expected set-attr, remove-attr, set-text, delete or insert)"
        )),
    }
}

/// A parsed edit script: the requests in script order, each with its
/// 1-based line number and trimmed text (blank and `#` lines dropped).
struct Script<'a> {
    lines: Vec<(usize, &'a str)>,
    edits: Vec<BatchEdit>,
}

impl<'a> Script<'a> {
    /// Parses a whole script. A malformed line rejects the script before
    /// anything is applied; the error carries its 1-based line number.
    fn parse(script: &'a str) -> Result<Self, (usize, String)> {
        let mut parsed = Script {
            lines: Vec::new(),
            edits: Vec::new(),
        };
        for (idx, raw) in script.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            parsed
                .edits
                .push(parse_script_edit(line).map_err(|e| (idx + 1, e))?);
            parsed.lines.push((idx + 1, line));
        }
        Ok(parsed)
    }

    /// Applies the script to a live validator, rendering the output both
    /// `xic apply-edits` and `POST /edits` print.
    ///
    /// By default the script is one [`LiveValidator::apply_batch`] call:
    /// each line is echoed, then a `batch: N edits` summary with the *net*
    /// ± violation diff (writes coalesce last-writer-wins, so violations
    /// both raised and cleared within the script cancel out). With
    /// `sequential` each line is its own one-edit batch, echoed with that
    /// edit's ± diff under it. Either way an edit that cannot apply keeps
    /// the edits before it; the error's `index` is the number applied.
    fn apply(
        &self,
        live: &mut LiveValidator<'_, '_>,
        sequential: bool,
        out: &mut String,
    ) -> Result<(), BatchError> {
        if sequential {
            for (index, (edit, (_, line))) in self.edits.iter().zip(&self.lines).enumerate() {
                let diff =
                    live.apply_batch(std::slice::from_ref(edit))
                        .map_err(|e| BatchError {
                            index,
                            error: e.error,
                        })?;
                let _ = writeln!(out, "edit: {line}");
                write_diff(&diff, out);
            }
            return Ok(());
        }
        if self.edits.is_empty() {
            return Ok(());
        }
        let diff = live.apply_batch(&self.edits)?;
        for (_, line) in &self.lines {
            let _ = writeln!(out, "edit: {line}");
        }
        let _ = writeln!(out, "batch: {} edits", self.edits.len());
        write_diff(&diff, out);
        Ok(())
    }

    /// The 1-based script line of the request that failed in `e`.
    fn line_of(&self, e: &BatchError) -> usize {
        self.lines[e.index].0
    }
}

/// Renders a diff as `+` (raised) and `-` (cleared) lines.
fn write_diff(diff: &ReportDiff, out: &mut String) {
    for v in &diff.raised {
        let _ = writeln!(out, "  + {v}");
    }
    for v in &diff.cleared {
        let _ = writeln!(out, "  - {v}");
    }
}

fn cmd_apply_edits(o: &Opts, out: &mut String) -> Result<i32, String> {
    let [doc_path, script_path] = o.positional.as_slice() else {
        return Err("apply-edits takes a document and an edit script".into());
    };
    let setup = obs_setup(o);
    let obs = setup.obs.clone();
    let doc = {
        let _parse = obs.span("parse");
        parse_document(&read(doc_path)?).map_err(|e| e.to_string())?
    };
    let dtdc = load_dtdc(o, doc.dtd.as_ref(), true)?;
    let validator = Validator::with_options(&dtdc, live_options(o)).with_obs(obs.clone());
    let mut live = LiveValidator::new(&validator, doc.tree);
    let src = read(script_path)?;
    let script = Script::parse(&src).map_err(|(line, e)| format!("{script_path}:{line}: {e}"))?;
    script
        .apply(&mut live, o.sequential, out)
        .map_err(|e| format!("{script_path}:{}: {}", script.line_of(&e), e.error))?;
    let report = live.report();
    let _ = write!(out, "{report}");
    emit_metrics(o, report.metrics.as_ref(), out);
    emit_trace(o, &setup)?;
    Ok(if report.is_valid() { 0 } else { 1 })
}

/// The validator options (`--lenient`, `--threads`) shared by every
/// command that validates.
fn live_options(o: &Opts) -> Options {
    let mut options = if o.lenient {
        Options::lenient()
    } else {
        Options::default()
    };
    if let Some(threads) = o.threads {
        options = options.with_threads(threads);
    }
    options
}

fn cmd_snapshot(o: &Opts, out: &mut String) -> Result<i32, String> {
    let [doc_path] = o.positional.as_slice() else {
        return Err("snapshot takes exactly one document".into());
    };
    let store = durable::open_store(o)?.ok_or("snapshot requires --state-dir DIR")?;
    let id = o.doc_id.as_deref().unwrap_or("default");
    let setup = obs_setup(o);
    let obs = setup.obs.clone();
    let doc = {
        let _parse = obs.span("parse");
        parse_document(&read(doc_path)?).map_err(|e| e.to_string())?
    };
    let dtdc = load_dtdc(o, doc.dtd.as_ref(), true)?;
    let validator = Validator::with_options(&dtdc, live_options(o)).with_obs(obs.clone());
    let live = LiveValidator::new(&validator, doc.tree);
    {
        let _span = obs.span("snapshot.write");
        store.save(id, &live).map_err(|e| e.to_string())?;
    }
    durable::write_meta(&store, id, dtdc.structure())?;
    let snap = store.snapshot_path(id).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
    let _ = writeln!(out, "snapshot written: {} ({bytes} bytes)", snap.display());
    let report = live.report();
    let _ = write!(out, "{report}");
    emit_metrics(o, report.metrics.as_ref(), out);
    emit_trace(o, &setup)?;
    Ok(if report.is_valid() { 0 } else { 1 })
}

fn cmd_recover(o: &Opts, out: &mut String) -> Result<i32, String> {
    if !o.positional.is_empty() {
        return Err("recover takes no positional arguments (state comes from --state-dir)".into());
    }
    if o.dtd.is_some() || o.root.is_some() {
        return Err(
            "recover takes no --dtd/--root (a document keeps the DTD it was persisted with)".into(),
        );
    }
    let store = durable::open_store(o)?.ok_or("recover requires --state-dir DIR")?;
    let id = o.doc_id.as_deref().unwrap_or("default");
    let setup = obs_setup(o);
    let obs = setup.obs.clone();
    let (dtdc, recovered) = durable::load_doc(o, &store, id)?;
    let validator = Validator::with_options(&dtdc, live_options(o)).with_obs(obs.clone());
    let (live, _, replayed) = durable::replay(&validator, recovered, &obs)?;
    let _ = writeln!(
        out,
        "recovered doc '{id}' from {}: snapshot + {replayed} wal batch{}",
        store.root().display(),
        if replayed == 1 { "" } else { "es" }
    );
    let report = live.report();
    let _ = write!(out, "{report}");
    emit_metrics(o, report.metrics.as_ref(), out);
    emit_trace(o, &setup)?;
    Ok(if report.is_valid() { 0 } else { 1 })
}

fn cmd_implies(o: &Opts, out: &mut String) -> Result<i32, String> {
    let [phi_src] = o.positional.as_slice() else {
        return Err("implies takes exactly one constraint".into());
    };
    if o.finite && o.unrestricted {
        return Err("pick one of --finite / --unrestricted".into());
    }
    let dtdc = load_dtdc(o, None, false)?;
    let lang = dtdc.language();
    let phi = Constraint::parse(phi_src, dtdc.structure(), lang).map_err(|e| e.to_string())?;
    let (implied, detail) = match lang {
        Language::Lid => {
            let solver = LidSolver::new(dtdc.constraints(), Some(dtdc.structure()));
            let v = solver.implies_with(&phi, Some(dtdc.structure()));
            describe(&v, solver.sigma(), Some(dtdc.structure()))
        }
        Language::Lu => {
            let solver = LuSolver::new(dtdc.constraints()).map_err(|e| e.to_string())?;
            let mode = if o.unrestricted {
                Mode::Unrestricted
            } else {
                Mode::Finite
            };
            let v = solver.implies(&phi, mode).map_err(|e| e.to_string())?;
            describe(&v, dtdc.constraints(), None)
        }
        Language::L => {
            let solver = LpSolver::new(dtdc.constraints()).map_err(|e| e.to_string())?;
            let v = solver.implies(&phi);
            describe(&v, dtdc.constraints(), None)
        }
    };
    let problem = if lang == Language::Lu && o.unrestricted {
        "Σ ⊨"
    } else {
        "Σ ⊨f"
    };
    let _ = writeln!(
        out,
        "{problem} {phi} ?  {}",
        if implied { "yes" } else { "no" }
    );
    out.push_str(&detail.text);
    if let (Some(path), Some(model)) = (&o.emit_countermodel, &detail.countermodel) {
        let (structure, tree) =
            xic::implication::semantics::instance_to_tree(model, dtdc.constraints());
        let n = check_countermodel(&structure, &tree, dtdc.constraints(), lang, &phi)?;
        let _ = writeln!(
            out,
            "countermodel verified: it violates {phi} and nothing else ({n} violation{})",
            if n == 1 { "" } else { "s" }
        );
        let xml = format!(
            "<!DOCTYPE {} [\n{}]>\n{}",
            structure.root(),
            serialize_dtd(&structure),
            serialize_document(&tree)
        );
        std::fs::write(path, xml).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "countermodel written to {path}");
    }
    Ok(if implied { 0 } else { 1 })
}

/// Validates a countermodel's tree under Σ ∪ {φ} on its generated
/// structure before it is written, returning its number of violations:
/// the structure must be clean and φ violated, and nothing but φ.
fn check_countermodel(
    structure: &DtdStructure,
    tree: &DataTree,
    sigma: &[Constraint],
    lang: Language,
    phi: &Constraint,
) -> Result<usize, String> {
    let with_phi = [sigma, std::slice::from_ref(phi)].concat();
    let dtdc = DtdC::new(structure.clone(), lang, with_phi)
        .map_err(|e| format!("countermodel check: Σ ∪ {{{phi}}} does not load: {e:?}"))?;
    let report = Validator::new(&dtdc).validate(tree);
    let phi_name = phi.to_string();
    let names_phi = |v: &Violation| match v {
        Violation::Key { constraint, .. }
        | Violation::ForeignKey { constraint, .. }
        | Violation::MissingField { constraint, .. }
        | Violation::DuplicateId { constraint, .. }
        | Violation::Inverse { constraint, .. } => *constraint == phi_name,
        _ => false,
    };
    if report.is_valid() || !report.violations.iter().all(names_phi) {
        return Err(format!(
            "countermodel check failed: it must violate {phi} and nothing else, \
             but validating it under Σ ∪ {{{phi}}} reports:\n{report}"
        ));
    }
    Ok(report.len())
}

/// Human-readable detail of a verdict plus the raw countermodel, if any.
struct Detail {
    text: String,
    countermodel: Option<Instance>,
}

fn describe(v: &Verdict, sigma: &[Constraint], structure: Option<&DtdStructure>) -> (bool, Detail) {
    let mut s = String::new();
    match v {
        Verdict::Implied(proof) => {
            proof
                .verify(sigma, structure)
                .expect("solver proofs verify");
            let _ = writeln!(s, "derivation (verified):");
            for line in proof.to_string().lines() {
                let _ = writeln!(s, "  {line}");
            }
            (
                true,
                Detail {
                    text: s,
                    countermodel: None,
                },
            )
        }
        Verdict::NotImplied(Some(m)) => {
            let _ = writeln!(s, "countermodel:");
            for line in m.to_string().lines() {
                let _ = writeln!(s, "  {line}");
            }
            (
                false,
                Detail {
                    text: s,
                    countermodel: Some(m.clone()),
                },
            )
        }
        Verdict::NotImplied(None) => (
            false,
            Detail {
                text: s,
                countermodel: None,
            },
        ),
    }
}

fn cmd_path(o: &Opts, out: &mut String) -> Result<i32, String> {
    let [phi_src] = o.positional.as_slice() else {
        return Err("path takes exactly one path constraint".into());
    };
    let mut o2 = Opts {
        lang: Some("Lid".into()),
        ..Opts::default()
    };
    o2.dtd.clone_from(&o.dtd);
    o2.root.clone_from(&o.root);
    o2.sigma.clone_from(&o.sigma);
    let dtdc = load_dtdc(&o2, None, false)?;
    let phi = PathConstraint::parse(phi_src).map_err(|e| e.to_string())?;
    let solver = PathSolver::new(&dtdc);
    let implied = solver.implied(&phi);
    let _ = writeln!(out, "Σ ⊨ {phi} ?  {}", if implied { "yes" } else { "no" });
    Ok(if implied { 0 } else { 1 })
}

/// Exports Σ as XML Schema identity constraints (xs:key / xs:keyref),
/// listing the forms XML Schema cannot express.
fn cmd_xsd(o: &Opts, out: &mut String) -> Result<i32, String> {
    if !o.positional.is_empty() {
        return Err("xsd takes no positional arguments".into());
    }
    let dtdc = load_dtdc(o, None, false)?;
    let export = constraints_to_xsd(&dtdc);
    out.push_str(&export.xml);
    if !export.unsupported.is_empty() {
        let _ = writeln!(out, "<!-- not expressible as identity constraints: -->");
        for c in &export.unsupported {
            let _ = writeln!(out, "<!--   {c} -->");
        }
    }
    Ok(0)
}

fn cmd_render(o: &Opts, out: &mut String) -> Result<i32, String> {
    let [doc_path] = o.positional.as_slice() else {
        return Err("render takes exactly one document".into());
    };
    let doc = parse_document(&read(doc_path)?).map_err(|e| e.to_string())?;
    let opts = RenderOptions {
        show_ids: o.ids,
        ..RenderOptions::default()
    };
    out.push_str(&render_tree(&doc.tree, &opts));
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    /// A path under the temp dir unique to this call (process id plus a
    /// counter), not yet created, so parallel tests never share scratch
    /// files.
    pub(crate) fn unique_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "xic-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    /// Writes `content` to `name` in a fresh directory of its own.
    pub(crate) fn tmp(name: &str, content: &str) -> PathBuf {
        let dir = unique_path("tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    fn call(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut out = String::new();
        let code = run(&args, &mut out);
        (code, out)
    }

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

    #[test]
    fn validate_good_and_bad_documents() {
        let dtd = tmp("book.dtd", BOOK_DTD);
        let sigma = tmp("book.sigma", BOOK_SIGMA);
        let good = tmp("good.xml", GOOD_DOC);
        let (code, out) = call(&[
            "validate",
            good.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--lang",
            "Lu",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("valid"));

        let bad = tmp(
            "bad.xml",
            r#"<book>
  <entry isbn="x1"><title>T</title><publisher>P</publisher></entry>
  <ref to="dangling"/>
</book>"#,
        );
        let (code, out) = call(&[
            "validate",
            bad.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("dangling"));
    }

    #[test]
    fn validate_threads_flag_is_report_invariant() {
        let dtd = tmp("book6.dtd", BOOK_DTD);
        let sigma = tmp("book6.sigma", BOOK_SIGMA);
        let bad = tmp(
            "bad6.xml",
            r#"<book>
  <entry isbn="x1"><title>T</title><publisher>P</publisher></entry>
  <ref to="dangling"/>
</book>"#,
        );
        let base = [
            "validate",
            bad.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
        ];
        let (code1, out1) = call(&base);
        let mut with_threads = base.to_vec();
        with_threads.extend(["--threads", "4"]);
        let (code4, out4) = call(&with_threads);
        assert_eq!(code1, 1);
        assert_eq!((code1, out1), (code4, out4));

        let (code, out) = call(&["validate", "a.xml", "--threads", "nope"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--threads expects a number"), "{out}");
    }

    #[test]
    fn validate_stream_and_tree_agree_byte_for_byte() {
        let dtd = tmp("book7.dtd", BOOK_DTD);
        let sigma = tmp("book7.sigma", BOOK_SIGMA);
        let bad = tmp(
            "bad7.xml",
            r#"<book>
  <entry isbn="x1"><title>T</title><publisher>P</publisher></entry>
  <entry isbn="x1"><title>T2</title></entry>
  <ref to="dangling"/>
</book>"#,
        );
        let base = [
            "validate",
            bad.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
        ];
        // Default is streaming; --stream is the explicit spelling.
        let streamed = call(&base);
        let mut explicit = base.to_vec();
        explicit.push("--stream");
        let mut tree = base.to_vec();
        tree.push("--no-stream");
        assert_eq!(streamed, call(&explicit));
        assert_eq!(streamed, call(&tree));
        assert_eq!(streamed.0, 1, "{}", streamed.1);
        let mut threaded = base.to_vec();
        threaded.extend(["--threads", "4"]);
        assert_eq!(streamed, call(&threaded));
    }

    #[test]
    fn validate_stream_reports_parse_errors_with_positions() {
        let bad = tmp(
            "unclosed.xml",
            &format!("<!DOCTYPE book [\n{BOOK_DTD}\n]>\n<book>\n  <entry>\n</book>"),
        );
        let (code, out) = call(&["validate", bad.to_str().unwrap()]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("at 14:7"), "expected line:col position: {out}");
    }

    #[test]
    fn validate_uses_internal_doctype() {
        let doc = tmp(
            "withdtd.xml",
            &format!("<!DOCTYPE book [\n{BOOK_DTD}\n]>\n{GOOD_DOC}"),
        );
        let (code, out) = call(&["validate", doc.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn apply_edits_reports_raised_and_cleared_violations() {
        let dtd = tmp("book8.dtd", BOOK_DTD);
        let sigma = tmp("book8.sigma", BOOK_SIGMA);
        let doc = tmp("good8.xml", GOOD_DOC);
        // GOOD_DOC node numbers: 0 book, 1 entry, 2 title, 3 publisher,
        // 4 author, 5 ref.
        let script = tmp(
            "edits8.txt",
            "# break the set-valued foreign key, then repair it\n\
             set-attr 5 to dangling\n\
             set-attr #5 to x1\n",
        );
        let args = [
            "apply-edits",
            doc.to_str().unwrap(),
            script.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
        ];
        // Default batched path: the two writes to the same attribute
        // coalesce last-writer-wins, so the transient dangling reference
        // is never materialized and the net diff is empty.
        let (code, out) = call(&args);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("edit: set-attr 5 to dangling"), "{out}");
        assert!(out.contains("batch: 2 edits"), "{out}");
        assert!(!out.contains("+ "), "batched diff should be net: {out}");
        assert!(out.contains("valid"), "{out}");
        // --sequential applies line by line: the dangling reference is
        // raised by the first edit and cleared by the second.
        let mut args = args.to_vec();
        args.push("--sequential");
        let (code, out) = call(&args);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("+ ") && out.contains("dangling"), "{out}");
        assert!(out.contains("- "), "expected the repair to clear: {out}");
        assert!(out.contains("valid"), "{out}");
    }

    #[test]
    fn apply_edits_insert_and_delete_match_fresh_validation() {
        let dtd = tmp("book9.dtd", BOOK_DTD);
        let sigma = tmp("book9.sigma", BOOK_SIGMA);
        let doc = tmp("good9.xml", GOOD_DOC);
        // A second entry with a duplicate isbn violates both the key and
        // book's content model; deleting the original restores validity.
        let script = tmp(
            "edits9.txt",
            "insert 0 1 <entry isbn=\"x1\"><title>T2</title><publisher>P2</publisher></entry>\n",
        );
        let base = [
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
        ];
        let mut args = vec![
            "apply-edits",
            doc.to_str().unwrap(),
            script.to_str().unwrap(),
        ];
        args.extend(base);
        let (code, out) = call(&args);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("key"), "{out}");

        let script2 = tmp(
            "edits9b.txt",
            "insert 0 1 <entry isbn=\"x1\"><title>T2</title><publisher>P2</publisher></entry>\n\
             delete 1\n",
        );
        let mut args = vec![
            "apply-edits",
            doc.to_str().unwrap(),
            script2.to_str().unwrap(),
        ];
        args.extend(base);
        let (code, out) = call(&args);
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn apply_edits_rejects_malformed_scripts() {
        let dtd = tmp("book10.dtd", BOOK_DTD);
        let sigma = tmp("book10.sigma", BOOK_SIGMA);
        let doc = tmp("good10.xml", GOOD_DOC);
        for (name, bad_line, needle) in [
            ("e10a.txt", "frobnicate 1", "unknown edit"),
            ("e10b.txt", "set-attr zap to x1", "bad node id"),
            ("e10c.txt", "set-attr 5 to", "missing value"),
            ("e10d.txt", "delete 99", "unknown vertex"),
            ("e10e.txt", "insert 0 0 <oops", "bad fragment"),
        ] {
            let script = tmp(name, bad_line);
            let (code, out) = call(&[
                "apply-edits",
                doc.to_str().unwrap(),
                script.to_str().unwrap(),
                "--dtd",
                dtd.to_str().unwrap(),
                "--root",
                "book",
                "--sigma",
                sigma.to_str().unwrap(),
            ]);
            assert_eq!(code, 2, "{bad_line}: {out}");
            assert!(out.to_lowercase().contains(needle), "{bad_line}: {out}");
        }
    }

    #[test]
    fn render_ids_flag_numbers_vertices() {
        let doc = tmp("render_ids.xml", GOOD_DOC);
        let (code, out) = call(&["render", doc.to_str().unwrap(), "--ids"]);
        assert_eq!(code, 0);
        assert!(out.contains("#0 book"), "{out}");
        assert!(out.contains("#1 entry"), "{out}");
    }

    #[test]
    fn implies_prints_verified_derivations() {
        let dtd = tmp("book2.dtd", BOOK_DTD);
        let sigma = tmp("book2.sigma", "ref.to <=s entry.isbn");
        // SFK-K: the target of the set-valued FK is a key.
        let (code, out) = call(&[
            "implies",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--lang",
            "Lu",
            "entry.isbn -> entry",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("yes"));
        assert!(out.contains("SFK-K"), "{out}");

        let (code, out) = call(&[
            "implies",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--lang",
            "Lu",
            "book.isbn -> book",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("no"));
    }

    #[test]
    fn path_constraints_decide() {
        let dtd = tmp("book3.dtd", BOOK_DTD);
        let sigma = tmp("book3.sigma", BOOK_SIGMA);
        let (code, out) = call(&[
            "path",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "book.entry.isbn -> book.author",
        ]);
        assert_eq!(code, 0, "{out}");
        let (code, _) = call(&[
            "path",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "book.section.sid -> book.author",
        ]);
        assert_eq!(code, 1);
    }

    #[test]
    fn render_outputs_figure2_style() {
        let doc = tmp("render.xml", GOOD_DOC);
        let (code, out) = call(&["render", doc.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("book"));
        assert!(out.contains("@isbn = \"x1\""));
    }

    #[test]
    fn emit_countermodel_writes_parseable_xml() {
        let dtd = tmp("book4.dtd", BOOK_DTD);
        let sigma = tmp("book4.sigma", BOOK_SIGMA);
        let model_path = unique_path("countermodel.xml");
        let (code, out) = call(&[
            "implies",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--lang",
            "Lu",
            "--emit-countermodel",
            model_path.to_str().unwrap(),
            "author.text -> author",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("countermodel verified: "), "{out}");
        assert!(out.contains("countermodel written"), "{out}");
        let xml = std::fs::read_to_string(&model_path).unwrap();
        let doc = parse_document(&xml).unwrap();
        assert!(doc.tree.len() > 1, "{xml}");
    }

    #[test]
    fn a_countermodel_satisfying_phi_is_rejected() {
        let structure = DtdStructure::builder("db")
            .elem("db", "a*")
            .elem("a", "EMPTY")
            .attr("a", "k", "S")
            .build()
            .unwrap();
        let tree_with = |keys: [&str; 2]| {
            let mut b = TreeBuilder::new();
            let db = b.node("db");
            for k in keys {
                let a = b.child_node(db, "a").unwrap();
                b.attr_str(a, "k", k).unwrap();
            }
            b.finish(db).unwrap()
        };
        let phi = Constraint::unary_key("a", "k");
        let check =
            |keys| check_countermodel(&structure, &tree_with(keys), &[], Language::Lu, &phi);
        let err = check(["k1", "k2"]).unwrap_err();
        assert!(err.starts_with("countermodel check failed"), "{err}");
        // A second `k1` violates φ and nothing else.
        assert_eq!(check(["k1", "k1"]), Ok(1));
    }

    #[test]
    fn xsd_exports_identity_constraints() {
        let dtd = tmp("book5.dtd", BOOK_DTD);
        let sigma = tmp("book5.sigma", BOOK_SIGMA);
        let (code, out) = call(&[
            "xsd",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--lang",
            "Lu",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("<xs:key name=\"key_entry_isbn\">"), "{out}");
        assert!(out.contains("not expressible"), "{out}");
        assert!(out.contains("ref.@to <=s entry.@isbn"), "{out}");
    }

    #[test]
    fn snapshot_and_recover_round_trip() {
        let dtd = tmp("book-snap.dtd", BOOK_DTD);
        let sigma = tmp("book-snap.sigma", BOOK_SIGMA);
        let doc = tmp("good-snap.xml", GOOD_DOC);
        let state = unique_path("cli-state");
        let flags = [
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
        ];

        let mut args = vec!["snapshot", doc.to_str().unwrap()];
        args.extend(flags);
        let (code, out) = call(&args);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("snapshot written:"), "{out}");
        assert!(out.contains("valid"), "{out}");

        // Recovery needs only --sigma and the state dir: the DTD comes
        // back from the per-doc sidecar. The report must be identical to
        // validating the document from scratch.
        let (code, out) = call(&[
            "recover",
            "--sigma",
            sigma.to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let (banner, report) = out.split_once('\n').unwrap();
        assert!(
            banner.contains("recovered doc 'default'") && banner.contains("0 wal batches"),
            "{out}"
        );
        let (vcode, vout) = call(&[
            "validate",
            doc.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
        ]);
        assert_eq!(vcode, 0, "{vout}");
        assert_eq!(
            report, vout,
            "recovered report diverged from cold validation"
        );

        // Recovering under a different Σ than the snapshot was taken with
        // is rejected by the plan check, not silently accepted.
        let other = tmp("other-snap.sigma", "entry.isbn -> entry");
        let (code, out) = call(&[
            "recover",
            "--sigma",
            other.to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("constraint plan"), "{out}");

        // An id with no persisted state is a clean error.
        let (code, out) = call(&[
            "recover",
            "--sigma",
            sigma.to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
            "--doc-id",
            "missing",
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("cannot read") || out.contains("no snapshot"),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&state);
    }

    /// `xic recover` rebuilds the DTD from the document's sidecar only:
    /// `--dtd`/`--root` are refused, and `--metrics` counts the replay.
    #[test]
    fn recover_takes_the_dtd_from_the_sidecar_only() {
        let dtd = tmp("book-sidecar.dtd", BOOK_DTD);
        let sigma = tmp("book-sidecar.sigma", BOOK_SIGMA);
        let doc = tmp("good-sidecar.xml", GOOD_DOC);
        let state = unique_path("cli-sidecar");
        let (dtd, sigma, state) = (
            dtd.to_str().unwrap(),
            sigma.to_str().unwrap(),
            state.to_str().unwrap(),
        );
        let (code, out) = call(&[
            "snapshot",
            doc.to_str().unwrap(),
            "--dtd",
            dtd,
            "--root",
            "book",
            "--sigma",
            sigma,
            "--state-dir",
            state,
        ]);
        assert_eq!(code, 0, "{out}");
        let recover = ["recover", "--sigma", sigma, "--state-dir", state];
        for extra in [&["--dtd", dtd][..], &["--root", "book"][..]] {
            let (code, out) = call(&[&recover[..], extra].concat());
            assert_eq!(code, 2, "{extra:?}: {out}");
            assert!(out.contains("recover takes no --dtd/--root"), "{out}");
        }
        let (code, out) = call(&[&recover[..], &["--metrics", "json"]].concat());
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"recover.replays\": 1"), "{out}");
        assert!(out.contains("\"recover.batches\": 0"), "{out}");
        let _ = std::fs::remove_dir_all(state);
    }

    #[test]
    fn usage_errors_exit_2() {
        for args in [
            &[] as &[&str],
            &["frobnicate"],
            &["validate"],
            &["validate", "a.xml", "--dtd"],
            &["implies", "x -> y"],
            &["validate", "a.xml", "--bogus"],
            &["snapshot", "a.xml"],
            &["recover"],
            &["serve", "--fsync", "sometimes"],
            &["serve", "--snapshot-every", "nope"],
        ] {
            let (code, out) = call(args);
            assert_eq!(code, 2, "{args:?}: {out}");
            assert!(out.contains("usage:"), "{args:?}");
        }
    }

    #[test]
    fn lid_implies_with_countermodel() {
        let dtd = tmp(
            "company.dtd",
            "<!ELEMENT db (person*, dept*)>
             <!ELEMENT person (name, address)>
             <!ELEMENT name (#PCDATA)> <!ELEMENT address (#PCDATA)>
             <!ELEMENT dname (#PCDATA)> <!ELEMENT dept (dname)>
             <!ATTLIST person oid ID #REQUIRED in_dept IDREFS #IMPLIED>
             <!ATTLIST dept oid ID #REQUIRED manager IDREF #REQUIRED
                            has_staff IDREFS #IMPLIED>",
        );
        let sigma = tmp(
            "company.sigma",
            "person.oid ->id person\ndept.oid ->id dept\ndept.has_staff <=> person.in_dept",
        );
        let (code, out) = call(&[
            "implies",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "db",
            "--sigma",
            sigma.to_str().unwrap(),
            "--lang",
            "Lid",
            "person.in_dept <=s dept.oid",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Inv-SFK-ID"), "{out}");

        let (code, out) = call(&[
            "implies",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "db",
            "--sigma",
            sigma.to_str().unwrap(),
            "--lang",
            "Lid",
            "person.name -> person",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("countermodel"), "{out}");
    }

    /// Runs `validate` on the book fixture with the given extra flags.
    fn validate_book(extra: &[&str]) -> (i32, String) {
        let dtd = tmp("book.dtd", BOOK_DTD);
        let sigma = tmp("book.sigma", BOOK_SIGMA);
        let good = tmp("good.xml", GOOD_DOC);
        let mut args = vec![
            "validate".to_string(),
            good.to_str().unwrap().to_string(),
            "--dtd".into(),
            dtd.to_str().unwrap().to_string(),
            "--root".into(),
            "book".into(),
            "--sigma".into(),
            sigma.to_str().unwrap().to_string(),
        ];
        args.extend(extra.iter().map(ToString::to_string));
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        call(&refs)
    }

    /// Extracts and parses the JSON metrics block from CLI output (the
    /// report comes first; the metrics document is the trailing `{...}`).
    fn metrics_of(out: &str) -> Metrics {
        let start = out
            .find('{')
            .unwrap_or_else(|| panic!("no JSON in {out:?}"));
        Metrics::parse_json(out[start..].trim()).unwrap_or_else(|e| panic!("{e}: {out}"))
    }

    #[test]
    fn metrics_json_emits_phase_breakdown() {
        let stream: &[&str] = &["--metrics", "json", "--threads", "1"];
        let tree: &[&str] = &["--metrics", "json", "--threads", "1", "--no-stream"];
        for mode in [stream, tree] {
            let (code, out) = validate_book(mode);
            assert_eq!(code, 0, "{out}");
            let m = metrics_of(&out);
            let phases = ["parse", "structure", "plan", "check", "merge"];
            for p in phases {
                assert!(m.spans.contains_key(p), "missing span {p:?} in {out}");
            }
            // Sequential run: the phases nest inside the wall clock, so
            // their durations sum to at most the wall time.
            let phase_sum: u64 = phases.iter().map(|p| m.span(p).nanos).sum();
            assert!(
                phase_sum <= m.wall_nanos,
                "phase sum {phase_sum} > wall {}",
                m.wall_nanos
            );
            assert!(m.counter("nodes") > 0, "{out}");
            assert!(m.counter("attrs") > 0, "{out}");
            assert_eq!(m.counter("violations"), 0, "{out}");
        }
    }

    #[test]
    fn metrics_json_carries_alloc_totals_when_hooks_are_fed() {
        // The test harness runs without the binary's counting allocator,
        // but the hooks are process-wide statics — feeding them directly
        // exercises the same injection path `xic --metrics json` uses.
        xic::obs::alloc::on_alloc(4096);
        let (code, out) = validate_book(&["--metrics", "json"]);
        assert_eq!(code, 0, "{out}");
        let m = metrics_of(&out);
        assert!(m.counter("alloc.count") > 0, "{out}");
        assert!(m.maximum("alloc.peak") >= 4096, "{out}");
    }

    #[test]
    fn metrics_text_appends_breakdown_without_changing_report() {
        let (plain_code, plain) = validate_book(&[]);
        let (code, out) = validate_book(&["--metrics", "text"]);
        assert_eq!(code, plain_code);
        // The report portion is byte-identical; the metrics block follows.
        assert!(out.starts_with(&plain), "{out:?} vs {plain:?}");
        assert!(out.contains("metrics (wall"), "{out}");
        assert!(out.contains("nodes/s"), "{out}");
    }

    #[test]
    fn metrics_rejects_unknown_format() {
        let (code, out) = validate_book(&["--metrics", "yaml"]);
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("--metrics expects text, json or prom"),
            "{out}"
        );
    }

    #[test]
    fn metrics_prom_renders_exposition_format() {
        let (code, out) = validate_book(&["--metrics", "prom", "--threads", "1"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# TYPE xic_nodes_total counter"), "{out}");
        assert!(out.contains("# TYPE xic_span_seconds summary"), "{out}");
        assert!(
            out.contains("xic_span_seconds_count{span=\"parse\"} 1"),
            "{out}"
        );
        // The check family opts into histograms, so bucket series appear.
        assert!(out.contains("# TYPE xic_check_seconds histogram"), "{out}");
        assert!(
            out.contains("xic_check_seconds_bucket{le=\"+Inf\"} 1"),
            "{out}"
        );
    }

    #[test]
    fn metrics_json_includes_histogram_quantiles() {
        let (code, out) = validate_book(&["--metrics", "json", "--threads", "1"]);
        assert_eq!(code, 0, "{out}");
        let m = metrics_of(&out);
        let h = m.hist("check").expect("check histogram recorded");
        assert_eq!(h.count, 1);
        assert!(h.quantile(0.99) >= h.quantile(0.5));
        assert!(out.contains("\"p99\""), "{out}");
    }

    #[test]
    fn trace_out_writes_loadable_chrome_trace_json() {
        let dir = unique_path("trace");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, extra) in [
            ("trace-validate.json", Vec::new()),
            ("trace-validate-metrics.json", vec!["--metrics", "json"]),
        ] {
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            let mut flags = vec!["--trace-out", path.to_str().unwrap(), "--threads", "1"];
            flags.extend(extra);
            let (code, out) = validate_book(&flags);
            assert_eq!(code, 0, "{out}");
            let trace = std::fs::read_to_string(&path).unwrap();
            // Array-form trace-event JSON with the fields the viewers need.
            assert!(trace.starts_with('['), "{trace}");
            assert!(trace.trim_end().ends_with(']'), "{trace}");
            for field in [
                "\"name\"",
                "\"ph\": \"X\"",
                "\"ts\"",
                "\"dur\"",
                "\"pid\"",
                "\"tid\"",
            ] {
                assert!(trace.contains(field), "missing {field} in {trace}");
            }
            assert!(trace.contains("\"check\""), "{trace}");
        }

        // apply-edits records edit spans on the same timeline.
        let dtd = tmp("book.dtd", BOOK_DTD);
        let sigma = tmp("book.sigma", BOOK_SIGMA);
        let doc = tmp("trace-edit.xml", GOOD_DOC);
        let script = tmp("trace-edit.txt", "set-attr 1 isbn x2\n");
        let path = dir.join("trace-edits.json");
        let _ = std::fs::remove_file(&path);
        let (code, out) = call(&[
            "apply-edits",
            doc.to_str().unwrap(),
            script.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--trace-out",
            path.to_str().unwrap(),
        ]);
        // The edit dangles the foreign key, so the report is invalid —
        // the trace must be written regardless. The default path applies
        // the script as one batch, so the span is `edit.batch`.
        assert_eq!(code, 1, "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"edit.batch\""), "{trace}");
    }

    #[test]
    fn apply_edits_metrics_counts_edits() {
        let dtd = tmp("book.dtd", BOOK_DTD);
        let sigma = tmp("book.sigma", BOOK_SIGMA);
        let doc = tmp("edit-metrics.xml", GOOD_DOC);
        let script = tmp(
            "edit-metrics.txt",
            "set-attr 1 isbn x2\nset-attr 1 isbn x1\n",
        );
        let args = [
            "apply-edits",
            doc.to_str().unwrap(),
            script.to_str().unwrap(),
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "book",
            "--sigma",
            sigma.to_str().unwrap(),
            "--metrics",
            "json",
        ];
        // Batched default: `edits` / `edit.count` are the raw request
        // count, `edit.coalesced` is what survived last-writer-wins (the
        // two writes to the same attribute collapse to one).
        let (code, out) = call(&args);
        assert_eq!(code, 0, "{out}");
        let m = metrics_of(&out);
        assert_eq!(m.counter("edits"), 2, "{out}");
        assert_eq!(m.counter("edit.count"), 2, "{out}");
        assert_eq!(m.counter("edit.coalesced"), 1, "{out}");
        assert!(m.spans.contains_key("edit.batch"), "{out}");
        assert!(m.spans.contains_key("parse"), "{out}");
        // Sequential path: one one-edit batch per line, so one
        // `edit.batch` span each and nothing coalesces.
        let mut args = args.to_vec();
        args.push("--sequential");
        let (code, out) = call(&args);
        assert_eq!(code, 0, "{out}");
        let m = metrics_of(&out);
        assert_eq!(m.counter("edits"), 2, "{out}");
        assert_eq!(m.span("edit.batch").count, 2, "{out}");
        assert_eq!(m.counter("edit.coalesced"), 2, "{out}");
        assert!(m.spans.contains_key("parse"), "{out}");
    }

    /// Argument fragments of edit-script lines, plus arbitrary text, so
    /// random lines reach every branch of the line parser.
    fn script_piece() -> BoxedStrategy<String> {
        prop_oneof![
            prop_oneof![
                Just(" "),
                Just("\t"),
                Just("#"),
                Just("n"),
                Just(","),
                Just("isbn"),
                Just("<a/>"),
                Just("<a>"),
                Just("</a>"),
                Just("&amp;"),
                Just("&#xFFFFFFFF;"),
            ]
            .prop_map(str::to_string),
            "[0-9]{1,25}",
            prop::collection::vec(any::<u8>(), 1..8)
                .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Any line — usually a command word and then random arguments —
        /// parses to an edit or an error message, never a panic.
        #[test]
        fn parse_script_edit_never_panics_on_arbitrary_lines(
            cmd in prop::option::of(prop_oneof![
                Just("set-attr "),
                Just("remove-attr "),
                Just("set-text "),
                Just("delete "),
                Just("insert "),
            ]),
            pieces in prop::collection::vec(script_piece(), 0..12),
        ) {
            let line = format!("{}{}", cmd.unwrap_or(""), pieces.concat());
            let _ = parse_script_edit(&line);
        }
    }

    #[test]
    fn node_numbers_beyond_the_id_space_are_errors() {
        for line in ["delete 4294967296", "delete #99999999999999999999"] {
            let err = parse_script_edit(line).unwrap_err();
            assert!(err.contains("bad node id"), "{err}");
        }
        assert!(parse_script_edit("delete 4294967295").is_ok());
    }
}
