//! `ingest_restart`: each cycle starts a daemon on an empty state dir and
//! `PUT`s a ~2.5×10⁵-vertex document — parse, `LiveValidator::new`,
//! snapshot write with its fsyncs, WAL reset — then boots a second daemon
//! on a crash image holding that document's snapshot plus a fixed WAL
//! backlog, timed from `serve_on` start to its first `200` on
//! `GET /docs/{id}/report`. The crash image is prepared once, untimed, and
//! copied fresh for each cycle. This loads storage writes and reads and
//! `export_state`/`from_state`, which the other workloads barely touch.
//! The unit operation is one ingest-and-restart cycle.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xic::obs::alloc as mem;
use xic::obs::{MetricsCollector, Obs};
use xic::prelude::*;
use xic::storage::{decode_snapshot, encode_snapshot, read_snapshot, write_snapshot};

use crate::gen::{self, Doc, EditStream, SCRIPT_LINES};
use crate::{
    copy_files, daemon_args, file_len, fresh_dir, mean, mean_span_s, median, repeated_setup,
    request, span, Config, Daemon, Outcome, Scale,
};

/// Scripts logged into the crash image's WAL after its snapshot.
const BACKLOG_SCRIPTS: usize = 64;

fn vertices(scale: Scale) -> usize {
    match scale {
        Scale::Full => 250_000,
        Scale::Tiny => 2_000,
    }
}

/// The inputs of every cycle.
struct Prepared {
    doc: Doc,
    sigma: PathBuf,
    /// The crash image: a state dir holding doc `d0`'s snapshot, sidecar
    /// and a WAL of [`BACKLOG_SCRIPTS`] unsnapshotted batches.
    image: PathBuf,
    /// The report the daemon served just before the image was copied.
    expected: String,
    /// The report a fresh ingest answers with.
    ingested: String,
}

/// Generates the document and prepares the crash image: ingest, post the
/// backlog, capture the report, and copy the state dir while the daemon
/// still runs (so no shutdown snapshot folds the backlog away).
fn prepare(cfg: &Config) -> Result<Prepared, String> {
    let dir = cfg.scratch.join("prepare");
    fresh_dir(&dir)?;
    let doc = gen::doc(vertices(cfg.scale), cfg.seed);
    let sigma = dir.join("sigma.txt");
    std::fs::write(&sigma, gen::sigma_text(&doc.dtdc)).map_err(|e| e.to_string())?;
    let state = dir.join("state");
    let daemon = Daemon::start(daemon_args(&sigma, &state, false))?;
    let mut c = daemon.client()?;
    let ingested = request(&mut c, "PUT", "/docs/d0", &doc.src)?;
    let orders = gen::order_vertices(&doc.src)?;
    let mut stream = EditStream::new(gen::sub_seed(cfg.seed, 2), orders);
    for _ in 0..BACKLOG_SCRIPTS {
        request(&mut c, "POST", "/docs/d0/edits", &stream.next_script())?;
    }
    let expected = request(&mut c, "GET", "/docs/d0/report", "")?;
    let image = dir.join("image");
    copy_files(&state.join("d0"), &image.join("d0"))?;
    drop(c);
    daemon.shutdown()?;
    Ok(Prepared {
        doc,
        sigma,
        image,
        expected,
        ingested,
    })
}

/// One cycle's two timings, each `Err` when its request failed or
/// answered the wrong report.
struct Cycle {
    ingest: Result<f64, String>,
    restart: Result<f64, String>,
}

impl Cycle {
    /// The cycle's wall seconds, when both halves succeeded.
    fn seconds(&self) -> Option<f64> {
        Some(*self.ingest.as_ref().ok()? + *self.restart.as_ref().ok()?)
    }
}

fn cycle(p: &Prepared, dir: &Path, traced: bool) -> Result<Cycle, String> {
    let ingest_dir = dir.join("ingest");
    fresh_dir(&ingest_dir)?;
    let daemon = Daemon::start(daemon_args(&p.sigma, &ingest_dir, traced))?;
    let mut c = daemon.client()?;
    let t0 = Instant::now();
    let reply = request(&mut c, "PUT", "/docs/d0", &p.doc.src);
    let t = t0.elapsed().as_secs_f64();
    let ingest = match reply {
        Ok(body) if body == p.ingested => Ok(t),
        Ok(_) => Err("ingest answered a different report".into()),
        Err(e) => Err(e),
    };
    drop(c);
    daemon.shutdown()?;

    let restart_dir = dir.join("restart");
    fresh_dir(&restart_dir)?;
    copy_files(&p.image.join("d0"), &restart_dir.join("d0"))?;
    let t0 = Instant::now();
    let daemon = Daemon::start(daemon_args(&p.sigma, &restart_dir, traced))?;
    let mut c = daemon.client()?;
    let reply = request(&mut c, "GET", "/docs/d0/report", "");
    let t = t0.elapsed().as_secs_f64();
    let restart = match reply {
        Ok(body) if body == p.expected => Ok(t),
        Ok(_) => Err("restart answered a different report than before the crash".into()),
        Err(e) => Err(e),
    };
    drop(c);
    daemon.shutdown()?;
    Ok(Cycle { ingest, restart })
}

/// Records a cycle's two operations; the first failure of each kind
/// becomes a named failed check.
fn count(cycle: &Cycle, out: &mut Outcome) {
    for (what, result) in [("ingest", &cycle.ingest), ("restart", &cycle.restart)] {
        match result {
            Ok(_) => out.op(true),
            Err(e) => out.check(format!("{what}: {e}"), false),
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = cfg.scratch.join("cycles");
    let (p, setup_s) = repeated_setup(|| prepare(cfg), |_| Ok(()))?;
    let snapshot_bytes = file_len(&p.image.join("d0/snapshot.bin"));
    let src_bytes = p.doc.src.len();
    out.facts.push(("vertices", p.doc.vertices.to_string()));
    out.facts.push(("source bytes", src_bytes.to_string()));
    out.facts.push((
        "WAL backlog",
        format!("{BACKLOG_SCRIPTS} batches x {SCRIPT_LINES} edits"),
    ));
    out.facts.push((
        "fsync",
        "never (WAL appends unsynced; snapshots fsync)".into(),
    ));
    out.check(
        "the generated --sigma parses back to the schema's constraints",
        gen::sigma_round_trips(&p.doc.dtdc),
    );
    out.check(
        "the crash-image report lists violations",
        p.expected.starts_with("invalid: "),
    );
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);

    if !cfg.trace {
        mem::reset_peak();
        let (mut ingest, mut restart, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
        let mut ran = 0;
        while ran == 0 || Instant::now() < deadline {
            ran += 1;
            let c = cycle(&p, &dir, false)?;
            count(&c, &mut out);
            ingest.extend(c.ingest.as_ref().ok());
            restart.extend(c.restart.as_ref().ok());
            cycles.extend(c.seconds());
        }
        let peak = mem::stats().peak;
        out.set("setup_s", setup_s);
        out.set("op_p50_ms", median(&cycles) * 1e3);
        out.set(
            "ops_per_s",
            cycles.len() as f64 / cycles.iter().sum::<f64>(),
        );
        out.set("peak_heap_mb", peak as f64 / 1e6);
        out.detail("ingest_s", median(&ingest), "s");
        out.detail("restart_s", median(&restart), "s");
        out.detail(
            "snapshot_bytes_per_src_byte",
            snapshot_bytes as f64 / src_bytes as f64,
            "ratio",
        );
        out.detail("cycles", cycles.len() as f64, "count");
        return Ok(out);
    }

    // Traced: alternate an untraced cycle, a cycle on daemons with the
    // span ring on, and the layer sequence the daemon's cold and warm
    // paths run, each call in its own benchmark-side span.
    let collector = Arc::new(MetricsCollector::new());
    let obs = Obs::new(collector.clone());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut traced_ingest, mut traced_restart) = (Vec::new(), Vec::new());
    let mut replay = (0usize, 0usize);
    let mut ran = 0;
    while ran == 0 || Instant::now() < deadline {
        ran += 1;
        let c = cycle(&p, &dir, false)?;
        count(&c, &mut out);
        plain.extend(c.seconds());
        let c = cycle(&p, &dir, true)?;
        count(&c, &mut out);
        traced.extend(c.seconds());
        traced_ingest.extend(c.ingest.ok());
        traced_restart.extend(c.restart.ok());
        match layers(&p, &dir, &obs) {
            Ok(r) => {
                out.op(true);
                replay = r;
            }
            Err(e) => out.check(format!("layer sequence: {e}"), false),
        }
    }
    let m = collector.snapshot();
    let s = |name: &str| mean_span_s(&m, name);
    // Exclusive layers of each half. `write_snapshot` encodes and
    // `read_snapshot` decodes, so the encode and decode spans are parts of
    // the write and read spans, not further layers.
    let ingest_layers: f64 = [
        "xml.parse_tree",
        "live.init",
        "live.export",
        "storage.snapshot_write",
    ]
    .map(s)
    .iter()
    .sum();
    let restart_layers: f64 = [
        "storage.snapshot_read",
        "storage.wal_open",
        "live.from_state",
        "live.replay",
    ]
    .map(s)
    .iter()
    .sum();
    let ingest_rest = mean(&traced_ingest) - ingest_layers;
    let restart_rest = mean(&traced_restart) - restart_layers;
    out.detail("ingest_s.unattributed_s", ingest_rest, "s");
    out.detail("restart_s.unattributed_s", restart_rest, "s");
    for (metric, span_name) in [
        ("xml.parse_tree_s", "xml.parse_tree"),
        ("live.init_s", "live.init"),
        ("live.export_s", "live.export"),
        ("storage.snapshot_encode_s", "storage.snapshot_encode"),
        ("storage.snapshot_write_s", "storage.snapshot_write"),
        ("storage.snapshot_read_s", "storage.snapshot_read"),
        ("storage.snapshot_decode_s", "storage.snapshot_decode"),
        ("storage.wal_open_s", "storage.wal_open"),
        ("live.from_state_s", "live.from_state"),
        ("live.replay_s", "live.replay"),
    ] {
        out.set(metric, s(span_name));
    }
    out.set("storage.snapshot_bytes", snapshot_bytes as f64);
    out.set(
        "storage.snapshot_bytes_per_src_byte",
        snapshot_bytes as f64 / src_bytes as f64,
    );
    out.set("storage.wal_records", replay.0 as f64);
    out.set("live.replay_edits", replay.1 as f64);
    out.set("obs.trace_overhead", median(&traced) / median(&plain));
    out.set("op.traced_s", mean(&traced));
    out.set("op.unattributed_s", ingest_rest + restart_rest);
    Ok(out)
}

/// The daemon's cold path (parse, init, export, encode, write) and warm
/// path (read, decode, WAL open, `from_state`, replay) as separate calls
/// on the same inputs, each in its own span. Returns the replayed WAL
/// record and edit counts.
fn layers(p: &Prepared, dir: &Path, obs: &Obs) -> Result<(usize, usize), String> {
    let validator = Validator::with_matcher(&p.doc.dtdc, MatcherKind::Dfa, Options::default());
    let (parsed, _) = span(obs, "xml.parse_tree", || parse_document(&p.doc.src));
    let tree = parsed.map_err(|e| e.to_string())?.tree;
    let (live, _) = span(obs, "live.init", || LiveValidator::new(&validator, tree));
    let (state, _) = span(obs, "live.export", || live.export_state());
    drop(live);
    let (bytes, _) = span(obs, "storage.snapshot_encode", || {
        encode_snapshot(&state, 0)
    });
    drop(bytes);
    let snapshot = dir.join("layers-snapshot.bin");
    let (written, _) = span(obs, "storage.snapshot_write", || {
        write_snapshot(&snapshot, &state, 0)
    });
    written.map_err(|e| e.to_string())?;
    drop(state);

    let image_snapshot = p.image.join("d0/snapshot.bin");
    let (read, _) = span(obs, "storage.snapshot_read", || {
        read_snapshot(&image_snapshot)
    });
    drop(read.map_err(|e| e.to_string())?);
    let raw = std::fs::read(&image_snapshot).map_err(|e| e.to_string())?;
    let (decoded, _) = span(obs, "storage.snapshot_decode", || decode_snapshot(&raw));
    let (state, last_seq) = decoded.map_err(|e| e.to_string())?;
    drop(raw);
    let wal = dir.join("layers-wal.log");
    std::fs::copy(p.image.join("d0/wal.log"), &wal).map_err(|e| e.to_string())?;
    let (opened, _) = span(obs, "storage.wal_open", || {
        xic::storage::Wal::open(&wal, xic::storage::FsyncPolicy::Never)
    });
    let (_, records) = opened.map_err(|e| e.to_string())?;
    let batches: Vec<Vec<BatchEdit>> = records
        .into_iter()
        .filter(|&(seq, _)| seq > last_seq)
        .map(|(_, batch)| batch)
        .collect();
    let (live, _) = span(obs, "live.from_state", || {
        LiveValidator::from_state(&validator, state)
    });
    let mut live = live.map_err(|e| e.to_string())?;
    let (replayed, _) = span(obs, "live.replay", || {
        batches
            .iter()
            .try_for_each(|b| live.apply_batch(b).map(drop))
    });
    replayed.map_err(|e| e.error.to_string())?;
    if live.report().to_string() != p.expected {
        return Err("the replayed report differs from the pre-crash report".into());
    }
    Ok((batches.len(), batches.iter().map(Vec::len).sum()))
}
