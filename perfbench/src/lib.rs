//! The xic benchmark: three seeded workloads driven from one process
//! through the public API of `xic-xml`, `xic-validate`, `xic-storage` and
//! `xic-cli`.
//!
//! An untraced run (`--trace 0`) prints the [`END_TO_END`] metrics; a
//! traced run (`--trace 1`) prints the [`PER_LAYER`] breakdown, including
//! how much of the workload's operation time the layers leave
//! unattributed. `DESIGN.md` beside this crate records why each workload
//! exists, which end-to-end metric each layer metric should move, and what
//! each planned change is predicted to do.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xic::obs::json::Json;
use xic::obs::{Metrics, Obs};
use xic_cli::http::HttpClient;

pub mod gen;
pub mod ingest_restart;
pub mod serve_edits;
pub mod validate_stream;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["validate_stream", "serve_edits", "ingest_restart"];

/// The metrics every workload reports with tracing off, with their units.
/// Each workload has one unit operation (see `DESIGN.md`): a stream
/// validation pass, an edit request, or an ingest-and-restart cycle.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// The metrics every workload reports with tracing on, with their units.
/// `_s` metrics are mean seconds per unit operation; a layer the workload
/// never enters reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("xml.lex_s", "s"),
    ("xml.events", "count"),
    ("xml.parse_tree_s", "s"),
    ("validate.stream_s", "s"),
    ("validate.parse_self_s", "s"),
    ("validate.structure_s", "s"),
    ("validate.plan_s", "s"),
    ("validate.check_s", "s"),
    ("validate.merge_s", "s"),
    ("validate.allocs_per_node", "allocs/node"),
    ("live.init_s", "s"),
    ("live.export_s", "s"),
    ("live.from_state_s", "s"),
    ("live.replay_s", "s"),
    ("live.replay_edits", "count"),
    ("live.batch_s", "s"),
    ("live.coalesced_ratio", "ratio"),
    ("storage.snapshot_encode_s", "s"),
    ("storage.snapshot_write_s", "s"),
    ("storage.snapshot_bytes", "bytes"),
    ("storage.snapshot_bytes_per_src_byte", "ratio"),
    ("storage.snapshot_read_s", "s"),
    ("storage.snapshot_decode_s", "s"),
    ("storage.wal_open_s", "s"),
    ("storage.wal_records", "count"),
    ("storage.wal_append_s", "s"),
    ("storage.wal_bytes_per_edit", "bytes"),
    ("serve.queue_wait_s", "s"),
    ("http.request_self_s", "s"),
    ("serve.shard_self_s", "s"),
    ("http.rejected", "count"),
    ("http.route_report_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("op.traced_s", "s"),
    ("op.unattributed_s", "s"),
];

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Document sizes: `Full` is what the benchmark measures, `Tiny` what its
/// self-test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small enough for a test suite.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where state directories and oracle inputs go; the caller removes
    /// it afterwards.
    pub scratch: PathBuf,
}

/// Runs workload `name`. `Err` means the benchmark could not run at all;
/// a program that ran but misbehaved yields an [`Outcome`] that is not
/// [`Outcome::correct`].
pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("create {}: {e}", cfg.scratch.display()))?;
    let mut out = match name {
        "validate_stream" => validate_stream::run(cfg)?,
        "serve_edits" => serve_edits::run(cfg)?,
        "ingest_restart" => ingest_restart::run(cfg)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.facts.insert(0, ("workload", name.to_string()));
    out.facts.insert(1, ("cpus", cpus.to_string()));
    out.facts.push(("thread scaling", "unmeasured".into()));
    out.facts.push(("multi-doc scaling", "unmeasured".into()));
    Ok(out)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed (non-2xx, reset, wrong output) plus failed
    /// checks.
    pub failed: u64,
    /// Each named correctness check and whether it held.
    pub checks: Vec<(String, bool)>,
    /// Host and input facts printed with the result.
    pub facts: Vec<(&'static str, String)>,
    /// [`END_TO_END`] values (untraced) or [`PER_LAYER`] values (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own named figures for the human-readable table.
    pub detail: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records correctness check `name`; a miss counts as a failure.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.op(ok);
        self.checks.push((name.into(), ok));
    }

    /// Sets metric `name`, which must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Adds a figure to the human-readable table.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.detail.push((name, value, unit));
    }

    /// Every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of the run's kind with its unit. A metric the workload left
    /// unset reads 0 (a layer it never enters).
    pub fn json_line(&self, trace: bool) -> String {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::Object(vec![
                        ("value".into(), Json::Number(value)),
                        ("unit".into(), Json::String(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Number(self.attempted as f64)),
            ("failed".into(), Json::Number(self.failed as f64)),
            ("metrics".into(), Json::Object(metrics)),
        ])
        .render_compact()
    }

    /// Facts, checks, the workload's figures and the run's metrics as
    /// aligned text.
    pub fn table(&self, trace: bool) -> String {
        let mut s = String::new();
        for (k, v) in &self.facts {
            let _ = writeln!(s, "{k:>36}: {v}");
        }
        for (name, ok) in &self.checks {
            let status = if *ok { "check ok" } else { "CHECK FAILED" };
            let _ = writeln!(s, "{status:>36}: {name}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(s, "{:>36}: {failed_frac} ratio", "failed_frac");
        for (name, value, unit) in &self.detail {
            let _ = writeln!(s, "{name:>36}: {value:.6} {unit}");
        }
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(s, "{name:>36}: {value:.6} {unit}");
        }
        s
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs `f` as a benchmark-side span `name` recorded in `obs`; returns
/// its result and wall seconds.
pub fn span<T>(obs: &Obs, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    obs.record_span(name, nanos);
    (out, nanos as f64 / 1e9)
}

/// Mean seconds of span `name` in `m` (0 when it never closed).
pub fn mean_span_s(m: &Metrics, name: &str) -> f64 {
    let s = m.span(name);
    if s.count == 0 {
        0.0
    } else {
        s.nanos as f64 / s.count as f64 / 1e9
    }
}

/// Builds the workload's inputs and brings its system to ready
/// [`SETUP_REPS`] times, tearing down all but the last; returns the last
/// and the median set-up seconds.
pub fn repeated_setup<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t0 = Instant::now();
        last = Some(make()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

/// Empties (or creates) the scratch directory `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Copies the regular files of directory `from` into `to` (created).
pub fn copy_files(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let dest = to.join(path.file_name().expect("a listed file has a name"));
            std::fs::copy(&path, &dest)
                .map_err(|e| format!("copy {} to {}: {e}", path.display(), dest.display()))?;
        }
    }
    Ok(())
}

/// Size of file `path` in bytes (0 when absent).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Read timeout for every benchmark connection: generous, so only a
/// wedged daemon trips it.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// The daemon flags the serving workloads share: Σ from `sigma`, state
/// under `state_dir` with WAL appends left to the page cache
/// (`--fsync never`), and the span ring off unless `traced`.
pub fn daemon_args(sigma: &Path, state_dir: &Path, traced: bool) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--sigma".into(),
        sigma.display().to_string(),
        "--lang".into(),
        "Lu".into(),
        "--state-dir".into(),
        state_dir.display().to_string(),
        "--fsync".into(),
        "never".into(),
    ];
    if !traced {
        args.extend(["--trace-buffer".into(), "0".into()]);
    }
    args
}

/// An in-process `xic serve` daemon on a loopback port (`serve_on`).
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Binds a loopback port and starts serving on it with `args`.
    /// Connections made right away wait in the listen backlog until the
    /// daemon has booted.
    pub fn start(args: Vec<String>) -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || xic_cli::serve_on(listener, &args));
        Ok(Daemon { addr, thread })
    }

    /// A new keep-alive connection. The daemon has few HTTP workers and
    /// each holds one connection, so callers drop connections they no
    /// longer use.
    pub fn client(&self) -> Result<HttpClient, String> {
        HttpClient::connect(self.addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    /// `POST /shutdown`, then waits for the drain to finish. Every other
    /// connection must be closed first.
    pub fn shutdown(self) -> Result<(), String> {
        let reply = request(&mut self.client()?, "POST", "/shutdown", "");
        let served = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        served.map_err(|e| format!("daemon: {e}"))?;
        reply.map(drop)
    }
}

/// Issues one request; `Ok` carries the body of a 2xx answer, `Err`
/// describes any other outcome (non-2xx, reset, timeout).
pub fn request(c: &mut HttpClient, method: &str, path: &str, body: &str) -> Result<String, String> {
    match c.request(method, path, body) {
        Ok((status, body)) if (200..300).contains(&status) => Ok(body),
        Ok((status, body)) => Err(format!("{method} {path}: {status} {}", body.trim_end())),
        Err(e) => Err(format!("{method} {path}: {e}")),
    }
}
