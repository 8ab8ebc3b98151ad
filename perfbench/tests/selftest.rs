//! The benchmark's self-test: every workload at tiny sizes, untraced and
//! traced. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use perfbench::{run, Config, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use xic::obs::json::{self, Json};

xic::obs::install_counting_alloc!();

fn tiny(workload: &str, trace: bool) -> Outcome {
    let scratch =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{trace}"));
    let cfg = Config {
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        scratch: scratch.clone(),
    };
    let out = run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let _ = std::fs::remove_dir_all(scratch);
    out
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(|l| l.as_array(list).ok())
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str(k).ok()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_harness_emits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(declared(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .as_array("workloads")
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str("name").unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Runs `workload` both ways and checks the result line: it parses, the
/// checks held, every metric of the run's kind is there with its unit,
/// end-to-end values are positive, and no remainder is negative.
fn check_workload(workload: &str) {
    for trace in [false, true] {
        let out = tiny(workload, trace);
        assert!(
            out.correct(),
            "{workload} trace={trace}:\n{}",
            out.table(trace)
        );
        let line = json::parse(&out.json_line(trace)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").unwrap().as_u64("attempted").unwrap() >= 1);
        assert_eq!(line.get("failed").unwrap().as_u64("failed").unwrap(), 0);
        let metrics = line.get("metrics").unwrap().as_object("metrics").unwrap();
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        assert_eq!(metrics.len(), names.len());
        for ((name, unit), (key, value)) in names.iter().zip(metrics) {
            assert_eq!(name, key);
            assert_eq!(value.get("unit"), Some(&Json::String(unit.to_string())));
            let Some(Json::Number(v)) = value.get("value") else {
                panic!("{workload}: {name} has no numeric value");
            };
            if trace {
                assert!(*v >= 0.0, "{workload}: {name} = {v} is negative");
            } else {
                assert!(*v > 0.0, "{workload}: {name} = {v} is not positive");
            }
        }
    }
}

#[test]
fn validate_stream_emits_every_metric_and_passes_its_checks() {
    check_workload("validate_stream");
}

#[test]
fn serve_edits_emits_every_metric_and_passes_its_checks() {
    check_workload("serve_edits");
}

#[test]
fn ingest_restart_emits_every_metric_and_passes_its_checks() {
    check_workload("ingest_restart");
}
