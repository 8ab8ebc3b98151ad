//! The xic benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload validate_stream|serve_edits|ingest_restart \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Prints the human-readable table, then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Scratch state lives under `.perfbench-scratch/` in the working
//! directory and is removed before exit.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Config, Scale, WORKLOADS};

xic::obs::install_counting_alloc!();

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        scratch: PathBuf::from(".perfbench-scratch").join(std::process::id().to_string()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", WORKLOADS.join(", ")))?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = perfbench::run(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    if let Some(parent) = cfg.scratch.parent() {
        // Only succeeds once no other run uses the parent.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(out) => {
            print!("{}", out.table(cfg.trace));
            println!("{}", out.json_line(cfg.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
