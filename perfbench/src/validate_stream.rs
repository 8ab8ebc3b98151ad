//! `validate_stream`: `Validator::validate_stream` back to back at one
//! thread over a ~10⁶-vertex document (~51 MB of XML, DTD as internal
//! subset) — the one-shot `xic validate` path, with a working set well
//! beyond the CPU caches. It loads the lexer, interner, structure check,
//! column fill and constraint check, and bypasses `LiveValidator`,
//! storage and HTTP. The unit operation is one validation pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xic::obs::alloc as mem;
use xic::obs::{MetricsCollector, Obs};
use xic::prelude::*;
use xic::xml::XmlError;

use crate::{gen, mean, mean_span_s, median, repeated_setup, span, Config, Outcome, Scale};

fn vertices(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_000_000,
        Scale::Tiny => 4_000,
    }
}

fn validator(dtdc: &DtdC) -> Validator<'_> {
    Validator::with_matcher(dtdc, MatcherKind::Dfa, Options::default().with_threads(1))
}

/// Whether one pass returned exactly the expected report.
fn matches(result: Result<Report, XmlError>, expected: &str) -> bool {
    result.is_ok_and(|report| report.to_string() == expected)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (doc, setup_s) =
        repeated_setup(|| Ok(gen::doc(vertices(cfg.scale), cfg.seed)), |_| Ok(()))?;
    out.facts.push(("vertices", doc.vertices.to_string()));
    out.facts.push(("source bytes", doc.src.len().to_string()));
    out.facts.push(("validator threads", "1".into()));

    // The oracle: the tree engine's report on the parsed document,
    // computed once.
    let expected = {
        let parsed = parse_document(&doc.src).map_err(|e| e.to_string())?;
        validator(&doc.dtdc).validate(&parsed.tree).to_string()
    };
    out.check(
        "the report lists the seeded dangling references",
        expected.starts_with("invalid: "),
    );

    let plain = validator(&doc.dtdc);
    // Warm-up pass: fault in the allocator's pages before timing.
    let warm = plain.validate_stream(&doc.src);
    out.check(
        "warm-up stream report is byte-identical to the tree engine's",
        matches(warm, &expected),
    );

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let nodes = doc.vertices as f64;
    if !cfg.trace {
        let base = mem::reset_peak();
        let mut times = Vec::new();
        while times.is_empty() || Instant::now() < deadline {
            let t0 = Instant::now();
            let result = plain.validate_stream(&doc.src);
            times.push(t0.elapsed().as_secs_f64());
            out.op(matches(result, &expected));
        }
        let peak = mem::stats().peak;
        let p50 = median(&times);
        out.set("setup_s", setup_s);
        out.set("op_p50_ms", p50 * 1e3);
        out.set("ops_per_s", times.len() as f64 / times.iter().sum::<f64>());
        out.set("peak_heap_mb", peak as f64 / 1e6);
        out.detail("validate_nodes_per_s", nodes / p50, "nodes/s");
        out.detail(
            "validate_peak_heap_mb",
            peak.saturating_sub(base) as f64 / 1e6,
            "MB",
        );
        out.detail("passes", times.len() as f64, "count");
        return Ok(out);
    }

    // Traced: alternate an untraced pass with a traced sequence — drain
    // the lexer alone, then validate with a collector attached — so the
    // overhead ratio compares neighbours in time.
    let collector = Arc::new(MetricsCollector::new());
    let obs = Obs::new(collector.clone());
    let traced = validator(&doc.dtdc).with_obs(obs.clone());
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut events, mut allocs) = (0u64, 0u64);
    while traced_s.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        let result = plain.validate_stream(&doc.src);
        plain_s.push(t0.elapsed().as_secs_f64());
        out.op(matches(result, &expected));

        let (lexed, _) = span(&obs, "xml.lex", || {
            let mut parser = parse_events(&doc.src);
            parser
                .by_ref()
                .try_for_each(|ev| ev.map(drop))
                .map(|()| parser.stats().events)
        });
        out.op(lexed.is_ok());
        events = lexed.unwrap_or(0);
        let before = mem::stats().count;
        let (result, t) = span(&obs, "validate.stream", || traced.validate_stream(&doc.src));
        allocs += mem::stats().count - before;
        traced_s.push(t);
        out.op(matches(result, &expected));
    }
    let m = collector.snapshot();
    let phases = ["parse", "structure", "plan", "check", "merge"].map(|p| mean_span_s(&m, p));
    let lex = mean_span_s(&m, "xml.lex");
    let stream = mean(&traced_s);
    out.set("xml.lex_s", lex);
    out.set("xml.events", events as f64);
    out.set("validate.stream_s", stream);
    out.set("validate.parse_self_s", (phases[0] - lex).max(0.0));
    out.set("validate.structure_s", phases[1]);
    out.set("validate.plan_s", phases[2]);
    out.set("validate.check_s", phases[3]);
    out.set("validate.merge_s", phases[4]);
    out.set(
        "validate.allocs_per_node",
        allocs as f64 / traced_s.len() as f64 / nodes,
    );
    out.set("obs.trace_overhead", median(&traced_s) / median(&plain_s));
    out.set("op.traced_s", stream);
    out.set("op.unattributed_s", stream - phases.iter().sum::<f64>());
    out.detail("traced passes", traced_s.len() as f64, "count");
    Ok(out)
}
