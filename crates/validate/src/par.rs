//! Deterministic thread fan-out for the validation engine.
//!
//! The engine parallelizes at two grains — across constraints, and across
//! chunks of one element extent — and in both cases results are returned
//! **in input order**, so concatenating them reproduces the sequential
//! engine's output byte for byte. The helpers here are plain
//! `std::thread::scope` fan-outs (no external thread-pool dependency);
//! with `threads <= 1` they degrade to the sequential loop.
//!
//! Both helpers accept an [`Obs`] handle and a span name: when work
//! actually fans out across worker threads, each task records one
//! `task_span` span and bumps the `par.tasks` counter. The sequential
//! fallback records nothing — its time is already covered by the
//! enclosing phase span, and per-task spans there would double-count.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

use xic_obs::Obs;

/// Applies `f` to each item, returning results in input order, using up to
/// `threads` worker threads. Per-task timings are recorded against
/// `task_span` only on the parallel path.
pub(crate) fn fan_out<T, R, F>(
    threads: usize,
    items: Vec<T>,
    obs: &Obs,
    task_span: &'static str,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    const POISONED: &str = "a fan-out task panicked";
    let n = items.len();
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let Some((i, item)) = queue.lock().expect(POISONED).pop_front() else {
                    return;
                };
                let r = {
                    let _task = obs.span(task_span);
                    f(item)
                };
                obs.add("par.tasks", 1);
                results.lock().expect(POISONED).push((i, r));
            });
        }
    });
    let mut results = results.into_inner().expect(POISONED);
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Minimum extent length worth splitting across threads: below this, the
/// per-thread setup cost outweighs the scan.
pub(crate) const SPLIT_THRESHOLD: usize = 4096;

/// Minimum document vertices per worker thread. E11 measured the engine at
/// 10⁵ vertices running *slower* with 2 and 4 threads than with 1 (spawn +
/// order-preserving merge overhead exceeds the saved scan time), while 10⁶
/// vertices amortize it; the threshold sits between, so a requested (or
/// auto-detected) thread budget is clamped to `nodes / MIN_NODES_PER_THREAD`
/// and small documents always take the sequential fast path.
pub(crate) const MIN_NODES_PER_THREAD: usize = 200_000;

/// Splits `0..len` into at most `threads` contiguous chunks, applies `f` to
/// each, and returns the chunk results in order. Falls back to a single
/// chunk when `threads <= 1` or `len < SPLIT_THRESHOLD`. Per-chunk timings
/// are recorded against `task_span` only when the chunks fan out.
pub(crate) fn chunked<R, F>(
    threads: usize,
    len: usize,
    obs: &Obs,
    task_span: &'static str,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if threads <= 1 || len < SPLIT_THRESHOLD {
        return vec![f(0..len)];
    }
    let chunk = len.div_ceil(threads).max(SPLIT_THRESHOLD / 2);
    let ranges: Vec<Range<usize>> = (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect();
    fan_out(threads, ranges, obs, task_span, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let items: Vec<usize> = (0..100).collect();
            let out = fan_out(threads, items, &Obs::off(), "par.test", |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunked_covers_range_exactly_once() {
        for threads in [1, 2, 4] {
            for len in [
                0,
                1,
                SPLIT_THRESHOLD - 1,
                SPLIT_THRESHOLD,
                3 * SPLIT_THRESHOLD + 17,
            ] {
                let chunks = chunked(threads, len, &Obs::off(), "par.test", |r| {
                    r.collect::<Vec<usize>>()
                });
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(
                    flat,
                    (0..len).collect::<Vec<_>>(),
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn small_inputs_stay_on_one_chunk() {
        let chunks = chunked(8, 100, &Obs::off(), "par.test", |r| r);
        assert_eq!(chunks, vec![0..100]);
    }

    #[test]
    fn parallel_fan_out_records_task_spans() {
        let collector = xic_obs::MetricsCollector::shared();
        let obs = Obs::new(collector.clone());
        let items: Vec<usize> = (0..8).collect();
        let out = fan_out(4, items, &obs, "par.test", |i| i + 1);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        let m = collector.snapshot();
        assert_eq!(m.counter("par.tasks"), 8);
        assert_eq!(m.span("par.test").count, 8);
    }
}
