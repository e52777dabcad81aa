//! Deterministic fork/join helpers for the subdivision engine.
//!
//! The engine parallelizes by splitting facet lists into contiguous chunks,
//! processing each chunk on a scoped OS thread (`std::thread::scope`), and
//! merging per-chunk results *in chunk order*. Because the chunks partition
//! the serial iteration order, the merged output is byte-identical to a
//! serial build for every thread count.
//!
//! The default thread count honours the `RAYON_NUM_THREADS` environment
//! variable (the convention of the rayon ecosystem), falling back to the
//! machine's available parallelism. `RAYON_NUM_THREADS=1` forces serial
//! execution — which, by the determinism guarantee above, produces exactly
//! the same complexes as any parallel run.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The number of worker threads subdivision-engine operations fan out to:
/// `RAYON_NUM_THREADS` if set to a positive integer, otherwise the
/// machine's available parallelism.
///
/// A malformed value (non-numeric, or zero) is not a panic: it warns once
/// on stderr and falls back to the machine default, so a bad environment
/// degrades a run's thread count instead of killing it.
pub fn subdivision_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(t) if t >= 1 => return t,
            _ if v.trim().is_empty() => {} // unset-equivalent; no warning
            _ => warn_bad_thread_env(&v),
        }
    }
    default_threads()
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Warns (once per process) about a malformed `RAYON_NUM_THREADS`.
fn warn_bad_thread_env(raw: &str) {
    use std::sync::Once;
    static WARNED: Once = Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "act-topology: malformed RAYON_NUM_THREADS={raw:?} \
             (expected a positive integer); using available parallelism"
        );
    });
}

/// Splits `0..len` into at most `chunks` contiguous, non-empty, ascending
/// ranges of near-equal size.
pub(crate) fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Runs `f` over the chunk ranges of `0..len` on up to `threads` scoped
/// threads, returning the per-chunk results in chunk order.
///
/// With `threads <= 1` (or a single chunk) no thread is spawned. Because
/// the chunks partition `0..len` in order, concatenating the results
/// reproduces the serial iteration order — the primitive both the
/// subdivision engine and the map-search engine build their deterministic
/// fan-outs on.
pub fn parallel_map_ranges<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(len, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let mut out = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let f = &f;
                scope.spawn(move || f(range))
            })
            .collect();
        for handle in handles {
            out.push(handle.join().expect("subdivision worker panicked"));
        }
    });
    out
}

/// Renders a worker's panic payload as a message for degraded-mode
/// reporting (panics raised with `panic!("…")` carry a `String` or
/// `&str`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`parallel_map_ranges`] with panic containment: each chunk reports
/// `Ok(result)` or, when its worker panicked, `Err(message)` — the panic
/// is caught at the fork/join boundary instead of aborting the process,
/// so callers can retry or degrade the poisoned chunk while keeping every
/// healthy chunk's result.
///
/// Chunk order (and therefore determinism of the healthy results) is
/// identical to [`parallel_map_ranges`]. With `threads <= 1` (or a single
/// chunk) the closure runs inline under [`catch_unwind`], so the serial
/// path has the same containment contract as the parallel one.
pub fn parallel_map_ranges_catch<T, F>(
    len: usize,
    threads: usize,
    f: F,
) -> Vec<(Range<usize>, Result<T, String>)>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(len, threads);
    if ranges.len() <= 1 {
        return ranges
            .into_iter()
            .map(|range| {
                let result =
                    catch_unwind(AssertUnwindSafe(|| f(range.clone()))).map_err(panic_message);
                (range, result)
            })
            .collect();
    }
    let mut out = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let f = &f;
                let handle = scope.spawn({
                    let range = range.clone();
                    move || f(range)
                });
                (range, handle)
            })
            .collect();
        for (range, handle) in handles {
            let result = handle.join().map_err(panic_message);
            out.push((range, result));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_the_input() {
        for len in 0..40 {
            for chunks in 1..8 {
                let ranges = chunk_ranges(len, chunks);
                let mut covered = 0;
                for r in &ranges {
                    assert_eq!(r.start, covered, "contiguous and ascending");
                    assert!(!r.is_empty());
                    covered = r.end;
                }
                assert_eq!(covered, len);
                if len > 0 {
                    assert_eq!(ranges.len(), chunks.min(len));
                }
            }
        }
    }

    #[test]
    fn parallel_map_preserves_chunk_order() {
        let out = parallel_map_ranges(10, 4, |r| r.clone());
        assert_eq!(out, chunk_ranges(10, 4));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(subdivision_threads() >= 1);
    }

    #[test]
    fn malformed_thread_env_warns_and_defaults() {
        // The variable is process-global; concurrent tests that *read* it
        // only ever see a value that resolves to a positive count, so
        // briefly poisoning it is safe.
        let saved = std::env::var("RAYON_NUM_THREADS").ok();
        for bad in ["lots", "0", "-3", "1.5", "  "] {
            std::env::set_var("RAYON_NUM_THREADS", bad);
            assert!(
                subdivision_threads() >= 1,
                "malformed value {bad:?} must fall back, not panic"
            );
        }
        std::env::set_var("RAYON_NUM_THREADS", " 3 ");
        assert_eq!(subdivision_threads(), 3, "whitespace-padded values parse");
        match saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }

    #[test]
    fn catch_variant_matches_plain_map_on_healthy_workers() {
        for threads in [1usize, 2, 4] {
            let plain = parallel_map_ranges(10, threads, |r| r.len());
            let caught = parallel_map_ranges_catch(10, threads, |r| r.len());
            assert_eq!(caught.len(), plain.len());
            for ((range, result), expected) in caught.iter().zip(&plain) {
                assert!(!range.is_empty());
                assert_eq!(result.as_ref().unwrap(), expected);
            }
        }
    }

    #[test]
    fn panicking_chunk_is_contained_and_reported() {
        // Silence the default panic printout for the intentional panics.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1usize, 3] {
            let results = parallel_map_ranges_catch(9, threads, |r| {
                if r.contains(&4) {
                    panic!("injected chunk failure at {}", r.start);
                }
                r.len()
            });
            let mut failed = 0;
            for (range, result) in &results {
                if range.contains(&4) {
                    failed += 1;
                    let msg = result.as_ref().unwrap_err();
                    assert!(
                        msg.contains("injected chunk failure"),
                        "panic message surfaces: {msg}"
                    );
                } else {
                    assert_eq!(*result.as_ref().unwrap(), range.len());
                }
            }
            assert_eq!(failed, 1, "exactly one chunk owns index 4");
        }
        std::panic::set_hook(prev);
    }
}
