//! A home-grown chunk-queue thread pool on `std::thread::scope`.
//!
//! Work items are indices `0..items` pulled from a shared atomic counter,
//! so fast workers naturally steal the load of slow ones (long-tail
//! injection cycles cost more than late ones). Each worker owns private
//! scratch state created by `init` — for fault grading, a `GradeScratch`
//! — and folds its items into a private accumulator. Accumulators are
//! order-insensitive or tag each item with its index, so the caller can
//! merge results **deterministically** regardless of which worker graded
//! what and in which order.
//!
//! [`run_folded_ctl`] is the pool's one entry point, and the engine's
//! campaign loop its one caller. It provides the robustness layer every
//! campaign builds on:
//!
//! - **Worker-panic containment.** Each item runs under
//!   [`std::panic::catch_unwind`] with a *chunk-local* accumulator that
//!   is drained into the worker's accumulator only on success, so a
//!   panicked chunk never leaks a partial fold. Each worker reuses one
//!   chunk-local accumulator, so a sink whose drain touches only what
//!   the chunk wrote folds a chunk in `O(lanes)`, however large the
//!   circuit. The panicked chunk is requeued (the worker's scratch and
//!   chunk-local accumulator are rebuilt first — a panic may have left
//!   them mid-update) up to a bounded retry budget; a chunk that panics
//!   on every attempt surfaces as [`EngineError::WorkerPanic`] instead
//!   of poisoning the campaign.
//! - **Cooperative cancellation.** A [`CancelToken`] is polled at chunk
//!   boundaries only: on cancellation every worker finishes the chunk it
//!   already claimed (and any requeued retries) before stopping, which
//!   keeps the set of completed chunks an exact prefix `0..completed` of
//!   the queue — the invariant that makes a checkpoint cursor
//!   meaningful at any thread count.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel::CancelToken;
use crate::error::EngineError;

/// Default number of times a panicked chunk is requeued before the
/// campaign gives up on it (total attempts = budget + 1).
pub(crate) const DEFAULT_RETRY_BUDGET: usize = 2;

/// Knobs of a fault-tolerant folded run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FoldControl<'a> {
    /// Polled at chunk boundaries; `None` never cancels.
    pub cancel: Option<&'a CancelToken>,
    /// Requeues per panicking chunk before [`EngineError::WorkerPanic`].
    pub retry_budget: usize,
}

/// Result of a cancellable folded run.
#[derive(Debug)]
pub(crate) struct FoldStatus<A> {
    /// Per-worker accumulators, in worker-index order.
    pub accs: Vec<A>,
    /// Chunks completed — always the exact prefix `0..completed` of the
    /// queue (equals `items` unless the run was cancelled).
    pub completed: usize,
}

/// Renders a caught panic payload (`&str` / `String` payloads; anything
/// else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `work` over every index in `0..items` on up to `threads` workers,
/// folding each item into a per-worker accumulator, and reports how many
/// items completed (an exact queue prefix).
///
/// `init` creates one private scratch state per worker; `work` grades
/// `(scratch, chunk accumulator, index)`, and `merge(acc, chunk)` moves
/// a successful chunk's fold into the worker's accumulator, leaving the
/// chunk accumulator empty for the worker's next item. With
/// `threads == 1` (or at most one item) everything runs inline on the
/// calling thread — the reference schedule the multi-threaded runs are
/// compared against.
/// Returns the worker accumulators in worker-index order (a single
/// accumulator when everything ran inline). The caller merges them;
/// because workers race for items, only **order-insensitive**
/// accumulators (or ones tagged with the item index) produce
/// schedule-independent results. Worker panics are contained and
/// retried (see the module docs).
///
/// # Panics
///
/// Panics if `threads` is zero.
pub(crate) fn run_folded_ctl<S, A, I, F, M, W>(
    items: usize,
    threads: usize,
    init: I,
    init_acc: F,
    merge: M,
    work: W,
    ctl: &FoldControl<'_>,
) -> Result<FoldStatus<A>, EngineError>
where
    A: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn() -> A + Sync,
    M: Fn(&mut A, &mut A) + Sync,
    W: Fn(&mut S, &mut A, usize) + Sync,
{
    assert!(threads > 0, "the pool needs at least one thread");
    let threads = threads.min(items).max(1);
    let cancelled = || ctl.cancel.is_some_and(CancelToken::is_cancelled);

    if items == 0 || threads == 1 {
        // Inline reference schedule: immediate retries, cancellation
        // between chunks.
        let mut scratch = init();
        let mut acc = init_acc();
        let mut local = init_acc();
        let mut completed = 0usize;
        for i in 0..items {
            if cancelled() {
                break;
            }
            let mut attempts = 0usize;
            loop {
                attempts += 1;
                match catch_unwind(AssertUnwindSafe(|| work(&mut scratch, &mut local, i))) {
                    Ok(()) => {
                        merge(&mut acc, &mut local);
                        completed += 1;
                        break;
                    }
                    Err(payload) => {
                        // The panic may have left the scratch and the
                        // chunk's partial fold mid-update.
                        scratch = init();
                        local = init_acc();
                        if attempts > ctl.retry_budget {
                            return Err(EngineError::WorkerPanic {
                                chunk: i,
                                attempts,
                                message: panic_message(payload.as_ref()),
                            });
                        }
                    }
                }
            }
        }
        return Ok(FoldStatus { accs: vec![acc], completed });
    }

    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let fatal_flag = AtomicBool::new(false);
    let fatal: Mutex<Option<EngineError>> = Mutex::new(None);
    // Requeued chunks plus their panic counts. Retries are drained with
    // priority — even after cancellation — so every *claimed* chunk
    // eventually completes and the completed set stays a queue prefix.
    let retries: Mutex<(Vec<usize>, HashMap<usize, usize>)> =
        Mutex::new((Vec::new(), HashMap::new()));

    let accs: Vec<A> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut acc = init_acc();
                    let mut local = init_acc();
                    loop {
                        if fatal_flag.load(Ordering::SeqCst) {
                            break;
                        }
                        let requeued =
                            retries.lock().expect("retry queue lock").0.pop();
                        let item = match requeued {
                            Some(i) => i,
                            None => {
                                if cancelled() {
                                    break;
                                }
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= items {
                                    break;
                                }
                                i
                            }
                        };
                        match catch_unwind(AssertUnwindSafe(|| {
                            work(&mut scratch, &mut local, item);
                        })) {
                            Ok(()) => {
                                merge(&mut acc, &mut local);
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(payload) => {
                                scratch = init();
                                local = init_acc();
                                let mut r = retries.lock().expect("retry queue lock");
                                let attempts = r.1.entry(item).or_insert(0);
                                *attempts += 1;
                                if *attempts > ctl.retry_budget {
                                    *fatal.lock().expect("fatal lock") =
                                        Some(EngineError::WorkerPanic {
                                            chunk: item,
                                            attempts: *attempts,
                                            message: panic_message(payload.as_ref()),
                                        });
                                    fatal_flag.store(true, Ordering::SeqCst);
                                } else {
                                    r.0.push(item);
                                }
                            }
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked outside the contained region"))
            .collect()
    });

    if let Some(err) = fatal.into_inner().expect("fatal lock") {
        return Err(err);
    }
    Ok(FoldStatus { accs, completed: completed.into_inner() })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFAULT_CTL: FoldControl<'static> =
        FoldControl { cancel: None, retry_budget: DEFAULT_RETRY_BUDGET };

    fn collect_folded(
        items: usize,
        threads: usize,
        ctl: &FoldControl<'_>,
        work: impl Fn(usize) + Sync,
    ) -> Result<FoldStatus<Vec<usize>>, EngineError> {
        run_folded_ctl(
            items,
            threads,
            || (),
            Vec::new,
            |a: &mut Vec<usize>, b| a.append(b),
            |(), acc: &mut Vec<usize>, i| {
                work(i);
                acc.push(i);
            },
            ctl,
        )
    }

    /// Folds `(index, result)` pairs and scatters them into index order
    /// after the join — the shape of the engine's materialized runs.
    fn indexed<S: Send, T: Send + Clone>(
        items: usize,
        threads: usize,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Vec<T> {
        let status = run_folded_ctl(
            items,
            threads,
            init,
            Vec::new,
            |a: &mut Vec<(usize, T)>, b| a.append(b),
            |scratch, acc: &mut Vec<(usize, T)>, i| acc.push((i, work(scratch, i))),
            &DEFAULT_CTL,
        )
        .unwrap();
        assert_eq!(status.completed, items);
        let mut slots: Vec<Option<T>> = vec![None; items];
        for (i, t) in status.accs.into_iter().flatten() {
            assert!(slots[i].replace(t).is_none(), "item {i} graded twice");
        }
        slots.into_iter().map(|s| s.expect("every item graded")).collect()
    }

    #[test]
    fn folded_accumulators_cover_every_item_once() {
        for threads in [1, 2, 4, 8] {
            let status = collect_folded(100, threads, &DEFAULT_CTL, |_| {}).unwrap();
            assert!(status.accs.len() <= threads);
            let mut all: Vec<usize> = status.accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn folded_empty_queue_yields_one_empty_accumulator() {
        let status = run_folded_ctl(
            0,
            4,
            || (),
            || 0usize,
            |a, b| *a += std::mem::take(b),
            |(), acc, _| *acc += 1,
            &DEFAULT_CTL,
        )
        .unwrap();
        assert_eq!(status.accs, vec![0]);
        assert_eq!(status.completed, 0);
    }

    #[test]
    fn panicking_chunk_is_retried_and_contained() {
        // Item 7 panics on its first attempt at every thread count; the
        // retry must re-run it so the fold still covers the queue exactly
        // once, with no partial observation from the failed attempt.
        for threads in [1, 2, 4] {
            let first_attempt = AtomicBool::new(true);
            let status = collect_folded(20, threads, &DEFAULT_CTL, |i| {
                if i == 7 && first_attempt.swap(false, Ordering::SeqCst) {
                    panic!("injected chunk failure");
                }
            })
            .unwrap();
            assert_eq!(status.completed, 20, "{threads} threads");
            let mut all: Vec<usize> = status.accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..20).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn exhausted_retry_budget_surfaces_worker_panic() {
        for threads in [1, 3] {
            let err = collect_folded(10, threads, &DEFAULT_CTL, |i| {
                assert!(i != 3, "always-fatal chunk");
            })
            .unwrap_err();
            match err {
                EngineError::WorkerPanic { chunk, attempts, .. } => {
                    assert_eq!(chunk, 3, "{threads} threads");
                    assert_eq!(attempts, DEFAULT_RETRY_BUDGET + 1, "{threads} threads");
                }
                other => panic!("expected WorkerPanic, got {other}"),
            }
        }
    }

    #[test]
    fn cancellation_completes_an_exact_prefix() {
        for threads in [1, 2, 4] {
            let token = CancelToken::new();
            let ctl = FoldControl { cancel: Some(&token), retry_budget: 0 };
            let status = collect_folded(200, threads, &ctl, |i| {
                if i == 10 {
                    token.cancel();
                }
            })
            .unwrap();
            assert!(status.completed >= 11, "{threads} threads: in-flight chunks drain");
            assert!(status.completed < 200, "{threads} threads: cancellation stops the queue");
            let mut all: Vec<usize> = status.accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..status.completed).collect::<Vec<_>>(),
                "{threads} threads: completed chunks form the exact queue prefix"
            );
        }
    }

    #[test]
    fn pre_cancelled_run_completes_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let ctl = FoldControl { cancel: Some(&token), retry_budget: 0 };
        let status = collect_folded(50, 4, &ctl, |_| {}).unwrap();
        assert_eq!(status.completed, 0);
        assert!(status.accs.into_iter().all(|a| a.is_empty()));
    }

    #[test]
    fn indexed_results_merge_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let out = indexed(100, threads, || (), |(), i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn scratch_state_is_per_worker() {
        // Each worker counts the items it grades; per-worker counts must
        // add up to the queue whatever the interleaving.
        let out = indexed(
            64,
            3,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..64).collect::<Vec<_>>());
        assert!(out.iter().all(|&(_, c)| (1..=64).contains(&c)));
    }

    #[test]
    fn more_threads_than_items() {
        let status = collect_folded(3, 16, &DEFAULT_CTL, |_| {}).unwrap();
        assert!(status.accs.len() <= 3, "workers are capped at the item count");
        assert_eq!(indexed(3, 16, || (), |(), i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = collect_folded(1, 0, &DEFAULT_CTL, |_| {});
    }
}
