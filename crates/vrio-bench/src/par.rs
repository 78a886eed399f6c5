//! The harness's one parallel runner.
//!
//! The paper's evaluation is a set of independent runs, and the harness
//! runs every such set through [`par_for_each_ordered`]: the sweep's
//! scenarios ([`crate::run_sweep`]) and a chaos campaign's replicas
//! ([`crate::run_chaos`]), collected by [`par_map_ordered`], and
//! `repro`'s experiments. Each item builds its own world from its index
//! alone, so the results do not depend on which thread ran which item,
//! and they come back in index order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Runs `f(0)..f(n - 1)` on up to `threads` OS threads (at least one)
/// and returns the results in index order.
pub fn par_map_ordered<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    par_for_each_ordered(n, threads, f, |r| out.push(r));
    out
}

/// Runs `f(0)..f(n - 1)` on up to `threads` OS threads (at least one)
/// and hands each result to `emit` on the calling thread, in index
/// order, as soon as it and every result before it are done.
///
/// Threads claim indices off one shared counter, so a long item holds up
/// only its own thread; with no items no thread is spawned. A panic in
/// `f` reaches the caller once the other threads have stopped, after
/// every result before the failed item has been emitted.
pub fn par_for_each_ordered<T, F, E>(n: usize, threads: usize, f: F, mut emit: E)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    E: FnMut(T),
{
    // The counter publishes nothing; results cross threads through the
    // channel.
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1).min(n))
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    // A closed channel means `emit` panicked: stop too.
                    if i >= n || tx.send((i, f(i))).is_err() {
                        return;
                    }
                })
            })
            .collect();
        drop(tx);
        // Results that arrived before an earlier one, held until it has.
        let mut held: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut emitted = 0;
        // Ends once every worker has stopped.
        for (i, r) in rx {
            held[i] = Some(r);
            while let Some(r) = held.get_mut(emitted).and_then(Option::take) {
                emit(r);
                emitted += 1;
            }
        }
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Items done and the time since the start, for a run's stderr progress
/// lines.
pub(crate) struct Progress(Instant, AtomicUsize);

impl Progress {
    pub(crate) fn start() -> Self {
        Progress(Instant::now(), AtomicUsize::new(0))
    }

    /// Counts one more item done; returns the items done so far and the
    /// seconds since the start.
    pub(crate) fn tick(&self) -> (usize, f64) {
        let k = self.1.fetch_add(1, Ordering::Relaxed) + 1;
        (k, self.0.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_index_order() {
        for n in [0, 1, 7] {
            for t in [1, 2, 3, n + 5] {
                let ran_on = Mutex::new(HashSet::<ThreadId>::new());
                let out = par_map_ordered(n, t, |i| {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                    i
                });
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "n {n}, threads {t}");
                let ran_on = ran_on.into_inner().unwrap();
                assert!(ran_on.len() <= t.min(n), "n {n}, threads {t}: {ran_on:?}");
            }
        }
    }

    #[test]
    fn no_items_run_nothing() {
        // `threads.max(1).min(n)` is 0: no thread is spawned and `f` is
        // never called.
        for t in [0, 1, 2, 8] {
            let out: Vec<usize> = par_map_ordered(0, t, |_| unreachable!("no item to run"));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_after_the_items_before_it() {
        let mut emitted = Vec::new();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_each_ordered(
                6,
                2,
                |i| {
                    assert!(i != 3, "item {i} failed");
                    i
                },
                |i| emitted.push(i),
            )
        }));
        let panic = run.expect_err("item 3 panicked");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "item 3 failed");
        assert_eq!(emitted, [0, 1, 2]);
    }
}
