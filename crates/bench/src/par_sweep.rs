//! Deterministic parallel sweep runner.
//!
//! Experiment sweeps are embarrassingly parallel: every `(config, seed)`
//! point is an *independent* seeded simulation whose output depends only on
//! its inputs. This module farms those points across OS worker threads
//! (`std::thread::scope` — no external deps, consistent with the offline
//! workspace) while keeping the emitted tables byte-identical whatever the
//! thread count:
//!
//! - each point's closure builds, runs, and measures its own `Sim` entirely
//!   inside one worker (a `Sim` is `!Send` — it never crosses a thread);
//! - results are written back **by input index**, so collection order equals
//!   input order regardless of which worker finishes first;
//! - no worker touches ambient RNG or shared mutable state beyond the
//!   index-addressed result slots.
//!
//! Thread count comes from `NOW_JOBS` (default: available parallelism);
//! `NOW_JOBS=1` recovers the plain serial loop in the calling thread.
//!
//! OS threads are deliberately confined to this crate and the socket
//! backend: rule R5 (clippy's `disallowed-methods`, see `clippy.toml`)
//! bans `thread::scope`/`thread::spawn` everywhere else, so the parallel
//! runner cannot leak real concurrency into the protocol crates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count for sweeps: `NOW_JOBS` if set (minimum 1), otherwise
/// the machine's available parallelism.
pub fn jobs() -> usize {
    match std::env::var("NOW_JOBS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, usize::from),
    }
}

/// Runs `f` over every item on up to [`jobs`] worker threads, returning the
/// results in input order. With one job (or one item) this is a plain serial
/// map on the calling thread — no threads are spawned at all.
pub fn par_sweep<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    par_sweep_jobs(jobs(), items, f)
}

/// [`par_sweep`] with an explicit worker count (used by the determinism
/// tests to compare serial and parallel runs directly).
pub fn par_sweep_jobs<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Work and result slots are index-addressed; the atomic cursor hands
    // each index to exactly one worker, so every Mutex is uncontended and
    // the output order is the input order by construction.
    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let (work, results) = (&work, &results);
    let cursor = &cursor;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("sweep worker panicked holding a work slot")
                    .take()
                    .expect("each work index is claimed exactly once");
                let out = f(item);
                *results[i]
                    .lock()
                    .expect("sweep worker panicked holding a result slot") = Some(out);
            });
        }
    });
    results
        .iter()
        .map(|m| {
            m.lock()
                .expect("all workers joined")
                .take()
                .expect("every claimed index produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_sweep_jobs(8, items, |i| i * i);
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| format!("row-{i}:{}", (0..i).sum::<usize>());
        let serial = par_sweep_jobs(1, (0..40).collect(), work);
        let par = par_sweep_jobs(8, (0..40).collect(), work);
        assert_eq!(serial, par);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(par_sweep_jobs(64, vec![1, 2, 3], |i| i + 1), vec![2, 3, 4]);
        assert_eq!(par_sweep_jobs(4, Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        assert_eq!(par_sweep_jobs(0, vec![7], |i| i), vec![7]);
    }

    #[test]
    fn non_send_state_stays_inside_one_worker() {
        // A !Send value (Rc) can be created and consumed inside the closure —
        // exactly how sweep points build and run their !Send `Sim`s.
        let out = par_sweep_jobs(4, (0..16).collect::<Vec<usize>>(), |i| {
            let rc = std::rc::Rc::new(i);
            *rc * 2
        });
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<usize>>());
    }
}
