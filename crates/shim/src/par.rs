//! Data-parallel helpers on one persistent, process-wide thread pool.
//!
//! Replaces the two rayon shapes the workspace uses: an indexed parallel
//! map over a slice (`par_iter().enumerate().map(...)`) and parallel
//! mutation of fixed-size output chunks (`par_chunks_mut`). Work is
//! statically partitioned into one contiguous range per task — the
//! workloads here (per-row GEMM accumulation, per-entry batched GEMMs,
//! work-group launches) are uniform enough that stealing would buy
//! nothing. [`par_task_map`] is the one exception: it hands out many
//! small tasks of uneven cost (the tuner's stage 1, one search-space
//! point per task), which the pool's threads claim one at a time.
//!
//! The pool holds `available_parallelism() − 1` workers, started by the
//! first parallel call and blocked on a condition variable between
//! jobs. The calling thread runs tasks too, so a call fans out to
//! [`worker_count`] threads without spawning any. Which thread runs a
//! task never matters: results and per-worker state are indexed by task,
//! so range-ordered results and the chunk-to-state pairing are the same
//! as with one thread per task. A call made while the pool is already
//! running a job — from inside one of its tasks, or from an unrelated
//! thread — runs its ranges inline, in order, on the calling thread. A
//! panicking task is caught; the call waits for every task already
//! claimed and then resumes the panic on the caller, and the pool stays
//! usable.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Threads a parallel call can use, the caller included: the host's
/// core count, read once per process.
fn pool_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many tasks `jobs` uniform jobs should fan out to: one per pool
/// thread (the caller included), never more than there are jobs, and
/// at least one. Callers that pre-size per-worker state (e.g. batched
/// GEMM workspaces) use this to know the fan-out before calling.
pub fn worker_count(jobs: usize) -> usize {
    pool_size().min(jobs).max(1)
}

/// A task body with its borrow erased; see the `SAFETY` note in
/// [`Pool::run`].
type Task = &'static (dyn Fn(usize) + Sync);

/// The job the pool is running: tasks `0..tasks`, claimed in order.
struct Job {
    task: Task,
    tasks: usize,
    /// Next unclaimed task; set to `tasks` to stop further claims.
    next: usize,
    /// Tasks claimed by workers and not yet finished.
    running: usize,
    /// First panic payload a task raised.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    /// Held by the one caller whose job the pool runs. Taken with
    /// Acquire and given back with Release, so a caller that takes the
    /// pool sees the previous caller's job taken down; the job slot
    /// itself is guarded by its mutex.
    busy: AtomicBool,
    job: Mutex<Option<Job>>,
    /// Workers wait here for a job with unclaimed tasks.
    posted: Condvar,
    /// The caller waits here for the workers' last claimed task.
    finished: Condvar,
    workers: usize,
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        static STARTED: std::sync::Once = std::sync::Once::new();
        let pool = POOL.get_or_init(|| Pool {
            busy: AtomicBool::new(false),
            job: Mutex::new(None),
            posted: Condvar::new(),
            finished: Condvar::new(),
            workers: pool_size() - 1,
        });
        STARTED.call_once(|| {
            for i in 0..pool.workers {
                // Workers live for the whole process and never panic
                // (tasks' panics are caught), so they are not joined.
                // A worker that fails to start leaves its share to the
                // others and the caller, which claim tasks dynamically.
                let _ = std::thread::Builder::new()
                    .name(format!("shim-par-{i}"))
                    .spawn(move || pool.work());
            }
        });
        pool
    }

    /// Lock the job slot. No task runs while the lock is held and
    /// every critical section leaves the slot consistent, so a
    /// poisoned lock still guards valid data.
    fn lock(&self) -> MutexGuard<'_, Option<Job>> {
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the next task of the posted job, if any remain.
    fn claim(job: &mut Option<Job>) -> Option<(Task, usize)> {
        let job = job.as_mut()?;
        (job.next < job.tasks).then(|| {
            job.next += 1;
            (job.task, job.next - 1)
        })
    }

    fn work(&self) {
        loop {
            let (task, t) = {
                let mut job = self.lock();
                loop {
                    if let Some(claimed) = Self::claim(&mut job) {
                        job.as_mut().expect("claimed from a posted job").running += 1;
                        break claimed;
                    }
                    job = self
                        .posted
                        .wait(job)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| task(t)));
            let mut job = self.lock();
            let job = job.as_mut().expect("a job outlives its claimed tasks");
            job.running -= 1;
            if let Err(payload) = result {
                job.panic.get_or_insert(payload);
                job.next = job.tasks;
            }
            if job.running == 0 && job.next == job.tasks {
                self.finished.notify_one();
            }
        }
    }

    /// Run `task(t)` for every `t` in `0..tasks` — on the pool when it
    /// is free, else inline in order — and return once all have ended.
    fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        let held = self.workers > 0
            && tasks > 1
            && self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if !held {
            (0..tasks).for_each(task);
            return;
        }
        // SAFETY: only the lifetime is erased; the reference stays
        // valid for as long as anyone can reach it. Workers reach it
        // only through the posted job, and this function takes the job
        // down before it returns, after every claimed task has ended.
        // It cannot unwind before then: tasks' panics are caught, and
        // nothing between posting and taking down the job panics
        // (`lock` recovers from poison instead of panicking).
        let erased: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(task) };
        *self.lock() = Some(Job {
            task: erased,
            tasks,
            next: 0,
            running: 0,
            panic: None,
        });
        for _ in 1..tasks.min(self.workers + 1) {
            self.posted.notify_one();
        }
        let mut job = self.lock();
        while let Some((_, t)) = Self::claim(&mut job) {
            drop(job);
            let result = panic::catch_unwind(AssertUnwindSafe(|| task(t)));
            job = self.lock();
            if let (Err(payload), Some(job)) = (result, job.as_mut()) {
                job.panic.get_or_insert(payload);
                job.next = job.tasks;
            }
        }
        while job.as_ref().is_some_and(|j| j.running > 0) {
            job = self
                .finished
                .wait(job)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let panic = job.take().and_then(|j| j.panic);
        drop(job);
        self.busy.store(false, Ordering::Release);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }
}

/// Hand `parts[t]` to task `t` and run `f(t, part)` for every part on
/// the pool.
fn run_parts<P: Send>(parts: Vec<P>, f: impl Fn(usize, P) + Sync) {
    if parts.len() <= 1 {
        parts.into_iter().enumerate().for_each(|(t, p)| f(t, p));
        return;
    }
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    Pool::get().run(slots.len(), &|t| {
        let part = slots[t]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each task runs once");
        f(t, part);
    });
}

/// Parallel indexed for-each over mutable items with per-worker mutable
/// state.
///
/// `items` is split into one contiguous range per task (at most
/// `states.len()` tasks); task `t` calls `f(index, item, &mut states[t])`
/// for every item in its range, with exclusive access to both the item
/// and the state. This is the batched-GEMM harness: each item is one
/// batch entry's output slice, each state a reusable `Workspace`-style
/// arena, so a steady-state batch loop allocates nothing while entries
/// still execute in parallel.
///
/// # Panics
/// Panics if `states` is empty while `items` is not.
pub fn par_items_mut<I, S, F>(items: &mut [I], states: &mut [S], f: F)
where
    I: Send,
    S: Send,
    F: Fn(usize, &mut I, &mut S) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    assert!(!states.is_empty(), "par_items_mut needs at least one state");
    let per = n.div_ceil(worker_count(n).min(states.len()));
    let parts: Vec<_> = items.chunks_mut(per).zip(states.iter_mut()).collect();
    run_parts(parts, |t, (chunk, state)| {
        for (i, item) in chunk.iter_mut().enumerate() {
            f(t * per + i, item, state);
        }
    });
}

/// Parallel indexed map: `out[i] = f(i, &items[i])`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let threads = worker_count(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, v)| f(i, v)).collect();
    }
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let per = n.div_ceil(threads);
    run_parts(out.chunks_mut(per).collect(), |t, slots| {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(t * per + i, &items[t * per + i]));
        }
    });
    out.into_iter()
        .map(|v| v.expect("every slot filled"))
        .collect()
}

/// Parallel map over contiguous index ranges: `0..n` is split into one
/// range per task and `f(range)` runs once per task. Results come back
/// in range order, so folds over them are deterministic regardless of
/// thread scheduling. Unlike [`par_map`] the caller keeps per-task
/// state alive for a whole range (e.g. a reusable register arena), which
/// is what the VM's parallel work-group launch needs.
pub fn par_range_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let per = n.div_ceil(worker_count(n));
    let mut out: Vec<Option<R>> = (0..n.div_ceil(per)).map(|_| None).collect();
    run_parts(out.iter_mut().collect(), |t, slot| {
        *slot = Some(f(t * per..((t + 1) * per).min(n)));
    });
    out.into_iter().map(|v| v.expect("worker result")).collect()
}

/// Parallel map with one task per index, claimed dynamically:
/// `out[t] = f(t)` for `t` in `0..n`. Each pool thread takes the next
/// unclaimed task when it finishes one, so tasks of uneven cost still
/// keep every thread busy, where [`par_range_map`]'s one static range
/// per thread would leave a thread idle behind a heavy range. Results
/// come back in task order.
pub fn par_task_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    run_parts(out.iter_mut().collect(), |t, slot| *slot = Some(f(t)));
    out.into_iter()
        .map(|v| v.expect("every task ran"))
        .collect()
}

/// Parallel mutation of consecutive `chunk`-sized pieces of `data`;
/// `f(chunk_index, chunk)` like `par_chunks_mut().enumerate()`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = data.len().div_ceil(chunk);
    let threads = worker_count(n_chunks);
    if threads <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let per = n_chunks.div_ceil(threads);
    run_parts(data.chunks_mut(per * chunk).collect(), |t, part| {
        for (i, c) in part.chunks_mut(chunk).enumerate() {
            f(t * per + i, c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<usize> = (0..1037).collect();
        let seq: Vec<usize> = items.iter().enumerate().map(|(i, v)| i * 3 + v).collect();
        assert_eq!(par_map(&items, |i, v| i * 3 + v), seq);
        assert!(par_map::<usize, usize, _>(&[], |_, v| *v).is_empty());
    }

    #[test]
    fn par_range_map_covers_all_indices_in_order() {
        let parts = par_range_map(1003, |r| r.clone());
        let mut flat: Vec<usize> = Vec::new();
        for r in parts {
            flat.extend(r);
        }
        assert_eq!(flat, (0..1003).collect::<Vec<_>>());
        assert!(par_range_map(0, |r| r.len()).is_empty());
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0usize; 1000];
        par_chunks_mut(&mut data, 7, |idx, c| {
            for v in c.iter_mut() {
                *v += idx + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 7 + 1, "element {i}");
        }
    }

    #[test]
    fn par_items_mut_visits_every_item_once_with_worker_state() {
        // Each item records (index it saw, owning state's tag); every
        // item must be visited exactly once and the per-state counts
        // must sum to n.
        let n = 997;
        let mut items: Vec<(usize, Option<usize>)> = (0..n).map(|_| (0, None)).collect();
        let mut states: Vec<(usize, usize)> = (0..4).map(|t| (t, 0)).collect();
        par_items_mut(&mut items, &mut states, |i, item, (tag, count)| {
            item.0 += i + 1;
            item.1 = Some(*tag);
            *count += 1;
        });
        let total: usize = states.iter().map(|(_, c)| c).sum();
        assert_eq!(total, n);
        for (i, (v, owner)) in items.iter().enumerate() {
            assert_eq!(*v, i + 1, "item {i} visited once with its own index");
            assert!(owner.is_some(), "item {i} owned by some worker");
        }
        // Zero items with an empty state set is a no-op, not a panic.
        par_items_mut(
            &mut [] as &mut [u8],
            &mut [] as &mut [u8],
            |_, _, _| unreachable!(),
        );
    }

    #[test]
    fn par_items_mut_uses_at_most_the_given_states() {
        let mut items = vec![0u8; 100];
        let mut states = vec![0usize; 1];
        par_items_mut(&mut items, &mut states, |_, item, c| {
            *item = 1;
            *c += 1;
        });
        assert_eq!(states[0], 100);
        assert!(items.iter().all(|&v| v == 1));
        assert!(worker_count(8) >= 1);
    }

    #[test]
    fn chunk_larger_than_data_is_one_chunk() {
        let mut data = vec![1u32; 5];
        par_chunks_mut(&mut data, 100, |idx, c| {
            assert_eq!(idx, 0);
            for v in c.iter_mut() {
                *v = 9;
            }
        });
        assert_eq!(data, vec![9; 5]);
    }

    /// The split every entry point promises: `ceil(n / worker_count(n))`
    /// items per task, in order.
    fn expected_ranges(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let per = n.div_ceil(threads);
        (0..n).step_by(per).map(|s| s..(s + per).min(n)).collect()
    }

    #[test]
    fn splits_match_one_contiguous_range_per_worker() {
        let cores = worker_count(usize::MAX);
        let sizes = (0..=2 * cores + 3).chain([17, 64, 97, 1000, 1003]);
        for n in sizes {
            let threads = worker_count(n);
            assert!(threads >= 1 && threads <= n.max(1) && threads <= cores);
            assert_eq!(
                par_range_map(n, |r| r),
                expected_ranges(n, threads),
                "n = {n}"
            );

            // Chunk `i` of `par_chunks_mut` is `data[i·chunk..]`, each
            // visited once.
            for chunk in [1, 3] {
                let mut data: Vec<usize> = (0..n).collect();
                let seen = Mutex::new(Vec::new());
                par_chunks_mut(&mut data, chunk, |i, c| {
                    let want: Vec<usize> = (i * chunk..((i + 1) * chunk).min(n)).collect();
                    assert_eq!(c, &want[..], "n = {n}, chunk {i}");
                    seen.lock().expect("test lock").push(i);
                });
                let mut seen = seen.into_inner().expect("test lock");
                seen.sort_unstable();
                assert_eq!(seen, (0..n.div_ceil(chunk)).collect::<Vec<_>>());
            }

            // Item `i` of `par_items_mut` pairs with the state of the
            // range that holds it, with fewer states capping the split.
            for n_states in [1, 2, cores, cores + 1] {
                let mut items = vec![usize::MAX; n];
                let mut states: Vec<usize> = (0..n_states).collect();
                par_items_mut(&mut items, &mut states, |i, item, s| {
                    assert_eq!(*item, usize::MAX, "item {i} visited twice");
                    *item = *s;
                });
                let ranges = expected_ranges(n, threads.min(n_states));
                for (t, r) in ranges.iter().enumerate() {
                    assert!(
                        items[r.clone()].iter().all(|&s| s == t),
                        "n = {n}, range {t}"
                    );
                }
            }

            let items: Vec<usize> = (0..n).collect();
            assert_eq!(
                par_map(&items, |i, v| i + v),
                (0..n).map(|i| 2 * i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_parallel_call_inside_a_task_runs_inline() {
        let outer: Vec<usize> = (0..8).collect();
        let sums = par_map(&outer, |_, &o| {
            let inner: Vec<usize> = (0..100).collect();
            par_map(&inner, |_, &v| v * o).iter().sum::<usize>()
        });
        assert_eq!(sums, outer.iter().map(|o| 4950 * o).collect::<Vec<_>>());
    }

    #[test]
    fn overlapping_callers_both_get_their_results() {
        // Each caller's task for index 0 waits at the barrier, so the
        // two calls are forced to be in flight at once: one holds the
        // pool while the other runs inline.
        let barrier = std::sync::Barrier::new(2);
        let call = |scale: usize| {
            par_range_map(1000, |r| {
                if r.start == 0 {
                    barrier.wait();
                }
                r.map(|i| i * scale).sum::<usize>()
            })
            .iter()
            .sum::<usize>()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| call(1));
            let b = s.spawn(|| call(3));
            (
                a.join().expect("first caller"),
                b.join().expect("second caller"),
            )
        });
        assert_eq!((a, b), (499_500, 3 * 499_500));
    }

    #[test]
    fn a_task_panic_reaches_the_caller_and_the_pool_survives() {
        let result = panic::catch_unwind(|| {
            par_range_map(64, |r| {
                assert!(r.start != 0, "task panic");
                r.len()
            })
        });
        let payload = result.expect_err("the task's panic reaches the caller");
        let msg = payload.downcast_ref::<&str>().copied();
        assert_eq!(msg, Some("task panic"));
        let items: Vec<u64> = (0..64).collect();
        assert_eq!(
            par_map(&items, |_, v| v + 1).iter().sum::<u64>(),
            64 * 65 / 2
        );
    }

    #[test]
    fn par_task_map_returns_results_in_task_order() {
        for n in [0, 1, 2, 1000] {
            assert_eq!(
                par_task_map(n, |t| t * 3 + 1),
                (0..n).map(|t| t * 3 + 1).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn par_task_map_runs_each_uneven_task_once() {
        use std::sync::atomic::AtomicUsize;
        // One task in eight sleeps, the rest return at once, so the
        // threads claim very different numbers of tasks.
        let n = 96;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = par_task_map(n, |t| {
            if t % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            runs[t].fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        for (t, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "task {t}");
        }
    }

    #[test]
    fn a_par_task_map_panic_reaches_the_caller_and_the_pool_survives() {
        let result = panic::catch_unwind(|| {
            par_task_map(64, |t| {
                assert!(t != 17, "task panic");
                t
            })
        });
        let payload = result.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("task panic"));
        assert_eq!(par_task_map(64, |t| t).iter().sum::<usize>(), 63 * 64 / 2);
    }

    #[test]
    fn a_par_task_map_inside_a_task_runs_inline() {
        let inline = par_task_map(8, |_| {
            let outer = std::thread::current().id();
            par_task_map(50, |_| std::thread::current().id())
                .iter()
                .all(|&inner| inner == outer)
        });
        assert_eq!(inline, vec![true; 8]);
    }

    #[test]
    fn repeated_calls_reuse_the_same_threads() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(std::collections::HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        for _ in 0..100 {
            par_map(&items, |_, _| {
                seen.lock()
                    .expect("test lock")
                    .insert(std::thread::current().id());
            });
        }
        let mut seen = seen.into_inner().expect("test lock");
        seen.remove(&caller);
        assert!(
            seen.len() < worker_count(usize::MAX),
            "{} threads",
            seen.len()
        );
    }
}
