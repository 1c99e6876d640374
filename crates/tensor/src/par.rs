//! The workspace's one thread pool: client-level sweeps on the machine's
//! cores.
//!
//! [`map_mut`] runs `f(i, &mut items[i])` for every item on up to
//! [`std::thread::available_parallelism`] scoped threads, the calling
//! thread among them, and returns the results in index order. Workers
//! claim items one at a time from a shared cursor, so shards of uneven
//! size spread over the cores. Which worker runs an item never changes
//! what `f` computes on it, so a sweep returns the same bits at any worker
//! count; whatever depends on order (a channel, a fold, an observer) stays
//! with the caller, which consumes the results in ascending index.
//!
//! `available_parallelism` follows the process's CPU quota and affinity:
//! on one CPU a sweep is the plain sequential loop and starts no thread.
//! Kernels (GEMM, SpMM, moments) run on the thread that calls them: the
//! pool owns the cores, and fan-out inside a kernel would only
//! oversubscribe them. For the same reason a sweep started on a worker
//! runs on that worker alone.
//!
//! Before the first sweep that starts a thread, the process is limited to
//! one glibc malloc arena. Per-thread arenas left the main arena cold:
//! buffers the workers allocated (tapes, activations) were freed into
//! their own arenas, and set-up on the main thread paid for fresh pages
//! (`cora_paper` `setup_s` +16 %, DESIGN.md §8).

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};

thread_local! {
    /// This thread's worker count, when pinned: 1 on a thread running a
    /// sweep's items, or what [`with_workers`] set.
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `f(i, &mut items[i])` for every item, on up to the machine's cores;
/// results in index order. A panic in `f` is resumed on the calling
/// thread, with its payload, once every worker has stopped.
///
/// A thin generic shell: each index owns a slot (its item, then its
/// result) behind an uncontended lock, and the threads are started by
/// [`run_indices`], which is compiled once rather than per call site.
pub fn map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = PINNED
        .with(Cell::get)
        .unwrap_or_else(cores)
        .min(items.len());
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<(&mut T, Option<R>)>> = items
        .iter_mut()
        .map(|item| Mutex::new((item, None)))
        .collect();
    run_indices(slots.len(), workers, &|i| {
        let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        let (item, result) = &mut *slot;
        *result = Some(f(i, item));
    });
    slots
        .into_iter()
        .map(|slot| {
            let (_, result) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            #[expect(clippy::expect_used, reason = "`run_indices` runs every index")]
            let result = result.expect("every index has run");
            result
        })
        .collect()
}

/// Runs `job(i)` for every `i` in `0..len` on `workers` threads (at
/// least 2), the calling thread among them: each claims the next index
/// from a shared cursor until none is left. Returns once every index has
/// run; a panic in `job` is resumed here with its payload.
fn run_indices(len: usize, workers: usize, job: &(dyn Fn(usize) + Sync)) {
    static ONE_ARENA: Once = Once::new();
    ONE_ARENA.call_once(one_malloc_arena);
    let cursor = AtomicUsize::new(0);
    // A sweep started inside `job` runs on the worker that started it.
    let work = || {
        with_workers(1, || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            job(i);
        });
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// [`map_mut`] over shared items.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_mut(&mut items.iter().collect::<Vec<_>>(), |i, t| f(i, t))
}

/// Runs `body` with every sweep it starts on this thread pinned to
/// `workers` workers (at least 1). The pool pins its own workers to 1;
/// otherwise only the worker-count tests call it.
#[doc(hidden)]
pub fn with_workers<R>(workers: usize, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PINNED.with(|p| p.replace(Some(workers.max(1)))));
    body()
}

/// The machine's worker count, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Limits glibc malloc to its main arena, so memory the workers free is
/// reused by every thread (see the module docs).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code, reason = "one mallopt call through glibc's C ABI")]
fn one_malloc_arena() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    /// `M_ARENA_MAX` from glibc's `<malloc.h>`.
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` is glibc's, declared with its C signature; it
    // takes the arena lock itself, and `M_ARENA_MAX` only caps how many
    // arenas later allocations may create. It reports failure as 0, and a
    // failed call leaves glibc's default, which is correct, only slower.
    let _ = unsafe { mallopt(M_ARENA_MAX, 1) };
}

/// Other allocators keep their own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Busy work of `cost` rounds whose result depends on every round.
    fn spin(seed: u64, cost: u32) -> u64 {
        (0..cost).fold(seed, |h, k| {
            (h ^ u64::from(k)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
    }

    proptest! {
        /// At 1, 2 and 4 workers, over slices of 0 to 40 items of uneven
        /// cost: every item is visited once, with its own index, and the
        /// results come back in index order, equal to the sequential loop.
        #[test]
        fn every_item_once_and_results_in_index_order(
            costs in proptest::collection::vec(0u32..20_000, 0..40),
        ) {
            let want: Vec<(usize, u64)> = costs
                .iter()
                .enumerate()
                .map(|(i, &c)| (i, spin(i as u64, c)))
                .collect();
            for workers in [1, 2, 4] {
                let mut items: Vec<(u32, u32)> = costs.iter().map(|&c| (c, 0)).collect();
                let got = with_workers(workers, || {
                    map_mut(&mut items, |i, (cost, visits)| {
                        *visits += 1;
                        (i, spin(i as u64, *cost))
                    })
                });
                prop_assert_eq!(&got, &want);
                prop_assert!(items.iter().all(|&(_, visits)| visits == 1));
            }
        }
    }

    #[test]
    fn empty_and_single_item_slices() {
        for workers in [1, 2, 4] {
            with_workers(workers, || {
                let got: Vec<u8> = map_mut(&mut Vec::<u8>::new(), |_, _| 0);
                assert!(got.is_empty());
                assert_eq!(map_mut(&mut [7u8], |i, v| (i, *v)), [(0, 7)]);
            });
        }
    }

    /// With more than one worker, the items really spread over threads:
    /// items 0 and 1 each wait for the other, so they can only finish on
    /// two threads at once.
    #[test]
    fn items_run_on_more_than_one_thread() {
        let both = std::sync::Barrier::new(2);
        let mut items = vec![0u8; 6];
        let threads = with_workers(2, || {
            map_mut(&mut items, |i, _| {
                if i < 2 {
                    both.wait();
                }
                std::thread::current().id()
            })
        });
        assert_ne!(threads[0], threads[1]);
    }

    /// A panicking item reaches the caller with its own payload, after
    /// the other items have run; no worker is left waiting.
    #[test]
    fn a_panicking_item_propagates_without_a_hang() {
        for workers in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let mut items: Vec<usize> = (0..16).collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_workers(workers, || {
                    map_mut(&mut items, |i, _| {
                        assert_ne!(i, 5, "item five fails");
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(message.contains("item five fails"), "{message:?}");
            if workers > 1 {
                assert_eq!(ran.load(Ordering::Relaxed), 15, "{workers} workers");
            }
        }
    }

    /// `with_workers` pins this thread's sweeps and is undone afterwards,
    /// also when its body panics; a sweep on a worker runs on that worker.
    #[test]
    fn pinning_is_scoped_and_workers_run_their_own_sweeps() {
        let before = PINNED.with(Cell::get);
        let nested = with_workers(2, || {
            assert_eq!(PINNED.with(Cell::get), Some(2));
            map_mut(&mut [0u8; 4], |_, _| {
                let outer = std::thread::current().id();
                map(&[0u8; 4], |_, _| std::thread::current().id() == outer)
            })
        });
        assert!(nested.iter().flatten().all(|&same| same));
        assert_eq!(PINNED.with(Cell::get), before);
        let _ = std::panic::catch_unwind(|| with_workers(3, || panic!("body fails")));
        assert_eq!(PINNED.with(Cell::get), before);
    }
}
