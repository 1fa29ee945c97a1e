//! Offline stand-in for the `rayon` API surface used by this workspace.
//!
//! Parallel iterators are materialized eagerly into a work list; `map` is
//! recorded lazily and executed on `collect`/`reduce`/`for_each`: the
//! calling thread and one `std::thread::scope` thread per extra core pull
//! the next item from one shared queue until it is empty, and each result
//! is placed by its item's index. Results therefore come back in input
//! order, identical to the sequential evaluation — which is what lets
//! `mcdc-core` assert parallel CAME produces bit-identical labels — and a
//! slow item never leaves other items waiting behind it on a busy thread.
//!
//! Thread count: `RAYON_NUM_THREADS` if set, else
//! `std::thread::available_parallelism()`, read on every call so a caller
//! can change it between calls.

use std::ops::Range;
use std::sync::Mutex;

pub mod prelude {
    //! Glob-import surface, mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSlice};
}

/// Number of worker threads the shim will use.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `f` over `items` on up to [`current_num_threads`] threads (read on
/// every call), preserving input order in the output.
fn par_map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_queue(items, current_num_threads(), f)
}

/// Maps `items` through `f` on the calling thread and `threads - 1` scoped
/// threads, each taking the next item from one shared queue. Every item is
/// mapped exactly once and the results come back in input order. A panic in
/// `f` reaches the caller with its own payload, whichever thread ran the
/// item.
fn par_map_queue<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let threads = threads.min(len);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // The lock is held only to take an item, never while `f` runs, so a
    // panic in `f` cannot poison it.
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("the queue lock is never held across `f`").next();
            let Some((i, item)) = next else { return done };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<U>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut place = |done: Vec<(usize, U)>| {
            for (i, value) in done {
                slots[i] = Some(value);
            }
        };
        place(work());
        for worker in workers {
            place(worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
    });
    slots.into_iter().map(|slot| slot.expect("the queue hands out every item")).collect()
}

/// An eager parallel iterator: the pending work list.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// A parallel iterator with a pending `map` stage.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    /// Records a map stage, executed at the terminal operation.
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, f }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_vec(self.items, f);
    }

    /// Collects the items (no pending map: already materialized).
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

impl<T, U, F> ParMap<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    /// Executes the map in parallel and collects in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        par_map_vec(self.items, self.f).into_iter().collect()
    }

    /// Executes the map in parallel, then folds the results left-to-right.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> U
    where
        ID: Fn() -> U,
        OP: Fn(U, U) -> U,
    {
        par_map_vec(self.items, self.f).into_iter().fold(identity(), op)
    }

    /// Executes the map in parallel and sums the results.
    pub fn sum<S: std::iter::Sum<U>>(self) -> S {
        par_map_vec(self.items, self.f).into_iter().sum()
    }
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Builds the work list.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter { items: self.collect() }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

/// Conversion into a borrowing parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type produced (a reference).
    type Item: Send;
    /// Builds the work list over `&self`.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

/// Parallel chunked traversal of slices.
pub trait ParallelSlice<T: Sync> {
    /// Splits into contiguous chunks of at most `chunk_size` items.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter { items: self.chunks(chunk_size).collect() }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_slice_in_order() {
        let data: Vec<u32> = (0..103).collect();
        let sums: Vec<u64> =
            data.par_chunks(10).map(|c| c.iter().map(|&x| x as u64).sum()).collect();
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<u64>(), (0..103u64).sum());
    }

    #[test]
    fn reduce_folds_all_items() {
        let total = (0..100usize).into_par_iter().map(|i| i as u64).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 4950);
    }

    #[test]
    fn every_item_is_mapped_once_and_returned_in_input_order() {
        for threads in 1..=5 {
            for len in [0usize, 1, 2, 3, 7, 64] {
                let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = super::par_map_queue((0..len).collect(), threads, |i| {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    i * 3
                });
                assert_eq!(out, (0..len).map(|i| i * 3).collect::<Vec<_>>());
                for (i, n) in calls.iter().enumerate() {
                    assert_eq!(n.load(Ordering::SeqCst), 1, "threads={threads} len={len} i={i}");
                }
            }
        }
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_next_one() {
        // Item 0 waits for a signal that only item 1 sends, so the two must
        // run on different threads at once. Contiguous chunks of 3 items on
        // 2 threads would give both to one thread, and item 0 would time out.
        let (send, receive) = mpsc::channel();
        let receive = Mutex::new(receive);
        let out = super::par_map_queue(vec![0usize, 1, 2], 2, |i| match i {
            0 => receive.lock().unwrap().recv_timeout(Duration::from_secs(10)).is_ok(),
            1 => send.send(()).is_ok(),
            _ => true,
        });
        assert_eq!(out, [true, true, true]);
    }

    // Item 0 is taken first, mostly by the calling thread, and item 11 last;
    // either way the panic must reach the caller with its own message.
    #[test]
    #[should_panic(expected = "boom in the first item")]
    fn a_panic_on_the_calling_thread_propagates() {
        super::par_map_queue((0..12usize).collect(), 3, |i| {
            assert!(i != 0, "boom in the first item");
            i
        });
    }

    #[test]
    #[should_panic(expected = "boom in the last item")]
    fn a_panic_on_a_worker_propagates() {
        super::par_map_queue((0..12usize).collect(), 3, |i| {
            assert!(i != 11, "boom in the last item");
            i
        });
    }

    #[test]
    fn par_iter_borrows() {
        let v = vec![1u64, 2, 3];
        let s: u64 = v.par_iter().map(|&x| x).sum();
        assert_eq!(s, 6);
    }
}
