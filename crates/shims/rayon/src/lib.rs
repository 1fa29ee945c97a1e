//! Offline stand-in for the `rayon` API surface used by this workspace.
//!
//! Parallel iterators are materialized eagerly into a work list; `map` is
//! recorded lazily and executed on `collect`/`reduce`/`for_each` by chunking
//! the work list: the calling thread maps the first chunk, a
//! `std::thread::scope` thread each of the others. Chunks are concatenated
//! in order, so results are identical to the sequential evaluation — which
//! is what lets `mcdc-core` assert parallel CAME produces bit-identical
//! labels.
//!
//! Thread count: `RAYON_NUM_THREADS` if set, else
//! `std::thread::available_parallelism()`, read on every call so a caller
//! can change it between calls.

use std::ops::Range;

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
    par_map_chunks(items, current_num_threads(), f)
}

/// Maps `items` through `f` in up to `threads` contiguous chunks: the first
/// on the calling thread, each other on a scoped thread of its own, so a
/// call spawns `threads - 1` threads. The chunks are concatenated in input
/// order; a panic in any chunk propagates to the caller.
fn par_map_chunks<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
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
    let chunk_len = len.div_ceil(threads);
    let mut iter = items.into_iter();
    let first: Vec<T> = iter.by_ref().take(chunk_len).collect();
    let mut rest: Vec<Vec<T>> = Vec::with_capacity(threads - 1);
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        rest.push(chunk);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out: Vec<U> = Vec::with_capacity(len);
        out.extend(first.into_iter().map(f));
        for handle in handles {
            out.extend(handle.join().expect("rayon-shim worker panicked"));
        }
        out
    })
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
    fn chunks_keep_input_order_with_the_caller_mapping_the_first() {
        let caller = std::thread::current().id();
        for threads in 1..=5 {
            for len in [0usize, 1, 2, 7, 64] {
                let out = super::par_map_chunks((0..len).collect(), threads, |i| {
                    (i * 3, std::thread::current().id() == caller)
                });
                let values: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
                assert_eq!(values, (0..len).map(|i| i * 3).collect::<Vec<_>>());
                // The first chunk (and only it) runs on the calling thread.
                let chunk_len = len.div_ceil(threads.min(len).max(1));
                for (i, &(_, on_caller)) in out.iter().enumerate() {
                    assert_eq!(on_caller, i < chunk_len, "threads={threads} len={len} i={i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom in the first chunk")]
    fn a_panic_on_the_calling_thread_propagates() {
        super::par_map_chunks((0..12usize).collect(), 3, |i| {
            assert!(i != 1, "boom in the first chunk");
            i
        });
    }

    #[test]
    #[should_panic(expected = "rayon-shim worker panicked")]
    fn a_panic_on_a_worker_propagates() {
        super::par_map_chunks((0..12usize).collect(), 3, |i| {
            assert!(i != 10, "boom in the last chunk");
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
