//! API-compatible subset of `rayon` built on `std::thread::scope`.
//!
//! The registry is unreachable in this build environment, so the
//! workspace vendors the slice of rayon it actually uses: indexed
//! parallel iterators over ranges, vectors, slices, and chunked slices,
//! with `map` / `enumerate` / `zip` adapters and `collect` / `for_each` /
//! `for_each_init` / `reduce` / `sum` terminals, plus a bounded
//! [`ThreadPool`] whose `install` scopes the worker count (that is how the
//! scalar executor backend pins kernels to one thread).
//!
//! Execution model: a terminal splits the index space into at most
//! `current_num_threads()` contiguous parts (respecting `with_min_len`),
//! runs one part inline and the rest on scoped OS threads, then stitches
//! results back in index order. With one effective thread everything runs
//! inline with no spawns, so single-core hosts (and the scalar backend)
//! pay no parallelism tax.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// 0 = no override (use the host parallelism).
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads terminals may use on this thread.
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o != 0 {
        o
    } else {
        host_parallelism()
    }
}

/// Host parallelism, queried once: like rayon's global pool, the default
/// width is fixed at first use. `available_parallelism` re-reads the
/// affinity mask and cgroup quota files on every call — tens of
/// microseconds, which kernels that ask per pass cannot afford.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn with_thread_override<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(n));
    // Restore on unwind so a panicking closure doesn't poison the thread.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Error from [`ThreadPoolBuilder::build`] (never produced by the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A bounded worker budget. `install` scopes all parallel iterators run
/// inside the closure to this pool's thread count.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Thread count of the pool.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with this pool's thread budget in effect.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        with_thread_override(self.threads, f)
    }
}

/// Builder for [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Fix the worker count (0 = host parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Worker naming hook (accepted for compatibility; the shim reuses
    /// caller threads, so no threads are named).
    pub fn thread_name<F: FnMut(usize) -> String>(self, _f: F) -> Self {
        self
    }

    /// Finish building.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.threads {
            Some(0) | None => host_parallelism(),
            Some(n) => n,
        };
        Ok(ThreadPool { threads })
    }
}

fn part_count(len: usize, min_len: usize) -> usize {
    let threads = current_num_threads();
    if threads <= 1 || len <= min_len.max(1) {
        1
    } else {
        threads.min(len / min_len.max(1)).max(1)
    }
}

/// Run `make_part(part_index) -> (base, items)` for `parts` parts, passing
/// each to `job` on its own scoped thread (part 0 inline). The closures
/// run with a worker budget of 1 so nested parallel calls stay sequential
/// (one level of parallelism, like a fixed-size pool).
fn run_parts<T: Send>(parts: Vec<(usize, Vec<T>)>, job: &(dyn Fn(usize, Vec<T>) + Sync)) {
    let mut parts = parts;
    if parts.len() <= 1 {
        if let Some((base, items)) = parts.pop() {
            job(base, items);
        }
        return;
    }
    let first = parts.remove(0);
    std::thread::scope(|scope| {
        for (base, items) in parts {
            scope.spawn(move || with_thread_override(1, || job(base, items)));
        }
        with_thread_override(1, || job(first.0, first.1));
    });
}

fn split_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(parts);
    let base = len / parts;
    let extra = len % parts;
    let mut start = 0;
    for p in 0..parts {
        let take = base + usize::from(p < extra);
        out.push((start, start + take));
        start += take;
    }
    out
}

/// An indexed parallel iterator.
pub trait ParallelIterator: Sized + Send {
    /// Element type.
    type Item: Send;

    /// Exact number of items.
    fn length(&self) -> usize;

    /// Current sequential-grain hint.
    fn min_len_hint(&self) -> usize;

    /// Update the sequential-grain hint.
    fn set_min_len(&mut self, n: usize);

    /// Execute `job(base_index, items)` over `parts` disjoint contiguous
    /// parts (in-order items, ascending bases, parallel across parts).
    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<Self::Item>) + Sync));

    /// Require at least `n` items per sequential part.
    fn with_min_len(mut self, n: usize) -> Self {
        self.set_min_len(n.max(1));
        self
    }

    /// Map each item through `f` (applied on the worker threads).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { inner: self, f }
    }

    /// Pair each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Zip with another parallel iterator (materializes both sides).
    fn zip<O: ParallelIterator>(self, other: O) -> ParVec<(Self::Item, O::Item)> {
        let a: Vec<Self::Item> = self.collect();
        let b: Vec<O::Item> = other.collect();
        ParVec {
            items: a.into_iter().zip(b).collect(),
            min_len: 1,
        }
    }

    /// Collect into `C` preserving item order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Run `op` on every item.
    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let parts = part_count(self.length(), self.min_len_hint());
        self.drive(parts, &|_base, items| {
            for item in items {
                op(item);
            }
        });
    }

    /// Run `op` on every item with one `init()` state per worker part.
    fn for_each_init<S, I, F>(self, init: I, op: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, Self::Item) + Sync + Send,
    {
        let parts = part_count(self.length(), self.min_len_hint());
        self.drive(parts, &|_base, items| {
            let mut state = init();
            for item in items {
                op(&mut state, item);
            }
        });
    }

    /// Fold all items with `op`, seeding each part with `identity()`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let parts = part_count(self.length(), self.min_len_hint());
        let partials: Mutex<Vec<(usize, Self::Item)>> = Mutex::new(Vec::new());
        self.drive(parts, &|base, items| {
            let mut acc = identity();
            for item in items {
                acc = op(acc, item);
            }
            partials.lock().unwrap().push((base, acc));
        });
        let mut partials = partials.into_inner().unwrap();
        partials.sort_by_key(|&(base, _)| base);
        partials
            .into_iter()
            .map(|(_, acc)| acc)
            .fold(identity(), &op)
    }

    /// Sum all items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let parts = part_count(self.length(), self.min_len_hint());
        let partials: Mutex<Vec<S>> = Mutex::new(Vec::new());
        self.drive(parts, &|_base, items| {
            let s: S = items.into_iter().sum();
            partials.lock().unwrap().push(s);
        });
        partials.into_inner().unwrap().into_iter().sum()
    }
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// Iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Element type.
    type Item: Send;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

/// `.par_iter()` over borrowed slices (and `Vec` via deref).
pub trait IntoParallelRefIterator<'a> {
    /// Iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Element type (a shared reference).
    type Item: Send + 'a;
    /// Borrowing conversion.
    fn par_iter(&'a self) -> Self::Iter;
}

/// `.par_chunks()` over borrowed slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `chunk_size`-sized subslices (last may be
    /// shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

/// Parallel iterator over an owned vector.
pub struct ParVec<T: Send> {
    items: Vec<T>,
    min_len: usize,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;

    fn length(&self) -> usize {
        self.items.len()
    }

    fn min_len_hint(&self) -> usize {
        self.min_len
    }

    fn set_min_len(&mut self, n: usize) {
        self.min_len = n;
    }

    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<T>) + Sync)) {
        let len = self.items.len();
        let ranges = split_ranges(len, parts.max(1));
        let mut rest = self.items;
        let mut out = Vec::with_capacity(ranges.len());
        for &(start, end) in ranges.iter().rev() {
            let tail = rest.split_off(start);
            debug_assert_eq!(tail.len(), end - start);
            out.push((start, tail));
        }
        out.reverse();
        run_parts(out, job);
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    type Item = T;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec {
            items: self,
            min_len: 1,
        }
    }
}

/// Parallel iterator over `start..end`.
pub struct ParRange {
    start: usize,
    end: usize,
    min_len: usize,
}

impl ParallelIterator for ParRange {
    type Item = usize;

    fn length(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    fn min_len_hint(&self) -> usize {
        self.min_len
    }

    fn set_min_len(&mut self, n: usize) {
        self.min_len = n;
    }

    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<usize>) + Sync)) {
        let len = self.length();
        let base = self.start;
        let parts_vec = split_ranges(len, parts.max(1))
            .into_iter()
            .map(|(s, e)| (s, (base + s..base + e).collect()))
            .collect();
        run_parts(parts_vec, job);
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    type Item = usize;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
            min_len: 1,
        }
    }
}

/// Parallel iterator over shared slice elements.
pub struct ParSliceIter<'a, T: Sync> {
    slice: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> ParallelIterator for ParSliceIter<'a, T> {
    type Item = &'a T;

    fn length(&self) -> usize {
        self.slice.len()
    }

    fn min_len_hint(&self) -> usize {
        self.min_len
    }

    fn set_min_len(&mut self, n: usize) {
        self.min_len = n;
    }

    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<&'a T>) + Sync)) {
        let parts_vec = split_ranges(self.slice.len(), parts.max(1))
            .into_iter()
            .map(|(s, e)| (s, self.slice[s..e].iter().collect()))
            .collect();
        run_parts(parts_vec, job);
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParSliceIter<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter {
            slice: self,
            min_len: 1,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParSliceIter<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter {
            slice: self,
            min_len: 1,
        }
    }
}

/// Parallel iterator over fixed-size subslices.
pub struct ParChunks<'a, T: Sync> {
    slice: &'a [T],
    chunk: usize,
    min_len: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn length(&self) -> usize {
        self.slice.len().div_ceil(self.chunk.max(1))
    }

    fn min_len_hint(&self) -> usize {
        self.min_len
    }

    fn set_min_len(&mut self, n: usize) {
        self.min_len = n;
    }

    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<&'a [T]>) + Sync)) {
        let chunk = self.chunk.max(1);
        let n_chunks = self.length();
        let parts_vec = split_ranges(n_chunks, parts.max(1))
            .into_iter()
            .map(|(s, e)| {
                let lo = s * chunk;
                let hi = (e * chunk).min(self.slice.len());
                (s, self.slice[lo..hi].chunks(chunk).collect())
            })
            .collect();
        run_parts(parts_vec, job);
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        ParChunks {
            slice: self,
            chunk: chunk_size.max(1),
            min_len: 1,
        }
    }
}

/// `.par_chunks_mut()` over mutably borrowed slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint `chunk_size`-sized mutable
    /// subslices (last may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

/// Parallel iterator over fixed-size mutable subslices.
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk: usize,
    min_len: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn length(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn min_len_hint(&self) -> usize {
        self.min_len
    }

    fn set_min_len(&mut self, n: usize) {
        self.min_len = n;
    }

    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<&'a mut [T]>) + Sync)) {
        let ranges = split_ranges(self.length(), parts.max(1));
        let mut chunks = self.slice.chunks_mut(self.chunk);
        let parts_vec = ranges
            .into_iter()
            .map(|(s, e)| (s, chunks.by_ref().take(e - s).collect()))
            .collect();
        run_parts(parts_vec, job);
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut {
            slice: self,
            chunk: chunk_size.max(1),
            min_len: 1,
        }
    }
}

/// `map` adapter (see [`ParallelIterator::map`]).
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;

    fn length(&self) -> usize {
        self.inner.length()
    }

    fn min_len_hint(&self) -> usize {
        self.inner.min_len_hint()
    }

    fn set_min_len(&mut self, n: usize) {
        self.inner.set_min_len(n);
    }

    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<R>) + Sync)) {
        let f = self.f;
        self.inner.drive(parts, &|base, items| {
            job(base, items.into_iter().map(&f).collect())
        });
    }
}

/// `enumerate` adapter (see [`ParallelIterator::enumerate`]).
pub struct Enumerate<I> {
    inner: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn length(&self) -> usize {
        self.inner.length()
    }

    fn min_len_hint(&self) -> usize {
        self.inner.min_len_hint()
    }

    fn set_min_len(&mut self, n: usize) {
        self.inner.set_min_len(n);
    }

    fn drive(self, parts: usize, job: &(dyn Fn(usize, Vec<(usize, I::Item)>) + Sync)) {
        self.inner.drive(parts, &|base, items| {
            job(
                base,
                items
                    .into_iter()
                    .enumerate()
                    .map(|(k, v)| (base + k, v))
                    .collect(),
            )
        });
    }
}

/// Order-preserving parallel collection.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Build `Self` from the items of `iter`.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Vec<T> {
        let parts = part_count(iter.length(), iter.min_len_hint());
        if parts <= 1 {
            let out: Mutex<Vec<T>> = Mutex::new(Vec::new());
            iter.drive(1, &|_base, items| {
                *out.lock().unwrap() = items;
            });
            return out.into_inner().unwrap();
        }
        let pieces: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
        iter.drive(parts, &|base, items| {
            pieces.lock().unwrap().push((base, items));
        });
        let mut pieces = pieces.into_inner().unwrap();
        pieces.sort_by_key(|&(base, _)| base);
        let mut out = Vec::with_capacity(pieces.iter().map(|(_, v)| v.len()).sum());
        for (_, mut v) in pieces {
            out.append(&mut v);
        }
        out
    }
}

/// Everything call sites import.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 2);
        }
    }

    #[test]
    fn vec_into_par_iter_zip() {
        let a: Vec<i32> = (0..500).collect();
        let b: Vec<i32> = (0..500).map(|x| x * 10).collect();
        let z: Vec<i32> = a
            .into_par_iter()
            .zip(b.into_par_iter())
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(z[3], 33);
        assert_eq!(z[499], 499 * 11);
    }

    #[test]
    fn par_chunks_reduce_matches_serial() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let hist = data
            .par_chunks(1000)
            .map(|chunk| {
                let mut h = [0u64; 256];
                for &b in chunk {
                    h[b as usize] += 1;
                }
                h
            })
            .reduce(
                || [0u64; 256],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b.iter()) {
                        *x += y;
                    }
                    a
                },
            );
        assert_eq!(hist.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn sum_and_enumerate() {
        let s: u64 = (0..1000usize).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(s, 499_500);
        let v: Vec<(usize, char)> = vec!['a', 'b', 'c']
            .into_par_iter()
            .enumerate()
            .map(|(i, c)| (i, c))
            .collect();
        assert_eq!(v, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn for_each_init_visits_everything() {
        let seen = Mutex::new(vec![false; 2000]);
        (0..2000usize)
            .into_par_iter()
            .with_min_len(16)
            .for_each_init(
                || 0usize,
                |state, i| {
                    *state += 1;
                    seen.lock().unwrap()[i] = true;
                },
            );
        assert!(seen.into_inner().unwrap().iter().all(|&b| b));
    }

    #[test]
    fn pool_install_limits_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            assert_eq!(current_num_threads(), 1);
            let v: Vec<usize> = (0..64usize).into_par_iter().map(|i| i).collect();
            assert_eq!(v.len(), 64);
        });
    }

    #[test]
    fn par_chunks_mut_visits_disjoint_chunks_in_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut data = vec![0usize; 1000];
        pool.install(|| {
            data.par_chunks_mut(64)
                .enumerate()
                .for_each(|(c, chunk)| chunk.iter_mut().for_each(|x| *x = c));
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i / 64);
        }
    }

    #[test]
    fn par_iter_on_slice_of_vecs() {
        let groups: Vec<Vec<u32>> = (0..8).map(|g| vec![g; 4]).collect();
        let lens: Vec<usize> = groups.par_iter().map(|g| g.len()).collect();
        assert_eq!(lens, vec![4; 8]);
    }
}
