//! The runtime under every kernel: one persistent worker pool, one
//! process-wide core budget, and the parallel iterators that fan out
//! over them.
//!
//! The iterators are indexed and rayon-shaped — ranges, vectors, slices
//! and chunked slices, with `map` / `enumerate` / `zip` adapters and
//! `collect` / `for_each` / `reduce` / `sum` terminals — and [`install`]
//! scopes the calling thread's width (that is how a one-thread backend
//! pins its kernels to one thread).
//!
//! Execution model: a terminal splits the index space into at most
//! `current_num_threads()` contiguous parts (respecting `with_min_len`).
//! The split depends only on the length and the calling thread's width,
//! never on how many threads end up running it, so `reduce` and `sum` —
//! which combine per-part partials in index order — give the same answer
//! however the parts are scheduled. The caller then offers the parts to
//! as many pool workers as the core budget leaves free, claims parts
//! itself from the same shared index (so it never waits on a part nobody
//! has started), and returns once every part has finished, re-raising a
//! part's panic. With no free core the parts simply run inline in order.
//!
//! **The pool.** `host_threads() − 1` workers, named `hpmdr-exec-{i}`
//! (the pool is the engine of the workspace's executor layer), started
//! on the first terminal that has a part to offer and parked on one
//! queue + condvar for the rest of the process. A one-core host starts
//! none.
//!
//! **The core budget.** One count per process of the threads occupying a
//! core: a thread counts from its outermost [`install`] until that
//! returns (a terminal run outside any `install` counts its caller for
//! the terminal's duration), and a worker counts while it helps a
//! terminal. A terminal offers parts only to the cores the count leaves
//! free, so threads that already fill the machine — concurrent clients,
//! say — fan nothing, and a terminal nested inside a part runs inline
//! once its siblings hold every core.
//!
//! **Items cost a `Vec` slot each.** Every source hands each part its
//! items as one `Vec` — a range (`(0..n).into_par_iter()`) materializes
//! its indices — and `map` collects each part's results into another.
//! A kernel over millions of points therefore fans over *blocks* of a
//! few thousand elements (`par_chunks` / `par_chunks_mut`, or a range of
//! block indices), looping over the block inside the closure, never over
//! points: a per-point item pays two `Vec` writes and reads around work
//! of a few nanoseconds.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

thread_local! {
    /// 0 = no override (use the host parallelism).
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread already counts against the core budget (inside
    /// an `install` or a terminal, or a pool worker).
    static HOLDING: Cell<bool> = const { Cell::new(false) };
    /// Parts of this thread's terminals that pool workers ran.
    static HELPED: Cell<usize> = const { Cell::new(0) };
}

/// Cores of the budget in use: holding threads plus cores reserved for
/// (or occupied by) workers helping a terminal.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads terminals may use on this thread.
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o != 0 {
        o
    } else {
        host_threads()
    }
}

/// Host parallelism, queried once: like rayon's global pool, the default
/// width — and the core budget — is fixed at first use.
/// `available_parallelism` re-reads the affinity mask and cgroup quota
/// files on every call — tens of microseconds, which kernels that ask per
/// pass cannot afford.
pub fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cores of the budget in use right now (a snapshot).
pub fn busy_threads() -> usize {
    // ORDERING: a statistic; the count publishes no other data.
    BUSY.load(Ordering::Relaxed)
}

/// Cores the budget leaves free right now (a snapshot) — how many
/// workers a terminal started now could be offered parts.
pub fn idle_threads() -> usize {
    host_threads().saturating_sub(busy_threads())
}

/// Parts of terminals started on this thread that pool workers ran,
/// since the thread started.
pub fn helped_parts() -> usize {
    HELPED.with(Cell::get)
}

/// Run `f` with a width of `threads` for the terminals it starts on this
/// thread, counting the thread against the core budget until `f` returns
/// unless an enclosing `install` already does.
pub fn install<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _hold = Hold::take();
    with_thread_override(threads.max(1), f)
}

/// This thread's claim on one core of the budget, released on drop (and
/// so on unwind); empty when the thread already held one.
struct Hold(bool);

impl Hold {
    fn take() -> Hold {
        if HOLDING.with(|h| h.replace(true)) {
            return Hold(false);
        }
        // ORDERING: the count publishes no data; it only sizes offers.
        BUSY.fetch_add(1, Ordering::Relaxed);
        Hold(true)
    }
}

impl Drop for Hold {
    fn drop(&mut self) {
        if self.0 {
            HOLDING.with(|h| h.set(false));
            release(1);
        }
    }
}

fn release(cores: usize) {
    // ORDERING: the count publishes no data; it only sizes offers.
    BUSY.fetch_sub(cores, Ordering::Relaxed);
}

/// Reserve up to `want` free cores for helpers; returns how many.
fn reserve(want: usize) -> usize {
    // ORDERING: the count publishes no data (the parts travel through the
    // queue and slot mutexes); the CAS alone keeps two terminals from
    // reserving the same free core.
    let mut busy = BUSY.load(Ordering::Relaxed);
    loop {
        let take = want.min(host_threads().saturating_sub(busy));
        if take == 0 {
            return 0;
        }
        // ORDERING: as above.
        match BUSY.compare_exchange_weak(busy, busy + take, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(now) => busy = now,
        }
    }
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

fn part_count(len: usize, min_len: usize) -> usize {
    let threads = current_num_threads();
    if threads <= 1 || len <= min_len.max(1) {
        1
    } else {
        threads.min(len / min_len.max(1)).max(1)
    }
}

/// One part of a terminal: the index of its first item, and its items.
type Part<T> = (usize, Vec<T>);

/// Pass every `(base, items)` part to `job`: on this thread alone when the
/// budget has no core free, else shared with the workers it reserves.
fn run_parts<T: Send>(parts: Vec<Part<T>>, job: &(dyn Fn(usize, Vec<T>) + Sync)) {
    if parts.len() > 1 {
        let _hold = Hold::take();
        let helpers = reserve(parts.len() - 1);
        if helpers > 0 {
            return run_shared(parts, job, helpers);
        }
    }
    for (base, items) in parts {
        job(base, items);
    }
}

/// The parts of one terminal, claimable by index from any thread.
struct Parts<'a, T> {
    slots: Vec<Mutex<Option<Part<T>>>>,
    job: &'a (dyn Fn(usize, Vec<T>) + Sync),
}

/// A terminal's parts with their item type erased, as a worker sees them.
trait Task: Sync {
    fn run(&self, part: usize);
}

impl<T: Send> Task for Parts<'_, T> {
    fn run(&self, part: usize) {
        let taken = self.slots[part]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some((base, items)) = taken {
            (self.job)(base, items);
        }
    }
}

/// One published terminal.
struct Job {
    /// Borrowed from the publishing caller's stack (see `run_shared`).
    task: &'static dyn Task,
    parts: usize,
    /// The caller's width, in force while a worker runs a part.
    width: usize,
    /// Next unclaimed part.
    next: AtomicUsize,
    /// Reserved cores no worker has taken up yet.
    tickets: AtomicUsize,
    progress: Mutex<Progress>,
    changed: Condvar,
}

#[derive(Default)]
struct Progress {
    finished: usize,
    /// Workers that took a ticket and have left the job again.
    left: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    fn progress(&self) -> std::sync::MutexGuard<'_, Progress> {
        // No code that can panic runs under this lock.
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim and run parts until none is left; returns how many this
    /// thread ran. A part's panic is caught and kept for the caller.
    fn work(&self) -> usize {
        with_thread_override(self.width, || {
            let mut ran = 0;
            loop {
                // ORDERING: the RMW's atomicity alone hands each index to one
                // claimer; the part's items travel under its slot mutex and
                // its effects are published by the `progress` mutex.
                let part = self.next.fetch_add(1, Ordering::Relaxed);
                if part >= self.parts {
                    return ran;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| self.task.run(part)));
                ran += 1;
                let mut progress = self.progress();
                progress.finished += 1;
                if let Err(payload) = outcome {
                    progress.panic.get_or_insert(payload);
                }
                self.changed.notify_all();
            }
        })
    }

    /// Take one reserved core, if any is left: `(taken, none left now)`.
    fn take_ticket(&self) -> (bool, bool) {
        let taken = self
            .tickets
            // ORDERING: the RMW's atomicity alone hands each ticket to one
            // worker; the job itself was published under the queue mutex.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1));
        match taken {
            Ok(before) => (true, before == 1),
            Err(_) => (false, true),
        }
    }

    /// A worker is done with the job: give back its core.
    fn leave(&self) {
        release(1);
        self.progress().left += 1;
        self.changed.notify_all();
    }
}

/// Blocks, when dropped, until the job is over: the offer no worker took
/// up is withdrawn (and its cores returned), any part still unclaimed
/// runs here, and every part has finished and every worker that joined
/// has left. Being a drop guard, it does so on unwind too.
struct Join<'a> {
    job: &'a Job,
    offered: usize,
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        // ORDERING: atomicity alone decides, against `take_ticket`, which
        // tickets were taken; the count publishes no data.
        let withdrawn = self.job.tickets.swap(0, Ordering::Relaxed);
        release(withdrawn);
        let joined = self.offered - withdrawn;
        self.job.work();
        let mut progress = self.job.progress();
        while progress.finished < self.job.parts || progress.left < joined {
            progress = self
                .job
                .changed
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn run_shared<T: Send>(parts: Vec<Part<T>>, job: &(dyn Fn(usize, Vec<T>) + Sync), helpers: usize) {
    let count = parts.len();
    let owned = Parts {
        slots: parts.into_iter().map(|p| Mutex::new(Some(p))).collect(),
        job,
    };
    let task: &(dyn Task + '_) = &owned;
    // SAFETY: only the lifetime is changed. `task` borrows `owned` and the
    // caller's `job`, both alive until this function returns, and it is
    // reachable from other threads only through `shared.task`, which a
    // worker reads only to run a part it claimed from `shared.next`. `Join`
    // below — dropped before `owned`, on the normal path and on unwind
    // alike — returns only after every part has finished, no part is left
    // to claim, no ticket is left to take, and every worker that took one
    // has left the job. So no thread uses `task` after the borrow ends; a
    // worker may still drop its `Arc<Job>` later, which never reads it.
    let task: &'static dyn Task = unsafe { std::mem::transmute(task) };
    let shared = Arc::new(Job {
        task,
        parts: count,
        width: current_num_threads(),
        next: AtomicUsize::new(0),
        tickets: AtomicUsize::new(helpers),
        progress: Mutex::new(Progress::default()),
        changed: Condvar::new(),
    });
    let join = Join {
        job: &shared,
        offered: helpers,
    };
    pool().publish(&shared, helpers);
    let ran = shared.work();
    drop(join);
    HELPED.with(|h| h.set(h.get() + (count - ran)));
    let panic = shared.progress().panic.take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// The persistent workers' shared queue.
#[derive(Default)]
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
}

/// The process's pool, started on first use with `host_threads() − 1`
/// workers. They are never joined: like rayon's global pool they park
/// for the life of the process. A worker that fails to spawn only means
/// its reserved core is withdrawn and the caller runs the parts.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    let mut started = false;
    let pool = POOL.get_or_init(|| {
        started = true;
        Pool::default()
    });
    if started {
        for i in 0..host_threads().saturating_sub(1) {
            let _ = std::thread::Builder::new()
                .name(format!("hpmdr-exec-{i}"))
                .spawn(move || pool.serve());
        }
    }
    pool
}

impl Pool {
    fn publish(&self, job: &Arc<Job>, helpers: usize) {
        self.lock().push_back(Arc::clone(job));
        for _ in 0..helpers {
            self.wake.notify_one();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<Job>>> {
        // No code that can panic runs under this lock.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's life: take a ticket of the oldest job that has one,
    /// help it, give the core back, repeat.
    fn serve(&self) {
        // A worker runs code only on a core its ticket reserved.
        HOLDING.with(|h| h.set(true));
        loop {
            let job = {
                let mut queue = self.lock();
                loop {
                    let Some(front) = queue.front() else {
                        queue = self
                            .wake
                            .wait(queue)
                            .unwrap_or_else(PoisonError::into_inner);
                        continue;
                    };
                    let (taken, drained) = front.take_ticket();
                    let job = Arc::clone(front);
                    if drained {
                        queue.pop_front();
                    }
                    if taken {
                        break job;
                    }
                }
            };
            job.work();
            job.leave();
        }
    }
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

    /// Map each item through `f` (applied on the worker threads); each
    /// part's results are collected into a `Vec` before the terminal
    /// sees them.
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
            partials
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((base, acc));
        });
        let mut partials = partials
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        partials.sort_by_key(|&(base, _)| base);
        partials
            .into_iter()
            .map(|(_, acc)| acc)
            .fold(identity(), &op)
    }

    /// Sum all items, combining the parts' partial sums in index order.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let parts = part_count(self.length(), self.min_len_hint());
        let partials: Mutex<Vec<(usize, S)>> = Mutex::new(Vec::new());
        self.drive(parts, &|base, items| {
            let s: S = items.into_iter().sum();
            partials
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((base, s));
        });
        let mut partials = partials
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        partials.sort_by_key(|&(base, _)| base);
        partials.into_iter().map(|(_, s)| s).sum()
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

/// Parallel iterator over `start..end`; each part materializes its
/// indices as a `Vec<usize>`, so fan a per-element kernel over blocks.
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
                *out.lock().unwrap_or_else(PoisonError::into_inner) = items;
            });
            return out.into_inner().unwrap_or_else(PoisonError::into_inner);
        }
        let pieces: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
        iter.drive(parts, &|base, items| {
            pieces
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((base, items));
        });
        let mut pieces = pieces.into_inner().unwrap_or_else(PoisonError::into_inner);
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
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// The pool and the budget are process-wide: these tests fan and read
    /// the count, so they run one at a time.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Both parts of a two-part terminal meet at a barrier when the host
    /// has a second core, so one of them must run on a pool worker; the
    /// worker's part panics. The panic reaches the caller, every core is
    /// given back, and the pool serves the next terminal.
    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_serves_on() {
        let _serial = serial();
        let two_cores = host_threads() >= 2;
        let meet = Barrier::new(2);
        let caller = std::thread::current().id();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            install(2, || {
                assert_eq!(busy_threads(), 1);
                (0..2usize).into_par_iter().for_each(|_| {
                    if !two_cores {
                        panic!("part failed");
                    }
                    meet.wait();
                    let me = std::thread::current();
                    if me.id() != caller {
                        assert!(me.name().is_some_and(|n| n.starts_with("hpmdr-exec-")));
                        panic!("part failed");
                    }
                });
            })
        }));
        let payload = outcome.expect_err("the part's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"part failed"));
        assert_eq!(busy_threads(), 0, "after unwinding");

        let before = helped_parts();
        let v: Vec<usize> = install(2, || {
            (0..1000usize)
                .into_par_iter()
                .map(|i| {
                    if two_cores {
                        meet.wait();
                    }
                    i * 3
                })
                .with_min_len(500)
                .collect()
        });
        assert_eq!(v, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(helped_parts() - before, usize::from(two_cores));
        assert_eq!(busy_threads(), 0, "after normal completion");
    }

    /// The caller's own part panics while a pool worker is still inside a
    /// sibling part that then writes to the caller's stack. The terminal
    /// must not unwind past `run_shared`, which lends that stack to the
    /// worker, before the sibling has finished. On one core both parts
    /// run inline and the first one's panic ends the terminal.
    #[test]
    fn a_caller_panic_waits_for_the_workers_part() {
        let _serial = serial();
        let two_cores = host_threads() >= 2;
        let meet = Barrier::new(2);
        let caller = std::thread::current().id();
        let written = AtomicUsize::new(0);
        let before = helped_parts();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            install(2, || {
                (0..2usize).into_par_iter().for_each(|_| {
                    if std::thread::current().id() == caller {
                        if two_cores {
                            meet.wait(); // the worker is inside its part
                        }
                        panic!("caller part failed");
                    }
                    meet.wait();
                    // Time for the caller to leave the terminal, had
                    // nothing held it back.
                    std::thread::sleep(Duration::from_millis(100));
                    written.store(1, Ordering::SeqCst);
                });
            })
        }));
        let payload = outcome.expect_err("the caller's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller part failed"));
        let written = written.load(Ordering::SeqCst);
        assert_eq!(
            written,
            usize::from(two_cores),
            "the worker's part finished first"
        );
        assert_eq!(helped_parts() - before, usize::from(two_cores));
        assert_eq!(busy_threads(), 0, "after unwinding");
    }

    /// Thousands of terminals from one thread (each publishing to the
    /// pool when a core is free) and from eight at once (contending for
    /// the queue and the count) all finish: no wake-up is lost, no core
    /// leaks.
    #[test]
    fn concurrent_terminals_finish_in_bounded_time() {
        let _serial = serial();
        for threads in [1usize, 8] {
            let (done, finished) = mpsc::channel();
            std::thread::spawn(move || {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        s.spawn(move || {
                            for k in 0..1000u64 {
                                let sum: u64 = install(4, || {
                                    (0..64usize)
                                        .into_par_iter()
                                        .map(|i| i as u64 * k + t as u64)
                                        .sum()
                                });
                                assert_eq!(sum, 2016 * k + 64 * t as u64);
                            }
                        });
                    }
                });
                let _ = done.send(());
            });
            finished
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("{threads} threads x 1000 terminals hung"));
            assert_eq!(busy_threads(), 0);
        }
    }

    /// Three partial sums whose total depends on the order they are added
    /// in; the first part finishes last whenever a second core can run the
    /// others meanwhile.
    #[test]
    fn sum_combines_partials_in_index_order() {
        let _serial = serial();
        let terms = [1e16, -1e16, 1.0];
        let later_parts_done = AtomicUsize::new(0);
        let wait = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
        let total: f64 = install(3, || {
            (0..3usize)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        while wait && later_parts_done.load(Ordering::SeqCst) < 2 {
                            std::thread::yield_now();
                        }
                    } else {
                        later_parts_done.fetch_add(1, Ordering::SeqCst);
                    }
                    terms[i]
                })
                .sum()
        });
        assert_eq!(total, 1.0, "(1e16 - 1e16) + 1");
    }

    /// A terminal nested in a part runs inline on that part's thread when
    /// the parts hold every core; its caller's width stays in force.
    #[test]
    fn nested_terminals_run_inline_when_no_core_is_free() {
        let _serial = serial();
        let width = host_threads();
        let meet = Barrier::new(width);
        let fanned = AtomicBool::new(false);
        install(width, || {
            (0..width).into_par_iter().for_each(|_| {
                meet.wait(); // every core is now held by one part
                assert_eq!(current_num_threads(), width);
                assert_eq!(idle_threads(), 0);
                let me = std::thread::current().id();
                let ran_on: Vec<_> = (0..4 * width)
                    .into_par_iter()
                    .map(|_| std::thread::current().id())
                    .collect();
                if ran_on.iter().any(|&t| t != me) {
                    fanned.store(true, Ordering::SeqCst);
                }
                meet.wait(); // no part leaves before every part has looked
            });
        });
        assert!(!fanned.load(Ordering::SeqCst));
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let _serial = serial();
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 2);
        }
    }

    #[test]
    fn vec_into_par_iter_zip() {
        let _serial = serial();
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
        let _serial = serial();
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
        let _serial = serial();
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
    fn pool_install_limits_threads() {
        let _serial = serial();
        let caller = std::thread::current().id();
        install(1, || {
            assert_eq!(current_num_threads(), 1);
            let ran_on: Vec<_> = (0..64usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            assert_eq!(ran_on, vec![caller; 64]);
        });
    }

    #[test]
    fn par_chunks_mut_visits_disjoint_chunks_in_order() {
        let _serial = serial();
        let mut data = vec![0usize; 1000];
        install(4, || {
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
        let _serial = serial();
        let groups: Vec<Vec<u32>> = (0..8).map(|g| vec![g; 4]).collect();
        let lens: Vec<usize> = groups.par_iter().map(|g| g.len()).collect();
        assert_eq!(lens, vec![4; 8]);
    }
}
