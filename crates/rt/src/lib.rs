//! The runtime under every kernel: one persistent worker pool, one
//! process-wide core budget, and the two block fans that run over them.
//!
//! [`map_blocks`] runs a closure once per part of an index space `0..n`,
//! handing it the part's range; [`map_blocks_mut`] does the same over the
//! blocks of a mutable slice, handing each part its whole blocks. Both
//! return the parts' results in part order, and [`install`] scopes the
//! calling thread's width (that is how a one-thread backend pins its
//! kernels to one thread).
//!
//! Execution model: a fan cuts its `n` indices into at most
//! `current_num_threads()` contiguous, balanced parts of at least `min`
//! indices each. The cut depends only on `n`, `min` and the calling
//! thread's width, never on how many threads end up running it, so a
//! caller that folds the results in part order gets the same answer
//! however the parts are scheduled. The caller then offers the parts to
//! as many pool workers as the core budget leaves free, claims parts
//! itself from the same shared index (so it never waits on a part nobody
//! has started), and returns once every part has finished, re-raising a
//! part's panic. With one part or no free core the parts simply run
//! inline in order.
//!
//! **The pool.** `host_threads() − 1` workers, named `hpmdr-exec-{i}`
//! (the pool is the engine of the workspace's executor layer), started
//! on the first fan that has a part to offer and parked on one queue +
//! condvar for the rest of the process. A one-core host starts none.
//!
//! **The core budget.** One count per process of the threads occupying a
//! core: a thread counts from its outermost [`install`] until that
//! returns (a fan run outside any `install` counts its caller for the
//! fan's duration), and a worker counts while it helps a fan. A fan
//! offers parts only to the cores the count leaves free, so threads that
//! already fill the machine — concurrent clients, say — fan nothing, and
//! a fan nested inside a part runs inline once its siblings hold every
//! core.
//!
//! **A part is a range, not a list of items.** Nothing per index is
//! materialized: the closure loops over its part's indices (or elements)
//! itself, and the fan stays generic down to that loop. The closure's
//! type is erased only where a pool worker runs a part, once per part, so
//! how one kernel's part loop compiles never depends on another caller's
//! fan.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

thread_local! {
    /// 0 = no override (use the host parallelism).
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread already counts against the core budget (inside
    /// an `install` or a fan, or a pool worker).
    static HOLDING: Cell<bool> = const { Cell::new(false) };
    /// Parts of this thread's fans that pool workers ran.
    static HELPED: Cell<usize> = const { Cell::new(0) };
}

/// Cores of the budget in use: holding threads plus cores reserved for
/// (or occupied by) workers helping a fan.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads fans may use on this thread.
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

/// Parts of fans started on this thread that pool workers ran, since the
/// thread started.
pub fn helped_parts() -> usize {
    HELPED.with(Cell::get)
}

/// Run `f` with a width of `threads` for the fans it starts on this
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
    // ORDERING: the count publishes no data (jobs travel through the
    // queue mutex, results through their slot mutexes); the CAS alone
    // keeps two fans from reserving the same free core.
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

/// Run `f` once per part of `0..n` and return its results in part order.
///
/// The parts are at most the calling thread's width, hold at least `min`
/// indices each (one part when `n ≤ min`), and are contiguous and
/// balanced: the first `n % parts` take one index more. `n = 0` runs no
/// part.
pub fn map_blocks<R, F>(n: usize, min: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let parts = part_count(n, min);
    fan(parts, &|p| f(part_range(n, parts, p)))
}

/// Run `f(first_block, part)` once per part of `data` and return its
/// results in part order.
///
/// `data` is cut into `block`-element blocks (the last may be shorter; a
/// `block` of 0 counts as 1), and the block indices into parts as
/// [`map_blocks`] cuts `0..n`: each part is handed its whole blocks,
/// starting with block `first_block`.
pub fn map_blocks_mut<T, R, F>(data: &mut [T], block: usize, min: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let block = block.max(1);
    let n = data.len().div_ceil(block);
    let parts = part_count(n, min);
    let mut rest = data;
    let mut slots = Vec::with_capacity(parts);
    for p in 0..parts {
        let len = (part_range(n, parts, p).len() * block).min(rest.len());
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        slots.push(Mutex::new(part));
        rest = tail;
    }
    fan(parts, &|p| {
        let part = std::mem::take(&mut *slots[p].lock().unwrap_or_else(PoisonError::into_inner));
        f(part_range(n, parts, p).start, part)
    })
}

/// Parts a fan over `n` indices of at least `min` each is cut into.
fn part_count(n: usize, min: usize) -> usize {
    if n == 0 {
        0
    } else {
        current_num_threads().min(n / min.max(1)).max(1)
    }
}

/// Part `p` of the balanced cut of `0..n` into `parts` parts.
fn part_range(n: usize, parts: usize, p: usize) -> Range<usize> {
    let (base, extra) = (n / parts, n % parts);
    let start = p * base + p.min(extra);
    start..start + base + usize::from(p < extra)
}

/// Run `f(part)` for every part `0..parts` and return the results in part
/// order: on this thread alone when there is one part or the budget has
/// no core free, else shared with the workers it reserves.
fn fan<R: Send, F: Fn(usize) -> R + Sync>(parts: usize, f: &F) -> Vec<R> {
    if parts > 1 {
        let _hold = Hold::take();
        let helpers = reserve(parts - 1);
        if helpers > 0 {
            return run_shared(parts, f, helpers);
        }
    }
    (0..parts).map(f).collect()
}

/// One fan's parts: its closure and a slot for each part's result.
struct Parts<'a, R, F> {
    f: &'a F,
    results: Vec<Mutex<Option<R>>>,
}

/// A fan's parts with their types erased, as a worker sees them.
trait Task: Sync {
    fn run(&self, part: usize);
}

impl<R: Send, F: Fn(usize) -> R + Sync> Task for Parts<'_, R, F> {
    fn run(&self, part: usize) {
        let result = (self.f)(part);
        *self.results[part]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(result);
    }
}

/// One published fan.
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
                // claimer; the part's result travels under its slot mutex and
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

fn run_shared<R: Send, F: Fn(usize) -> R + Sync>(parts: usize, f: &F, helpers: usize) -> Vec<R> {
    let owned = Parts {
        f,
        results: (0..parts).map(|_| Mutex::new(None)).collect(),
    };
    let task: &(dyn Task + '_) = &owned;
    // SAFETY: only the lifetime is changed. `task` borrows `owned` and the
    // caller's `f`, both alive until this function returns, and it is
    // reachable from other threads only through `shared.task`, which a
    // worker reads only to run a part it claimed from `shared.next`. `Join`
    // below — dropped before `owned` is read again or dropped, on the
    // normal path and on unwind alike — returns only after every part has
    // finished, no part is left to claim, no ticket is left to take, and
    // every worker that took one has left the job. So no thread uses
    // `task` after the borrow ends; a worker may still drop its
    // `Arc<Job>` later, which never reads it.
    let task: &'static dyn Task = unsafe { std::mem::transmute(task) };
    let shared = Arc::new(Job {
        task,
        parts,
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
    HELPED.with(|h| h.set(h.get() + (parts - ran)));
    let panic = shared.progress().panic.take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    // No part panicked, so every part stored its result.
    owned
        .results
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
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

#[cfg(test)]
mod tests {
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

    /// Both parts of a two-part fan meet at a barrier when the host has a
    /// second core, so one of them must run on a pool worker; the worker's
    /// part panics. For the range and the slice fan alike, the panic
    /// reaches the caller, every core is given back, and the pool serves
    /// the next fan.
    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_serves_on() {
        let _serial = serial();
        let two_cores = host_threads() >= 2;
        let meet = Barrier::new(2);
        let caller = std::thread::current().id();
        let part = || {
            if !two_cores {
                panic!("part failed");
            }
            meet.wait();
            let me = std::thread::current();
            if me.id() != caller {
                assert!(me.name().is_some_and(|n| n.starts_with("hpmdr-exec-")));
                panic!("part failed");
            }
        };
        let mut data = [0u8; 2];
        let forms: [&dyn Fn(); 2] = [
            &|| {
                map_blocks(2, 1, |_| part());
            },
            &|| {
                map_blocks_mut(&mut [0u8; 2], 1, 1, |_, _| part());
            },
        ];
        for form in forms {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                install(2, || {
                    assert_eq!(busy_threads(), 1);
                    form();
                })
            }));
            let payload = outcome.expect_err("the part's panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"part failed"));
            assert_eq!(busy_threads(), 0, "after unwinding");
        }

        let before = helped_parts();
        let v = install(2, || {
            map_blocks_mut(&mut data, 1, 1, |first, part| {
                if two_cores {
                    meet.wait();
                }
                part[0] = 3 * first as u8;
                first
            })
        });
        assert_eq!((v, data), (vec![0, 1], [0, 3]));
        assert_eq!(helped_parts() - before, usize::from(two_cores));
        assert_eq!(busy_threads(), 0, "after normal completion");
    }

    /// The caller's own part panics while a pool worker is still inside a
    /// sibling part that then writes to the caller's stack. The fan must
    /// not unwind past `run_shared`, which lends that stack to the
    /// worker, before the sibling has finished. On one core both parts
    /// run inline and the first one's panic ends the fan.
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
                map_blocks(2, 1, |_| {
                    if std::thread::current().id() == caller {
                        if two_cores {
                            meet.wait(); // the worker is inside its part
                        }
                        panic!("caller part failed");
                    }
                    meet.wait();
                    // Time for the caller to leave the fan, had nothing
                    // held it back.
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

    /// Thousands of fans from one thread (each publishing to the pool
    /// when a core is free) and from eight at once (contending for the
    /// queue and the count) all finish: no wake-up is lost, no core
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
                                let sums = install(4, || {
                                    map_blocks(64, 1, |r| {
                                        r.map(|i| i as u64 * k + t as u64).sum::<u64>()
                                    })
                                });
                                assert_eq!(sums.iter().sum::<u64>(), 2016 * k + 64 * t as u64);
                            }
                        });
                    }
                });
                let _ = done.send(());
            });
            finished
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("{threads} threads x 1000 fans hung"));
            assert_eq!(busy_threads(), 0);
        }
    }

    /// Three partial sums whose total depends on the order they are added
    /// in; the first part finishes last whenever a second core can run the
    /// others meanwhile, and the results still come back in part order.
    #[test]
    fn sum_combines_partials_in_index_order() {
        let _serial = serial();
        let terms = [1e16, -1e16, 1.0];
        let later_parts_done = AtomicUsize::new(0);
        let wait = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
        let partials = install(3, || {
            map_blocks(3, 1, |r| {
                if r.start == 0 {
                    while wait && later_parts_done.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                } else {
                    later_parts_done.fetch_add(1, Ordering::SeqCst);
                }
                terms[r].iter().sum::<f64>()
            })
        });
        assert_eq!(partials, terms);
        assert_eq!(partials.iter().sum::<f64>(), 1.0, "(1e16 - 1e16) + 1");
    }

    /// A fan nested in a part runs inline on that part's thread when the
    /// parts hold every core; its caller's width stays in force.
    #[test]
    fn nested_terminals_run_inline_when_no_core_is_free() {
        let _serial = serial();
        let width = host_threads();
        let meet = Barrier::new(width);
        let fanned = AtomicBool::new(false);
        install(width, || {
            map_blocks(width, 1, |_| {
                meet.wait(); // every core is now held by one part
                assert_eq!(current_num_threads(), width);
                assert_eq!(busy_threads(), host_threads());
                let me = std::thread::current().id();
                let ran_on = map_blocks(4 * width, 1, |_| std::thread::current().id());
                if ran_on.iter().any(|&t| t != me) {
                    fanned.store(true, Ordering::SeqCst);
                }
                meet.wait(); // no part leaves before every part has looked
            });
        });
        assert!(!fanned.load(Ordering::SeqCst));
    }

    /// The cut at its edges: no index runs no part, a zero block counts
    /// as one element, and a floor above the length leaves one part.
    #[test]
    fn the_cut_at_its_edges() {
        let _serial = serial();
        install(4, || {
            let ran = AtomicUsize::new(0);
            let count = || ran.fetch_add(1, Ordering::SeqCst);
            assert!(map_blocks(0, 1, |_| count()).is_empty());
            assert!(map_blocks_mut(&mut [0u8; 0], 8, 1, |_, _| count()).is_empty());
            assert_eq!(ran.load(Ordering::SeqCst), 0, "an empty fan runs no part");

            let mut data = [0usize; 6];
            let firsts = map_blocks_mut(&mut data, 0, 4, |first, part| {
                let len = part.len();
                part.iter_mut().for_each(|x| *x = first + len);
                first
            });
            assert_eq!(
                (firsts, data),
                (vec![0], [6; 6]),
                "one-element blocks, one part"
            );

            assert_eq!(map_blocks(10, 11, |r| r), vec![0..10]);
        });
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let _serial = serial();
        let parts = map_blocks(10_000, 1, |r| r.map(|i| i * 2).collect::<Vec<_>>());
        let v = parts.concat();
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 2);
        }
    }

    /// A slice transformed in place with a shared input read at the same
    /// indices (the two-sided elementwise map of a field generator).
    #[test]
    fn map_blocks_mut_reads_a_shared_input_at_its_indices() {
        let _serial = serial();
        let mut a: Vec<i32> = (0..500).collect();
        let b: Vec<i32> = (0..500).map(|x| x * 10).collect();
        install(4, || {
            map_blocks_mut(&mut a, 1, 1, |first, part| {
                let b = &b[first..first + part.len()];
                part.iter_mut().zip(b).for_each(|(x, y)| *x += y);
            })
        });
        assert_eq!(a[3], 33);
        assert_eq!(a[499], 499 * 11);
    }

    #[test]
    fn block_histograms_fold_to_the_serial_count() {
        let _serial = serial();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let parts = map_blocks(data.len().div_ceil(1000), 1, |r| {
            let mut h = [0u64; 256];
            for &b in &data[r.start * 1000..(r.end * 1000).min(data.len())] {
                h[b as usize] += 1;
            }
            h
        });
        let hist = parts.iter().fold([0u64; 256], |mut a, b| {
            a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
            a
        });
        assert_eq!(hist.iter().sum::<u64>(), 10_000);
        assert_eq!(hist[7], data.iter().filter(|&&b| b == 7).count() as u64);
    }

    #[test]
    fn sum_and_enumerate() {
        let _serial = serial();
        let s: u64 = map_blocks(1000, 1, |r| r.map(|i| i as u64).sum::<u64>())
            .iter()
            .sum();
        assert_eq!(s, 499_500);
        let mut letters = ['a', 'b', 'c'];
        let v = map_blocks_mut(&mut letters, 1, 1, |first, part| {
            let items = part.iter().enumerate();
            items.map(|(k, &c)| (first + k, c)).collect::<Vec<_>>()
        });
        assert_eq!(v.concat(), vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn pool_install_limits_threads() {
        let _serial = serial();
        let caller = std::thread::current().id();
        install(1, || {
            assert_eq!(current_num_threads(), 1);
            let ran_on = map_blocks(64, 1, |r| (r, std::thread::current().id()));
            assert_eq!(ran_on, vec![(0..64, caller)]);
        });
    }

    /// Each part gets whole blocks, the last one possibly short, and
    /// `first_block` names the first of them.
    #[test]
    fn map_blocks_mut_hands_each_part_its_whole_blocks() {
        let _serial = serial();
        let mut data = vec![0usize; 1000];
        let lens = install(4, || {
            map_blocks_mut(&mut data, 64, 1, |first, part| {
                for (b, block) in part.chunks_mut(64).enumerate() {
                    block.iter_mut().for_each(|x| *x = first + b);
                }
                part.len()
            })
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i / 64);
        }
        // 16 blocks over four parts: four blocks each, 40 elements short.
        assert_eq!(lens, [256, 256, 256, 232]);
    }

    #[test]
    fn map_blocks_over_a_slice_of_vecs() {
        let _serial = serial();
        let groups: Vec<Vec<u32>> = (0..8).map(|g| vec![g; 4]).collect();
        let lens = map_blocks(groups.len(), 1, |r| {
            groups[r].iter().map(Vec::len).collect::<Vec<_>>()
        });
        assert_eq!(lens.concat(), vec![4; 8]);
    }
}
