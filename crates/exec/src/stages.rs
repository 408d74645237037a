//! The ordered worker schedule of streaming ingest.
//!
//! Retrieval has no schedule of its own: a query's chunks fan out
//! through [`crate::Backend::map_batch`], each item fetching and
//! decoding one chunk. This module provides the *ingest* schedule,
//! [`run_ordered`]: every worker loop of one `map_batch` fan produces an
//! item (a chunk read, in order, under a lock), works it (the chunk's
//! whole refactor) and commits it (the shard append) in production order
//! through a reorder buffer. Every loop does every kind of work, so no
//! core waits on a stage that has nothing to do, and the core budget
//! decides how many loops run at once.
//!
//! The defining property is the **slot gate**: at most `slots` items
//! exist between their production and the end of their commit. A loop
//! blocks before producing item k+`slots` until item k has been
//! committed, which is what turns "stream a dataset" into "hold a
//! bounded window of it". Callers translate `slots` into a memory bound:
//! peak staged bytes ≤ `slots` × max-item-footprint.
//!
//! Errors from any closure abort the run: the first error wins, the gate
//! is aborted so no loop stays parked on it, and the call returns once
//! every loop has.

use crate::{Backend, ExecCtx};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Weighted counting gate bounding how much claimed work is in flight.
///
/// The ingest schedule claims one unit per staged item ([`acquire`] /
/// [`release`](Self::release) with weight 1, blocking while the gate is
/// full); a server admitting requests against a byte budget claims each
/// request's estimated size with the non-blocking
/// [`try_claim`](Self::try_claim) and *sheds* instead of blocking. Both
/// disciplines share this gate so "bounded in-flight work" has exactly
/// one implementation. [`abort`](Self::abort) wakes every waiter and
/// makes all further `acquire` calls fail, so a failing loop can
/// never strand another on a full gate.
///
/// [`acquire`]: Self::acquire
pub struct CountingGate {
    state: Mutex<GateState>,
    cv: Condvar,
    capacity: usize,
}

struct GateState {
    in_flight: usize,
    aborted: bool,
}

impl CountingGate {
    /// A gate admitting up to `capacity` units in flight (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        CountingGate {
            state: Mutex::new(GateState {
                in_flight: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Units currently claimed (a snapshot; may be stale by the time the
    /// caller acts on it).
    pub fn occupancy(&self) -> usize {
        // lint:allow(L3): lock-poisoning unwrap — a poisoned gate means a
        // worker already panicked; propagating that panic is the contract.
        self.state.lock().unwrap().in_flight
    }

    /// Claim one unit, blocking while the gate is full; returns `false`
    /// if the gate aborted instead.
    pub fn acquire(&self) -> bool {
        // lint:allow(L3): lock-poisoning unwrap, as `occupancy`.
        let mut st = self.state.lock().unwrap();
        while st.in_flight >= self.capacity && !st.aborted {
            // lint:allow(L3): Condvar::wait only errs on poison.
            st = self.cv.wait(st).unwrap();
        }
        if st.aborted {
            return false;
        }
        st.in_flight += 1;
        true
    }

    /// Claim `weight` units **without blocking**: `true` and the claim
    /// is recorded, or `false` when it would overflow the capacity (or
    /// the gate aborted) — the load-shedding primitive. A weight larger
    /// than the whole capacity is only admitted into an *empty* gate,
    /// so one oversized request cannot be starved forever.
    pub fn try_claim(&self, weight: usize) -> bool {
        // lint:allow(L3): lock-poisoning unwrap, as `occupancy`.
        let mut st = self.state.lock().unwrap();
        if st.aborted {
            return false;
        }
        let fits = st.in_flight.checked_add(weight).is_some_and(|total| {
            total <= self.capacity || (st.in_flight == 0 && weight > self.capacity)
        });
        if fits {
            st.in_flight += weight;
        }
        fits
    }

    /// Retire one unit.
    pub fn release(&self) {
        self.release_weight(1);
    }

    /// Retire `weight` units (the pair of a [`try_claim`](Self::try_claim)).
    pub fn release_weight(&self, weight: usize) {
        // lint:allow(L3): lock-poisoning unwrap, as `occupancy`.
        let mut st = self.state.lock().unwrap();
        st.in_flight = st.in_flight.saturating_sub(weight);
        self.cv.notify_all();
    }

    /// Wake every waiter and fail all further claims.
    pub fn abort(&self) {
        // lint:allow(L3): lock-poisoning unwrap, as `occupancy`.
        let mut st = self.state.lock().unwrap();
        st.aborted = true;
        self.cv.notify_all();
    }
}

/// Run `produce → work → commit` over a stream of items on a fan of
/// ordered worker loops.
///
/// [`Backend::map_batch`] starts one loop per backend thread, but no more
/// than `slots` (more loops could not work more items at once, only hold
/// more cores), and the core budget decides how many of them run at once.
/// Each loop claims a gate slot, calls `produce` under a lock (items are
/// produced one at a time and numbered in order, whichever loop asks),
/// runs `work` on its item unlocked, and hands the result to an in-order
/// reorder buffer. Whoever completes the oldest outstanding item commits
/// it and every ready successor, releasing one slot per commit. So
/// `commit` sees the results in production order, and at most `slots`
/// items are between `produce` and the end of their `commit`. When the
/// backend is one thread wide or no core is free, one loop on the caller
/// runs every item in turn: produce, work, commit, next.
///
/// `None` from `produce` ends the stream. The first error from any closure
/// is returned; items still in flight are dropped, not committed. A panic
/// in any closure aborts the gate, so no loop stays parked on it, and
/// comes out of the call.
pub fn run_ordered<Bk, A, B, E, P, W, C>(
    backend: &Bk,
    ctx: &ExecCtx,
    slots: usize,
    produce: P,
    work: W,
    commit: C,
) -> Result<(), E>
where
    Bk: Backend,
    A: Send,
    B: Send,
    E: Send,
    P: FnMut() -> Option<Result<A, E>> + Send,
    W: Fn(A) -> Result<B, E> + Sync,
    C: FnMut(B) -> Result<(), E> + Send,
{
    let run = Ordered {
        gate: CountingGate::new(slots),
        source: Mutex::new(Source {
            produce,
            produced: 0,
            ended: false,
        }),
        order: Mutex::new(Order {
            next: 0,
            ready: BTreeMap::new(),
            commit: Some(commit),
        }),
        failure: Mutex::new(None),
    };
    let loops: Vec<usize> = (0..backend.threads().min(slots).max(1)).collect();
    backend.map_batch(ctx, &loops, |_| run.worker(&work));
    let failure = lock(&run.failure).take();
    failure.map_or(Ok(()), Err)
}

/// The state one [`run_ordered`] call shares among its loops.
struct Ordered<P, B, C, E> {
    gate: CountingGate,
    source: Mutex<Source<P>>,
    order: Mutex<Order<B, C>>,
    failure: Mutex<Option<E>>,
}

/// The producer and how far it got.
struct Source<P> {
    produce: P,
    /// Items produced so far: the sequence number of the next one.
    produced: usize,
    /// `produce` returned `None` or an error: it is called no more.
    ended: bool,
}

/// The reorder buffer in front of `commit`.
struct Order<B, C> {
    /// Sequence number of the next item to commit.
    next: usize,
    /// Worked items waiting for a predecessor.
    ready: BTreeMap<usize, B>,
    /// The commit closure; `None` while a loop is committing with it.
    commit: Option<C>,
}

impl<A, B, C, E, P> Ordered<P, B, C, E>
where
    P: FnMut() -> Option<Result<A, E>>,
    C: FnMut(B) -> Result<(), E>,
{
    /// One worker loop: claim a slot, produce, work, retire, until the
    /// stream ends or the run fails.
    fn worker(&self, work: &impl Fn(A) -> Result<B, E>) {
        let _abort = AbortOnUnwind(&self.gate);
        while self.gate.acquire() {
            let Some((seq, item)) = self.next_item() else {
                self.gate.release();
                return;
            };
            if let Err(e) = work(item).and_then(|out| self.retire(seq, out)) {
                self.fail(e);
                return;
            }
        }
    }

    /// The next item and its sequence number, or `None` once the stream
    /// has ended (a failure of `produce` is recorded first).
    fn next_item(&self) -> Option<(usize, A)> {
        // A poisoned lock means `produce` panicked on another loop, which
        // ends the run.
        let mut source = self.source.lock().ok()?;
        if source.ended {
            return None;
        }
        match (source.produce)() {
            Some(Ok(item)) => {
                let seq = source.produced;
                source.produced += 1;
                Some((seq, item))
            }
            end => {
                source.ended = true;
                drop(source);
                if let Some(Err(e)) = end {
                    self.fail(e);
                }
                None
            }
        }
    }

    /// Hand item `seq`'s result to the reorder buffer. If no loop is
    /// committing, commit the run of ready items from the head on.
    fn retire(&self, seq: usize, out: B) -> Result<(), E> {
        let mut order = lock(&self.order);
        order.ready.insert(seq, out);
        // Another loop is committing; it finds this item if it is next.
        let Some(mut commit) = order.commit.take() else {
            return Ok(());
        };
        loop {
            let head = order.next;
            let Some(out) = order.ready.remove(&head) else {
                order.commit = Some(commit);
                return Ok(());
            };
            order.next += 1;
            drop(order);
            let committed = commit(out);
            self.gate.release();
            committed?;
            order = lock(&self.order);
        }
    }

    /// Record `e` unless an earlier failure was, and stop every loop.
    fn fail(&self, e: E) {
        lock(&self.failure).get_or_insert(e);
        self.gate.abort();
    }
}

/// Lock a mutex whose data every update leaves valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Aborts the gate when its loop unwinds, so a panic never leaves the
/// other loops parked on a full gate; the panic itself comes out of the
/// `map_batch` fan.
struct AbortOnUnwind<'a>(&'a CountingGate);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// One loop on the caller, and four loops at once.
    const WIDTHS: [usize; 2] = [1, 4];

    /// `CpuBackend`'s `map_batch` semantics without its core budget: one
    /// thread wide the items run in order on the caller, wider each runs
    /// on a thread of its own. The pool would run the loops of a wide run
    /// at once only on cores no other test of this binary holds, which
    /// leaves the interleavings below to chance.
    #[derive(Clone, Default)]
    struct Threads(usize);

    impl Backend for Threads {
        fn name(&self) -> &'static str {
            "threads"
        }

        fn threads(&self) -> usize {
            self.0.max(1)
        }

        fn install<R>(&self, f: impl FnOnce() -> R) -> R {
            f()
        }

        fn map_batch<T, R, F>(&self, _ctx: &ExecCtx, items: &[T], f: F) -> Vec<R>
        where
            T: Sync,
            R: Send,
            F: Fn(&T) -> R + Send + Sync,
        {
            if self.threads() == 1 {
                return items.iter().map(f).collect();
            }
            std::thread::scope(|s| {
                let f = &f;
                let handles: Vec<_> = items.iter().map(|t| s.spawn(move || f(t))).collect();
                let joined = handles.into_iter().map(|h| h.join());
                joined
                    .map(|r| r.unwrap_or_else(|p| resume_unwind(p)))
                    .collect()
            })
        }
    }

    fn run<A, B, E, P, W, C>(
        threads: usize,
        slots: usize,
        produce: P,
        work: W,
        commit: C,
    ) -> Result<(), E>
    where
        A: Send,
        B: Send,
        E: Send,
        P: FnMut() -> Option<Result<A, E>> + Send,
        W: Fn(A) -> Result<B, E> + Sync,
        C: FnMut(B) -> Result<(), E> + Send,
    {
        run_ordered(
            &Threads(threads),
            &ExecCtx::default(),
            slots,
            produce,
            work,
            commit,
        )
    }

    fn counting_producer(n: usize) -> impl FnMut() -> Option<Result<usize, String>> + Send {
        let mut next = 0;
        move || {
            if next == n {
                None
            } else {
                next += 1;
                Some(Ok(next - 1))
            }
        }
    }

    /// Uneven work, so loops finish items out of order.
    fn jitter(x: usize) {
        std::thread::sleep(Duration::from_micros(60 * (x * 7 % 5) as u64));
    }

    #[test]
    fn try_claim_sheds_at_capacity_and_releases_restore_it() {
        let gate = CountingGate::new(100);
        assert_eq!(gate.capacity(), 100);
        assert!(gate.try_claim(60));
        assert!(gate.try_claim(40));
        assert_eq!(gate.occupancy(), 100);
        assert!(!gate.try_claim(1), "full gate must shed");
        gate.release_weight(40);
        assert_eq!(gate.occupancy(), 60);
        assert!(gate.try_claim(40));
        gate.release_weight(100);
        assert_eq!(gate.occupancy(), 0);
    }

    #[test]
    fn oversized_claim_admits_only_into_an_empty_gate() {
        let gate = CountingGate::new(10);
        assert!(gate.try_claim(25), "empty gate admits an oversized claim");
        assert!(!gate.try_claim(1));
        gate.release_weight(25);
        assert!(gate.try_claim(1));
        assert!(!gate.try_claim(25), "non-empty gate sheds oversized claims");
    }

    #[test]
    fn aborted_gate_refuses_all_claims() {
        let gate = CountingGate::new(4);
        gate.abort();
        assert!(!gate.try_claim(1));
        assert!(!gate.acquire());
    }

    /// Every width commits the same results, in order, at every slot
    /// count: the one loop of a one-thread backend is the serial schedule
    /// the fan must match.
    #[test]
    fn overlapped_preserves_order_and_visits_everything() {
        for threads in WIDTHS {
            for slots in [1, 3, 8] {
                let mut seen = Vec::new();
                run(
                    threads,
                    slots,
                    counting_producer(100),
                    |x| {
                        jitter(x);
                        Ok(x * 10)
                    },
                    |out| {
                        seen.push(out);
                        Ok(())
                    },
                )
                .unwrap();
                let want: Vec<usize> = (0..100).map(|x| x * 10).collect();
                assert_eq!(seen, want, "{threads} threads, {slots} slots");
            }
        }
    }

    /// The serial schedule (one loop on the caller) and the four-wide fan
    /// commit the same outputs, in the same order.
    #[test]
    fn serial_matches_overlapped_output() {
        let outputs = |threads| {
            let mut seen = Vec::new();
            run(
                threads,
                4,
                counting_producer(33),
                |x| {
                    jitter(x);
                    Ok::<_, String>(x + 1)
                },
                |out| {
                    seen.push(out);
                    Ok(())
                },
            )
            .unwrap();
            seen
        };
        let serial = outputs(1);
        let overlapped = outputs(4);
        assert_eq!(serial, overlapped);
        assert_eq!(serial.len(), 33);
    }

    /// One thread wide, the one loop runs on the caller and finishes each
    /// item before producing the next: the serial schedule.
    #[test]
    fn one_loop_runs_each_item_to_its_commit_on_the_caller() {
        let caller = std::thread::current().id();
        let events = Mutex::new(Vec::new());
        let log = |e: String| {
            assert_eq!(std::thread::current().id(), caller);
            lock(&events).push(e);
        };
        let mut next = 0;
        run(
            1,
            4,
            || {
                log(format!("p{next}"));
                next += 1;
                (next <= 3).then_some(Ok::<_, String>(next - 1))
            },
            |x| {
                log(format!("w{x}"));
                Ok(x)
            },
            |x| {
                log(format!("c{x}"));
                Ok(())
            },
        )
        .unwrap();
        let want = ["p0", "w0", "c0", "p1", "w1", "c1", "p2", "w2", "c2", "p3"];
        assert_eq!(events.into_inner().unwrap(), want);
    }

    #[test]
    fn in_flight_never_exceeds_slots() {
        struct Tracked(Arc<AtomicUsize>, usize);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }

        for threads in WIDTHS {
            for slots in [1, 3] {
                let live = Arc::new(AtomicUsize::new(0));
                let peak = AtomicUsize::new(0);
                let mut next = 0usize;
                run(
                    threads,
                    slots,
                    || {
                        if next == 64 {
                            return None;
                        }
                        next += 1;
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        Some(Ok::<_, String>(Tracked(live.clone(), next)))
                    },
                    |item| {
                        jitter(item.1);
                        Ok(item)
                    },
                    drop_ok,
                )
                .unwrap();
                let (live, peak) = (live.load(Ordering::SeqCst), peak.into_inner());
                assert_eq!(live, 0);
                assert!(
                    (1..=slots).contains(&peak),
                    "{threads} threads: peak in flight {peak} for {slots} slots"
                );
            }
        }
    }

    fn drop_ok<T>(item: T) -> Result<(), String> {
        drop(item);
        Ok(())
    }

    #[test]
    fn producer_error_propagates() {
        for threads in WIDTHS {
            let mut next = 0;
            let err = run(
                threads,
                2,
                move || {
                    next += 1;
                    Some(if next == 5 {
                        Err("source failed".to_string())
                    } else {
                        Ok(next)
                    })
                },
                Ok,
                drop_ok,
            )
            .unwrap_err();
            assert_eq!(err, "source failed", "{threads} threads");
        }
    }

    #[test]
    fn transform_error_propagates() {
        for threads in WIDTHS {
            let err = run(
                threads,
                2,
                counting_producer(1000),
                |x| {
                    if x == 7 {
                        Err("work failed".to_string())
                    } else {
                        Ok(x)
                    }
                },
                drop_ok,
            )
            .unwrap_err();
            assert_eq!(err, "work failed", "{threads} threads");
        }
    }

    #[test]
    fn consumer_error_propagates_and_does_not_hang_a_full_gate() {
        for threads in WIDTHS {
            let err = run(threads, 2, counting_producer(1000), Ok, |out| {
                if out == 3 {
                    Err("writer failed".to_string())
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(err, "writer failed", "{threads} threads");
        }
    }

    /// Run with a panic in closure `at` (0 produce, 1 work, 2 commit) on
    /// item 5, two slots; `message` is the panic's.
    fn panicking_run(threads: usize, at: usize, message: &str) {
        let dies = |stage: usize, x: usize| assert!(stage != at || x != 5, "{message}");
        let mut next = 0;
        let _ = run(
            threads,
            2,
            || {
                dies(0, next);
                next += 1;
                Some(Ok::<_, String>(next - 1))
            },
            |x| {
                dies(1, x);
                jitter(x);
                Ok(x)
            },
            |x| {
                dies(2, x);
                Ok(())
            },
        );
    }

    /// The panic's message, as `assert!` formats it.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
    }

    /// A panic in `produce` comes out of the call — uncaught, from the
    /// four-wide fan — and no loop stays parked on the full gate (the test
    /// would hang). One thread wide it comes out too.
    #[test]
    #[should_panic(expected = "producer died")]
    fn producer_panic_propagates_and_does_not_hang_a_full_gate() {
        let one = catch_unwind(|| panicking_run(1, 0, "producer died")).unwrap_err();
        assert_eq!(panic_message(&*one), Some("producer died"));
        panicking_run(4, 0, "producer died");
    }

    /// As the producer's: a panic in `work` or `commit` comes out of the
    /// call with its own payload at every width, and hangs no loop.
    #[test]
    fn work_and_commit_panics_propagate_and_do_not_hang_a_full_gate() {
        for threads in WIDTHS {
            for (at, message) in [(1, "work died"), (2, "commit died")] {
                let payload = catch_unwind(|| panicking_run(threads, at, message)).unwrap_err();
                assert_eq!(panic_message(&*payload), Some(message), "{threads} threads");
            }
        }
    }

    #[test]
    fn serial_empty_stream_is_ok() {
        for threads in WIDTHS {
            run(threads, 8, || None::<Result<usize, String>>, Ok, drop_ok).unwrap();
        }
    }
}
