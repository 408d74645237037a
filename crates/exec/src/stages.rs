//! Staged-pipeline scheduling for streaming ingest.
//!
//! Retrieval has no schedule of its own: a query's chunks fan out
//! through [`crate::Backend::map_batch`], each item fetching and
//! decoding one chunk. This module provides the *ingest* schedule: a
//! three-stage `produce → transform → consume` pipeline where the
//! producer and consumer run on dedicated threads and the transform
//! runs on the caller's thread (so it may fan work out through a
//! backend without nesting thread pools).
//!
//! The defining property is the **slot gate**: at most `slots` produced
//! items exist anywhere in the pipeline at once. The producer blocks
//! before reading item k+`slots` until the consumer has fully retired
//! item k, which is what turns "stream a dataset" into "hold a bounded
//! window of it". Callers translate `slots` into a memory bound:
//! peak staged bytes ≤ `slots` × max-item-footprint.
//!
//! Errors from any stage abort the pipeline: the first error wins, the
//! gate is released so no thread deadlocks, and both worker threads are
//! joined before the call returns.

use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// Weighted counting gate bounding how much claimed work is in flight.
///
/// The ingest pipeline claims one unit per staged item ([`acquire`] /
/// [`release`](Self::release) with weight 1, blocking while the gate is
/// full); a server admitting requests against a byte budget claims each
/// request's estimated size with the non-blocking
/// [`try_claim`](Self::try_claim) and *sheds* instead of blocking. Both
/// disciplines share this gate so "bounded in-flight work" has exactly
/// one implementation. [`abort`](Self::abort) wakes every waiter and
/// makes all further `acquire` calls fail, so an erroring stage can
/// never strand a producer on a full gate.
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

/// Run a three-stage overlapped pipeline.
///
/// * `produce` is called repeatedly on a dedicated thread; `None` ends
///   the stream. Each `Some` item first claims one of `slots` gate
///   slots, so at most `slots` items are staged pipeline-wide.
/// * `transform` runs on the calling thread. It receives batches of at
///   least one item — up to `max_batch` when the producer has run ahead
///   and the core budget has that many cores for the caller's fan — and
///   may fan each batch out across worker threads. Outputs are forwarded
///   to the consumer in production order.
/// * `consume` runs on a second dedicated thread; each retired item
///   releases one gate slot.
///
/// The first error from any stage cancels the other stages and is
/// returned; remaining in-flight items are dropped, not consumed.
pub fn run_overlapped<A, B, E, P, T, C>(
    slots: usize,
    max_batch: usize,
    mut produce: P,
    mut transform: T,
    mut consume: C,
) -> Result<(), E>
where
    A: Send,
    B: Send,
    E: Send,
    P: FnMut() -> Option<Result<A, E>> + Send,
    T: FnMut(Vec<A>) -> Result<Vec<B>, E>,
    C: FnMut(B) -> Result<(), E> + Send,
{
    let max_batch = max_batch.max(1);
    let gate = CountingGate::new(slots);
    let gate = &gate;

    // If the transform stage panics, this unwinds before the scope
    // joins its threads; aborting the gate unblocks a producer parked
    // on a full pipeline so the join can complete. On the normal path
    // it fires after both threads have already exited — a no-op.
    struct AbortOnDrop<'a>(&'a CountingGate);
    impl Drop for AbortOnDrop<'_> {
        fn drop(&mut self) {
            self.0.abort();
        }
    }

    std::thread::scope(|scope| {
        let _abort_guard = AbortOnDrop(gate);
        let (tx_a, rx_a) = mpsc::channel::<Result<A, E>>();
        let (tx_b, rx_b) = mpsc::channel::<B>();

        // Each stage thread counts against the core budget for its whole
        // loop (one thread wide; a backend's own `install` inside the
        // closure sets its kernels' width), so the transform's fans see
        // the cores the stages occupy.
        scope.spawn(move || {
            hpmdr_rt::install(1, || loop {
                if !gate.acquire() {
                    break; // pipeline aborted downstream
                }
                let Some(item) = produce() else {
                    gate.release();
                    break;
                };
                let failed = item.is_err();
                if tx_a.send(item).is_err() {
                    gate.release();
                    break; // transform stage gone
                }
                if failed {
                    break; // stop at the first source error
                }
            })
        });

        let writer = scope.spawn(move || -> Result<(), E> {
            hpmdr_rt::install(1, || {
                while let Ok(item) = rx_b.recv() {
                    if let Err(e) = consume(item) {
                        gate.abort();
                        return Err(e);
                    }
                    gate.release();
                }
                Ok(())
            })
        });

        // Transform stage on the caller's thread: drain whatever the
        // producer has staged so a backend fan sees several chunks per
        // dispatch when the producer runs ahead — up to `max_batch`, and
        // no more than the caller plus the cores the budget leaves free
        // can run at once (a batch nobody helps with only delays its
        // first output).
        let mut transform_err: Option<E> = None;
        'pump: loop {
            let first = match rx_a.recv() {
                Ok(Ok(a)) => a,
                Ok(Err(e)) => {
                    transform_err = Some(e);
                    break;
                }
                Err(_) => break, // producer finished
            };
            let width = max_batch.min(1 + hpmdr_rt::idle_threads());
            let mut batch = vec![first];
            while batch.len() < width {
                match rx_a.try_recv() {
                    Ok(Ok(a)) => batch.push(a),
                    Ok(Err(e)) => {
                        transform_err = Some(e);
                        break 'pump; // source failed; staged items are moot
                    }
                    Err(_) => break,
                }
            }
            match transform(batch) {
                Ok(outs) => {
                    for out in outs {
                        if tx_b.send(out).is_err() {
                            // Consumer died; its error is authoritative.
                            break 'pump;
                        }
                    }
                }
                Err(e) => {
                    transform_err = Some(e);
                    break;
                }
            }
        }
        if transform_err.is_some() {
            gate.abort(); // unblock a producer waiting on a full gate
        }
        drop(rx_a); // producer's next send fails -> it exits
        drop(tx_b); // consumer drains and exits

        // lint:allow(L3): join fails only if the writer panicked — a bug,
        // not an input condition; re-raising the panic is intended.
        let writer_result = writer.join().expect("ingest writer thread panicked");
        match transform_err {
            Some(e) => Err(e),
            None => writer_result,
        }
    })
}

/// Serial reference schedule: read up to `max_batch` items, transform
/// them as one batch, retire the outputs, repeat. Same stage contract
/// and error semantics as [`run_overlapped`] with zero threads — the
/// compute-then-write baseline, and the path that reproduces the
/// historical whole-input fan when `max_batch` covers the dataset.
pub fn run_serial<A, B, E, P, T, C>(
    max_batch: usize,
    mut produce: P,
    mut transform: T,
    mut consume: C,
) -> Result<(), E>
where
    P: FnMut() -> Option<Result<A, E>>,
    T: FnMut(Vec<A>) -> Result<Vec<B>, E>,
    C: FnMut(B) -> Result<(), E>,
{
    let max_batch = max_batch.max(1);
    let mut done = false;
    while !done {
        let mut batch = Vec::new();
        while batch.len() < max_batch {
            match produce() {
                Some(Ok(a)) => batch.push(a),
                Some(Err(e)) => return Err(e),
                None => {
                    done = true;
                    break;
                }
            }
        }
        if batch.is_empty() {
            break;
        }
        for out in transform(batch)? {
            consume(out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    #[test]
    fn overlapped_preserves_order_and_visits_everything() {
        let mut seen = Vec::new();
        run_overlapped(
            3,
            2,
            counting_producer(100),
            |batch: Vec<usize>| Ok(batch.into_iter().map(|x| x * 10).collect()),
            |out| {
                seen.push(out);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..100).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn in_flight_never_exceeds_slots() {
        const SLOTS: usize = 3;
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));

        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let (l, p) = (live.clone(), peak.clone());
        let mut next = 0usize;
        run_overlapped(
            SLOTS,
            1,
            move || {
                if next == 64 {
                    return None;
                }
                next += 1;
                let now = l.fetch_add(1, Ordering::SeqCst) + 1;
                p.fetch_max(now, Ordering::SeqCst);
                Some(Ok::<_, String>(Tracked(l.clone())))
            },
            Ok,
            |item| {
                std::thread::yield_now();
                drop(item);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(live.load(Ordering::SeqCst), 0);
        assert!(
            peak.load(Ordering::SeqCst) <= SLOTS,
            "peak in-flight {} exceeded {} slots",
            peak.load(Ordering::SeqCst),
            SLOTS
        );
    }

    #[test]
    fn producer_error_propagates() {
        let mut next = 0;
        let err = run_overlapped(
            2,
            1,
            move || {
                next += 1;
                if next == 5 {
                    Some(Err("source failed".to_string()))
                } else {
                    Some(Ok(next))
                }
            },
            |batch: Vec<i32>| Ok(batch),
            |_| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err, "source failed");
    }

    /// The producer closure may run real compute (the ingest pipeline
    /// transforms chunks there): a panic in it must come out of the
    /// call — through the scope's join — not strand the transform stage
    /// on a channel or the producer's claimed slot on the gate.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn producer_panic_propagates_and_does_not_hang_a_full_gate() {
        let mut next = 0;
        let _ = run_overlapped(
            2,
            1,
            move || {
                next += 1;
                assert!(next < 5, "producer died");
                Some(Ok::<_, String>(next))
            },
            |batch: Vec<i32>| Ok(batch),
            |_| Ok(()),
        );
    }

    #[test]
    fn transform_error_propagates() {
        let err = run_overlapped(
            2,
            1,
            counting_producer(1000),
            |batch: Vec<usize>| {
                if batch.contains(&7) {
                    Err("transform failed".to_string())
                } else {
                    Ok(batch)
                }
            },
            |_| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err, "transform failed");
    }

    #[test]
    fn consumer_error_propagates_and_does_not_hang_a_full_gate() {
        let err = run_overlapped(
            2,
            1,
            counting_producer(1000),
            |batch: Vec<usize>| Ok(batch),
            |out| {
                if out == 3 {
                    Err("writer failed".to_string())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, "writer failed");
    }

    #[test]
    fn serial_matches_overlapped_output() {
        let mut serial = Vec::new();
        run_serial(
            4,
            counting_producer(33),
            |batch: Vec<usize>| Ok::<_, String>(batch.into_iter().map(|x| x + 1).collect()),
            |out| {
                serial.push(out);
                Ok(())
            },
        )
        .unwrap();
        let mut overlapped = Vec::new();
        run_overlapped(
            4,
            4,
            counting_producer(33),
            |batch: Vec<usize>| Ok::<_, String>(batch.into_iter().map(|x| x + 1).collect()),
            |out| {
                overlapped.push(out);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(serial, overlapped);
        assert_eq!(serial.len(), 33);
    }

    #[test]
    fn serial_empty_stream_is_ok() {
        run_serial(8, || None::<Result<usize, String>>, Ok, |_| Ok(())).unwrap();
    }
}
