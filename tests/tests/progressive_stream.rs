//! [`ApproximationStream`] against the one-shot path: the Target × Scope
//! battery on two store flavors and both dtypes (frames tighten, bytes
//! accumulate, every frame honors its bound, the final frame *is*
//! [`SharedReader::retrieve`]); incremental decode shown by counting
//! `decode_unit_range` units; and the defined end of a stream whose
//! store fails mid-way.

use hpmdr_bitplane::BitplaneFloat;
use hpmdr_core::prelude::*;
use hpmdr_exec::{DecodeError, StreamView, UnitPlanes};
use hpmdr_lossless::HybridCompressor;
use hpmdr_mgard::Real;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

const SHAPE: [usize; 2] = [30, 22];
/// 4 × 3 chunks; the last row and column of chunks are clipped to 6.
const CHUNK: [usize; 2] = [8, 8];

fn field<F: Real>() -> Vec<F> {
    let mut v = Vec::with_capacity(SHAPE[0] * SHAPE[1]);
    for x in 0..SHAPE[0] {
        for y in 0..SHAPE[1] {
            v.push(F::from_f64(
                (x as f64 * 0.21).sin() * 3.0 + (y as f64 * 0.17).cos(),
            ));
        }
    }
    v
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_stream_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chunked_artifact<F: BitplaneFloat + Real + Default>(data: &[F]) -> Artifact {
    MdrConfig::new()
        .chunked(&CHUNK)
        .build()
        .refactor(data, &SHAPE)
        .unwrap()
}

/// Full domain, a region straddling chunk boundaries in both dimensions,
/// and a region inside the one chunk clipped in both dimensions.
fn scopes() -> Vec<(&'static str, Region)> {
    vec![
        ("full", Region::whole(&SHAPE)),
        ("straddling", Region::new(&[5, 6], &[14, 11])),
        ("clipped-chunk", Region::new(&[25, 17], &[4, 4])),
    ]
}

fn targets() -> Vec<(&'static str, Target)> {
    vec![
        ("abs", Target::AbsError(1e-4)),
        ("rel", Target::Rel(1e-5)),
        ("rmse", Target::Rmse(1e-4)),
        ("lossless", Target::Lossless),
    ]
}

/// The values of `data` inside `region`, row-major.
fn slice_region<F: Copy>(data: &[F], region: &Region) -> Vec<F> {
    let mut out = Vec::with_capacity(region.len());
    for x in region.start[0]..region.start[0] + region.extent[0] {
        let row = x * SHAPE[1] + region.start[1];
        out.extend_from_slice(&data[row..row + region.extent[1]]);
    }
    out
}

fn drain<F: BitplaneFloat + Real + Default, B: Backend>(
    mut stream: ApproximationStream<F, B>,
) -> Vec<RefinementFrame<F>> {
    let mut frames = Vec::new();
    while let Some(frame) = stream.refine_next().unwrap() {
        frames.push(frame);
    }
    assert!(stream.is_done());
    assert_eq!(stream.steps_emitted(), frames.len());
    assert!(stream.refine_next().unwrap().is_none());
    frames
}

fn assert_final_is_oneshot<F: PartialEq + std::fmt::Debug>(
    frames: &[RefinementFrame<F>],
    oneshot: &Approximation<F>,
    what: &str,
) {
    let (last, earlier) = frames.split_last().expect("at least one frame");
    assert!(last.is_final, "{what}");
    assert!(earlier.iter().all(|f| !f.is_final), "{what}");
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.step, i, "{what}");
    }
    assert_eq!(last.approximation.data, oneshot.data, "{what}");
    assert_eq!(last.approximation.shape, oneshot.shape, "{what}");
    assert_eq!(last.approximation.achieved, oneshot.achieved, "{what}");
    assert_eq!(last.approximation.exhausted, oneshot.exhausted, "{what}");
}

/// The whole battery for one dtype on one store.
fn run_battery<F: BitplaneFloat + Real + Default + std::fmt::Debug>(
    store: Arc<dyn Store>,
    data: &[F],
    flavor: &str,
) {
    let reader = SharedReader::new(store);
    let scale = data
        .iter()
        .map(|v| Real::to_f64(*v).abs())
        .fold(0.0, f64::max);
    // The bound models bitplane truncation; recompose rounding adds a few
    // ulps of the data scale (the allowance of `store_conformance`).
    let epsilon = if F::TYPE_NAME == "f32" {
        f64::from(f32::EPSILON)
    } else {
        f64::EPSILON
    };
    let rounding = scale * 16.0 * epsilon;
    let mut multi_frame = 0;
    for (tname, target) in targets() {
        for (sname, region) in scopes() {
            let what = format!("{flavor}/{}/{tname}/{sname}", F::TYPE_NAME);
            let query = if sname == "full" {
                Query::full(target.clone())
            } else {
                Query::region(target.clone(), region.clone())
            };
            let oneshot = reader.retrieve::<F>(&query).unwrap();
            let frames = drain(reader.stream::<F>(&query).unwrap());
            assert_final_is_oneshot(&frames, &oneshot, &what);
            multi_frame += usize::from(frames.len() > 1);

            for pair in frames.windows(2) {
                let (a, b) = (&pair[0].approximation, &pair[1].approximation);
                assert!(b.achieved <= a.achieved, "{what}: bound must tighten");
                assert!(
                    b.bytes_fetched >= a.bytes_fetched,
                    "{what}: bytes accumulate"
                );
            }
            let truth = slice_region(data, &region);
            for f in &frames {
                let a = &f.approximation;
                assert_eq!(a.shape, region.extent, "{what}");
                assert_eq!(a.data.len(), truth.len(), "{what}");
                if tname == "rmse" {
                    continue; // `achieved` is an RMSE estimate, not an L∞ bound
                }
                let err = truth
                    .iter()
                    .zip(&a.data)
                    .map(|(t, r)| (Real::to_f64(*t) - Real::to_f64(*r)).abs())
                    .fold(0.0, f64::max);
                assert!(
                    err <= a.achieved + rounding,
                    "{what} step {}: error {err} above achieved {}",
                    f.step,
                    a.achieved
                );
            }
        }
    }
    assert!(
        multi_frame >= 8,
        "{flavor}: the battery must exercise ladders"
    );
}

fn battery_on_both_stores<F: BitplaneFloat + Real + Default + std::fmt::Debug>() {
    let data = field::<F>();
    run_battery(
        Arc::new(InMemoryStore::from(chunked_artifact(&data))),
        &data,
        "memory",
    );

    let dir = scratch(F::TYPE_NAME);
    chunked_artifact(&data).write_store(&dir).unwrap();
    let cached = CachedStore::with_default_budget(open_store(&dir).unwrap());
    assert_eq!(cached.flavor(), "cached");
    run_battery(Arc::new(cached), &data, "cached-sharded");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn battery_f32_streams_end_at_the_oneshot_answer() {
    battery_on_both_stores::<f32>();
}

#[test]
fn battery_f64_streams_end_at_the_oneshot_answer() {
    battery_on_both_stores::<f64>();
}

#[test]
fn qoi_and_resolution_scopes_stream_exactly_one_final_frame() {
    let data = field::<f32>();
    let artifact = Mdr::with_defaults().refactor(&data, &SHAPE).unwrap();
    let reader = SharedReader::new(Arc::new(InMemoryStore::from(artifact)));
    let qoi = QoiExpr::Square(Box::new(QoiExpr::Var(0)));
    for query in [
        Query::full(Target::Qoi(qoi, 1e-3)),
        Query::resolution(Target::AbsError(1e-3), 1),
        Query::resolution(Target::Lossless, 2),
    ] {
        let oneshot = reader.retrieve::<f32>(&query).unwrap();
        let frames = drain(reader.stream::<f32>(&query).unwrap());
        assert_eq!(frames.len(), 1, "{query:?}");
        assert_final_is_oneshot(&frames, &oneshot, &format!("{query:?}"));
        assert_eq!(frames[0].approximation.bytes_fetched, oneshot.bytes_fetched);
    }
}

/// A one-thread [`CpuBackend`] recording every `decode_unit_range` call, keyed by
/// the address of the stream's unit table — stable and distinct per
/// (chunk, group) while the sessions decoding them are alive, which a
/// stream's are for all of its calls.
#[derive(Clone)]
struct CountingBackend {
    inner: CpuBackend,
    calls: Arc<Mutex<HashMap<usize, Vec<Range<usize>>>>>,
}

impl Default for CountingBackend {
    fn default() -> Self {
        CountingBackend {
            inner: CpuBackend::with_threads(1),
            calls: Default::default(),
        }
    }
}

impl CountingBackend {
    fn take(&self) -> HashMap<usize, Vec<Range<usize>>> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn threads(&self) -> usize {
        1
    }
    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.install(f)
    }
    fn decode_unit_range(
        &self,
        ctx: &ExecCtx,
        stream: StreamView<'_>,
        units: Range<usize>,
        compressor: &HybridCompressor,
    ) -> Result<UnitPlanes, DecodeError> {
        self.calls
            .lock()
            .unwrap()
            .entry(stream.units.as_ptr() as usize)
            .or_default()
            .push(units.clone());
        self.inner.decode_unit_range(ctx, stream, units, compressor)
    }
}

#[test]
fn a_stream_decompresses_each_unit_of_its_final_plan_exactly_once() {
    let data = field::<f32>();
    let store: Arc<dyn Store> = Arc::new(InMemoryStore::from(chunked_artifact(&data)));
    let backend = CountingBackend::default();
    let reader = SharedReader::with_backend(Arc::clone(&store), backend.clone());
    let region = Region::new(&[5, 6], &[14, 11]);
    let eb = 1e-4;
    let query = Query::region(Target::AbsError(eb), region.clone());

    let final_plan = RoiPlan::for_request(store.meta(), &RoiRequest::new(region, eb)).unwrap();
    let planned: usize = final_plan
        .chunks
        .iter()
        .map(|c| c.plan.units.iter().sum::<usize>())
        .sum();

    // One-shot: Σ units, and the bytes of exactly those units.
    let oneshot = reader.retrieve::<f32>(&query).unwrap();
    let decoded = |calls: &HashMap<usize, Vec<Range<usize>>>| -> usize {
        calls.values().flatten().map(|r| r.len()).sum()
    };
    assert_eq!(decoded(&backend.take()), planned);

    // Streamed: several frames, yet still Σ units — and per (chunk, group)
    // the decoded runs tile 0..applied without gap or overlap, so no unit
    // is decompressed twice however many frames follow its arrival.
    let frames = drain(reader.stream::<f32>(&query).unwrap());
    assert!(frames.len() >= 4, "{} frames", frames.len());
    let calls = backend.take();
    assert_eq!(decoded(&calls), planned);
    assert!(
        calls.values().any(|runs| runs.len() > 1),
        "some group must have been refined across frames"
    );
    for runs in calls.values() {
        let mut next = 0;
        for run in runs {
            assert_eq!(run.start, next, "runs must tile the prefix: {runs:?}");
            next = run.end;
        }
    }

    // The delta fetches were already incremental: on this uncached store
    // the stream paid exactly the one-shot's bytes.
    assert_final_is_oneshot(&frames, &oneshot, "counting");
    let last = &frames[frames.len() - 1].approximation;
    assert_eq!(last.bytes_fetched, oneshot.bytes_fetched);
}

/// A store whose `fail_at`-th `load_units` call (1-based) fails.
struct FailingStore {
    inner: InMemoryStore,
    calls: AtomicUsize,
    fail_at: usize,
}

impl Store for FailingStore {
    fn flavor(&self) -> &'static str {
        "failing"
    }
    fn meta(&self) -> &ChunkedRefactored {
        self.inner.meta()
    }
    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        if self.calls.fetch_add(1, SeqCst) + 1 == self.fail_at {
            return Err(MdrError::corrupt("injected store failure"));
        }
        self.inner.load_units(chunk, group, skip, take)
    }
    fn bytes_fetched(&self) -> usize {
        self.inner.bytes_fetched()
    }
    fn requests(&self) -> usize {
        self.inner.requests()
    }
    fn open(_: &std::path::Path) -> Result<Self, MdrError> {
        Err(MdrError::Unsupported("test-only store".to_string()))
    }
}

/// At one thread a frame's chunks fetch in order; at four they fan, so
/// the failing frame's other chunks still fetch. Either way the error
/// comes once, in the frame that hit it.
#[test]
fn a_failed_frame_ends_the_stream_with_its_error_once() {
    let data = field::<f32>();
    let query = Query::region(Target::AbsError(1e-4), Region::new(&[5, 6], &[14, 11]));
    for threads in [1, 4] {
        let open = |fail_at: usize| {
            let store = Arc::new(FailingStore {
                inner: InMemoryStore::from(chunked_artifact(&data)),
                calls: AtomicUsize::new(0),
                fail_at,
            });
            (
                SharedReader::with_backend(
                    Arc::clone(&store) as Arc<dyn Store>,
                    CpuBackend::with_threads(threads),
                ),
                store,
            )
        };

        // The intact run fixes the reference and how many fetches it takes.
        let (reader, store) = open(usize::MAX);
        let oneshot = reader.retrieve::<f32>(&query).unwrap();
        store.calls.store(0, SeqCst);
        let frames = drain(reader.stream::<f32>(&query).unwrap());
        assert_final_is_oneshot(&frames, &oneshot, "intact");
        let fetches = store.calls.load(SeqCst);
        assert!(fetches > frames.len(), "{fetches} fetches");

        // Fail in the first frame, mid-ladder, and on the very last fetch.
        for fail_at in [1, fetches / 2, fetches] {
            let case = format!("threads={threads} fail_at={fail_at}");
            let (reader, store) = open(fail_at);
            let mut stream = reader.stream::<f32>(&query).unwrap();
            let mut delivered = 0;
            let err = loop {
                match stream.refine_next() {
                    Ok(Some(frame)) => {
                        assert!(!frame.is_final, "{case}");
                        assert_eq!(
                            frame.approximation, frames[delivered].approximation,
                            "{case}: frames before the failure are unaffected"
                        );
                        delivered += 1;
                    }
                    Ok(None) => panic!("{case}: stream ended without its error"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(&err, MdrError::Corrupt(w) if w.contains("injected")),
                "{case}: {err}"
            );
            assert!(stream.is_done(), "{case}");
            assert_eq!(stream.steps_emitted(), delivered, "{case}");
            // The error is reported once; the stream stays ended and issues
            // no further fetches.
            let calls = store.calls.load(SeqCst);
            for _ in 0..3 {
                assert!(stream.refine_next().unwrap().is_none(), "{case}");
            }
            assert_eq!(store.calls.load(SeqCst), calls, "{case}");
        }

        // Nothing leaked out of the failed streams: a fresh one is exact.
        let (reader, _) = open(usize::MAX);
        let again = drain(reader.stream::<f32>(&query).unwrap());
        assert_final_is_oneshot(&again, &oneshot, "fresh after failures");
    }
}
