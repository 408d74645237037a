//! The process-wide core budget and the persistent pool, seen through
//! the façade: a fan takes only the cores no other thread holds, a fan
//! nested in a batch item runs inline once the items fill the machine,
//! a reader's backend runs all of its query — QoI loop included — a
//! lone stream's frame fans its chunks onto a free core, a lone ingest
//! reads and refactors on every free core, and no schedule changes a
//! byte of any answer or of any stored file.

use hpmdr_core::prelude::*;
use hpmdr_core::roi::Region;
use hpmdr_exec::{DecodeError, StreamView, UnitPlanes};
use hpmdr_lossless::HybridCompressor;
use hpmdr_rt::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// These tests hold or read the process's one budget: one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threads that each hold one core of the budget until dropped.
struct Hog {
    release: Arc<Barrier>,
    threads: Vec<JoinHandle<()>>,
}

fn hog(cores: usize) -> Hog {
    let release = Arc::new(Barrier::new(cores + 1));
    let (ready, holding) = mpsc::channel();
    let threads = (0..cores)
        .map(|_| {
            let (release, ready) = (Arc::clone(&release), ready.clone());
            thread::spawn(move || {
                hpmdr_rt::install(1, || {
                    ready.send(()).unwrap();
                    release.wait();
                })
            })
        })
        .collect();
    for _ in 0..cores {
        holding.recv().unwrap();
    }
    Hog { release, threads }
}

impl Drop for Hog {
    fn drop(&mut self) {
        self.release.wait();
        for t in self.threads.drain(..) {
            t.join().unwrap();
        }
    }
}

fn field(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (i as f32 * 0.05).sin() * 4.0 + (s as f32 / u32::MAX as f32 - 0.5)
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_budget_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

/// Two batch items meet at a barrier, so with a second core free (every
/// other core held by a hog) one runs on a pool worker; both then see no
/// idle core, and the fan each starts runs wholly on its own thread.
#[test]
fn nested_fans_inside_batch_items_run_inline_when_no_core_is_free() {
    let _serial = serial();
    let host = hpmdr_rt::host_threads();
    let _hog = hog(host.saturating_sub(2));
    let backend = CpuBackend::with_threads(2);
    let meet = Barrier::new(host.min(2));
    let seen = backend.map_batch(&ExecCtx::default(), &[0usize, 1], |_| {
        meet.wait();
        let me = thread::current().id();
        let idle = hpmdr_rt::idle_threads();
        let ran_on: Vec<_> = backend.install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|_| thread::current().id())
                .collect()
        });
        meet.wait();
        (idle, ran_on.iter().all(|&t| t == me))
    });
    for (idle, inline) in seen {
        assert_eq!(idle, 0, "the items hold every core");
        assert!(inline, "a nested fan left its item's thread");
    }
}

/// Retrieve (full domain, region, resolution), a stream, and ingest give
/// the one-thread backend's exact bytes at every width, whether the fans find
/// cores free or a hog holds them all — and leave no core counted.
#[test]
fn answers_and_stores_are_identical_with_and_without_a_hog_at_any_width() {
    let _serial = serial();
    let shape = [24usize, 20, 18];
    let data = field(shape.iter().product(), 7);
    let cfg = MdrConfig::new().chunked(&[8, 8, 8]);
    let chunked = InMemoryStore::from(
        cfg.clone()
            .build_with(CpuBackend::with_threads(1))
            .refactor(&data, &shape)
            .unwrap(),
    );
    let mono = InMemoryStore::from(
        MdrConfig::new()
            .build_with(CpuBackend::with_threads(1))
            .refactor(&data, &shape)
            .unwrap(),
    );
    let region = Region::new(&[3, 5, 2], &[17, 9, 14]);
    let queries = [
        (&chunked, Query::full(Target::Rel(1e-2))),
        (&chunked, Query::full(Target::Rel(1e-5))),
        (&chunked, Query::region(Target::AbsError(1e-3), region)),
        (&mono, Query::full(Target::Rmse(1e-4))),
        (&mono, Query::resolution(Target::AbsError(1e-2), 1)),
    ];
    let want: Vec<_> = queries
        .iter()
        .map(|(store, q)| {
            Reader::with_backend(*store, CpuBackend::with_threads(1))
                .retrieve::<f32>(q)
                .unwrap()
        })
        .collect();
    let shared = SharedReader::with_backend(Arc::new(chunked.clone()), CpuBackend::with_threads(1));
    let want_frames: Vec<Vec<u32>> = frames(shared.stream::<f32>(&queries[1].1).unwrap());
    let want_dir = tmp("scalar");
    cfg.clone()
        .build_with(CpuBackend::with_threads(1))
        .ingest(SliceSource::new(&data, &shape).unwrap(), &want_dir)
        .unwrap();
    let want_store = store_files(&want_dir);

    for threads in [1, 2, 4] {
        for hogged in [false, true] {
            let _hog = hogged.then(|| hog(hpmdr_rt::host_threads()));
            let backend = CpuBackend::with_threads(threads);
            let case = format!("threads={threads} hog={hogged}");
            for ((store, q), want) in queries.iter().zip(&want) {
                let got = Reader::with_backend(*store, backend)
                    .retrieve::<f32>(q)
                    .unwrap();
                assert_eq!(bits(&got.data), bits(&want.data), "{case} {q:?}");
                assert_eq!(got.shape, want.shape, "{case} {q:?}");
                assert_eq!(got.achieved.to_bits(), want.achieved.to_bits(), "{case}");
                assert_eq!(got.exhausted, want.exhausted, "{case}");
            }
            let shared = SharedReader::with_backend(Arc::new(chunked.clone()), backend);
            let got_frames = frames(shared.stream::<f32>(&queries[1].1).unwrap());
            assert_eq!(got_frames, want_frames, "{case} stream");

            let dir = tmp(&format!("t{threads}_h{hogged}"));
            cfg.clone()
                .build_with(backend)
                .ingest(SliceSource::new(&data, &shape).unwrap(), &dir)
                .unwrap();
            assert!(
                store_files(&dir) == want_store,
                "{case}: ingested store differs"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            hpmdr_rt::busy_threads(),
            0,
            "threads={threads}: a core stayed counted"
        );
    }
    let _ = std::fs::remove_dir_all(&want_dir);
}

fn frames(mut stream: ApproximationStream<f32, impl Backend>) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    while let Some(frame) = stream.refine_next().unwrap() {
        out.push(bits(&frame.approximation.data));
    }
    out
}

/// Counts `install`s, then runs the kernels one thread wide.
#[derive(Clone, Default)]
struct Counting {
    installs: Arc<AtomicUsize>,
}

impl Backend for Counting {
    fn name(&self) -> &'static str {
        "counting-one-thread"
    }

    fn threads(&self) -> usize {
        1
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        self.installs.fetch_add(1, Ordering::SeqCst);
        CpuBackend::with_threads(1).install(f)
    }
}

/// A QoI query is Algorithm 3's whole loop — refinement, recomposition
/// and a domain-wide estimator scan per iteration — and all of it runs on
/// the reader's backend: through a one-thread-wide reader, no part of any
/// fan runs off the caller's thread, even with every other core idle.
#[test]
fn a_qoi_query_runs_on_the_readers_backend_and_thread() {
    let _serial = serial();
    let shape = [96usize, 96]; // enough points for the estimator to split
    let data = field(shape.iter().product(), 3);
    let store = InMemoryStore::from(Mdr::with_defaults().refactor(&data, &shape).unwrap());
    let query = Query::full(Target::Qoi(
        QoiExpr::Square(Box::new(QoiExpr::Var(0))),
        1e-3,
    ));

    let backend = Counting::default();
    let helped = hpmdr_rt::helped_parts();
    let scalar = Reader::with_backend(&store, backend.clone())
        .retrieve::<f32>(&query)
        .unwrap();
    assert_eq!(
        hpmdr_rt::helped_parts(),
        helped,
        "a part ran off the caller"
    );
    assert!(
        backend.installs.load(Ordering::SeqCst) > 0,
        "the QoI loop bypassed the reader's backend"
    );

    let parallel = Reader::new(&store).retrieve::<f32>(&query).unwrap();
    assert_eq!(bits(&parallel.data), bits(&scalar.data));
    assert_eq!(parallel.achieved.to_bits(), scalar.achieved.to_bits());
}

/// The two-wide host backend, sleeping before every unit-run decode so
/// each chunk of a frame takes milliseconds: ample time for an idle pool
/// worker to take a chunk.
#[derive(Clone, Default)]
struct SlowDecode;

impl Backend for SlowDecode {
    fn name(&self) -> &'static str {
        "slow-decode"
    }

    fn threads(&self) -> usize {
        2
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        CpuBackend::with_threads(2).install(f)
    }

    fn decode_unit_range(
        &self,
        ctx: &ExecCtx,
        stream: StreamView<'_>,
        units: Range<usize>,
        compressor: &HybridCompressor,
    ) -> Result<UnitPlanes, DecodeError> {
        thread::sleep(Duration::from_millis(2));
        CpuBackend::with_threads(2).decode_unit_range(ctx, stream, units, compressor)
    }
}

/// A lone stream's intermediate frame fans its chunks: with a second core
/// free a pool worker runs part of it, on one core none does, and either
/// way the frames are the one-thread reader's bit for bit. The chunks
/// hold 2 048 elements, far below every kernel's fan floor, so any part a
/// worker runs is a chunk of the frame.
#[test]
fn a_lone_streams_frame_fans_its_chunks_onto_a_free_core() {
    let _serial = serial();
    let two_cores = hpmdr_rt::host_threads() >= 2;
    let shape = [32usize, 32, 16];
    let data = field(shape.iter().product(), 11);
    let store = Arc::new(InMemoryStore::from(
        MdrConfig::new()
            .chunked(&[16, 16, 8])
            .build_with(CpuBackend::with_threads(1))
            .refactor(&data, &shape)
            .unwrap(),
    ));
    let query = Query::region(Target::Rel(1e-5), Region::new(&[4, 4, 2], &[24, 24, 12]));
    let scalar = SharedReader::with_backend(store.clone(), CpuBackend::with_threads(1));
    let want = frames(scalar.stream::<f32>(&query).unwrap());
    assert!(want.len() >= 3, "{} frames", want.len());

    let mut stream = SharedReader::with_backend(store, SlowDecode)
        .stream::<f32>(&query)
        .unwrap();
    let first = stream.refine_next().unwrap().unwrap();
    let before = hpmdr_rt::helped_parts();
    let second = stream.refine_next().unwrap().unwrap();
    let helped = hpmdr_rt::helped_parts() - before;
    assert!(!second.is_final, "the measured frame is intermediate");
    if two_cores {
        assert!(helped >= 1, "the frame ran every chunk on the caller");
    } else {
        assert_eq!(helped, 0, "one core has no worker to help");
    }
    let mut got = vec![
        bits(&first.approximation.data),
        bits(&second.approximation.data),
    ];
    got.extend(frames(stream));
    assert_eq!(got, want);
}

/// A lone ingest reads each chunk on whichever worker loop claims it:
/// with two cores free its reads land on at least two threads, while one
/// thread wide or under a hog one loop on the caller reads them all. Every
/// run writes the same store and leaves no core counted.
#[test]
fn a_lone_ingest_reads_on_every_free_core() {
    let _serial = serial();
    let two_free = hpmdr_rt::idle_threads() >= 2;
    let shape = [64usize, 32, 32];
    let data = field(shape.iter().product(), 5);
    let cfg = MdrConfig::new().chunked(&[8, 16, 16]);
    let caller = thread::current().id();
    let ingest = |backend: CpuBackend, hogged: bool, name: &str| {
        let _hog = hogged.then(|| hog(hpmdr_rt::host_threads()));
        let readers = Mutex::new(Vec::new());
        let mut slice = SliceSource::new(&data, &shape).unwrap();
        let source = FnSource::new(&shape, |c, region: &Region| {
            let mut seen = readers.lock().unwrap();
            let me = thread::current().id();
            if !seen.contains(&me) {
                seen.push(me);
            }
            if c == 0 {
                // Reads run under the source lock: holding it gives the
                // fan's other loops time to start and queue behind it.
                thread::sleep(Duration::from_millis(20));
            }
            slice.read_chunk(c, region)
        });
        let dir = tmp(name);
        cfg.clone()
            .build_with(backend)
            .ingest(source, &dir)
            .unwrap();
        let files = store_files(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (readers.into_inner().unwrap(), files)
    };

    let (one, want) = ingest(CpuBackend::with_threads(1), false, "ingest_one");
    assert_eq!(one, [caller], "one thread wide, the caller reads");
    assert_eq!(hpmdr_rt::busy_threads(), 0);

    let (hogged, files) = ingest(CpuBackend::new(), true, "ingest_hogged");
    assert_eq!(hogged, [caller], "with no core free, the caller reads");
    assert!(files == want, "the hogged ingest wrote another store");
    assert_eq!(hpmdr_rt::busy_threads(), 0);

    let (free, files) = ingest(CpuBackend::new(), false, "ingest_free");
    if two_free {
        assert!(free.len() >= 2, "reads ran on {} thread", free.len());
    } else {
        assert_eq!(free, [caller], "one core has no worker to read");
    }
    assert!(files == want, "the fanned ingest wrote another store");
    assert_eq!(hpmdr_rt::busy_threads(), 0);
}
