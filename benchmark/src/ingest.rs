//! Workload family `ingest`: field bytes in → committed store on disk.
//!
//! The write path end to end (read → decompose → bitplane encode →
//! hybrid lossless → shard write → manifest commit) through the façade's
//! default path. Nothing on the decode side runs, which makes this the
//! bypass workload for every retrieval optimisation.

use crate::fixture::{dir_bytes, Fixture, CHUNK_LARGE};
use crate::harness::{check_bound, linf, peak_rss_mb, Pace, Phase, RecordingGate, Series, Tally};
use crate::spans::{Recorder, SpanId};
use hpmdr_bitplane::{BitplaneChunk, BitplaneFloat};
use hpmdr_core::prelude::*;
use hpmdr_core::storage::ChunkedStoreWriter;
use hpmdr_lossless::{Codec, HybridCompressor};
use hpmdr_mgard::{decompose, extract_levels, Hierarchy};
use std::path::{Path, PathBuf};

/// Accuracy the written store is read back at to prove it is whole.
const VERIFY_REL: f64 = 1e-4;

pub struct IngestOut {
    /// Wall seconds of every timed operation, in order.
    pub op_s: Series,
    /// Store bytes on disk over input bytes.
    pub stored_ratio: f64,
}

fn ingest_once(fx: &Fixture, dir: &Path) -> Result<IngestReport, MdrError> {
    let source = FileSource::<f32>::open(&fx.raw, &fx.shape)?;
    MdrConfig::new()
        .chunked(&[CHUNK_LARGE; 3])
        .build()
        .ingest(source, dir)
}

/// The family's state across the rounds of one invocation.
pub struct Run<'a> {
    fx: &'a Fixture,
    scratch: &'a Path,
    phase: Phase,
    gate: RecordingGate,
    /// Timed operations so far.
    done: usize,
    /// Stores written so far; names the next directory.
    written: usize,
    /// The newest store, kept for the read-back at the end.
    last: Option<PathBuf>,
    op_s: Series,
}

impl<'a> Run<'a> {
    /// Warm up.
    pub fn start(
        fx: &'a Fixture,
        scratch: &'a Path,
        phase: Phase,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Self {
        let mut run = Run {
            fx,
            scratch,
            phase,
            gate: RecordingGate::close(rec),
            done: 0,
            written: 0,
            last: None,
            op_s: Series::default(),
        };
        for _ in 0..phase.warmup {
            let dir = run.fresh_dir();
            tally.record(ingest_once(fx, &dir).map(drop).map_err(|e| e.to_string()));
            run.keep_only(dir);
        }
        run.gate.release(rec);
        run
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.written += 1;
        self.scratch.join(format!("ingest-{}", self.written))
    }

    /// Remove the store kept so far (untimed) and keep `dir` instead.
    fn keep_only(&mut self, dir: PathBuf) {
        if let Some(old) = self.last.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }

    /// This family's timed operations of round `round`.
    pub fn slice(&mut self, round: usize, rec: &mut Recorder, tally: &mut Tally) {
        let mut pace = Pace::start(&self.phase, round);
        while pace.more() {
            self.gate.before_op(rec, self.done);
            let dir = self.fresh_dir();
            let op = rec.next_op();
            let (report, took, root) = rec.time("ingest", op, None, || ingest_once(self.fx, &dir));
            pace.tick();
            self.done += 1;
            let outcome = match report {
                Ok(report) => {
                    self.op_s.push(took.as_secs_f64());
                    rec.count(
                        "ingest.peak_staged_mb",
                        report.peak_staged_bytes as f64 / 1e6,
                    );
                    if rec.enabled() {
                        let replay_dir = self.scratch.join("ingest-replay");
                        replay(self.fx, &dir, &replay_dir, op, root, rec)
                    } else {
                        Ok(())
                    }
                }
                Err(e) => Err(e.to_string()),
            };
            tally.record(outcome);
            self.keep_only(dir);
        }
        self.op_s.end_round();
        self.gate.release(rec);
    }

    /// Median peak resident set of one more operation.
    pub fn peak_rss_mb(&mut self, tally: &mut Tally) -> f64 {
        let fx = self.fx;
        peak_rss_mb(tally, |_| {
            let dir = self.fresh_dir();
            let report = ingest_once(fx, &dir);
            self.keep_only(dir);
            report.map(drop).map_err(|e| e.to_string())
        })
    }

    /// Read the last store back and hand over what was measured.
    pub fn finish(mut self, tally: &mut Tally) -> IngestOut {
        let last = self.last.take().expect("at least one ingest ran");
        tally.record(verify(self.fx, &last));
        let stored_ratio = dir_bytes(&last) as f64 / self.fx.input_bytes() as f64;
        let _ = std::fs::remove_dir_all(&last);
        IngestOut {
            op_s: self.op_s,
            stored_ratio,
        }
    }
}

/// The last written store re-opens and serves the whole field within the
/// bound it reports.
fn verify(fx: &Fixture, dir: &Path) -> Result<(), String> {
    let store = open_store(dir).map_err(|e| format!("ingested store does not re-open: {e}"))?;
    let answer = Reader::new(&*store)
        .retrieve::<f32>(&Query::full(Target::Rel(VERIFY_REL)))
        .map_err(|e| format!("ingested store does not serve: {e}"))?;
    if answer.exhausted {
        return Err("ingested store ran out of planes at Rel(1e-4)".to_string());
    }
    check_bound(
        "ingest read-back",
        linf(&fx.field, &answer.data),
        answer.achieved,
        VERIFY_REL * store.meta().value_range(),
    )
}

/// The bytes of merged unit `u` of `chunk`, as the lossless stage sees
/// them: `m` planes of little-endian words, unit 0 led by the sign plane.
fn merged_unit(chunk: &BitplaneChunk, u: usize, m: usize) -> Vec<u8> {
    let planes = chunk.num_planes();
    let (lo, hi) = ((u * m).min(planes), ((u + 1) * m).min(planes));
    let signs: &[u32] = if u == 0 { &chunk.signs } else { &[] };
    signs
        .iter()
        .chain(chunk.plane_range(lo, hi))
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

/// Replay one ingest operation layer by layer on the same chunks, each
/// public leaf call under its own span, and check that the replayed
/// units are the ones the façade stored.
fn replay(
    fx: &Fixture,
    written: &Path,
    replay_dir: &Path,
    op: usize,
    root: Option<SpanId>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let err = |e: MdrError| format!("ingest replay: {e}");
    let cfg = RefactorConfig::default();
    let planes = cfg.num_planes.clamp(1, <f32 as BitplaneFloat>::MAX_PLANES);
    let m = cfg.hybrid.group_size.max(1);
    let compressor = HybridCompressor::new(cfg.hybrid);
    // One chunk of the ingest is one monolithic refactor on the default
    // path; whatever backend `build()` returns runs the fused loop, and
    // every leaf call runs under its execution policy (`install`), as it
    // does inside the façade.
    let mdr = MdrConfig::new().build();
    let backend = mdr.backend();
    let ctx = ExecCtx::default();
    let grid = ChunkGrid::new(&fx.shape, &[CHUNK_LARGE; 3]);
    let store = open_store(written).map_err(err)?;
    let mut source = FileSource::<f32>::open(&fx.raw, &fx.shape).map_err(err)?;
    let _ = std::fs::remove_dir_all(replay_dir);
    let mut writer = ChunkedStoreWriter::create(replay_dir, grid.clone(), "f32").map_err(err)?;

    let mut plane_bytes = 0usize;
    let mut original = 0usize;
    let mut stored = 0usize;
    let mut by_codec = [0usize; 3];
    for c in 0..grid.num_chunks() {
        let region = grid.chunk_region(c);
        let data = rec
            .child("ingest.read", op, root, || source.read_chunk(c, &region))
            .map_err(err)?;
        let h = Hierarchy::full(&region.extent);
        let mut work = data.clone();
        rec.child("mgard.decompose", op, root, || {
            backend.install(|| decompose(&mut work, &h, cfg.correction))
        });
        let groups = rec.child("mgard.extract_levels", op, root, || {
            backend.install(|| extract_levels(&work, &h))
        });
        let encoded: Vec<BitplaneChunk> = rec.child("bitplane.encode", op, root, || {
            backend.install(|| {
                groups
                    .iter()
                    .map(|g| hpmdr_bitplane::encode(g, planes, cfg.layout))
                    .collect()
            })
        });
        let on_disk = store
            .load_chunk(c, &RetrievalPlan::full(&store.meta().chunks[c]))
            .map_err(err)?;
        for (g, chunk) in encoded.iter().enumerate() {
            plane_bytes += chunk.total_bytes();
            for u in 0..chunk.num_planes().div_ceil(m) {
                let merged = merged_unit(chunk, u, m);
                let unit = rec.child("lossless.compress", op, root, || {
                    backend.install(|| compressor.compress(&merged))
                });
                if on_disk.streams[g].units.get(u) != Some(&unit) {
                    return Err(format!(
                        "replayed unit (chunk {c}, group {g}, unit {u}) differs from the stored one"
                    ));
                }
                original += unit.original_len;
                stored += unit.stored_len();
                by_codec[match unit.codec {
                    Codec::Huffman => 0,
                    Codec::Rle => 1,
                    Codec::Direct => 2,
                }] += unit.original_len;
            }
        }
        rec.child("exec.encode_and_compress", op, root, || {
            std::hint::black_box(backend.encode_and_compress(
                &ctx,
                &groups,
                planes,
                cfg.layout,
                m,
                &compressor,
            ))
        });
        let artifact = rec
            .child("refactor.chunk", op, root, || {
                mdr.refactor(&data, &region.extent)
            })
            .map_err(err)?;
        let chunk = artifact
            .as_monolithic()
            .expect("the default configuration refactors monolithically");
        rec.child("storage.write", op, root, || writer.append_chunk(chunk))
            .map_err(err)?;
    }
    rec.child("storage.write", op, root, || writer.finish())
        .map_err(err)?;
    let _ = std::fs::remove_dir_all(replay_dir);

    let share = |bytes: usize| bytes as f64 / original.max(1) as f64;
    rec.count("bitplane.plane_mb", plane_bytes as f64 / 1e6);
    rec.count("lossless.ratio", original as f64 / stored.max(1) as f64);
    rec.count("lossless.huffman_share", share(by_codec[0]));
    rec.count("lossless.rle_share", share(by_codec[1]));
    rec.count("lossless.direct_share", share(by_codec[2]));
    Ok(())
}
