//! Workload family `retrieve`: time to a full-domain solution of stated
//! accuracy, one-shot and local, at three accuracies.
//!
//! `coarse` fetches a few percent of the bytes and is recompose-dominated;
//! `fine` fetches about half and is lossless/bitplane-decode-heavy; `qoi`
//! is the paper's QoI-controlled retrieval (the Algorithm 3 loop). A fused
//! decode path must move `fine` more than `coarse`, a recompose change the
//! reverse, and neither may move `ingest`.

use crate::fixture::Fixture;
use crate::harness::{
    check_bound, linf, ms, peak_rss_mb, Pace, Phase, RecordingGate, Series, Tally,
};
use crate::spans::{Recorder, SpanId};
use hpmdr_bitplane::native::ProgressiveDecoder;
use hpmdr_bitplane::{decode_prefix, Reconstruction};
use hpmdr_core::chunked::extract_region;
use hpmdr_core::prelude::*;
use hpmdr_core::qoi_retrieval::retrieve_with_qoi_control;
use hpmdr_lossless::{HybridCompressor, HybridConfig};
use hpmdr_mgard::{inject_levels, recompose};

pub const COARSE_REL: f64 = 1e-2;
pub const FINE_REL: f64 = 1e-6;
pub const QOI_TAU: f64 = 1e-3;

/// The QoI of the `qoi` operation: the square of the variable.
pub fn qoi_expr() -> QoiExpr {
    QoiExpr::Square(Box::new(QoiExpr::Var(0)))
}

#[derive(Default)]
pub struct RetrieveOut {
    pub coarse_ms: Series,
    pub fine_ms: Series,
    pub qoi_ms: Series,
    /// Payload bytes fetched over output bytes, per operation type.
    pub coarse_fetch_ratio: f64,
    pub fine_fetch_ratio: f64,
}

/// One full-domain L∞ operation, checked against the original field.
fn full_domain(
    fx: &Fixture,
    store: &dyn Store,
    rel: f64,
    verify: bool,
) -> Result<Approximation<f32>, String> {
    let answer = Reader::new(store)
        .retrieve::<f32>(&Query::full(Target::Rel(rel)))
        .map_err(|e| format!("retrieve Rel({rel:e}): {e}"))?;
    if verify {
        if answer.exhausted {
            return Err(format!("retrieve Rel({rel:e}) ran out of planes"));
        }
        check_bound(
            &format!("retrieve Rel({rel:e})"),
            linf(&fx.field, &answer.data),
            answer.achieved,
            rel * store.meta().value_range(),
        )?;
    }
    Ok(answer)
}

/// One QoI-controlled operation on the corner archive.
fn qoi_once(fx: &Fixture, verify: bool) -> Result<(), String> {
    let answer = Reader::new(&fx.corner_store)
        .retrieve::<f32>(&Query::full(Target::Qoi(qoi_expr(), QOI_TAU)))
        .map_err(|e| format!("retrieve Qoi: {e}"))?;
    if verify {
        if answer.exhausted || answer.achieved > QOI_TAU {
            return Err(format!(
                "QoI estimate {:e} does not meet τ = {QOI_TAU:e}",
                answer.achieved
            ));
        }
        let true_err = fx
            .corner
            .iter()
            .zip(&answer.data)
            .map(|(&a, &b)| (f64::from(a).powi(2) - f64::from(b).powi(2)).abs())
            .fold(0.0, f64::max);
        if true_err > answer.achieved {
            return Err(format!(
                "true QoI error {true_err:e} exceeds the estimate {:e}",
                answer.achieved
            ));
        }
    }
    Ok(())
}

fn fetch_ratio(answer: &Approximation<f32>) -> f64 {
    answer.bytes_fetched as f64 / (answer.data.len() * 4) as f64
}

/// The family's state across the rounds of one invocation.
pub struct Run<'a> {
    fx: &'a Fixture,
    phase: Phase,
    gate: RecordingGate,
    store: Box<dyn Store>,
    /// Timed rounds of one coarse, one fine and one QoI operation so far.
    done: usize,
    out: RetrieveOut,
}

impl<'a> Run<'a> {
    /// Open the large-chunk store and warm up; the warm-up rounds double
    /// as the verification of each operation type.
    pub fn start(fx: &'a Fixture, phase: Phase, rec: &mut Recorder, tally: &mut Tally) -> Self {
        let gate = RecordingGate::close(rec);
        let store = open_store(&fx.store_large).expect("the store set-up wrote opens");
        for _ in 0..phase.warmup.max(1) {
            for rel in [COARSE_REL, FINE_REL] {
                tally.record(full_domain(fx, &*store, rel, true).map(drop));
            }
            tally.record(qoi_once(fx, true));
        }
        gate.release(rec);
        Run {
            fx,
            phase,
            gate,
            store,
            done: 0,
            out: RetrieveOut::default(),
        }
    }

    /// This family's timed operations of round `round`.
    pub fn slice(&mut self, round: usize, rec: &mut Recorder, tally: &mut Tally) {
        let (fx, store, out) = (self.fx, &*self.store, &mut self.out);
        let mut pace = Pace::start(&self.phase, round);
        while pace.more() {
            self.gate.before_op(rec, self.done);
            let op = rec.next_op();
            let (answer, took, _) = rec.time("retrieve.coarse", op, None, || {
                full_domain(fx, store, COARSE_REL, false)
            });
            if let Ok(a) = &answer {
                out.coarse_ms.push(ms(took));
                out.coarse_fetch_ratio = fetch_ratio(a);
            }
            tally.record(answer.map(drop));

            let op = rec.next_op();
            let requests = store.requests();
            let (answer, took, root) = rec.time("retrieve.fine", op, None, || {
                full_domain(fx, store, FINE_REL, false)
            });
            let outcome = answer.and_then(|a| {
                out.fine_ms.push(ms(took));
                out.fine_fetch_ratio = fetch_ratio(&a);
                rec.count("storage.load_mb", a.bytes_fetched as f64 / 1e6);
                rec.count("storage.ranges_read", (store.requests() - requests) as f64);
                if rec.enabled() {
                    replay_fine(store, &a, op, root, rec)
                } else {
                    Ok(())
                }
            });
            tally.record(outcome);

            let op = rec.next_op();
            let (outcome, took, _) = rec.time("retrieve.qoi", op, None, || qoi_once(fx, false));
            if outcome.is_ok() {
                out.qoi_ms.push(ms(took));
            }
            tally.record(outcome);
            pace.tick();
            self.done += 1;
        }
        for series in [&mut out.coarse_ms, &mut out.fine_ms, &mut out.qoi_ms] {
            series.end_round();
        }
        self.gate.release(rec);
    }

    /// Median peak resident set of one more `fine` operation.
    pub fn peak_rss_mb(&mut self, tally: &mut Tally) -> f64 {
        peak_rss_mb(tally, |_| {
            full_domain(self.fx, &*self.store, FINE_REL, false).map(drop)
        })
    }

    /// Take the QoI loop's counts (traced run) and hand over what was
    /// measured.
    pub fn finish(self, rec: &mut Recorder) -> RetrieveOut {
        if self.gate.tracing() {
            qoi_counts(self.fx, rec);
        }
        self.out
    }
}

/// Replay one `fine` operation chunk by chunk, each layer's public call
/// under its own span, and check that the replay reconstructs exactly the
/// samples the façade returned.
fn replay_fine(
    store: &dyn Store,
    answer: &Approximation<f32>,
    op: usize,
    root: Option<SpanId>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let meta = store.meta();
    let eb = FINE_REL * meta.value_range();
    let compressor = HybridCompressor::new(HybridConfig::default());
    // Whatever backend the default path builds; leaf calls run under its
    // execution policy (`install`), as they do inside the façade.
    let mdr = MdrConfig::new().build();
    let backend = mdr.backend();
    let ctx = ExecCtx::default();
    for (c, r) in meta.chunks.iter().enumerate() {
        let (plan, _) = rec.child("retrieve.plan", op, root, || {
            RetrievalPlan::for_error(r, eb)
        });
        let loaded = rec
            .child("storage.load", op, root, || store.load_chunk(c, &plan))
            .map_err(|e| format!("retrieve replay: {e}"))?;
        let mut groups: Vec<Vec<f32>> = Vec::with_capacity(loaded.streams.len());
        for (s, &units) in loaded.streams.iter().zip(&plan.units) {
            for unit in &s.units[..units] {
                rec.child("lossless.decompress", op, root, || {
                    backend.install(|| compressor.decompress(unit))
                })
                .map_err(|e| format!("retrieve replay: unit does not decompress: {e}"))?;
            }
            let chunk = rec
                .child("exec.decode_units", op, root, || {
                    backend.decode_units(&ctx, s.view(), units, &compressor, &loaded.dtype)
                })
                .map_err(|e| format!("retrieve replay: {e}"))?;
            let k = s.planes_in_units(units);
            let values = rec.child("bitplane.decode", op, root, || {
                backend.install(|| decode_prefix::<f32>(&chunk, k, Reconstruction::Truncate))
            });
            let materialized = rec.child("exec.materialize", op, root, || {
                let mut decoder = ProgressiveDecoder::with_total_planes(s.n, s.num_planes);
                decoder.advance(&chunk, k);
                backend.materialize::<f32>(&ctx, &decoder, &chunk, Reconstruction::Truncate)
            });
            if materialized != values {
                return Err(format!(
                    "retrieve replay: chunk {c}: decode_prefix and the progressive decoder disagree"
                ));
            }
            groups.push(values);
        }
        let mut data = rec.child("mgard.inject_levels", op, root, || {
            backend.install(|| inject_levels(&groups, &r.hierarchy))
        });
        rec.child("mgard.recompose", op, root, || {
            backend.install(|| recompose(&mut data, &r.hierarchy, r.correction))
        });
        let region = meta.grid.chunk_region(c);
        if data != extract_region(&answer.data, &meta.grid.shape, &region) {
            return Err(format!(
                "retrieve replay: chunk {c} reconstructs differently from the façade's answer"
            ));
        }
    }
    Ok(())
}

/// Counts of the QoI control loop, taken from the same call the façade
/// makes for a QoI target.
fn qoi_counts(fx: &Fixture, rec: &mut Recorder) {
    let meta = fx.corner_store.meta();
    let Ok(loaded) = fx
        .corner_store
        .load_chunk(0, &RetrievalPlan::full(&meta.chunks[0]))
    else {
        return;
    };
    let outcome = retrieve_with_qoi_control::<f32>(
        &[&loaded],
        &qoi_expr(),
        QOI_TAU,
        EbEstimator::Mape { c: 10.0 },
    );
    rec.count("qoi.iterations", outcome.iterations as f64);
    rec.count("qoi.recompose_elements", outcome.recompose_elements as f64);
    rec.count("qoi.fetched_mb", outcome.fetched_bytes as f64 / 1e6);
}
