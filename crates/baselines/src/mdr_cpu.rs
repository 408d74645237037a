//! The CPU MDR baseline \[24\].
//!
//! MDR's algorithms are the ones HP-MDR builds on, so this baseline shares
//! the workspace's refactoring code but executes it the way the original
//! system does: on host CPU threads (the paper's comparison uses 32 OpenMP
//! threads; a laptop reproduction uses however many cores exist). The
//! wrapper runs everything on a thread-bounded [`hpmdr_core::CpuBackend`]
//! so benchmark comparisons against the (simulated) GPU pipeline are
//! honest about the compute resource used — and so the "most compatible
//! processor" single-thread configuration the paper mentions is
//! measurable too (`threads = 1` runs every kernel on the calling thread).

use hpmdr_bitplane::BitplaneFloat;
use hpmdr_core::refactor::{refactor_with, RefactorConfig, Refactored};
use hpmdr_core::retrieve::{RetrievalPlan, RetrievalSession};
use hpmdr_core::{CpuBackend, ExecCtx};
use hpmdr_mgard::Real;

/// CPU MDR baseline executor.
pub struct MdrCpuBaseline {
    backend: CpuBackend,
    ctx: ExecCtx,
    config: RefactorConfig,
}

impl MdrCpuBaseline {
    /// Baseline running on `threads` CPU threads (1 = the fully portable
    /// single-core configuration).
    pub fn new(threads: usize, config: RefactorConfig) -> Self {
        MdrCpuBaseline {
            backend: CpuBackend::with_threads(threads),
            ctx: ExecCtx::default(),
            config,
        }
    }

    /// Thread count of the backend.
    pub fn threads(&self) -> usize {
        use hpmdr_core::Backend;
        self.backend.threads()
    }

    /// Refactor on the bounded backend.
    pub fn refactor<F: BitplaneFloat + Real>(&self, data: &[F], shape: &[usize]) -> Refactored {
        refactor_with(data, shape, &self.config, &self.backend, &self.ctx)
    }

    /// Retrieve to an absolute error target on the bounded backend,
    /// returning the reconstruction and the fetched byte count.
    pub fn retrieve<F: BitplaneFloat + Real>(
        &self,
        refactored: &Refactored,
        eb: f64,
    ) -> (Vec<F>, usize) {
        let (plan, _) = RetrievalPlan::for_error(refactored, eb);
        let mut sess = RetrievalSession::with_backend(refactored, self.backend);
        sess.refine_to(&plan);
        let rec = sess.reconstruct::<F>();
        (rec, sess.fetched_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.19).sin() * 2.5).collect()
    }

    #[test]
    fn single_thread_baseline_matches_parallel_results() {
        let shape = [33usize, 20];
        let data = field(33 * 20);
        let cfg = RefactorConfig::default();
        let single = MdrCpuBaseline::new(1, cfg.clone());
        let multi = MdrCpuBaseline::new(4, cfg);
        let a = single.refactor(&data, &shape);
        let b = multi.refactor(&data, &shape);
        // Portability: thread count must not change the streams.
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_retrieval_meets_bound() {
        let shape = [33usize, 33];
        let data = field(33 * 33);
        let baseline = MdrCpuBaseline::new(2, RefactorConfig::default());
        let r = baseline.refactor(&data, &shape);
        let (rec, bytes) = baseline.retrieve::<f32>(&r, 1e-3);
        assert!(bytes > 0);
        for (x, y) in data.iter().zip(&rec) {
            assert!(((x - y).abs() as f64) <= 1e-3);
        }
    }
}
