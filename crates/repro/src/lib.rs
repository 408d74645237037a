//! # hpmdr-repro — reproduction of the HP-MDR evaluation
//!
//! Everything that reproduces the paper's figures and tables rather than
//! serves data: a CPU-side model of the GPU execution substrate, the
//! comparison systems, the figure/table harness and the wall-clock
//! benches. It depends on the product crates (`hpmdr-core` and below) and
//! none of them depends on it, so nothing here is compiled into
//! `hpmdr-serve`.
//!
//! One binary per table and figure of the paper's evaluation (§7):
//!
//! ```text
//! cargo run -p hpmdr-repro --release --bin table1
//! cargo run -p hpmdr-repro --release --bin fig6     # ... fig7..fig14, table2_3
//! ```
//!
//! **The device model** (HDEM, the Host-Device Execution Model of HPDR,
//! substituting real GPU hardware):
//!
//! * **Warp-accurate functional simulation** ([`warp`]): kernels are written
//!   against lane-level intrinsics (`ballot`, `shfl_down`, `match_any`,
//!   `reduce_add`) with exactly the semantics of a 32-lane (CUDA-like) or
//!   64-lane (ROCm-like) device, so the *bit-exact portability* claims of
//!   the paper are directly testable on CPU.
//! * **A first-order analytic cost model** ([`cost`]): memory transactions
//!   (coalesced vs. strided), shuffle/ballot instruction counts, and
//!   native-vs-emulated reductions are accumulated by the simulated kernels
//!   and converted to simulated cycles/seconds, reproducing the *shape* of
//!   the paper's throughput comparisons (Figures 6 and 7).
//! * **The paper's three bitplane parallelization designs** ([`designs`]):
//!   locality block, register shuffling (with the four instruction
//!   variants of Figure 3) and register block, executed warp-accurately on
//!   a simulated device over `hpmdr-bitplane`'s portable codecs.
//! * **Real host/device buffering and DMA engines** ([`buffer`], [`queue`],
//!   [`device`]): one compute engine plus two independent DMA engines,
//!   realized with OS threads doing real `memcpy`s, so pipeline overlap
//!   (Figure 9, [`pipeline`]) is measured, not modeled.
//! * **A discrete-event simulator** ([`des`]): replays task DAGs (Figure 4)
//!   against modeled resources, used for multi-device weak scaling
//!   (Figures 10 and 14, [`multi_device`]) beyond the physical core count
//!   of the host.
//!
//! The two bundled device presets are deliberately named `*_like`: they are
//! calibrated to the published characteristics of the H100 and MI250X
//! (warp width, CU count, HBM bandwidth, host-link bandwidth, native warp
//! reduction support), not to microarchitectural ground truth.
//!
//! **The comparison systems** of Figure 11: the original CPU MDR \[24\] and
//! the multi-component progressive framework of Magri & Lindstrom \[31\]
//! instantiated with four error-bounded compressor backends. None of those
//! codebases is available here, so the algorithmic families are
//! re-implemented from scratch:
//!
//! * [`zfp_like`] — 4ᵈ block transform codec with per-block exponent
//!   alignment, integer lifting decorrelation, negabinary bitplane
//!   truncation; fixed-rate and fixed-accuracy modes.
//! * [`sz_like`] — Lorenzo-predictor + error-bounded linear quantization +
//!   Huffman entropy stage with exact-outlier fallback.
//! * [`mgard_codec`] — classic compress-once MGARD: multilevel
//!   decomposition, level-scaled uniform quantization, entropy coding.
//! * [`multi_component`] — the residual-cascade progressive framework
//!   \[31\] over any [`multi_component::ResidualCodec`].
//! * [`mdr_cpu`] — the single-thread / few-thread CPU execution of the
//!   MDR pipeline (the paper's direct baseline), sharing HP-MDR's
//!   refactoring code but executed inside a bounded thread pool.
//!
//! **Measurement policy** of the figure bins:
//!
//! * **Algorithmic results** (retrieval sizes, bitrates, iteration counts,
//!   error-control validation) are *exact reproductions* — they depend
//!   only on the algorithms, which are fully implemented.
//! * **GPU kernel throughput** comes from the warp-level cost model
//!   evaluated on closed-form kernel event counts; CPU wall-clock of the
//!   same kernels is reported alongside as a sanity signal. Expect *shape*
//!   agreement with the paper (orderings, crossovers, relative factors),
//!   not absolute GB/s.
//! * **Pipeline and multi-device results** replay the Figure 4 DAGs in
//!   the discrete-event simulator with stage durations from [`model`].
//!   Tables and JSON go out through [`report`].

pub mod buffer;
pub mod config;
pub mod cost;
pub mod counters;
pub mod des;
pub mod designs;
pub mod device;
pub mod mdr_cpu;
pub mod mgard_codec;
pub mod model;
pub mod multi_component;
pub mod multi_device;
pub mod pipeline;
pub mod queue;
pub mod report;
pub mod sz_like;
pub mod warp;
pub mod zfp_like;

pub use buffer::{BufferPool, DeviceBuffer};
pub use config::{Arch, DeviceConfig};
pub use cost::CostModel;
pub use counters::KernelCounters;
pub use des::{DesSim, Resource, SimOutcome, TaskSpec};
pub use designs::{DesignKind, EncodeOutcome, ShuffleInstr};
pub use device::Device;
pub use model::{qoi_loop_time, reconstruct_stage_times, refactor_stage_times};
pub use multi_component::{ComponentSpec, MultiComponent, ResidualCodec};
pub use queue::{DmaDirection, Event, ExecQueue};
pub use report::{write_json, Table};
pub use warp::{Warp, MAX_WARP};
