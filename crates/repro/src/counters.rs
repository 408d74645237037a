//! Kernel execution counters.
//!
//! Simulated kernels accumulate architectural events here; the cost model
//! in [`crate::cost`] converts the totals into simulated time. Counters are
//! plain integers so per-warp accounting stays allocation-free and cheap to
//! merge across worker threads.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Architectural event counts accumulated by a simulated kernel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelCounters {
    /// Global-memory *load transactions*, counted at sector granularity
    /// (one per touched sector per warp access).
    pub load_transactions: u64,
    /// Global-memory *store transactions* (sector granularity).
    pub store_transactions: u64,
    /// Bytes actually requested by loads (useful-data traffic).
    pub load_bytes: u64,
    /// Bytes actually requested by stores.
    pub store_bytes: u64,
    /// Loads issued by a single lane (latency-exposed scalar accesses).
    pub scalar_loads: u64,
    /// Stores issued by a single lane.
    pub scalar_stores: u64,
    /// Cross-lane shuffle operations (`shfl_down` and friends).
    pub shuffle_ops: u64,
    /// Warp vote operations (`ballot`, `match_any`).
    pub ballot_ops: u64,
    /// Native warp reductions (`reduce_add` on hardware that has it).
    pub reduce_ops: u64,
    /// Plain ALU warp instructions (shifts, masks, adds...).
    pub alu_ops: u64,
    /// Number of warps launched.
    pub warps_launched: u64,
}

impl KernelCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warp instructions issued, with emulated reductions expanded: on
    /// devices without native `reduce_add`, each reduction costs
    /// `log2(warp_size)` shuffle+add pairs.
    pub fn total_instructions(&self, warp_size: usize, has_reduce_add: bool) -> u64 {
        let reduce_cost = if has_reduce_add {
            self.reduce_ops
        } else {
            let log_w = usize::BITS - (warp_size.max(2) - 1).leading_zeros();
            self.reduce_ops * 2 * log_w as u64
        };
        self.shuffle_ops
            + self.ballot_ops
            + self.alu_ops
            + reduce_cost
            + self.load_transactions
            + self.store_transactions
    }

    /// Cross-lane communication operations (shuffles + votes + expanded
    /// reductions); these pay the architecture's communication surcharge
    /// and the occupancy-dependent contention penalty. *Native* warp
    /// reductions run on dedicated hardware (NVIDIA `redux`) and bypass
    /// the shuffle network entirely — the reason the paper measures
    /// reduce-add ahead of ballot on H100.
    pub fn comm_ops(&self, warp_size: usize, has_reduce_add: bool) -> u64 {
        let reduce_cost = if has_reduce_add {
            0
        } else {
            let log_w = usize::BITS - (warp_size.max(2) - 1).leading_zeros();
            self.reduce_ops * log_w as u64
        };
        self.shuffle_ops + self.ballot_ops + reduce_cost
    }

    /// Total useful bytes moved through the device memory system.
    pub fn total_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes
    }
}

impl Add for KernelCounters {
    type Output = KernelCounters;
    fn add(mut self, rhs: KernelCounters) -> KernelCounters {
        self += rhs;
        self
    }
}

impl AddAssign for KernelCounters {
    fn add_assign(&mut self, rhs: KernelCounters) {
        self.load_transactions += rhs.load_transactions;
        self.store_transactions += rhs.store_transactions;
        self.load_bytes += rhs.load_bytes;
        self.store_bytes += rhs.store_bytes;
        self.scalar_loads += rhs.scalar_loads;
        self.scalar_stores += rhs.scalar_stores;
        self.shuffle_ops += rhs.shuffle_ops;
        self.ballot_ops += rhs.ballot_ops;
        self.reduce_ops += rhs.reduce_ops;
        self.alu_ops += rhs.alu_ops;
        self.warps_launched += rhs.warps_launched;
    }
}

impl std::iter::Sum for KernelCounters {
    fn sum<I: Iterator<Item = KernelCounters>>(iter: I) -> Self {
        iter.fold(KernelCounters::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merges_all_fields() {
        let a = KernelCounters {
            load_transactions: 1,
            store_transactions: 2,
            load_bytes: 3,
            store_bytes: 4,
            scalar_loads: 11,
            scalar_stores: 12,
            shuffle_ops: 5,
            ballot_ops: 6,
            reduce_ops: 7,
            alu_ops: 8,
            warps_launched: 9,
        };
        let s = a + a;
        assert_eq!(s.load_transactions, 2);
        assert_eq!(s.store_bytes, 8);
        assert_eq!(s.scalar_loads, 22);
        assert_eq!(s.warps_launched, 18);
        assert_eq!(s.total_bytes(), 14);
    }

    #[test]
    fn emulated_reduce_costs_log_warp_shuffles() {
        let c = KernelCounters {
            reduce_ops: 10,
            ..Default::default()
        };
        // Native: 10 instructions.
        assert_eq!(c.total_instructions(32, true), 10);
        // Emulated on 32 lanes: 2 * log2(32) = 10 per reduce.
        assert_eq!(c.total_instructions(32, false), 100);
        // Emulated on 64 lanes: 2 * log2(64) = 12 per reduce.
        assert_eq!(c.total_instructions(64, false), 120);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            KernelCounters {
                alu_ops: 1,
                ..Default::default()
            },
            KernelCounters {
                alu_ops: 2,
                ..Default::default()
            },
            KernelCounters {
                alu_ops: 3,
                ..Default::default()
            },
        ];
        let total: KernelCounters = parts.into_iter().sum();
        assert_eq!(total.alu_ops, 6);
    }

    #[test]
    fn comm_ops_expand_emulated_reduce() {
        let c = KernelCounters {
            reduce_ops: 4,
            shuffle_ops: 1,
            ..Default::default()
        };
        // Native reductions use dedicated hardware: no shuffle traffic.
        assert_eq!(c.comm_ops(32, true), 1);
        assert_eq!(c.comm_ops(32, false), 1 + 4 * 5);
    }
}
