//! Shared helpers for the HP-MDR examples.
//!
//! Each binary in this package is a self-contained walkthrough of one
//! public-API workflow:
//!
//! * `quickstart` — refactor a field, retrieve at several tolerances.
//! * `climate_retrieval` — write-once / read-many progressive access on
//!   an ensemble-weather dataset.
//! * `turbulence_qoi` — QoI-error-controlled retrieval of `V_total` on a
//!   turbulence velocity field, comparing the CP/MA/MAPE estimators.
//! * `roi_query` — region-of-interest queries over a sharded chunk
//!   store: fetch only the chunks (and unit prefixes) a hyperslab needs.
//! * `remote_retrieval` — open a store by `http://` URL over a loopback
//!   shard server: coalesced range requests, then warm re-queries
//!   served without touching the network.
//! * `open_loop_load` — open-loop client fleets against a loopback
//!   progressive server: tail latency from scheduled arrival, steady and
//!   over-budget shedding.
//!
//! Run any of them with `cargo run -p hpmdr-examples --release --bin <name>`.

/// Format a byte count with binary units.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Maximum absolute error between two f32 fields, in f64.
pub fn linf_f32(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y).abs()) as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn linf_basic() {
        assert_eq!(linf_f32(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
    }
}
