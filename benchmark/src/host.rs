//! Host fingerprint and process memory: what a result must carry so that
//! numbers from different machines are never silently compared.

use serde_json::{json, Value};
use std::process::Command;
use std::time::Instant;

/// Bytes of the memcpy roofline probe: 64 MiB, 32× the reference host's
/// 2 MiB per-core L2, so the copy streams through it rather than from it.
pub const MEMCPY_BYTES: usize = 64 << 20;

pub struct Fingerprint {
    pub cores: usize,
    pub isa: &'static str,
    pub memcpy_gbps: f64,
    pub l2_bytes: Option<u64>,
    /// Whether the kernel lets this process reset its `VmHWM`. Where it
    /// does not, `peak_rss_mb` is the peak of the whole process so far,
    /// set-up included, and not of one operation.
    pub rss_resets: bool,
    pub rustc: String,
    pub git_revision: String,
}

impl Fingerprint {
    pub fn measure() -> Self {
        Fingerprint {
            cores: cores(),
            isa: hpmdr_core::Isa::best_available().name(),
            memcpy_gbps: memcpy_gbps(),
            l2_bytes: l2_bytes(),
            rss_resets: reset_peak_rss(),
            rustc: first_line("rustc", &["-V"]),
            git_revision: first_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "nproc": self.cores,
            "isa": self.isa,
            "memcpy_gbps": self.memcpy_gbps,
            "memcpy_bytes": MEMCPY_BYTES,
            "l2_bytes": self.l2_bytes,
            "rss_resets": self.rss_resets,
            "rustc": self.rustc,
            "git_revision": self.git_revision
        })
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median rate of five 64 MiB copies, in 10⁹ bytes per second.
pub fn memcpy_gbps() -> f64 {
    let src = vec![0x5au8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    let mut rates = Vec::new();
    // The first copy faults the destination pages in; it is not timed.
    for timed in [false, true, true, true, true, true] {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        if timed {
            rates.push(MEMCPY_BYTES as f64 / 1e9 / t.elapsed().as_secs_f64());
        }
    }
    crate::stats::median(&rates)
}

fn l2_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size").ok()?;
    let text = text.trim();
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// First line of `program args…`'s output, or `"unknown"` (the driver's
/// checkout is not a git repository, and that is fine).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`) in 10⁶ bytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Reset `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] reports the peak of what runs from here on. Returns
/// whether the kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand the allocator's free pages back to the kernel, so that the
/// resident set is what is live and not what earlier phases happened to
/// leave cached: without it the same operation peaks 8 MB apart from one
/// run to the next, by which of its buffers found a hole in the heap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's own entry point for releasing free
    // heap memory; it takes no pointers, touches no live allocation, and
    // is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}
