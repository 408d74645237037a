//! Figure 7: encode/decode throughput of the three parallelization
//! designs across input sizes on both device models, plus the native CPU
//! wall-clock of the two stream layouts as a sanity column.
//!
//! Paper shape targets (large inputs): register block ≈ 2.1× locality
//! block (encode) and 4.7–8.3× (decode); locality block ≈ 1.4× register
//! shuffling (encode) and 3.2–6.6× (decode).

use hpmdr_bitplane::{encode, Layout};
use hpmdr_repro::{CostModel, DesignKind, DeviceConfig, ShuffleInstr, Table};
use std::time::Instant;

fn wall_encode(layout: Layout, n: usize) -> f64 {
    let data: Vec<f32> = (0..n)
        .map(|i| ((i % 4093) as f32 * 0.37).sin() * 2.0)
        .collect();
    let t0 = Instant::now();
    let chunk = encode(&data, 32, layout);
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(&chunk);
    n as f64 * 4.0 / dt / 1e9
}

fn main() {
    let designs = [
        ("locality-block", DesignKind::locality_default()),
        (
            "reg-shuffle",
            DesignKind::RegisterShuffle(ShuffleInstr::Ballot),
        ),
        ("register-block", DesignKind::RegisterBlock),
    ];
    let sizes: Vec<usize> = (16..=26).step_by(2).map(|p| 1usize << p).collect();
    let mut json = Vec::new();

    for cfg in [DeviceConfig::h100_like(), DeviceConfig::mi250x_like()] {
        // Pick the best-performing shuffle instruction per device, as the
        // paper does for the rest of its evaluation.
        let best_shuffle = ShuffleInstr::ALL
            .into_iter()
            .filter(|&i| DesignKind::RegisterShuffle(i).supported_on(&cfg))
            .min_by(|&a, &b| {
                let ta = CostModel::kernel_time(
                    &cfg,
                    &DesignKind::RegisterShuffle(a).encode_counters(&cfg, 1 << 24, 32, 4),
                );
                let tb = CostModel::kernel_time(
                    &cfg,
                    &DesignKind::RegisterShuffle(b).encode_counters(&cfg, 1 << 24, 32, 4),
                );
                ta.total_cmp(&tb)
            })
            .expect("some instruction supported");

        for dir in ["encode", "decode"] {
            let mut t = Table::new(
                &format!("Figure 7: {dir} throughput (GB/s), {}", cfg.name),
                &[
                    "elements",
                    "locality-block",
                    "reg-shuffle",
                    "register-block",
                ],
            );
            for &n in &sizes {
                let mut cells = vec![format!("2^{}", n.trailing_zeros())];
                for (name, d) in designs {
                    let d = if name == "reg-shuffle" {
                        DesignKind::RegisterShuffle(best_shuffle)
                    } else {
                        d
                    };
                    let c = if dir == "encode" {
                        d.encode_counters(&cfg, n, 32, 4)
                    } else {
                        d.decode_counters(&cfg, n, 32, 4)
                    };
                    let gbps = CostModel::throughput_gbps(&cfg, &c, n * 4);
                    cells.push(format!("{gbps:.1}"));
                    json.push(serde_json::json!({
                        "device": cfg.name, "design": name, "dir": dir,
                        "elements": n, "gbps": gbps,
                    }));
                }
                t.row(&cells);
            }
            t.print();
        }

        // Summary factors at the largest size.
        let n = 1 << 26;
        let time = |d: DesignKind, enc: bool| {
            let c = if enc {
                d.encode_counters(&cfg, n, 32, 4)
            } else {
                d.decode_counters(&cfg, n, 32, 4)
            };
            CostModel::kernel_time(&cfg, &c)
        };
        let lb = DesignKind::locality_default();
        let rs = DesignKind::RegisterShuffle(best_shuffle);
        let rb = DesignKind::RegisterBlock;
        println!(
            "\n{}: encode rb/lb = {:.1}x, lb/rs = {:.1}x | decode rb/lb = {:.1}x, lb/rs = {:.1}x",
            cfg.name,
            time(lb, true) / time(rb, true),
            time(rs, true) / time(lb, true),
            time(lb, false) / time(rb, false),
            time(rs, false) / time(lb, false),
        );
        println!("   (paper: encode 2.1x / 1.4x; decode 4.7-8.3x / 3.2-6.6x)");
    }

    // Native CPU wall-clock: the register-block layout's communication-free
    // tile transpose is also the fast path on CPUs.
    let mut t = Table::new(
        "Native CPU wall-clock encode (GB/s) per layout",
        &["elements", "natural", "interleaved32"],
    );
    for &n in &[1usize << 20, 1 << 22, 1 << 24] {
        t.row(&[
            format!("2^{}", n.trailing_zeros()),
            format!("{:.2}", wall_encode(Layout::Natural, n)),
            format!("{:.2}", wall_encode(Layout::Interleaved32, n)),
        ]);
    }
    t.print();
    hpmdr_repro::write_json("fig7", &json);
}
