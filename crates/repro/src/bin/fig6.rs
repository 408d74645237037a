//! Figure 6: bitplane encoding throughput with the four register-shuffle
//! instruction variants, across input sizes, on both device models.
//!
//! Simulated GB/s from the warp cost model over closed-form kernel event
//! counts (32-bit data, 32 bitplanes). The paper's observations to look
//! for: `reduce-add` best on H100 (native `redux`), unavailable on
//! MI250X where `ballot` wins; MI250X degrades at large sizes from
//! cross-lane contention.

use hpmdr_repro::{CostModel, DesignKind, DeviceConfig, ShuffleInstr, Table};

fn main() {
    let sizes: Vec<usize> = (16..=26).step_by(2).map(|p| 1usize << p).collect();
    let mut json = Vec::new();
    for cfg in [DeviceConfig::h100_like(), DeviceConfig::mi250x_like()] {
        let mut t = Table::new(
            &format!(
                "Figure 6: shuffle-variant encode throughput (GB/s), {}",
                cfg.name
            ),
            &{
                let mut h = vec!["elements"];
                for i in ShuffleInstr::ALL {
                    if DesignKind::RegisterShuffle(i).supported_on(&cfg) {
                        h.push(match i {
                            ShuffleInstr::Ballot => "ballot",
                            ShuffleInstr::Shift => "shift",
                            ShuffleInstr::MatchAny => "match-any",
                            ShuffleInstr::ReduceAdd => "reduce-add",
                        });
                    }
                }
                h
            },
        );
        for &n in &sizes {
            let mut cells = vec![format!("2^{}", n.trailing_zeros())];
            for instr in ShuffleInstr::ALL {
                let design = DesignKind::RegisterShuffle(instr);
                if !design.supported_on(&cfg) {
                    continue;
                }
                let c = design.encode_counters(&cfg, n, 32, 4);
                let gbps = CostModel::throughput_gbps(&cfg, &c, n * 4);
                cells.push(format!("{gbps:.1}"));
                json.push(serde_json::json!({
                    "device": cfg.name, "instr": format!("{instr:?}"),
                    "elements": n, "gbps": gbps,
                }));
            }
            t.row(&cells);
        }
        t.print();
    }
    hpmdr_repro::write_json("fig6", &json);
    println!("\nExpected shape: reduce-add leads on H100-like; ballot leads on");
    println!("MI250X-like with degradation at large sizes (contention).");
}
