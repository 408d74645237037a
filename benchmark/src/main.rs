//! The repository benchmark: four workloads over the system's two paths
//! — *field bytes in → committed store on disk* and *QUERY frame on the
//! wire → samples in the client's buffer* — every output verified, every
//! metric printed by name with its unit. `README.md` beside this file
//! says why each workload exists and how to read the numbers.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat-check] [--smoke] [--out FILE]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod calibrate;
mod fixture;
mod harness;
mod host;
mod ingest;
mod metrics;
mod probes;
mod retrieve;
mod roi;
mod serve;
mod spans;
mod stats;

use calibrate::Calibrator;
use fixture::Fixture;
use harness::{Phase, Series, Tally};
use host::Fingerprint;
use metrics::{Measured, END_TO_END, PER_LAYER};
use serde_json::{json, Value};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Cubic extent of the field. 128³ f32 is 8.4 MB, four times the
/// reference host's 2 MiB per-core L2. Every invocation must report every
/// end-to-end metric, so it sets up and runs all four families inside the
/// driver's half minute; at 256³ set-up alone is 12 s and one round of the
/// families' smallest counts another 26 s.
const EXTENT: usize = 128;
const SMOKE_EXTENT: usize = 64;
const DEFAULT_SECONDS: f64 = 5.0;
const SMOKE_SECONDS: f64 = 1.0;
const DEFAULT_SEED: u64 = 5;
/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Retrieve,
    Roi,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Retrieve,
        Workload::Roi,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Retrieve => "retrieve",
            Workload::Roi => "roi",
            Workload::Serve => "serve",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload ingest|retrieve|roi|serve] [--seed N] \
[--seconds S] [--trace 0|1] [--repeat-check] [--smoke] [--out FILE]";

impl Cli {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            repeat_check: false,
            smoke: false,
            out: None,
        };
        while let Some(flag) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    cli.workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?,
                    );
                }
                "--seed" => {
                    cli.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    cli.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    cli.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--out" => cli.out = Some(PathBuf::from(value("a file name")?)),
                "--repeat-check" => cli.repeat_check = true,
                "--smoke" => cli.smoke = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        if cli.seconds <= 0.0 {
            cli.seconds = if cli.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            };
        }
        if cli.repeat_check && cli.trace {
            return Err("--repeat-check compares end-to-end metrics; drop --trace 1".to_string());
        }
        Ok(cli)
    }

    fn extent(&self) -> usize {
        if self.smoke {
            SMOKE_EXTENT
        } else {
            EXTENT
        }
    }

    /// Whether the numbers may be set beside other runs' at all.
    fn comparable(&self, host: &Fingerprint) -> bool {
        !self.smoke && host.cores >= serve::CLIENTS && host.rss_resets
    }
}

/// Scratch space inside the working directory (the benchmark reads and
/// writes nowhere else), removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Scratch {
        let dir = PathBuf::from(".bench_scratch").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when no other run shares it.
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

/// Timed operations and warm-ups of each family in [`Workload::ALL`]
/// order: an untraced run, a traced run (half of its operations are
/// replayed layer by layer, at several times their cost), a smoke run.
/// `serve` counts are per client; `retrieve` counts are rounds of one
/// coarse, one fine and one QoI operation; `roi` warms up with a cold pass
/// over that many queries. `roi` and `serve` take the 200 samples a p95
/// needs.
const COUNTS: [[(usize, usize); 3]; 4] = [
    [(8, 1), (6, 1), (4, 1)],
    [(8, 1), (6, 1), (4, 1)],
    [(200, 50), (100, 50), (32, 8)],
    [(100, 8), (25, 8), (16, 2)],
];

/// How long `family` runs in an invocation of workload `focus`. Every
/// invocation reports every end-to-end metric, so every family runs at its
/// fixed count in each; the family the workload names also keeps going
/// until `--seconds` have passed.
fn phase(family: Workload, focus: Workload, cli: &Cli) -> Phase {
    let kind = if cli.smoke {
        2
    } else if cli.trace {
        1
    } else {
        0
    };
    let (min_ops, warmup) = COUNTS[family as usize][kind];
    let seconds = if family == focus { cli.seconds } else { 0.0 };
    Phase {
        budget: Duration::from_secs_f64(seconds),
        min_ops,
        warmup,
    }
}

/// One invocation's result for one workload.
struct Report {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    end_to_end: Vec<f64>,
    /// Present in a traced run only.
    per_layer: Option<Vec<f64>>,
    samples: Value,
    /// Every timed operation's own reading (at reference speed) and the
    /// host-speed factor of every family's slice of every round (wall time
    /// is their product), for `--out`.
    raw: Value,
}

impl Report {
    /// The line the driver reads: the run's verdict and its metrics.
    fn result_line(&self) -> String {
        let entry = |name: &str, unit: &str, value: f64| {
            (name.to_string(), json!({"value": value, "unit": unit}))
        };
        let metrics: Vec<(String, Value)> = match &self.per_layer {
            Some(values) => PER_LAYER
                .iter()
                .zip(values)
                .map(|(m, &v)| entry(m.name, m.unit, v))
                .collect(),
            None => END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(m, &v)| entry(m.name, m.unit, v))
                .collect(),
        };
        serde_json::to_string(&json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics)
        }))
        .expect("a JSON value prints")
    }

    fn print_table(&self) {
        println!("\n== workload `{}` ==", self.workload.name());
        println!(
            "   operations attempted {}, failed {} (failed_share {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for why in &self.failures {
            println!("   FAILED: {why}");
        }
        match &self.per_layer {
            None => {
                println!(
                    "   {:<30} {:>14} {:<6} {:<7} bound",
                    "end-to-end metric", "value", "unit", "better"
                );
                for (m, v) in END_TO_END.iter().zip(&self.end_to_end) {
                    println!(
                        "   {:<30} {:>14.4} {:<6} {:<7} {:.0} %",
                        m.name,
                        v,
                        m.unit,
                        m.better.as_str(),
                        m.bound * 100.0
                    );
                }
            }
            Some(values) => {
                println!(
                    "   {:<34} {:>16} {:<6} better",
                    "per-layer metric", "value", "unit"
                );
                for (m, v) in PER_LAYER.iter().zip(values) {
                    println!(
                        "   {:<34} {:>16.4} {:<6} {}",
                        m.name,
                        v,
                        m.unit,
                        m.better.as_str()
                    );
                }
            }
        }
        println!(
            "   samples: {}",
            serde_json::to_string(&self.samples).expect("prints")
        );
    }

    fn to_json(&self) -> Value {
        let named = |names: Vec<&'static str>, values: &[f64]| {
            Value::Object(
                names
                    .into_iter()
                    .zip(values)
                    .map(|(n, &v)| (n.to_string(), json!(v)))
                    .collect(),
            )
        };
        json!({
            "workload": self.workload.name(),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "samples": self.samples,
            "raw": self.raw,
            "end_to_end": named(END_TO_END.iter().map(|m| m.name).collect(), &self.end_to_end),
            "per_layer": self.per_layer.as_ref().map(|v| {
                named(PER_LAYER.iter().map(|m| m.name).collect(), v)
            })
        })
    }
}

/// What a latency sample supports: its size, its quartiles, the highest
/// tail percentile with at least ten samples beyond it and that
/// percentile's value, and whether the p95 the metric tables name is one
/// of the supported ones.
fn sample_note(samples_ms: &[f64]) -> Value {
    if samples_ms.len() < 2 {
        return json!({"n": samples_ms.len()});
    }
    let [q1, _, q3] = stats::quartiles(samples_ms);
    let tail = stats::tail_percentile(samples_ms.len());
    json!({
        "n": samples_ms.len(),
        "q1_ms": q1,
        "q3_ms": q3,
        "highest_tail_percentile": tail,
        "tail_ms": tail.map(|p| stats::percentile(samples_ms, p)),
        "p95_supported": stats::supports_percentile(samples_ms.len(), 95.0)
    })
}

/// Run one workload: set up, measure all four families — `focus` for
/// `--seconds` — verify, and assemble the metrics.
fn run_workload(focus: Workload, cli: &Cli, host: &Fingerprint, scratch: &Path) -> Report {
    // Set-up, timed outside every operation. A traced run reports no
    // `setup_s`, so it sets up once.
    let repeats = if cli.trace || cli.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    // Every timed stretch lies between two readings of the host's speed
    // and is divided by their mean (see `calibrate.rs`).
    let mut speed = Calibrator::new(!cli.trace);
    let mut before = speed.factor();
    let mut between = |speed: &mut Calibrator| {
        let after = speed.factor();
        let mean = (before + after) / 2.0;
        before = after;
        mean
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut fixture = None;
    for i in 0..repeats {
        drop(fixture.take());
        let dir = scratch.join(format!("fixture-{i}"));
        let t = Instant::now();
        fixture = Some(Fixture::build(cli.seed, cli.extent(), &dir));
        setup_s.push(t.elapsed().as_secs_f64() / between(&mut speed));
        if i > 0 {
            let _ = std::fs::remove_dir_all(scratch.join(format!("fixture-{}", i - 1)));
        }
    }
    let fx = fixture.expect("at least one set-up ran");

    let mut rec = Recorder::new(cli.trace);
    let mut tally = Tally::default();
    let phase_of = |family| phase(family, focus, cli);
    let (rec, tally) = (&mut rec, &mut tally);
    let mut ingest = ingest::Run::start(&fx, scratch, phase_of(Workload::Ingest), rec, tally);
    let mut retrieve = retrieve::Run::start(&fx, phase_of(Workload::Retrieve), rec, tally);
    let mut roi = roi::Run::start(&fx, phase_of(Workload::Roi), rec, tally);
    let mut serve = serve::Run::start(&fx, phase_of(Workload::Serve), tally);
    // Host-speed factor of each family's slice of each round.
    let mut factors = [[1.0; 4]; harness::ROUNDS];
    between(&mut speed); // the warm-ups are not timed
    for (round, of_family) in factors.iter_mut().enumerate() {
        ingest.slice(round, rec, tally);
        of_family[Workload::Ingest as usize] = between(&mut speed);
        retrieve.slice(round, rec, tally);
        of_family[Workload::Retrieve as usize] = between(&mut speed);
        roi.slice(round, rec, tally);
        of_family[Workload::Roi as usize] = between(&mut speed);
        serve.slice(round, tally);
        of_family[Workload::Serve as usize] = between(&mut speed);
    }
    // Memory is watched over the workload's own family, while every
    // family still holds its stores, caches and connections: the same
    // resident state whichever family is watched.
    let peak_rss_mb = match focus {
        Workload::Ingest => ingest.peak_rss_mb(tally),
        Workload::Retrieve => retrieve.peak_rss_mb(tally),
        Workload::Roi => roi.peak_rss_mb(tally),
        Workload::Serve => serve.peak_rss_mb(tally),
    };
    let mut ingest = ingest.finish(tally);
    let mut retrieve = retrieve.finish(rec);
    let mut roi = roi.finish(rec, tally);
    let mut serve = serve.finish(rec, tally);
    let timed: [(Workload, &mut Series); 8] = [
        (Workload::Ingest, &mut ingest.op_s),
        (Workload::Retrieve, &mut retrieve.coarse_ms),
        (Workload::Retrieve, &mut retrieve.fine_ms),
        (Workload::Retrieve, &mut retrieve.qoi_ms),
        (Workload::Roi, &mut roi.warm_ms),
        (Workload::Serve, &mut serve.ttff_ms),
        (Workload::Serve, &mut serve.ttfinal_ms),
        (Workload::Serve, &mut serve.stream_s),
    ];
    for (family, series) in timed {
        series.divide_rounds_by(factors.iter().map(|of_family| of_family[family as usize]));
    }

    if cli.trace {
        tally.record(probes::wire(rec));
        tally.record(probes::request_json(&fx, rec));
        tally.record(probes::storage_open(&fx, rec));
    }

    let samples = json!({
        "setups": setup_s.len(),
        "ingest_ops": ingest.op_s.values.len(),
        "retrieve_rounds": retrieve.fine_ms.values.len(),
        "roi_queries": sample_note(&roi.warm_ms.values),
        "serve_streams": sample_note(&serve.ttfinal_ms.values),
        "host_speed": stats::median_or_zero(&speed.factors)
    });
    let series = |s: &Series| json!({"values": s.values, "round_ends": s.round_ends});
    let raw = json!({
        "setup_s": setup_s,
        "host_speed_by_round_and_family": factors.iter().map(|f| f.to_vec()).collect::<Vec<_>>(),
        "ingest_s": series(&ingest.op_s),
        "retrieve_coarse_ms": series(&retrieve.coarse_ms),
        "retrieve_fine_ms": series(&retrieve.fine_ms),
        "retrieve_qoi_ms": series(&retrieve.qoi_ms),
        "roi_ms": series(&roi.warm_ms),
        "serve_ttff_ms": series(&serve.ttff_ms),
        "serve_ttfinal_ms": series(&serve.ttfinal_ms),
        "serve_stream_s": series(&serve.stream_s)
    });
    let measured = Measured {
        setup_s: stats::median(&setup_s),
        peak_rss_mb,
        input_bytes: fx.input_bytes(),
        ingest,
        retrieve,
        roi,
        serve,
    };
    let end_to_end = metrics::end_to_end(&measured);
    let per_layer = cli
        .trace
        .then(|| metrics::per_layer(&measured, host, rec, focus));
    if cli.trace {
        write_trace(focus, cli, host, rec);
    }
    drop(fx);

    Report {
        workload: focus,
        correct: tally.failed == 0 && end_to_end.iter().all(|v| v.is_finite()),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        failures: std::mem::take(&mut tally.failures),
        end_to_end,
        per_layer,
        samples,
        raw,
    }
}

fn stamp(cli: &Cli, host: &Fingerprint) -> Value {
    json!({
        "host": host.to_json(),
        "seed": cli.seed,
        "extent": [cli.extent(), cli.extent(), cli.extent()],
        "field_bytes": cli.extent().pow(3) * 4,
        "chunk_extents": [fixture::CHUNK_LARGE, fixture::CHUNK_SMALL],
        "region_queries": fixture::QUERY_COUNT,
        "seconds": cli.seconds,
        "traced": cli.trace,
        "smoke": cli.smoke,
        "clients": serve::CLIENTS,
        "host_speed_reference_ms": calibrate::REFERENCE_MS,
        "comparable": cli.comparable(host)
    })
}

/// Spans stay in memory while measuring and are written here, at the end.
fn write_trace(focus: Workload, cli: &Cli, host: &Fingerprint, rec: &Recorder) {
    let path = Path::new("results").join(format!("benchmark-trace-{}.json", focus.name()));
    let doc = json!({
        "stamp": stamp(cli, host),
        "workload": focus.name(),
        "spans": rec.to_json()
    });
    let written = std::fs::create_dir_all("results").and_then(|_| {
        std::fs::write(
            &path,
            serde_json::to_string(&doc).expect("a JSON value prints"),
        )
    });
    match written {
        Ok(()) => println!("   wrote {} spans to {}", rec.spans().len(), path.display()),
        Err(e) => println!("   could not write {}: {e}", path.display()),
    }
}

/// What one child invocation reported on its result line.
struct ChildResult {
    correct: bool,
    failed: u64,
    /// End-to-end values in [`END_TO_END`] order.
    values: Vec<f64>,
}

/// Run this program once more, as the driver would, for one workload; its
/// table goes through to our output and its result line is parsed. A
/// fresh process per set keeps the second set's memory readings free of
/// what the first one left in the allocator.
fn run_child(cli: &Cli, workload: Workload) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", "0"]);
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or("the child run printed no result line")?;
    println!("{table}");
    let result: Value =
        serde_json::from_str(line).map_err(|e| format!("unreadable result line: {e}"))?;
    let values = END_TO_END
        .iter()
        .map(|m| {
            result
                .field("metrics")
                .field(m.name)
                .field("value")
                .as_f64()
                .ok_or_else(|| format!("the result line lacks `{}`", m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(ChildResult {
        correct: result.field("correct").as_bool() == Some(true) && output.status.success(),
        failed: result.field("failed").as_u64().unwrap_or(u64::MAX),
        values,
    })
}

/// Run the full untraced set twice and hold every end-to-end metric's
/// move from the first set to the second against its bound.
fn repeat_check(cli: &Cli, workloads: &[Workload]) -> bool {
    let mut ok = true;
    for &w in workloads {
        let (first, second) = match (run_child(cli, w), run_child(cli, w)) {
            (Ok(first), Ok(second)) => (first, second),
            (Err(why), _) | (_, Err(why)) => {
                println!("repeat check, workload `{}`: {why}", w.name());
                ok = false;
                continue;
            }
        };
        println!("\n== repeat check, workload `{}` ==", w.name());
        println!(
            "   {:<30} {:>12} {:>12} {:>9}  bound",
            "metric", "first", "second", "worse by"
        );
        for (m, (&a, &b)) in END_TO_END
            .iter()
            .zip(first.values.iter().zip(&second.values))
        {
            let broke = stats::exceeds(m.better, m.repeat, a, b);
            ok &= !broke;
            println!(
                "   {:<30} {:>12.4} {:>12.4} {:>8.2} %  {}{}",
                m.name,
                a,
                b,
                stats::worsening(m.better, a, b) * 100.0,
                match m.repeat {
                    stats::Bound::Exact => "exact".to_string(),
                    stats::Bound::Share(s) => format!("{:.0} %", s * 100.0),
                },
                if broke { "  EXCEEDED" } else { "" }
            );
        }
        // Failures: any increase is a regression, and so is any at all.
        let failures_grew = stats::exceeds(
            stats::Better::Lower,
            stats::Bound::Share(0.0),
            first.failed as f64,
            second.failed as f64,
        );
        ok &= !failures_grew && first.correct && second.correct;
        println!(
            "   {:<30} {:>12} {:>12}            any increase{}",
            "failed",
            first.failed,
            second.failed,
            if failures_grew { "  EXCEEDED" } else { "" }
        );
    }
    println!(
        "\nrepeat check: {}",
        if ok {
            "every metric within its bound"
        } else {
            "BOUND EXCEEDED"
        }
    );
    ok
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = cli
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let ok = if cli.repeat_check {
        repeat_check(&cli, &workloads)
    } else {
        measure_and_print(&cli, &workloads)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `workloads` in this process; print their tables, then one result
/// line each. Returns whether every run was correct.
fn measure_and_print(cli: &Cli, workloads: &[Workload]) -> bool {
    let host = Fingerprint::measure();
    println!(
        "hpmdr benchmark: {}",
        serde_json::to_string(&stamp(cli, &host)).expect("a JSON value prints")
    );
    if !cli.comparable(&host) {
        println!(
            "NOT COMPARABLE with reference runs (smoke run, fewer than {} cores, or a kernel that does not reset VmHWM)",
            serve::CLIENTS
        );
    }
    let scratch = Scratch::create();
    let reports: Vec<Report> = workloads
        .iter()
        .map(|&w| run_workload(w, cli, &host, &scratch.0))
        .collect();
    if let Some(out) = &cli.out {
        let doc = json!({
            "stamp": stamp(cli, &host),
            "reports": reports.iter().map(Report::to_json).collect::<Vec<_>>()
        });
        if let Err(e) = std::fs::write(out, serde_json::to_string_pretty(&doc).expect("prints")) {
            eprintln!("could not write {}: {e}", out.display());
        }
    }
    for report in &reports {
        report.print_table();
    }
    for report in &reports {
        println!("{}", report.result_line());
    }
    reports.iter().all(|r| r.correct)
}
