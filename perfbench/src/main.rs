//! Product-path benchmark for clfp.
//!
//! ```text
//! clfp-perfbench --workload tables|stream|metrics --seed N --seconds S --trace 0|1
//! clfp-perfbench derive-stream-expected > perfbench/expected/stream_cycles.txt
//! ```
//!
//! Runs one workload in this process, one op at a time from this thread,
//! for `S` seconds after set-up, checks every op's output, and prints one
//! JSON result as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` records spans around every layer
//! call on alternate ops, reports per-layer metrics, and writes the spans
//! to `.perfbench/`. Run it from the repository root; `perfbench/README.md`
//! explains the workloads and metrics.

mod host;
mod ops;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ops::{Bench, Kind, OpResult};
use spans::{OpProfile, Recorder};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed ops per run, whatever `--seconds` says.
const MIN_OPS: usize = 3;
/// Lane-kernel slots: 7 machines × 2 unroll settings.
const LANE_SLOTS: f64 = 14.0;
/// Machines the metrics recording walks one at a time.
const RECORDED_MACHINES: f64 = 7.0;
/// Where runs keep their trace caches and write their spans.
const OUT_DIR: &str = ".perfbench";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace `{value}`")),
            },
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("derive-stream-expected") {
        return match ops::derive_stream_expected() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("perfbench: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: clfp-perfbench --workload tables|stream|metrics --seed N --seconds S \
                 --trace 0|1  (run from the repository root)"
            );
            ExitCode::from(2)
        }
    }
}

/// The run's own directory under [`OUT_DIR`], removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(args: &Args) -> Result<RunDir, String> {
        let dir = PathBuf::from(OUT_DIR).join(format!(
            "run-{}-{}-{}",
            args.kind.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)
            .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// SplitMix64: the seed's stream of program orders.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

struct OpSample {
    wall_ms: f64,
    /// Process CPU seconds per wall second over the op.
    cpu_util: f64,
    /// `VmHWM` reached during the op.
    peak_rss_mb: f64,
    traced: bool,
    /// The call succeeded and its output passed the check.
    ok: bool,
    /// The op's result whenever its call succeeded.
    result: Option<OpResult>,
}

fn run(args: &Args) -> Result<String, String> {
    let start = Instant::now();
    let bench = Bench::load(args.kind)?;
    let host = host::Host::capture(bench.git());
    let stamp = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.to_json()
    );
    println!("{stamp}");
    let run_dir = RunDir::create(args)?;
    let mut rng = Rng(args.seed);
    let untraced = Recorder::new();

    // Set up SETUPS times, each into a fresh cache directory and ending
    // with one untimed warm-up op; the last set-up serves the timed ops.
    // The first set-up also pays the benchmark's own start (loading the
    // expected outputs), one reason `setup_s` is a median.
    let mut setup_s = Vec::new();
    let mut ready = None;
    let mut t0 = start;
    for k in 0..SETUPS {
        let set_up = bench.setup(&run_dir.0.join(format!("cache{k}")))?;
        set_up
            .run_op(&rng.shuffled(bench.programs.len()), &untraced)
            .map_err(|err| format!("warm-up op failed: {err}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = ready.replace(set_up) {
            previous.remove_cache();
        }
        t0 = Instant::now();
    }
    let ready = ready.expect("SETUPS is at least one");

    let rec = Recorder::new();
    let mut ops: Vec<OpSample> = Vec::new();
    let timed = Instant::now();
    while ops.len() < MIN_OPS || timed.elapsed().as_secs() < args.seconds {
        let order = rng.shuffled(bench.programs.len());
        // A traced run records every other op, so the untraced ones in
        // between measure the recorder's overhead in the same process.
        let traced = args.trace && ops.len().is_multiple_of(2);
        rec.set_op(ops.len() as u32, traced);
        host::reset_peak_rss();
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let result = ready.run_op(&order, &rec);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_util = (host::cpu_seconds() - cpu0) / (wall_ms / 1e3);
        let peak_rss_mb = clfp_bench::peak_rss_mb();
        rec.set_op(ops.len() as u32, false);
        let checked = result
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| bench.check(&r.output));
        if let Err(err) = &checked {
            eprintln!("perfbench: op {} failed: {err}", ops.len());
        }
        ops.push(OpSample {
            wall_ms,
            cpu_util,
            peak_rss_mb,
            traced,
            ok: checked.is_ok(),
            result: result.ok(),
        });
    }
    drop(ready);
    drop(run_dir);

    let walls: Vec<f64> = ops.iter().map(|o| o.wall_ms).collect();
    eprintln!(
        "perfbench: {} {} ops, op_ms {:?}, peak_rss_mb {:?}, setup_s {:?}",
        args.kind.name(),
        ops.len(),
        walls,
        ops.iter().map(|o| o.peak_rss_mb).collect::<Vec<_>>(),
        setup_s
    );
    let failed = ops.iter().filter(|o| !o.ok).count();
    let first = ops.iter().find_map(|o| o.result.as_ref());
    let raw_instrs = first.map_or(0, |r| r.raw_instrs) as f64;

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let profiles = rec.op_profiles();
        let path = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-seed{}.json",
            args.kind.name(),
            args.seed
        ));
        std::fs::write(&path, rec.chrome_json(&stamp))
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
        layer_metrics(&bench, &ops, &profiles, raw_instrs)
    } else {
        let op_ms = median(&walls);
        vec![
            (
                "throughput_minstr_s".into(),
                raw_instrs / op_ms / 1e3,
                "Minstr/s",
            ),
            ("op_ms.p50".into(), op_ms, "ms"),
            ("setup_s".into(), median(&setup_s), "s"),
            (
                "peak_rss_mb".into(),
                median(&ops.iter().map(|o| o.peak_rss_mb).collect::<Vec<_>>()),
                "MiB",
            ),
        ]
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        ops.len(),
        metrics.join(", ")
    ))
}

/// The per-layer metrics of a traced run: medians over the traced ops of
/// each layer's self time, plus the run-level ratios.
fn layer_metrics(
    bench: &Bench,
    ops: &[OpSample],
    profiles: &[OpProfile],
    raw_instrs: f64,
) -> Vec<(String, f64, &'static str)> {
    let per_op =
        |f: &dyn Fn(&OpProfile) -> f64| median(&profiles.iter().map(f).collect::<Vec<_>>());
    let ms = |name: &'static str| per_op(&|p| p.ms(name));
    let events_produced = per_op(&|p| p.count("core.stream_consume").1 as f64);
    let chunks = per_op(&|p| p.count("core.stream_consume").0 as f64);
    let vm_produce = ms("vm.stream");
    let prepare = ms("core.prepare");
    let lane = ms("core.lane");
    let record = ms("metrics.record");
    let lookups: u64 = ops
        .iter()
        .filter_map(|o| o.result.as_ref())
        .map(|r| r.cache_lookups)
        .sum();
    let hits: u64 = ops
        .iter()
        .filter_map(|o| o.result.as_ref())
        .map(|r| r.cache_hits)
        .sum();
    let walls = |traced: bool| {
        median(
            &ops.iter()
                .filter(|o| o.traced == traced)
                .map(|o| o.wall_ms)
                .collect::<Vec<_>>(),
        )
    };
    let per = |ms: f64, units: f64| if units > 0.0 { ms * 1e6 / units } else { 0.0 };

    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("lang.compile_ms".into(), ms("lang.compile"), "ms"),
        ("cfg.analyzer_new_ms".into(), ms("cfg.analyzer_new"), "ms"),
    ];
    for workload in clfp_workloads::suite() {
        let key = format!("cfg.analyzer_new.{}", workload.name);
        let value = if bench.programs.iter().any(|w| w.name == workload.name) {
            per_op(&|p| p.ms(&key))
        } else {
            0.0
        };
        out.push((
            format!("cfg.analyzer_new_ms.{}", workload.name),
            value,
            "ms",
        ));
    }
    out.extend([
        ("bench.render_ms".into(), ms("bench.render"), "ms"),
        ("vm.trace_load_ms".into(), ms("vm.trace_load"), "ms"),
        (
            "vm.cache_hit_ratio".into(),
            if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
            "ratio",
        ),
        ("vm.summarize_ms".into(), ms("vm.summarize"), "ms"),
        ("vm.produce_ms".into(), vm_produce, "ms"),
        (
            "vm.ns_per_event".into(),
            per(vm_produce, events_produced),
            "ns",
        ),
        (
            "vm.replay_ratio".into(),
            if raw_instrs > 0.0 {
                events_produced / raw_instrs
            } else {
                0.0
            },
            "ratio",
        ),
        ("core.prepare_ms".into(), prepare, "ms"),
        (
            "core.prepare_ns_per_event".into(),
            per(prepare, raw_instrs),
            "ns",
        ),
        ("core.lane_ms".into(), lane, "ms"),
        (
            "core.lane_ns_per_slot_event".into(),
            per(lane, raw_instrs * LANE_SLOTS),
            "ns",
        ),
        (
            "core.stream_consume_ms".into(),
            ms("core.stream_consume"),
            "ms",
        ),
        ("core.stream_chunks".into(), chunks, "count"),
        (
            "core.chunk_events".into(),
            if chunks > 0.0 {
                events_produced / chunks
            } else {
                0.0
            },
            "count",
        ),
        ("metrics.record_ms".into(), record, "ms"),
        (
            "metrics.record_ns_per_machine_event".into(),
            per(record, raw_instrs * RECORDED_MACHINES),
            "ns",
        ),
        (
            "host.cpu_util".into(),
            median(&ops.iter().map(|o| o.cpu_util).collect::<Vec<_>>()),
            "ratio",
        ),
        (
            "spans.coverage".into(),
            per_op(&|p| 100.0 * p.covered_ns as f64 / p.op_ns.max(1) as f64),
            "%",
        ),
        (
            "spans.overhead_pct".into(),
            100.0 * (walls(true) - walls(false)) / walls(false),
            "%",
        ),
    ]);
    out
}

/// Median of `values`; NaN when empty.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
