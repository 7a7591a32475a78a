//! The three workloads: one op each, built from calls into the layers'
//! public functions, plus the output checks run after every op.

use std::path::Path;

use clfp_bench::{
    figure4, figure5, figure6, figure7, static_inventory, table1, table2, table3, table4,
    MetricsSuite, WorkloadMetrics, WorkloadReport,
};
use clfp_isa::Program;
use clfp_limits::{AnalysisConfig, Analyzer, Report, StreamOptions};
use clfp_metrics::RunManifest;
use clfp_vm::{ProgramSource, Trace, TraceCache, TraceSource, VmOptions};
use clfp_workloads::Workload;

use crate::spans::{Recorder, TimedSource};

/// Trace cap of the committed `results/` (regen's default).
const TABLES_CAP: u64 = 2_000_000;
/// Events per program in the `stream` op: above the streaming pipeline's
/// 4M-event threshold, so the threaded broadcast is used.
const STREAM_EVENTS: u64 = 8_000_000;
/// The `stream` programs: the pair `regen --scaling` streams.
const STREAM_PROGRAMS: [&str; 2] = ["qsort", "stencil"];
/// Expected `stream` cycles, relative to the checkout root.
const STREAM_EXPECTED: &str = "perfbench/expected/stream_cycles.txt";
/// Sections of default `regen`, in the order it writes them.
const SECTIONS: [&str; 9] = [
    "table1",
    "inventory",
    "table2",
    "table3",
    "table4",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
];

#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Kind {
    Tables,
    Stream,
    Metrics,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tables" => Some(Kind::Tables),
            "stream" => Some(Kind::Stream),
            "metrics" => Some(Kind::Metrics),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tables => "tables",
            Kind::Stream => "stream",
            Kind::Metrics => "metrics",
        }
    }
}

/// What one op produced, kept only until its check has run.
pub enum Output {
    Sections(Vec<String>),
    Metrics { json: String, attribution: String },
    Cycles(Vec<CycleRow>),
}

/// One expected `stream` value: a machine's cycles for one program and
/// unroll setting.
#[derive(Clone, PartialEq, Debug)]
pub struct CycleRow {
    pub program: String,
    pub unrolling: bool,
    pub machine: String,
    pub cycles: u64,
}

pub struct OpResult {
    pub output: Output,
    /// Raw dynamic instructions the op analyzed.
    pub raw_instrs: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
}

/// A workload with its programs and expected outputs, loaded from the
/// checkout before any timing starts.
pub struct Bench {
    pub kind: Kind,
    pub programs: Vec<Workload>,
    expected: Output,
    /// Manifest handed to the rendered metrics suite; the check ignores it.
    manifest: RunManifest,
    config: AnalysisConfig,
}

/// A set-up workload: the cache directory its ops read from.
pub struct Ready<'a> {
    bench: &'a Bench,
    cache: TraceCache,
}

impl Bench {
    /// Loads the expected outputs of `kind` from the checkout.
    pub fn load(kind: Kind) -> Result<Bench, String> {
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
        };
        let (programs, expected, max_instrs) = match kind {
            Kind::Tables => {
                let mut sections = Vec::new();
                for name in SECTIONS {
                    let path = format!("results/{name}.md");
                    sections.push(below_manifest(&read(&path)?, &path)?.to_string());
                }
                (
                    clfp_workloads::suite(),
                    Output::Sections(sections),
                    TABLES_CAP,
                )
            }
            Kind::Metrics => {
                let path = "results/attribution.md";
                let attribution = below_manifest(&read(path)?, path)?.to_string();
                let json = read("results/metrics_suite.json")?;
                (
                    clfp_workloads::suite(),
                    Output::Metrics { json, attribution },
                    TABLES_CAP,
                )
            }
            Kind::Stream => {
                let rows = parse_cycles(&read(STREAM_EXPECTED)?)?;
                (stream_programs()?, Output::Cycles(rows), STREAM_EVENTS)
            }
        };
        let config = AnalysisConfig {
            max_instrs,
            ..AnalysisConfig::default()
        };
        Ok(Bench {
            kind,
            programs,
            expected,
            manifest: clfp_bench::suite_manifest(&config),
            config,
        })
    }

    pub fn git(&self) -> String {
        self.manifest.git.clone()
    }

    fn vm_options(&self) -> VmOptions {
        VmOptions {
            mem_words: self.config.mem_words,
        }
    }

    /// Compiles every program and, for the cached workloads, fills a fresh
    /// trace cache in `cache_dir` from cold and flushes it to disk, so that
    /// its writeback does not land in the timed ops.
    pub fn setup(&self, cache_dir: &Path) -> Result<Ready<'_>, String> {
        let cache = TraceCache::new(cache_dir);
        for workload in &self.programs {
            let program = compile(workload)?;
            if self.kind != Kind::Stream {
                let (_, warm) = cache
                    .ensure(&program, self.vm_options(), self.config.max_instrs)
                    .map_err(|err| format!("{}: {err}", workload.name))?;
                if warm {
                    return Err(format!("fresh cache {} was not cold", cache_dir.display()));
                }
            }
        }
        if self.kind != Kind::Stream {
            sync_dir(cache_dir)
                .map_err(|err| format!("cannot flush {}: {err}", cache_dir.display()))?;
        }
        Ok(Ready { bench: self, cache })
    }

    /// Compares an op's output with the expected one.
    pub fn check(&self, output: &Output) -> Result<(), String> {
        match (&self.expected, output) {
            (Output::Sections(expected), Output::Sections(got)) => {
                for ((name, want), have) in SECTIONS.iter().zip(expected).zip(got) {
                    same_text(want, have, &format!("results/{name}.md"))?;
                }
                Ok(())
            }
            (
                Output::Metrics { json, attribution },
                Output::Metrics {
                    json: got_json,
                    attribution: got_attribution,
                },
            ) => {
                same_text(
                    &without_manifest(json),
                    &without_manifest(got_json),
                    "results/metrics_suite.json",
                )?;
                same_text(attribution, got_attribution, "results/attribution.md")
            }
            (Output::Cycles(expected), Output::Cycles(got)) => check_cycles(expected, got),
            _ => Err("op produced the wrong kind of output".to_string()),
        }
    }
}

impl Ready<'_> {
    /// Deletes this set-up's trace cache.
    pub fn remove_cache(self) {
        std::fs::remove_dir_all(self.cache.dir()).ok();
    }

    /// Runs one op over the programs in `order` (indices into the
    /// workload's program list).
    pub fn run_op(&self, order: &[usize], rec: &Recorder) -> Result<OpResult, String> {
        let op = rec.open("op", "", None);
        let result = match self.bench.kind {
            Kind::Tables | Kind::Metrics => self.cached_op(order, rec, op),
            Kind::Stream => self.stream_op(order, rec, op),
        };
        rec.close(op, 0);
        result
    }

    /// `tables` and `metrics`: compile, front end, warm cache load and
    /// preparation per program, then either the lane walk or the metrics
    /// recording walk, then rendering.
    fn cached_op(
        &self,
        order: &[usize],
        rec: &Recorder,
        op: Option<usize>,
    ) -> Result<OpResult, String> {
        let bench = self.bench;
        let mut reports = Vec::new();
        let mut metrics = Vec::new();
        let (mut raw_instrs, mut hits) = (0, 0);
        for &index in order {
            let workload = bench.programs[index];
            let name = workload.name;
            let program = rec.layer("lang.compile", name, op, |_| compile(&workload))?;
            let analyzer = rec
                .layer("cfg.analyzer_new", name, op, |_| {
                    Analyzer::new(&program, bench.config.clone())
                })
                .map_err(|err| format!("{name}: {err}"))?;
            let (trace, warm) = rec
                .layer("vm.trace_load", name, op, |_| {
                    self.cache
                        .ensure(&program, bench.vm_options(), bench.config.max_instrs)
                })
                .map_err(|err| format!("{name}: {err}"))?;
            raw_instrs += trace.len() as u64;
            hits += u64::from(warm);
            if bench.kind == Kind::Tables {
                let prepared = rec.layer("core.prepare", name, op, |_| analyzer.prepare(&trace));
                let (unrolled, rolled) =
                    rec.layer("core.lane", name, op, |_| prepared.report_both());
                // Freeing counts to the layer that allocated, so the layer
                // spans cover the whole op.
                rec.layer("core.prepare", name, op, |_| drop(prepared));
                reports.push((
                    index,
                    WorkloadReport {
                        workload,
                        unrolled,
                        rolled,
                    },
                ));
            } else {
                let summary = rec.layer("vm.summarize", name, op, |_| trace.summarize(&program));
                let prepared = rec.layer("core.prepare", name, op, |_| analyzer.prepare(&trace));
                let machines =
                    rec.layer("metrics.record", name, op, |_| prepared.machine_metrics());
                rec.layer("core.prepare", name, op, |_| drop(prepared));
                let seq_instrs = machines.first().map_or(0, |(_, m)| m.instrs);
                metrics.push((
                    index,
                    WorkloadMetrics {
                        name,
                        raw_instrs: trace.len() as u64,
                        seq_instrs,
                        trace: summary,
                        machines,
                    },
                ));
            }
            rec.layer("vm.trace_load", name, op, |_| drop(trace));
        }
        // Rendering reads the programs in suite order, whatever order the
        // seed ran them in.
        reports.sort_by_key(|(index, _)| *index);
        metrics.sort_by_key(|(index, _)| *index);
        let output = rec.layer("bench.render", "", op, |_| {
            if bench.kind == Kind::Tables {
                let reports: Vec<WorkloadReport> = reports.into_iter().map(|(_, r)| r).collect();
                Output::Sections(render_tables(&reports))
            } else {
                let suite = MetricsSuite {
                    max_instrs: bench.config.max_instrs,
                    unrolling: bench.config.unrolling,
                    manifest: bench.manifest.clone(),
                    reports: metrics.into_iter().map(|(_, m)| m).collect(),
                };
                Output::Metrics {
                    json: suite.to_json(),
                    attribution: suite.attribution_md(),
                }
            }
        });
        Ok(OpResult {
            output,
            raw_instrs,
            cache_lookups: order.len() as u64,
            cache_hits: hits,
        })
    }

    /// `stream`: front end, then the two-pass streamed analysis of a
    /// repeated execution, per program.
    fn stream_op(
        &self,
        order: &[usize],
        rec: &Recorder,
        op: Option<usize>,
    ) -> Result<OpResult, String> {
        let bench = self.bench;
        let mut rows = Vec::new();
        let mut raw_instrs = 0;
        for &index in order {
            let workload = bench.programs[index];
            let name = workload.name;
            let program = rec.layer("lang.compile", name, op, |_| compile(&workload))?;
            let analyzer = rec
                .layer("cfg.analyzer_new", name, op, |_| {
                    Analyzer::new(&program, bench.config.clone())
                })
                .map_err(|err| format!("{name}: {err}"))?;
            let source = ProgramSource::new(&program, bench.vm_options(), STREAM_EVENTS).repeated();
            let streamed = rec
                .layer("core.run_streamed", name, op, |id| {
                    let timed = TimedSource {
                        inner: &source,
                        rec,
                        program: name,
                        parent: id,
                    };
                    let source: &dyn TraceSource = if rec.enabled() { &timed } else { &source };
                    analyzer.run_streamed_on(source, StreamOptions::default())
                })
                .map_err(|err| format!("{name}: {err}"))?;
            raw_instrs += streamed.unrolled.raw_instrs;
            rows.extend(cycle_rows(name, true, &streamed.unrolled));
            rows.extend(cycle_rows(name, false, &streamed.rolled));
        }
        sort_cycle_rows(&mut rows);
        Ok(OpResult {
            output: Output::Cycles(rows),
            raw_instrs,
            cache_lookups: 0,
            cache_hits: 0,
        })
    }
}

fn stream_programs() -> Result<Vec<Workload>, String> {
    STREAM_PROGRAMS
        .iter()
        .map(|name| clfp_workloads::by_name(name).map_err(|err| err.to_string()))
        .collect()
}

/// Program order, then unrolled before rolled: the seed-independent order
/// the expected-cycles file uses.
fn sort_cycle_rows(rows: &mut [CycleRow]) {
    rows.sort_by(|a, b| {
        a.program
            .cmp(&b.program)
            .then(b.unrolling.cmp(&a.unrolling))
    });
}

fn compile(workload: &Workload) -> Result<Program, String> {
    workload
        .compile()
        .map_err(|err| format!("{}: {err}", workload.name))
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        std::fs::File::open(entry?.path())?.sync_all()?;
    }
    std::fs::File::open(dir)?.sync_all()
}

fn render_tables(reports: &[WorkloadReport]) -> Vec<String> {
    vec![
        table1(),
        static_inventory(),
        table2(reports),
        table3(reports),
        table4(reports),
        figure4(reports),
        figure5(reports),
        figure6(reports),
        figure7(reports),
    ]
}

fn cycle_rows(program: &str, unrolling: bool, report: &Report) -> Vec<CycleRow> {
    report
        .results
        .iter()
        .map(|r| CycleRow {
            program: program.to_string(),
            unrolling,
            machine: r.kind.name().to_string(),
            cycles: r.cycles,
        })
        .collect()
}

/// The text below a committed artifact's `clfp-manifest` comment, as
/// `regen` printed it.
fn below_manifest<'a>(contents: &'a str, path: &str) -> Result<&'a str, String> {
    contents
        .strip_prefix("<!-- clfp-manifest")
        .and_then(|rest| rest.split_once("-->\n"))
        .map(|(_, body)| body.strip_prefix('\n').unwrap_or(body))
        .ok_or_else(|| format!("{path} has no clfp-manifest header"))
}

/// A JSON artifact with its `"manifest": {...}` object removed.
fn without_manifest(json: &str) -> String {
    let mut out = String::new();
    let mut skipping = false;
    for line in json.lines() {
        if line.trim_start().starts_with("\"manifest\": {") {
            skipping = true;
        }
        if !skipping {
            out.push_str(line);
            out.push('\n');
        }
        if skipping && line.trim_start().starts_with('}') {
            skipping = false;
        }
    }
    out
}

fn same_text(expected: &str, got: &str, what: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let line = expected
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.lines().count().min(got.lines().count()));
    Err(format!(
        "output differs from {what} at line {}: expected {:?}, got {:?}",
        line + 1,
        expected.lines().nth(line).unwrap_or("<end>"),
        got.lines().nth(line).unwrap_or("<end>"),
    ))
}

/// Parses the expected-cycles file: `program on|off machine cycles` per
/// line, `#` comments.
pub fn parse_cycles(text: &str) -> Result<Vec<CycleRow>, String> {
    let mut rows = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("{STREAM_EXPECTED}:{}: bad line `{line}`", n + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [program, unroll, machine, cycles] = fields[..] else {
            return Err(bad());
        };
        rows.push(CycleRow {
            program: program.to_string(),
            unrolling: match unroll {
                "on" => true,
                "off" => false,
                _ => return Err(bad()),
            },
            machine: machine.to_string(),
            cycles: cycles.parse().map_err(|_| bad())?,
        });
    }
    if rows.is_empty() {
        return Err(format!("{STREAM_EXPECTED} holds no values"));
    }
    Ok(rows)
}

pub fn format_cycles(rows: &[CycleRow]) -> String {
    rows.iter()
        .map(|r| {
            let unroll = if r.unrolling { "on" } else { "off" };
            format!("{} {unroll} {} {}\n", r.program, r.machine, r.cycles)
        })
        .collect()
}

fn check_cycles(expected: &[CycleRow], got: &[CycleRow]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "expected {} machine results, got {}",
            expected.len(),
            got.len()
        ));
    }
    for (want, have) in expected.iter().zip(got) {
        if want != have {
            return Err(format!(
                "expected `{}`, got `{}`",
                format_cycles(std::slice::from_ref(want)).trim(),
                format_cycles(std::slice::from_ref(have)).trim()
            ));
        }
    }
    Ok(())
}

/// Derives the expected `stream` cycles: the same events the op streams,
/// captured in memory and analyzed by the reference one-machine-at-a-time
/// pass and by the lane kernel, which must agree.
pub fn derive_stream_expected() -> Result<String, String> {
    let config = AnalysisConfig {
        max_instrs: STREAM_EVENTS,
        ..AnalysisConfig::default()
    };
    let vm_options = VmOptions {
        mem_words: config.mem_words,
    };
    let mut rows = Vec::new();
    for workload in &stream_programs()? {
        let program = compile(workload)?;
        let source = ProgramSource::new(&program, vm_options, STREAM_EVENTS).repeated();
        let mut events = Vec::with_capacity(STREAM_EVENTS as usize);
        source
            .stream(1 << 16, &mut |chunk| events.extend_from_slice(chunk))
            .map_err(|err| err.to_string())?;
        let trace = Trace::from_events(events);
        let analyzer = Analyzer::new(&program, config.clone()).map_err(|err| err.to_string())?;
        let (unrolled, rolled) = analyzer.prepare(&trace).report_both();
        for (unrolling, lane) in [(true, unrolled), (false, rolled)] {
            let config = AnalysisConfig {
                unrolling,
                ..config.clone()
            };
            let reference = Analyzer::new(&program, config)
                .map_err(|err| err.to_string())?
                .run_on_trace_reference(&trace);
            let lane_rows = cycle_rows(workload.name, unrolling, &lane);
            if lane_rows != cycle_rows(workload.name, unrolling, &reference) {
                return Err(format!(
                    "{}: lane kernel and reference pass disagree",
                    workload.name
                ));
            }
            rows.extend(lane_rows);
        }
    }
    sort_cycle_rows(&mut rows);
    Ok(format!(
        "# Per-machine cycles of the `stream` op: {STREAM_EVENTS} events of repeated\n\
         # execution per program, both unroll settings. Derived once with\n\
         # `derive-stream-expected` from run_on_trace_reference and report_both\n\
         # on the same events held in memory.\n\
         # program unrolling machine cycles\n{}",
        format_cycles(&rows)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_cycle_count_fails_the_check() {
        let text = "qsort on BASE 10\nqsort off BASE 12\n";
        let expected = parse_cycles(text).unwrap();
        assert!(check_cycles(&expected, &expected).is_ok());
        let mut wrong = expected.clone();
        wrong[1].cycles += 1;
        let err = check_cycles(&wrong, &expected).unwrap_err();
        assert!(err.contains("qsort off BASE 13"), "{err}");
    }

    #[test]
    fn manifest_is_ignored_but_content_is_not() {
        let a = "{\n  \"x\": 1,\n  \"manifest\": {\n    \"git\": \"a\"\n  },\n  \"y\": 2\n}\n";
        let b = a.replace("\"a\"", "\"b\"");
        assert_eq!(without_manifest(a), without_manifest(&b));
        assert_ne!(without_manifest(a), without_manifest(&a.replace('2', "3")));
    }

    #[test]
    fn body_below_manifest_comment() {
        let file = "<!-- clfp-manifest v1\n  config_hash: 1\n-->\n\n## T\n";
        assert_eq!(below_manifest(file, "t").unwrap(), "## T\n");
        assert!(below_manifest("## T\n", "t").is_err());
    }
}
