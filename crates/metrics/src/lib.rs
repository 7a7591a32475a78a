//! Observability layer for the clfp limit study.
//!
//! The machine passes in `clfp-limits` answer *how much* parallelism each
//! abstract machine finds; this crate answers *why*. It provides:
//!
//! * [`MetricsSink`] — a zero-cost instrumentation hook for the lane
//!   scheduling kernel (one sink per lane). The trait carries a
//!   `const ENABLED` flag so that the [`NullSink`] path monomorphizes to
//!   exactly the uninstrumented hot loop (every `if S::ENABLED` block is
//!   statically eliminated).
//! * [`MetricsCollector`] / [`MachineMetrics`] — the enabled sink. Records
//!   each dynamic instruction's *binding edge* (the dependence that
//!   determined its issue time) in 5 bytes and tallies issue cycles
//!   online, then distills them into a cycle-occupancy histogram
//!   ([`OccupancyHistogram`]), critical-path attribution
//!   ([`CriticalPathAttribution`]) and whole-run flow-break counters
//!   ([`FlowCounters`]).
//! * [`RunManifest`] — provenance for generated artifacts: git describe,
//!   a hash of the analysis configuration, trace cap, unroll setting,
//!   wall-clock timestamp and host parallelism, embedded as a comment
//!   header in every `results/*.md` file and as a field in the JSON
//!   artifacts so results can be traced back to the run that produced them.
//!
//! Binding edges are classified with [`EdgeKind`]: register data
//! dependence, memory data dependence, the machine's own control
//! constraint, or the single-flow merge ordering that only exists on
//! non-MF machines. See `docs/OBSERVABILITY.md` for the full semantics
//! and a worked read-through of an attribution table.
//!
//! The [`trace`] module adds the wall-clock counterpart: span/counter
//! recording over the whole pipeline with Chrome trace-event / Perfetto
//! export (`regen --trace`), off by default and zero-cost when off.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

pub mod trace;

/// Sentinel parent index: the binding edge has no recorded producer event
/// (e.g. an anti-dependence on an untracked reader when renaming is off).
pub const NO_PARENT: u32 = u32::MAX;

/// Classification of the dependence edge that bound a dynamic
/// instruction's issue cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// True (or, with renaming off, anti/output) register dependence.
    RegData,
    /// Memory dependence through the disambiguated last-write table.
    MemData,
    /// The machine's own control constraint: BASE waits on the last
    /// preceding conditional branch, CD machines on the resolved
    /// control-dependence source, SP machines on the last misprediction.
    Control,
    /// The extra branch-ordering constraint that exists only on
    /// single-flow machines: CD serializes all branches, SP-CD serializes
    /// mispredicted branches. Vanishes on the -MF machines — this edge is
    /// exactly what "multiple flows of control" removes.
    MfMerge,
}

impl EdgeKind {
    /// All kinds, in report order.
    pub const ALL: [EdgeKind; 4] = [
        EdgeKind::RegData,
        EdgeKind::MemData,
        EdgeKind::Control,
        EdgeKind::MfMerge,
    ];

    /// Short human-readable name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::RegData => "reg-data",
            EdgeKind::MemData => "mem-data",
            EdgeKind::Control => "control",
            EdgeKind::MfMerge => "mf-merge",
        }
    }

    fn code(self) -> u8 {
        match self {
            EdgeKind::RegData => 1,
            EdgeKind::MemData => 2,
            EdgeKind::Control => 3,
            EdgeKind::MfMerge => 4,
        }
    }

    fn from_code(code: u8) -> Option<EdgeKind> {
        match code {
            1 => Some(EdgeKind::RegData),
            2 => Some(EdgeKind::MemData),
            3 => Some(EdgeKind::Control),
            4 => Some(EdgeKind::MfMerge),
            _ => None,
        }
    }

    fn index(self) -> usize {
        self.code() as usize - 1
    }
}

/// The dependence edge that determined an instruction's issue cycle:
/// its kind, and the trace index of the producing event ([`NO_PARENT`]
/// when no producer event is recorded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BindingEdge {
    pub kind: EdgeKind,
    pub parent: u32,
}

impl BindingEdge {
    pub fn new(kind: EdgeKind, parent: u32) -> Self {
        BindingEdge { kind, parent }
    }
}

/// Instrumentation hook for the machine passes.
///
/// The lane kernel is generic over `S: MetricsSink` and guards every
/// metrics-only computation with `if S::ENABLED { ... }`. Because
/// `ENABLED` is an associated *constant*, the [`NullSink`] instantiation
/// compiles to the bare hot loop — the instrumented and uninstrumented
/// pipelines are the same source, not two copies that can drift.
pub trait MetricsSink {
    /// Statically known on/off switch; `false` removes all metrics code.
    const ENABLED: bool;

    /// Called once per trace event, in trace order. Scheduled
    /// instructions report their issue cycle `exec` (≥ 1) and completion
    /// cycle `done`, plus the binding edge if one bound (`None` means the
    /// instruction was ready at cycle 0 or was bound by the fetch-width
    /// term). Ignored events (deleted by the inline/unroll masks) report
    /// `exec == 0`.
    fn on_schedule(&mut self, index: u32, exec: u64, done: u64, edge: Option<BindingEdge>);
}

/// The metrics-off sink: every hook is a statically eliminated no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl MetricsSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_schedule(&mut self, _index: u32, _exec: u64, _done: u64, _edge: Option<BindingEdge>) {}
}

/// The metrics-on sink for one machine pass: stores only what the
/// critical-path walk needs per event — the binding edge's kind (1 byte)
/// and producer (4 bytes) — and keeps every other summary online
/// (instructions issued per cycle, flow counters, the instruction count,
/// the maximum completion time and the last event reaching it).
/// [`finish`](MetricsCollector::finish)es into [`MachineMetrics`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    /// [`EdgeKind`] code of each event's binding edge (0 = none; ignored
    /// events record none).
    edge_kind: Vec<u8>,
    /// Producer event of each binding edge ([`NO_PARENT`] if none).
    edge_parent: Vec<u32>,
    /// Instructions issued in each cycle, indexed by issue cycle.
    per_cycle: Vec<u32>,
    /// Scheduled instructions per binding-edge code (0 = unconstrained),
    /// so counting is an index, not a branch.
    by_code: [u64; 5],
    /// Maximum completion time over the scheduled instructions.
    cycles: u64,
    /// Last scheduled event completing at `cycles`: the chain-walk start.
    chain_end: Option<u32>,
}

impl MetricsCollector {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(events: usize) -> Self {
        MetricsCollector {
            edge_kind: Vec::with_capacity(events),
            edge_parent: Vec::with_capacity(events),
            ..Self::default()
        }
    }

    /// Number of events recorded so far (scheduled + ignored).
    pub fn len(&self) -> usize {
        self.edge_kind.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edge_kind.is_empty()
    }

    /// Distill the recorded schedule into summary metrics.
    pub fn finish(self) -> MachineMetrics {
        let [unconstrained, by_kind @ ..] = self.by_code;
        MachineMetrics {
            instrs: self.instrs(),
            cycles: self.cycles,
            occupancy: self.occupancy(),
            attribution: self.walk_critical_path(),
            flow: FlowCounters {
                by_kind,
                unconstrained,
            },
        }
    }

    fn instrs(&self) -> u64 {
        self.by_code.iter().sum()
    }

    /// One pass over the per-cycle issue counts, summing each busy cycle
    /// into the power-of-two bucket of its width.
    fn occupancy(&self) -> OccupancyHistogram {
        // (cycles, instrs) per bucket; bucket b holds widths [2^b, 2^(b+1)).
        let mut by_bucket = [(0u64, 0u64); 64];
        let mut busy_cycles = 0u64;
        let mut peak = 0u64;
        for &width in &self.per_cycle {
            if width == 0 {
                continue;
            }
            let width = u64::from(width);
            busy_cycles += 1;
            peak = peak.max(width);
            let bucket = &mut by_bucket[width.ilog2() as usize];
            bucket.0 += 1;
            bucket.1 += width;
        }
        OccupancyHistogram {
            buckets: by_bucket
                .iter()
                .enumerate()
                .filter(|(_, &(cycles, _))| cycles != 0)
                .map(|(b, &(cycles, instrs))| OccupancyBucket {
                    width_low: 1 << b,
                    cycles,
                    instrs,
                })
                .collect(),
            cycles: self.cycles,
            busy_cycles,
            instrs: self.instrs(),
            peak,
        }
    }

    /// Reconstruct the longest dependence chain by walking binding-edge
    /// parents back from the last instruction to complete, counting the
    /// edge kind of every hop.
    fn walk_critical_path(&self) -> CriticalPathAttribution {
        let mut attr = CriticalPathAttribution::default();
        let Some(mut cur) = self.chain_end.map(|i| i as usize) else {
            return attr;
        };
        loop {
            attr.chain_len += 1;
            let Some(kind) = EdgeKind::from_code(self.edge_kind[cur]) else {
                // Ready at cycle 0 or fetch-bound: the chain starts here.
                attr.terminators += 1;
                break;
            };
            attr.counts[kind.index()] += 1;
            let parent = self.edge_parent[cur];
            // Parents always precede their consumers in trace order; the
            // strict inequality also guards the walk against cycles.
            if parent != NO_PARENT && (parent as usize) < cur {
                cur = parent as usize;
            } else {
                break;
            }
        }
        attr
    }
}

impl MetricsSink for MetricsCollector {
    const ENABLED: bool = true;

    #[inline]
    fn on_schedule(&mut self, index: u32, exec: u64, done: u64, edge: Option<BindingEdge>) {
        debug_assert_eq!(index as usize, self.edge_kind.len());
        let (code, parent) = edge.map_or((0, NO_PARENT), |e| (e.kind.code(), e.parent));
        self.edge_kind.push(code);
        self.edge_parent.push(parent);
        if exec == 0 {
            return;
        }
        self.by_code[code as usize] += 1;
        let cycle = exec as usize;
        if cycle >= self.per_cycle.len() {
            self.per_cycle.resize(cycle + 1, 0);
        }
        self.per_cycle[cycle] += 1;
        // `>=`: the last event reaching the maximum starts the chain,
        // mirroring the scheduler's later-wins tie-breaking.
        if done >= self.cycles {
            self.cycles = done;
            self.chain_end = Some(index);
        }
    }
}

/// Everything one machine pass learned about one workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineMetrics {
    /// Scheduled (non-ignored) dynamic instructions.
    pub instrs: u64,
    /// Critical-path length in cycles (max completion time).
    pub cycles: u64,
    pub occupancy: OccupancyHistogram,
    pub attribution: CriticalPathAttribution,
    pub flow: FlowCounters,
}

impl MachineMetrics {
    /// Instructions per cycle over the whole run — the paper's
    /// "parallelism" metric, recomputed from the recorded schedule.
    pub fn parallelism(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// One geometric bucket of the cycle-occupancy histogram: cycles that
/// issued between `width_low` and `2 * width_low - 1` instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OccupancyBucket {
    pub width_low: u64,
    /// Number of cycles with an occupancy in this bucket.
    pub cycles: u64,
    /// Instructions issued across those cycles.
    pub instrs: u64,
}

/// How many instructions issue per cycle: the shape behind the mean.
///
/// A parallelism of 100 can be a steady 100-wide stream or millisecond
/// bursts of thousands separated by serial crawls; the histogram (and
/// [`fraction_in_wide_cycles`](OccupancyHistogram::fraction_in_wide_cycles))
/// distinguishes the two.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    /// Geometric buckets by occupancy width, ascending, only non-empty ones.
    pub buckets: Vec<OccupancyBucket>,
    /// Critical-path cycles (max completion time).
    pub cycles: u64,
    /// Cycles in which at least one instruction issued.
    pub busy_cycles: u64,
    /// Total instructions issued.
    pub instrs: u64,
    /// Widest single cycle.
    pub peak: u64,
}

impl OccupancyHistogram {
    /// Mean occupancy over critical-path cycles = parallelism.
    pub fn mean(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Fraction of all instructions issued in cycles at least `width` wide.
    pub fn fraction_in_wide_cycles(&self, width: u64) -> f64 {
        if self.instrs == 0 {
            return 0.0;
        }
        let wide: u64 = self
            .buckets
            .iter()
            // A geometric bucket straddling `width` undercounts slightly;
            // callers pass power-of-two thresholds where this is exact.
            .filter(|b| b.width_low >= width)
            .map(|b| b.instrs)
            .sum();
        wide as f64 / self.instrs as f64
    }
}

/// Edge-kind breakdown of the critical path: for each instruction on the
/// longest dependence chain, which kind of edge bound it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathAttribution {
    /// Hops per [`EdgeKind`], indexed in [`EdgeKind::ALL`] order.
    pub counts: [u64; 4],
    /// Chain heads: instructions ready at cycle 0 or bound only by the
    /// fetch-width term (which has no single producer event).
    pub terminators: u64,
    /// Instructions on the reconstructed chain.
    pub chain_len: u64,
}

impl CriticalPathAttribution {
    /// Total classified hops (excludes chain heads).
    pub fn classified(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentage of classified critical-path hops bound by `kind`.
    pub fn percent(&self, kind: EdgeKind) -> f64 {
        let total = self.classified();
        if total == 0 {
            0.0
        } else {
            self.counts[kind.index()] as f64 * 100.0 / total as f64
        }
    }
}

/// Whole-run binding-edge counters: how many instructions were bound by
/// each kind of dependence (not just those on the critical path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Instructions whose binding edge had each [`EdgeKind`], indexed in
    /// [`EdgeKind::ALL`] order.
    pub by_kind: [u64; 4],
    /// Instructions ready at cycle 0 or bound by fetch bandwidth.
    pub unconstrained: u64,
}

impl FlowCounters {
    /// Instructions stalled by a control-flow constraint of either kind —
    /// the run's "flow break" count.
    pub fn control_bound(&self) -> u64 {
        self.by_kind[EdgeKind::Control.index()] + self.by_kind[EdgeKind::MfMerge.index()]
    }

    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum::<u64>() + self.unconstrained
    }
}

/// 64-bit FNV-1a over a byte string; stable across runs and platforms.
/// Used to fingerprint the analysis configuration in [`RunManifest`].
pub fn fnv1a64(data: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Provenance record for a generated artifact: enough to tell whether two
/// results files were produced under the same configuration, by which
/// build, and when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Generator crate version (`CARGO_PKG_VERSION` of `clfp-metrics`;
    /// the workspace shares one version).
    pub version: String,
    /// `git describe --always --dirty`, or `"unknown"` outside a checkout.
    pub git: String,
    /// FNV-1a hash (hex) of the canonical analysis-config fingerprint.
    pub config_hash: String,
    /// Trace cap in dynamic instructions.
    pub max_instrs: u64,
    /// Whether perfect unrolling was enabled.
    pub unrolling: bool,
    /// Wall-clock at generation, UTC, `YYYY-MM-DDTHH:MM:SSZ`.
    pub generated_utc: String,
    /// Same instant as seconds since the Unix epoch.
    pub unix_secs: u64,
    /// `std::thread::available_parallelism` on the generating host.
    pub host_threads: usize,
    /// Worker-pool size the suite actually fanned out over (the host
    /// parallelism capped at the workload count), when the generator
    /// recorded it ([`RunManifest::with_pool_threads`]).
    pub pool_threads: Option<usize>,
    /// Trace-cache state of the run — `"off"`, `"cold"`, or `"warm"` —
    /// when the generator recorded it ([`RunManifest::with_cache`]).
    pub cache: Option<String>,
}

impl RunManifest {
    /// Capture the current environment plus the given config fingerprint
    /// (see `AnalysisConfig::fingerprint` in `clfp-limits`).
    pub fn capture(config_fingerprint: &str, max_instrs: u64, unrolling: bool) -> Self {
        let unix_secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        RunManifest {
            version: env!("CARGO_PKG_VERSION").to_string(),
            git: git_describe(),
            config_hash: format!("{:016x}", fnv1a64(config_fingerprint)),
            max_instrs,
            unrolling,
            generated_utc: format_utc(unix_secs),
            unix_secs,
            host_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            pool_threads: None,
            cache: None,
        }
    }

    /// Records the worker-pool size the suite actually used.
    #[must_use]
    pub fn with_pool_threads(mut self, pool_threads: usize) -> Self {
        self.pool_threads = Some(pool_threads);
        self
    }

    /// Records the trace-cache state of the run (`"off"`, `"cold"`, or
    /// `"warm"`).
    #[must_use]
    pub fn with_cache(mut self, cache: &str) -> Self {
        self.cache = Some(cache.to_string());
        self
    }

    /// The HTML-comment header prepended to every `results/*.md` artifact.
    /// Invisible in rendered markdown; greppable in the raw file.
    pub fn to_markdown_header(&self) -> String {
        let mut extra = String::new();
        if let Some(pool) = self.pool_threads {
            extra.push_str(&format!("  pool_threads: {pool}\n"));
        }
        if let Some(cache) = &self.cache {
            extra.push_str(&format!("  cache: {cache}\n"));
        }
        format!(
            "<!-- clfp-manifest v1\n  generator: clfp {} (git {})\n  config_hash: {}\n  max_instrs: {}  unrolling: {}\n  generated: {} (unix {})\n  host_threads: {}\n{extra}-->\n",
            self.version,
            self.git,
            self.config_hash,
            self.max_instrs,
            if self.unrolling { "on" } else { "off" },
            self.generated_utc,
            self.unix_secs,
            self.host_threads,
        )
    }

    /// The manifest as a JSON object (no trailing newline), each line
    /// prefixed with `indent` except the first.
    pub fn to_json_object(&self, indent: &str) -> String {
        let field = |key: &str, value: String| format!("{indent}  \"{key}\": {value}");
        let mut lines = vec![
            field("version", format!("\"{}\"", escape_json(&self.version))),
            field("git", format!("\"{}\"", escape_json(&self.git))),
            field("config_hash", format!("\"{}\"", self.config_hash)),
            field("max_instrs", self.max_instrs.to_string()),
            field("unrolling", self.unrolling.to_string()),
            field("generated_utc", format!("\"{}\"", self.generated_utc)),
            field("unix_secs", self.unix_secs.to_string()),
            field("host_threads", self.host_threads.to_string()),
        ];
        if let Some(pool) = self.pool_threads {
            lines.push(field("pool_threads", pool.to_string()));
        }
        if let Some(cache) = &self.cache {
            lines.push(field("cache", format!("\"{}\"", escape_json(cache))));
        }
        format!("{{\n{}\n{indent}}}", lines.join(",\n"))
    }

    /// Extract the `config_hash` from a file that begins with (or
    /// contains) a `clfp-manifest` header — markdown or JSON. Returns
    /// `None` for pre-manifest files, which callers treat as "unknown
    /// provenance, refuse to overwrite without --force".
    pub fn config_hash_of(contents: &str) -> Option<String> {
        for line in contents.lines().take(64) {
            let trimmed = line.trim().trim_start_matches('"');
            if let Some(rest) = trimmed.strip_prefix("config_hash") {
                let value = rest
                    .trim_start_matches('"')
                    .trim_start()
                    .trim_start_matches(':')
                    .trim()
                    .trim_matches(|c| c == '"' || c == ',');
                if !value.is_empty() {
                    return Some(value.to_string());
                }
            }
        }
        None
    }
}

fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Unix seconds → `YYYY-MM-DDTHH:MM:SSZ` (proleptic Gregorian, UTC).
fn format_utc(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs_of_day = unix_secs % 86_400;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs_of_day / 3600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60
    )
}

/// Render a proportional ASCII bar of at most `width` characters.
/// Shared by the profiling examples so they don't each hand-roll one.
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.clamp(1, width))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(schedule: &[(u64, u64, Option<BindingEdge>)]) -> MetricsCollector {
        let mut sink = MetricsCollector::new();
        for (i, &(exec, done, edge)) in schedule.iter().enumerate() {
            sink.on_schedule(i as u32, exec, done, edge);
        }
        sink
    }

    #[test]
    fn occupancy_histogram_buckets_by_power_of_two() {
        // Cycle 1: three instrs; cycle 2: one instr; one ignored event.
        let sink = collect(&[
            (1, 1, None),
            (1, 1, None),
            (1, 1, None),
            (2, 2, None),
            (0, 0, None),
        ]);
        let m = sink.finish();
        assert_eq!(m.instrs, 4);
        assert_eq!(m.cycles, 2);
        assert_eq!(m.occupancy.peak, 3);
        assert_eq!(m.occupancy.busy_cycles, 2);
        // Width 3 lands in the [2,4) bucket, width 1 in [1,2).
        assert_eq!(
            m.occupancy.buckets,
            vec![
                OccupancyBucket {
                    width_low: 1,
                    cycles: 1,
                    instrs: 1
                },
                OccupancyBucket {
                    width_low: 2,
                    cycles: 1,
                    instrs: 3
                },
            ]
        );
        assert!((m.occupancy.mean() - 2.0).abs() < 1e-12);
        assert!((m.occupancy.fraction_in_wide_cycles(2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn critical_path_walk_counts_edge_kinds() {
        use EdgeKind::*;
        // Chain: 3 <-control- 2 <-reg- 1 <-mem- 0 (head, no edge).
        let sink = collect(&[
            (1, 1, None),
            (2, 2, Some(BindingEdge::new(MemData, 0))),
            (3, 3, Some(BindingEdge::new(RegData, 1))),
            (4, 4, Some(BindingEdge::new(Control, 2))),
            (1, 1, None), // off-chain
        ]);
        let attr = sink.finish().attribution;
        assert_eq!(attr.chain_len, 4);
        assert_eq!(attr.terminators, 1);
        assert_eq!(attr.counts, [1, 1, 1, 0]);
        let total: f64 = EdgeKind::ALL.iter().map(|&k| attr.percent(k)).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_walk_stops_at_unparented_edge() {
        use EdgeKind::*;
        let sink = collect(&[
            (1, 1, None),
            (2, 2, Some(BindingEdge::new(RegData, NO_PARENT))),
        ]);
        let attr = sink.finish().attribution;
        assert_eq!(attr.chain_len, 1);
        assert_eq!(attr.counts, [1, 0, 0, 0]);
        assert_eq!(attr.terminators, 0);
    }

    #[test]
    fn flow_counters_cover_all_scheduled_instructions() {
        use EdgeKind::*;
        let sink = collect(&[
            (1, 1, None),
            (2, 2, Some(BindingEdge::new(MfMerge, 0))),
            (2, 2, Some(BindingEdge::new(MfMerge, 0))),
            (0, 0, None), // ignored: not counted
            (3, 3, Some(BindingEdge::new(MemData, 1))),
        ]);
        let m = sink.finish();
        assert_eq!(m.flow.unconstrained, 1);
        assert_eq!(m.flow.by_kind, [0, 1, 0, 2]);
        assert_eq!(m.flow.control_bound(), 2);
        assert_eq!(m.flow.total(), m.instrs);
    }

    #[test]
    fn tie_on_max_done_starts_the_chain_at_the_last_event() {
        use EdgeKind::*;
        // Events 1 and 2 both complete at cycle 2; the walk must start at
        // event 2 (memory edge), not event 1 (register edge).
        let sink = collect(&[
            (1, 1, None),
            (2, 2, Some(BindingEdge::new(RegData, 0))),
            (2, 2, Some(BindingEdge::new(MemData, 0))),
            (1, 1, None),
        ]);
        let m = sink.finish();
        assert_eq!(m.cycles, 2);
        assert_eq!(m.attribution.counts, [0, 1, 0, 0]);
        assert_eq!(m.attribution.chain_len, 2);
    }

    #[test]
    fn ignored_events_never_count() {
        use EdgeKind::*;
        // An ignored event carrying an edge and a completion time must
        // not reach the instruction count, the histogram, the flow
        // counters, the cycle count or the chain start.
        let sink = collect(&[
            (1, 1, None),
            (0, 9, Some(BindingEdge::new(Control, 0))),
            (0, 0, None),
        ]);
        assert_eq!(sink.len(), 3);
        let m = sink.finish();
        assert_eq!(m.instrs, 1);
        assert_eq!(m.cycles, 1);
        assert_eq!(m.occupancy.instrs, 1);
        assert_eq!(m.occupancy.busy_cycles, 1);
        assert_eq!(m.flow.total(), 1);
        assert_eq!(m.flow.unconstrained, 1);
        assert_eq!(m.attribution.chain_len, 1);
        assert_eq!(m.attribution.terminators, 1);
    }

    #[test]
    fn widths_fall_into_their_power_of_two_buckets() {
        // Cycle c issues widths[c - 1] instructions.
        let widths = [1u64, 2, 3, 4, 7, 8, 1024];
        let mut schedule = Vec::new();
        for (c, &w) in widths.iter().enumerate() {
            for _ in 0..w {
                schedule.push((c as u64 + 1, c as u64 + 1, None));
            }
        }
        let m = collect(&schedule).finish();
        let bucket = |width_low, cycles, instrs| OccupancyBucket {
            width_low,
            cycles,
            instrs,
        };
        assert_eq!(
            m.occupancy.buckets,
            vec![
                bucket(1, 1, 1),
                bucket(2, 2, 2 + 3),
                bucket(4, 2, 4 + 7),
                bucket(8, 1, 8),
                bucket(1024, 1, 1024),
            ]
        );
        assert_eq!(m.occupancy.peak, 1024);
        assert_eq!(m.occupancy.busy_cycles, widths.len() as u64);
        assert_eq!(m.occupancy.instrs, widths.iter().sum::<u64>());
    }

    #[test]
    fn empty_schedule_gives_the_defaults() {
        for sink in [
            MetricsCollector::new(),
            collect(&[(0, 0, None), (0, 0, None)]),
        ] {
            let m = sink.finish();
            assert_eq!(m.instrs, 0);
            assert_eq!(m.cycles, 0);
            assert_eq!(m.parallelism(), 0.0);
            assert!(m.occupancy.buckets.is_empty());
            assert_eq!(m.occupancy.cycles, 0);
            assert_eq!(m.occupancy.busy_cycles, 0);
            assert_eq!(m.occupancy.instrs, 0);
            assert_eq!(m.occupancy.peak, 0);
            assert_eq!(m.attribution, CriticalPathAttribution::default());
            assert_eq!(m.flow, FlowCounters::default());
        }
    }

    #[test]
    fn fnv1a64_is_stable() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64("config a"), fnv1a64("config b"));
    }

    #[test]
    fn manifest_header_roundtrips_config_hash() {
        let manifest = RunManifest {
            version: "0.1.0".into(),
            git: "abc1234-dirty".into(),
            config_hash: format!("{:016x}", fnv1a64("fingerprint")),
            max_instrs: 2_000_000,
            unrolling: true,
            generated_utc: format_utc(1_754_438_400),
            unix_secs: 1_754_438_400,
            host_threads: 1,
            pool_threads: None,
            cache: None,
        };
        let header = manifest.to_markdown_header();
        assert!(header.starts_with("<!-- clfp-manifest v1\n"));
        assert!(header.ends_with("-->\n"));
        assert_eq!(
            RunManifest::config_hash_of(&header).as_deref(),
            Some(manifest.config_hash.as_str())
        );
        let json = manifest.to_json_object("  ");
        assert_eq!(
            RunManifest::config_hash_of(&json).as_deref(),
            Some(manifest.config_hash.as_str())
        );
        assert!(json.contains("\"max_instrs\": 2000000"));
        assert_eq!(RunManifest::config_hash_of("# plain results file"), None);

        let stamped = manifest.with_pool_threads(8).with_cache("warm");
        let header = stamped.to_markdown_header();
        assert!(header.contains("pool_threads: 8"));
        assert!(header.contains("cache: warm"));
        assert!(header.ends_with("-->\n"));
        let json = stamped.to_json_object("  ");
        assert!(json.contains("\"pool_threads\": 8"));
        assert!(json.contains("\"cache\": \"warm\""));
        assert_eq!(
            RunManifest::config_hash_of(&json).as_deref(),
            Some(stamped.config_hash.as_str())
        );
    }

    #[test]
    fn utc_formatting_handles_known_instants() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_utc(951_826_562), "2000-02-29T12:16:02Z");
        assert_eq!(format_utc(1_754_438_400), "2025-08-06T00:00:00Z");
    }

    #[test]
    fn ascii_bar_is_proportional_and_clamped() {
        assert_eq!(ascii_bar(0.0, 10.0, 40), "");
        assert_eq!(ascii_bar(10.0, 10.0, 4), "####");
        assert_eq!(ascii_bar(0.01, 10.0, 40), "#");
        assert_eq!(ascii_bar(5.0, 10.0, 40).len(), 20);
    }
}
