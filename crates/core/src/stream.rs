//! Two-pass streaming analysis over a [`TraceSource`].
//!
//! The in-memory pipeline materializes the whole trace (16 bytes/event)
//! plus per-event metadata (~14 bytes/event) before any machine runs — a
//! quarter-gigabyte working set per 10M instructions, and the reason the
//! committed suite stopped at 2M. The paper measured 100M-instruction
//! traces. This module reaches that scale with O(chunk) trace memory by
//! exploiting the VM's determinism:
//!
//! * **Pass 1** streams the execution once to build what the preparation
//!   walk needs *ahead of* the events: the branch-outcome profile (the
//!   paper's profile predictor is trained on the measured run itself) and
//!   the trace summary.
//! * **Pass 2** re-streams the identical execution. Each chunk flows
//!   through a [`MetaBuilder`] (classification, operand decode, dynamic
//!   control-dependence resolution — all carried state lives in the
//!   builder) into per-chunk `EventMeta`/[`EventClass`] buffers, which are
//!   then fed to the lane kernel's groups. The groups carry the
//!   scheduling state across chunks, so the resulting
//!   reports are bit-identical to the in-memory path — both are the same
//!   builders, fed different chunk sizes (asserted across chunk sizes by
//!   the `stream_equivalence` suite).
//!
//! Within pass 2 the machine slots run through the lane-parallel kernel
//! ([`lane`](crate::lane)): every chunk is fed to at most two lane
//! *groups* (control-dependence-using machines and the rest), each
//! scheduling all its machine × unroll lanes in one walk over the chunk.
//! When cores are available the groups run concurrently: the producer
//! (preparation walk) publishes chunks through a double-buffered
//! broadcast and each worker thread owns a fixed subset of the groups.
//! Two buffers are sufficient: the producer may prepare chunk *n+1*
//! while workers drain chunk *n*, and blocks before overwriting a buffer
//! any worker still needs. With one core (or `machine_threads = 1`) the
//! same groups are fed inline, sequentially.

use std::sync::{Condvar, Mutex, RwLock};

use clfp_predict::BranchProfile;
use clfp_vm::{
    ProgramSource, SummaryBuilder, TraceEvent, TraceSource, TraceSummary, VmError, VmOptions,
};

use crate::analyzer::{assemble_report, Analyzer, Report};
use crate::lane::{record_metrics, GroupFeed, LaneScheduler, DEFAULT_MEM_CAPACITY};
use crate::meta::{EventClass, EventMeta, MetaBuilder, ProgramMeta, PC_COND_BRANCH};
use crate::pass::{PassConfig, PassResult};
use crate::{AnalyzeError, MachineKind, PredictorChoice};

/// Tuning knobs for the streaming pipeline.
#[derive(Copy, Clone, Debug, Default)]
pub struct StreamOptions {
    /// Events per chunk; `0` (the default) picks an adaptive size from
    /// the program's text size and the worker count — see
    /// [`StreamOptions::resolved_chunk_events`] for the heuristic.
    pub chunk_events: usize,
    /// Worker threads for the machine passes; `0` = one per available
    /// core, capped at the number of lane groups. `1` forces the
    /// sequential in-line path.
    pub machine_threads: usize,
    /// Minimum trace length (events, measured exactly by pass 1) before
    /// the auto worker count (`machine_threads = 0`) fans the machine
    /// passes out to the threaded broadcast; shorter streams run inline,
    /// where the broadcast's wake/publish handshakes cost more than the
    /// machine work they overlap. `0` picks the default
    /// ([`StreamOptions::DEFAULT_PAR_THRESHOLD`]); an explicit
    /// `machine_threads >= 2` bypasses the fallback entirely.
    pub par_threshold_events: u64,
}

impl StreamOptions {
    /// Default [`par_threshold_events`](StreamOptions::par_threshold_events):
    /// below ~4M events the committed suite measures the sequential path
    /// faster than the broadcast on every host tried.
    pub const DEFAULT_PAR_THRESHOLD: u64 = 4 << 20;

    /// The parallel-fallback threshold this configuration resolves to.
    fn resolved_par_threshold(&self) -> u64 {
        match self.par_threshold_events {
            0 => Self::DEFAULT_PAR_THRESHOLD,
            n => n,
        }
    }

    /// The worker count this configuration resolves to (before capping at
    /// the number of lane groups).
    fn resolved_workers(&self) -> usize {
        match self.machine_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// The chunk size this configuration resolves to for a program with
    /// `text_len` static instructions: `chunk_events` when non-zero,
    /// otherwise the adaptive heuristic.
    ///
    /// The heuristic targets chunk-resident data (raw `TraceEvent`s,
    /// decoded per-event metadata rows, classification bits — ~30
    /// bytes/event) at
    /// half a nominal 1 MiB L2, so the second lane group's walk over a
    /// chunk and the next chunk's fill read warm cache. The budget
    /// shrinks with the per-PC lane state the groups keep hot (the
    /// CD group's `branch_time`/`branch_ceiling` vectors, ~128 bytes per
    /// text instruction at full lane width), halves again under the
    /// threaded broadcast's double buffering, and is clamped to
    /// [2¹², 2¹⁶] events, rounded down to a power of two.
    pub fn resolved_chunk_events(&self, text_len: usize) -> usize {
        if self.chunk_events > 0 {
            return self.chunk_events;
        }
        const CACHE_BUDGET: usize = 512 << 10;
        const EVENT_BYTES: usize = 30;
        let state_bytes = text_len * 128;
        let budget = CACHE_BUDGET.saturating_sub(state_bytes).max(64 << 10);
        let buffers = if self.resolved_workers() > 1 { 2 } else { 1 };
        let events = budget / (EVENT_BYTES * buffers);
        // Round down to a power of two so chunk boundaries stay aligned
        // with the classification bitmap words.
        let rounded = (events / 2 + 1).next_power_of_two();
        rounded.clamp(1 << 12, 1 << 16)
    }
}

/// Everything one streamed analysis produces: the full report for both
/// unroll settings (they share the preparation walk, exactly like the
/// in-memory [`PreparedTrace`](crate::PreparedTrace)) plus the trace
/// summary, gathered during pass 1 at no extra cost.
#[derive(Clone, Debug)]
pub struct StreamedReports {
    /// Report with perfect loop unrolling (Table 4 "with unrolling").
    pub unrolled: Report,
    /// Report without unrolling (inlining only).
    pub rolled: Report,
    /// Dynamic instruction-mix summary of the streamed trace.
    pub summary: TraceSummary,
}

impl StreamedReports {
    /// The report for one unroll setting.
    pub fn report(&self, unrolling: bool) -> &Report {
        if unrolling {
            &self.unrolled
        } else {
            &self.rolled
        }
    }
}

/// One prepared chunk: the decoded event stream and both per-setting
/// classifications. Cleared and refilled in place, so steady-state pass 2
/// allocates nothing.
struct ChunkBuf {
    events: Vec<EventMeta>,
    unrolled: EventClass,
    rolled: EventClass,
}

impl ChunkBuf {
    fn new(chunk_events: usize) -> ChunkBuf {
        ChunkBuf {
            events: Vec::with_capacity(chunk_events),
            unrolled: EventClass::with_capacity(chunk_events),
            rolled: EventClass::with_capacity(chunk_events),
        }
    }

    fn fill(&mut self, builder: &mut MetaBuilder<'_>, chunk: &[TraceEvent]) {
        self.events.clear();
        self.unrolled.clear();
        self.rolled.clear();
        builder.push_chunk(chunk, &mut self.events, &mut self.unrolled, &mut self.rolled);
    }
}

/// Broadcast control block. `published` is the highest chunk id written
/// (−1 before the first); `consumed[w]` the highest id worker `w` has
/// fully processed. The producer overwrites buffer `id % 2` only once
/// every worker has consumed chunk `id − 2`, its previous occupant.
struct Ctrl {
    published: i64,
    done: bool,
    consumed: Vec<i64>,
}

struct Broadcast {
    bufs: [RwLock<ChunkBuf>; 2],
    ctrl: Mutex<Ctrl>,
    cv: Condvar,
}

impl<'a> Analyzer<'a> {
    /// Streams the configured execution through the two-pass chunked
    /// pipeline: [`Analyzer::run`] at O(chunk) trace memory, for both
    /// unroll settings, with the machine passes fanned out over worker
    /// threads when cores are available. Bit-identical to the in-memory
    /// path for every machine and unroll setting.
    ///
    /// # Example
    ///
    /// ```
    /// use clfp_lang::compile;
    /// use clfp_limits::{AnalysisConfig, Analyzer, MachineKind, StreamOptions};
    ///
    /// let program = compile(
    ///     "fn main() -> int {
    ///          var s: int = 0;
    ///          for (var i: int = 0; i < 50; i = i + 1) { s = s + i; }
    ///          return s;
    ///      }",
    /// )?;
    /// let analyzer = Analyzer::new(&program, AnalysisConfig::quick())?;
    /// let streamed = analyzer.run_streamed(StreamOptions::default())?;
    /// // Both unroll settings come back from the same two streaming passes.
    /// let oracle = streamed.unrolled.parallelism(MachineKind::Oracle);
    /// assert!(oracle >= streamed.rolled.parallelism(MachineKind::Base));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if the measured execution faults (either
    /// pass — the deterministic VM faults identically or not at all).
    pub fn run_streamed(&self, options: StreamOptions) -> Result<StreamedReports, AnalyzeError> {
        let source = ProgramSource::new(
            self.program,
            VmOptions {
                mem_words: self.config.mem_words,
            },
            self.config.max_instrs,
        );
        self.run_streamed_on(&source, options)
    }

    /// [`Analyzer::run_streamed`] over an arbitrary [`TraceSource`] — an
    /// in-memory [`Trace`](clfp_vm::Trace), a replayed
    /// [`ProgramSource`], or a [repeated](ProgramSource::repeated)
    /// paper-scale stream.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if producing the stream faults.
    pub fn run_streamed_on(
        &self,
        source: &dyn TraceSource,
        options: StreamOptions,
    ) -> Result<StreamedReports, AnalyzeError> {
        let text_len = self.program.text.len();
        let chunk_events = options.resolved_chunk_events(text_len).max(1);
        let pcs = &self.meta;

        // Pass 1: branch profile (when the profile predictor is selected)
        // and trace summary. `PC_COND_BRANCH` is set exactly when
        // `BranchProfile::from_trace` would record the event, so the
        // streamed profile matches the in-memory one bit for bit.
        let mut profile = BranchProfile::new();
        let want_profile = matches!(self.config.predictor, PredictorChoice::Profile);
        let mut summary = SummaryBuilder::new(self.program);
        let pass1_span = clfp_metrics::trace::span("stream.pass1", "stream")
            .arg("chunk_events", chunk_events as u64)
            .arg("profile", want_profile);
        source.stream(chunk_events, &mut |chunk| {
            summary.push_chunk(chunk);
            if want_profile {
                for event in chunk {
                    if pcs.pcs[event.pc as usize].is(PC_COND_BRANCH) {
                        profile.record(event.pc, event.taken);
                    }
                }
            }
        })?;

        // The summary closes here so pass 2 can size the lane kernel's
        // last-write tables from the measured distinct-word count instead
        // of a fixed default.
        let summary = summary.finish();
        drop(pass1_span.arg("events", summary.total));
        let mem_capacity = summary.distinct_mem_words.min(1 << 28) as usize;

        // Pass 2: preparation walk feeding every machine × unroll slot
        // through the lane kernel.
        let pass_config = PassConfig::from_analysis(&self.config);
        let mut builder = MetaBuilder::new(self.program, &self.info, pcs, &self.config, &profile);
        let machines = &self.config.machines;
        let mut slots: Vec<(MachineKind, bool)> = Vec::with_capacity(machines.len() * 2);
        for unrolling in [true, false] {
            slots.extend(machines.iter().map(|&kind| (kind, unrolling)));
        }
        let mut sched = LaneScheduler::new(&slots, text_len, &pass_config, mem_capacity);
        let mut workers = options.resolved_workers().min(sched.groups.len());
        // Pass 1 measured the exact stream length; below the threshold the
        // broadcast's synchronization overhead exceeds the overlap it buys,
        // so the auto setting falls back to the inline path.
        if options.machine_threads == 0 && summary.total < options.resolved_par_threshold() {
            workers = 1;
        }

        let pass2_span = clfp_metrics::trace::span("stream.pass2", "stream")
            .arg("workers", workers as u64)
            .arg("slots", slots.len() as u64)
            .arg("events", summary.total);
        let passes: Vec<PassResult> = if workers <= 1 {
            let mut buf = ChunkBuf::new(chunk_events);
            source.stream(chunk_events, &mut |chunk| {
                buf.fill(&mut builder, chunk);
                sched.feed(pcs, 0, &buf.events, &buf.unrolled, &buf.rolled);
            })?;
            sched.finish()
        } else {
            run_broadcast(
                source,
                chunk_events,
                &mut builder,
                pcs,
                sched,
                slots.len(),
                workers,
            )?
        };
        drop(pass2_span);

        let (unrolled_passes, rolled_passes) = {
            let mut it = passes.into_iter();
            let unrolled: Vec<PassResult> = it.by_ref().take(machines.len()).collect();
            (unrolled, it.collect::<Vec<PassResult>>())
        };
        Ok(StreamedReports {
            unrolled: assemble_report(
                machines,
                unrolled_passes,
                builder.not_ignored(true),
                builder.raw_instrs(),
                builder.branches(),
            ),
            rolled: assemble_report(
                machines,
                rolled_passes,
                builder.not_ignored(false),
                builder.raw_instrs(),
                builder.branches(),
            ),
            summary,
        })
    }

    /// Streaming analogue of
    /// [`PreparedTrace::machine_metrics_with_unrolling`](crate::PreparedTrace::machine_metrics_with_unrolling):
    /// runs every configured machine over the streamed execution through
    /// the lane kernel's recording groups. The execution is re-streamed
    /// once per recording group (the control-dependence machines, then the
    /// rest), so at most one group's collectors are live at once; a
    /// collector itself is inherently O(events) (5 bytes per event) — this
    /// bounds *trace*-side memory, not the diagnostic record.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if producing the stream faults.
    pub fn stream_machine_metrics(
        &self,
        source: &dyn TraceSource,
        unrolling: bool,
        chunk_events: usize,
    ) -> Result<Vec<(MachineKind, clfp_metrics::MachineMetrics)>, AnalyzeError> {
        let chunk_events = chunk_events.max(1);
        let profile = self.stream_profile(source, chunk_events)?;
        let hint = source.len_hint().map_or(0, |n| n as usize);
        let metrics = record_metrics(
            &self.config.machines,
            unrolling,
            self.program.text.len(),
            &PassConfig::from_analysis(&self.config),
            DEFAULT_MEM_CAPACITY,
            hint,
            |group| {
                let mut builder =
                    MetaBuilder::new(self.program, &self.info, &self.meta, &self.config, &profile);
                let mut buf = ChunkBuf::new(chunk_events);
                source.stream(chunk_events, &mut |chunk| {
                    buf.fill(&mut builder, chunk);
                    group.feed(&self.meta, 0, &buf.events, &buf.unrolled, &buf.rolled);
                })
            },
        )?;
        Ok(metrics)
    }

    /// Pass 1 without the summary: just the branch profile (empty unless
    /// the profile predictor is configured, in which case the stream is
    /// walked once).
    fn stream_profile(
        &self,
        source: &dyn TraceSource,
        chunk_events: usize,
    ) -> Result<BranchProfile, VmError> {
        let mut profile = BranchProfile::new();
        if matches!(self.config.predictor, PredictorChoice::Profile) {
            let pcs = &self.meta;
            source.stream(chunk_events, &mut |chunk| {
                for event in chunk {
                    if pcs.pcs[event.pc as usize].is(PC_COND_BRANCH) {
                        profile.record(event.pc, event.taken);
                    }
                }
            })?;
        }
        Ok(profile)
    }
}

/// The parallel pass-2 engine: the caller's thread runs the preparation
/// walk (the branch predictor need not be `Send`) and publishes prepared
/// chunks through the double-buffered [`Broadcast`]; each worker owns
/// `groups[idx]` for `idx % workers == w` and feeds every published chunk
/// to them in order. Returns the finished passes in request-slot order.
#[allow(clippy::too_many_arguments)]
fn run_broadcast(
    source: &dyn TraceSource,
    chunk_events: usize,
    builder: &mut MetaBuilder<'_>,
    pcs: &ProgramMeta,
    sched: LaneScheduler,
    total: usize,
    workers: usize,
) -> Result<Vec<PassResult>, VmError> {
    let shared = Broadcast {
        bufs: [
            RwLock::new(ChunkBuf::new(chunk_events)),
            RwLock::new(ChunkBuf::new(chunk_events)),
        ],
        ctrl: Mutex::new(Ctrl {
            published: -1,
            done: false,
            consumed: vec![-1; workers],
        }),
        cv: Condvar::new(),
    };
    let mut worker_groups: Vec<Vec<Box<dyn GroupFeed>>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (idx, group) in sched.groups.into_iter().enumerate() {
        worker_groups[idx % workers].push(group);
    }

    let collected: Vec<(usize, PassResult)> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = worker_groups
            .into_iter()
            .enumerate()
            .map(|(w, mut my_groups)| {
                scope.spawn(move || {
                    // Worker-lifetime span: the gap between this and the
                    // worker's lane.group busy time is broadcast wait.
                    let _worker_span = clfp_metrics::trace::span("stream.worker", "stream")
                        .arg("worker", w as u64)
                        .arg("groups", my_groups.len() as u64);
                    let mut next: i64 = 0;
                    loop {
                        let upto = {
                            let mut ctrl = shared.ctrl.lock().unwrap();
                            loop {
                                if ctrl.published >= next {
                                    break ctrl.published;
                                }
                                if ctrl.done {
                                    break i64::MIN;
                                }
                                ctrl = shared.cv.wait(ctrl).unwrap();
                            }
                        };
                        if upto == i64::MIN {
                            break;
                        }
                        for id in next..=upto {
                            let buf = shared.bufs[(id % 2) as usize].read().unwrap();
                            for group in my_groups.iter_mut() {
                                group.feed(pcs, 0, &buf.events, &buf.unrolled, &buf.rolled);
                            }
                        }
                        next = upto + 1;
                        shared.ctrl.lock().unwrap().consumed[w] = upto;
                        shared.cv.notify_all();
                    }
                    my_groups
                        .into_iter()
                        .flat_map(|group| group.finish())
                        .map(|(slot, pass, _)| (slot, pass))
                        .collect::<Vec<(usize, PassResult)>>()
                })
            })
            .collect();

        // Producer: prepare and publish chunks from this thread.
        let mut id: i64 = 0;
        let produced = source.stream(chunk_events, &mut |chunk| {
            {
                let mut ctrl = shared.ctrl.lock().unwrap();
                while ctrl.consumed.iter().copied().min().unwrap_or(id) < id - 2 {
                    ctrl = shared.cv.wait(ctrl).unwrap();
                }
            }
            shared.bufs[(id % 2) as usize]
                .write()
                .unwrap()
                .fill(builder, chunk);
            shared.ctrl.lock().unwrap().published = id;
            shared.cv.notify_all();
            id += 1;
        });
        shared.ctrl.lock().unwrap().done = true;
        shared.cv.notify_all();
        let mut collected = Vec::with_capacity(total);
        for handle in handles {
            collected.extend(handle.join().expect("machine worker panicked"));
        }
        produced.map(|()| collected)
    })?;

    let mut passes: Vec<Option<PassResult>> = (0..total).map(|_| None).collect();
    for (idx, pass) in collected {
        passes[idx] = Some(pass);
    }
    Ok(passes
        .into_iter()
        .map(|pass| pass.expect("every slot produced a result"))
        .collect())
}
