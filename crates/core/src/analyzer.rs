use clfp_cfg::StaticInfo;
use clfp_isa::Program;
use clfp_vm::{Trace, Vm, VmOptions};

use crate::fused::run_fused;
use crate::lane::{run_lanes, run_scheduler, GroupMode, KeyMode, LaneScheduler, LaneSlot};
use crate::meta::{vp_flag, EventClass, ProgramMeta, TraceMeta, CD_INHERIT, CD_NONE};
use crate::pass::{run_pass, PassConfig, PassResult, Prepared};
use crate::stats::MispredictionStats;
use crate::{AnalysisConfig, AnalyzeError, MachineKind};

/// The control-dependence source the preparation walk resolved for one
/// dynamic instruction (Section 4.4.1): which controlling-branch instance
/// the CD-honoring machines serialize the instruction after.
///
/// Exposed for the `clfp-verify` static/dynamic cross-checker, which
/// asserts every [`CdSource::Branch`] pc lies in the executed
/// instruction's static reverse-dominance-frontier set.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CdSource {
    /// No controlling branch: control independent within its procedure
    /// invocation at top level, or dropped by the recursion cutoff.
    None,
    /// Inherited from the calling procedure's invocation (the event's
    /// procedure depends on the call site's own control dependence).
    Inherit,
    /// The latest executed instance of this static conditional-branch or
    /// computed-jump pc.
    Branch(u32),
}

/// Parallelism result for one machine.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MachineResult {
    /// The machine model.
    pub kind: MachineKind,
    /// Critical-path length in cycles.
    pub cycles: u64,
    /// Parallelism: sequential instructions / cycles.
    pub parallelism: f64,
}

/// Full analysis report for one program and configuration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Sequential dynamic instruction count (after inlining/unrolling
    /// removal) — the numerator of every parallelism figure.
    pub seq_instrs: u64,
    /// Raw dynamic instruction count (whole trace).
    pub raw_instrs: u64,
    /// Per-machine results, in the order requested.
    pub results: Vec<MachineResult>,
    /// Branch and prediction statistics (Table 2).
    pub branches: crate::stats::BranchReport,
    /// Misprediction-distance statistics from the SP machine
    /// (Figures 6, 7); present when `SP` was among the analyzed machines.
    pub mispred_stats: Option<MispredictionStats>,
}

impl Report {
    /// The parallelism measured for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not among the configured machines.
    pub fn parallelism(&self, kind: MachineKind) -> f64 {
        self.result(kind)
            .unwrap_or_else(|| panic!("machine {kind} was not analyzed"))
            .parallelism
    }

    /// The result for `kind`, if analyzed.
    pub fn result(&self, kind: MachineKind) -> Option<MachineResult> {
        self.results.iter().copied().find(|r| r.kind == kind)
    }
}

/// The trace-driven limit analyzer.
///
/// Construction runs the static analyses (CFG, control dependence, loops,
/// induction variables) and pre-decodes the per-PC metadata table;
/// [`Analyzer::run`] then captures the measured trace and simulates every
/// configured machine model over it in one fused pass. The paper's
/// profile-based branch predictor is trained on the measured trace itself
/// (the paper profiles "with the same inputs used in the simulations"), so
/// no separate profiling execution is needed.
#[derive(Debug)]
pub struct Analyzer<'a> {
    pub(crate) program: &'a Program,
    pub(crate) info: StaticInfo,
    pub(crate) meta: ProgramMeta,
    pub(crate) config: AnalysisConfig,
}

/// A trace plus everything machine-independent derived from it in a
/// single shared walk: event classification, branch statistics, decoded
/// operands, and resolved control-dependence sources. Produced by
/// [`Analyzer::prepare`]; [`PreparedTrace::report`] runs the machine
/// models over it.
#[derive(Debug)]
pub struct PreparedTrace<'a, 'b> {
    analyzer: &'b Analyzer<'a>,
    /// The configuration this preparation is valid for — the analyzer's
    /// own for [`Analyzer::prepare`], a mode-adjusted copy for
    /// [`PreparedTrace::slice_modes`].
    config: AnalysisConfig,
    meta: TraceMeta,
}

impl<'a> Analyzer<'a> {
    /// Prepares an analyzer: static analysis and per-PC metadata decode.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if the program is structurally unusable.
    pub fn new(program: &'a Program, config: AnalysisConfig) -> Result<Analyzer<'a>, AnalyzeError> {
        if program.text.is_empty() {
            return Err(AnalyzeError::BadProgram("empty text segment".into()));
        }
        if program.validate().is_err() {
            return Err(AnalyzeError::BadProgram(
                "branch or call target out of range".into(),
            ));
        }
        let info = StaticInfo::analyze(program);
        let meta = ProgramMeta::build(program, &info, &PassConfig::from_analysis(&config));
        Ok(Analyzer {
            program,
            info,
            meta,
            config,
        })
    }

    /// The static analysis results (shared with callers that want to
    /// inspect control dependences or loops).
    pub fn static_info(&self) -> &StaticInfo {
        &self.info
    }

    /// Captures the trace and runs every configured machine model.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if the measured execution faults.
    pub fn run(&self) -> Result<Report, AnalyzeError> {
        let mut vm = Vm::new(
            self.program,
            VmOptions {
                mem_words: self.config.mem_words,
            },
        );
        let trace: Trace = vm.trace(self.config.max_instrs)?;
        Ok(self.run_on_trace(&trace))
    }

    /// Runs the machine-independent preparation walk over a trace:
    /// branch-outcome profiling, prediction, inlining/unrolling
    /// classification, operand decode, and dynamic control-dependence
    /// resolution — shared by every machine model and (via
    /// [`PreparedTrace::report_with_unrolling`]) by both unroll settings.
    pub fn prepare<'b>(&'b self, trace: &Trace) -> PreparedTrace<'a, 'b> {
        PreparedTrace {
            analyzer: self,
            config: self.config.clone(),
            meta: TraceMeta::build(self.program, &self.info, &self.meta, &self.config, trace, false),
        }
    }

    /// Like [`Analyzer::prepare`], but trains the realistic value
    /// predictors regardless of the configured value-prediction mode, so
    /// the result can be [sliced](PreparedTrace::slice_modes) or
    /// [lane-walked](PreparedTrace::report_mode_matrix) across every
    /// value-prediction mode. Identical to `prepare` when the configured
    /// mode is `LastValue` or `Stride` (which already train); slightly
    /// slower otherwise (two predictor-table updates per def event).
    pub fn prepare_multimode<'b>(&'b self, trace: &Trace) -> PreparedTrace<'a, 'b> {
        PreparedTrace {
            analyzer: self,
            config: self.config.clone(),
            meta: TraceMeta::build(self.program, &self.info, &self.meta, &self.config, trace, true),
        }
    }

    /// Runs every configured machine model over an existing trace (one
    /// preparation walk, then the fused per-machine passes).
    pub fn run_on_trace(&self, trace: &Trace) -> Report {
        self.prepare(trace).report()
    }

    /// Reference implementation of [`Analyzer::run_on_trace`]: the
    /// original one-machine-at-a-time pass over the raw trace, kept as the
    /// test oracle for the fused path (the `fused_equivalence` suite
    /// asserts bit-for-bit equal reports) and for wall-time comparisons
    /// (`regen --timing`).
    pub fn run_on_trace_reference(&self, trace: &Trace) -> Report {
        let prepared = self.prepare(trace);
        let class = prepared.meta.class(self.config.unrolling);
        let reference = Prepared {
            program: self.program,
            info: &self.info,
            events: trace.events(),
            class,
            pass_config: PassConfig::from_analysis(&self.config),
        };
        let passes = self
            .config
            .machines
            .iter()
            .map(|&kind| run_pass(&reference, kind))
            .collect();
        prepared.assemble(class, passes)
    }

    /// Computes the per-instruction schedule for one machine over a trace:
    /// the cycle at which each dynamic instruction executes (0 for
    /// instructions removed by perfect inlining/unrolling). This is the
    /// paper's Figure 3 view of a machine model.
    pub fn schedule(&self, trace: &Trace, kind: MachineKind) -> Vec<u64> {
        let prepared = self.prepare(trace);
        let reference = Prepared {
            program: self.program,
            info: &self.info,
            events: trace.events(),
            class: prepared.meta.class(self.config.unrolling),
            pass_config: PassConfig::from_analysis(&self.config),
        };
        let mut schedule = Vec::with_capacity(trace.len());
        crate::pass::run_pass_with_schedule(&reference, kind, Some(&mut schedule));
        schedule
    }
}

impl<'a, 'b> PreparedTrace<'a, 'b> {
    /// Runs every configured machine model over the prepared trace.
    pub fn report(&self) -> Report {
        self.report_with_unrolling(self.config.unrolling)
    }

    /// Derives the preparation a fresh [`Analyzer::prepare`] under
    /// (`disambiguation`, `value_prediction`) would produce — without
    /// re-walking the trace. The config-independent core (classification
    /// bitmaps, control-dependence sources, branch profile) is shared;
    /// only the per-event memory key and predicted-value bit are
    /// rewritten, from facts the one preparation walk already recorded.
    /// Bit-identical to the from-scratch preparation (asserted by the
    /// `mode_slices_match_dedicated_preparation` test and the alias /
    /// value-prediction suite gates).
    ///
    /// # Panics
    ///
    /// Panics unless this preparation used `Perfect` disambiguation (the
    /// default) or `disambiguation` equals its mode — coarse memory keys
    /// cannot be refined after the fact.
    pub fn slice_modes(
        &self,
        disambiguation: crate::MemDisambiguation,
        value_prediction: crate::ValuePrediction,
    ) -> PreparedTrace<'a, 'b> {
        let _span = clfp_metrics::trace::span("prepare.slice_modes", "prepare")
            .arg("disambiguation", disambiguation.name())
            .arg("value_prediction", value_prediction.name())
            .arg("events", self.meta.events.len());
        let analyzer = self.analyzer;
        let meta = self.meta.resliced(
            &analyzer.info,
            &analyzer.meta,
            self.config.disambiguation,
            disambiguation,
            value_prediction,
        );
        let config = self
            .config
            .clone()
            .with_disambiguation(disambiguation)
            .with_value_prediction(value_prediction);
        PreparedTrace {
            analyzer,
            config,
            meta,
        }
    }

    /// The resolved control-dependence source of every dynamic
    /// instruction, in trace order (machine-independent; see
    /// [`CdSource`]).
    pub fn cd_sources(&self) -> impl Iterator<Item = CdSource> + '_ {
        self.meta.events.iter().map(|event| match event.cd {
            CD_NONE => CdSource::None,
            CD_INHERIT => CdSource::Inherit,
            pc => CdSource::Branch(pc),
        })
    }

    /// Runs every configured machine over the prepared trace with the
    /// recording metrics sink, returning per-machine execution metrics:
    /// cycle-occupancy histograms, critical-path attribution, and
    /// binding-edge counters (see `clfp-metrics`). The machines run
    /// through the lane kernel in recording groups of at most four lanes
    /// (the control-dependence machines, then the rest), one group after
    /// the other, so at most four collectors (5 bytes per event each) are
    /// live at once. The results re-derive the report's cycle and
    /// instruction counts exactly (asserted in the
    /// `recording_sink_does_not_perturb_results` test).
    pub fn machine_metrics(&self) -> Vec<(MachineKind, clfp_metrics::MachineMetrics)> {
        self.machine_metrics_with_unrolling(self.config.unrolling)
    }

    /// Like [`PreparedTrace::machine_metrics`], but overriding the
    /// unrolling setting (the metrics analogue of
    /// [`PreparedTrace::report_with_unrolling`]).
    pub fn machine_metrics_with_unrolling(
        &self,
        unrolling: bool,
    ) -> Vec<(MachineKind, clfp_metrics::MachineMetrics)> {
        let analyzer = self.analyzer;
        let events = &self.meta.events;
        let recorded = crate::lane::record_metrics(
            &self.config.machines,
            unrolling,
            analyzer.program.text.len(),
            &PassConfig::from_analysis(&self.config),
            self.mem_capacity(),
            events.len(),
            |group| {
                group.feed(
                    &analyzer.meta,
                    0,
                    events,
                    self.meta.class(true),
                    self.meta.class(false),
                );
                Ok::<(), std::convert::Infallible>(())
            },
        );
        let Ok(metrics) = recorded;
        metrics
    }

    /// Per-machine execution metrics for every requested (disambiguation,
    /// value-prediction) mode at one unroll setting — the diagnostic
    /// companion of [`PreparedTrace::report_mode_matrix`], which runs the
    /// lane kernel with the null sink and so cannot attribute anything.
    /// Each mode runs the lane kernel's recording groups over its
    /// [`PreparedTrace::slice_modes`] slice, one mode after the other, and
    /// the re-derived cycle counts are pinned bit-identical to the matrix walk's by the
    /// `mode_matrix_metrics_match_matrix_cycles` test, so the attribution
    /// describes exactly the schedules the matrix reports.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`PreparedTrace::report_mode_matrix`]: a coarse-disambiguation base,
    /// or a realistic value-prediction mode on an untrained preparation.
    pub fn mode_matrix_metrics(
        &self,
        modes: &[(crate::MemDisambiguation, crate::ValuePrediction)],
        unrolling: bool,
    ) -> Vec<Vec<(MachineKind, clfp_metrics::MachineMetrics)>> {
        modes
            .iter()
            .map(|&(disambiguation, value_prediction)| {
                self.slice_modes(disambiguation, value_prediction)
                    .machine_metrics_with_unrolling(unrolling)
            })
            .collect()
    }

    /// Like [`PreparedTrace::report`], but overriding the unrolling
    /// setting. The preparation walk records the ignore classification for
    /// both settings (everything else it computes is unroll-independent),
    /// so Table 4's with/without comparison needs only one prepared trace.
    ///
    /// Runs the lane-parallel kernel: every configured machine is
    /// scheduled in one walk over the event stream (see
    /// the `lane` module). Bit-identical to
    /// [`PreparedTrace::report_with_unrolling_scalar`], which is kept as
    /// the oracle.
    pub fn report_with_unrolling(&self, unrolling: bool) -> Report {
        let analyzer = self.analyzer;
        let class = self.meta.class(unrolling);
        let slots: Vec<(MachineKind, bool)> = self
            .config
            .machines
            .iter()
            .map(|&kind| (kind, unrolling))
            .collect();
        let passes = run_lanes(
            &analyzer.meta,
            &self.meta.events,
            self.meta.class(true),
            self.meta.class(false),
            &PassConfig::from_analysis(&self.config),
            &slots,
            self.mem_capacity(),
        );
        self.assemble(class, passes)
    }

    /// Both unroll settings from one lane-parallel walk: all machine ×
    /// setting slots (up to 14) are scheduled reading each event exactly
    /// once. Returns `(unrolled, rolled)` reports — the benchmark suite's
    /// Table 4 path.
    pub fn report_both(&self) -> (Report, Report) {
        let analyzer = self.analyzer;
        let machines = &self.config.machines;
        let mut slots: Vec<(MachineKind, bool)> = Vec::with_capacity(machines.len() * 2);
        for unrolling in [true, false] {
            slots.extend(machines.iter().map(|&kind| (kind, unrolling)));
        }
        let mut passes = run_lanes(
            &analyzer.meta,
            &self.meta.events,
            self.meta.class(true),
            self.meta.class(false),
            &PassConfig::from_analysis(&self.config),
            &slots,
            self.mem_capacity(),
        );
        let rolled_passes = passes.split_off(machines.len());
        (
            self.assemble(self.meta.class(true), passes),
            self.assemble(self.meta.class(false), rolled_passes),
        )
    }

    /// The full mode × machine × unroll table from **one** walk over the
    /// prepared events: every requested (disambiguation, value-prediction)
    /// mode contributes its machine × unroll lanes to the same lane
    /// scheduler, value-prediction modes as per-lane hit-bit
    /// masks and disambiguation modes as per-group key remaps — the same
    /// masking trick the kernel already uses for unroll settings, extended
    /// to the speculation axes. Returns `(unrolled, rolled)` report pairs
    /// in `modes` order, each bit-identical to preparing and reporting
    /// under that mode from scratch (asserted by the
    /// `mode_matrix_matches_slices` test and the suite gates).
    ///
    /// # Panics
    ///
    /// Panics unless this preparation used `Perfect` disambiguation (the
    /// default) or every requested mode matches its disambiguation mode.
    pub fn report_mode_matrix(
        &self,
        modes: &[(crate::MemDisambiguation, crate::ValuePrediction)],
    ) -> Vec<(Report, Report)> {
        let analyzer = self.analyzer;
        let machines = &self.config.machines;
        let per_mode = machines.len() * 2;
        let mut class_table: Option<Vec<u32>> = None;
        let mut specs: Vec<(GroupMode, Vec<LaneSlot>)> = Vec::with_capacity(modes.len());
        for (index, &(disambiguation, value_prediction)) in modes.iter().enumerate() {
            assert!(
                self.config.disambiguation == crate::MemDisambiguation::Perfect
                    || disambiguation == self.config.disambiguation,
                "mode matrix needs a perfect-disambiguation base (have {}, want {})",
                self.config.disambiguation.name(),
                disambiguation.name(),
            );
            assert!(
                self.meta.vp_trained || !crate::meta::needs_vp_training(value_prediction),
                "mode matrix lane for {} needs a base preparation that trained the value \
                 predictors (use Analyzer::prepare_multimode)",
                value_prediction.name(),
            );
            let key_mode = if disambiguation == self.config.disambiguation {
                KeyMode::Event
            } else {
                match disambiguation {
                    crate::MemDisambiguation::Perfect => KeyMode::Event,
                    crate::MemDisambiguation::Static => KeyMode::Class(
                        class_table
                            .get_or_insert_with(|| {
                                (0..analyzer.program.text.len())
                                    .map(|pc| analyzer.info.alias.scheduler_class(pc as u32))
                                    .collect()
                            })
                            .clone(),
                    ),
                    crate::MemDisambiguation::None => KeyMode::Single,
                }
            };
            let hit_flag = vp_flag(value_prediction);
            let mut lanes = Vec::with_capacity(per_mode);
            for (setting, unrolling) in [true, false].into_iter().enumerate() {
                for (k, &kind) in machines.iter().enumerate() {
                    lanes.push(LaneSlot {
                        slot: index * per_mode + setting * machines.len() + k,
                        kind,
                        unrolling,
                        vp_flag: hit_flag,
                    });
                }
            }
            specs.push((
                GroupMode {
                    key_mode,
                    accumulate: disambiguation.accumulates(),
                },
                lanes,
            ));
        }
        let sched = LaneScheduler::with_groups(
            specs,
            modes.len() * per_mode,
            analyzer.program.text.len(),
            &PassConfig::from_analysis(&self.config),
            self.mem_capacity(),
        );
        let mut passes = run_scheduler(
            sched,
            &analyzer.meta,
            &self.meta.events,
            self.meta.class(true),
            self.meta.class(false),
        )
        .into_iter();
        modes
            .iter()
            .map(|&(_, value_prediction)| {
                let mode_index = crate::ValuePrediction::ALL
                    .iter()
                    .position(|&m| m == value_prediction)
                    .expect("mode is in ALL");
                let mut branches = self.meta.branches;
                branches.value_pred_hits = self.meta.vp_hits[mode_index];
                let unrolled_passes: Vec<PassResult> =
                    passes.by_ref().take(machines.len()).collect();
                let rolled_passes: Vec<PassResult> =
                    passes.by_ref().take(machines.len()).collect();
                let report_for = |class: &EventClass, mode_passes: Vec<PassResult>| {
                    assemble_report(
                        machines,
                        mode_passes,
                        class.not_ignored(),
                        class.len() as u64,
                        branches,
                    )
                };
                (
                    report_for(self.meta.class(true), unrolled_passes),
                    report_for(self.meta.class(false), rolled_passes),
                )
            })
            .collect()
    }

    /// The scalar machine-major fused path — one cursor per machine, N
    /// walks over the events. Kept as the wall-time baseline and as an
    /// oracle for the lane kernel (the `lane_equivalence` suite asserts
    /// bit-identical reports).
    pub fn report_with_unrolling_scalar(&self, unrolling: bool) -> Report {
        let analyzer = self.analyzer;
        let class = self.meta.class(unrolling);
        let passes = run_fused(
            &analyzer.meta,
            &self.meta.events,
            class,
            &PassConfig::from_analysis(&self.config),
            &self.config.machines,
            self.mem_capacity(),
        );
        self.assemble(class, passes)
    }

    /// Last-write-table sizing hint: the trace's measured distinct
    /// memory-key count (clamped below by the tables' minimum).
    fn mem_capacity(&self) -> usize {
        self.meta.distinct_mem_keys.min(1 << 28) as usize
    }

    /// Folds per-machine pass results into a [`Report`].
    fn assemble(&self, class: &EventClass, passes: Vec<PassResult>) -> Report {
        assemble_report(
            &self.config.machines,
            passes,
            class.not_ignored(),
            class.len() as u64,
            self.meta.branches,
        )
    }
}

/// Folds per-machine pass results into a [`Report`] — shared between the
/// in-memory path ([`PreparedTrace`]) and the streaming path
/// (`Analyzer::run_streamed`), so both produce reports through identical
/// arithmetic.
pub(crate) fn assemble_report(
    machines: &[MachineKind],
    passes: Vec<PassResult>,
    not_ignored: u64,
    raw_instrs: u64,
    branches: crate::stats::BranchReport,
) -> Report {
    let mut results = Vec::with_capacity(passes.len());
    let mut mispred_stats = None;
    let mut seq_instrs = not_ignored;
    for (&kind, pass) in machines.iter().zip(passes) {
        seq_instrs = pass.count;
        let parallelism = if pass.cycles == 0 {
            1.0
        } else {
            pass.count as f64 / pass.cycles as f64
        };
        results.push(MachineResult {
            kind,
            cycles: pass.cycles,
            parallelism,
        });
        if let Some(stats) = pass.mispred_stats {
            mispred_stats = Some(stats);
        }
    }

    Report {
        seq_instrs,
        raw_instrs,
        results,
        branches,
        mispred_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorChoice;
    use clfp_lang::compile;

    fn analyze(source: &str, config: AnalysisConfig) -> Report {
        let program = compile(source).unwrap();
        Analyzer::new(&program, config).unwrap().run().unwrap()
    }

    const LOOPY: &str = r#"
        var data: int[64];
        fn main() -> int {
            var seed: int = 12345;
            for (var i: int = 0; i < 64; i = i + 1) {
                seed = seed * 1103515245 + 12345;
                data[i] = seed % 100;
            }
            var s: int = 0;
            for (var i: int = 0; i < 64; i = i + 1) {
                if (data[i] > 50) { s = s + data[i]; }
            }
            return s;
        }
    "#;

    #[test]
    fn machine_hierarchy_on_compiled_code() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        for kind in MachineKind::ALL {
            for &weaker in kind.dominates() {
                assert!(
                    report.parallelism(weaker) <= report.parallelism(kind) + 1e-9,
                    "{weaker} > {kind}: {} vs {}",
                    report.parallelism(weaker),
                    report.parallelism(kind)
                );
            }
        }
        // Base should be modest, oracle substantially higher.
        assert!(report.parallelism(MachineKind::Base) >= 1.0);
        assert!(report.parallelism(MachineKind::Oracle) > report.parallelism(MachineKind::Base));
    }

    #[test]
    fn branch_report_is_populated() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        assert!(report.branches.cond_branches > 60);
        assert!(report.branches.prediction_rate() > 50.0);
        assert!(report.branches.instrs_between_branches() > 1.0);
        assert!(report.raw_instrs > report.seq_instrs);
    }

    #[test]
    fn mispred_stats_present_when_sp_runs() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        assert!(report.mispred_stats.is_some());
        let only_oracle =
            AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]);
        let report = analyze(LOOPY, only_oracle);
        assert!(report.mispred_stats.is_none());
    }

    #[test]
    fn unrolling_changes_results() {
        let on = analyze(LOOPY, AnalysisConfig::quick().with_unrolling(true));
        let off = analyze(LOOPY, AnalysisConfig::quick().with_unrolling(false));
        assert!(on.seq_instrs < off.seq_instrs);
    }

    #[test]
    fn predictor_choice_affects_sp() {
        let profile = analyze(LOOPY, AnalysisConfig::quick());
        let always = analyze(
            LOOPY,
            AnalysisConfig::quick().with_predictor(PredictorChoice::AlwaysTaken),
        );
        // The profile predictor is at least as accurate as always-taken.
        assert!(
            profile.branches.prediction_rate() >= always.branches.prediction_rate() - 1e-9
        );
    }

    #[test]
    fn oracle_equals_sp_family_upper_bound() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        let oracle = report.parallelism(MachineKind::Oracle);
        for kind in MachineKind::ALL {
            assert!(report.parallelism(kind) <= oracle + 1e-9);
        }
    }

    #[test]
    fn fetch_bandwidth_one_serializes_completely() {
        let program = compile(LOOPY).unwrap();
        let config = AnalysisConfig::quick()
            .with_machines(&[MachineKind::Oracle])
            .with_fetch_bandwidth(1);
        let report = Analyzer::new(&program, config).unwrap().run().unwrap();
        // One instruction per cycle: even ORACLE degenerates to sequential
        // execution (parallelism ~1).
        let result = report.result(MachineKind::Oracle).unwrap();
        assert_eq!(result.cycles, report.seq_instrs);
    }

    #[test]
    fn fetch_bandwidth_is_monotone() {
        let program = compile(LOOPY).unwrap();
        let run = |width: Option<u64>| {
            let mut config = AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]);
            config.fetch_bandwidth = width;
            Analyzer::new(&program, config)
                .unwrap()
                .run()
                .unwrap()
                .parallelism(MachineKind::Oracle)
        };
        let narrow = run(Some(4));
        let wide = run(Some(64));
        let unlimited = run(None);
        assert!(narrow <= wide + 1e-9, "{narrow} vs {wide}");
        assert!(wide <= unlimited + 1e-9, "{wide} vs {unlimited}");
        assert!(narrow <= 4.0 + 1e-9, "width-4 front end caps IPC at 4");
    }

    #[test]
    fn coarser_disambiguation_never_helps() {
        let program = compile(LOOPY).unwrap();
        let run = |bytes: u32| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle, MachineKind::SpCdMf])
                .with_disambiguation_bytes(bytes);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let word = run(4);
        let line = run(64);
        for kind in [MachineKind::Oracle, MachineKind::SpCdMf] {
            assert!(
                line.result(kind).unwrap().cycles >= word.result(kind).unwrap().cycles,
                "{kind}: coarser granularity shortened the critical path"
            );
        }
        // On this array-heavy program, 64-byte blocks must actually create
        // false dependences.
        assert!(
            line.result(MachineKind::Oracle).unwrap().cycles
                > word.result(MachineKind::Oracle).unwrap().cycles
        );
    }

    #[test]
    fn disabling_renaming_enforces_false_dependences() {
        let program = compile(LOOPY).unwrap();
        let renamed = Analyzer::new(
            &program,
            AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]),
        )
        .unwrap()
        .run()
        .unwrap();
        let unrenamed = Analyzer::new(
            &program,
            AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle])
                .with_rename(false),
        )
        .unwrap()
        .run()
        .unwrap();
        // Reusing the same registers serially chains the whole program.
        assert!(
            unrenamed.parallelism(MachineKind::Oracle)
                < renamed.parallelism(MachineKind::Oracle) / 2.0,
            "renamed {:.1} vs unrenamed {:.1}",
            renamed.parallelism(MachineKind::Oracle),
            unrenamed.parallelism(MachineKind::Oracle)
        );
    }

    #[test]
    fn latencies_stretch_the_critical_path() {
        let program = compile(LOOPY).unwrap();
        let unit = Analyzer::new(
            &program,
            AnalysisConfig::quick().with_machines(&[MachineKind::Oracle]),
        )
        .unwrap()
        .run()
        .unwrap();
        let slow = Analyzer::new(
            &program,
            AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle])
                .with_latency(crate::Latencies {
                    load: 3,
                    mul_div: 6,
                    other: 1,
                }),
        )
        .unwrap()
        .run()
        .unwrap();
        let unit_cycles = unit.result(MachineKind::Oracle).unwrap().cycles;
        let slow_cycles = slow.result(MachineKind::Oracle).unwrap().cycles;
        assert!(slow_cycles > unit_cycles);
        // And bounded: at most 6x the unit-latency path.
        assert!(slow_cycles <= unit_cycles * 6);
    }

    #[test]
    fn rejects_empty_program() {
        let program = Program::new();
        let err = Analyzer::new(&program, AnalysisConfig::quick()).unwrap_err();
        assert!(matches!(err, AnalyzeError::BadProgram(_)));
    }

    #[test]
    fn result_lookup() {
        let report = analyze(LOOPY, AnalysisConfig::quick());
        assert!(report.result(MachineKind::Cd).is_some());
        let restricted = analyze(
            LOOPY,
            AnalysisConfig::quick().with_machines(&[MachineKind::Base]),
        );
        assert!(restricted.result(MachineKind::Oracle).is_none());
    }

    #[test]
    fn cd_sources_cover_every_event() {
        let program = compile(LOOPY).unwrap();
        let analyzer = Analyzer::new(&program, AnalysisConfig::quick()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare(&trace);
        let sources: Vec<CdSource> = prepared.cd_sources().collect();
        assert_eq!(sources.len(), trace.len());
        // The loopy program must resolve at least one in-procedure branch
        // dependence, and every resolved pc must actually be a branch.
        assert!(sources.iter().any(|s| matches!(s, CdSource::Branch(_))));
        for source in &sources {
            if let CdSource::Branch(pc) = source {
                let instr = program.text[*pc as usize];
                assert!(instr.is_cond_branch() || instr.is_computed_jump());
            }
        }
    }

    #[test]
    fn static_disambiguation_agrees_across_pipelines() {
        use crate::MemDisambiguation;
        let program = compile(LOOPY).unwrap();
        for mode in [MemDisambiguation::Static, MemDisambiguation::None] {
            let config = AnalysisConfig::quick().with_disambiguation(mode);
            let analyzer = Analyzer::new(&program, config).unwrap();
            let mut vm = clfp_vm::Vm::new(
                &program,
                VmOptions {
                    mem_words: analyzer.config.mem_words,
                },
            );
            let trace = vm.trace(analyzer.config.max_instrs).unwrap();
            let lane = analyzer.run_on_trace(&trace);
            let scalar = analyzer
                .prepare(&trace)
                .report_with_unrolling_scalar(analyzer.config.unrolling);
            let reference = analyzer.run_on_trace_reference(&trace);
            let streamed = analyzer
                .run_streamed(crate::StreamOptions {
                    chunk_events: 4096,
                    machine_threads: 0,
                    par_threshold_events: 0,
                })
                .unwrap();
            for report in [&scalar, &reference, &streamed.unrolled] {
                assert_eq!(lane.seq_instrs, report.seq_instrs, "{mode:?}");
                for (a, b) in lane.results.iter().zip(&report.results) {
                    assert_eq!(a.kind, b.kind, "{mode:?}");
                    assert_eq!(a.cycles, b.cycles, "{mode:?} {:?}", a.kind);
                }
            }
        }
    }

    #[test]
    fn value_prediction_agrees_across_pipelines() {
        use crate::ValuePrediction;
        let program = compile(LOOPY).unwrap();
        for mode in [
            ValuePrediction::LastValue,
            ValuePrediction::Stride,
            ValuePrediction::Perfect,
        ] {
            let config = AnalysisConfig::quick().with_value_prediction(mode);
            let analyzer = Analyzer::new(&program, config).unwrap();
            let mut vm = clfp_vm::Vm::new(
                &program,
                VmOptions {
                    mem_words: analyzer.config.mem_words,
                },
            );
            let trace = vm.trace(analyzer.config.max_instrs).unwrap();
            let lane = analyzer.run_on_trace(&trace);
            let scalar = analyzer
                .prepare(&trace)
                .report_with_unrolling_scalar(analyzer.config.unrolling);
            let reference = analyzer.run_on_trace_reference(&trace);
            let streamed = analyzer
                .run_streamed(crate::StreamOptions {
                    chunk_events: 4096,
                    machine_threads: 0,
                    par_threshold_events: 0,
                })
                .unwrap();
            for report in [&scalar, &reference, &streamed.unrolled] {
                assert_eq!(lane.seq_instrs, report.seq_instrs, "{mode:?}");
                for (a, b) in lane.results.iter().zip(&report.results) {
                    assert_eq!(a.kind, b.kind, "{mode:?}");
                    assert_eq!(a.cycles, b.cycles, "{mode:?} {:?}", a.kind);
                }
            }
        }
    }

    // The value-prediction ordering is also a theorem: the correct sets
    // nest (off = ∅ ⊆ last-value ⊆ stride-hybrid ⊆ perfect = all defs)
    // and a correctly predicted producer only ever *lowers* the published
    // availability time, so under monotone max-folds
    // `perfect <= stride <= last-value <= off` in cycles, pointwise.
    #[test]
    fn weaker_value_prediction_never_helps() {
        use crate::ValuePrediction;
        let program = compile(LOOPY).unwrap();
        let run = |mode: ValuePrediction| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Base, MachineKind::Sp, MachineKind::Oracle])
                .with_value_prediction(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let off = run(ValuePrediction::Off);
        let last = run(ValuePrediction::LastValue);
        let stride = run(ValuePrediction::Stride);
        let perfect = run(ValuePrediction::Perfect);
        for kind in [MachineKind::Base, MachineKind::Sp, MachineKind::Oracle] {
            let o = off.result(kind).unwrap().cycles;
            let l = last.result(kind).unwrap().cycles;
            let s = stride.result(kind).unwrap().cycles;
            let p = perfect.result(kind).unwrap().cycles;
            assert!(l <= o, "{kind}: last-value lost to off ({l} vs {o})");
            assert!(s <= l, "{kind}: stride lost to last-value ({s} vs {l})");
            assert!(p <= s, "{kind}: perfect lost to stride ({p} vs {s})");
        }
        // Strict separation on a hand-built chain: an induction chain a
        // stride predictor follows but last-value misses, behind a chain
        // of irregular values only the oracle predicts.
        let program = clfp_isa::assemble(
            r#"
            .text
            main:
                li r8, 0
                li r9, 99
            loop:
                addi r8, r8, 1     # stride-predictable chain
                mul r10, r8, r8    # irregular: only Perfect breaks it
                add r11, r11, r10
                bgt r9, r8, loop
                halt
            "#,
        )
        .unwrap();
        let run = |mode: ValuePrediction| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Base])
                .with_unrolling(false)
                .with_value_prediction(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let o = run(ValuePrediction::Off).result(MachineKind::Base).unwrap().cycles;
        let s = run(ValuePrediction::Stride)
            .result(MachineKind::Base)
            .unwrap()
            .cycles;
        let p = run(ValuePrediction::Perfect)
            .result(MachineKind::Base)
            .unwrap()
            .cycles;
        assert!(s < o, "stride should break the induction chain ({s} vs {o})");
        assert!(p < s, "perfect should break the irregular chain ({p} vs {s})");
    }

    // Monotonicity is a theorem, not a trend: coarse modes fold stores
    // into the last-write table with a running max
    // (`MemDisambiguation::accumulates`), so refining the key partition
    // can only remove constraints. `perfect <= static <= none` in
    // cycles, pointwise on every machine.
    #[test]
    fn weaker_disambiguation_never_helps() {
        use crate::MemDisambiguation;
        let program = compile(LOOPY).unwrap();
        let run = |mode: MemDisambiguation| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle, MachineKind::SpCdMf])
                .with_disambiguation(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let perfect = run(MemDisambiguation::Perfect);
        let stat = run(MemDisambiguation::Static);
        let none = run(MemDisambiguation::None);
        for kind in [MachineKind::Oracle, MachineKind::SpCdMf] {
            let p = perfect.result(kind).unwrap().cycles;
            let s = stat.result(kind).unwrap().cycles;
            let n = none.result(kind).unwrap().cycles;
            assert!(p <= s, "{kind}: static beat the oracle ({p} vs {s})");
            assert!(s <= n, "{kind}: no disambiguation beat static ({s} vs {n})");
        }
        // Strict separation needs disjoint global chains that frame
        // traffic doesn't drown out: `a`'s serial region chain slows
        // Static past the oracle, while `b`'s load only serializes when
        // all of memory is one location.
        let program = clfp_isa::assemble(
            r#"
            .data
            a: .space 64
            b: .space 64
            .text
            main:
                li r8, 1
                sw r8, 0x1000(r0)  # a[0]
                lw r9, 0x1004(r0)  # a[1]: independent only under Perfect
                sw r9, 0x1008(r0)  # a[2]: extends the region chain
                lw r10, 0x1044(r0) # b[1]: serializes only under None
                add r11, r10, r10
                halt
            "#,
        )
        .unwrap();
        let run = |mode: MemDisambiguation| {
            let config = AnalysisConfig::quick()
                .with_machines(&[MachineKind::Oracle])
                .with_disambiguation(mode);
            Analyzer::new(&program, config).unwrap().run().unwrap()
        };
        let p = run(MemDisambiguation::Perfect)
            .result(MachineKind::Oracle)
            .unwrap()
            .cycles;
        let s = run(MemDisambiguation::Static)
            .result(MachineKind::Oracle)
            .unwrap()
            .cycles;
        let n = run(MemDisambiguation::None)
            .result(MachineKind::Oracle)
            .unwrap()
            .cycles;
        assert!(p < s, "static should serialize some oracle parallelism ({p} vs {s})");
        assert!(s < n, "static should beat a single-location memory ({s} vs {n})");
    }

    // Mode slicing is a refactoring of preparation, not an approximation:
    // a slice of one shared (perfect-base) preparation must be
    // indistinguishable from preparing from scratch under the mode —
    // reports, branch statistics, and misprediction stats all included.
    #[test]
    fn mode_slices_match_dedicated_preparation() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let base_config = AnalysisConfig::quick();
        let analyzer = Analyzer::new(&program, base_config.clone()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare_multimode(&trace);
        for dis in MemDisambiguation::ALL {
            for vp in ValuePrediction::ALL {
                let slice = prepared.slice_modes(dis, vp);
                let (slice_unrolled, slice_rolled) = slice.report_both();
                let config = base_config
                    .clone()
                    .with_disambiguation(dis)
                    .with_value_prediction(vp);
                let dedicated = Analyzer::new(&program, config).unwrap();
                let dedicated_prep = dedicated.prepare(&trace);
                let (full_unrolled, full_rolled) = dedicated_prep.report_both();
                let scalar = dedicated_prep.report_with_unrolling_scalar(true);
                for (got, want) in [
                    (&slice_unrolled, &full_unrolled),
                    (&slice_rolled, &full_rolled),
                    (&slice_unrolled, &scalar),
                ] {
                    assert_eq!(got.seq_instrs, want.seq_instrs, "{dis:?}/{vp:?}");
                    assert_eq!(got.raw_instrs, want.raw_instrs, "{dis:?}/{vp:?}");
                    assert_eq!(got.branches, want.branches, "{dis:?}/{vp:?}");
                    assert_eq!(got.mispred_stats, want.mispred_stats, "{dis:?}/{vp:?}");
                    for (a, b) in got.results.iter().zip(&want.results) {
                        assert_eq!(a.kind, b.kind, "{dis:?}/{vp:?}");
                        assert_eq!(a.cycles, b.cycles, "{dis:?}/{vp:?} {:?}", a.kind);
                    }
                }
            }
        }
    }

    // The one-walk mode matrix is the same arithmetic as per-mode slices
    // (and therefore as dedicated preparations — see
    // `mode_slices_match_dedicated_preparation`), just scheduled in one
    // pass: every (mode, machine, unroll) cell must agree exactly.
    #[test]
    fn mode_matrix_matches_slices() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let analyzer = Analyzer::new(&program, AnalysisConfig::quick()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare_multimode(&trace);
        let mut modes = Vec::new();
        for dis in MemDisambiguation::ALL {
            for vp in ValuePrediction::ALL {
                modes.push((dis, vp));
            }
        }
        let matrix = prepared.report_mode_matrix(&modes);
        assert_eq!(matrix.len(), modes.len());
        for (&(dis, vp), (mat_unrolled, mat_rolled)) in modes.iter().zip(&matrix) {
            let slice = prepared.slice_modes(dis, vp);
            let (slice_unrolled, slice_rolled) = slice.report_both();
            for (got, want) in [(mat_unrolled, &slice_unrolled), (mat_rolled, &slice_rolled)] {
                assert_eq!(got.seq_instrs, want.seq_instrs, "{dis:?}/{vp:?}");
                assert_eq!(got.raw_instrs, want.raw_instrs, "{dis:?}/{vp:?}");
                assert_eq!(got.branches, want.branches, "{dis:?}/{vp:?}");
                assert_eq!(got.mispred_stats, want.mispred_stats, "{dis:?}/{vp:?}");
                for (a, b) in got.results.iter().zip(&want.results) {
                    assert_eq!(a.kind, b.kind, "{dis:?}/{vp:?}");
                    assert_eq!(a.cycles, b.cycles, "{dis:?}/{vp:?} {:?}", a.kind);
                }
            }
        }
    }

    // The matrix metrics path (recording lane groups over per-mode
    // slices) must describe exactly the schedules the one-walk lane
    // matrix reports: same machines, same cycle and instruction counts,
    // for every mode cell — otherwise the attribution tables would
    // diagnose a schedule nobody ran.
    #[test]
    fn mode_matrix_metrics_match_matrix_cycles() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let analyzer = Analyzer::new(&program, AnalysisConfig::quick()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare_multimode(&trace);
        let modes = [
            (MemDisambiguation::Perfect, ValuePrediction::Off),
            (MemDisambiguation::Static, ValuePrediction::Stride),
            (MemDisambiguation::None, ValuePrediction::Perfect),
        ];
        let matrix = prepared.report_mode_matrix(&modes);
        for unrolling in [true, false] {
            let metrics = prepared.mode_matrix_metrics(&modes, unrolling);
            assert_eq!(metrics.len(), modes.len());
            for ((&(dis, vp), (mat_unrolled, mat_rolled)), mode_metrics) in
                modes.iter().zip(&matrix).zip(&metrics)
            {
                let report = if unrolling { mat_unrolled } else { mat_rolled };
                assert_eq!(mode_metrics.len(), report.results.len());
                for ((kind, m), r) in mode_metrics.iter().zip(&report.results) {
                    assert_eq!(*kind, r.kind, "{dis:?}/{vp:?}");
                    assert_eq!(m.cycles, r.cycles, "{dis:?}/{vp:?} {:?}", r.kind);
                    assert!(m.instrs > 0, "{dis:?}/{vp:?} {:?}", r.kind);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "perfect-disambiguation base")]
    fn slicing_from_a_coarse_base_panics() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let config = AnalysisConfig::quick().with_disambiguation(MemDisambiguation::None);
        let analyzer = Analyzer::new(&program, config).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let prepared = analyzer.prepare(&trace);
        prepared.slice_modes(MemDisambiguation::Static, ValuePrediction::Off);
    }

    #[test]
    #[should_panic(expected = "trained the value predictors")]
    fn slicing_untrained_base_to_realistic_prediction_panics() {
        use crate::{MemDisambiguation, ValuePrediction};
        let program = compile(LOOPY).unwrap();
        let analyzer = Analyzer::new(&program, AnalysisConfig::quick()).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        // `prepare` (not `prepare_multimode`) under the default Off mode
        // skips predictor training; asking the slice for stride hit bits
        // it never recorded must fail loudly rather than report zeros.
        let prepared = analyzer.prepare(&trace);
        prepared.slice_modes(MemDisambiguation::Perfect, ValuePrediction::Stride);
    }

    #[test]
    fn reference_path_matches_fused_run() {
        let program = compile(LOOPY).unwrap();
        let config = AnalysisConfig::quick();
        let analyzer = Analyzer::new(&program, config).unwrap();
        let mut vm = clfp_vm::Vm::new(
            &program,
            VmOptions {
                mem_words: analyzer.config.mem_words,
            },
        );
        let trace = vm.trace(analyzer.config.max_instrs).unwrap();
        let fused = analyzer.run_on_trace(&trace);
        let reference = analyzer.run_on_trace_reference(&trace);
        assert_eq!(fused.seq_instrs, reference.seq_instrs);
        assert_eq!(fused.raw_instrs, reference.raw_instrs);
        assert_eq!(fused.branches, reference.branches);
        assert_eq!(fused.mispred_stats, reference.mispred_stats);
        for (f, r) in fused.results.iter().zip(&reference.results) {
            assert_eq!(f.kind, r.kind);
            assert_eq!(f.cycles, r.cycles);
            assert!((f.parallelism - r.parallelism).abs() < 1e-12);
        }
    }
}
