//! The fused multi-machine scheduling pass.
//!
//! [`run_pass`](crate::pass::run_pass) re-derives, per machine model, a
//! pile of facts that do not depend on the machine at all: instruction
//! decode, effective-address disambiguation keys, block-instance sequence
//! numbers, and the *selection* of each instruction's immediate control
//! dependence. [`run_machine`] instead walks the pre-resolved
//! [`EventMeta`] stream from [`meta`](crate::meta), so one machine pass
//! touches only its own timing state:
//!
//! * register/memory last-write tables (shared shape with the reference);
//! * per-branch `time`/`ceiling` arrays indexed by static PC — the
//!   machine-dependent half of Section 4.4.1's dynamic control
//!   dependence, read through the event's pre-resolved `cd` annotation;
//! * the inherited-dependence call stack (times only; the sequence-number
//!   half lives in the shared walk).
//!
//! Machines that do not consult control dependences (BASE, SP, ORACLE)
//! skip the branch arrays and stack entirely: their results are provably
//! independent of that bookkeeping, which the reference pass maintains
//! only for stack inheritance that nothing ever reads on those models.
//!
//! [`run_fused`] runs all requested machines over one prepared trace,
//! reusing a single [`MachineState`] allocation sequentially, or — when
//! the host has cores to spare — fanning machines out over a scoped
//! worker pool (the same `std::thread::scope` pattern as the benchmark
//! suite; machine passes share only immutable data).
//!
//! The production scheduler is the lane kernel ([`lane`](crate::lane)),
//! which also records metrics. This scalar walk has no metrics sink; it
//! stays only as a second, machine-at-a-time oracle for the lane kernel's
//! schedules ([`PreparedTrace::report_with_unrolling_scalar`](crate::PreparedTrace::report_with_unrolling_scalar)).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::lastwrite::LastWriteTable;
use crate::meta::{
    EventClass, EventMeta, ProgramMeta, CD_INHERIT, CD_NONE, EV_BRANCH, EV_MISPRED, EV_VALPRED,
    NO_REG, PC_CALL, PC_LOAD, PC_RET, PC_STORE,
};
use crate::pass::{PassConfig, PassResult};
use crate::stats::MispredictionStats;
use crate::MachineKind;

/// Reusable per-machine timing state. `clear()` + the next `run_machine`
/// call is equivalent to a fresh state, without reallocating the tables.
pub(crate) struct MachineState {
    reg_time: [u64; 32],
    /// False-dependence state, used only when renaming is off.
    reg_read: [u64; 32],
    mem_time: LastWriteTable,
    mem_read: LastWriteTable,
    /// Execution time of the latest instance of each branch PC
    /// (CD/CD-MF constraint source; meaningless until that branch has
    /// executed, which the pre-resolved `cd` annotations guarantee).
    branch_time: Vec<u64>,
    /// Misprediction ceiling of the latest instance of each branch PC
    /// (SP-CD/SP-CD-MF constraint source).
    branch_ceiling: Vec<u64>,
    /// Inherited `(time, ceiling)` per active call.
    stack: Vec<(u64, u64)>,
}

impl MachineState {
    /// A fresh state with the last-write tables sized for `mem_capacity`
    /// distinct keys — pass the trace's measured
    /// `distinct_mem_keys` (or a summary's `distinct_mem_words`) to avoid
    /// rehash/grow churn on memory-heavy workloads.
    pub fn with_mem_capacity(text_len: usize, mem_capacity: usize) -> MachineState {
        MachineState {
            reg_time: [0; 32],
            reg_read: [0; 32],
            mem_time: LastWriteTable::with_capacity(mem_capacity),
            mem_read: LastWriteTable::with_capacity(mem_capacity),
            branch_time: vec![0; text_len],
            branch_ceiling: vec![0; text_len],
            stack: Vec::new(),
        }
    }

    pub fn clear(&mut self) {
        self.reg_time = [0; 32];
        self.reg_read = [0; 32];
        self.mem_time.clear();
        self.mem_read.clear();
        self.branch_time.fill(0);
        self.branch_ceiling.fill(0);
        self.stack.clear();
    }

    /// Reads the `(time, ceiling)` control-dependence context named by a
    /// pre-resolved `cd` annotation.
    #[inline]
    fn cd_ctx(&self, cd: u32) -> (u64, u64) {
        match cd {
            CD_NONE => (0, 0),
            CD_INHERIT => self.stack.last().copied().unwrap_or((0, 0)),
            pc => (
                self.branch_time[pc as usize],
                self.branch_ceiling[pc as usize],
            ),
        }
    }
}

/// One machine pass over a pre-decoded trace. Bit-for-bit equivalent to
/// [`run_pass`](crate::pass::run_pass) on the same classification (the
/// `fused_equivalence` integration suite holds this across every machine,
/// workload, and unroll setting).
pub(crate) fn run_machine(
    pcs: &ProgramMeta,
    events: &[EventMeta],
    class: &EventClass,
    config: &PassConfig,
    kind: MachineKind,
    state: &mut MachineState,
) -> PassResult {
    debug_assert!(events.len() <= class.len());
    let uses_cd = kind.uses_control_deps();
    let track_segments = kind == MachineKind::Sp;
    let mut last_branch = 0u64;
    let mut last_mispred = 0u64;
    let mut cycles = 0u64;
    let mut count = 0u64;
    let mut stats = MispredictionStats::new();
    let mut seg_count = 0u64;
    let mut seg_start = 0u64;
    let mut seg_max = 0u64;

    for (j, event) in events.iter().enumerate() {
        let meta = &pcs.pcs[event.pc as usize];
        let ignored = class.ignored(j);
        let is_branch = event.flags & EV_BRANCH != 0;
        let mispredicted = event.flags & EV_MISPRED != 0 && is_branch;

        let cd = if uses_cd {
            state.cd_ctx(event.cd)
        } else {
            (0, 0)
        };

        // Machine-specific control constraint.
        let mut ctl = match kind {
            MachineKind::Base => last_branch,
            MachineKind::Cd | MachineKind::CdMf => cd.0,
            MachineKind::Sp => last_mispred,
            MachineKind::SpCd | MachineKind::SpCdMf => cd.1,
            MachineKind::Oracle => 0,
        };
        // Branch-ordering constraints.
        if is_branch && !ignored {
            match kind {
                MachineKind::Cd => ctl = ctl.max(last_branch),
                MachineKind::SpCd if mispredicted => ctl = ctl.max(last_mispred),
                _ => {}
            }
        }

        let mut exec = 0u64;
        if !ignored {
            if let Some(width) = config.fetch_bandwidth {
                ctl = ctl.max(count / width);
            }
            let mut data = 0u64;
            for &reg in &meta.uses {
                if reg == NO_REG {
                    break;
                }
                data = data.max(state.reg_time[reg as usize]);
            }
            let is_load = meta.is(PC_LOAD);
            let is_store = meta.is(PC_STORE);
            if is_load {
                data = data.max(state.mem_time.get(event.mem_key));
            }
            if !config.rename {
                if meta.def != NO_REG {
                    data = data
                        .max(state.reg_read[meta.def as usize])
                        .max(state.reg_time[meta.def as usize]);
                }
                if is_store {
                    data = data
                        .max(state.mem_read.get(event.mem_key))
                        .max(state.mem_time.get(event.mem_key));
                }
            }
            exec = data.max(ctl) + 1;
            let done = exec + meta.latency as u64 - 1;
            count += 1;
            cycles = cycles.max(done);
            if meta.def != NO_REG {
                // A correctly value-predicted producer (EV_VALPRED, decided
                // once in the preparation walk) releases its consumers
                // immediately; its own exec/done still count — verification
                // is charged at resolve time like a mispredicted branch.
                state.reg_time[meta.def as usize] = if event.flags & EV_VALPRED != 0 {
                    0
                } else {
                    done
                };
            }
            if is_store {
                let prev = state.mem_time.get(event.mem_key);
                let accumulate = config.disambiguation.accumulates();
                state.mem_time.set(
                    event.mem_key,
                    if accumulate { prev.max(done) } else { done },
                );
            }
            if !config.rename {
                for &reg in &meta.uses {
                    if reg == NO_REG {
                        break;
                    }
                    state.reg_read[reg as usize] = state.reg_read[reg as usize].max(exec);
                }
                if is_load {
                    let prev = state.mem_read.get(event.mem_key);
                    state.mem_read.set(event.mem_key, prev.max(exec));
                }
            }
        }

        // Tracker updates.
        if is_branch {
            if !ignored {
                last_branch = exec;
                if mispredicted {
                    last_mispred = exec;
                }
            }
            if uses_cd {
                let pc = event.pc as usize;
                if ignored {
                    // Perfect unrolling deleted this branch: dependents
                    // inherit the constraint the branch itself would have
                    // waited on.
                    state.branch_time[pc] = cd.0;
                    state.branch_ceiling[pc] = cd.1;
                } else {
                    state.branch_time[pc] = exec;
                    state.branch_ceiling[pc] = if mispredicted { exec } else { cd.1 };
                }
            }
        }
        if uses_cd {
            if meta.is(PC_CALL) {
                state.stack.push(cd);
            } else if meta.is(PC_RET) {
                state.stack.pop();
            }
        }

        // SP segment statistics.
        if track_segments && !ignored {
            seg_count += 1;
            seg_max = seg_max.max(exec);
            if mispredicted {
                let span = seg_max.saturating_sub(seg_start).max(1);
                stats.record_segment(
                    seg_count.min(u32::MAX as u64) as u32,
                    seg_count as f64 / span as f64,
                );
                seg_count = 0;
                seg_start = exec;
                seg_max = exec;
            }
        }
    }

    if track_segments && seg_count > 0 {
        let span = seg_max.saturating_sub(seg_start).max(1);
        stats.record_segment(
            seg_count.min(u32::MAX as u64) as u32,
            seg_count as f64 / span as f64,
        );
    }
    PassResult {
        cycles,
        count,
        mispred_stats: track_segments.then_some(stats),
    }
}

/// Runs every requested machine over one prepared trace, returning results
/// in request order.
///
/// Single core (or a single machine): a sequential loop reusing one
/// [`MachineState`]. Multiple cores: a scoped worker pool pulling machine
/// indices from a shared counter, one state per worker.
pub(crate) fn run_fused(
    pcs: &ProgramMeta,
    events: &[EventMeta],
    class: &EventClass,
    config: &PassConfig,
    kinds: &[MachineKind],
    mem_capacity: usize,
) -> Vec<PassResult> {
    let text_len = pcs.pcs.len();
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(kinds.len());
    if workers <= 1 {
        let mut state = MachineState::with_mem_capacity(text_len, mem_capacity);
        return kinds
            .iter()
            .map(|&kind| {
                state.clear();
                run_machine(pcs, events, class, config, kind, &mut state)
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<PassResult>>> = Mutex::new(vec![None; kinds.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = MachineState::with_mem_capacity(text_len, mem_capacity);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= kinds.len() {
                        break;
                    }
                    state.clear();
                    let result = run_machine(pcs, events, class, config, kinds[i], &mut state);
                    results.lock().unwrap()[i] = Some(result);
                }
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|result| result.expect("every machine index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::TraceMeta;
    use crate::pass::{run_pass, Prepared};
    use crate::AnalysisConfig;
    use clfp_cfg::StaticInfo;
    use clfp_isa::assemble;
    use clfp_vm::{Vm, VmOptions};

    /// A procedure-heavy program exercising calls, recursion-free CD
    /// inheritance, loops, and memory traffic.
    const SOURCE: &str = r#"
        .text
        main:
            li r8, 8
        mloop:
            mv a0, r8
            call work
            sw v0, 0x1000(r0)
            lw r9, 0x1000(r0)
            addi r8, r8, -1
            bgt r8, r0, mloop
            halt
        work:
            addi sp, sp, -4
            sw ra, 0(sp)
            li v0, 0
            ble a0, r0, wend
            addi v0, a0, 5
        wend:
            lw ra, 0(sp)
            addi sp, sp, 4
            ret
        "#;

    #[test]
    fn fused_matches_reference_on_every_machine() {
        let program = assemble(SOURCE).unwrap();
        let info = StaticInfo::analyze(&program);
        for unrolling in [false, true] {
            let config = AnalysisConfig::quick().with_unrolling(unrolling);
            let pass_config = PassConfig::from_analysis(&config);
            let pcs = ProgramMeta::build(&program, &info, &pass_config);
            let mut vm = Vm::new(
                &program,
                VmOptions {
                    mem_words: config.mem_words,
                },
            );
            let trace = vm.trace(config.max_instrs).unwrap();
            let tm = TraceMeta::build(&program, &info, &pcs, &config, &trace, false);
            let class = tm.class(unrolling);
            let mut state = MachineState::with_mem_capacity(
                program.text.len(),
                crate::lane::DEFAULT_MEM_CAPACITY,
            );
            for kind in MachineKind::ALL {
                state.clear();
                let fused = run_machine(&pcs, &tm.events, class, &pass_config, kind, &mut state);
                let reference = run_pass(
                    &Prepared {
                        program: &program,
                        info: &info,
                        events: trace.events(),
                        class,
                        pass_config,
                    },
                    kind,
                );
                assert_eq!(fused.cycles, reference.cycles, "{kind} unroll={unrolling}");
                assert_eq!(fused.count, reference.count, "{kind} unroll={unrolling}");
                assert_eq!(
                    fused.mispred_stats, reference.mispred_stats,
                    "{kind} unroll={unrolling}"
                );
            }
        }
    }

    #[test]
    fn run_fused_orders_results_by_request() {
        let program = assemble(SOURCE).unwrap();
        let info = StaticInfo::analyze(&program);
        let config = AnalysisConfig::quick();
        let pass_config = PassConfig::from_analysis(&config);
        let pcs = ProgramMeta::build(&program, &info, &pass_config);
        let mut vm = Vm::new(
            &program,
            VmOptions {
                mem_words: config.mem_words,
            },
        );
        let trace = vm.trace(config.max_instrs).unwrap();
        let tm = TraceMeta::build(&program, &info, &pcs, &config, &trace, false);
        let class = tm.class(config.unrolling);
        let kinds = [MachineKind::Oracle, MachineKind::Base, MachineKind::Sp];
        let results = run_fused(
            &pcs,
            &tm.events,
            class,
            &pass_config,
            &kinds,
            crate::lane::DEFAULT_MEM_CAPACITY,
        );
        assert_eq!(results.len(), 3);
        let mut state =
            MachineState::with_mem_capacity(program.text.len(), crate::lane::DEFAULT_MEM_CAPACITY);
        for (result, &kind) in results.iter().zip(&kinds) {
            state.clear();
            let lone = run_machine(&pcs, &tm.events, class, &pass_config, kind, &mut state);
            assert_eq!(result.cycles, lone.cycles, "{kind}");
            assert_eq!(result.count, lone.count, "{kind}");
        }
        // SP is last in the request, so its stats are present there only.
        assert!(results[2].mispred_stats.is_some());
        assert!(results[0].mispred_stats.is_none());
    }
}
