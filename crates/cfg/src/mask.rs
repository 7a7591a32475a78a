use clfp_isa::{Instr, Program, Reg};

use crate::{AliasAnalysis, Cfg, ControlDeps, InductionInfo, LoopForest};

/// Return-address saves/restores through the frame are call overhead:
/// inlined code has no return address, so perfect inlining deletes them
/// along with the call itself. (Keeping them would thread an artificial
/// serial chain through every same-depth call, since the `call` that
/// defines `ra` is itself deleted.)
fn is_ra_spill(instr: Instr) -> bool {
    match instr {
        Instr::Sw { rs, base, .. } => rs == Reg::RA && (base == Reg::SP || base == Reg::FP),
        Instr::Lw { rd, base, .. } => rd == Reg::RA && (base == Reg::SP || base == Reg::FP),
        _ => false,
    }
}

/// The per-instruction "ignore" sets that implement the paper's two trace
/// transformations (Section 4.2):
///
/// * **Perfect inlining** — always applied: calls, returns, and
///   stack-pointer arithmetic vanish from traces, removing the serial
///   stack-pointer dependence chain and call-overhead instructions.
/// * **Perfect unrolling** — optional (Table 4 compares both settings):
///   loop-index increments, loop-index comparisons against invariants, and
///   the branches on those comparisons vanish, removing the serial
///   iteration-counter chain.
///
/// Ignored instructions do not execute, do not update last-write state, and
/// do not count toward sequential time.
#[derive(Clone, Debug)]
pub struct IgnoreMasks {
    inline: Vec<bool>,
    unroll: Vec<bool>,
}

impl IgnoreMasks {
    /// Computes both masks for a program, running loop discovery and
    /// induction-variable analysis internally.
    pub fn compute(program: &Program, cfg: &Cfg) -> IgnoreMasks {
        let forest = LoopForest::find(cfg);
        let induction = InductionInfo::analyze(program, cfg, &forest);
        IgnoreMasks::from_parts(program, &induction)
    }

    /// Builds the masks from an existing induction analysis.
    pub fn from_parts(program: &Program, induction: &InductionInfo) -> IgnoreMasks {
        let inline = program
            .text
            .iter()
            .map(|instr| {
                instr.is_call_or_ret() || instr.is_sp_manip() || is_ra_spill(*instr)
            })
            .collect();
        IgnoreMasks {
            inline,
            unroll: induction.mask().to_vec(),
        }
    }

    /// Whether instruction `pc` is removed by perfect inlining.
    pub fn inline_ignored(&self, pc: u32) -> bool {
        self.inline[pc as usize]
    }

    /// Whether instruction `pc` is removed by perfect unrolling.
    pub fn unroll_ignored(&self, pc: u32) -> bool {
        self.unroll[pc as usize]
    }

    /// Whether instruction `pc` is removed under the given unrolling
    /// setting (inlining is always applied).
    pub fn ignored(&self, pc: u32, unrolling: bool) -> bool {
        self.inline_ignored(pc) || (unrolling && self.unroll_ignored(pc))
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.inline.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.inline.is_empty()
    }
}

/// Bundles every static analysis the limit analyzer needs for one program.
#[derive(Clone, Debug)]
pub struct StaticInfo {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Control dependences (reverse dominance frontiers).
    pub deps: ControlDeps,
    /// Natural loops.
    pub loops: LoopForest,
    /// Induction variables.
    pub induction: InductionInfo,
    /// Trace-transformation masks.
    pub masks: IgnoreMasks,
    /// Interprocedural memory alias analysis.
    pub alias: AliasAnalysis,
}

impl StaticInfo {
    /// Runs all static analyses on a program, each inside its own
    /// `static.*` span (recorded only while tracing is on).
    pub fn analyze(program: &Program) -> StaticInfo {
        let cfg = in_span("static.cfg", || Cfg::build(program));
        let deps = in_span("static.controldep", || ControlDeps::compute(&cfg));
        let loops = in_span("static.loops", || LoopForest::find(&cfg));
        let induction = in_span("static.induction", || {
            InductionInfo::analyze(program, &cfg, &loops)
        });
        let masks = in_span("static.masks", || IgnoreMasks::from_parts(program, &induction));
        let alias = in_span("static.alias", || AliasAnalysis::analyze(program, &cfg));
        StaticInfo {
            cfg,
            deps,
            loops,
            induction,
            masks,
            alias,
        }
    }
}

/// Runs one static pass inside a span of its own.
fn in_span<T>(name: &'static str, pass: impl FnOnce() -> T) -> T {
    let _span = clfp_metrics::trace::span(name, "static");
    pass()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::assemble;

    #[test]
    fn inline_mask_covers_calls_and_sp() {
        let program = assemble(
            r#"
            .text
            main:
                call f             # pc 0
                halt               # pc 1
            f:
                addi sp, sp, -8    # pc 2
                sw ra, 0(sp)       # pc 3
                lw ra, 0(sp)       # pc 4
                addi sp, sp, 8     # pc 5
                ret                # pc 6
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&program);
        let masks = IgnoreMasks::compute(&program, &cfg);
        assert!(masks.inline_ignored(0)); // call
        assert!(!masks.inline_ignored(1)); // halt
        assert!(masks.inline_ignored(2)); // sp -= 8
        assert!(masks.inline_ignored(3)); // ra spill is call overhead
        assert!(masks.inline_ignored(4)); // ra restore is call overhead
        assert!(masks.inline_ignored(5)); // sp += 8
        assert!(masks.inline_ignored(6)); // ret
        assert_eq!(masks.len(), 7);
        assert!(!masks.is_empty());
    }

    #[test]
    fn ignored_combines_masks() {
        let program = assemble(
            r#"
            .text
            main:
                li r8, 0
            loop:
                addi r8, r8, 1     # pc 1
                blt r8, r9, loop   # pc 2
                ret                # pc 3
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&program);
        let masks = IgnoreMasks::compute(&program, &cfg);
        assert!(masks.ignored(1, true));
        assert!(!masks.ignored(1, false));
        assert!(masks.ignored(3, false)); // ret ignored regardless
    }

    #[test]
    fn static_info_is_consistent() {
        let program = assemble(
            ".text\nmain: li r8, 5\nloop: addi r8, r8, -1\n bgt r8, r0, loop\n halt",
        )
        .unwrap();
        let info = StaticInfo::analyze(&program);
        assert_eq!(info.cfg.blocks().len(), 3);
        assert_eq!(info.loops.loops().len(), 1);
        assert!(info.deps.check(&info.cfg, &program.text));
        assert_eq!(info.masks.len(), program.text.len());
    }
}
