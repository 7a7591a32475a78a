//! Interprocedural memory alias analysis over abstract regions.
//!
//! The limit study assumes *perfectly disambiguated memory*: the
//! scheduler's last-write table is keyed by exact dynamic address, so only
//! true store-to-load chains serialize. A real compiler scheduling the same
//! code statically can only prove what an alias analysis proves. This
//! module computes that static approximation from object code alone:
//!
//! * a whole-program [`CallGraph`] (direct calls plus indirect calls
//!   through address-taken procedures, mirroring the CFG's
//!   `li`-materialized code-symbol rule);
//! * an abstract-region partition of the address space
//!   ([`RegionUniverse`]): one region per data symbol (statically disjoint
//!   address ranges), one region per procedure's stack frame, a small set
//!   of hashed heap partitions for addresses outside both, and a
//!   null-guard region below [`DATA_BASE`];
//! * a flow-insensitive, Andersen-style points-to analysis over those
//!   regions: `li` of a data address seeds a register's points-to set,
//!   add/sub propagate it (pointer arithmetic stays within a region),
//!   loads read region *contents*, stores write them (tracking pointers
//!   spilled through memory), and call/return edges copy argument
//!   (`a0..a3`) and result (`v0`/`v1`) registers across procedures —
//!   solved by sequential sweeps over every procedure's constraints on
//!   the live points-to state (programs here have hundreds of instructions, far
//!   below where fanning the solve out over threads pays);
//! * a per-memory-instruction [`MemAccess`] record — the set of regions
//!   the access may touch (a [`BitSet`] over the region universe) and, for
//!   absolute addressing, the exact address — from which
//!   [`AliasAnalysis::classify`] answers no-alias / may-alias / must-alias
//!   for every static load/store pair, and
//!   [`AliasAnalysis::scheduler_class`] derives the merged last-write
//!   classes the `Static` disambiguation mode keys its scheduler on;
//! * an address-taken / escape analysis ([`AliasAnalysis::escaping`]):
//!   stack frames whose region flows into stored values, call arguments,
//!   or returned values.
//!
//! ## Soundness model
//!
//! The classification is judged against *dynamic* traces by the
//! `clfp-verify` soundness gate: every observed address conflict (two
//! accesses to the same word, at least one a store) must fall within a
//! statically may- or must-aliased pair. Two conservatisms make that hold:
//!
//! * **Frame reuse.** Stack frames of different procedures (and different
//!   activations of the same procedure) reuse addresses over time, so any
//!   two stack regions are treated as may-aliased, and all stack regions
//!   share one scheduler class.
//! * **Unknown pointers go to top.** An access through a register with an
//!   empty points-to set is assumed to reach every region.

use std::collections::BTreeMap;

use clfp_isa::{AluOp, Instr, Program, Reg, DATA_BASE};

use crate::dataflow::BitSet;
use crate::{Cfg, ProcId};

/// Number of hashed heap partitions: addresses outside the data segment
/// and not reached through `sp`/`fp` hash into one of these by 64-byte
/// line. MiniC has no allocator, so these stay empty on compiled
/// workloads; hand-written assembly scratch addresses land here.
const HEAP_PARTS: u32 = 4;

/// Cap on distinct global regions; programs with more data symbols fold
/// symbols into regions round-robin (still sound: folding only merges).
const MAX_GLOBAL_REGIONS: u32 = 64;

/// The abstract-region partition of the simulated address space.
///
/// Region ids are dense: `0` is the null-guard region (addresses below
/// [`DATA_BASE`]), then one region per data symbol (capped at
/// `MAX_GLOBAL_REGIONS` = 64, folding round-robin beyond), then
/// `HEAP_PARTS` = 4 hashed heap partitions, then one stack-frame region per
/// procedure.
#[derive(Clone, Debug)]
pub struct RegionUniverse {
    /// Data symbols as `(start, end, region_id, name)`, sorted by start.
    globals: Vec<(u32, u32, u32, String)>,
    /// First heap-partition region id.
    heap_base: u32,
    /// First stack-frame region id.
    stack_base: u32,
    /// Total region count.
    len: u32,
}

impl RegionUniverse {
    /// Builds the region partition for a program's data symbols and the
    /// CFG's procedure count.
    pub fn build(program: &Program, cfg: &Cfg) -> RegionUniverse {
        let mut by_addr: BTreeMap<u32, (u32, String)> = BTreeMap::new();
        for (name, item) in program.symbols.data_symbols() {
            by_addr.insert(item.addr, (item.size.max(4), name.to_string()));
        }
        let global_regions = (by_addr.len() as u32).min(MAX_GLOBAL_REGIONS);
        let globals: Vec<(u32, u32, u32, String)> = by_addr
            .into_iter()
            .enumerate()
            .map(|(index, (start, (size, name)))| {
                (start, start + size, 1 + (index as u32 % MAX_GLOBAL_REGIONS), name)
            })
            .collect();
        let heap_base = 1 + global_regions;
        let stack_base = heap_base + HEAP_PARTS;
        RegionUniverse {
            globals,
            heap_base,
            stack_base,
            len: stack_base + cfg.procs().len() as u32,
        }
    }

    /// Total number of regions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the universe is empty (never: the guard region always
    /// exists).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The region containing a concrete byte address: the null guard,
    /// a data symbol's range, or a hashed heap partition. Stack addresses
    /// cannot be recognized statically — callers map `sp`/`fp`-relative
    /// accesses to [`RegionUniverse::stack_region`] instead.
    pub fn region_of_addr(&self, addr: u32) -> u32 {
        if addr < DATA_BASE {
            return 0;
        }
        let at = self.globals.partition_point(|&(start, ..)| start <= addr);
        if at > 0 {
            let (_, end, region, _) = self.globals[at - 1];
            if addr < end {
                return region;
            }
        }
        self.heap_base + (addr >> 6) % HEAP_PARTS
    }

    /// The stack-frame region of a procedure.
    pub fn stack_region(&self, proc: ProcId) -> u32 {
        self.stack_base + proc.0
    }

    /// Whether a region is a stack frame.
    pub fn is_stack(&self, region: u32) -> bool {
        region >= self.stack_base
    }

    /// Human-readable region name (`low`, a data symbol, `heap#k`, or
    /// `stack:<proc>`), for diagnostics and the DOT overlay.
    pub fn describe(&self, region: u32, cfg: &Cfg) -> String {
        if region == 0 {
            return "low".to_string();
        }
        if region < self.heap_base {
            let names: Vec<&str> = self
                .globals
                .iter()
                .filter(|&&(_, _, r, _)| r == region)
                .map(|(_, _, _, name)| name.as_str())
                .collect();
            return names.join("+");
        }
        if region < self.stack_base {
            return format!("heap#{}", region - self.heap_base);
        }
        let proc = &cfg.procs()[(region - self.stack_base) as usize];
        format!("stack:{}", proc.name.as_deref().unwrap_or("anon"))
    }
}

/// The whole-program call graph over the CFG's procedure partition.
///
/// Direct calls contribute exact edges; indirect calls (`callr`)
/// conservatively target every address-taken procedure — the same
/// `li`-materialized code-symbol rule the CFG uses to discover procedure
/// entries.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Per-procedure callee lists (deduplicated, ascending).
    pub callees: Vec<Vec<ProcId>>,
    /// Per-procedure caller lists (deduplicated, ascending).
    pub callers: Vec<Vec<ProcId>>,
    /// Whether each procedure's address is taken (an indirect-call
    /// target).
    pub address_taken: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph for a program and its CFG.
    pub fn build(program: &Program, cfg: &Cfg) -> CallGraph {
        let procs = cfg.procs().len();
        let text = &program.text;
        let mut address_taken = vec![false; procs];
        for instr in text {
            if let Instr::Li { imm, .. } = *instr {
                if imm >= 0
                    && (imm as usize) < text.len()
                    && program.symbols.code_symbols().any(|(_, at)| at == imm as u32)
                {
                    address_taken[cfg.proc_of_instr(imm as u32).index()] = true;
                }
            }
        }
        let taken: Vec<ProcId> = (0..procs)
            .filter(|&p| address_taken[p])
            .map(|p| ProcId(p as u32))
            .collect();
        let mut callees: Vec<Vec<ProcId>> = vec![Vec::new(); procs];
        let mut callers: Vec<Vec<ProcId>> = vec![Vec::new(); procs];
        for (pi, proc) in cfg.procs().iter().enumerate() {
            for &block in &proc.blocks {
                for pc in cfg.block(block).instrs() {
                    match text[pc as usize] {
                        Instr::Call { target } => {
                            callees[pi].push(cfg.proc_of_instr(target));
                        }
                        Instr::CallR { .. } => callees[pi].extend(taken.iter().copied()),
                        _ => {}
                    }
                }
            }
        }
        for (pi, list) in callees.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            for &callee in list.iter() {
                callers[callee.index()].push(ProcId(pi as u32));
            }
        }
        for list in &mut callers {
            list.sort_unstable();
            list.dedup();
        }
        CallGraph {
            callees,
            callers,
            address_taken,
        }
    }
}

/// Static alias relation between two memory instructions.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AliasKind {
    /// The accesses provably touch disjoint memory.
    No,
    /// The accesses may touch overlapping memory.
    May,
    /// The accesses provably touch the same word.
    Must,
}

/// What the analysis proved about one static load or store.
#[derive(Clone, Debug)]
pub struct MemAccess {
    /// Regions the access may touch.
    pub regions: BitSet,
    /// The exact byte address, when the access uses absolute addressing
    /// (`offset(r0)`).
    pub exact_addr: Option<u32>,
    /// Whether any touched region is a stack frame (precomputed for the
    /// frame-reuse rule).
    pub touches_stack: bool,
    /// Whether the points-to set of the base register was empty and the
    /// access fell back to the full region universe.
    pub unknown: bool,
}

/// One load/store site, kept symbolic so access regions can be
/// re-evaluated against the evolving points-to sets.
#[derive(Copy, Clone, Debug)]
struct MemSite {
    base: u8,
    offset: i32,
}

/// One Andersen constraint within a procedure.
#[derive(Copy, Clone, Debug)]
enum Constraint {
    /// `pts(dst) ∪= {region}` — an address constant flowed into `dst`.
    Seed { dst: u8, region: u32 },
    /// `pts(dst) ⊇ pts(src)` — pointer copy/arithmetic.
    Copy { dst: u8, src: u8 },
    /// `pts(dst) ⊇ contents(r)` for every region `r` of the site.
    Load { dst: u8, site: MemSite, top: bool },
    /// `contents(r) ⊇ pts(src)` for every region `r` of the site.
    Store { src: u8, site: MemSite, top: bool },
}

/// The complete interprocedural memory analysis for one program: region
/// universe, call graph, per-register points-to solution, per-instruction
/// access classification, escape information, and the merged scheduler
/// classes consumed by the `Static` disambiguation mode.
#[derive(Clone, Debug)]
pub struct AliasAnalysis {
    /// The abstract-region partition.
    pub universe: RegionUniverse,
    /// The whole-program call graph.
    pub call_graph: CallGraph,
    /// Per-pc access records (`None` for non-memory instructions).
    pub accesses: Vec<Option<MemAccess>>,
    /// Stack-frame regions whose address escapes their procedure: stored
    /// to memory, passed as a call argument, or returned.
    pub escaping: BitSet,
    /// Merged scheduler class per pc (0 for non-memory instructions).
    class_of_pc: Vec<u32>,
    /// Number of distinct scheduler classes in use.
    num_classes: u32,
}

impl AliasAnalysis {
    /// Runs the analysis: region construction, call-graph recovery,
    /// sequential Andersen solve, per-access classification, and
    /// scheduler class merging.
    pub fn analyze(program: &Program, cfg: &Cfg) -> AliasAnalysis {
        let universe = RegionUniverse::build(program, cfg);
        let call_graph = CallGraph::build(program, cfg);
        let regions = universe.len();
        let procs = cfg.procs().len();
        let text = &program.text;

        let constraints: Vec<Vec<Constraint>> = (0..procs)
            .map(|pi| gen_constraints(text, cfg, &universe, pi))
            .collect();

        // Interprocedural copy edges: callers' argument registers flow into
        // callees, callees' result registers flow back.
        let mut incoming: Vec<Vec<(usize, u8)>> = vec![Vec::new(); procs];
        for (pi, callees) in call_graph.callees.iter().enumerate() {
            for &callee in callees {
                for arg in [Reg::A0, Reg::A1, Reg::A2, Reg::A3] {
                    incoming[callee.index()].push((pi, arg.index() as u8));
                }
                for ret in [Reg::V0, Reg::V1] {
                    incoming[pi].push((callee.index(), ret.index() as u8));
                }
            }
        }
        let (pts, contents) = solve(constraints, &incoming, &universe);

        // Per-instruction access records.
        let accesses: Vec<Option<MemAccess>> = text
            .iter()
            .enumerate()
            .map(|(pc, instr)| {
                let (base, offset) = match *instr {
                    Instr::Lw { base, offset, .. } | Instr::Sw { base, offset, .. } => {
                        (base, offset)
                    }
                    _ => return None,
                };
                let proc = cfg.proc_of_instr(pc as u32);
                let site = MemSite {
                    base: base.index() as u8,
                    offset,
                };
                let window = &pts[proc.index() * 32..][..32];
                let (regions, unknown) = site_regions(&site, proc, window, &universe);
                let exact_addr = (base == Reg::ZERO).then_some(offset as u32);
                let touches_stack = regions.iter().any(|r| universe.is_stack(r as u32));
                Some(MemAccess {
                    regions,
                    exact_addr,
                    touches_stack,
                    unknown,
                })
            })
            .collect();

        // Escape analysis: a stack region escapes when it appears in any
        // region's contents (its address was stored), or in the points-to
        // set of an argument or result register (passed or returned).
        let mut escaping = BitSet::new(regions);
        for set in &contents {
            escaping.union_with(set);
        }
        for pi in 0..procs {
            for reg in [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::V0, Reg::V1] {
                escaping.union_with(&pts[pi * 32 + reg.index()]);
            }
        }
        for region in 0..regions {
            if !universe.is_stack(region as u32) {
                escaping.remove(region);
            }
        }

        // Scheduler classes: union-find over regions, merging (a) all stack
        // regions (frame reuse makes them interchangeable over time) and
        // (b) every region co-occurring in one access's region set (a
        // single last-write key must cover the whole set). Every may- or
        // must-aliased pair then shares a class, so keying the last-write
        // table by class serializes exactly the statically unprovable
        // pairs.
        let mut uf = UnionFind::new(regions);
        for region in universe.stack_base..universe.len {
            uf.union(universe.stack_base as usize, region as usize);
        }
        for access in accesses.iter().flatten() {
            let mut first = None;
            for region in access.regions.iter() {
                match first {
                    None => first = Some(region),
                    Some(anchor) => {
                        uf.union(anchor, region);
                    }
                }
            }
        }
        let mut dense: Vec<u32> = vec![u32::MAX; regions];
        let mut num_classes = 0u32;
        let class_of_pc: Vec<u32> = accesses
            .iter()
            .map(|access| {
                let Some(access) = access else { return 0 };
                let root = uf.find(
                    access
                        .regions
                        .iter()
                        .next()
                        .expect("every access touches at least one region"),
                );
                if dense[root] == u32::MAX {
                    dense[root] = num_classes;
                    num_classes += 1;
                }
                dense[root]
            })
            .collect();

        AliasAnalysis {
            universe,
            call_graph,
            accesses,
            escaping,
            class_of_pc,
            num_classes: num_classes.max(1),
        }
    }

    /// The merged last-write class of a memory instruction (0 for
    /// non-memory pcs, which never consult the table).
    #[inline]
    pub fn scheduler_class(&self, pc: u32) -> u32 {
        self.class_of_pc[pc as usize]
    }

    /// Number of distinct scheduler classes (≥ 1).
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Classifies a static pair of memory instructions. Returns `None`
    /// when either pc is not a load or store.
    pub fn classify(&self, a: u32, b: u32) -> Option<AliasKind> {
        let x = self.accesses[a as usize].as_ref()?;
        let y = self.accesses[b as usize].as_ref()?;
        if let (Some(xa), Some(ya)) = (x.exact_addr, y.exact_addr) {
            return Some(if xa == ya { AliasKind::Must } else { AliasKind::No });
        }
        if x.touches_stack && y.touches_stack {
            // Frame reuse: stack regions share addresses over time.
            return Some(AliasKind::May);
        }
        let mut probe = x.regions.clone();
        probe.intersect_with(&y.regions);
        Some(if probe.is_empty() {
            AliasKind::No
        } else {
            AliasKind::May
        })
    }

    /// Short region label for a memory instruction (`A<class>`), for the
    /// DOT overlay; `None` for non-memory pcs.
    pub fn region_label(&self, pc: u32) -> Option<String> {
        self.accesses[pc as usize]
            .as_ref()
            .map(|_| format!("A{}", self.class_of_pc[pc as usize]))
    }

    /// The union of regions any store may write (for the never-stored-load
    /// lint).
    pub fn stored_regions(&self, program: &Program) -> BitSet {
        let mut stored = BitSet::new(self.universe.len());
        for (pc, instr) in program.text.iter().enumerate() {
            if matches!(instr, Instr::Sw { .. }) {
                if let Some(access) = &self.accesses[pc] {
                    stored.union_with(&access.regions);
                }
            }
        }
        stored
    }

    /// The union of regions any load may read (for the region-dead-store
    /// lint).
    pub fn loaded_regions(&self, program: &Program) -> BitSet {
        let mut loaded = BitSet::new(self.universe.len());
        for (pc, instr) in program.text.iter().enumerate() {
            if matches!(instr, Instr::Lw { .. }) {
                if let Some(access) = &self.accesses[pc] {
                    loaded.union_with(&access.regions);
                }
            }
        }
        loaded
    }
}

/// Generates the Andersen constraints for one procedure.
fn gen_constraints(
    text: &[Instr],
    cfg: &Cfg,
    universe: &RegionUniverse,
    pi: usize,
) -> Vec<Constraint> {
    let proc = &cfg.procs()[pi];
    let stack = universe.stack_region(ProcId(pi as u32));
    let mut out = Vec::new();
    let copy_or_seed = |out: &mut Vec<Constraint>, dst: Reg, src: Reg| {
        if dst == Reg::ZERO || src == Reg::ZERO {
            return;
        }
        if src == Reg::SP || src == Reg::FP {
            // A pointer derived from the frame pointer addresses this
            // procedure's frame.
            out.push(Constraint::Seed {
                dst: dst.index() as u8,
                region: stack,
            });
        } else {
            out.push(Constraint::Copy {
                dst: dst.index() as u8,
                src: src.index() as u8,
            });
        }
    };
    for &block in &proc.blocks {
        for pc in cfg.block(block).instrs() {
            match text[pc as usize] {
                Instr::Li { rd, imm } if rd != Reg::ZERO && imm > 0 && imm as u32 >= DATA_BASE => {
                    out.push(Constraint::Seed {
                        dst: rd.index() as u8,
                        region: universe.region_of_addr(imm as u32),
                    });
                }
                Instr::Alu {
                    op: AluOp::Add | AluOp::Sub,
                    rd,
                    rs,
                    rt,
                } => {
                    copy_or_seed(&mut out, rd, rs);
                    copy_or_seed(&mut out, rd, rt);
                }
                Instr::AluI {
                    op: AluOp::Add | AluOp::Sub,
                    rd,
                    rs,
                    imm,
                } => {
                    copy_or_seed(&mut out, rd, rs);
                    if rd != Reg::ZERO && imm > 0 && imm as u32 >= DATA_BASE {
                        out.push(Constraint::Seed {
                            dst: rd.index() as u8,
                            region: universe.region_of_addr(imm as u32),
                        });
                    }
                }
                Instr::CMovN { rd, rs, .. } | Instr::CMovZ { rd, rs, .. } => {
                    copy_or_seed(&mut out, rd, rs);
                }
                Instr::Lw { rd, base, offset } if rd != Reg::ZERO => {
                    out.push(Constraint::Load {
                        dst: rd.index() as u8,
                        site: MemSite {
                            base: base.index() as u8,
                            offset,
                        },
                        top: false,
                    });
                }
                Instr::Sw { rs, base, offset } if rs != Reg::ZERO => {
                    out.push(Constraint::Store {
                        src: rs.index() as u8,
                        site: MemSite {
                            base: base.index() as u8,
                            offset,
                        },
                        top: false,
                    });
                }
                _ => {}
            }
        }
    }
    out
}

/// The regions one memory site of procedure `proc` may touch, given that
/// procedure's 32 per-register points-to sets. Returns the set and whether
/// it fell back to top (unknown base).
fn site_regions(
    site: &MemSite,
    proc: ProcId,
    window: &[BitSet],
    universe: &RegionUniverse,
) -> (BitSet, bool) {
    let regions = universe.len();
    let base = Reg::new(site.base);
    if base == Reg::ZERO {
        // Absolute addressing: the exact region of the constant address.
        let mut set = BitSet::new(regions);
        set.insert(universe.region_of_addr(site.offset as u32) as usize);
        return (set, false);
    }
    if base == Reg::SP || base == Reg::FP {
        let mut set = BitSet::new(regions);
        set.insert(universe.stack_region(proc) as usize);
        return (set, false);
    }
    let mut set = window[base.index()].clone();
    if site.offset > 0 && site.offset as u32 >= DATA_BASE {
        // Scaled-index global addressing: the base register holds a small
        // scaled index and the displacement carries the data address
        // (MiniC's `slli rD, idx, 2; lw rX, GADDR(rD)` idiom).
        set.insert(universe.region_of_addr(site.offset as u32) as usize);
    }
    if set.is_empty() {
        // Unknown pointer: assume it can reach anything.
        return (BitSet::full(regions), true);
    }
    (set, false)
}

/// Solves every procedure's constraints to one global fixpoint by
/// sequential sweeps over all procedures, each constraint applied to the
/// live state. Returns the per-register points-to sets (`procs × 32`,
/// procedure-major) and the per-region contents.
///
/// The unknown-pointer fallback is applied in strata so that the result
/// does not depend on the order constraints are applied in. A load or
/// store whose base set is still empty touches nothing. Once a sweep
/// changes nothing, every site whose base is empty at that fixpoint is
/// marked `top` and touches every region from then on, and the sweeps
/// resume. Each stratum is a monotone system solved to its least
/// fixpoint, and the marks depend only on that fixpoint.
fn solve(
    mut constraints: Vec<Vec<Constraint>>,
    incoming: &[Vec<(usize, u8)>],
    universe: &RegionUniverse,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let regions = universe.len();
    let procs = constraints.len();
    let mut pts: Vec<BitSet> = (0..procs * 32).map(|_| BitSet::new(regions)).collect();
    let mut contents: Vec<BitSet> = (0..regions).map(|_| BitSet::new(regions)).collect();
    // The regions a load/store touches mid-solve: all of them once marked
    // `top`, none while its base is empty and unmarked.
    let touched = |site: &MemSite, top: bool, pi: usize, window: &[BitSet]| {
        if top {
            return Some(BitSet::full(regions));
        }
        let (set, unknown) = site_regions(site, ProcId(pi as u32), window, universe);
        (!unknown).then_some(set)
    };
    loop {
        let mut changed = false;
        for (pi, list) in constraints.iter().enumerate() {
            let base = pi * 32;
            for &(src, reg) in &incoming[pi] {
                changed |= union_into(&mut pts, base + reg as usize, src * 32 + reg as usize);
            }
            for constraint in list {
                match *constraint {
                    Constraint::Seed { dst, region } => {
                        changed |= pts[base + dst as usize].insert(region as usize);
                    }
                    Constraint::Copy { dst, src } => {
                        changed |= union_into(&mut pts, base + dst as usize, base + src as usize);
                    }
                    Constraint::Load { dst, site, top } => {
                        let Some(set) = touched(&site, top, pi, &pts[base..base + 32]) else {
                            continue;
                        };
                        for region in set.iter() {
                            changed |= pts[base + dst as usize].union_with(&contents[region]);
                        }
                    }
                    Constraint::Store { src, site, top } => {
                        let window = &pts[base..base + 32];
                        let Some(set) = touched(&site, top, pi, window) else {
                            continue;
                        };
                        for region in set.iter() {
                            changed |= contents[region].union_with(&window[src as usize]);
                        }
                    }
                }
            }
        }
        if changed {
            continue;
        }
        // Next stratum: mark the sites whose base is still empty.
        for (pi, list) in constraints.iter_mut().enumerate() {
            let window = &pts[pi * 32..(pi + 1) * 32];
            for constraint in list {
                if let Constraint::Load { site, top, .. } | Constraint::Store { site, top, .. } =
                    constraint
                {
                    if !*top && site_regions(site, ProcId(pi as u32), window, universe).1 {
                        *top = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return (pts, contents);
        }
    }
}

/// `sets[dst] ∪= sets[src]` without cloning the source; returns whether
/// `sets[dst]` changed.
fn union_into(sets: &mut [BitSet], dst: usize, src: usize) -> bool {
    if dst == src {
        return false;
    }
    let (into, from) = if dst < src {
        let (low, high) = sets.split_at_mut(src);
        (&mut low[dst], &high[0])
    } else {
        let (low, high) = sets.split_at_mut(dst);
        (&mut high[0], &low[src])
    };
    into.union_with(from)
}

/// Minimal union-find over region indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(len: usize) -> UnionFind {
        UnionFind {
            parent: (0..len).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb.max(ra)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clfp_isa::assemble;

    fn analyze(source: &str) -> (Program, Cfg, AliasAnalysis) {
        let program = assemble(source).unwrap();
        let cfg = Cfg::build(&program);
        let alias = AliasAnalysis::analyze(&program, &cfg);
        (program, cfg, alias)
    }

    #[test]
    fn distinct_globals_do_not_alias() {
        let (_, _, alias) = analyze(
            r#"
            .data
            a: .space 16
            b: .space 16
            .text
            main:
                sw r8, 0x1000(r0)  # pc 0: a
                lw r9, 0x1010(r0)  # pc 1: b
                lw r10, 0x1000(r0) # pc 2: a
                halt
            "#,
        );
        assert_eq!(alias.classify(0, 1), Some(AliasKind::No));
        assert_eq!(alias.classify(0, 2), Some(AliasKind::Must));
        assert_ne!(alias.scheduler_class(0), alias.scheduler_class(1));
        assert_eq!(alias.scheduler_class(0), alias.scheduler_class(2));
        assert!(alias.classify(0, 3).is_none(), "halt is not a memory access");
    }

    #[test]
    fn exact_addresses_classify_must_and_no() {
        let (_, _, alias) = analyze(
            r#"
            .text
            main:
                sw r8, 0x2000(r0)  # pc 0
                lw r9, 0x2000(r0)  # pc 1
                lw r10, 0x2004(r0) # pc 2
                halt
            "#,
        );
        assert_eq!(alias.classify(0, 1), Some(AliasKind::Must));
        // Same heap partition, but exact disjoint words.
        assert_eq!(alias.classify(0, 2), Some(AliasKind::No));
    }

    #[test]
    fn pointer_through_register_reaches_its_global() {
        let (_, _, alias) = analyze(
            r#"
            .data
            buf: .space 64
            other: .space 64
            .text
            main:
                li r8, buf         # pc 0
                addi r9, r8, 8     # pc 1
                sw r10, 0(r9)      # pc 2: store through derived pointer
                lw r11, 0x1040(r0) # pc 3: other
                lw r12, 0x1000(r0) # pc 4: buf
                halt
            "#,
        );
        assert_eq!(alias.classify(2, 3), Some(AliasKind::No));
        assert_eq!(alias.classify(2, 4), Some(AliasKind::May));
        assert_eq!(alias.scheduler_class(2), alias.scheduler_class(4));
    }

    #[test]
    fn pointer_argument_flows_into_callee() {
        let (_, _, alias) = analyze(
            r#"
            .data
            buf: .space 64
            other: .space 64
            .text
            main:
                li a0, buf         # pc 0
                call write         # pc 1
                lw r9, 0x1040(r0)  # pc 2: other
                lw r10, 0x1000(r0) # pc 3: buf
                halt
            write:
                sw r8, 0(a0)       # pc 5
                ret
            "#,
        );
        // The callee's store through a0 reaches `buf`, not `other`.
        assert_eq!(alias.classify(5, 2), Some(AliasKind::No));
        assert_eq!(alias.classify(5, 3), Some(AliasKind::May));
    }

    #[test]
    fn stack_frames_may_alias_across_procedures() {
        let (_, _, alias) = analyze(
            r#"
            .text
            main:
                sw r8, 4(sp)       # pc 0
                call f             # pc 1
                halt
            f:
                sw r9, 8(sp)       # pc 3
                lw r10, 4(sp)      # pc 4
                ret
            "#,
        );
        // Frame reuse: every stack pair is may-aliased, one shared class.
        assert_eq!(alias.classify(0, 3), Some(AliasKind::May));
        assert_eq!(alias.classify(0, 4), Some(AliasKind::May));
        assert_eq!(alias.scheduler_class(0), alias.scheduler_class(3));
    }

    #[test]
    fn stack_and_global_do_not_alias() {
        let (_, _, alias) = analyze(
            r#"
            .data
            g: .space 16
            .text
            main:
                sw r8, 4(sp)       # pc 0
                lw r9, 0x1000(r0)  # pc 1: g
                halt
            "#,
        );
        assert_eq!(alias.classify(0, 1), Some(AliasKind::No));
        assert_ne!(alias.scheduler_class(0), alias.scheduler_class(1));
    }

    #[test]
    fn unknown_pointer_goes_to_top() {
        let (_, _, alias) = analyze(
            r#"
            .data
            g: .space 16
            buf: .space 16
            other: .space 16
            .text
            main:
                lw r8, 0(r9)       # pc 0: r9 never defined — unknown base
                sw r10, 0x1000(r0) # pc 1: g
                li r11, buf        # pc 2
                sw r11, 0(r9)      # pc 3: &buf may land anywhere
                lw r12, 0x1000(r0) # pc 4: so g may hold &buf
                sw r13, 0(r12)     # pc 5: store through the reloaded pointer
                lw r14, 0x1020(r0) # pc 6: other
                halt
            "#,
        );
        let access = alias.accesses[0].as_ref().unwrap();
        assert!(access.unknown);
        assert_eq!(alias.classify(0, 1), Some(AliasKind::May));
        assert!(alias.accesses[3].as_ref().unwrap().unknown);
        let access = alias.accesses[5].as_ref().unwrap();
        assert!(!access.unknown, "the pointer read back from g must be tracked");
        assert_eq!(alias.classify(5, 6), Some(AliasKind::No));
    }

    #[test]
    fn call_graph_resolves_direct_and_indirect() {
        let (_, cfg, alias) = analyze(
            r#"
            .text
            main:
                call f             # pc 0
                li r8, g           # pc 1
                callr r8           # pc 2
                halt
            f:
                ret
            g:
                ret
            "#,
        );
        let main = cfg.proc_of_instr(0).index();
        let f = cfg.proc_of_instr(4).index();
        let g = cfg.proc_of_instr(5).index();
        let callees: Vec<usize> = alias.call_graph.callees[main]
            .iter()
            .map(|p| p.index())
            .collect();
        assert!(callees.contains(&f));
        assert!(callees.contains(&g));
        assert!(alias.call_graph.address_taken[g]);
        assert!(!alias.call_graph.address_taken[f]);
        assert_eq!(alias.call_graph.callers[f], vec![ProcId(main as u32)]);
    }

    #[test]
    fn escaping_frame_detected() {
        let (_, cfg, alias) = analyze(
            r#"
            .text
            main:
                addi a0, sp, 8     # pc 0: frame address passed as argument
                call f             # pc 1
                halt
            f:
                sw r8, 0(a0)       # pc 3
                ret
            "#,
        );
        let main_stack = alias.universe.stack_region(cfg.proc_of_instr(0));
        assert!(alias.escaping.contains(main_stack as usize));
        // The callee's store through the escaped pointer reaches a stack
        // region, so it may alias main's frame accesses.
        let (_, _, alias2) = analyze(
            r#"
            .text
            main:
                addi a0, sp, 8
                sw r9, 8(sp)       # pc 1
                call f             # pc 2
                halt
            f:
                sw r8, 0(a0)       # pc 4
                ret
            "#,
        );
        assert_eq!(alias2.classify(1, 4), Some(AliasKind::May));
    }

    #[test]
    fn frame_pointer_accesses_stay_in_their_own_procedure() {
        // Frame-pointer sites resolve to the stack region of the procedure
        // they sit in. A solver that hands out only a 32-register window
        // must still pass that procedure's index, not the window's (0).
        let (_, cfg, alias) = analyze(
            r#"
            .data
            slot: .space 4
            buf: .space 16
            .text
            main:
                li r13, buf        # pc 0
                sw r13, 8(fp)      # pc 1: main's frame holds &buf
                call f             # pc 2
                lw r12, 8(fp)      # pc 3: reload &buf
                sw r8, 0(r12)      # pc 4: reaches buf only
                halt
            f:
                sw r8, 4(fp)       # pc 6: through FP
                addi r9, fp, 8     # pc 7: pointer copied from FP
                add r10, r9, r0    # pc 8: copy of the copy
                sw r8, 0(r10)      # pc 9: through the copied pointer
                sw r9, 4(fp)       # pc 10: f's frame holds its own address
                sw r9, 0x1000(r0)  # pc 11: the frame address escapes
                ret
            "#,
        );
        let main = alias.universe.stack_region(cfg.proc_of_instr(0));
        let f = cfg.proc_of_instr(6);
        assert!(f.index() > 0, "the callee must not be procedure 0");
        let f = alias.universe.stack_region(f);
        let only = |pc: usize, region: u32| {
            let access = alias.accesses[pc].as_ref().unwrap();
            assert!(!access.unknown, "pc {pc} must be tracked");
            let regions: Vec<usize> = access.regions.iter().collect();
            assert_eq!(regions, vec![region as usize], "pc {pc}");
        };
        only(1, main);
        only(4, alias.universe.region_of_addr(DATA_BASE + 4));
        for pc in [6, 9, 10] {
            only(pc, f);
        }
        assert!(alias.escaping.contains(f as usize));
        assert!(!alias.escaping.contains(main as usize));
    }

    #[test]
    fn pointer_spilled_and_reloaded_keeps_its_region() {
        let (_, _, alias) = analyze(
            r#"
            .data
            buf: .space 64
            other: .space 64
            .text
            main:
                li r8, buf         # pc 0
                sw r8, 4(sp)       # pc 1: spill the pointer
                lw r9, 4(sp)       # pc 2: reload it
                sw r10, 0(r9)      # pc 3: store through the reload
                lw r11, 0x1040(r0) # pc 4: other
                halt
            "#,
        );
        assert_eq!(alias.classify(3, 4), Some(AliasKind::No));
        let access = alias.accesses[3].as_ref().unwrap();
        assert!(!access.unknown, "reloaded pointer should be tracked");
    }

    #[test]
    fn region_universe_partitions_addresses() {
        let (program, cfg, alias) = analyze(
            r#"
            .data
            a: .space 8
            b: .space 8
            .text
            main:
                halt
            "#,
        );
        let u = &alias.universe;
        assert_eq!(u.region_of_addr(0), 0, "null guard");
        let ra = u.region_of_addr(DATA_BASE);
        let rb = u.region_of_addr(DATA_BASE + 8);
        assert_ne!(ra, rb);
        assert_eq!(u.region_of_addr(DATA_BASE + 4), ra);
        let heap = u.region_of_addr(program.data_end() + 0x100);
        assert!(heap >= u.heap_base && heap < u.stack_base);
        assert!(u.is_stack(u.stack_region(ProcId(0))));
        assert_eq!(u.len(), u.stack_base as usize + cfg.procs().len());
        assert!(u.describe(ra, &cfg).contains('a'));
        assert!(u.describe(u.stack_region(ProcId(0)), &cfg).starts_with("stack:"));
    }

    #[test]
    fn stored_and_loaded_region_summaries() {
        let (program, _, alias) = analyze(
            r#"
            .data
            in: .space 16
            out: .space 16
            .text
            main:
                lw r8, 0x1000(r0)  # pc 0: `in` is loaded, never stored
                sw r8, 0x1010(r0)  # pc 1: `out` is stored, never loaded
                halt
            "#,
        );
        let stored = alias.stored_regions(&program);
        let loaded = alias.loaded_regions(&program);
        let r_in = alias.universe.region_of_addr(DATA_BASE) as usize;
        let r_out = alias.universe.region_of_addr(DATA_BASE + 16) as usize;
        assert!(loaded.contains(r_in) && !stored.contains(r_in));
        assert!(stored.contains(r_out) && !loaded.contains(r_out));
    }

    #[test]
    fn minic_workload_is_fully_tracked() {
        // Compiled MiniC passes array base addresses as plain integers
        // (`qsort(p, lo, hi)`); the interprocedural solve must keep those
        // accesses off the top fallback.
        let program = clfp_lang::compile(
            r#"
            var data: int[64];
            var out: int[64];
            fn kernel(p: int, n: int) -> int {
                var s: int = 0;
                for (var i: int = 0; i < n; i = i + 1) {
                    s = s + p[i];
                    out[i] = s;
                }
                return s;
            }
            fn main() -> int {
                for (var i: int = 0; i < 64; i = i + 1) {
                    data[i] = i * 7 % 13;
                }
                return kernel(data, 64);
            }
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&program);
        let alias = AliasAnalysis::analyze(&program, &cfg);
        let unknown = alias
            .accesses
            .iter()
            .flatten()
            .filter(|access| access.unknown)
            .count();
        assert_eq!(unknown, 0, "no access should fall back to top");
        assert!(alias.num_classes() >= 2, "globals and stack must separate");
    }
}
