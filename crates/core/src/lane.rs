//! The lane-parallel multi-machine scheduling kernel.
//!
//! [`run_fused`](crate::fused::run_fused) walks the pre-decoded
//! [`EventMeta`] stream once per machine × unroll slot — up to 14 walks
//! over an identical event sequence whose per-event work is a max-fold
//! that differs between machines only in the *control* term. This module
//! restructures that loop from machine-major to **event-major lanes**:
//! one walk reads each event once and schedules every requested slot
//! simultaneously, carrying per-lane time vectors (`[u64; L]` per
//! register, per branch PC, per memory key) instead of scalar state.
//!
//! Two properties make the fold branchless across lanes:
//!
//! * Every scheduling quantity is an unsigned max of constraint terms, so
//!   a term that a machine does not impose can be **masked to zero** —
//!   zero never wins an unsigned max against a real constraint. The
//!   machine distinctions (BASE waits on the last branch, SP on the last
//!   misprediction, ORACLE on nothing; CD vs SP-CD read `time` vs
//!   `ceiling`; the CD/SP-CD branch-ordering extras) all become per-lane
//!   constant masks built once at group construction.
//! * Conditional state updates ("only if this lane does not ignore the
//!   event") become select operations `(new & m) | (old & !m)` with the
//!   lane's per-event active mask, derived from the packed two-bit
//!   [`EventClass`] for whichever unroll setting the lane requested.
//!
//! What cannot be masked is monomorphized instead. Lanes are grouped by
//! the one structural feature that changes *which state exists*:
//! machines that consult control dependences (CD, CD-MF, SP-CD,
//! SP-CD-MF) need the per-branch `time`/`ceiling` arrays and the
//! inheritance stack; BASE, SP and ORACLE provably never read them. The
//! kernel is generic over `<const L: usize, const CD: bool, const
//! RENAME: bool, const FETCH: bool>`, so the CD arrays, the
//! anti-dependence tracking (off under register renaming, the default)
//! and the fetch-bandwidth divide are stripped at compile time and the
//! per-lane loops unroll and auto-vectorize over `L ∈ {1, 2, 4, 6, 8}`.
//!
//! The SP machine's misprediction-segment statistics mix integer and
//! floating-point arithmetic and reset state at data-dependent points;
//! they stay scalar, applied per event to the (at most two) SP lanes in
//! a group — the identical operations in the identical order as the
//! scalar cursor, so the resulting [`MispredictionStats`] are
//! bit-identical.
//!
//! Metrics recording is a mode of the same kernel: the cursor is also
//! generic over a `clfp-metrics` sink, one per lane. With [`NullSink`]
//! the recording code and its shadow tables compile away, and the walk
//! produces [`PassResult`]s only. With a [`MetricsCollector`] per lane
//! ([`record_metrics`]) the kernel additionally replays each event's
//! max-fold as per-lane selects to find the *binding edge* — which
//! constraint set the issue cycle and which earlier event produced it —
//! reading producer-event shadows that every lane of a recording group
//! shares (see [`Shadows`]). Recording groups hold at most four lanes and
//! run one after the other, bounding the live collectors.
//!
//! The `lane_equivalence` integration suite holds the lane kernel
//! bit-identical to both the scalar cursor and the original reference
//! pass across machines, workloads, unroll settings, and chunk sizes; the
//! `metrics_digest` suite pins the recorded metrics.

use clfp_metrics::{
    BindingEdge, EdgeKind, MachineMetrics, MetricsCollector, MetricsSink, NullSink, NO_PARENT,
};

use crate::lastwrite::LastWriteTable;
use crate::meta::{
    EventClass, EventMeta, PcMeta, ProgramMeta, CD_INHERIT, CD_NONE, EV_BRANCH, EV_MISPRED,
    EV_VALPRED, NO_REG, PC_CALL, PC_LOAD, PC_RET, PC_STORE,
};
use crate::pass::{PassConfig, PassResult};
use crate::stats::MispredictionStats;
use crate::MachineKind;

/// Default last-write-table capacity when no trace summary (or per-trace
/// distinct-key count) is available to size it — the scalar path's
/// historical `1 << 16`.
pub(crate) const DEFAULT_MEM_CAPACITY: usize = 1 << 16;

/// A lane-widened [`LastWriteTable`](crate::LastWriteTable): the same
/// open-addressed Fibonacci-hashed probe sequence, but each slot stores
/// the last-write cycle for all `L` lanes, so one probe serves the whole
/// group where the machine-major walk paid one probe per machine.
struct LaneTable<const L: usize> {
    keys: Vec<u32>,
    values: Vec<[u64; L]>,
    len: usize,
    mask: usize,
}

const EMPTY: u32 = u32::MAX;

impl<const L: usize> LaneTable<L> {
    fn with_capacity(capacity: usize) -> LaneTable<L> {
        let slots = (capacity.max(16) * 2).next_power_of_two();
        LaneTable {
            keys: vec![EMPTY; slots],
            values: vec![[0; L]; slots],
            len: 0,
            mask: slots - 1,
        }
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        let hash = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> 32) as usize & self.mask
    }

    /// The per-lane last-write cycles for `key` ([0; L] if never written).
    #[inline]
    fn get(&self, key: u32) -> [u64; L] {
        debug_assert_ne!(key, EMPTY, "sentinel address");
        let mut slot = self.slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return self.values[slot];
            }
            if k == EMPTY {
                return [0; L];
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Mutable access to `key`'s lane vector, inserting zeros if absent.
    #[inline]
    fn entry(&mut self, key: u32) -> &mut [u64; L] {
        debug_assert_ne!(key, EMPTY, "sentinel address");
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mut slot = self.slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                break;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.len += 1;
                break;
            }
            slot = (slot + 1) & self.mask;
        }
        &mut self.values[slot]
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_values = std::mem::take(&mut self.values);
        let new_slots = (old_keys.len() * 2).max(32);
        self.keys = vec![EMPTY; new_slots];
        self.values = vec![[0; L]; new_slots];
        self.mask = new_slots - 1;
        for (key, value) in old_keys.into_iter().zip(old_values) {
            if key != EMPTY {
                let mut slot = self.slot(key);
                while self.keys[slot] != EMPTY {
                    slot = (slot + 1) & self.mask;
                }
                self.keys[slot] = key;
                self.values[slot] = value;
            }
        }
    }
}

/// Scalar SP-segment state for one lane (see
/// [`MispredictionStats`]): the misprediction-distance bookkeeping is
/// data-dependent and partly floating-point, so it runs per tracked lane
/// exactly as the scalar cursor runs it.
struct SegTracker {
    lane: usize,
    count: u64,
    start: u64,
    max: u64,
    stats: MispredictionStats,
}

impl SegTracker {
    fn new(lane: usize) -> SegTracker {
        SegTracker {
            lane,
            count: 0,
            start: 0,
            max: 0,
            stats: MispredictionStats::new(),
        }
    }

    fn finish(mut self) -> MispredictionStats {
        if self.count > 0 {
            let span = self.max.saturating_sub(self.start).max(1);
            self.stats.record_segment(
                self.count.min(u32::MAX as u64) as u32,
                self.count as f64 / span as f64,
            );
        }
        self.stats
    }
}

/// One lane's request: which result slot it fills, which machine it
/// models, which unroll classification it reads, and which per-event flag
/// bit marks a correctly predicted value for it.
///
/// `vp_flag` generalizes the old fixed [`EV_VALPRED`] read: the
/// preparation walk records a hit bit per value predictor
/// ([`EV_DEF`](crate::meta::EV_DEF), `EV_VP_LAST`, `EV_VP_STRIDE`) next
/// to the configured mode's [`EV_VALPRED`], so lanes modeling *different*
/// value-prediction modes can share one walk — each lane just masks a
/// different bit. [`crate::meta::vp_flag`] maps a mode to its bit; 0
/// (mode `Off`) never matches.
#[derive(Copy, Clone, Debug)]
pub(crate) struct LaneSlot {
    pub slot: usize,
    pub kind: MachineKind,
    pub unrolling: bool,
    pub vp_flag: u8,
}

/// How a lane group derives the last-write key from an event — the
/// second half of the multi-config axis. Groups modeling the same
/// disambiguation mode as the prepared events read them directly
/// (`Event`); groups modeling a *coarser* mode over a perfect-keyed
/// preparation remap per event (`Class` is the static alias partition
/// indexed by PC, `Single` collapses memory to one location). The remap
/// is exactly the expression `MetaBuilder` would have evaluated, so the
/// probe sequence — and therefore the schedule — is bit-identical to a
/// dedicated preparation.
#[derive(Clone, Debug)]
pub(crate) enum KeyMode {
    /// Use `EventMeta::mem_key` as prepared.
    Event,
    /// Static alias-analysis class per PC (`MemDisambiguation::Static`).
    Class(Vec<u32>),
    /// All of memory is one location (`MemDisambiguation::None`).
    Single,
}

/// Per-group scheduling mode: the key derivation plus whether stores
/// fold into the last-write table with `max`
/// ([`crate::MemDisambiguation::accumulates`]). Lanes within a group
/// always share these — they are state-shape properties of the shared
/// tables, unlike the per-lane masks.
#[derive(Clone, Debug)]
pub(crate) struct GroupMode {
    pub key_mode: KeyMode,
    pub accumulate: bool,
}

impl GroupMode {
    /// The single-config mode: keys as prepared, accumulation per the
    /// pass configuration.
    pub fn from_config(config: &PassConfig) -> GroupMode {
        GroupMode {
            key_mode: KeyMode::Event,
            accumulate: config.disambiguation.accumulates(),
        }
    }
}

/// Process-wide lane-group id sequence, so trace spans from concurrent
/// walks (and the per-chunk `lane.feed` spans within one walk) can be
/// correlated back to their group in the exported timeline.
static NEXT_GROUP_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl KeyMode {
    /// Short name for trace spans and the pipeline profile.
    fn trace_name(&self) -> &'static str {
        match self {
            KeyMode::Event => "event",
            KeyMode::Class(_) => "class",
            KeyMode::Single => "single",
        }
    }
}

impl LaneSlot {
    /// Compact `slot:MACHINE±u[*vp]` description for trace spans, e.g.
    /// `3:SP-CD-MF+u` or `17:BASE-u*vp`.
    fn describe(&self) -> String {
        format!(
            "{}:{}{}{}",
            self.slot,
            self.kind.name(),
            if self.unrolling { "+u" } else { "-u" },
            if self.vp_flag != 0 { "*vp" } else { "" },
        )
    }
}

#[inline]
fn lane_mask(on: bool) -> u64 {
    if on {
        u64::MAX
    } else {
        0
    }
}

/// Producer-event shadows of a recording group's timing state: which
/// trace event wrote each time the binding-edge replay reads, so every
/// scheduled instruction's binding edge can name its parent.
///
/// All lanes of a recording group read one unroll classification (the
/// metrics callers record every machine at one setting), so they ignore
/// the same events, and the last writer of a register, a branch PC or a
/// memory key is the same event on every lane: one scalar table per group
/// serves them all. The exception is the memory-writer shadow under
/// accumulating disambiguation, where a store owns the table entry only on
/// the lanes whose completion reached the accumulated maximum; that shadow
/// keeps one writer per lane.
struct Shadows<const L: usize> {
    /// Last writer of each register ([`NO_PARENT`] if none).
    reg_writer: [u32; 32],
    /// Last store to each memory key as event index + 1 (0 = none): one
    /// writer per group when stores overwrite the last-write table…
    mem_writer: LastWriteTable,
    /// …one per lane when they accumulate into it.
    mem_writer_lanes: LaneTable<L>,
    /// Shadow `branch_time` / `branch_ceiling` (CD groups only): an
    /// ignored branch passes its inherited parents on as it passes on
    /// the times.
    branch_time_ev: Vec<u32>,
    branch_ceiling_ev: Vec<u32>,
    /// Shadows the inherited-dependence call stack.
    stack_ev: Vec<(u32, u32)>,
    last_branch_ev: u32,
    last_mispred_ev: u32,
    /// Global index of the next event: sink indices run across chunks.
    next: u32,
}

impl<const L: usize> Shadows<L> {
    /// Shadows for a recording group; all tables empty when `record` is
    /// off, since a null-sink group never touches them.
    fn new(record: bool, cd: bool, text_len: usize, accumulate: bool, mem_capacity: usize) -> Self {
        let capacity = |on: bool| if record && on { mem_capacity } else { 0 };
        let branch_len = if record && cd { text_len } else { 0 };
        Shadows {
            reg_writer: [NO_PARENT; 32],
            mem_writer: LastWriteTable::with_capacity(capacity(!accumulate)),
            mem_writer_lanes: LaneTable::with_capacity(capacity(accumulate)),
            branch_time_ev: vec![NO_PARENT; branch_len],
            branch_ceiling_ev: vec![NO_PARENT; branch_len],
            stack_ev: Vec::new(),
            last_branch_ev: NO_PARENT,
            last_mispred_ev: NO_PARENT,
            next: 0,
        }
    }

    /// The parents behind a pre-resolved `cd` annotation's
    /// `(time, ceiling)` context.
    #[inline]
    fn cd_parents(&self, cd: u32) -> (u32, u32) {
        match cd {
            CD_NONE => (NO_PARENT, NO_PARENT),
            CD_INHERIT => self
                .stack_ev
                .last()
                .copied()
                .unwrap_or((NO_PARENT, NO_PARENT)),
            pc => (
                self.branch_time_ev[pc as usize],
                self.branch_ceiling_ev[pc as usize],
            ),
        }
    }

    /// Per-lane last store to `key` ([`NO_PARENT`] if none).
    #[inline]
    fn mem_writers(&self, key: u32, accumulate: bool) -> [u32; L] {
        let parent = |v: u64| v.checked_sub(1).map_or(NO_PARENT, |i| i as u32);
        if accumulate {
            self.mem_writer_lanes.get(key).map(parent)
        } else {
            [parent(self.mem_writer.get(key)); L]
        }
    }
}

/// A binding edge packed into a `u64` so per-lane edge choices are
/// branch-free selects: the [`EdgeKind`] index + 1 above the parent
/// event index; 0 is no edge.
#[inline(always)]
fn pack(kind: EdgeKind, parent: u32) -> u64 {
    ((kind as u64 + 1) << 32) | u64::from(parent)
}

#[inline(always)]
fn unpack(edge: u64) -> Option<BindingEdge> {
    match edge >> 32 {
        0 => None,
        code => Some(BindingEdge::new(
            EdgeKind::ALL[code as usize - 1],
            edge as u32,
        )),
    }
}

/// Folds one per-lane constraint term into running per-lane
/// `(value, edge)` maxima with the scheduler's tie-breaking: `a.max(b)`
/// returns `b` on equality, so a later term wins ties. A term masked to 0
/// for a lane can win only while that lane's maximum is still 0, and a
/// final maximum of 0 reports no edge, so masking keeps the tie-break of
/// a machine-at-a-time fold exactly.
#[inline(always)]
fn fold<const L: usize>(
    value: &mut [u64; L],
    edge: &mut [u64; L],
    term: &[u64; L],
    term_edge: [u64; L],
) {
    for l in 0..L {
        let wins = lane_mask(term[l] >= value[l]);
        value[l] = value[l].max(term[l]);
        edge[l] = (term_edge[l] & wins) | (edge[l] & !wins);
    }
}

/// A group of up to `L` lanes scheduled together by one monomorphized
/// kernel. `S` is the per-lane metrics sink: [`NullSink`] statically
/// removes the binding-edge replay and its shadow tables, so the
/// throughput walk compiles to the bare loop. `CD` selects the
/// control-dependence state (branch arrays + inheritance stack); `RENAME`
/// strips anti-dependence tracking; `FETCH` strips the fetch-bandwidth
/// divide.
struct GroupCursor<
    S: MetricsSink,
    const L: usize,
    const CD: bool,
    const RENAME: bool,
    const FETCH: bool,
> {
    /// The real lanes (`lanes.len() <= L`; padding lanes replicate lane 0
    /// and their results are discarded).
    lanes: Vec<LaneSlot>,
    fetch_width: u64,
    /// All-ones for lanes reading the *unrolled* ignore classification.
    unroll_sel: [u64; L],
    /// Primary control-term masks. `CD`: `m_a` selects `branch_time`
    /// (CD, CD-MF), `m_b` selects `branch_ceiling` (SP-CD, SP-CD-MF).
    /// `!CD`: `m_a` selects `last_branch` (BASE), `m_b` selects
    /// `last_mispred` (SP); ORACLE masks both to zero.
    m_a: [u64; L],
    m_b: [u64; L],
    /// CD-only branch-ordering extras: CD lanes order all branches after
    /// `last_branch`; SP-CD lanes order mispredicted branches after
    /// `last_mispred`.
    m_ord_lb: [u64; L],
    m_ord_lm: [u64; L],
    /// Per-lane value-prediction hit bit (see [`LaneSlot::vp_flag`]).
    vp_flag: [u8; L],

    /// How this group derives last-write keys (see [`KeyMode`]).
    key_mode: KeyMode,
    /// Stores fold into `mem_time` with `max` under coarse
    /// disambiguation keys ([`crate::MemDisambiguation::accumulates`]).
    mem_accumulate: bool,
    reg_time: [[u64; L]; 32],
    reg_read: [[u64; L]; 32],
    mem_time: LaneTable<L>,
    mem_read: LaneTable<L>,
    branch_time: Vec<[u64; L]>,
    branch_ceiling: Vec<[u64; L]>,
    stack: Vec<([u64; L], [u64; L])>,
    last_branch: [u64; L],
    last_mispred: [u64; L],
    cycles: [u64; L],
    count: [u64; L],
    seg: Vec<SegTracker>,
    /// One sink per real lane.
    sinks: Vec<S>,
    /// Producer-event shadows, maintained only when `S::ENABLED`.
    shadows: Shadows<L>,

    /// Trace/profile attribution, maintained only while tracing is on
    /// (`clfp_metrics::trace`): process-wide group id, walk start
    /// timestamp, accumulated busy time, and feed counters.
    group_id: u64,
    walk_start_us: u64,
    busy_ns: u64,
    fed_events: u64,
    fed_chunks: u64,
}

impl<S: MetricsSink, const L: usize, const CD: bool, const RENAME: bool, const FETCH: bool>
    GroupCursor<S, L, CD, RENAME, FETCH>
{
    fn new(
        lanes: &[LaneSlot],
        text_len: usize,
        config: &PassConfig,
        mem_capacity: usize,
        mode: GroupMode,
        sinks: Vec<S>,
    ) -> Self {
        debug_assert!(!lanes.is_empty() && lanes.len() <= L);
        assert_eq!(sinks.len(), lanes.len(), "one sink per lane");
        // The shared shadow tables assume every lane ignores the same
        // events and publishes the same value-prediction releases.
        assert!(
            !S::ENABLED
                || lanes
                    .iter()
                    .all(|l| l.unrolling == lanes[0].unrolling && l.vp_flag == lanes[0].vp_flag),
            "a recording group's lanes share one unroll setting and value-prediction mode"
        );
        let spec = |l: usize| lanes[l.min(lanes.len() - 1)];
        let mut unroll_sel = [0; L];
        let mut m_a = [0; L];
        let mut m_b = [0; L];
        let mut m_ord_lb = [0; L];
        let mut m_ord_lm = [0; L];
        let mut vp_flag = [0u8; L];
        for l in 0..L {
            let lane = spec(l);
            debug_assert_eq!(lane.kind.uses_control_deps(), CD);
            unroll_sel[l] = lane_mask(lane.unrolling);
            vp_flag[l] = lane.vp_flag;
            if CD {
                m_a[l] = lane_mask(matches!(lane.kind, MachineKind::Cd | MachineKind::CdMf));
                m_b[l] = lane_mask(matches!(lane.kind, MachineKind::SpCd | MachineKind::SpCdMf));
                m_ord_lb[l] = lane_mask(lane.kind == MachineKind::Cd);
                m_ord_lm[l] = lane_mask(lane.kind == MachineKind::SpCd);
            } else {
                m_a[l] = lane_mask(lane.kind == MachineKind::Base);
                m_b[l] = lane_mask(lane.kind == MachineKind::Sp);
            }
        }
        let shadows = Shadows::new(S::ENABLED, CD, text_len, mode.accumulate, mem_capacity);
        GroupCursor {
            lanes: lanes.to_vec(),
            fetch_width: config.fetch_bandwidth.unwrap_or(1),
            unroll_sel,
            m_a,
            m_b,
            m_ord_lb,
            m_ord_lm,
            vp_flag,
            key_mode: mode.key_mode,
            mem_accumulate: mode.accumulate,
            reg_time: [[0; L]; 32],
            reg_read: [[0; L]; 32],
            mem_time: LaneTable::with_capacity(mem_capacity),
            mem_read: LaneTable::with_capacity(if RENAME { 1 } else { mem_capacity }),
            branch_time: if CD {
                vec![[0; L]; text_len]
            } else {
                Vec::new()
            },
            branch_ceiling: if CD {
                vec![[0; L]; text_len]
            } else {
                Vec::new()
            },
            stack: Vec::new(),
            last_branch: [0; L],
            last_mispred: [0; L],
            cycles: [0; L],
            count: [0; L],
            seg: lanes
                .iter()
                .enumerate()
                .filter(|(_, lane)| lane.kind == MachineKind::Sp)
                .map(|(l, _)| SegTracker::new(l))
                .collect(),
            sinks,
            shadows,
            group_id: NEXT_GROUP_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            walk_start_us: 0,
            busy_ns: 0,
            fed_events: 0,
            fed_chunks: 0,
        }
    }

    /// The `(time, ceiling)` lane vectors named by a pre-resolved `cd`
    /// annotation — [`MachineState::cd_ctx`](crate::fused) widened.
    #[inline]
    fn cd_ctx(&self, cd: u32) -> ([u64; L], [u64; L]) {
        match cd {
            CD_NONE => ([0; L], [0; L]),
            CD_INHERIT => self.stack.last().copied().unwrap_or(([0; L], [0; L])),
            pc => (
                self.branch_time[pc as usize],
                self.branch_ceiling[pc as usize],
            ),
        }
    }

    /// Recording groups only: replays the max-fold that set each lane's
    /// issue cycle, term by term in the scalar fold's order (the primary
    /// control term, the CD/SP-CD branch-ordering extra, fetch, register
    /// uses, the load, the anti-dependences, the store), reports each
    /// lane's binding edge to its sink, then advances the producer
    /// shadows. Runs before the event's timing-state updates, so every
    /// table still holds the values the fold read.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        event: &EventMeta,
        meta: &PcMeta,
        mem_key: u32,
        active: bool,
        cd: (&[u64; L], &[u64; L]),
        exec: &[u64; L],
        done: &[u64; L],
    ) {
        use EdgeKind::{Control, MemData, MfMerge, RegData};
        let splat = |kind, parent| [pack(kind, parent); L];
        let sh = &mut self.shadows;
        let i = sh.next;
        sh.next += 1;
        let is_branch = event.flags & EV_BRANCH != 0;
        let mispredicted = event.flags & EV_MISPRED != 0 && is_branch;
        let is_store = meta.is(PC_STORE);
        let (cp0, cp1) = if CD {
            sh.cd_parents(event.cd)
        } else {
            (NO_PARENT, NO_PARENT)
        };

        if !active {
            for sink in &mut self.sinks {
                sink.on_schedule(i, 0, 0, None);
            }
        } else {
            // Control terms. `m_a`/`m_b` are disjoint, so each lane's
            // primary term is exactly its machine's single control source.
            let (ta, tb, pa, pb) = if CD {
                (cd.0, cd.1, cp0, cp1)
            } else {
                let (lb, lm) = (sh.last_branch_ev, sh.last_mispred_ev);
                (&self.last_branch, &self.last_mispred, lb, lm)
            };
            let (ea, eb) = (pack(Control, pa), pack(Control, pb));
            let mut cv = [0u64; L];
            let mut ce = [0u64; L];
            for l in 0..L {
                cv[l] = (ta[l] & self.m_a[l]).max(tb[l] & self.m_b[l]);
                ce[l] = (ea & self.m_a[l]) | (eb & self.m_b[l]);
            }
            if CD && is_branch {
                let term = std::array::from_fn(|l| self.last_branch[l] & self.m_ord_lb[l]);
                fold(&mut cv, &mut ce, &term, splat(MfMerge, sh.last_branch_ev));
                if mispredicted {
                    let term = std::array::from_fn(|l| self.last_mispred[l] & self.m_ord_lm[l]);
                    fold(&mut cv, &mut ce, &term, splat(MfMerge, sh.last_mispred_ev));
                }
            }
            if FETCH {
                // Fetch bandwidth has no single producer event.
                let term = self.count.map(|c| c / self.fetch_width);
                fold(&mut cv, &mut ce, &term, [0; L]);
            }

            // Data terms.
            let mut dv = [0u64; L];
            let mut de = [0u64; L];
            for &reg in &meta.uses {
                if reg == NO_REG {
                    break;
                }
                let writer = splat(RegData, sh.reg_writer[reg as usize]);
                fold(&mut dv, &mut de, &self.reg_time[reg as usize], writer);
            }
            let is_load = meta.is(PC_LOAD);
            let mem_edges = if is_load || (!RENAME && is_store) {
                sh.mem_writers(mem_key, self.mem_accumulate)
                    .map(|p| pack(MemData, p))
            } else {
                [0; L]
            };
            if is_load {
                fold(&mut dv, &mut de, &self.mem_time.get(mem_key), mem_edges);
            }
            if !RENAME {
                if meta.def != NO_REG {
                    // Anti-dependences: the binding reader event is not
                    // tracked, only the dependence kind.
                    let def = meta.def as usize;
                    let (reader, writer) = (
                        splat(RegData, NO_PARENT),
                        splat(RegData, sh.reg_writer[def]),
                    );
                    fold(&mut dv, &mut de, &self.reg_read[def], reader);
                    fold(&mut dv, &mut de, &self.reg_time[def], writer);
                }
                if is_store {
                    let reader = splat(MemData, NO_PARENT);
                    fold(&mut dv, &mut de, &self.mem_read.get(mem_key), reader);
                    fold(&mut dv, &mut de, &self.mem_time.get(mem_key), mem_edges);
                }
            }

            // `data.max(ctl)`: control wins the final tie; a maximum of 0
            // means ready at cycle 0 — nothing bound.
            let (mut bv, mut be) = (dv, de);
            fold(&mut bv, &mut be, &cv, ce);
            for (l, sink) in self.sinks.iter_mut().enumerate() {
                debug_assert_eq!(bv[l] + 1, exec[l]);
                let bound = be[l] & lane_mask(bv[l] != 0);
                sink.on_schedule(i, exec[l], done[l], unpack(bound));
            }

            if meta.def != NO_REG {
                sh.reg_writer[meta.def as usize] = i;
            }
            if is_store {
                if self.mem_accumulate {
                    // A store that did not advance a lane's accumulated
                    // maximum does not own that lane's table value.
                    let prev = self.mem_time.get(mem_key);
                    let owner = sh.mem_writer_lanes.entry(mem_key);
                    for l in 0..L {
                        if done[l] >= prev[l] {
                            owner[l] = u64::from(i) + 1;
                        }
                    }
                } else {
                    sh.mem_writer.set(mem_key, u64::from(i) + 1);
                }
            }
            if is_branch {
                sh.last_branch_ev = i;
                if mispredicted {
                    sh.last_mispred_ev = i;
                }
            }
        }

        if CD {
            if is_branch {
                let pc = event.pc as usize;
                if active {
                    sh.branch_time_ev[pc] = i;
                    sh.branch_ceiling_ev[pc] = if mispredicted { i } else { cp1 };
                } else {
                    sh.branch_time_ev[pc] = cp0;
                    sh.branch_ceiling_ev[pc] = cp1;
                }
            }
            if meta.is(PC_CALL) {
                sh.stack_ev.push((cp0, cp1));
            } else if meta.is(PC_RET) {
                sh.stack_ev.pop();
            }
        }
    }
}

/// Object-safe handle over one monomorphized lane group, so the
/// scheduler (and the streaming broadcast) can hold a mixed set of
/// groups and feed them chunk by chunk.
pub(crate) trait GroupFeed<S = NullSink>: Send {
    /// Schedules one chunk of consecutive events. `offset` is the
    /// position of `events[0]` within the classifications, so callers can
    /// feed sub-slices of an in-memory trace against whole-trace
    /// [`EventClass`] bitmaps (the streaming path passes per-chunk
    /// classifications with `offset == 0`).
    fn feed(
        &mut self,
        pcs: &ProgramMeta,
        offset: usize,
        events: &[EventMeta],
        unrolled: &EventClass,
        rolled: &EventClass,
    );

    /// Closes the walk, returning `(request slot, result, sink)` per real
    /// lane.
    fn finish(self: Box<Self>) -> Vec<(usize, PassResult, S)>;
}

impl<S, const L: usize, const CD: bool, const RENAME: bool, const FETCH: bool> GroupFeed<S>
    for GroupCursor<S, L, CD, RENAME, FETCH>
where
    S: MetricsSink + Send,
{
    fn feed(
        &mut self,
        pcs: &ProgramMeta,
        offset: usize,
        events: &[EventMeta],
        unrolled: &EventClass,
        rolled: &EventClass,
    ) {
        // Attribution is tracing-gated so the untraced hot path pays one
        // relaxed load per ~16K-event chunk and nothing else.
        let feed_start = if clfp_metrics::trace::tracing_enabled() {
            if self.walk_start_us == 0 {
                self.walk_start_us = clfp_metrics::trace::now_monotonic_us().max(1);
            }
            self.fed_chunks += 1;
            self.fed_events += events.len() as u64;
            Some(std::time::Instant::now())
        } else {
            None
        };
        for (j, event) in events.iter().enumerate() {
            let meta = &pcs.pcs[event.pc as usize];
            let is_branch = event.flags & EV_BRANCH != 0;
            let mispredicted = event.flags & EV_MISPRED != 0 && is_branch;

            // Per-lane active mask from the lane's unroll setting. The
            // two settings differ only in the ignore bit, which the
            // preparation walk records for both.
            let igu = 0u64.wrapping_sub(unrolled.ignored(offset + j) as u64);
            let igr = 0u64.wrapping_sub(rolled.ignored(offset + j) as u64);
            let mut am = [0u64; L];
            for (a, &sel) in am.iter_mut().zip(&self.unroll_sel) {
                *a = !((igu & sel) | (igr & !sel));
            }

            let (cd0, cd1) = if CD {
                self.cd_ctx(event.cd)
            } else {
                ([0; L], [0; L])
            };

            // Machine-specific control constraint: two masked primary
            // terms, plus the CD/SP-CD branch-ordering extras. A lane's
            // `ctl` is a don't-care when the lane ignores the event
            // (every consumer of `exec` below is select-masked), so no
            // active gating is needed here.
            let mut ctl = [0u64; L];
            if CD {
                for l in 0..L {
                    ctl[l] = (cd0[l] & self.m_a[l]).max(cd1[l] & self.m_b[l]);
                }
                if is_branch {
                    for (l, c) in ctl.iter_mut().enumerate() {
                        *c = (*c).max(self.last_branch[l] & self.m_ord_lb[l]);
                    }
                    if mispredicted {
                        for (l, c) in ctl.iter_mut().enumerate() {
                            *c = (*c).max(self.last_mispred[l] & self.m_ord_lm[l]);
                        }
                    }
                }
            } else {
                for (l, c) in ctl.iter_mut().enumerate() {
                    *c =
                        (self.last_branch[l] & self.m_a[l]).max(self.last_mispred[l] & self.m_b[l]);
                }
            }
            if FETCH {
                for (l, c) in ctl.iter_mut().enumerate() {
                    *c = (*c).max(self.count[l] / self.fetch_width);
                }
            }

            // True data dependences — identical terms for every lane,
            // read from lane-widened tables (one memory probe per group).
            let mut data = [0u64; L];
            for &reg in &meta.uses {
                if reg == NO_REG {
                    break;
                }
                let rt = &self.reg_time[reg as usize];
                for l in 0..L {
                    data[l] = data[l].max(rt[l]);
                }
            }
            let is_load = meta.is(PC_LOAD);
            let is_store = meta.is(PC_STORE);
            // Resolve the group's last-write key (identical to the
            // prepared key unless this group remaps modes; see
            // [`KeyMode`]). Only memory events probe the tables.
            let mem_key = if is_load || is_store {
                match &self.key_mode {
                    KeyMode::Event => event.mem_key,
                    KeyMode::Class(classes) => classes[event.pc as usize],
                    KeyMode::Single => 0,
                }
            } else {
                0
            };
            if is_load {
                let mt = self.mem_time.get(mem_key);
                for l in 0..L {
                    data[l] = data[l].max(mt[l]);
                }
            }
            if !RENAME {
                if meta.def != NO_REG {
                    let rr = &self.reg_read[meta.def as usize];
                    let rt = &self.reg_time[meta.def as usize];
                    for l in 0..L {
                        data[l] = data[l].max(rr[l]).max(rt[l]);
                    }
                }
                if is_store {
                    let mr = self.mem_read.get(mem_key);
                    let mt = self.mem_time.get(mem_key);
                    for l in 0..L {
                        data[l] = data[l].max(mr[l]).max(mt[l]);
                    }
                }
            }

            let mut exec = [0u64; L];
            let mut done = [0u64; L];
            let latency = meta.latency as u64;
            for l in 0..L {
                exec[l] = data[l].max(ctl[l]) + 1;
                done[l] = exec[l] + latency - 1;
            }
            if S::ENABLED {
                // A recording group's lanes share one classification, so
                // lane 0's mask is every lane's.
                self.record(event, meta, mem_key, am[0] != 0, (&cd0, &cd1), &exec, &done);
            }

            // State updates, select-masked per lane.
            for (c, &a) in self.count.iter_mut().zip(&am) {
                *c += a & 1;
            }
            for l in 0..L {
                self.cycles[l] = self.cycles[l].max(done[l] & am[l]);
            }
            if meta.def != NO_REG {
                // Value prediction as one more mask: a correctly predicted
                // producer publishes availability 0 instead of `done`,
                // releasing consumers immediately. Each lane masks its own
                // hit bit (`vp_flag`, the configured mode's EV_VALPRED in
                // single-config walks, a per-predictor bit in multi-config
                // walks), keeping the kernel branch-free without another
                // monomorphization axis.
                let rt = &mut self.reg_time[meta.def as usize];
                for l in 0..L {
                    let vpm = 0u64.wrapping_sub(u64::from(event.flags & self.vp_flag[l] != 0));
                    rt[l] = ((done[l] & !vpm) & am[l]) | (rt[l] & !am[l]);
                }
            }
            if is_store {
                let mt = self.mem_time.entry(mem_key);
                if self.mem_accumulate {
                    for l in 0..L {
                        mt[l] = (done[l].max(mt[l]) & am[l]) | (mt[l] & !am[l]);
                    }
                } else {
                    for l in 0..L {
                        mt[l] = (done[l] & am[l]) | (mt[l] & !am[l]);
                    }
                }
            }
            if !RENAME {
                for &reg in &meta.uses {
                    if reg == NO_REG {
                        break;
                    }
                    let rr = &mut self.reg_read[reg as usize];
                    for l in 0..L {
                        rr[l] = rr[l].max(exec[l] & am[l]);
                    }
                }
                if is_load {
                    let mr = self.mem_read.entry(mem_key);
                    for l in 0..L {
                        mr[l] = mr[l].max(exec[l] & am[l]);
                    }
                }
            }

            // Branch trackers.
            if is_branch {
                for l in 0..L {
                    self.last_branch[l] = (exec[l] & am[l]) | (self.last_branch[l] & !am[l]);
                }
                if mispredicted {
                    for l in 0..L {
                        self.last_mispred[l] = (exec[l] & am[l]) | (self.last_mispred[l] & !am[l]);
                    }
                }
                if CD {
                    // A lane that ignores the branch (perfect unrolling
                    // deleted it) inherits the constraint the branch
                    // itself would have waited on.
                    let pc = event.pc as usize;
                    let bt = &mut self.branch_time[pc];
                    for l in 0..L {
                        bt[l] = (exec[l] & am[l]) | (cd0[l] & !am[l]);
                    }
                    let bc = &mut self.branch_ceiling[pc];
                    if mispredicted {
                        for l in 0..L {
                            bc[l] = (exec[l] & am[l]) | (cd1[l] & !am[l]);
                        }
                    } else {
                        *bc = cd1;
                    }
                }
            }
            if CD {
                if meta.is(PC_CALL) {
                    self.stack.push((cd0, cd1));
                } else if meta.is(PC_RET) {
                    self.stack.pop();
                }
            }

            // SP segment statistics (scalar per tracked lane; empty for
            // every group without an SP lane).
            for t in &mut self.seg {
                if am[t.lane] != 0 {
                    t.count += 1;
                    t.max = t.max.max(exec[t.lane]);
                    if mispredicted {
                        let span = t.max.saturating_sub(t.start).max(1);
                        t.stats.record_segment(
                            t.count.min(u32::MAX as u64) as u32,
                            t.count as f64 / span as f64,
                        );
                        t.count = 0;
                        t.start = exec[t.lane];
                        t.max = exec[t.lane];
                    }
                }
            }
        }
        if let Some(t0) = feed_start {
            self.busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    fn finish(self: Box<Self>) -> Vec<(usize, PassResult, S)> {
        // One synthesized summary span per group walk: start = first
        // feed, duration = accumulated busy time (the group may have
        // interleaved with others on one thread, so a plain RAII guard
        // would overcount). This is the per-machine lane attribution the
        // pipeline profile reads back out of the trace log.
        if self.walk_start_us != 0 {
            use clfp_metrics::trace::ArgValue;
            let slots = self
                .lanes
                .iter()
                .map(LaneSlot::describe)
                .collect::<Vec<_>>()
                .join(",");
            clfp_metrics::trace::record_span(
                "lane.group",
                "lane",
                self.walk_start_us,
                self.busy_ns / 1_000,
                vec![
                    ("group", ArgValue::U64(self.group_id)),
                    ("cd", ArgValue::Bool(CD)),
                    ("record", ArgValue::Bool(S::ENABLED)),
                    ("lanes", ArgValue::U64(self.lanes.len() as u64)),
                    ("width", ArgValue::U64(L as u64)),
                    (
                        "key_mode",
                        ArgValue::Str(self.key_mode.trace_name().to_string()),
                    ),
                    ("slots", ArgValue::Str(slots)),
                    ("events", ArgValue::U64(self.fed_events)),
                    ("chunks", ArgValue::U64(self.fed_chunks)),
                ],
            );
        }
        let mut stats: Vec<Option<MispredictionStats>> = (0..L).map(|_| None).collect();
        for t in self.seg {
            let lane = t.lane;
            stats[lane] = Some(t.finish());
        }
        self.lanes
            .iter()
            .zip(self.sinks)
            .enumerate()
            .map(|(l, (lane, sink))| {
                (
                    lane.slot,
                    PassResult {
                        cycles: self.cycles[l],
                        count: self.count[l],
                        mispred_stats: stats[l].take(),
                    },
                    sink,
                )
            })
            .collect()
    }
}

/// Boxes the kernel monomorphized for one sink, width and group kind,
/// dispatching on the renaming and fetch-bandwidth settings.
fn boxed<S, const L: usize, const CD: bool>(
    lanes: &[LaneSlot],
    text_len: usize,
    config: &PassConfig,
    mem_capacity: usize,
    mode: GroupMode,
    sinks: Vec<S>,
) -> Box<dyn GroupFeed<S>>
where
    S: MetricsSink + Send + 'static,
{
    macro_rules! mono {
        ($rename:literal, $fetch:literal) => {
            Box::new(GroupCursor::<S, L, CD, $rename, $fetch>::new(
                lanes,
                text_len,
                config,
                mem_capacity,
                mode,
                sinks,
            ))
        };
    }
    match (config.rename, config.fetch_bandwidth.is_some()) {
        (true, false) => mono!(true, false),
        (true, true) => mono!(true, true),
        (false, false) => mono!(false, false),
        (false, true) => mono!(false, true),
    }
}

fn make_group<const CD: bool>(
    lanes: &[LaneSlot],
    text_len: usize,
    config: &PassConfig,
    mem_capacity: usize,
    mode: GroupMode,
) -> Box<dyn GroupFeed> {
    let build = match lanes.len() {
        1 => boxed::<NullSink, 1, CD>,
        2 => boxed::<NullSink, 2, CD>,
        3 | 4 => boxed::<NullSink, 4, CD>,
        5 | 6 => boxed::<NullSink, 6, CD>,
        _ => boxed::<NullSink, 8, CD>,
    };
    build(
        lanes,
        text_len,
        config,
        mem_capacity,
        mode,
        vec![NullSink; lanes.len()],
    )
}

/// All lane groups for one set of requested machine × unroll slots,
/// fed chunk by chunk and finished into request-ordered results.
///
/// Slots split into at most one CD group and one non-CD group of up to 8
/// lanes each (the full 7-machine × 2-setting request is exactly 8 CD +
/// 6 non-CD lanes); larger requests simply open further groups.
pub(crate) struct LaneScheduler {
    pub(crate) groups: Vec<Box<dyn GroupFeed>>,
    total: usize,
}

impl LaneScheduler {
    pub fn new(
        slots: &[(MachineKind, bool)],
        text_len: usize,
        config: &PassConfig,
        mem_capacity: usize,
    ) -> LaneScheduler {
        let lanes = slots
            .iter()
            .enumerate()
            .map(|(slot, &(kind, unrolling))| LaneSlot {
                slot,
                kind,
                unrolling,
                vp_flag: EV_VALPRED,
            })
            .collect();
        LaneScheduler::with_groups(
            vec![(GroupMode::from_config(config), lanes)],
            slots.len(),
            text_len,
            config,
            mem_capacity,
        )
    }

    /// Builds a scheduler from explicit `(mode, lanes)` groupings — the
    /// multi-config entry point. Each grouping shares one [`GroupMode`]
    /// (its lanes must model the same disambiguation mode, since the
    /// last-write tables are keyed per group), splits into CD and non-CD
    /// cursor groups of up to 8 lanes, and every group walks the same
    /// event stream. `total` is the number of result slots referenced by
    /// the lanes.
    pub fn with_groups(
        specs: Vec<(GroupMode, Vec<LaneSlot>)>,
        total: usize,
        text_len: usize,
        config: &PassConfig,
        mem_capacity: usize,
    ) -> LaneScheduler {
        let mut groups: Vec<Box<dyn GroupFeed>> = Vec::new();
        for (mode, lanes) in specs {
            let (cd_lanes, plain_lanes): (Vec<LaneSlot>, Vec<LaneSlot>) = lanes
                .into_iter()
                .partition(|lane| lane.kind.uses_control_deps());
            for lanes in cd_lanes.chunks(8) {
                groups.push(make_group::<true>(
                    lanes,
                    text_len,
                    config,
                    mem_capacity,
                    mode.clone(),
                ));
            }
            for lanes in plain_lanes.chunks(8) {
                groups.push(make_group::<false>(
                    lanes,
                    text_len,
                    config,
                    mem_capacity,
                    mode.clone(),
                ));
            }
        }
        LaneScheduler { groups, total }
    }

    /// Feeds one chunk to every group.
    pub fn feed(
        &mut self,
        pcs: &ProgramMeta,
        offset: usize,
        events: &[EventMeta],
        unrolled: &EventClass,
        rolled: &EventClass,
    ) {
        for group in &mut self.groups {
            group.feed(pcs, offset, events, unrolled, rolled);
        }
    }

    /// Closes every group, returning results in request-slot order.
    pub fn finish(self) -> Vec<PassResult> {
        let mut out: Vec<Option<PassResult>> = (0..self.total).map(|_| None).collect();
        for group in self.groups {
            for (slot, result, _) in group.finish() {
                out[slot] = Some(result);
            }
        }
        out.into_iter()
            .map(|result| result.expect("every requested slot has a lane"))
            .collect()
    }
}

/// Events per in-memory feed chunk: ~13 bytes of prepared event data per
/// entry
/// keeps a chunk L2-resident, so when the CD and non-CD groups walk it
/// back to back the second walk reads warm cache — the whole request
/// still makes a single pass over trace-sized memory.
const FEED_CHUNK: usize = 1 << 14;

/// Runs every requested machine × unroll slot over an in-memory prepared
/// trace through the lane kernel, returning results in request order.
///
/// Multiple cores fan the (at most two) groups out over scoped threads,
/// each walking the whole event slice; a single core interleaves the
/// groups chunk by chunk so the event stream is read from memory once.
pub(crate) fn run_lanes(
    pcs: &ProgramMeta,
    events: &[EventMeta],
    unrolled: &EventClass,
    rolled: &EventClass,
    config: &PassConfig,
    slots: &[(MachineKind, bool)],
    mem_capacity: usize,
) -> Vec<PassResult> {
    let sched = LaneScheduler::new(slots, pcs.pcs.len(), config, mem_capacity);
    run_scheduler(sched, pcs, events, unrolled, rolled)
}

/// Drives a prebuilt scheduler over an in-memory event slice: groups fan
/// out over scoped threads when cores allow, otherwise they interleave
/// chunk by chunk so the stream is read from memory once. Shared by the
/// single-config [`run_lanes`] and the multi-config matrix walk.
pub(crate) fn run_scheduler(
    mut sched: LaneScheduler,
    pcs: &ProgramMeta,
    events: &[EventMeta],
    unrolled: &EventClass,
    rolled: &EventClass,
) -> Vec<PassResult> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(sched.groups.len());
    if workers > 1 {
        std::thread::scope(|scope| {
            for group in &mut sched.groups {
                scope.spawn(|| group.feed(pcs, 0, events, unrolled, rolled));
            }
        });
    } else {
        let mut base = 0;
        while base < events.len() {
            let end = (base + FEED_CHUNK).min(events.len());
            sched.feed(pcs, base, &events[base..end], unrolled, rolled);
            base = end;
        }
    }
    sched.finish()
}

/// Lanes per recording group. Every recorded lane holds a collector of 5
/// bytes per event, and recording groups walk one after the other, so at
/// most this many collectors are live at once.
const RECORD_LANES: usize = 4;

/// Records per-machine metrics for `kinds` at one unroll setting through
/// the lane kernel with a [`MetricsCollector`] per lane.
///
/// The machines split into recording groups of at most [`RECORD_LANES`]
/// lanes — the control-dependence machines first, then the rest — and
/// the groups run one after the other: `walk` feeds the whole event
/// stream to each group in turn (the in-memory path passes its prepared
/// slice, the streaming path re-streams the execution), and each group's
/// collectors are finished before the next group starts. Results come
/// back in request order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_metrics<E>(
    kinds: &[MachineKind],
    unrolling: bool,
    text_len: usize,
    config: &PassConfig,
    mem_capacity: usize,
    events_hint: usize,
    mut walk: impl FnMut(&mut dyn GroupFeed<MetricsCollector>) -> Result<(), E>,
) -> Result<Vec<(MachineKind, MachineMetrics)>, E> {
    let lanes: Vec<LaneSlot> = kinds
        .iter()
        .enumerate()
        .map(|(slot, &kind)| LaneSlot {
            slot,
            kind,
            unrolling,
            vp_flag: EV_VALPRED,
        })
        .collect();
    let (cd_lanes, plain_lanes): (Vec<LaneSlot>, Vec<LaneSlot>) = lanes
        .into_iter()
        .partition(|lane| lane.kind.uses_control_deps());
    let mut out: Vec<Option<MachineMetrics>> = kinds.iter().map(|_| None).collect();
    for (cd, group_lanes) in [(true, cd_lanes), (false, plain_lanes)] {
        for lanes in group_lanes.chunks(RECORD_LANES) {
            let build = match (cd, lanes.len()) {
                (true, 1) => boxed::<MetricsCollector, 1, true>,
                (true, 2) => boxed::<MetricsCollector, 2, true>,
                (true, 3) => boxed::<MetricsCollector, 3, true>,
                (true, _) => boxed::<MetricsCollector, 4, true>,
                (false, 1) => boxed::<MetricsCollector, 1, false>,
                (false, 2) => boxed::<MetricsCollector, 2, false>,
                (false, 3) => boxed::<MetricsCollector, 3, false>,
                (false, _) => boxed::<MetricsCollector, 4, false>,
            };
            let sinks = lanes
                .iter()
                .map(|_| MetricsCollector::with_capacity(events_hint))
                .collect();
            let mode = GroupMode::from_config(config);
            let mut group = build(lanes, text_len, config, mem_capacity, mode, sinks);
            walk(group.as_mut())?;
            for (slot, _, collector) in group.finish() {
                out[slot] = Some(collector.finish());
            }
        }
    }
    Ok(kinds
        .iter()
        .zip(out)
        .map(|(&kind, metrics)| (kind, metrics.expect("every machine has a lane")))
        .collect())
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

    /// A procedure-heavy program exercising calls, CD inheritance, loops,
    /// and memory traffic.
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
    fn recording_sink_does_not_perturb_results() {
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
            let (unrolled, rolled) = (tm.class(true), tm.class(false));
            let slots: Vec<(MachineKind, bool)> = MachineKind::ALL
                .iter()
                .map(|&kind| (kind, unrolling))
                .collect();
            let plain = run_lanes(
                &pcs,
                &tm.events,
                unrolled,
                rolled,
                &pass_config,
                &slots,
                DEFAULT_MEM_CAPACITY,
            );

            // The two recording groups (4 CD lanes, 3 non-CD lanes plus a
            // padding lane), each walked on its own.
            let mut recorded: Vec<(usize, PassResult, MetricsCollector)> = Vec::new();
            for cd in [true, false] {
                let lanes: Vec<LaneSlot> = MachineKind::ALL
                    .iter()
                    .enumerate()
                    .filter(|(_, kind)| kind.uses_control_deps() == cd)
                    .map(|(slot, &kind)| LaneSlot {
                        slot,
                        kind,
                        unrolling,
                        vp_flag: EV_VALPRED,
                    })
                    .collect();
                let sinks = lanes
                    .iter()
                    .map(|_| MetricsCollector::with_capacity(tm.events.len()))
                    .collect();
                let build = if cd {
                    boxed::<MetricsCollector, 4, true>
                } else {
                    boxed::<MetricsCollector, 4, false>
                };
                let mode = GroupMode::from_config(&pass_config);
                let mut group = build(
                    &lanes,
                    program.text.len(),
                    &pass_config,
                    DEFAULT_MEM_CAPACITY,
                    mode,
                    sinks,
                );
                group.feed(&pcs, 0, &tm.events, unrolled, rolled);
                recorded.extend(group.finish());
            }
            assert_eq!(recorded.len(), MachineKind::ALL.len());

            for (slot, observed, collector) in recorded {
                let kind = MachineKind::ALL[slot];
                let reference = run_pass(
                    &Prepared {
                        program: &program,
                        info: &info,
                        events: trace.events(),
                        class: tm.class(unrolling),
                        pass_config,
                    },
                    kind,
                );
                for (want, oracle) in [(&plain[slot], "null-sink lanes"), (&reference, "run_pass")]
                {
                    let tag = format!("{kind} unroll={unrolling} vs {oracle}");
                    assert_eq!(observed.cycles, want.cycles, "{tag}");
                    assert_eq!(observed.count, want.count, "{tag}");
                    assert_eq!(observed.mispred_stats, want.mispred_stats, "{tag}");
                }

                assert_eq!(collector.len(), tm.events.len(), "{kind}");
                let metrics = collector.finish();
                // The distilled metrics re-derive the pass result exactly.
                assert_eq!(metrics.cycles, observed.cycles, "{kind}");
                assert_eq!(metrics.instrs, observed.count, "{kind}");
                assert_eq!(metrics.flow.total(), observed.count, "{kind}");
                assert!(metrics.attribution.chain_len >= 1, "{kind}");
                let total: f64 = EdgeKind::ALL
                    .iter()
                    .map(|&k| metrics.attribution.percent(k))
                    .sum();
                if metrics.attribution.classified() > 0 {
                    assert!((total - 100.0).abs() < 1e-9, "{kind}: {total}");
                }
                // ORACLE has no control constraint of any kind.
                if kind == MachineKind::Oracle {
                    assert_eq!(metrics.flow.control_bound(), 0);
                }
                // Multiple-flow machines never pay the merge ordering.
                if kind.multiple_flows() || !kind.uses_control_deps() {
                    assert_eq!(
                        metrics.flow.by_kind[3], 0,
                        "{kind} should have no mf-merge edges"
                    );
                }
            }

            // The streaming metrics path (recording groups fed per chunk)
            // must reproduce the in-memory metrics bit for bit, including
            // across boundary-straddling 7-event chunks.
            let analyzer = crate::Analyzer::new(&program, config.clone()).unwrap();
            let inmem = analyzer
                .prepare(&trace)
                .machine_metrics_with_unrolling(unrolling);
            let streamed = analyzer
                .stream_machine_metrics(&trace, unrolling, 7)
                .unwrap();
            assert_eq!(inmem, streamed, "unroll={unrolling}");
        }
    }
}
