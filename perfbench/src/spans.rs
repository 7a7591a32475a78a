//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer's public functions,
//! kept in memory, and written out once at exit. The program's own
//! recorder (`clfp_metrics::trace`) is never switched on: tracing inside
//! the program is a separate concern from this benchmark.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use clfp_vm::{TraceEvent, TraceSource, VmError};

/// One recorded span. `parent` indexes the recorder's span list.
pub struct Span {
    pub name: &'static str,
    /// Suite program the span worked on; empty for whole-op spans.
    pub program: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Trace events the span handled, where the layer hands them over.
    pub events: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; while disabled, [`Recorder::layer`] only
/// runs its closure.
pub struct Recorder {
    epoch: Instant,
    enabled: Cell<bool>,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: Cell::new(false),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switches recording on or off for the ops that follow, tagging
    /// their spans with `op`.
    pub fn set_op(&self, op: u32, enabled: bool) {
        self.op.set(op);
        self.enabled.set(enabled);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; `None` while disabled.
    pub fn open(
        &self,
        name: &'static str,
        program: &'static str,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled() {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            program,
            op: self.op.get(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            events: 0,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<usize>, events: u64) {
        if let Some(id) = id {
            let end = self.now_ns();
            let mut spans = self.spans.borrow_mut();
            spans[id].end_ns = end;
            spans[id].events = events;
        }
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id so it
    /// can parent nested spans.
    pub fn layer<T>(
        &self,
        name: &'static str,
        program: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let id = self.open(name, program, parent);
        let out = f(id);
        self.close(id, 0);
        out
    }

    /// Per-layer totals of every recorded op, in op order.
    pub fn op_profiles(&self) -> Vec<OpProfile> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns();
            }
        }
        let mut profiles: BTreeMap<u32, OpProfile> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let profile = profiles.entry(span.op).or_default();
            match span.parent {
                None => profile.op_ns += span.dur_ns(),
                Some(parent) if spans[parent].parent.is_none() => {
                    profile.covered_ns += span.dur_ns();
                }
                Some(_) => {}
            }
            if span.parent.is_some() {
                *profile.self_ns.entry(span.name.to_string()).or_default() +=
                    span.dur_ns() - child_ns[i];
                if !span.program.is_empty() {
                    *profile
                        .self_ns
                        .entry(format!("{}.{}", span.name, span.program))
                        .or_default() += span.dur_ns() - child_ns[i];
                }
                let count = profile.counts.entry(span.name.to_string()).or_default();
                count.0 += 1;
                count.1 += span.events;
            }
        }
        profiles.into_values().collect()
    }

    /// Every span as Chrome trace-event JSON (loadable in ui.perfetto.dev),
    /// with `meta` as an extra top-level object.
    pub fn chrome_json(&self, meta: &str) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \
                 \"program\": \"{}\", \"events\": {}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.program,
                s.events,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!("], \"meta\": {meta}}}\n"));
        out
    }
}

/// One traced op, summed per layer.
#[derive(Default)]
pub struct OpProfile {
    /// Wall of the op span.
    pub op_ns: u64,
    /// Wall covered by the op's direct child spans.
    pub covered_ns: u64,
    /// Self time per span name, and per `name.program` for per-program spans.
    pub self_ns: BTreeMap<String, u64>,
    /// Span count and summed events per span name.
    pub counts: BTreeMap<String, (u64, u64)>,
}

impl OpProfile {
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn count(&self, name: &str) -> (u64, u64) {
        self.counts.get(name).copied().unwrap_or((0, 0))
    }
}

/// Wraps a [`TraceSource`] so that the time spent inside the consumer's
/// sink is recorded as `core.stream_consume` spans (one per chunk) under a
/// `vm.stream` span per pass. The `vm.stream` self time is then the VM's
/// production time.
pub struct TimedSource<'a> {
    pub inner: &'a dyn TraceSource,
    pub rec: &'a Recorder,
    pub program: &'static str,
    pub parent: Option<usize>,
}

impl TraceSource for TimedSource<'_> {
    fn stream(
        &self,
        chunk_events: usize,
        sink: &mut dyn FnMut(&[TraceEvent]),
    ) -> Result<(), VmError> {
        let pass = self.rec.open("vm.stream", self.program, self.parent);
        let mut produced = 0u64;
        let result = self.inner.stream(chunk_events, &mut |chunk| {
            let id = self.rec.open("core.stream_consume", self.program, pass);
            sink(chunk);
            self.rec.close(id, chunk.len() as u64);
            produced += chunk.len() as u64;
        });
        self.rec.close(pass, produced);
        result
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}
