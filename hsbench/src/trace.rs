//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its name, parent and duration, plus the change in the
//! kernel counters of `hs_telemetry::metrics::snapshot()` between its
//! boundaries.
//! Self time is a span's duration minus its direct children's (spans
//! nest and never overlap: the benchmark is single-threaded). A
//! disabled tracer records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

use hs_telemetry::metrics::{self, MetricSnapshot};

/// The scratch high-water gauge, reset at the start of every phase span
/// so its reading at the end is that phase's high-water mark.
const SCRATCH_GAUGE: &str = "hs_tensor_scratch_highwater_bytes";

/// The kernel metrics the traced run reads, by registry name.
const GEMM_CALLS: &str = "hs_tensor_gemm_calls_total";
const GEMM_FLOPS: &str = "hs_tensor_gemm_flops_total";
const GEMM_SECS: &str = "hs_tensor_gemm_secs";
const IM2COL_CALLS: &str = "hs_tensor_im2col_calls_total";
const IM2COL_BYTES: &str = "hs_tensor_im2col_bytes_total";
const COL2IM_CALLS: &str = "hs_tensor_col2im_calls_total";
const POOL_TASKS: &str = "hs_tensor_pool_tasks_total";

/// Every registry name [`Counters::read`] looks up.
pub const KERNEL_METRICS: [&str; 8] = [
    GEMM_CALLS,
    GEMM_FLOPS,
    GEMM_SECS,
    IM2COL_CALLS,
    IM2COL_BYTES,
    COL2IM_CALLS,
    POOL_TASKS,
    SCRATCH_GAUGE,
];

/// Span names whose kernel counters are reported per phase, with the
/// phase label used in metric names (`tensor.<phase>.<what>`).
pub const PHASES: [(&str, &str); 5] = [
    ("core.search", "search"),
    ("pruning.finetune", "finetune"),
    ("nn.evaluate", "evaluate"),
    ("infer.b1", "infer_b1"),
    ("infer.b64", "infer_b64"),
];

/// Kernel counters at one instant (or their change over a span).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// GEMM calls, small-path ones included.
    pub gemm_calls: u64,
    /// GEMM floating-point operations (2·m·k·n per call).
    pub gemm_flops: u64,
    /// GEMM calls the timing histogram saw (blocked path only).
    pub gemm_timed_calls: u64,
    /// Seconds the timing histogram summed.
    pub gemm_timed_secs: f64,
    /// im2col lowerings.
    pub im2col_calls: u64,
    /// Bytes im2col wrote.
    pub im2col_bytes: u64,
    /// col2im scatters.
    pub col2im_calls: u64,
    /// Tasks the tensor pool ran.
    pub pool_tasks: u64,
    /// Scratch-arena high-water bytes (a level, not a count).
    pub scratch_highwater: f64,
}

impl Counters {
    /// Reads the registry.
    pub fn read() -> Counters {
        let mut c = Counters::default();
        for m in metrics::snapshot() {
            match (m.name(), &m) {
                (GEMM_CALLS, MetricSnapshot::Counter { value, .. }) => c.gemm_calls = *value,
                (GEMM_FLOPS, MetricSnapshot::Counter { value, .. }) => c.gemm_flops = *value,
                (GEMM_SECS, MetricSnapshot::Histogram { count, sum, .. }) => {
                    c.gemm_timed_calls = *count;
                    c.gemm_timed_secs = *sum;
                }
                (IM2COL_CALLS, MetricSnapshot::Counter { value, .. }) => c.im2col_calls = *value,
                (IM2COL_BYTES, MetricSnapshot::Counter { value, .. }) => c.im2col_bytes = *value,
                (COL2IM_CALLS, MetricSnapshot::Counter { value, .. }) => c.col2im_calls = *value,
                (POOL_TASKS, MetricSnapshot::Counter { value, .. }) => c.pool_tasks = *value,
                (SCRATCH_GAUGE, MetricSnapshot::Gauge { value, .. }) => {
                    c.scratch_highwater = *value
                }
                _ => {}
            }
        }
        c
    }

    /// The change from `before` to `self`; the high-water level is
    /// taken as is.
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            gemm_calls: self.gemm_calls - before.gemm_calls,
            gemm_flops: self.gemm_flops - before.gemm_flops,
            gemm_timed_calls: self.gemm_timed_calls - before.gemm_timed_calls,
            gemm_timed_secs: self.gemm_timed_secs - before.gemm_timed_secs,
            im2col_calls: self.im2col_calls - before.im2col_calls,
            im2col_bytes: self.im2col_bytes - before.im2col_bytes,
            col2im_calls: self.col2im_calls - before.col2im_calls,
            pool_tasks: self.pool_tasks - before.pool_tasks,
            scratch_highwater: self.scratch_highwater,
        }
    }

    fn accumulate(&mut self, d: &Counters) {
        self.gemm_calls += d.gemm_calls;
        self.gemm_flops += d.gemm_flops;
        self.gemm_timed_calls += d.gemm_timed_calls;
        self.gemm_timed_secs += d.gemm_timed_secs;
        self.im2col_calls += d.im2col_calls;
        self.im2col_bytes += d.im2col_bytes;
        self.col2im_calls += d.col2im_calls;
        self.pool_tasks += d.pool_tasks;
        self.scratch_highwater = self.scratch_highwater.max(d.scratch_highwater);
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    secs: f64,
    child_secs: f64,
    delta: Counters,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: usize,
    /// Summed duration.
    pub secs: f64,
    /// Summed self time (duration minus direct children).
    pub self_secs: f64,
    /// Summed kernel-counter changes (high-water: the maximum).
    pub counters: Counters,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if PHASES.iter().any(|&(span, _)| span == name) {
            metrics::gauge(SCRATCH_GAUGE).set(0.0);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            secs: 0.0,
            child_secs: 0.0,
            delta: Counters::default(),
        });
        self.stack.push(id);
        let before = Counters::read();
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        let delta = Counters::read().since(&before);
        self.stack.pop();
        let span = &mut self.spans[id];
        span.secs = secs;
        span.delta = delta;
        if let Some(parent) = span.parent {
            self.spans[parent].child_secs += secs;
        }
        out
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for span in &self.spans {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.secs += span.secs;
            t.self_secs += span.secs - span.child_secs;
            t.counters.accumulate(&span.delta);
        }
        out
    }

    /// For every span named `root`: its duration, and the summed self
    /// time of every span beneath it. The pair shows how much of the
    /// root's time the child spans account for.
    pub fn coverage(&self, root: &str) -> (f64, f64) {
        let mut root_secs = 0.0;
        let mut covered = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == root {
                root_secs += span.secs;
                continue;
            }
            if self.has_ancestor(id, root) {
                covered += span.secs - span.child_secs;
            }
        }
        (root_secs, covered)
    }

    fn has_ancestor(&self, mut id: usize, name: &str) -> bool {
        while let Some(parent) = self.spans[id].parent {
            if self.spans[parent].name == name {
                return true;
            }
            id = parent;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let start = Instant::now();
        while start.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_coverage_sums_self_times() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            busy(5);
            t.span("child", |t| {
                busy(10);
                t.span("grandchild", |_| busy(10));
            });
            t.span("child", |_| busy(5));
        });
        let totals = t.totals();
        let root = &totals["root"];
        let child = &totals["child"];
        let grandchild = &totals["grandchild"];
        assert_eq!((root.count, child.count, grandchild.count), (1, 2, 1));
        assert!((root.self_secs - (root.secs - child.secs)).abs() < 1e-9);
        assert!((child.self_secs - (child.secs - grandchild.secs)).abs() < 1e-9);
        assert!(child.self_secs >= 0.015 && grandchild.self_secs >= 0.010);
        let (root_secs, covered) = t.coverage("root");
        assert!((root_secs - root.secs).abs() < 1e-12);
        assert!((covered - (child.self_secs + grandchild.self_secs)).abs() < 1e-9);
        assert!(covered < root_secs);
    }

    #[test]
    fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("root", |t| t.span("child", |_| 7));
        assert_eq!(v, 7);
        assert!(t.totals().is_empty());
    }
}
