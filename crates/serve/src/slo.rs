//! Per-class SLO burn accounting.
//!
//! Each request class (see [`crate::request::Request::class`]) gets a
//! deadline-hit budget: over every window of `window` terminal
//! outcomes, at least `target` of them must complete in deadline.
//! Completions count as hits (the batcher only completes in-deadline
//! work by construction); sheds of any reason count as misses. When a
//! window closes the tracker sets the class's burn-rate gauge
//! (`hs_serve_slo_burn_c<class>` — the fraction of the error budget
//! consumed, 1.0 = exactly exhausted) and, if the hit ratio fell below
//! target, emits one `slo_burn` event and starts the next window.
//!
//! Everything runs in virtual time with integer arithmetic feeding the
//! ratios, so two identical seeded runs burn identically.

use std::collections::BTreeMap;

use hs_telemetry::{metrics, Event, EventKind, Level, TraceCtx};

use crate::request::Micros;

/// Per-class hit/miss tally for the current window.
#[derive(Debug, Default, Clone, Copy)]
struct ClassWindow {
    hits: u64,
    misses: u64,
}

/// Sliding-window SLO accountant for all request classes.
#[derive(Debug)]
pub struct SloTracker {
    /// Required deadline-hit ratio per window (e.g. 0.9).
    target: f64,
    /// Window length in terminal outcomes; 0 disables accounting.
    window: usize,
    /// Trace context burn events are tagged with (children of the
    /// engine's SLO root span).
    ctx: TraceCtx,
    seq: u64,
    classes: BTreeMap<usize, ClassWindow>,
    burns: u64,
}

impl SloTracker {
    /// A tracker enforcing `target` over windows of `window` outcomes,
    /// deriving event trace ids from `trace_seed`.
    pub fn new(target: f64, window: usize, trace_seed: u64) -> SloTracker {
        SloTracker {
            target: target.clamp(0.0, 1.0),
            window,
            ctx: hs_telemetry::trace::unit_ctx(trace_seed, "serve_slo", 0),
            seq: 0,
            classes: BTreeMap::new(),
            burns: 0,
        }
    }

    /// Total burn events emitted so far.
    pub fn burns(&self) -> u64 {
        self.burns
    }

    /// Records one terminal outcome for `class` at virtual time `at`.
    /// Returns true when this outcome closed a window with its budget
    /// exhausted (a burn).
    pub fn record(&mut self, class: usize, hit: bool, at: Micros) -> bool {
        if self.window == 0 {
            return false;
        }
        let w = self.classes.entry(class).or_default();
        if hit {
            w.hits += 1;
        } else {
            w.misses += 1;
        }
        if w.hits + w.misses < self.window as u64 {
            return false;
        }
        let (hits, misses) = (w.hits, w.misses);
        *w = ClassWindow::default();
        let hit_ratio = hits as f64 / (hits + misses) as f64;
        let budget = 1.0 - self.target;
        let burn_rate = if budget > 0.0 {
            (1.0 - hit_ratio) / budget
        } else if hit_ratio < 1.0 {
            f64::INFINITY
        } else {
            0.0
        };
        metrics::gauge(&format!("hs_serve_slo_burn_c{class}")).set(burn_rate);
        if hit_ratio >= self.target {
            return false;
        }
        self.burns += 1;
        metrics::counter("hs_serve_slo_burns_total").inc();
        let event_ctx = self.ctx.child(self.seq);
        self.seq += 1;
        hs_telemetry::emit(
            Event::new(EventKind::SloBurn, Level::Warn, "serve/slo")
                .message(format!(
                    "class {class} burned its SLO budget: hit ratio {hit_ratio:.3} < target {:.3}",
                    self.target
                ))
                .field("class", class)
                .field("target", self.target)
                .field("hit_ratio", hit_ratio)
                .field("window", self.window)
                .field("burn_rate", burn_rate)
                .field("at", at)
                .traced(&event_ctx),
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burns_only_when_a_window_misses_its_target() {
        // Class 7 is this test's alone: burn gauges are process-global and
        // the sibling tests close class-0 windows concurrently.
        let mut slo = SloTracker::new(0.8, 5, 7);
        // Window 1: 4/5 hits — exactly on target, no burn.
        for i in 0..4 {
            assert!(!slo.record(7, true, i));
        }
        assert!(!slo.record(7, false, 4));
        assert_eq!(slo.burns(), 0);
        // Window 2: 2/5 hits — burns.
        for i in 0..2 {
            assert!(!slo.record(7, true, 10 + i));
        }
        for i in 0..2 {
            assert!(!slo.record(7, false, 20 + i));
        }
        assert!(slo.record(7, false, 30));
        assert_eq!(slo.burns(), 1);
        assert!(metrics::gauge("hs_serve_slo_burn_c7").get() > 1.0);
    }

    #[test]
    fn classes_are_accounted_independently() {
        let mut slo = SloTracker::new(0.9, 3, 7);
        // Class 1 misses everything; class 0 stays healthy.
        for i in 0..3 {
            slo.record(0, true, i);
        }
        for i in 0..2 {
            assert!(!slo.record(1, false, i));
        }
        assert!(slo.record(1, false, 2));
        assert_eq!(slo.burns(), 1);
    }

    #[test]
    fn window_boundary_outcome_is_counted_in_exactly_one_window() {
        // Window = 3, target 0.9. The third outcome closes the window;
        // it must be tallied inside the window it closes and must NOT
        // leak into the next one.
        let mut slo = SloTracker::new(0.9, 3, 7);
        assert!(!slo.record(0, false, 0));
        assert!(!slo.record(0, false, 1));
        // The boundary outcome: a miss landing exactly on the window
        // edge. Counted in window 1 → 0/3 hits → burn.
        assert!(slo.record(0, false, 2));
        assert_eq!(slo.burns(), 1);
        // Window 2 starts from a clean tally: if the boundary miss had
        // leaked, two hits and the leaked miss would close it at 2/3
        // and burn. Instead the third *hit* closes it at 3/3 — no burn.
        assert!(!slo.record(0, true, 3));
        assert!(!slo.record(0, true, 4));
        assert!(!slo.record(0, true, 5));
        assert_eq!(slo.burns(), 1, "boundary outcome must not double-count");
        // Symmetric check with a hit on the edge: 2 misses + edge hit =
        // 1/3 < 0.9 burns once, and the hit doesn't seed window 4.
        assert!(!slo.record(0, false, 6));
        assert!(!slo.record(0, false, 7));
        assert!(slo.record(0, true, 8));
        assert_eq!(slo.burns(), 2);
        assert!(!slo.record(0, false, 9));
        assert!(!slo.record(0, false, 10));
        assert!(slo.record(0, false, 11), "fresh window needs 3 outcomes");
        assert_eq!(slo.burns(), 3);
    }

    #[test]
    fn zero_window_disables_accounting() {
        let mut slo = SloTracker::new(0.9, 0, 7);
        for i in 0..100 {
            assert!(!slo.record(0, false, i));
        }
        assert_eq!(slo.burns(), 0);
    }
}
