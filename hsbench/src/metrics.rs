//! The benchmark's metric names and units, the single source that
//! `BENCHMARK.json` mirrors (a test keeps the two in step).

/// An end-to-end metric: what a user of the pipeline sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Printed with tracing off, on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("prune_s", "s", "lower", 0.25),
    e2e("pruned_b1_p50_ms", "ms", "lower", 0.25),
    e2e("dense_b1_p50_ms", "ms", "lower", 0.25),
    e2e("pruned_b64_imgs_per_s", "1/s", "higher", 0.25),
    e2e("dense_b64_imgs_per_s", "1/s", "higher", 0.25),
];

/// Per-layer metrics outside the per-phase kernel table:
/// `(name, unit, better)`.
const LAYER: [(&str, &str, &str); 39] = [
    // hs-data, hs-runner
    ("data.build_s", "s", "lower"),
    ("runner.pretrain_s", "s", "lower"),
    ("runner.final_accuracy_pct", "%", "higher"),
    // hs-nn
    ("nn.checkpoint_save_s", "s", "lower"),
    ("nn.compact_s", "s", "lower"),
    ("nn.surgery_s", "s", "lower"),
    ("nn.evaluate_s", "s", "lower"),
    ("nn.analyze_s", "s", "lower"),
    ("nn.pruned_b1_tail_ms", "ms", "lower"),
    ("nn.pruned_b1_tail_pct", "%", "higher"),
    ("nn.pruned_b1_samples", "count", "higher"),
    ("nn.dense_b1_tail_ms", "ms", "lower"),
    ("nn.dense_b1_tail_pct", "%", "higher"),
    ("nn.dense_b1_samples", "count", "higher"),
    ("nn.pruned_batch_gain_x", "x", "higher"),
    ("nn.dense_batch_gain_x", "x", "higher"),
    ("nn.flop_speedup_x", "x", "higher"),
    ("nn.pruned_speedup_x", "x", "higher"),
    // hs-core
    ("core.search_s", "s", "lower"),
    ("core.eval_s", "s", "lower"),
    ("core.policy_s", "s", "lower"),
    ("core.episodes", "count", "lower"),
    ("core.candidates", "count", "lower"),
    ("core.episodes_per_s", "1/s", "higher"),
    ("core.converged_units", "ratio", "higher"),
    ("core.guard_recoveries", "count", "lower"),
    // hs-pruning
    ("pruning.finetune_s", "s", "lower"),
    ("pruning.score_s", "s", "lower"),
    // hs-gpusim
    ("gpusim.pred_speedup_x", "x", "higher"),
    ("gpusim.pred_error_pct", "%", "lower"),
    // The benchmark's own bookkeeping.
    ("bench.untraced_prune_s", "s", "lower"),
    ("bench.traced_prune_s", "s", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.span_coverage_pct", "%", "higher"),
    ("bench.setup_reps", "count", "higher"),
    ("bench.prune_reps", "count", "higher"),
    ("bench.b64_calls", "count", "higher"),
    ("bench.serve_s", "s", "higher"),
    ("bench.reference_ms", "ms", "lower"),
];

/// The hs-tensor counters reported per traced phase, as
/// `tensor.<phase>.<what>`.
pub const TENSOR: [(&str, &str, &str); 10] = [
    ("gemm_calls", "count", "lower"),
    ("gemm_gflop", "GFLOP", "lower"),
    ("gemm_timed_s", "s", "lower"),
    ("gemm_untimed_calls", "count", "lower"),
    ("gemm_timed_gflops", "GFLOP/s", "higher"),
    ("im2col_calls", "count", "lower"),
    ("im2col_mb", "MB", "lower"),
    ("col2im_calls", "count", "lower"),
    ("pool_tasks", "count", "higher"),
    ("scratch_highwater_mb", "MB", "lower"),
];

/// A per-layer metric: name, unit and which direction is better.
pub type Layer = (String, &'static str, &'static str);

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for (_, phase) in crate::trace::PHASES {
        for (what, unit, better) in TENSOR {
            out.push((format!("tensor.{phase}.{what}"), unit, better));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use hs_telemetry::schema::{parse, Json};

    /// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with
    /// a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The unit grammar: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_name_grammar_accepts_and_rejects() {
        for ok in ["setup_s", "tensor.infer_b1.gemm_calls", "a-b.c_d", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["s", "ms", "1/s", "GFLOP/s", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-frame!", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.better))
            .chain(per_layer());
        for (name, unit, better) in names {
            assert!(matches!(better, "lower" | "higher"), "{name}: {better}");
            assert!(valid_name(&name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        let max_bound = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(
            (setup.unit, setup.better, setup.bound),
            ("s", "lower", max_bound)
        );
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(per_layer().len() <= 128);
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        &v.as_obj().expect("object")[key]
    }

    fn list(v: &Json) -> &[Json] {
        match v {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String, String, f64)> = list(field(&doc, "end_to_end"))
            .iter()
            .map(|m| {
                (
                    field(m, "name").as_str().expect("name").to_string(),
                    field(m, "unit").as_str().expect("unit").to_string(),
                    field(m, "better").as_str().expect("better").to_string(),
                    field(m, "bound").as_num().expect("bound"),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(e2e, want);
        let layer: Vec<(String, String, String)> = list(field(&doc, "per_layer"))
            .iter()
            .map(|m| {
                (
                    field(m, "name").as_str().expect("name").to_string(),
                    field(m, "unit").as_str().expect("unit").to_string(),
                    field(m, "better").as_str().expect("better").to_string(),
                )
            })
            .collect();
        let want: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layer, want);
        let workloads: Vec<&str> = list(field(&doc, "workloads"))
            .iter()
            .map(|w| field(w, "name").as_str().expect("name"))
            .collect();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }
}
