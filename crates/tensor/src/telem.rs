//! Cached handles to this crate's telemetry metrics.
//!
//! Kernel call sites record through these accessors so the registry's
//! name-lookup lock is taken once per metric per process, leaving one
//! relaxed atomic op on the hot path. Metric names follow the workspace
//! convention `hs_<crate>_<what>[_total|_bytes|_secs]`.

use std::sync::OnceLock;

use hs_telemetry::metrics::{self, Counter, Gauge, Histogram, TIME_BUCKETS_SECS};

macro_rules! cached_counter {
    ($fn_name:ident, $metric:literal) => {
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
            HANDLE.get_or_init(|| metrics::counter($metric))
        }
    };
}

cached_counter!(gemm_calls, "hs_tensor_gemm_calls_total");
cached_counter!(gemm_flops, "hs_tensor_gemm_flops_total");
cached_counter!(gemm_small_flops, "hs_tensor_gemm_small_flops_total");
// Convolution never writes a lowered matrix: these two count patch
// operands packed by `gemm_patches` (plus reference `im2col_into` calls)
// and the bytes gathered into GEMM panels.
cached_counter!(im2col_calls, "hs_tensor_im2col_calls_total");
cached_counter!(im2col_bytes, "hs_tensor_im2col_bytes_total");
cached_counter!(col2im_calls, "hs_tensor_col2im_calls_total");
cached_counter!(pool_batches, "hs_tensor_pool_batches_total");
cached_counter!(pool_tasks, "hs_tensor_pool_tasks_total");

/// Wall-clock seconds of GEMM calls at or above the small-problem
/// threshold. Smaller calls run the same blocked kernel untimed: two
/// `Instant` reads would be measurable against a few thousand
/// multiply-accumulates. Their FLOPs are counted apart in
/// `hs_tensor_gemm_small_flops_total`, so the timed rate is
/// `(gemm_flops - gemm_small_flops) / gemm_secs`.
pub(crate) fn gemm_secs() -> &'static Histogram {
    static HANDLE: OnceLock<&'static Histogram> = OnceLock::new();
    HANDLE.get_or_init(|| metrics::histogram("hs_tensor_gemm_secs", &TIME_BUCKETS_SECS))
}

/// High-water mark of scratch-arena bytes checked out across all threads.
pub(crate) fn scratch_highwater_bytes() -> &'static Gauge {
    static HANDLE: OnceLock<&'static Gauge> = OnceLock::new();
    HANDLE.get_or_init(|| metrics::gauge("hs_tensor_scratch_highwater_bytes"))
}
