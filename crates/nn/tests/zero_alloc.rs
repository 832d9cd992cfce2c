//! Verifies the scratch-arena acceptance criterion: after one warm-up
//! iteration, a conv forward+backward pass performs **zero** heap
//! allocations for im2col / col2im / GEMM packing buffers — every
//! `with_scratch` checkout is served from the thread-local arena.
//!
//! This file holds a single test on purpose: the arena counters are
//! process-global, so a sibling test running concurrently in the same
//! binary would perturb them.

use hs_nn::layer::Conv2d;
use hs_tensor::{workspace, Rng, Shape, Tensor};

#[test]
fn conv_forward_backward_is_zero_alloc_after_warmup() {
    let mut rng = Rng::seed_from(42);
    // Small enough to stay on the calling thread (below the parallel
    // thresholds), large enough to exercise im2col + both GEMMs, and a
    // batch spanning three lowered chunks (16 + 16 + 8 samples), so the
    // scatter/gather buffers of full and partial chunks are covered.
    const BATCH: usize = 40;
    let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
    let x = Tensor::randn(Shape::d4(BATCH, 3, 12, 12), &mut rng);
    let per_sample = 3 * 3 * 3 * 12 * 12;
    assert!(BATCH * per_sample > 2 * Conv2d::LOWERED_CHUNK_ELEMS);

    // Warm-up: populates this thread's arena with every buffer size the
    // fwd+bwd path checks out.
    let y = conv.forward(&x, true).unwrap();
    let dy = Tensor::ones(y.shape().clone());
    conv.backward(&dy).unwrap();

    workspace::reset_stats();
    for _ in 0..5 {
        let y = conv.forward(&x, true).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        conv.backward(&dy).unwrap();
    }
    assert_eq!(
        workspace::alloc_count(),
        0,
        "warm conv fwd+bwd allocated scratch buffers instead of reusing the arena"
    );
    assert!(
        workspace::reuse_count() > 0,
        "conv fwd+bwd never touched the arena; the zero-alloc check is vacuous"
    );
}
