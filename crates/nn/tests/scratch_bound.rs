//! Verifies that batch-fused convolution lowering keeps scratch memory
//! bounded by the chunk cap, not by the batch: a batch-256 conv
//! forward+backward over every quarter-width VGG-11 conv shape must keep
//! `hs_tensor_scratch_highwater_bytes` under a bound derived from
//! [`Conv2d::LOWERED_CHUNK_ELEMS`].
//!
//! This file holds a single test on purpose: the gauge is a process-global
//! high-water mark, so a sibling test in the same binary would raise it.

use hs_nn::layer::Conv2d;
use hs_telemetry::metrics;
use hs_tensor::{Rng, Shape, Tensor};

#[test]
fn batch_256_conv_scratch_stays_within_the_chunk_cap() {
    const BATCH: usize = 256;
    let cap_bytes = Conv2d::LOWERED_CHUNK_ELEMS * std::mem::size_of::<f32>();
    // At most two chunk buffers are out at once (the lowered columns and
    // the [N, bs·oh·ow] output or gradient), each at most one cap. The
    // GEMMs beneath them pack a B panel no larger than one of those
    // buffers plus edge padding (two caps after power-of-two rounding) and
    // an A block of at most MC×KC = ¼ cap per running task (at most 18
    // tasks at these shapes). Twelve caps covers all of it; lowering the
    // whole batch at once would need 32 caps of columns for the first
    // layer alone.
    let bound = 12 * cap_bytes;
    // (in, out, extent) of quarter-width VGG-11's convs on 16 px inputs.
    let shapes = [
        (3, 16, 16),
        (16, 32, 8),
        (32, 64, 4),
        (64, 64, 4),
        (64, 128, 2),
        (128, 128, 2),
        (128, 128, 1),
        (128, 128, 1),
    ];
    let mut rng = Rng::seed_from(256);
    for (c, n, hw) in shapes {
        let mut conv = Conv2d::new(c, n, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(BATCH, c, hw, hw), &mut rng);
        let y = conv.forward(&x, true).unwrap();
        conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let high = metrics::gauge("hs_tensor_scratch_highwater_bytes").get() as usize;
        assert!(
            high <= bound,
            "{c}->{n} conv at {hw}px, batch {BATCH}: scratch high-water {high} B exceeds \
             {bound} B (12 × the {cap_bytes} B chunk cap)"
        );
    }
}
