//! Batch-size invariance of inference: every image's logits in a
//! batch-64 eval forward pass must equal, bit for bit, its logits from a
//! batch-1 pass, for dense and compacted vgg11.
//!
//! This holds by construction: every GEMM, however small, runs the same
//! blocked kernel, whose per-element arithmetic does not depend on how
//! many other rows or columns share the call, and the batched conv
//! lowering gives each sample its own columns. So no tolerance is used.

use headstart::nn::compact::compact;
use headstart::nn::surgery::conv_sites;
use headstart::nn::{models, Network};
use headstart::tensor::{Rng, Shape, Tensor};

const BATCH: usize = 64;
const CHANNELS: usize = 3;
const SIZE: usize = 16;

fn assert_batch_invariant(name: &str, net: &mut Network, rng: &mut Rng) {
    let x = Tensor::randn(Shape::d4(BATCH, CHANNELS, SIZE, SIZE), rng);
    let whole = net.forward(&x, false).expect("batch forward");
    let classes = whole.shape().dim(1);
    let image = CHANNELS * SIZE * SIZE;
    for (i, batch_row) in whole.data().chunks(classes).enumerate() {
        let one = Tensor::from_vec(
            Shape::d4(1, CHANNELS, SIZE, SIZE),
            x.data()[i * image..(i + 1) * image].to_vec(),
        )
        .unwrap();
        let single = net.forward(&one, false).expect("batch-1 forward");
        for (c, (&b, &s)) in batch_row.iter().zip(single.data()).enumerate() {
            assert_eq!(
                b.to_bits(),
                s.to_bits(),
                "{name}: image {i} class {c}: batch-{BATCH} {b} vs batch-1 {s}"
            );
        }
    }
}

#[test]
fn dense_vgg11_logits_do_not_depend_on_batch_size() {
    let mut rng = Rng::seed_from(61);
    let mut net = models::vgg11(CHANNELS, 10, SIZE, 0.25, &mut rng).unwrap();
    assert_batch_invariant("dense", &mut net, &mut rng);
}

#[test]
fn compacted_vgg11_logits_do_not_depend_on_batch_size() {
    let mut rng = Rng::seed_from(62);
    let mut masked = models::vgg11(CHANNELS, 10, SIZE, 0.25, &mut rng).unwrap();
    // Keep every other filter at each conv site, as an sp = 2 prune would.
    for site in conv_sites(&masked) {
        let c = masked.conv(site.conv).unwrap().out_channels();
        let mask = (0..c).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        masked.set_channel_mask(site.mask_node, Some(mask));
    }
    let mut compacted = compact(&masked, CHANNELS, SIZE).unwrap().net;
    assert_batch_invariant("compacted", &mut compacted, &mut rng);
}
