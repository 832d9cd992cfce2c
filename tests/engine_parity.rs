//! Refactor guard: the engine-driven [`LayerPruner`] must reproduce the
//! pre-refactor episode loop bit-identically.
//!
//! The fixture below was recorded by running the original (pre
//! `EpisodeEngine`) `LayerPruner::prune` implementation on a fixed-seed
//! synthetic setup and dumping every output as raw `f32` bits. All
//! arithmetic in the workspace is deterministic (own RNG, deterministic
//! thread pool), so any divergence — an extra RNG draw, a reordered
//! float accumulation, a changed convergence test — fails this test.

use headstart::core::{ConvergenceReason, HeadStartConfig, LayerPruner};
use headstart::data::{Dataset, DatasetSpec};
use headstart::nn::models;
use headstart::tensor::Rng;

/// Expected keep set of conv ordinal 0 (16 maps at width 0.25).
const KEEP: [usize; 8] = [0, 2, 5, 6, 7, 9, 12, 13];

/// `R(Aᴵ)` per episode, as `f32::to_bits`.
const REWARD_BITS: [u32; 12] = [
    1020849600, 1053858568, 1053858568, 1053858568, 1060205080, 1060205080, 1060205080, 1060205080,
    1055989012, 1060205080, 1060205080, 1060205080,
];

/// Final keep probabilities, as `f32::to_bits`. Re-recorded once, when
/// GEMMs below the small-problem size (the policy's first conv) moved from
/// a separate unfused loop onto the blocked FMA kernel; that moved these
/// bits by at most 25 ulp and nothing else in this fixture.
const PROB_BITS: [u32; 16] = [
    1065349459, 1017027626, 1065317476, 1002536244, 1042626238, 1065299997, 1064129518, 1065341396,
    1015733871, 1064782390, 1048370483, 1015234119, 1064955032, 1065268621, 997462653, 1009121434,
];

/// Inception eval accuracy, as `f32::to_bits`.
const ACC_BITS: u32 = 1052770304;

#[test]
fn engine_reproduces_pre_refactor_layer_decision_bit_exactly() {
    let ds = Dataset::generate(
        &DatasetSpec::cifar_like()
            .classes(3)
            .train_per_class(6)
            .test_per_class(3)
            .image_size(8),
    )
    .unwrap();
    let mut rng = Rng::seed_from(17);
    let mut net = models::vgg11(3, 3, 8, 0.25, &mut rng).unwrap();
    let cfg = HeadStartConfig::new(2.0).max_episodes(12).eval_images(8);
    let d = LayerPruner::new(cfg)
        .prune(&mut net, 0, &ds, &mut rng)
        .unwrap();

    assert_eq!(d.keep, KEEP);
    assert_eq!(d.trace.episodes, 12);
    // max_episodes(12) clamps min_episodes to 12, so the pre-refactor
    // loop ran out its budget rather than converging.
    assert_eq!(d.trace.convergence, ConvergenceReason::EpisodeBudget);
    let reward_bits: Vec<u32> = d.trace.reward_history.iter().map(|r| r.to_bits()).collect();
    assert_eq!(reward_bits, REWARD_BITS, "reward trace diverged");
    let prob_bits: Vec<u32> = d.probs.iter().map(|p| p.to_bits()).collect();
    assert_eq!(prob_bits, PROB_BITS, "converged probabilities diverged");
    assert_eq!(
        d.inception_eval_accuracy.to_bits(),
        ACC_BITS,
        "inception eval accuracy diverged"
    );
}
