//! 2-D convolution, the layer HeadStart prunes.

use hs_tensor::workspace::with_scratch;
use hs_tensor::{
    col2im_into, gemm_ex, gemm_patches, Conv2dGeometry, Init, Patches, Rng, Shape, Tensor,
    PANEL_COLS,
};

use crate::error::NnError;
use crate::param::Param;

/// 2-D convolution with square kernels, implemented as implicit GEMM.
///
/// A batch runs a chunk of samples at a time. Forward is one patch GEMM
/// per chunk ([`gemm_patches`]): the `[C·k·k, oh·ow·bs]` patch matrix is
/// never stored, its GEMM panels are gathered straight from the input,
/// and taps that are padding for a whole panel are skipped. Its columns
/// are position-major (column `q·bs + s` is sample `s` at position `q`),
/// and the forward chunk is a multiple of [`PANEL_COLS`] samples when it
/// holds that many, so each panel is one output position of consecutive
/// samples. Backward runs the weight gradient as a patch GEMM over the
/// cached input (sample-major depth) and the input gradient as a dense
/// GEMM plus `col2im`. Chunks hold as many samples as keep every chunk
/// buffer within [`Conv2d::LOWERED_CHUNK_ELEMS`] floats (at least one
/// sample). Outputs equal those of `im2col` + GEMM bit for bit whenever
/// the weights are finite.
///
/// The weight layout is `[out_channels, in_channels, k, k]` — axis 0 is the
/// *filter* axis (pruned when this layer's own feature maps are dropped)
/// and axis 1 is the *channel* axis (pruned when the previous layer's
/// feature maps are dropped). This is exactly the `ΔN×C×k×k` /
/// `M×ΔN×k×k` bookkeeping of the paper's Figure 2.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Filter bank, `[N, C, k, k]`.
    pub weight: Param,
    /// Per-filter bias, `[N]`.
    pub bias: Param,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Cap, in `f32` elements, on each scratch buffer of one batch chunk:
    /// the `[C·k·k, bs·oh·ow]` extent of its patch matrix (the input
    /// gradient's columns, and a bound on the GEMM's packed panels) and the
    /// `[N, bs·oh·ow]` GEMM output or gradient. Batches run in chunks of as
    /// many samples as fit (at least one), so scratch memory stays bounded
    /// for any batch.
    pub const LOWERED_CHUNK_ELEMS: usize = 1 << 16;

    /// Creates a convolution with Kaiming-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        let weight =
            Init::KaimingNormal.sample(Shape::d4(out_channels, in_channels, kernel, kernel), rng);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new_no_decay(Tensor::zeros(Shape::d1(out_channels))),
            kernel,
            stride,
            padding,
            cached_input: None,
        }
    }

    /// Builds a convolution from explicit weight/bias tensors (used by
    /// surgery when shrinking a trained layer).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if `weight` is not rank 4 or `bias`
    /// does not match the filter count.
    pub fn from_parts(
        weight: Tensor,
        bias: Tensor,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        if weight.shape().rank() != 4 || weight.shape().dim(2) != weight.shape().dim(3) {
            return Err(NnError::BadInput {
                what: "Conv2d::from_parts",
                detail: format!("weight must be [N, C, k, k], got {}", weight.shape()),
            });
        }
        if bias.shape() != &Shape::d1(weight.shape().dim(0)) {
            return Err(NnError::BadInput {
                what: "Conv2d::from_parts",
                detail: format!(
                    "bias {} does not match {} filters",
                    bias.shape(),
                    weight.shape().dim(0)
                ),
            });
        }
        let kernel = weight.shape().dim(2);
        Ok(Conv2d {
            weight: Param::new(weight),
            bias: Param::new_no_decay(bias),
            kernel,
            stride,
            padding,
            cached_input: None,
        })
    }

    /// Number of filters (output channels / feature maps).
    pub fn out_channels(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(
            self.in_channels(),
            in_h,
            in_w,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Samples run together: as many as keep the largest buffer of one
    /// chunk within [`Self::LOWERED_CHUNK_ELEMS`], at least one.
    fn chunk_len(&self, geom: &Conv2dGeometry, batch: usize) -> usize {
        let per_sample = geom.col_rows().max(self.out_channels()) * geom.col_cols();
        (Self::LOWERED_CHUNK_ELEMS / per_sample).clamp(1, batch.max(1))
    }

    /// Forward pass over a `[B, C, H, W]` batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the input is not rank 4 or its
    /// channel count differs from the filters'.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.rank() != 4 || shape.dim(1) != self.in_channels() {
            return Err(NnError::BadInput {
                what: "Conv2d",
                detail: format!("expected [B, {}, H, W], got {}", self.in_channels(), shape),
            });
        }
        let (batch, _, in_h, in_w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let geom = self.geometry(in_h, in_w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n = self.out_channels();
        let positions = oh * ow;
        // The [N, C, k, k] filter bank is already the [N, C·k·k] GEMM
        // operand row-major — use it in place, no clone/reshape.
        let w2d = self.weight.value.data();
        let bias = self.bias.value.data();
        let sample_len = geom.input_len();
        // A chunk of a multiple of PANEL_COLS samples makes every patch
        // panel one output position of consecutive samples.
        let chunk = match self.chunk_len(&geom, batch) {
            c if c >= PANEL_COLS => c / PANEL_COLS * PANEL_COLS,
            c => c,
        };
        let mut out = vec![0.0f32; batch * n * positions];
        for b0 in (0..batch).step_by(chunk) {
            let bs = chunk.min(batch - b0);
            let cols = bs * positions;
            let x = &input.data()[b0 * sample_len..][..bs * sample_len];
            let y = &mut out[b0 * n * positions..][..bs * n * positions];
            let patches = Patches::new(x, &geom, bs);
            if bs == 1 {
                // One sample's [N, oh·ow] product is already its output.
                gemm_patches(y, w2d, &patches, n, false);
                for (yf, &b) in y.chunks_mut(positions).zip(bias) {
                    yf.iter_mut().for_each(|v| *v += b);
                }
                continue;
            }
            // Workspace scratch: after warm-up this loop performs zero heap
            // allocations.
            with_scratch(n * cols, |y2| {
                gemm_patches(y2, w2d, &patches, n, false);
                // [N, oh·ow·bs] position-major → [bs, N, oh, ow], adding the
                // bias.
                for (f, (row, &b)) in y2.chunks(cols).zip(bias).enumerate() {
                    for (q, samples) in row.chunks(bs).enumerate() {
                        for (s, &v) in samples.iter().enumerate() {
                            y[(s * n + f) * positions + q] = v + b;
                        }
                    }
                }
            });
        }
        if train {
            self.cached_input = Some(input.clone());
        } else {
            self.cached_input = None;
        }
        Ok(Tensor::from_vec(Shape::d4(batch, n, oh, ow), out)?)
    }

    /// Backward pass: accumulates `weight.grad` / `bias.grad` and returns
    /// the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if called before a training
    /// forward pass, or a shape error if `grad_out` is inconsistent.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .take()
            .ok_or(NnError::NoForwardCache { layer: "Conv2d" })?;
        let in_shape = input.shape().clone();
        let (batch, in_h, in_w) = (in_shape.dim(0), in_shape.dim(2), in_shape.dim(3));
        let geom = self.geometry(in_h, in_w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n = self.out_channels();
        let want = Shape::d4(batch, n, oh, ow);
        if grad_out.shape() != &want {
            return Err(NnError::BadInput {
                what: "Conv2d::backward",
                detail: format!("grad shape {} != {want}", grad_out.shape()),
            });
        }
        let positions = oh * ow;
        let col_rows = geom.col_rows();
        let sample_len = geom.input_len();
        let chunk = self.chunk_len(&geom, batch);
        // Split-borrow the parameters so the weight value (GEMM operand)
        // and the weight gradient (GEMM accumulator) can be used together.
        let Conv2d { weight, bias, .. } = self;
        let w2d = weight.value.data();
        // [N, C, k, k] gradient flat == [N, C·k·k]: accumulate GEMM output
        // directly into the gradient buffer, no temporary + axpy.
        let wgrad = weight.grad.data_mut();
        let bgrad = bias.grad.data_mut();
        let mut dx = vec![0.0f32; input.len()];
        for b0 in (0..batch).step_by(chunk) {
            let bs = chunk.min(batch - b0);
            let cols = bs * positions;
            let x = &input.data()[b0 * sample_len..][..bs * sample_len];
            let dxc = &mut dx[b0 * sample_len..][..bs * sample_len];
            let dy = &grad_out.data()[b0 * n * positions..][..bs * n * positions];
            // db += Σ_samples Σ_positions dY
            for (f, g) in bgrad.iter_mut().enumerate() {
                *g += (0..bs)
                    .flat_map(|s| &dy[(s * n + f) * positions..][..positions])
                    .map(|&v| v as f64)
                    .sum::<f64>() as f32;
            }
            let mut lowered = |dy2: &[f32]| {
                // dW += dY₂ · colᵀ, the patch columns gathered from the
                // cached input as the GEMM packs them.
                gemm_patches(wgrad, dy2, &Patches::transposed(x, &geom, bs), n, true);
                with_scratch(col_rows * cols, |dcol| {
                    // dX = col2im(Wᵀ · dY₂)
                    gemm_ex(dcol, w2d, dy2, col_rows, n, cols, true, false, false);
                    col2im_into(dcol, dxc, &geom, bs, false);
                });
            };
            if bs == 1 {
                lowered(dy);
                continue;
            }
            // [bs, N, oh, ow] → [N, bs·oh·ow], the GEMMs' operand layout.
            with_scratch(n * cols, |dy2| {
                for (f, row) in dy2.chunks_mut(cols).enumerate() {
                    for (s, dst) in row.chunks_mut(positions).enumerate() {
                        dst.copy_from_slice(&dy[(s * n + f) * positions..][..positions]);
                    }
                }
                lowered(dy2);
            });
        }
        Ok(Tensor::from_vec(in_shape, dx)?)
    }

    /// Passes the layer's parameters to `f` (weight first, then bias).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::im2col_into;

    fn finite_diff_check(conv: &mut Conv2d, x: &Tensor, eps: f32, tol: f32) {
        // Scalar objective: sum of outputs. Analytic gradients via
        // backward(ones) vs numeric central differences.
        let y = conv.forward(x, true).unwrap();
        let ones = Tensor::ones(y.shape().clone());
        let dx = conv.backward(&ones).unwrap();

        // Check input gradient at a few positions.
        for probe in [0usize, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let fp = conv.forward(&xp, false).unwrap().sum();
            let fm = conv.forward(&xm, false).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.data()[probe];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "input grad at {probe}: numeric {numeric} analytic {analytic}"
            );
        }

        // Check weight gradient at a few positions.
        let wlen = conv.weight.value.len();
        for probe in [0usize, wlen / 2, wlen - 1] {
            let orig = conv.weight.value.data()[probe];
            conv.weight.value.data_mut()[probe] = orig + eps;
            let fp = conv.forward(x, false).unwrap().sum();
            conv.weight.value.data_mut()[probe] = orig - eps;
            let fm = conv.forward(x, false).unwrap().sum();
            conv.weight.value.data_mut()[probe] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = conv.weight.grad.data()[probe];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "weight grad at {probe}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn forward_shape_same_padding() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(2, 3, 6, 6), &mut rng);
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d4(2, 8, 6, 6));
    }

    #[test]
    fn forward_rejects_channel_mismatch() {
        let mut rng = Rng::seed_from(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 4, 6, 6), &mut rng);
        assert!(conv.forward(&x, false).is_err());
    }

    #[test]
    fn kernel1_conv_is_channel_mix() {
        // A 1x1 convolution is a per-pixel linear map across channels.
        let mut rng = Rng::seed_from(2);
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(Shape::d4(1, 2, 1, 1), vec![2.0, -1.0]).unwrap();
        conv.bias.value = Tensor::from_vec(Shape::d1(1), vec![0.5]).unwrap();
        let x = Tensor::from_fn(Shape::d4(1, 2, 2, 2), |i| {
            (i[1] * 10 + i[2] * 2 + i[3]) as f32
        });
        let y = conv.forward(&x, false).unwrap();
        for h in 0..2 {
            for w in 0..2 {
                let expect = 2.0 * x.at(&[0, 0, h, w]) - x.at(&[0, 1, h, w]) + 0.5;
                assert!((y.at(&[0, 0, h, w]) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(2, 2, 5, 5), &mut rng);
        finite_diff_check(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn gradients_match_finite_differences_strided() {
        let mut rng = Rng::seed_from(4);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 2, 7, 7), &mut rng);
        finite_diff_check(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng::seed_from(5);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let g = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        assert!(matches!(
            conv.backward(&g),
            Err(NnError::NoForwardCache { layer: "Conv2d" })
        ));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut rng = Rng::seed_from(6);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 1, 4, 4), &mut rng);
        conv.forward(&x, false).unwrap();
        assert!(conv
            .backward(&Tensor::zeros(Shape::d4(1, 1, 4, 4)))
            .is_err());
    }

    #[test]
    fn from_parts_validates() {
        let w = Tensor::zeros(Shape::d4(2, 3, 3, 3));
        let b = Tensor::zeros(Shape::d1(2));
        assert!(Conv2d::from_parts(w.clone(), b, 1, 1).is_ok());
        let bad_bias = Tensor::zeros(Shape::d1(3));
        assert!(Conv2d::from_parts(w, bad_bias, 1, 1).is_err());
        let bad_w = Tensor::zeros(Shape::d3(2, 3, 3));
        assert!(Conv2d::from_parts(bad_w, Tensor::zeros(Shape::d1(2)), 1, 1).is_err());
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let mut rng = Rng::seed_from(7);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 1, 4, 4), &mut rng);
        let ones = Tensor::ones(Shape::d4(1, 1, 4, 4));
        conv.forward(&x, true).unwrap();
        conv.backward(&ones).unwrap();
        let g1 = conv.weight.grad.clone();
        conv.forward(&x, true).unwrap();
        conv.backward(&ones).unwrap();
        let g2 = conv.weight.grad.clone();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((2.0 * a - b).abs() < 1e-4, "{a} {b}");
        }
    }

    /// `|got - want| <= 1e-5 · max(1, max|want|)` elementwise.
    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-5 * scale,
                "{what}[{i}]: {g} vs {w} (scale {scale})"
            );
        }
    }

    /// Output, dW, db and dX of a fwd+bwd over the whole batch.
    fn batched(conv: &mut Conv2d, x: &Tensor, dy: &Tensor) -> [Vec<f32>; 4] {
        conv.weight.zero_grad();
        conv.bias.zero_grad();
        let y = conv.forward(x, true).unwrap();
        let dx = conv.backward(dy).unwrap();
        [
            y.data().to_vec(),
            conv.weight.grad.data().to_vec(),
            conv.bias.grad.data().to_vec(),
            dx.data().to_vec(),
        ]
    }

    /// The same four results, one sample per forward/backward call.
    fn per_sample(conv: &mut Conv2d, x: &Tensor, dy: &Tensor) -> [Vec<f32>; 4] {
        conv.weight.zero_grad();
        conv.bias.zero_grad();
        let (mut y, mut dx) = (Vec::new(), Vec::new());
        for b in 0..x.shape().dim(0) {
            let xb = x.index_select(0, &[b]).unwrap();
            y.extend_from_slice(conv.forward(&xb, true).unwrap().data());
            let dyb = dy.index_select(0, &[b]).unwrap();
            dx.extend_from_slice(conv.backward(&dyb).unwrap().data());
        }
        [
            y,
            conv.weight.grad.data().to_vec(),
            conv.bias.grad.data().to_vec(),
            dx,
        ]
    }

    #[test]
    fn batched_lowering_matches_per_sample_reference() {
        // (in, out, kernel, stride, padding, input extent): "same" 3×3,
        // strided, unpadded 5×5, and a 1×1 whose filter count exceeds its
        // lowered rows (so the output buffer sets the chunk).
        for &(c, n, k, s, p, hw) in &[
            (4, 8, 3, 1, 1, 16),
            (4, 6, 3, 2, 1, 31),
            (3, 5, 5, 1, 0, 20),
            (6, 16, 1, 1, 0, 16),
        ] {
            let mut rng = Rng::seed_from(c as u64 * 100 + k as u64);
            let mut conv = Conv2d::new(c, n, k, s, p, &mut rng);
            conv.bias.value = Tensor::randn(Shape::d1(n), &mut rng);
            let chunk = conv.chunk_len(&conv.geometry(hw, hw), usize::MAX);
            assert!(chunk >= 2, "chunk {chunk} too small to cover cap - 1");
            for batch in [1, chunk - 1, chunk, chunk + 1, 2 * chunk + chunk / 2 + 1] {
                let x = Tensor::randn(Shape::d4(batch, c, hw, hw), &mut rng);
                let oh = (hw + 2 * p - k) / s + 1;
                let dy = Tensor::randn(Shape::d4(batch, n, oh, oh), &mut rng);
                let got = batched(&mut conv, &x, &dy);
                let want = per_sample(&mut conv, &x, &dy);
                for (what, (g, w)) in ["y", "dW", "db", "dX"].iter().zip(got.iter().zip(&want)) {
                    assert_close(g, w, &format!("k={k} s={s} batch={batch} {what}"));
                }
            }
        }
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_one_lowered_gemm() {
        let mut rng = Rng::seed_from(8);
        let mut conv = Conv2d::new(5, 7, 3, 1, 1, &mut rng);
        conv.bias.value = Tensor::randn(Shape::d1(7), &mut rng);
        let x = Tensor::randn(Shape::d4(1, 5, 9, 9), &mut rng);
        let geom = conv.geometry(9, 9);
        let mut col = vec![0.0f32; geom.col_len()];
        im2col_into(x.data(), &mut col, &geom, 1);
        let mut want = vec![0.0f32; 7 * geom.col_cols()];
        let w = conv.weight.value.data();
        gemm_ex(
            &mut want,
            w,
            &col,
            7,
            geom.col_rows(),
            geom.col_cols(),
            false,
            false,
            false,
        );
        for (yf, &b) in want.chunks_mut(geom.col_cols()).zip(conv.bias.value.data()) {
            yf.iter_mut().for_each(|v| *v += b);
        }
        let got = conv.forward(&x, false).unwrap();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.data()), bits(&want));
    }
}
