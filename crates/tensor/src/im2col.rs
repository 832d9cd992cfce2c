//! `im2col`/`col2im` lowering: convolution as matrix multiplication.
//!
//! This is the same strategy cuDNN-era GPU frameworks used and the reason
//! structured (channel/filter) pruning maps directly to smaller GEMMs on
//! GPGPUs — the premise of the HeadStart paper. A batch of `B` `[C, H, W]`
//! inputs becomes one `[C·kh·kw, B·oh·ow]` matrix whose columns are grouped
//! by sample; convolving with filters `[N, C·kh·kw]` is then a single
//! matmul for the whole batch, wide enough to keep the GEMM's register
//! tiles full even when each sample has only a few output positions.
//!
//! The `_into` variants ([`im2col_into`], [`col2im_into`]) lower into a
//! caller-owned slice — typically scratch from [`crate::workspace`] — so
//! hot loops perform no heap allocation, and they parallelize on the
//! persistent [`crate::pool`] for large matrices. Each task owns a disjoint
//! slice of the output, so results are bit-identical for every thread
//! count.

use crate::error::TensorError;
use crate::pool;
use crate::shape::Shape;
use crate::telem;
use crate::tensor::Tensor;

/// Lowered matrices smaller than this many elements are not worth pool
/// dispatch; they run on the calling thread.
const PARALLEL_ELEMS: usize = 1 << 16;

/// Static geometry of a 2-D convolution: input extents, kernel size,
/// stride and zero padding.
///
/// # Example
///
/// ```
/// use hs_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 32, 32, 3, 1, 1);
/// assert_eq!((g.out_h(), g.out_w()), (32, 32)); // "same" convolution
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero, or if the padded input is
    /// smaller than the kernel.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * padding >= kernel && in_w + 2 * padding >= kernel,
            "padded input {}x{} smaller than kernel {}",
            in_h + 2 * padding,
            in_w + 2 * padding,
            kernel
        );
        Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride,
            padding,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Rows of the lowered matrix: `C·kh·kw`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the lowered matrix: `oh·ow`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Elements of one `[C, H, W]` input sample.
    pub fn input_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Elements of the lowered `[C·k·k, oh·ow]` matrix.
    pub fn col_len(&self) -> usize {
        self.col_rows() * self.col_cols()
    }

    /// Geometry for the same layer after keeping only `channels` input
    /// channels (the pruning transformation).
    pub fn with_in_channels(&self, channels: usize) -> Self {
        Conv2dGeometry {
            in_channels: channels,
            ..*self
        }
    }
}

/// Gathers one input channel's patches into its `k·k` rows of the lowered
/// matrix. Each row is `row_stride` columns long and this plane's
/// `oh·ow` columns start at `col0`. `out_rows` must be pre-zeroed (padding
/// cells stay zero).
fn im2col_channel(
    plane: &[f32],
    out_rows: &mut [f32],
    row_stride: usize,
    col0: usize,
    geom: &Conv2dGeometry,
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let (h, w) = (geom.in_h as isize, geom.in_w as isize);
    for ky in 0..k {
        for kx in 0..k {
            let start = (ky * k + kx) * row_stride + col0;
            let dst = &mut out_rows[start..start + oh * ow];
            for oy in 0..oh {
                let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                if iy < 0 || iy >= h {
                    continue; // zero padding: leave zeros
                }
                let src_row = &plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
                let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
                for (ox, d) in dst_row.iter_mut().enumerate() {
                    let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                    if ix >= 0 && ix < w {
                        *d = src_row[ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatters one channel's `k·k` lowered rows (layout as in
/// [`im2col_channel`]) back onto its input plane.
fn col2im_channel(
    col_rows: &[f32],
    row_stride: usize,
    col0: usize,
    plane: &mut [f32],
    geom: &Conv2dGeometry,
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let (h, w) = (geom.in_h as isize, geom.in_w as isize);
    for ky in 0..k {
        for kx in 0..k {
            let start = (ky * k + kx) * row_stride + col0;
            let col_row = &col_rows[start..start + oh * ow];
            for oy in 0..oh {
                let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                if iy < 0 || iy >= h {
                    continue;
                }
                let dst_row = &mut plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
                let src_row = &col_row[oy * ow..(oy + 1) * ow];
                for (ox, &s) in src_row.iter().enumerate() {
                    let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                    if ix >= 0 && ix < w {
                        dst_row[ix as usize] += s;
                    }
                }
            }
        }
    }
}

/// Lowers `batch` consecutive `[C, H, W]` samples (a flat `[B, C, H, W]`
/// slice) into a caller-owned `[C·k·k, B·oh·ow]` buffer without
/// allocating. Sample `b` owns columns `b·oh·ow..(b+1)·oh·ow` of every row,
/// so `batch = 1` is the single-sample `[C·k·k, oh·ow]` layout. Large
/// matrices parallelize over channels on the persistent pool.
///
/// # Panics
///
/// Panics if `input` or `out` lengths disagree with `geom` and `batch`.
pub fn im2col_into(input: &[f32], out: &mut [f32], geom: &Conv2dGeometry, batch: usize) {
    assert_eq!(
        input.len(),
        batch * geom.input_len(),
        "im2col_into: input length mismatch"
    );
    assert_eq!(
        out.len(),
        batch * geom.col_len(),
        "im2col_into: output length mismatch"
    );
    telem::im2col_calls().inc();
    telem::im2col_bytes().add(std::mem::size_of_val(out) as u64);
    out.fill(0.0);
    if batch == 0 {
        return;
    }
    let plane = geom.in_h * geom.in_w;
    let positions = geom.col_cols();
    let row_stride = batch * positions;
    let rows_per_c = geom.kernel * geom.kernel * row_stride;
    let run = |c: usize, rows: &mut [f32]| {
        for b in 0..batch {
            let src = (b * geom.in_channels + c) * plane;
            im2col_channel(
                &input[src..src + plane],
                rows,
                row_stride,
                b * positions,
                geom,
            );
        }
    };
    if out.len() < PARALLEL_ELEMS || geom.in_channels < 2 {
        for (c, rows) in out.chunks_mut(rows_per_c).enumerate() {
            run(c, rows);
        }
        return;
    }
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(rows_per_c)
        .enumerate()
        .map(|(c, rows)| {
            let run = &run;
            Box::new(move || run(c, rows)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Adjoint of [`im2col_into`]: scatters a `[C·k·k, B·oh·ow]` patch-matrix
/// gradient (flat slice) onto a caller-owned `[B, C, H, W]` buffer.
/// Overlapping windows accumulate; with `accumulate = false` the output is
/// zeroed first, otherwise the scatter adds to its existing contents.
///
/// # Panics
///
/// Panics if `col` or `out` lengths disagree with `geom` and `batch`.
pub fn col2im_into(
    col: &[f32],
    out: &mut [f32],
    geom: &Conv2dGeometry,
    batch: usize,
    accumulate: bool,
) {
    assert_eq!(
        col.len(),
        batch * geom.col_len(),
        "col2im_into: column length mismatch"
    );
    assert_eq!(
        out.len(),
        batch * geom.input_len(),
        "col2im_into: output length mismatch"
    );
    telem::col2im_calls().inc();
    if !accumulate {
        out.fill(0.0);
    }
    let plane = geom.in_h * geom.in_w;
    let positions = geom.col_cols();
    let row_stride = batch * positions;
    let rows_per_c = geom.kernel * geom.kernel * row_stride;
    // Plane `i` of the output is sample `i / C`, channel `i % C`.
    let run = |first: usize, planes: &mut [f32]| {
        for (i, dst) in planes.chunks_mut(plane).enumerate() {
            let (b, c) = (
                (first + i) / geom.in_channels,
                (first + i) % geom.in_channels,
            );
            col2im_channel(
                &col[c * rows_per_c..(c + 1) * rows_per_c],
                row_stride,
                b * positions,
                dst,
                geom,
            );
        }
    };
    let planes = batch * geom.in_channels;
    if col.len() < PARALLEL_ELEMS || planes < 2 {
        run(0, out);
        return;
    }
    // One task per channel plane for a single sample, one per sample
    // otherwise: the split depends on the shapes only, never on timing.
    let per_task = if batch == 1 { 1 } else { geom.in_channels };
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(per_task * plane)
        .enumerate()
        .map(|(t, chunk)| {
            let run = &run;
            Box::new(move || run(t * per_task, chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::run_tasks(tasks);
}

/// Lowers a `[B, C, H, W]` batch to the `[C·k·k, B·oh·ow]` patch matrix.
///
/// Allocates a fresh tensor; hot paths should prefer [`im2col_into`] with
/// workspace scratch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not rank 4 or its
/// `[C, H, W]` dimensions disagree with the geometry.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let batch = if input.shape().rank() == 4 {
        input.shape().dim(0)
    } else {
        0
    };
    let want = Shape::d4(batch.max(1), geom.in_channels, geom.in_h, geom.in_w);
    if input.shape() != &want {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: input.shape().clone(),
            rhs: want,
        });
    }
    let mut out = vec![0.0f32; batch * geom.col_len()];
    im2col_into(input.data(), &mut out, geom, batch);
    Tensor::from_vec(Shape::d2(geom.col_rows(), batch * geom.col_cols()), out)
}

/// Adjoint of [`im2col`]: scatters a `[C·k·k, B·oh·ow]` patch-matrix
/// gradient back onto a `[B, C, H, W]` input gradient (overlaps
/// accumulate). The batch `B` is the column count over `oh·ow`.
///
/// Allocates a fresh tensor; hot paths should prefer [`col2im_into`] with
/// workspace scratch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `col` is not a lowered matrix
/// of one or more samples of the geometry.
pub fn col2im(col: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let batch = if col.shape().rank() == 2 {
        col.shape().dim(1) / geom.col_cols()
    } else {
        0
    };
    let want = Shape::d2(geom.col_rows(), batch.max(1) * geom.col_cols());
    if col.shape() != &want {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: col.shape().clone(),
            rhs: want,
        });
    }
    let mut out = vec![0.0f32; batch * geom.input_len()];
    col2im_into(col.data(), &mut out, geom, batch, false);
    Tensor::from_vec(
        Shape::d4(batch, geom.in_channels, geom.in_h, geom.in_w),
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn geometry_same_conv() {
        let g = Conv2dGeometry::new(16, 32, 32, 3, 1, 1);
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        assert_eq!(g.col_rows(), 16 * 9);
        assert_eq!(g.col_cols(), 32 * 32);
    }

    #[test]
    fn geometry_strided() {
        let g = Conv2dGeometry::new(3, 33, 33, 3, 2, 1);
        assert_eq!(g.out_h(), 17);
        assert_eq!(g.out_w(), 17);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn geometry_rejects_tiny_input() {
        Conv2dGeometry::new(1, 2, 2, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel1() {
        // With k=1, s=1, p=0 the lowered matrix is the input reshaped.
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(Shape::d4(1, 4, 5, 5), &mut rng);
        let g = Conv2dGeometry::new(4, 5, 5, 1, 1, 0);
        let col = im2col(&x, &g).unwrap();
        assert_eq!(col.data(), x.data());
    }

    #[test]
    fn im2col_manual_3x3() {
        // 1 channel, 3x3 input, 3x3 kernel, no padding → single output
        // position: the column is the flattened input itself.
        let x = Tensor::from_fn(Shape::d4(1, 1, 3, 3), |i| (i[2] * 3 + i[3]) as f32);
        let g = Conv2dGeometry::new(1, 3, 3, 3, 1, 0);
        let col = im2col(&x, &g).unwrap();
        assert_eq!(col.shape(), &Shape::d2(9, 1));
        assert_eq!(col.data(), x.data());
    }

    #[test]
    fn im2col_padding_zeros() {
        let x = Tensor::ones(Shape::d4(1, 1, 2, 2));
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1);
        let col = im2col(&x, &g).unwrap();
        // Top-left output position: kernel window centered at (0,0) —
        // rows of the patch that fall outside are zero.
        // Patch row (ky=0,kx=0) reads input (-1,-1) → 0.
        assert_eq!(col.at(&[0, 0]), 0.0);
        // Patch row (ky=1,kx=1) reads input (0,0) → 1.
        assert_eq!(col.at(&[4, 0]), 1.0);
    }

    #[test]
    fn im2col_rejects_wrong_shape() {
        let x = Tensor::zeros(Shape::d4(1, 2, 4, 4));
        let g = Conv2dGeometry::new(3, 4, 4, 3, 1, 1);
        assert!(im2col(&x, &g).is_err());
        // A lone [C, H, W] sample is not a batch.
        let sample = Tensor::zeros(Shape::d3(3, 4, 4));
        assert!(im2col(&sample, &g).is_err());
        // Columns must be a whole number of samples.
        let ragged = Tensor::zeros(Shape::d2(g.col_rows(), g.col_cols() + 1));
        assert!(col2im(&ragged, &g).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint identity,
        // which is exactly what backprop correctness requires.
        let mut rng = Rng::seed_from(7);
        let g = Conv2dGeometry::new(3, 6, 6, 3, 2, 1);
        let x = Tensor::randn(Shape::d4(3, 3, 6, 6), &mut rng);
        let y = Tensor::randn(Shape::d2(g.col_rows(), 3 * g.col_cols()), &mut rng);
        let lhs: f32 = im2col(&x, &g)
            .unwrap()
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &g).unwrap().data())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    /// Lowers and scatters `batch` samples one at a time through the
    /// single-sample layout, then interleaves the columns by sample.
    fn per_sample_reference(
        x: &[f32],
        dcol: &[f32],
        g: &Conv2dGeometry,
        batch: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let (p, rows) = (g.col_cols(), g.col_rows());
        let mut col = vec![0.0f32; batch * g.col_len()];
        let mut dx = vec![0.0f32; batch * g.input_len()];
        let mut one = vec![0.0f32; g.col_len()];
        for b in 0..batch {
            im2col_into(
                &x[b * g.input_len()..(b + 1) * g.input_len()],
                &mut one,
                g,
                1,
            );
            for r in 0..rows {
                col[r * batch * p + b * p..][..p].copy_from_slice(&one[r * p..][..p]);
                one[r * p..][..p].copy_from_slice(&dcol[r * batch * p + b * p..][..p]);
            }
            col2im_into(
                &one,
                &mut dx[b * g.input_len()..(b + 1) * g.input_len()],
                g,
                1,
                false,
            );
        }
        (col, dx)
    }

    #[test]
    fn batched_lowering_matches_per_sample_bitwise() {
        // Covers the serial path (small) and both pooled task splits
        // (batch 1 by channel, batch > 1 by sample).
        let mut rng = Rng::seed_from(9);
        for &(c, hw, k, s, p, batch) in &[
            (3, 7, 3, 2, 1, 0),
            (3, 7, 3, 2, 1, 4),
            (2, 5, 1, 1, 0, 3),
            (8, 40, 3, 1, 1, 1),
            (8, 24, 5, 1, 2, 3),
        ] {
            let g = Conv2dGeometry::new(c, hw, hw, k, s, p);
            let x: Vec<f32> = (0..batch * g.input_len()).map(|_| rng.normal()).collect();
            let dcol: Vec<f32> = (0..batch * g.col_len()).map(|_| rng.normal()).collect();
            let (want_col, want_dx) = per_sample_reference(&x, &dcol, &g, batch);
            let mut col = vec![0.0f32; batch * g.col_len()];
            im2col_into(&x, &mut col, &g, batch);
            assert_eq!(col, want_col, "im2col c={c} hw={hw} k={k} batch={batch}");
            let mut dx = vec![0.0f32; batch * g.input_len()];
            col2im_into(&dcol, &mut dx, &g, batch, false);
            assert_eq!(dx, want_dx, "col2im c={c} hw={hw} k={k} batch={batch}");
        }
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // k=2, s=1, no padding on a 3-wide input: middle pixel is covered
        // by two windows; a patch matrix of ones must scatter 2 there.
        let g = Conv2dGeometry::new(1, 2, 3, 2, 1, 0);
        let ones = Tensor::ones(Shape::d2(g.col_rows(), g.col_cols()));
        let im = col2im(&ones, &g).unwrap();
        // Coverage counts: corners 1, horizontal-middle 2 (ow=2, oh=1).
        assert_eq!(im.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(im.at(&[0, 0, 0, 1]), 2.0);
        assert_eq!(im.at(&[0, 0, 0, 2]), 1.0);
    }

    #[test]
    fn with_in_channels_shrinks() {
        let g = Conv2dGeometry::new(64, 8, 8, 3, 1, 1);
        let g2 = g.with_in_channels(32);
        assert_eq!(g2.in_channels, 32);
        assert_eq!(g2.out_h(), g.out_h());
    }

    #[test]
    fn parallel_im2col_matches_serial_layout() {
        // Big enough to take the pooled path; compare against per-channel
        // serial lowering.
        let mut rng = Rng::seed_from(9);
        let g = Conv2dGeometry::new(8, 40, 40, 3, 1, 1);
        let x = Tensor::randn(Shape::d4(1, 8, 40, 40), &mut rng);
        assert!(g.col_len() >= PARALLEL_ELEMS);
        let col = im2col(&x, &g).unwrap();
        let mut want = vec![0.0f32; g.col_len()];
        let plane = g.in_h * g.in_w;
        let rows_per_c = g.kernel * g.kernel * g.col_cols();
        for c in 0..g.in_channels {
            im2col_channel(
                &x.data()[c * plane..(c + 1) * plane],
                &mut want[c * rows_per_c..(c + 1) * rows_per_c],
                g.col_cols(),
                0,
                &g,
            );
        }
        assert_eq!(col.data(), &want[..]);
    }

    #[test]
    fn col2im_into_accumulate_adds() {
        let g = Conv2dGeometry::new(2, 4, 4, 3, 1, 1);
        let col = vec![1.0f32; g.col_len()];
        let mut fresh = vec![0.0f32; g.input_len()];
        col2im_into(&col, &mut fresh, &g, 1, false);
        let mut twice = fresh.clone();
        col2im_into(&col, &mut twice, &g, 1, true);
        for (t, f) in twice.iter().zip(&fresh) {
            assert_eq!(*t, 2.0 * f);
        }
    }
}
