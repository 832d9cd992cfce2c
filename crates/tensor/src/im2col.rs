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
//!
//! Convolution itself never writes the patch matrix: [`Patches`] describes
//! it, and [`crate::gemm_patches`] gathers each GEMM panel straight from
//! the activations, skipping depth rows that are padding for the whole
//! panel (implicit GEMM). [`im2col_into`] stays as the reference the patch
//! GEMM is tested against; [`col2im_into`] still scatters the input
//! gradient.

use crate::error::TensorError;
use crate::matmul::{KC, NR};
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

/// Where one index of a patch matrix reads from: a tap `(c, ky, kx)` or an
/// output site (sample `s` at an output position). Pairing a tap with a
/// site reads the input at `tap.lin + site.lin`, provided the plane
/// coordinates `(tap.y + site.y, tap.x + site.x)` fall inside the plane;
/// outside it the element is a padding zero. An `interior` site reads
/// inside the plane with every tap.
#[derive(Debug, Clone, Copy, Default)]
struct Coord {
    lin: isize,
    y: i32,
    x: i32,
    interior: bool,
}

/// Plane coordinate of a panel column past the operand's last column: no
/// row pairs with it inside the plane, so it packs as zero.
const NO_COLUMN: i32 = i32::MIN / 2;

/// A convolution's patch matrix, described rather than stored: the GEMM's
/// B-packing step ([`crate::gemm_patches`]) gathers each `KC`×`NR` panel
/// straight from the `[B, C, H, W]` activations through the geometry, so
/// no `[C·k·k, B·oh·ow]` buffer is ever written. A panel keeps only the
/// depth rows that read a real pixel for at least one of its columns.
///
/// Two orientations cover convolution's two patch GEMMs:
///
/// - [`Patches::new`]: the forward operand `[C·k·k, P·B]` (`P = oh·ow`).
///   Row `t` is tap `(c, ky, kx)`; columns are **position-major**, column
///   `q·B + s` being sample `s` at output position `q`. With `B` a multiple
///   of [`crate::PANEL_COLS`], every panel is one position of consecutive
///   samples, so a tap is padding for all of a panel's columns or none.
/// - [`Patches::transposed`]: the weight-gradient operand `[B·P, C·k·k]`,
///   the transpose of [`im2col_into`]'s sample-major matrix. Row `s·P + q`
///   is sample `s` at position `q`, column `t` is a tap.
///
/// Column order never changes an output element's bits: each is its own
/// dot product over the depth.
#[derive(Debug, Clone, Copy)]
pub struct Patches<'a> {
    input: &'a [f32],
    geom: Conv2dGeometry,
    batch: usize,
    transposed: bool,
}

impl<'a> Patches<'a> {
    /// The position-major forward operand of `batch` consecutive samples
    /// (`input` is a flat `[B, C, H, W]` slice).
    ///
    /// # Panics
    ///
    /// Panics if `input` does not hold `batch` samples of `geom`.
    pub fn new(input: &'a [f32], geom: &Conv2dGeometry, batch: usize) -> Self {
        assert_eq!(
            input.len(),
            batch * geom.input_len(),
            "Patches: input length mismatch"
        );
        Patches {
            input,
            geom: *geom,
            batch,
            transposed: false,
        }
    }

    /// The sample-major transposed operand of `batch` consecutive samples,
    /// the B of `dW += dY·colᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not hold `batch` samples of `geom`.
    pub fn transposed(input: &'a [f32], geom: &Conv2dGeometry, batch: usize) -> Self {
        Patches {
            transposed: true,
            ..Patches::new(input, geom, batch)
        }
    }

    /// Rows of the operand (the GEMM depth).
    pub fn rows(&self) -> usize {
        if self.transposed {
            self.batch * self.geom.col_cols()
        } else {
            self.geom.col_rows()
        }
    }

    /// Columns of the operand.
    pub fn cols(&self) -> usize {
        if self.transposed {
            self.geom.col_rows()
        } else {
            self.geom.col_cols() * self.batch
        }
    }

    /// Coordinates of taps `first..first + out.len()`.
    fn taps(&self, first: usize, out: &mut [Coord]) {
        let (k, w) = (self.geom.kernel, self.geom.in_w);
        let plane = self.geom.in_h * w;
        let (mut c, mut ky, mut kx) = (first / (k * k), first / k % k, first % k);
        for slot in out {
            *slot = Coord {
                lin: (c * plane + ky * w + kx) as isize,
                y: ky as i32,
                x: kx as i32,
                interior: false,
            };
            kx += 1;
            if kx == k {
                (kx, ky) = (0, ky + 1);
                if ky == k {
                    (ky, c) = (0, c + 1);
                }
            }
        }
    }

    /// Coordinates of sites `first..first + out.len()` in operand order:
    /// sample-minor (`q·B + s`) for the forward operand, sample-major
    /// (`s·P + q`) for the transposed one.
    fn sites(&self, first: usize, out: &mut [Coord]) {
        let g = &self.geom;
        let (ow, positions) = (g.out_w(), g.col_cols());
        let (k, h, w) = (g.kernel as isize, g.in_h as isize, g.in_w as isize);
        let (mut s, mut q) = if self.transposed {
            (first / positions, first % positions)
        } else {
            (first % self.batch, first / self.batch)
        };
        for slot in out {
            let y = (q / ow * g.stride) as isize - g.padding as isize;
            let x = (q % ow * g.stride) as isize - g.padding as isize;
            *slot = Coord {
                lin: (s * g.input_len()) as isize + y * w + x,
                y: y as i32,
                x: x as i32,
                interior: y >= 0 && y + k <= h && x >= 0 && x + k <= w,
            };
            if self.transposed {
                q += 1;
                if q == positions {
                    (q, s) = (0, s + 1);
                }
            } else {
                s += 1;
                if s == self.batch {
                    (s, q) = (0, q + 1);
                }
            }
        }
    }

    /// Packs the `kc`×`nc` block at (`pc`, `jc`) into `NR`-column panels
    /// with their kept-row lists (layout in the GEMM driver's `Rhs::pack`),
    /// and returns the kept rows times valid columns summed over panels.
    pub(crate) fn pack(
        &self,
        bp: &mut [f32],
        kept: &mut [u32],
        pc: usize,
        kc: usize,
        jc: usize,
        nc: usize,
    ) -> usize {
        let mut rows = [Coord::default(); KC];
        let rows = &mut rows[..kc];
        if self.transposed {
            self.sites(pc, rows);
        } else {
            self.taps(pc, rows);
        }
        let mut performed = 0;
        for (pj, jr) in (0..nc).step_by(NR).enumerate() {
            let cols = NR.min(nc - jr);
            let mut col = [Coord {
                y: NO_COLUMN,
                x: NO_COLUMN,
                ..Coord::default()
            }; NR];
            if self.transposed {
                self.taps(jc + jr, &mut col[..cols]);
            } else {
                self.sites(jc + jr, &mut col[..cols]);
            }
            let list = &mut kept[pj * (kc + 1)..][..kc + 1];
            let count = self.pack_panel(
                &mut bp[pj * kc * NR..][..kc * NR],
                &mut list[1..],
                rows,
                &col,
                cols,
            );
            list[0] = count as u32;
            performed += count * cols;
        }
        // Every kept row gathers one value per valid column.
        telem::im2col_bytes().add((performed * std::mem::size_of::<f32>()) as u64);
        performed
    }

    /// Gathers one panel: every row of `rows` against the panel's `cols`
    /// valid columns, zero past them. Rows that are padding for every
    /// column are dropped; the kept ones are packed back to back and their
    /// depth offsets listed in `kept`. Returns how many rows were kept.
    fn pack_panel(
        &self,
        panel: &mut [f32],
        kept: &mut [u32],
        rows: &[Coord],
        col: &[Coord; NR],
        cols: usize,
    ) -> usize {
        let (h, w) = (self.geom.in_h as u32, self.geom.in_w as u32);
        let x = self.input;
        let every_col = (1u32 << cols) - 1;
        let col_y: [i32; NR] = std::array::from_fn(|c| col[c].y);
        let col_x: [i32; NR] = std::array::from_fn(|c| col[c].x);
        let col_lin: [isize; NR] = std::array::from_fn(|c| col[c].lin);
        // Columns at one plane displacement (one position of several
        // samples, or the taps of a 1×1 kernel) share every row's padding
        // test; columns at consecutive pixels read a row as one slice.
        let shared = col_y[..cols].iter().all(|&y| y == col_y[0])
            && col_x[..cols].iter().all(|&x| x == col_x[0]);
        let contiguous = cols == NR && (1..NR).all(|c| col_lin[c] == col_lin[0] + c as isize);
        let cols_interior = col[..cols].iter().all(|c| c.interior);
        let mut count = 0;
        for (p, row) in rows.iter().enumerate() {
            // Bit c: column c reads inside the plane (a negative coordinate
            // wraps past the extent).
            let inside =
                |c: usize| (((row.y + col_y[c]) as u32) < h) & (((row.x + col_x[c]) as u32) < w);
            let mask = if row.interior || cols_interior {
                every_col
            } else if shared {
                if inside(0) {
                    every_col
                } else {
                    0
                }
            } else {
                (0..NR).fold(0, |mask, c| mask | u32::from(inside(c)) << c)
            };
            if mask == 0 {
                continue;
            }
            let cell = &mut panel[count * NR..][..NR];
            if mask == every_col && contiguous {
                let base = (row.lin + col_lin[0]) as usize;
                cell.copy_from_slice(&x[base..base + NR]);
            } else if mask == every_col && cols == NR {
                for (slot, &lin) in cell.iter_mut().zip(&col_lin) {
                    *slot = x[(row.lin + lin) as usize];
                }
            } else {
                for (c, (slot, &lin)) in cell.iter_mut().zip(&col_lin).enumerate() {
                    *slot = if mask >> c & 1 == 1 {
                        x[(row.lin + lin) as usize]
                    } else {
                        0.0
                    };
                }
            }
            kept[count] = p as u32;
            count += 1;
        }
        count
    }
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
    use crate::matmul::{gemm_ex, gemm_patches};
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

    /// Convolution shapes the patch GEMM must reproduce: 3×3 pad 1 at 1, 2,
    /// 4 and 16 px (2 px with `C·k·k` = 288 across a `KC` block), stride 2,
    /// unpadded 5×5, and 1×1 stride 2.
    fn patch_geometries() -> [Conv2dGeometry; 7] {
        [
            Conv2dGeometry::new(3, 1, 1, 3, 1, 1),
            Conv2dGeometry::new(32, 2, 2, 3, 1, 1),
            Conv2dGeometry::new(4, 4, 4, 3, 1, 1),
            Conv2dGeometry::new(3, 16, 16, 3, 1, 1),
            Conv2dGeometry::new(3, 7, 7, 3, 2, 1),
            Conv2dGeometry::new(2, 9, 9, 5, 1, 0),
            Conv2dGeometry::new(5, 6, 6, 1, 2, 0),
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn patch_gemms_match_im2col_then_gemm_bitwise() {
        // Batches 7, 9 and 17 give panels that straddle output positions,
        // batch 8 one position per panel, batch 1 consecutive positions. 70
        // filters span two MC row blocks, so larger shapes run as pooled
        // tasks; 5 filters run as one block on the caller.
        let mut rng = Rng::seed_from(21);
        let mut randn = |len: usize| -> Vec<f32> { (0..len).map(|_| rng.normal()).collect() };
        for g in patch_geometries() {
            let (rows, p) = (g.col_rows(), g.col_cols());
            for batch in [1, 7, 8, 9, 17] {
                let cols = batch * p;
                let x = randn(batch * g.input_len());
                let mut col = vec![0.0f32; batch * g.col_len()];
                im2col_into(&x, &mut col, &g, batch);
                // Column `q·batch + s` of the forward operand is column
                // `s·p + q` of the lowered matrix.
                let sample_major = |pm: &[f32], m: usize| -> Vec<f32> {
                    (0..m * cols)
                        .map(|e| {
                            let (i, s, q) = (e / cols, e % cols / p, e % p);
                            pm[i * cols + q * batch + s]
                        })
                        .collect()
                };
                for m in [5, 70] {
                    let what = format!("{g:?} batch={batch} m={m}");
                    let w = randn(m * rows);
                    let dy = randn(m * cols);
                    for acc in [false, true] {
                        // Forward: W · patches.
                        let init = randn(m * cols);
                        let mut want = sample_major(&init, m);
                        gemm_ex(&mut want, &w, &col, m, rows, cols, false, false, acc);
                        let mut got = init;
                        gemm_patches(&mut got, &w, &Patches::new(&x, &g, batch), m, acc);
                        assert_eq!(bits(&sample_major(&got, m)), bits(&want), "fwd {what}");
                        // Weight gradient: dW (+)= dY · colᵀ.
                        let init = randn(m * rows);
                        let mut want = init.clone();
                        gemm_ex(&mut want, &dy, &col, m, cols, rows, false, true, acc);
                        let mut got = init;
                        let t = Patches::transposed(&x, &g, batch);
                        gemm_patches(&mut got, &dy, &t, m, acc);
                        assert_eq!(bits(&got), bits(&want), "dW {what} acc={acc}");
                    }
                }
            }
        }
    }

    #[test]
    fn panels_keep_only_rows_that_read_a_pixel() {
        // Two channels of a 1×1 map under a 3×3 pad-1 kernel: only the
        // centre taps (rows 4 and 13) read a pixel.
        let g = Conv2dGeometry::new(2, 1, 1, 3, 1, 1);
        let x: Vec<f32> = (0..8 * 2).map(|i| i as f32 + 1.0).collect();
        let (kc, nc) = (g.col_rows(), 8);
        let mut bp = vec![f32::NAN; kc * NR];
        let mut kept = vec![0u32; kc + 1];
        let performed = Patches::new(&x, &g, 8).pack(&mut bp, &mut kept, 0, kc, 0, nc);
        assert_eq!(&kept[..3], &[2, 4, 13]);
        assert_eq!(performed, 2 * 8);
        // One position, eight samples: channel 0 then channel 1.
        let want: Vec<f32> = (0..2)
            .flat_map(|c| (0..8).map(move |s| (s * 2 + c) as f32 + 1.0))
            .collect();
        assert_eq!(&bp[..2 * NR], &want[..]);
        // Transposed (dW), three samples: depth rows are samples, columns
        // taps. Panels 0-7 and 8-15 each hold a centre tap, 16-17 none.
        let t = Patches::transposed(&x[..3 * 2], &g, 3);
        let (kc, nc) = (t.rows(), t.cols());
        let mut bp = vec![0.0f32; 3 * kc * NR];
        let mut kept = vec![0u32; 3 * (kc + 1)];
        let performed = t.pack(&mut bp, &mut kept, 0, kc, 0, nc);
        let counts: Vec<u32> = kept.chunks(kc + 1).map(|l| l[0]).collect();
        assert_eq!(counts, [3, 3, 0]);
        assert_eq!(performed, 3 * 8 + 3 * 8);
    }

    #[test]
    fn patch_gemm_is_exact_for_finite_weights_only() {
        // A 1×1 map under a 3×3 pad-1 kernel reads one pixel, at the centre
        // tap. An infinite weight on a padding tap makes the lowered
        // product NaN (∞ × 0); the patch GEMM never takes that product.
        let g = Conv2dGeometry::new(1, 1, 1, 3, 1, 1);
        let x = [2.0f32];
        let mut w = [0.5f32; 9];
        w[0] = f32::INFINITY;
        let mut col = [0.0f32; 9];
        im2col_into(&x, &mut col, &g, 1);
        let mut lowered = [0.0f32];
        gemm_ex(&mut lowered, &w, &col, 1, 9, 1, false, false, false);
        assert!(lowered[0].is_nan());
        let mut implicit = [0.0f32];
        gemm_patches(&mut implicit, &w, &Patches::new(&x, &g, 1), 1, false);
        assert_eq!(implicit[0], 1.0);
    }
}
