//! Matrix multiplication: the workhorse kernel behind convolution and
//! fully connected layers.
//!
//! The implementation is a BLIS-style cache-blocked GEMM. Only B is
//! packed, into contiguous `KC`×`NR` panels; A is read in place by an
//! `MR`×`NR` register-tiled microkernel through a row offset and a column
//! stride (`(k, 1)` for `A`, `(1, m)` for `Aᵀ`), so a call never copies
//! the weight matrix. A partial strip of fewer than `MR` rows repeats its
//! last valid row and never stores the extra accumulator rows. Large
//! problems parallelize over disjoint row blocks of the output on the
//! persistent [`crate::pool`] — no per-call thread spawning; a problem with
//! one row block runs it on the caller without building a task list. Every
//! problem, however small, runs this one kernel, so an output element's
//! bits do not depend on how many other rows or columns share its call: a
//! batch-1 forward pass yields the same logits as the same sample inside a
//! batch.
//!
//! One blocked driver serves two kinds of B operand; only the packing step
//! differs:
//!
//! - [`gemm_ex`] takes a dense B. All transpose variants (`A·B`, `Aᵀ·B`,
//!   `A·Bᵀ`) are handled through the A strides and the B packing step, so
//!   backpropagation never materializes a transposed copy, and
//!   `accumulate = true` adds into an existing output buffer (used to
//!   accumulate weight gradients in place).
//! - [`gemm_patches`] takes a convolution's patch matrix
//!   ([`crate::Patches`]), which is never stored: each panel is gathered
//!   straight from the `[B, C, H, W]` activations (implicit GEMM). A
//!   panel keeps only the depth rows that read a real pixel for at least
//!   one of its columns; rows that are padding for every column are
//!   skipped, and the microkernel walks the kept-row list, reading A at
//!   those depths. A panel that keeps every row runs the plain depth loop.
//!
//! # Determinism
//!
//! For each (strip, panel, `KC` block) the accumulator starts at +0.0,
//! takes one multiply-add per depth step in ascending order (fused on the
//! AVX2 kernel), and is then added to the output; the `KC` blocks are
//! applied sequentially in a fixed order and every output element is
//! owned by exactly one parallel task. Results are therefore bit-identical
//! for any `HS_NUM_THREADS` setting, and reading A in place gives the same
//! bits as packing it did.
//!
//! Skipping a padding row leaves the bits unchanged for finite A: the
//! skipped term is a product with a +0.0 padding value, so it is ±0.0, and
//! adding ±0.0 leaves a nonzero accumulator as it was and a +0.0 one at
//! +0.0. `KC` block boundaries stay at multiples of `KC` over the full
//! depth, so the grouping of the sum does not move either. An infinite or
//! NaN weight times a padding zero is NaN, which the skip drops; the
//! patch GEMM is exact only for finite A.

use crate::error::TensorError;
use crate::im2col::Patches;
use crate::pool;
use crate::shape::Shape;
use crate::telem;
use crate::tensor::Tensor;
use crate::workspace::{with_index_scratch, with_scratch};

/// Problems smaller than this many multiply-accumulates stay single
/// threaded; pool dispatch overhead dominates below it.
pub(crate) const PARALLEL_THRESHOLD: usize = 1 << 18;

/// Below this many multiply-accumulates a GEMM is not timed (see
/// [`gemm_ex`]); it runs the same blocked kernel as every other call.
const SMALL_THRESHOLD: usize = 1 << 13;

/// Microkernel register tile: rows of A per strip.
const MR: usize = 8;
/// Microkernel register tile: columns of B per panel.
pub(crate) const NR: usize = 8;
/// Rows of A per cache block (must be a multiple of `MR` so strip
/// boundaries — and therefore results — do not depend on the block
/// partition).
const MC: usize = 64;
/// Depth of the shared-K cache block; one A strip (`KC`×`MR`, read in
/// place) fits comfortably in L1, a packed B panel (`KC`×`NR`) in L2.
pub(crate) const KC: usize = 256;
/// Columns of B per outer block; bounds packed-B scratch at `KC`×`NC`.
const NC: usize = 2048;

/// Columns of B per packed panel. A convolution batch chunk of a multiple
/// of this many samples makes every position-major patch panel one output
/// position of consecutive samples (see [`crate::Patches::new`]).
pub const PANEL_COLS: usize = NR;

#[inline(always)]
fn b_at(b: &[f32], k: usize, n: usize, p: usize, j: usize, trans: bool) -> f32 {
    if trans {
        // Stored n×k, logical element (p, j) lives at row j, column p.
        b[j * k + p]
    } else {
        b[p * n + j]
    }
}

/// Packs the `kc`×`nc` block of B starting at (`pc`, `jc`) into `NR`-column
/// panels: `bp[panel][p * NR + c] = B(pc + p, jc + panel·NR + c)`,
/// zero-padding columns past `nc`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    bp: &mut [f32],
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    trans: bool,
) {
    for (pj, jr) in (0..nc).step_by(NR).enumerate() {
        let dst = &mut bp[pj * kc * NR..(pj + 1) * kc * NR];
        let cols = NR.min(nc - jr);
        for p in 0..kc {
            let cell = &mut dst[p * NR..p * NR + NR];
            for (c, slot) in cell.iter_mut().enumerate() {
                *slot = if c < cols {
                    b_at(b, k, n, pc + p, jc + jr + c, trans)
                } else {
                    0.0
                };
            }
        }
    }
}

/// The B operand of the blocked driver, told apart by how its panels are
/// packed.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// A dense `k×n` matrix, or one stored `n×k` when `trans`.
    Dense { b: &'a [f32], trans: bool },
    /// A convolution patch matrix, gathered from its activations.
    Patches(&'a Patches<'a>),
}

impl Rhs<'_> {
    /// Packs the `kc`×`nc` block at (`pc`, `jc`) into `NR`-column panels
    /// and records which depth rows each panel kept. Panel `pj` owns
    /// `kept[pj·(kc+1)..][..kc+1]`: slot 0 holds its kept-row count, and
    /// when that is below `kc` the next slots list the kept depth offsets
    /// (relative to `pc`) in ascending order, their B rows packed back to
    /// back at the start of the panel. Returns the multiply-adds per row of
    /// A that the block takes: kept rows times valid columns, summed over
    /// panels.
    #[allow(clippy::too_many_arguments)]
    fn pack(
        &self,
        bp: &mut [f32],
        kept: &mut [u32],
        k: usize,
        n: usize,
        pc: usize,
        kc: usize,
        jc: usize,
        nc: usize,
    ) -> usize {
        match *self {
            Rhs::Dense { b, trans } => {
                pack_b(bp, b, k, n, pc, kc, jc, nc, trans);
                for list in kept.chunks_mut(kc + 1) {
                    list[0] = kc as u32;
                }
                kc * nc
            }
            Rhs::Patches(patches) => patches.pack(bp, kept, pc, kc, jc, nc),
        }
    }
}

/// The depth steps one panel takes within a `kc`-deep block.
#[derive(Clone, Copy)]
struct Depths<'a> {
    kc: usize,
    /// `None`: every step `0..kc`, in order. Otherwise only these depth
    /// offsets, ascending and each below `kc` (checked by
    /// [`PanelDepths::new`], the only place that builds a list); the panel
    /// holds their B rows back to back.
    kept: Option<&'a [u32]>,
}

impl Depths<'_> {
    /// Depth steps, one packed B row each.
    fn steps(&self) -> usize {
        self.kept.map_or(self.kc, <[u32]>::len)
    }
}

/// The kept-row lists of one packed `KC` block (layout in [`Rhs::pack`]),
/// each checked once against the block depth so the microkernel can read
/// A at those depths without a bounds check per step.
struct PanelDepths<'a> {
    kept: &'a [u32],
    kc: usize,
}

impl<'a> PanelDepths<'a> {
    fn new(kept: &'a [u32], kc: usize) -> Self {
        for list in kept.chunks(kc + 1) {
            let count = list[0] as usize;
            assert!(count <= kc, "panel keeps {count} of {kc} rows");
            if count < kc {
                assert!(
                    list[1..=count].iter().all(|&p| (p as usize) < kc),
                    "kept depth outside the block"
                );
            }
        }
        PanelDepths { kept, kc }
    }

    fn panel(&self, pj: usize) -> Depths<'a> {
        let list = &self.kept[pj * (self.kc + 1)..][..self.kc + 1];
        let count = list[0] as usize;
        Depths {
            kc: self.kc,
            kept: (count < self.kc).then(|| &list[1..=count]),
        }
    }
}

/// An `MR`-row strip of A read in place: row `r` at depth step `p` is
/// `a[rows[r] + p * col_stride]`. `rows[r]` is the offset of the strip's
/// first depth element in row `r`; a partial strip repeats its last valid
/// row, whose extra accumulator rows are never stored.
struct AStrip<'a> {
    a: &'a [f32],
    rows: [usize; MR],
    col_stride: usize,
}

/// The register-tiled core: `acc[MR×NR] += A-strip · Bp-panel` over the
/// panel's depth steps, A read in place and B from its packed panel, so
/// the accumulator stays in registers.
#[inline(always)]
fn microkernel_portable(depths: Depths, a: &AStrip, bp: &[f32], acc: &mut [f32; MR * NR]) {
    let mut step = |i: usize, p: usize| {
        let b_cell = &bp[i * NR..i * NR + NR];
        for r in 0..MR {
            let a_rp = a.a[a.rows[r] + p * a.col_stride];
            let row = &mut acc[r * NR..r * NR + NR];
            for c in 0..NR {
                row[c] += a_rp * b_cell[c];
            }
        }
    };
    match depths.kept {
        None => (0..depths.kc).for_each(|p| step(p, p)),
        Some(kept) => {
            for (i, &p) in kept.iter().enumerate() {
                step(i, p as usize);
            }
        }
    }
}

/// AVX2+FMA microkernel, selected at runtime when the CPU supports it.
/// Holds the whole `MR`×`NR` accumulator in eight YMM registers; each
/// depth step is one packed-B load plus `MR` broadcast-FMAs from the A
/// strip in place, so the only memory traffic in the hot loop is the B
/// panel and one column of A.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AStrip, Depths, MR, NR};

    // The single packed-B load per depth step assumes one YMM register
    // spans the full panel width.
    const _: () = assert!(MR == 8 && NR == 8);

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA (see
    /// [`available`]). `bp` and every A row offset are bounds-checked here
    /// before the unchecked loop; kept depths are below `kc` by
    /// construction of [`Depths`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel(depths: Depths, a: &AStrip, bp: &[f32], acc: &mut [f32; MR * NR]) {
        use std::arch::x86_64::*;
        if depths.steps() == 0 {
            return;
        }
        assert!(bp.len() >= depths.steps() * NR);
        let last = (depths.kc - 1) * a.col_stride;
        assert!(a.rows.iter().all(|&o| o + last < a.a.len()));
        // SAFETY: the loop reads `row_ptrs[r] + p * col_stride` for depths
        // p below `kc`, inside `a.a` by the assert above, and one
        // `NR`-float B row per step, inside `bp` by the first assert.
        let row_ptrs = a.rows.map(|o| a.a.as_ptr().add(o));
        let mut acc_rows = [_mm256_setzero_ps(); MR];
        let mut b_ptr = bp.as_ptr();
        let mut step = |a_off: usize| {
            let b_vec = _mm256_loadu_ps(b_ptr);
            for (row, ptr) in acc_rows.iter_mut().zip(&row_ptrs) {
                let a_rp = _mm256_broadcast_ss(&*ptr.add(a_off));
                *row = _mm256_fmadd_ps(a_rp, b_vec, *row);
            }
            b_ptr = b_ptr.add(NR);
        };
        match depths.kept {
            None => {
                let mut a_off = 0;
                for _ in 0..depths.kc {
                    step(a_off);
                    a_off += a.col_stride;
                }
            }
            Some(kept) => {
                for &p in kept {
                    step(p as usize * a.col_stride);
                }
            }
        }
        for (r, row) in acc_rows.iter().enumerate() {
            let sum = _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(r * NR)), *row);
            _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR), sum);
        }
    }

    /// True when the running CPU has AVX2 and FMA (cached by std).
    pub fn available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
}

/// Dispatches to the fastest microkernel the CPU supports. Dispatch is a
/// property of the machine, not the thread count, so determinism across
/// `HS_NUM_THREADS` settings is unaffected.
#[inline(always)]
fn microkernel(depths: Depths, a: &AStrip, bp: &[f32], acc: &mut [f32; MR * NR]) {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: feature presence checked above; the kernel checks its
        // own bounds.
        unsafe { x86::microkernel(depths, a, bp, acc) };
        return;
    }
    microkernel_portable(depths, a, bp, acc);
}

/// Multiplies one `mc`-row block of the output: sweeps the microkernel
/// over every (strip, panel) pair, reading A in place, and accumulates
/// valid regions into `out_block` (full `n`-wide rows, columns
/// `jc..jc + nc`).
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    out_block: &mut [f32],
    a: &[f32],
    bp: &[f32],
    depths: &PanelDepths,
    m: usize,
    k: usize,
    n: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    trans_a: bool,
) {
    // Element (i, p) of op(A) sits at `a[i * row_stride + p * col_stride]`.
    let (row_stride, col_stride) = if trans_a { (1, m) } else { (k, 1) };
    for strip in (0..mc).step_by(MR) {
        let rows = MR.min(mc - strip);
        let strip_a = AStrip {
            a,
            rows: std::array::from_fn(|r| {
                (ic + strip + r.min(rows - 1)) * row_stride + pc * col_stride
            }),
            col_stride,
        };
        for (pj, jr) in (0..nc).step_by(NR).enumerate() {
            let bp_panel = &bp[pj * kc * NR..(pj + 1) * kc * NR];
            let cols = NR.min(nc - jr);
            let mut acc = [0.0f32; MR * NR];
            microkernel(depths.panel(pj), &strip_a, bp_panel, &mut acc);
            for r in 0..rows {
                let dst = &mut out_block[(strip + r) * n + jc + jr..][..cols];
                let src = &acc[r * NR..r * NR + cols];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
    }
}

/// The blocked driver behind [`gemm_ex`] and [`gemm_patches`]:
/// `out[m×n] (+)= op(a) · B` for either kind of B operand.
#[allow(clippy::too_many_arguments)]
fn gemm_driver(
    out: &mut [f32],
    a: &[f32],
    rhs: Rhs,
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    accumulate: bool,
) {
    if !accumulate {
        out.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let work = m * k * n;
    // Small problems run the same kernel but skip the timer: two clock
    // reads would be measurable against a few thousand multiply-accumulates.
    let timer = (work >= SMALL_THRESHOLD).then(std::time::Instant::now);
    // Serial problems use one row block covering all of `m`; because MC is
    // a multiple of MR the strip decomposition (and hence every float
    // result) is identical either way.
    let block_rows = if work >= PARALLEL_THRESHOLD {
        MC
    } else {
        m.div_ceil(MR) * MR
    };
    // Multiply-adds per row of A actually taken (padding rows skipped).
    let mut performed = 0;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let panels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            with_scratch(panels * kc * NR, |bp| {
                with_index_scratch(panels * (kc + 1), |kept| {
                    performed += rhs.pack(bp, kept, k, n, pc, kc, jc, nc);
                    let depths = PanelDepths::new(kept, kc);
                    let (bp, depths) = (&*bp, &depths);
                    if m <= block_rows {
                        gemm_block(out, a, bp, depths, m, k, n, 0, m, pc, kc, jc, nc, trans_a);
                        return;
                    }
                    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                        .chunks_mut(block_rows * n)
                        .enumerate()
                        .map(|(bi, out_block)| {
                            let ic = bi * block_rows;
                            let mc = out_block.len() / n;
                            Box::new(move || {
                                gemm_block(
                                    out_block, a, bp, depths, m, k, n, ic, mc, pc, kc, jc, nc,
                                    trans_a,
                                );
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool::run_tasks(tasks);
                });
            });
        }
    }
    let flops = 2 * (m * performed) as u64;
    telem::gemm_calls().inc();
    telem::gemm_flops().add(flops);
    match timer {
        Some(timer) => telem::gemm_secs().observe(timer.elapsed().as_secs_f64()),
        // Tallied apart so the timed rate can leave them out.
        None => telem::gemm_small_flops().add(flops),
    }
}

/// General matrix multiply into a caller-owned buffer:
/// `out[m×n] (+)= op(a) · op(b)` where `op` optionally transposes.
///
/// - `trans_a = false`: `a` is `m×k` row-major; `true`: `a` is stored
///   `k×m` and used as its transpose.
/// - `trans_b = false`: `b` is `k×n` row-major; `true`: `b` is stored
///   `n×k` and used as its transpose.
/// - `accumulate = false` overwrites `out`; `true` adds to it (gradient
///   accumulation without a temporary).
///
/// Large problems run on the persistent worker pool; results are
/// bit-identical for every thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match `m`/`k`/`n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ex(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_ex: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_ex: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_ex: out length mismatch");
    let rhs = Rhs::Dense { b, trans: trans_b };
    gemm_driver(out, a, rhs, m, k, n, trans_a, accumulate);
}

/// Implicit-GEMM convolution: `out[m×n] (+)= a · P`, where `a` is `m×k`
/// row-major and `P` is the `k×n` patch operand `patches` (see
/// [`crate::Patches`]). Each B panel is gathered straight from the
/// activations, so the patch matrix is never stored, and depth rows that
/// are padding for a whole panel are skipped. The bits equal those of
/// [`crate::im2col_into`] followed by [`gemm_ex`] on the lowered matrix
/// whenever `a` is finite.
///
/// Counts as one `hs_tensor_im2col_calls_total` call; the bytes gathered
/// into panels go to `hs_tensor_im2col_bytes_total`, and
/// `hs_tensor_gemm_flops_total` counts only the multiply-adds taken.
///
/// # Panics
///
/// Panics if `a` or `out` lengths do not match `m` and the operand's
/// shape.
pub fn gemm_patches(out: &mut [f32], a: &[f32], patches: &Patches, m: usize, accumulate: bool) {
    let (k, n) = (patches.rows(), patches.cols());
    assert_eq!(a.len(), m * k, "gemm_patches: lhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_patches: out length mismatch");
    telem::im2col_calls().inc();
    gemm_driver(out, a, Rhs::Patches(patches), m, k, n, false, accumulate);
}

impl Tensor {
    /// Matrix product `self · rhs` of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if either operand is not
    /// rank 2 or the inner dimensions disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use hs_tensor::{Tensor, Shape};
    /// # fn main() -> Result<(), hs_tensor::TensorError> {
    /// let a = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
    /// let id = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 0.0, 0.0, 1.0])?;
    /// assert_eq!(a.matmul(&id)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            op: "matmul",
            lhs: self.shape().clone(),
            rhs: rhs.shape().clone(),
        };
        if self.shape().rank() != 2 || rhs.shape().rank() != 2 {
            return Err(mismatch());
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        if k != k2 {
            return Err(mismatch());
        }
        let mut out = vec![0.0f32; m * n];
        gemm_ex(
            &mut out,
            self.data(),
            rhs.data(),
            m,
            k,
            n,
            false,
            false,
            false,
        );
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    ///
    /// With `self: k×m` and `rhs: k×n`, the result is `m×n`. This is the
    /// shape pattern of weight gradients (`Xᵀ·dY`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on rank or inner-dimension
    /// mismatch.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: self.shape().clone(),
            rhs: rhs.shape().clone(),
        };
        if self.shape().rank() != 2 || rhs.shape().rank() != 2 {
            return Err(mismatch());
        }
        let (k, m) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        if k != k2 {
            return Err(mismatch());
        }
        let mut out = vec![0.0f32; m * n];
        gemm_ex(
            &mut out,
            self.data(),
            rhs.data(),
            m,
            k,
            n,
            true,
            false,
            false,
        );
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// `self · rhsᵀ` without materializing the transpose.
    ///
    /// With `self: m×k` and `rhs: n×k`, the result is `m×n`. This is the
    /// shape pattern of input gradients (`dY·Wᵀ` for `Y = X·W`… stored
    /// row-major as `W: n×k`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on rank or inner-dimension
    /// mismatch.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: self.shape().clone(),
            rhs: rhs.shape().clone(),
        };
        if self.shape().rank() != 2 || rhs.shape().rank() != 2 {
            return Err(mismatch());
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (n, k2) = (rhs.shape().dim(0), rhs.shape().dim(1));
        if k != k2 {
            return Err(mismatch());
        }
        let mut out = vec![0.0f32; m * n];
        gemm_ex(
            &mut out,
            self.data(),
            rhs.data(),
            m,
            k,
            n,
            false,
            true,
            false,
        );
        Tensor::from_vec(Shape::d2(m, n), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn a_at(a: &[f32], m: usize, k: usize, i: usize, p: usize, trans: bool) -> f32 {
        if trans {
            // Stored k×m, logical element (i, p) lives at row p, column i.
            a[p * m + i]
        } else {
            a[i * k + p]
        }
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        Tensor::from_fn(Shape::d2(m, n), |idx| {
            (0..k)
                .map(|p| a.at(&[idx[0], p]) * b.at(&[p, idx[1]]))
                .sum()
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_matches_naive_small() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(Shape::d2(5, 7), &mut rng);
        let b = Tensor::randn(Shape::d2(7, 4), &mut rng);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_matches_naive_parallel_path() {
        let mut rng = Rng::seed_from(2);
        // Big enough to exceed PARALLEL_THRESHOLD.
        let a = Tensor::randn(Shape::d2(128, 96), &mut rng);
        let b = Tensor::randn(Shape::d2(96, 64), &mut rng);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(Shape::d2(6, 6), &mut rng);
        let id = Tensor::from_fn(Shape::d2(6, 6), |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_close(&a.matmul(&id).unwrap(), &a, 1e-6);
        assert_close(&id.matmul(&a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 5));
        assert!(a.matmul(&b).is_err());
        let c = Tensor::zeros(Shape::d1(3));
        assert!(a.matmul(&c).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(Shape::d2(9, 5), &mut rng);
        let b = Tensor::randn(Shape::d2(9, 6), &mut rng);
        let expected = a.transpose2().matmul(&b).unwrap();
        assert_close(&a.matmul_tn(&b).unwrap(), &expected, 1e-5);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(Shape::d2(4, 7), &mut rng);
        let b = Tensor::randn(Shape::d2(6, 7), &mut rng);
        let expected = a.matmul(&b.transpose2()).unwrap();
        assert_close(&a.matmul_nt(&b).unwrap(), &expected, 1e-5);
    }

    #[test]
    fn transposed_variants_reject_mismatch() {
        let a = Tensor::zeros(Shape::d2(3, 4));
        let b = Tensor::zeros(Shape::d2(5, 6));
        assert!(a.matmul_tn(&b).is_err());
        assert!(a.matmul_nt(&b).is_err());
    }

    #[test]
    fn zero_dimension_edge_cases() {
        let a = Tensor::zeros(Shape::d2(0, 3));
        let b = Tensor::zeros(Shape::d2(3, 2));
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &Shape::d2(0, 2));
    }

    /// Scalar reference supporting every `gemm_ex` flag combination.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ta: bool,
        tb: bool,
        acc: bool,
    ) {
        if !acc {
            out.fill(0.0);
        }
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a_at(a, m, k, i, p, ta) * b_at(b, k, n, p, j, tb);
                }
                out[i * n + j] += s;
            }
        }
    }

    #[test]
    fn gemm_ex_all_variants_match_reference_on_awkward_dims() {
        let mut rng = Rng::seed_from(6);
        // Prime-ish dims exercise every partial strip and padded panel;
        // 97·61·53 exceeds PARALLEL_THRESHOLD so the pooled path runs too.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (17, 13, 19),
            (31, 7, 29),
            (97, 61, 53),
        ] {
            let av: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let bv: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            for &(ta, tb) in &[(false, false), (true, false), (false, true)] {
                for &acc in &[false, true] {
                    let mut got: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
                    let mut want = got.clone();
                    gemm_ex(&mut got, &av, &bv, m, k, n, ta, tb, acc);
                    reference(&mut want, &av, &bv, m, k, n, ta, tb, acc);
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g - w).abs() <= 1e-4 * (1.0 + g.abs().max(w.abs())),
                            "m={m} k={k} n={n} ta={ta} tb={tb} acc={acc}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_ex_accumulate_adds_to_existing_output() {
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(Shape::d2(6, 4), &mut rng);
        let b = Tensor::randn(Shape::d2(4, 5), &mut rng);
        let product = a.matmul(&b).unwrap();
        let mut out = vec![1.0f32; 6 * 5];
        gemm_ex(&mut out, a.data(), b.data(), 6, 4, 5, false, false, true);
        for (o, p) in out.iter().zip(product.data()) {
            assert!((o - (p + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn repeated_calls_are_bit_identical() {
        // Same problem twice through the pooled path must produce the very
        // same bits (task partition is independent of scheduling).
        let mut rng = Rng::seed_from(8);
        let a = Tensor::randn(Shape::d2(128, 80), &mut rng);
        let b = Tensor::randn(Shape::d2(80, 72), &mut rng);
        let first = a.matmul(&b).unwrap();
        for _ in 0..4 {
            assert_eq!(a.matmul(&b).unwrap().data(), first.data());
        }
    }

    /// Rows `rows` of op(A), in the storage layout `trans_a` expects.
    fn a_rows(a: &[f32], m: usize, k: usize, rows: &[usize], trans: bool) -> Vec<f32> {
        if trans {
            (0..k)
                .flat_map(|p| rows.iter().map(move |&i| a[p * m + i]))
                .collect()
        } else {
            rows.iter()
                .flat_map(|&i| &a[i * k..(i + 1) * k])
                .copied()
                .collect()
        }
    }

    /// Columns `cols` of op(B), in the storage layout `trans_b` expects.
    fn b_cols(b: &[f32], k: usize, n: usize, cols: &[usize], trans: bool) -> Vec<f32> {
        if trans {
            cols.iter()
                .flat_map(|&j| &b[j * k..(j + 1) * k])
                .copied()
                .collect()
        } else {
            (0..k)
                .flat_map(|p| cols.iter().map(move |&j| b[p * n + j]))
                .collect()
        }
    }

    #[test]
    fn gemm_ex_on_slices_equals_the_block_of_the_full_product_bitwise() {
        // A batch-1 call must give the very bits the same row or column
        // gets inside a larger call. 27 rows is conv0's dcol (not a
        // multiple of MR); k = 300 and 520 cross KC; the last two shapes
        // exceed PARALLEL_THRESHOLD while most of their slices do not.
        let mut rng = Rng::seed_from(9);
        for &(m, k, n) in &[(27, 300, 70), (9, 16, 5), (97, 61, 53), (130, 520, 40)] {
            let av: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let bv: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let init: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01 - 0.5).collect();
            let slices: [(Vec<usize>, Vec<usize>); 4] = [
                ((3..m - 2).collect(), (1..n - 3).collect()),
                ((0..m).collect(), vec![n - 1]),
                (vec![m / 2], (0..n).collect()),
                (vec![m - 1], vec![0]),
            ];
            for &(ta, tb) in &[(false, false), (true, false), (false, true)] {
                for &acc in &[false, true] {
                    let mut full = init.clone();
                    gemm_ex(&mut full, &av, &bv, m, k, n, ta, tb, acc);
                    for (rows, cols) in &slices {
                        let (sm, sn) = (rows.len(), cols.len());
                        let sa = a_rows(&av, m, k, rows, ta);
                        let sb = b_cols(&bv, k, n, cols, tb);
                        let mut got: Vec<f32> = rows
                            .iter()
                            .flat_map(|&i| cols.iter().map(move |&j| (i, j)))
                            .map(|(i, j)| init[i * n + j])
                            .collect();
                        gemm_ex(&mut got, &sa, &sb, sm, k, sn, ta, tb, acc);
                        for (r, &i) in rows.iter().enumerate() {
                            for (c, &j) in cols.iter().enumerate() {
                                assert_eq!(
                                    got[r * sn + c].to_bits(),
                                    full[i * n + j].to_bits(),
                                    "m={m} k={k} n={n} ta={ta} tb={tb} acc={acc} \
                                     slice {sm}x{sn} at ({i}, {j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Runs `kernel` on one strip of `rows` valid rows starting at row
    /// `row0` of op(A) against one packed panel of B, once over every
    /// depth step and once over a kept-row list, and checks every valid row
    /// against `step` folded over those depths in ascending order.
    fn check_microkernel(
        kernel: fn(Depths, &AStrip, &[f32], &mut [f32; MR * NR]),
        step: fn(f32, f32, f32) -> f32,
    ) {
        let mut rng = Rng::seed_from(10);
        let (m, k, n) = (27, 37, NR);
        let av: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let bv: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let all: Vec<u32> = (0..k as u32).collect();
        let some: Vec<u32> = (0..k as u32).filter(|p| p % 3 != 1).collect();
        for depths in [&all, &some] {
            // The kept rows of B, packed back to back.
            let kept_b: Vec<f32> = depths
                .iter()
                .flat_map(|&p| &bv[p as usize * n..][..n])
                .copied()
                .collect();
            let mut bp = vec![0.0f32; depths.len() * NR];
            pack_b(
                &mut bp,
                &kept_b,
                depths.len(),
                n,
                0,
                depths.len(),
                0,
                n,
                false,
            );
            let steps = Depths {
                kc: k,
                kept: (depths.len() < k).then_some(&depths[..]),
            };
            for trans in [false, true] {
                // Stored as op(A) or as its transpose.
                let stored: Vec<f32> = if trans {
                    (0..k)
                        .flat_map(|p| (0..m).map(|i| av[i * k + p]).collect::<Vec<_>>())
                        .collect()
                } else {
                    av.clone()
                };
                let (row_stride, col_stride) = if trans { (1, m) } else { (k, 1) };
                for (row0, rows) in [(0, MR), (8, MR), (24, 3)] {
                    let strip = AStrip {
                        a: &stored,
                        rows: std::array::from_fn(|r| (row0 + r.min(rows - 1)) * row_stride),
                        col_stride,
                    };
                    let mut acc = [0.0f32; MR * NR];
                    kernel(steps, &strip, &bp, &mut acc);
                    for r in 0..rows {
                        for c in 0..NR {
                            let want = depths.iter().fold(0.0f32, |s, &p| {
                                let p = p as usize;
                                step(av[(row0 + r) * k + p], bv[p * n + c], s)
                            });
                            assert_eq!(
                                acc[r * NR + c].to_bits(),
                                want.to_bits(),
                                "trans={trans} steps={} row {} col {c}",
                                depths.len(),
                                row0 + r
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_microkernel_matches_scalar_reference_bitwise() {
        // Hosts with AVX2 never dispatch here, so call it directly.
        check_microkernel(microkernel_portable, |a, b, s| s + a * b);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_microkernel_matches_fused_reference_bitwise() {
        if !x86::available() {
            return;
        }
        check_microkernel(
            // SAFETY: AVX2 and FMA presence checked above.
            |depths, a, bp, acc| unsafe { x86::microkernel(depths, a, bp, acc) },
            |a, b, s| a.mul_add(b, s),
        );
    }

    #[test]
    fn small_path_flops_are_counted_apart_from_timed_ones() {
        // Counters are process-global and sibling tests run GEMMs
        // concurrently, so only lower bounds on the deltas are exact.
        let (m, k, n) = (4, 5, 6);
        assert!(m * k * n < SMALL_THRESHOLD);
        let before = telem::gemm_small_flops().get();
        let mut out = vec![0.0f32; m * n];
        gemm_ex(
            &mut out, &[1.0; 20], &[1.0; 30], m, k, n, false, false, false,
        );
        assert!(telem::gemm_small_flops().get() - before >= (2 * m * k * n) as u64);
        assert!(telem::gemm_small_flops().get() <= telem::gemm_flops().get());
    }
}
