//! Host-speed calibration.
//!
//! The host the benchmark runs on is shared: its speed drifts by up to
//! 1.7× over tens of seconds to minutes, and whole runs land in slow or
//! fast phases. Every end-to-end time is therefore divided by the speed of
//! a fixed reference computation timed beside it, and scaled back to
//! seconds on the baseline host:
//!
//! ```text
//! reported = raw × REFERENCE_NOMINAL_S / reference_seconds_around_it
//! ```
//!
//! The reference is written here, apart from the repository's crates, so
//! no change to the program moves it: a faster program still reads
//! faster, a slower host does not read slower. It is a small convolutional
//! network forward pass shaped like the served model (quarter-width vgg11
//! convs on 16 px, one image) plus a 256×256 matrix product, both through
//! a frozen, single-threaded copy of the blocked GEMM the program had when
//! the benchmark was defined. The GEMM is what makes it track: the host's
//! slow phases slow packed, register-tiled FMA code more than plain loops,
//! and references built from plain loops followed the program's swings
//! only part of the way. Raw times stay in the detail line.

use std::time::Instant;

/// Seconds one reference timing takes on the baseline host (the 2-vCPU
/// Xeon VM of `baseline.json`), at a median host phase.
pub const REFERENCE_NOMINAL_S: f64 = 0.0095;

/// Forward passes per reference timing.
const FORWARDS: usize = 4;
/// Side of the square matrices of the reference's matrix product, and
/// products per timing: 768 KB of operands, streamed from L2.
const MATMUL_N: usize = 256;
const MATMUL_REPS: usize = 6;

/// `(in_channels, out_channels, 2×2 max-pool after)` of each 3×3 conv.
const CONVS: [(usize, usize, bool); 8] = [
    (3, 16, true),
    (16, 32, true),
    (32, 64, false),
    (64, 64, true),
    (64, 128, false),
    (128, 128, true),
    (128, 128, false),
    (128, 128, false),
];
const SIZE: usize = 16;
const CLASSES: usize = 16;

/// The reference: a network with fixed weights and one fixed image, and
/// a matrix product.
pub struct Reference {
    convs: Vec<Vec<f32>>,
    classifier: Vec<f32>,
    image: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Reference {
    pub fn new() -> Reference {
        // A 32-bit LCG: the weights never change between runs or hosts.
        let mut state = 0x2545_F491_u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let convs = CONVS
            .iter()
            .map(|&(ci, co, _)| (0..ci * 9 * co).map(|_| 0.2 * next()).collect())
            .collect();
        let classifier = (0..CONVS[7].1 * CLASSES).map(|_| next()).collect();
        let image = (0..CONVS[0].0 * SIZE * SIZE).map(|_| next()).collect();
        let square = MATMUL_N * MATMUL_N;
        Reference {
            convs,
            classifier,
            image,
            a: (0..square).map(|_| next()).collect(),
            b: (0..square).map(|_| next()).collect(),
            c: vec![0.0; square],
        }
    }

    /// One reference timing's work: [`FORWARDS`] forward passes and
    /// [`MATMUL_REPS`] matrix products.
    fn run(&mut self) {
        let mut sink = 0.0f32;
        for _ in 0..FORWARDS {
            sink += self.forward();
        }
        for _ in 0..MATMUL_REPS {
            gemm_acc(&self.a, MATMUL_N, &self.b, &mut self.c, MATMUL_N);
            sink += self.c[0];
            self.c.fill(0.0);
        }
        std::hint::black_box(sink);
    }

    fn forward(&self) -> f32 {
        let mut x = self.image.clone();
        let mut size = SIZE;
        for (&(ci, co, pool), w) in CONVS.iter().zip(&self.convs) {
            x = conv3x3_relu(&x, ci, size, w, co);
            if pool {
                x = max_pool2(&x, co, size);
                size /= 2;
            }
        }
        let features = CONVS[7].1;
        let logits: Vec<f32> = self
            .classifier
            .chunks_exact(features)
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        logits.iter().fold(f32::MIN, |m, &v| m.max(v))
    }
}

/// 3×3 convolution, padding 1, stride 1, then ReLU: im2col and a GEMM.
fn conv3x3_relu(x: &[f32], ci: usize, size: usize, w: &[f32], co: usize) -> Vec<f32> {
    let pixels = size * size;
    let k = ci * 9;
    let mut col = vec![0.0f32; k * pixels];
    for c in 0..ci {
        for ky in 0..3 {
            for kx in 0..3 {
                let row = &mut col[((c * 3 + ky) * 3 + kx) * pixels..][..pixels];
                for y in 0..size {
                    let Some(sy) = (y + ky).checked_sub(1).filter(|&s| s < size) else {
                        continue;
                    };
                    for xx in 0..size {
                        if let Some(sx) = (xx + kx).checked_sub(1).filter(|&s| s < size) {
                            row[y * size + xx] = x[c * pixels + sy * size + sx];
                        }
                    }
                }
            }
        }
    }
    let mut out = vec![0.0f32; co * pixels];
    gemm_acc(w, k, &col, &mut out, pixels);
    for v in &mut out {
        *v = v.max(0.0);
    }
    out
}

/// Register tile and cache blocks of the GEMM below.
const MR: usize = 8;
const NR: usize = 8;
const MC: usize = 64;
const KC: usize = 256;
const NC: usize = 2048;

/// `c += a·b` for row-major `a` (rows × `k`), `b` (`k` × `n`) and `c`
/// (rows × `n`), the rows taken from `c`'s length. A single-threaded copy
/// of the blocked GEMM `hs_tensor::matmul` had when the benchmark was
/// defined (pack A strips and B panels, an 8×8 register-tiled kernel),
/// frozen here so that it keeps timing the host, not the program.
fn gemm_acc(a: &[f32], k: usize, b: &[f32], c: &mut [f32], n: usize) {
    let m = c.len() / n;
    let mut ap = vec![0.0f32; MC * KC];
    let mut bp = vec![0.0f32; KC * NC.min(n.div_ceil(NR) * NR)];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for (pj, jr) in (0..nc).step_by(NR).enumerate() {
                for p in 0..kc {
                    for col in 0..NR {
                        bp[(pj * kc + p) * NR + col] = if jr + col < nc {
                            b[(pc + p) * n + jc + jr + col]
                        } else {
                            0.0
                        };
                    }
                }
            }
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for (si, strip) in (0..mc).step_by(MR).enumerate() {
                    for p in 0..kc {
                        for r in 0..MR {
                            ap[(si * kc + p) * MR + r] = if strip + r < mc {
                                a[(ic + strip + r) * k + pc + p]
                            } else {
                                0.0
                            };
                        }
                    }
                }
                for (si, strip) in (0..mc).step_by(MR).enumerate() {
                    let rows = MR.min(mc - strip);
                    let a_strip = &ap[si * kc * MR..(si + 1) * kc * MR];
                    for (pj, jr) in (0..nc).step_by(NR).enumerate() {
                        let cols = NR.min(nc - jr);
                        let mut acc = [0.0f32; MR * NR];
                        microkernel(kc, a_strip, &bp[pj * kc * NR..(pj + 1) * kc * NR], &mut acc);
                        for r in 0..rows {
                            let dst = &mut c[(ic + strip + r) * n + jc + jr..][..cols];
                            for (o, v) in dst.iter_mut().zip(&acc[r * NR..r * NR + cols]) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            // SAFETY: the CPU supports the enabled features (checked
            // above), and both panels hold `kc` cells of 8.
            return unsafe { microkernel_fma(kc, ap, bp, acc) };
        }
    }
    for p in 0..kc {
        for r in 0..MR {
            for col in 0..NR {
                acc[r * NR + col] = ap[p * MR + r].mul_add(bp[p * NR + col], acc[r * NR + col]);
            }
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2 and FMA, and `ap` and `bp` must hold at
/// least `kc * 8` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    use std::arch::x86_64::*;
    let mut rows = [_mm256_setzero_ps(); MR];
    for p in 0..kc {
        let b = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
        for (r, row) in rows.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*ap.as_ptr().add(p * MR + r));
            *row = _mm256_fmadd_ps(a, b, *row);
        }
    }
    for (r, row) in rows.iter().enumerate() {
        _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR), *row);
    }
}

fn max_pool2(x: &[f32], channels: usize, size: usize) -> Vec<f32> {
    let half = size / 2;
    let mut out = vec![0.0f32; channels * half * half];
    for c in 0..channels {
        let plane = &x[c * size * size..(c + 1) * size * size];
        for y in 0..half {
            for xx in 0..half {
                let at = |dy: usize, dx: usize| plane[(2 * y + dy) * size + 2 * xx + dx];
                out[(c * half + y) * half + xx] =
                    at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1));
            }
        }
    }
    out
}

/// The reference timings of one run, each as `(start, end)` on the
/// clock of [`Calibration::now`], in order.
pub struct Calibration {
    reference: Reference,
    start: Instant,
    probes: Vec<(f64, f64)>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut reference = Reference::new();
        // Warm the reference's code and allocations once, untimed.
        reference.run();
        Calibration {
            reference,
            start: Instant::now(),
            probes: Vec::new(),
        }
    }

    /// Seconds since the calibration started: the clock of [`Self::scaled`].
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times the reference once.
    pub fn probe(&mut self) {
        let start = self.now();
        self.reference.run();
        self.probes.push((start, self.now()));
    }

    /// Times the reference if `interval` seconds have passed since the
    /// last timing ended.
    pub fn probe_every(&mut self, interval: f64) {
        if self
            .probes
            .last()
            .is_none_or(|p| self.now() - p.1 >= interval)
        {
            self.probe();
        }
    }

    /// The program's seconds over `[t0, t1]` (reference timings inside it
    /// left out), raw and on the baseline host's scale. Each stretch
    /// between timings is scaled by [`REFERENCE_NOMINAL_S`] over the mean
    /// of the timings that bracket it; a stretch with no timing on either
    /// side is left unscaled.
    pub fn scaled(&self, t0: f64, t1: f64) -> (f64, f64) {
        let before = self.probes.iter().rev().find(|p| p.1 <= t0);
        let inside = self.probes.iter().filter(|p| p.0 >= t0 && p.1 <= t1);
        let after = self.probes.iter().find(|p| p.0 >= t1);
        // The bracketing timings in order, `None` where one is missing,
        // and the program stretches between them.
        let marks: Vec<Option<&(f64, f64)>> = std::iter::once(before)
            .chain(inside.map(Some))
            .chain(std::iter::once(after))
            .collect();
        let (mut raw, mut scaled) = (0.0, 0.0);
        for pair in marks.windows(2) {
            let from = pair[0].map_or(t0, |p| p.1.max(t0));
            let to = pair[1].map_or(t1, |p| p.0.min(t1));
            let secs = (to - from).max(0.0);
            let durations: Vec<f64> = pair.iter().flatten().map(|p| p.1 - p.0).collect();
            let k = if durations.is_empty() {
                1.0
            } else {
                REFERENCE_NOMINAL_S * durations.len() as f64 / durations.iter().sum::<f64>()
            };
            raw += secs;
            scaled += secs * k;
        }
        (raw, scaled)
    }

    /// Every reference timing, in seconds.
    pub fn timings(&self) -> Vec<f64> {
        self.probes.iter().map(|p| p.1 - p.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.forward().to_bits(), b.forward().to_bits());
        assert_eq!(a.forward().to_bits(), a.forward().to_bits());
        assert!(a.forward().is_finite());
    }

    #[test]
    fn scaled_leaves_out_timings_and_scales_each_stretch() {
        let mut c = Calibration::new();
        let n = REFERENCE_NOMINAL_S;
        // Timings of n, 2n (inside [1, 10]) and 3n.
        c.probes = vec![(0.0, n), (5.0, 5.0 + 2.0 * n), (20.0, 20.0 + 3.0 * n)];
        let (raw, scaled) = c.scaled(1.0, 10.0);
        assert!((raw - (9.0 - 2.0 * n)).abs() < 1e-12);
        // [1, 5] between n and 2n; [5 + 2n, 10] between 2n and 3n.
        let want = 4.0 / 1.5 + (5.0 - 2.0 * n) / 2.5;
        assert!((scaled - want).abs() < 1e-12, "{scaled} vs {want}");
        // No timings at all: unscaled.
        assert_eq!(Calibration::new().scaled(0.0, 2.0), (2.0, 2.0));
    }
}
