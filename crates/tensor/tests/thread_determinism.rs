//! Bit-exact determinism across thread counts.
//!
//! The worker pool reads `HS_NUM_THREADS` once at startup, so the only
//! way to compare thread counts in one test run is to re-execute this
//! test binary as a subprocess per configuration. The hidden `#[ignore]`
//! test below computes a fingerprint over the parallel kernels (blocked
//! GEMM in all transpose variants and over both convolution patch
//! operands, pooled reductions, elementwise maps)
//! and prints it; the driver runs it under `HS_NUM_THREADS=1` and `=4`
//! and asserts the fingerprints are identical bit for bit.

use std::process::Command;

use hs_tensor::{gemm_patches, Conv2dGeometry, Patches, Rng, Shape, Tensor};

fn fnv1a(hash: &mut u64, bits: u32) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(hash: &mut u64, t: &Tensor) {
    for &v in t.data() {
        fnv1a(hash, v.to_bits());
    }
}

/// Hidden worker: prints `FINGERPRINT:<hex>` for the parallel kernels.
/// Sized so every kernel takes its pooled path (products and lengths
/// above the parallel thresholds).
#[test]
#[ignore = "subprocess worker for thread_count_does_not_change_results"]
fn fingerprint() {
    let mut rng = Rng::seed_from(7);
    let a = Tensor::randn(Shape::d2(192, 160), &mut rng);
    let b = Tensor::randn(Shape::d2(160, 176), &mut rng);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    digest(&mut hash, &a.matmul(&b).unwrap());
    digest(
        &mut hash,
        &a.matmul_nt(&Tensor::randn(Shape::d2(176, 160), &mut rng))
            .unwrap(),
    );
    digest(
        &mut hash,
        &a.matmul_tn(&Tensor::randn(Shape::d2(192, 176), &mut rng))
            .unwrap(),
    );
    // Implicit convolution: 72 filters span two row blocks, and batch 9
    // gives panels that straddle output positions.
    let geom = Conv2dGeometry::new(16, 8, 8, 3, 1, 1);
    let x = Tensor::randn(Shape::d4(9, 16, 8, 8), &mut rng);
    let w = Tensor::randn(Shape::d2(72, geom.col_rows()), &mut rng);
    let mut y = vec![0.0f32; 72 * 9 * geom.col_cols()];
    let (patches, transposed) = (
        Patches::new(x.data(), &geom, 9),
        Patches::transposed(x.data(), &geom, 9),
    );
    gemm_patches(&mut y, w.data(), &patches, 72, false);
    let mut dw = vec![0.0f32; 72 * geom.col_rows()];
    gemm_patches(&mut dw, &y, &transposed, 72, false);
    for v in y.iter().chain(&dw) {
        fnv1a(&mut hash, v.to_bits());
    }
    let mut big = Tensor::randn(Shape::d2(256, 300), &mut rng);
    big.map_inplace(|v| v.max(0.0) * 1.000_1);
    fnv1a(&mut hash, big.sum().to_bits());
    fnv1a(&mut hash, big.sq_norm().to_bits());
    fnv1a(&mut hash, big.l1_norm().to_bits());
    digest(&mut hash, &big);
    println!("FINGERPRINT:{hash:016x}");
}

fn fingerprint_with_threads(threads: &str) -> String {
    let exe = std::env::current_exe().expect("current test binary path");
    let out = Command::new(exe)
        .args(["--ignored", "--exact", "fingerprint", "--nocapture"])
        .env("HS_NUM_THREADS", threads)
        .output()
        .expect("spawn fingerprint subprocess");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "fingerprint subprocess failed under HS_NUM_THREADS={threads}:\n{stdout}"
    );
    stdout
        .lines()
        .find_map(|l| {
            // `--nocapture` interleaves the print with the harness's own
            // "test fingerprint ..." line, so search anywhere in the line.
            let idx = l.find("FINGERPRINT:")?;
            Some(l[idx + "FINGERPRINT:".len()..].trim().to_owned())
        })
        .unwrap_or_else(|| panic!("no fingerprint in output:\n{stdout}"))
}

#[test]
fn thread_count_does_not_change_results() {
    let serial = fingerprint_with_threads("1");
    let parallel = fingerprint_with_threads("4");
    assert_eq!(
        serial, parallel,
        "kernels produced different bits under HS_NUM_THREADS=1 vs 4"
    );
}
