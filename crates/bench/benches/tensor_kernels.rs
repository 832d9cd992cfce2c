//! Micro-benchmarks of the tensor kernels every experiment rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hs_tensor::{im2col, Conv2dGeometry, Rng, Shape, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for &n in &[32usize, 64, 128] {
        let mut rng = Rng::seed_from(0);
        let a = Tensor::randn(Shape::d2(n, n), &mut rng);
        let b = Tensor::randn(Shape::d2(n, n), &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b).expect("matmul"));
        });
    }
    group.finish();
}

fn bench_matmul_transposed_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_variants");
    group.sample_size(20);
    let mut rng = Rng::seed_from(1);
    let a = Tensor::randn(Shape::d2(96, 96), &mut rng);
    let b = Tensor::randn(Shape::d2(96, 96), &mut rng);
    group.bench_function("nn", |bench| bench.iter(|| a.matmul(&b).expect("nn")));
    group.bench_function("tn", |bench| bench.iter(|| a.matmul_tn(&b).expect("tn")));
    group.bench_function("nt", |bench| bench.iter(|| a.matmul_nt(&b).expect("nt")));
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    group.sample_size(20);
    for &(channels, size) in &[(16usize, 16usize), (64, 16), (64, 32)] {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(Shape::d4(1, channels, size, size), &mut rng);
        let geom = Conv2dGeometry::new(channels, size, size, 3, 1, 1);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{channels}c_{size}px")),
            &geom,
            |bench, geom| {
                bench.iter(|| im2col(&x, geom).expect("im2col"));
            },
        );
    }
    group.finish();
}

fn bench_index_select(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    // A VGG-sized weight tensor: select half the filters (surgery's core op).
    let w = Tensor::randn(Shape::d4(128, 128, 3, 3), &mut rng);
    let keep: Vec<usize> = (0..128).step_by(2).collect();
    c.bench_function("index_select_filters", |bench| {
        bench.iter(|| w.index_select(0, &keep).expect("select"));
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_transposed_variants,
    bench_im2col,
    bench_index_select
);
criterion_main!(benches);
