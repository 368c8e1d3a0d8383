//! E4: parallel self-speedup of batch processing. The monotone spanner's
//! O(log n) independent clustering instances process a deletion batch in
//! parallel — the depth win of the batch-dynamic model — so thread count
//! directly scales the per-batch wall clock.

use bds_bundle::MonotoneSpanner;
use bds_graph::api::{Decremental, DeltaBuf};
use bds_graph::gen;
use bds_par::run_with_threads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_scaling(c: &mut Criterion) {
    let n = 1 << 12;
    let edges = gen::gnm_connected(n, 8 * n, 5);
    let mut g = c.benchmark_group("monotone_batch256_threads");
    for &threads in &[1usize, 2] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, &p| {
                bench.iter_batched(
                    || {
                        let s = MonotoneSpanner::with_params(n, &edges, 12, 0.25, 17);
                        let batch: Vec<_> = edges[..256].to_vec();
                        (s, batch)
                    },
                    |(mut s, batch)| {
                        run_with_threads(p, move || {
                            let mut delta = DeltaBuf::new();
                            s.delete_into(&batch, &mut delta);
                            delta
                        })
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("monotone_init_threads");
    for &threads in &[1usize, 2] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, &p| {
                bench.iter(|| {
                    run_with_threads(p, || MonotoneSpanner::with_params(n, &edges, 12, 0.25, 19))
                });
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);
