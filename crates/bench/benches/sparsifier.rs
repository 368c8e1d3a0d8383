//! E9 timing: decremental sparsifier deletion batches across bundle
//! depths t, plus initialization cost vs the static Koutis-style build.

use bds_baseline::static_sparsifier;
use bds_graph::api::{Decremental, DeltaBuf};
use bds_graph::gen;
use bds_graph::stream::UpdateStream;
use bds_sparsify::DecrementalSparsifier;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_sparsifier(c: &mut Criterion) {
    let n = 1 << 10;
    let m = 16 * n;
    let mut g = c.benchmark_group("sparsifier_delete_batch64");
    for &t in &[1u32, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |bench, &t| {
            let edges = gen::gnm_connected(n, m, t as u64);
            bench.iter_batched(
                || {
                    let s = DecrementalSparsifier::new(n, &edges, t, 7);
                    let mut stream = UpdateStream::new(n, &edges, 9);
                    let batch = stream.next_deletions(64);
                    (s, batch)
                },
                |(mut s, batch)| {
                    let mut delta = DeltaBuf::new();
                    s.delete_into(&batch, &mut delta);
                    delta
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();

    let mut g = c.benchmark_group("sparsifier_init");
    let edges = gen::gnm_connected(n, m, 3);
    g.bench_function("dynamic_t2", |b| {
        b.iter(|| DecrementalSparsifier::new(n, &edges, 2, 11))
    });
    g.bench_function("static_koutis_t2", |b| {
        b.iter(|| static_sparsifier(n, &edges, 5, 2, 2, 13))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sparsifier
}
criterion_main!(benches);
