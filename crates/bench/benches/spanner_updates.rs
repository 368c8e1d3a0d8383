//! E3 timing: amortized batch-update latency of the fully-dynamic
//! (2k−1)-spanner vs batch size, against the recompute baseline — plus
//! the PR-1 hashmap-vs-table comparison on the ground-truth edge set.

use bds_baseline::RecomputeBaseline;
use bds_bench::standard_workload;
use bds_core::FullyDynamicSpanner;
use bds_dstruct::FxHashSet;
use bds_graph::api::{DeltaBuf, FullyDynamic};
use bds_graph::types::{Edge, V};
use bds_graph::DynamicGraph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_updates(c: &mut Criterion) {
    let n = 1 << 12;
    let mut g = c.benchmark_group("spanner_batch_update");
    for &b in &[16usize, 256, 2048] {
        g.throughput(Throughput::Elements(b as u64));
        g.bench_with_input(BenchmarkId::new("dynamic_k3", b), &b, |bench, &b| {
            let (edges, mut stream) = standard_workload(n, 7);
            let mut s = FullyDynamicSpanner::new(n, 3, &edges, 11);
            let mut delta = DeltaBuf::new();
            bench.iter(|| {
                let batch = stream.next_batch(b / 2 + 1, b / 2);
                s.apply_into(&batch, &mut delta);
                delta.recourse()
            });
        });
        g.bench_with_input(BenchmarkId::new("recompute_k3", b), &b, |bench, &b| {
            let (edges, mut stream) = standard_workload(n, 7);
            let mut s = RecomputeBaseline::new(n, 3, &edges, 13);
            bench.iter(|| {
                let batch = stream.next_batch(b / 2 + 1, b / 2);
                s.process_batch(&batch.insertions, &batch.deletions);
            });
        });
    }
    g.finish();
}

/// The seed's `DynamicGraph` adjacency: per-vertex hash sets. Kept here
/// as the baseline side of the hashmap-vs-table comparison.
struct HashSetGraph {
    adj: Vec<FxHashSet<V>>,
}

impl HashSetGraph {
    fn new(n: usize) -> Self {
        Self {
            adj: vec![FxHashSet::default(); n],
        }
    }

    fn insert(&mut self, e: Edge) -> bool {
        if self.adj[e.u as usize].insert(e.v) {
            self.adj[e.v as usize].insert(e.u);
            true
        } else {
            false
        }
    }

    fn remove(&mut self, e: Edge) -> bool {
        if self.adj[e.u as usize].remove(&e.v) {
            self.adj[e.v as usize].remove(&e.u);
            true
        } else {
            false
        }
    }

    fn contains(&self, e: Edge) -> bool {
        self.adj[e.u as usize].contains(&e.v)
    }
}

/// Ground-truth edge-set churn (insert / contains / remove mix) through
/// the packed EdgeTable-backed `DynamicGraph` vs the seed's hash-set
/// adjacency — the "de-hashmap the hot paths" measurement at the graph
/// layer.
fn bench_edge_membership(c: &mut Criterion) {
    let n = 1 << 14;
    let (edges, mut stream) = standard_workload(n, 23);
    let mut batches = Vec::new();
    for _ in 0..64 {
        batches.push(stream.next_batch(64, 64));
    }
    let ops: u64 = batches.iter().map(|b| b.len() as u64 * 2).sum();
    let mut g = c.benchmark_group("edge_membership_churn");
    g.throughput(Throughput::Elements(ops));
    g.bench_function("edge_table_dyngraph", |b| {
        b.iter_batched(
            || DynamicGraph::from_edges(n, &edges),
            |mut graph| {
                for batch in &batches {
                    for &e in &batch.deletions {
                        assert!(graph.contains(e));
                        graph.remove(e);
                    }
                    for &e in &batch.insertions {
                        assert!(!graph.contains(e));
                        graph.insert(e);
                    }
                }
                graph.m()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("fxhashset_adjacency", |b| {
        b.iter_batched(
            || {
                let mut graph = HashSetGraph::new(n);
                for &e in &edges {
                    graph.insert(e);
                }
                graph
            },
            |mut graph| {
                let mut m = 0usize;
                for batch in &batches {
                    for &e in &batch.deletions {
                        assert!(graph.contains(e));
                        graph.remove(e);
                    }
                    for &e in &batch.insertions {
                        assert!(!graph.contains(e));
                        graph.insert(e);
                        m += 1;
                    }
                }
                m
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_updates, bench_edge_membership
}
criterion_main!(benches);
