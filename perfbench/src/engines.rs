//! Engine factories and the hand-back wrapper.

use crate::gen::{Kind, Spec};
use bds_graph::api::{BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf, FullyDynamic};
use bds_graph::shard::{HashPartitioner, Partitioner, ShardedEngine, ShardedEngineBuilder};
use bds_graph::types::{Edge, UpdateBatch};
use std::sync::{Arc, Mutex};

/// Builds lane `i`'s engine over its edges.
pub type Make<S> = Arc<dyn Fn(usize, &[Edge]) -> Result<S, ConfigError> + Send + Sync>;

/// Lane engines handed back when a serve loop drops its engine.
pub type Home<S> = Arc<Mutex<Vec<Option<S>>>>;

/// Wrap a factory so that it sees each lane's edges in sorted order:
/// the engine then depends on the lane's edge *set* only, which makes a
/// build from a snapshot (whose edge order differs) replay-identical.
pub fn sorted<S>(
    f: impl Fn(usize, &[Edge]) -> Result<S, ConfigError> + Send + Sync + 'static,
) -> Make<S> {
    Arc::new(move |i, es| {
        let mut v = es.to_vec();
        v.sort_unstable();
        f(i, &v)
    })
}

/// Engine randomness is configuration, not input: every run uses the
/// spanner builders' default seed (mixed per lane), so the workload seed
/// varies only the graph, the update stream and the queries.
const ENGINE_SEED: u64 = 0x5eed;

fn lane_seed(i: usize) -> u64 {
    ENGINE_SEED ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

pub fn spanner_make(spec: &Spec) -> Make<bds_contract::SparseSpanner> {
    let n = spec.n;
    sorted(move |i, es| {
        bds_contract::SparseSpanner::builder(n)
            .seed(lane_seed(i))
            .build(es)
    })
}

pub fn durable_make(spec: &Spec) -> Make<bds_core::FullyDynamicSpanner> {
    let (n, k) = (spec.n, spec.k);
    sorted(move |i, es| {
        bds_core::FullyDynamicSpanner::builder(n)
            .stretch(k)
            .seed(lane_seed(i))
            .build(es)
    })
}

/// The stretch the served union must stay within.
pub fn stretch_bound(spec: &Spec) -> f64 {
    match spec.kind {
        Kind::Durable => (2 * spec.k - 1) as f64,
        Kind::Spanner => {
            // Theorem 1.3 as implemented: a top Theorem 1.1 instance
            // with k = ⌈log₂ n⌉ (stretch 2k−1), and each contraction
            // level maps stretch t to 3t + 2.
            let levels = bds_contract::schedule::contraction_sequence(
                bds_contract::schedule::sparse_target(spec.n),
            )
            .len();
            let k_top = (spec.n as f64).log2().ceil();
            let mut t = 2.0 * k_top - 1.0;
            for _ in 0..levels {
                t = 3.0 * t + 2.0;
            }
            t
        }
    }
}

/// Sharded engine over `edges` with `HashPartitioner` lanes.
pub fn sharded<S: FullyDynamic + 'static>(
    spec: &Spec,
    edges: &[Edge],
    make: &Make<S>,
) -> Result<ShardedEngine<S, HashPartitioner>, ConfigError> {
    let make = Arc::clone(make);
    ShardedEngineBuilder::new(spec.n)
        .shards(spec.shards)
        .build_with(edges, move |i, es| make(i, es))
}

/// Like [`sharded`], but each lane engine is wrapped in a [`Handback`]
/// that returns it to `home` when the serve loop drops it.
pub fn sharded_handback<S: FullyDynamic + Send + 'static>(
    spec: &Spec,
    edges: &[Edge],
    make: &Make<S>,
    home: &Home<S>,
) -> Result<ShardedEngine<Handback<S>, HashPartitioner>, ConfigError> {
    let make = Arc::clone(make);
    let home = Arc::clone(home);
    ShardedEngineBuilder::new(spec.n)
        .shards(spec.shards)
        .build_with(edges, move |i, es| {
            Ok::<_, ConfigError>(Handback {
                inner: Some(make(i, es)?),
                lane: i,
                home: Arc::clone(&home),
            })
        })
}

/// Split a batch into per-lane sub-batches the way the engine routes it.
pub fn split(batch: &UpdateBatch, shards: usize) -> Vec<UpdateBatch> {
    let mut out = vec![UpdateBatch::default(); shards];
    for &e in &batch.insertions {
        if let Some(b) = out.get_mut(HashPartitioner.shard_of(e, shards)) {
            b.insertions.push(e);
        }
    }
    for &e in &batch.deletions {
        if let Some(b) = out.get_mut(HashPartitioner.shard_of(e, shards)) {
            b.deletions.push(e);
        }
    }
    out
}

/// A transparent [`FullyDynamic`] wrapper: every call goes straight to
/// the lane engine; when the serve loop drops its engine, the lane
/// engine is moved into `home` so the client can compare the served
/// view with the engine's own output.
pub struct Handback<S> {
    inner: Option<S>,
    lane: usize,
    home: Home<S>,
}

impl<S> Handback<S> {
    fn get(&self) -> &S {
        let Some(s) = &self.inner else {
            unreachable!("lane engine is taken only in drop")
        };
        s
    }
    fn get_mut(&mut self) -> &mut S {
        let Some(s) = &mut self.inner else {
            unreachable!("lane engine is taken only in drop")
        };
        s
    }
}

impl<S> Drop for Handback<S> {
    fn drop(&mut self) {
        if let (Some(s), Ok(mut home)) = (self.inner.take(), self.home.lock()) {
            if let Some(slot) = home.get_mut(self.lane) {
                *slot = Some(s);
            }
        }
    }
}

impl<S: BatchDynamic> BatchDynamic for Handback<S> {
    fn num_vertices(&self) -> usize {
        self.get().num_vertices()
    }
    fn num_live_edges(&self) -> usize {
        self.get().num_live_edges()
    }
    fn output_into(&self, out: &mut DeltaBuf) {
        self.get().output_into(out)
    }
    fn stats(&self) -> BatchStats {
        self.get().stats()
    }
    fn batch_seq(&self) -> u64 {
        self.get().batch_seq()
    }
}

impl<S: Decremental> Decremental for Handback<S> {
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.get_mut().delete_into(deletions, out)
    }
}

impl<S: FullyDynamic> FullyDynamic for Handback<S> {
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.get_mut().insert_into(insertions, out)
    }
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        self.get_mut().apply_into(batch, out)
    }
}
