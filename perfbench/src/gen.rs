//! Workload definitions and seeded input generation.
//!
//! Everything a run sends or asks is generated here before any timing
//! starts: the initial graph (a fixed data set per workload), and from
//! the seed a churn cycle and the read query sets; the probe edges are
//! reserved vertex pairs.
//!
//! **The update stream.** A churn cycle `C` of `cycle_len` updates is
//! generated against the initial graph; the stream a producer sends is
//! `C, C⁻¹, C, C⁻¹, …`, where `C⁻¹` undoes `C` in reverse order. The
//! stream is therefore legal forever (every insert is of an absent
//! edge, every delete of a live one) and returns to the initial graph
//! after each `C⁻¹`, so a faster program simply sends more of it. The
//! cycle length is a multiple of the batch size and no edge appears
//! twice in one aligned chunk of `batch` updates, so every chunk is an
//! engine-legal `UpdateBatch` — the batch sequence the traced run
//! replays.

use bds_dstruct::{FxHashMap, FxHashSet};
use bds_graph::serve::Update;
use bds_graph::types::{Edge, UpdateBatch, V};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SparseSpanner` (Theorem 1.3) lanes; reads are batch
    /// contains + degree on a pinned view.
    Spanner,
    /// `FullyDynamicSpanner` (Theorem 1.1) lanes behind a WAL; reads
    /// tail the log with a `FollowerView`.
    Durable,
}

/// One workload's constants. Rates and sizes are fixed here, never
/// derived at run time.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Vertices, including the `2 * probe_pairs` reserved probe ones.
    pub n: usize,
    pub probe_pairs: usize,
    pub shards: usize,
    /// `BatchPolicy::Fixed` size.
    pub batch: usize,
    /// Updates one flood sends, from a freshly built engine (a multiple
    /// of 64, the producer's send chunk).
    pub flood_ops: usize,
    /// Open-loop rate of the paced phase (updates/s, probes included).
    pub paced_rate: f64,
    /// Every `probe_every`-th paced update is a probe toggle.
    pub probe_every: usize,
    /// Mean reader think time between requests (drawn uniformly from
    /// `0..2 * think` with a seeded generator).
    pub think: Duration,
    /// Queries per read request.
    pub q: usize,
    pub cycle_len: usize,
    /// Batches the traced run replays through each layer.
    pub replay_batches: usize,
    /// `FullyDynamicSpanner` stretch parameter (durable only).
    pub k: u32,
    /// Preferential-attachment out-degree (durable only).
    pub pa_degree: usize,
    /// Snapshot cadence in batches (durable only).
    pub snapshot_every: u64,
    /// `FsyncPolicy::EveryN` group-commit interval in batches (durable
    /// only). One `fdatasync` per batch put the shared disk's latency
    /// swings (per-batch WAL time 0.17-0.47 ms between runs) into every
    /// end-to-end metric.
    pub fsync_every: u32,
}

pub fn spec(name: &str) -> Option<Spec> {
    match name {
        "spanner_serve" => Some(Spec {
            name: "spanner_serve",
            kind: Kind::Spanner,
            n: 20_000,
            probe_pairs: 256,
            shards: 2,
            batch: 1024,
            flood_ops: 192 * 1024,
            paced_rate: 8_000.0,
            probe_every: 32,
            think: Duration::from_millis(2),
            q: 1024,
            cycle_len: 1024 * 1024,
            replay_batches: 40,
            k: 0,
            pa_degree: 0,
            snapshot_every: 0,
            fsync_every: 0,
        }),
        "durable_small" => Some(Spec {
            name: "durable_small",
            kind: Kind::Durable,
            n: 1_000,
            probe_pairs: 64,
            shards: 2,
            batch: 32,
            flood_ops: 8 * 1024 * 32,
            paced_rate: 8_000.0,
            probe_every: 64,
            think: Duration::from_millis(2),
            q: 1024,
            cycle_len: 32 * 1024 * 32,
            replay_batches: 200,
            k: 4,
            pa_degree: 48,
            snapshot_every: 1024,
            fsync_every: 32,
        }),
        _ => None,
    }
}

/// A legal edge set with O(1) uniform sampling and removal.
#[derive(Default)]
struct Pool {
    edges: Vec<Edge>,
    idx: FxHashMap<Edge, usize>,
}

impl Pool {
    fn from(edges: &[Edge]) -> Self {
        let mut p = Pool::default();
        for &e in edges {
            p.insert(e);
        }
        p
    }
    fn contains(&self, e: Edge) -> bool {
        self.idx.contains_key(&e)
    }
    fn insert(&mut self, e: Edge) {
        if !self.idx.contains_key(&e) {
            self.idx.insert(e, self.edges.len());
            self.edges.push(e);
        }
    }
    fn remove(&mut self, e: Edge) {
        if let Some(i) = self.idx.remove(&e) {
            self.edges.swap_remove(i);
            if let Some(&moved) = self.edges.get(i) {
                self.idx.insert(moved, i);
            }
        }
    }
    fn sample(&self, rng: &mut StdRng) -> Option<Edge> {
        if self.edges.is_empty() {
            return None;
        }
        self.edges.get(rng.gen_range(0..self.edges.len())).copied()
    }
}

pub struct Inputs {
    /// Initial graph over vertices `0..n - 2 * probe_pairs`; the rest
    /// are the probe vertices.
    pub init: Vec<Edge>,
    cycle: Vec<Update>,
    /// Reserved bridges on isolated vertex pairs.
    pub probes: Vec<Edge>,
    /// Read queries: edges and their lower endpoints.
    pub query_edges: Vec<Edge>,
    pub query_vertices: Vec<V>,
    /// Human-readable graph parameters for provenance.
    pub graph: String,
}

const QUERY_SETS: usize = 8;

/// Each workload's initial graph is a fixed data set (generated from this
/// constant); the run seed drives the update stream, the read queries
/// and, through them, everything the engines do. A seeded graph made
/// engine costs that depend on one-off structure (a spanner's per-batch
/// fixed cost) vary by up to a quarter between seeds.
const GRAPH_SEED: u64 = 0x6e61_7068;

fn invert(u: Update) -> Update {
    match u {
        Update::Insert(e) => Update::Delete(e),
        Update::Delete(e) => Update::Insert(e),
    }
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbe4c_5e7e);
        let core = spec.n - 2 * spec.probe_pairs;
        let (init, graph) = match spec.kind {
            Kind::Spanner => (
                bds_graph::gen::gnm(core, 15 * core, GRAPH_SEED),
                format!("gnm n_core={core} m={}", 15 * core),
            ),
            Kind::Durable => (
                bds_graph::gen::preferential_attachment(core, spec.pa_degree, GRAPH_SEED),
                format!("preferential_attachment n_core={core} k={}", spec.pa_degree),
            ),
        };
        let cycle = churn(spec, core, &init, &mut rng);
        let probes = (0..spec.probe_pairs)
            .map(|i| Edge::new((core + 2 * i) as V, (core + 2 * i + 1) as V))
            .collect();
        let mut inputs = Inputs {
            init,
            cycle,
            probes,
            query_edges: Vec::new(),
            query_vertices: Vec::new(),
            graph,
        };
        let total = QUERY_SETS * spec.q;
        for i in 0..total {
            let e = if i % 2 == 0 {
                inputs.init[rng.gen_range(0..inputs.init.len())]
            } else {
                random_pair(&mut rng, core)
            };
            inputs.query_edges.push(e);
            inputs.query_vertices.push(e.u);
        }
        inputs
    }

    /// The update at stream position `p`.
    pub fn op(&self, p: usize) -> Update {
        let l = self.cycle.len();
        let q = p % (2 * l);
        if q < l {
            self.cycle[q]
        } else {
            invert(self.cycle[2 * l - 1 - q])
        }
    }

    /// Live churned edges after the first `p` stream updates.
    pub fn live_after(&self, p: usize) -> FxHashSet<Edge> {
        let mut live: FxHashSet<Edge> = self.init.iter().copied().collect();
        let l = self.cycle.len();
        let q = p % (2 * l);
        for i in 0..q.min(l) {
            apply(&mut live, self.cycle[i]);
        }
        for i in l..q.max(l) {
            apply(&mut live, self.op(i));
        }
        live
    }

    /// Aligned chunk `c` of the stream as an engine batch.
    pub fn batch(&self, c: usize, size: usize) -> UpdateBatch {
        let mut b = UpdateBatch::default();
        for p in c * size..(c + 1) * size {
            match self.op(p) {
                Update::Insert(e) => b.insertions.push(e),
                Update::Delete(e) => b.deletions.push(e),
            }
        }
        b
    }

    /// Query slice `r` (of the `QUERY_SETS` pre-generated ones).
    pub fn query_range(&self, r: u64, q: usize) -> std::ops::Range<usize> {
        let s = (r as usize % QUERY_SETS) * q;
        s..s + q
    }
}

fn apply(live: &mut FxHashSet<Edge>, u: Update) {
    match u {
        Update::Insert(e) => {
            live.insert(e);
        }
        Update::Delete(e) => {
            live.remove(&e);
        }
    }
}

fn random_pair(rng: &mut StdRng, core: usize) -> Edge {
    loop {
        let a = rng.gen_range(0..core as V);
        let b = rng.gen_range(0..core as V);
        if a != b {
            return Edge::new(a, b);
        }
    }
}

/// Generate one churn cycle: 50/50 inserts and deletes, no edge twice
/// within an aligned batch chunk.
fn churn(spec: &Spec, core: usize, init: &[Edge], rng: &mut StdRng) -> Vec<Update> {
    let mut out = Vec::with_capacity(spec.cycle_len);
    let mut touched: FxHashSet<Edge> = FxHashSet::default();
    let mut live = Pool::from(init);
    while out.len() < spec.cycle_len {
        if out.len() % spec.batch == 0 {
            touched.clear();
        }
        let up = if rng.gen::<bool>() {
            let e = if spec.kind == Kind::Spanner {
                random_pair(rng, core)
            } else {
                // Degree-proportional target: an endpoint of a
                // uniformly random live edge keeps the skew.
                let a = rng.gen_range(0..core as V);
                let Some(t) = live.sample(rng) else { continue };
                let b = if rng.gen::<bool>() { t.u } else { t.v };
                if a == b {
                    continue;
                }
                Edge::new(a, b)
            };
            if live.contains(e) || touched.contains(&e) {
                continue;
            }
            live.insert(e);
            Update::Insert(e)
        } else {
            let Some(e) = live.sample(rng) else { continue };
            if touched.contains(&e) {
                continue;
            }
            live.remove(e);
            Update::Delete(e)
        };
        touched.insert(up.edge());
        out.push(up);
    }
    out
}
