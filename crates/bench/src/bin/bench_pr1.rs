//! PR-1 perf snapshot: writes `BENCH_PR1.json` (batch-update throughput
//! for `EsTree` and `FullyDynamicSpanner` at n ∈ {10k, 100k}, plus the
//! EdgeTable-vs-FxHashMap ratios) to seed the performance trajectory.
//!
//! Usage: `cargo run --release -p bds_bench --bin bench_pr1 [-- out.json]`
//!
//! Timing uses interleaved repetitions with per-side minima so the
//! numbers survive noisy-neighbor hosts.

use bds_core::FullyDynamicSpanner;
use bds_dstruct::{EdgeTable, FxHashMap};
use bds_estree::EsTree;
use bds_graph::api::{DeltaBuf, FullyDynamic};
use bds_graph::gen;
use bds_graph::stream::UpdateStream;
use bds_graph::types::{Edge, V};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

fn ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (t.elapsed().as_secs_f64() * 1e3, r)
}

fn directed(edges: &[Edge]) -> Vec<(V, V, u64)> {
    edges
        .iter()
        .flat_map(|e| {
            [
                (e.u, e.v, ((e.u as u64) << 32) | e.u as u64),
                (e.v, e.u, ((e.v as u64) << 32) | e.v as u64),
            ]
        })
        .collect()
}

/// EsTree at G(n, 6n): init time and deletion-batch throughput
/// (directed deletions per second across batches of 256 edges), for
/// both the current implementation and the frozen seed implementation
/// (`bds_bench::seed_estree`), interleaved.
fn estree_numbers(n: usize, seed: u64) -> (f64, f64, f64, f64) {
    let edges = gen::gnm_connected(n, 6 * n, seed);
    let dirs = directed(&edges);
    let l = 24u32;
    let (mut init_cur, mut init_seed) = (f64::MAX, f64::MAX);
    let (mut rate_cur, mut rate_seed) = (0.0f64, 0.0f64);
    for rep in 0..3 {
        let mut schedule: Vec<Vec<(V, V)>> = Vec::new();
        {
            let mut live = edges.clone();
            let mut rng = StdRng::seed_from_u64(seed ^ (rep + 1));
            live.shuffle(&mut rng);
            let rounds = 16usize;
            let per = 256usize.min(live.len() / (rounds + 1));
            for _ in 0..rounds {
                let batch: Vec<Edge> = live.split_off(live.len() - per);
                schedule.push(
                    batch
                        .iter()
                        .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
                        .collect(),
                );
            }
        }
        let deleted: usize = schedule.iter().map(Vec::len).sum();

        let (d, mut t) = ms(|| EsTree::new(n, 0, l, &dirs));
        init_cur = init_cur.min(d);
        let t0 = Instant::now();
        for batch in &schedule {
            t.delete_batch(batch);
        }
        rate_cur = rate_cur.max(deleted as f64 / t0.elapsed().as_secs_f64());

        let (d, mut t) = ms(|| bds_bench::seed_estree::EsTree::new(n, 0, l, &dirs));
        init_seed = init_seed.min(d);
        let t0 = Instant::now();
        for batch in &schedule {
            t.delete_batch(batch);
        }
        rate_seed = rate_seed.max(deleted as f64 / t0.elapsed().as_secs_f64());
    }
    (init_cur, rate_cur, init_seed, rate_seed)
}

/// FullyDynamicSpanner (k = 3) on G(n, 4n): init time and mixed
/// batch-update throughput (updates per second, batches of 64 + 64).
fn spanner_numbers(n: usize, seed: u64) -> (f64, f64) {
    let edges = gen::gnm_connected(n, 4 * n, seed);
    let (init_ms, mut s) = ms(|| FullyDynamicSpanner::new(n, 3, &edges, seed ^ 0xf00d));
    let mut stream = UpdateStream::new(n, &edges, seed ^ 0x5eed);
    let rounds = 12usize;
    let mut updates = 0usize;
    let mut delta = DeltaBuf::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let batch = stream.next_batch(64, 64);
        updates += batch.len();
        s.apply_into(&batch, &mut delta);
    }
    let rate = updates as f64 / t0.elapsed().as_secs_f64();
    (init_ms, rate)
}

/// Interleaved EdgeTable-vs-FxHashMap minima at `m` edges; returns
/// (get_table_ms, get_map_ms, ins_table_ms, ins_map_ms).
fn edge_table_numbers(m: usize, rounds: usize) -> (f64, f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(11);
    let nv = (2 * m) as V;
    let mut seen = std::collections::HashSet::with_capacity(m);
    let mut edges: Vec<(V, V, u64)> = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..nv);
        let v = rng.gen_range(0..nv);
        if u != v && seen.insert(((u as u64) << 32) | v as u64) {
            edges.push((u, v, rng.gen::<u64>()));
        }
    }
    let table = EdgeTable::from_batch(&edges);
    let mut map: FxHashMap<(V, V), u64> = FxHashMap::default();
    for &(u, v, val) in &edges {
        map.insert((u, v), val);
    }
    let queries: Vec<(V, V)> = edges
        .iter()
        .enumerate()
        .map(|(i, &(u, v, _))| if i % 2 == 0 { (u, v) } else { (v, u) })
        .collect();
    let (mut tg, mut hg, mut ti, mut hi) = (f64::MAX, f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..rounds {
        let (d, a) = ms(|| table.get_batch(&queries));
        let (e, b) = ms(|| {
            queries
                .iter()
                .map(|k| map.get(k).copied())
                .collect::<Vec<Option<u64>>>()
        });
        assert_eq!(a, b);
        tg = tg.min(d);
        hg = hg.min(e);
        let (d, _) = ms(|| {
            let mut t = EdgeTable::new();
            t.insert_batch(&edges);
            t
        });
        let (e, _) = ms(|| {
            let mut mm: FxHashMap<(V, V), u64> = FxHashMap::default();
            mm.reserve(edges.len());
            for &(u, v, val) in &edges {
                mm.insert((u, v), val);
            }
            mm
        });
        ti = ti.min(d);
        hi = hi.min(e);
    }
    (tg, hg, ti, hi)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR1.json".to_string());
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"pr\": 1,");
    let _ = writeln!(j, "  \"threads\": {},", bds_par::threads_available());
    let _ = writeln!(j, "  \"structures\": {{");

    let mut first = true;
    for &n in &[10_000usize, 100_000] {
        let (es_init, es_rate, seed_init, seed_rate) = estree_numbers(n, 5);
        eprintln!(
            "estree n={n}: init {es_init:.1}ms (seed {seed_init:.1}ms), {es_rate:.0} deletions/s (seed {seed_rate:.0}, {:.2}x)",
            es_rate / seed_rate
        );
        let (sp_init, sp_rate) = spanner_numbers(n, 7);
        eprintln!("spanner n={n}: init {sp_init:.1}ms, {sp_rate:.0} updates/s");
        if !first {
            let _ = writeln!(j, ",");
        }
        first = false;
        let _ = write!(
            j,
            "    \"n{}\": {{\n      \"estree_init_ms\": {:.2},\n      \"estree_seed_init_ms\": {:.2},\n      \"estree_delete_throughput_per_s\": {:.0},\n      \"estree_seed_delete_throughput_per_s\": {:.0},\n      \"estree_delete_speedup_vs_seed\": {:.2},\n      \"spanner_init_ms\": {:.2},\n      \"spanner_update_throughput_per_s\": {:.0}\n    }}",
            n / 1000,
            es_init,
            seed_init,
            es_rate,
            seed_rate,
            es_rate / seed_rate,
            sp_init,
            sp_rate
        );
    }
    let _ = writeln!(j, "\n  }},");

    let _ = writeln!(j, "  \"edge_table_vs_fxhashmap\": {{");
    let mut first = true;
    for &m in &[100_000usize, 1_000_000] {
        let (tg, hg, ti, hi) = edge_table_numbers(m, 7);
        eprintln!(
            "edge_table m={m}: get {tg:.2}ms vs {hg:.2}ms ({:.2}x), insert {ti:.2}ms vs {hi:.2}ms ({:.2}x)",
            hg / tg,
            hi / ti
        );
        if !first {
            let _ = writeln!(j, ",");
        }
        first = false;
        let _ = write!(
            j,
            "    \"m{}k\": {{\n      \"get_batch_ms\": {:.3},\n      \"fxhashmap_get_ms\": {:.3},\n      \"get_speedup\": {:.2},\n      \"insert_batch_ms\": {:.3},\n      \"fxhashmap_insert_ms\": {:.3},\n      \"insert_speedup\": {:.2}\n    }}",
            m / 1000,
            tg,
            hg,
            hg / tg,
            ti,
            hi,
            hi / ti
        );
    }
    let _ = writeln!(j, "\n  }}\n}}");
    std::fs::write(&out_path, &j).expect("write BENCH_PR1.json");
    println!("wrote {out_path}");
}
