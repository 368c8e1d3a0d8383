//! Traced-run layer replays: the workload's first `replay_batches`
//! aligned batches, replayed from outside through each layer's public
//! calls, with a span around every call.

use crate::engines::{self, Make};
use crate::gen::Kind;
use crate::out::{median, quantile, Metrics, Tally};
use crate::phase::{self, Ctx};
use crate::trace::Tracer;
use bds_dstruct::euler::EulerForest;
use bds_dstruct::EdgeTable;
use bds_graph::api::{BatchDynamic, DeltaBuf, FullyDynamic};
use bds_graph::conn::BatchConnectivity;
use bds_graph::shard::{HashPartitioner, Partitioner, ShardedView};
use bds_graph::types::{Edge, UpdateBatch};
use bds_graph::wal::{FollowerView, FsyncPolicy, Snapshot, WalWriter};
use std::hint::black_box;
use std::time::Instant;

struct LaneRun {
    build_s: f64,
    apply_s: f64,
    batch_ms: Vec<f64>,
    recourse: u64,
    allocs: u64,
}

/// Standalone per-lane engines fed by `Partitioner::shard_of`.
fn lane_replay<S: FullyDynamic>(
    make: &Make<S>,
    lane_init: &[Vec<Edge>],
    subs: &[Vec<UpdateBatch>],
    tr: &mut Tracer,
) -> Result<LaneRun, String> {
    let mut run = LaneRun {
        build_s: 0.0,
        apply_s: 0.0,
        batch_ms: Vec::with_capacity(subs.len()),
        recourse: 0,
        allocs: 0,
    };
    let mut lanes = Vec::with_capacity(lane_init.len());
    for (i, es) in lane_init.iter().enumerate() {
        let sp = tr.begin("engine.build", i as u64);
        let t = Instant::now();
        let e = make(i, es).map_err(|e| format!("lane build: {e}"))?;
        run.build_s += t.elapsed().as_secs_f64();
        tr.end(sp);
        lanes.push(e);
    }
    let mut deltas: Vec<DeltaBuf> = (0..lanes.len()).map(|_| DeltaBuf::new()).collect();
    for (b, lane_batches) in subs.iter().enumerate() {
        let mut batch_s = 0.0;
        for ((lane, sub), delta) in lanes.iter_mut().zip(lane_batches).zip(&mut deltas) {
            let a0 = bds_par::alloc_counter::allocations();
            let sp = tr.begin("engine.apply", b as u64);
            let t = Instant::now();
            lane.apply_into(sub, delta);
            batch_s += t.elapsed().as_secs_f64();
            tr.end(sp);
            run.allocs += bds_par::alloc_counter::allocations() - a0;
            run.recourse += delta.recourse() as u64;
        }
        run.apply_s += batch_s;
        run.batch_ms.push(batch_s * 1e3);
    }
    Ok(run)
}

pub fn replays<S: FullyDynamic + Send + 'static>(
    ctx: &Ctx,
    make: &Make<S>,
    tr: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let spec = ctx.spec;
    let inp = ctx.inputs;
    let k = spec.shards;
    let batches: Vec<UpdateBatch> = (0..spec.replay_batches)
        .map(|c| inp.batch(c, spec.batch))
        .collect();
    let updates = (spec.replay_batches * spec.batch) as f64;
    let subs: Vec<Vec<UpdateBatch>> = batches.iter().map(|b| engines::split(b, k)).collect();
    let mut lane_init = vec![Vec::new(); k];
    for &e in &inp.init {
        if let Some(l) = lane_init.get_mut(HashPartitioner.shard_of(e, k)) {
            l.push(e);
        }
    }
    // Engine layer: standalone lanes at the default thread count, then
    // the same replay pinned to two threads.
    let root = tr.begin("replay.engine", 0);
    let lanes = lane_replay(make, &lane_init, &subs, tr)?;
    tr.end(root);
    let root = tr.begin("replay.engine.t2", 0);
    let lanes_t2 = bds_par::run_with_threads(2, || lane_replay(make, &lane_init, &subs, tr))?;
    tr.end(root);
    m.put("engine.build_s", lanes.build_s, "s");
    m.put(
        "engine.apply_us_per_update",
        lanes.apply_s * 1e6 / updates,
        "us",
    );
    m.put(
        "engine.apply_us_per_update.t2",
        lanes_t2.apply_s * 1e6 / updates,
        "us",
    );
    m.put("engine.batch_p50_ms", median(&lanes.batch_ms), "ms");
    m.put("engine.batch_p90_ms", quantile(&lanes.batch_ms, 0.9), "ms");
    m.put(
        "engine.recourse_per_update",
        lanes.recourse as f64 / updates,
        "count",
    );
    m.put(
        "engine.allocs_per_batch",
        lanes.allocs as f64 / batches.len() as f64,
        "count",
    );

    // Shard + WAL + follower layers: one sharded engine replaying the
    // same batches, logging each through a standalone WalWriter that a
    // FollowerView tails.
    let dir = ctx.scratch.join(format!("{}-replay", spec.name));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("replay dir: {e}"))?;
    let (snap, log) = (dir.join("snap"), dir.join("log"));
    let root = tr.begin("replay.shard", 0);
    let io = |e: std::io::Error| format!("replay wal: {e}");
    let mut eng =
        engines::sharded(spec, &inp.init, make).map_err(|e| format!("sharded build: {e}"))?;
    let mut snapshot_ms = Vec::new();
    let sp = tr.begin("wal.snapshot", 0);
    let t = Instant::now();
    Snapshot::of(&eng).write_to(&snap).map_err(io)?;
    snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    tr.end(sp);
    let mut w = WalWriter::create(
        &log,
        eng.engine_id(),
        eng.layout_epoch(),
        spec.n as u64,
        eng.seq(),
        FsyncPolicy::Manual,
    )
    .map_err(io)?;
    w.append_seed(eng.seq(), &ShardedView::of(&eng).edges())
        .map_err(io)?;
    w.sync().map_err(io)?;
    let mut fv = FollowerView::open(&log).map_err(|e| format!("replay follower: {e}"))?;
    let (mut append_us, mut sync_ms, mut catch_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut shard_s = 0.0;
    let mut lag_max = 0u64;
    let mut delta = DeltaBuf::new();
    for (b, batch) in batches.iter().enumerate() {
        let sp = tr.begin("wal.append", b as u64);
        let t = Instant::now();
        w.append_batch(eng.seq() + 1, batch).map_err(io)?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end(sp);
        let sp = tr.begin("wal.sync", b as u64);
        let t = Instant::now();
        w.sync().map_err(io)?;
        sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(sp);
        let sp = tr.begin("shard.apply", b as u64);
        let t = Instant::now();
        eng.apply_into(batch, &mut delta);
        shard_s += t.elapsed().as_secs_f64();
        tr.end(sp);
        w.append_delta(&delta).map_err(io)?;
        lag_max = lag_max.max(eng.seq().saturating_sub(fv.seq()));
        let sp = tr.begin("follower.catch_up", b as u64);
        let t = Instant::now();
        let caught = fv.catch_up();
        catch_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end(sp);
        tally.check("replay follower catch_up", caught.is_ok(), || {
            format!("{caught:?}")
        });
    }
    w.sync().map_err(io)?;
    tr.end(root);
    let loads: Vec<f64> = eng
        .lane_loads()
        .iter()
        .map(|l| l.live_edges as f64)
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let max = loads.iter().copied().fold(0.0, f64::max);
    m.put("shard.apply_us_per_update", shard_s * 1e6 / updates, "us");
    m.put("shard.overhead_ratio", shard_s / lanes.apply_s, "ratio");
    m.put(
        "shard.lane_skew",
        if mean > 0.0 { max / mean } else { f64::NAN },
        "ratio",
    );
    let view = ShardedView::of(&eng);
    let follower_ok = fv.view().len() == view.len() && fv.seq() == eng.seq();
    tally.check(
        "replay follower matches the sharded engine",
        follower_ok,
        || format!("{} vs {} edges", fv.view().len(), view.len()),
    );

    // Recovery from the initial snapshot + the full replay log replays
    // the identical history, so its output must equal the engine's.
    let sp = tr.begin("wal.recover.snapshot_read", 0);
    let t = Instant::now();
    let s = Snapshot::read_from(&snap).map_err(|e| format!("snapshot read: {e}"))?;
    let read_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(sp);
    black_box(s);
    let sp = tr.begin("wal.recover", 0);
    let t = Instant::now();
    let r = phase::recover(ctx, make, &snap, &log)?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(sp);
    let same = {
        let mut a = r.engine.output_edges_vec();
        let mut b = eng.output_edges_vec();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    };
    tally.check(
        "replay recovery equals the replayed output",
        r.seq == eng.seq() && same,
        || format!("recovered seq {} vs {}", r.seq, eng.seq()),
    );
    let sp = tr.begin("wal.snapshot", 1);
    let t = Instant::now();
    Snapshot::of(&eng).write_to(&snap).map_err(io)?;
    snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    tr.end(sp);
    let log_bytes = std::fs::metadata(&log).map(|md| md.len()).unwrap_or(0);
    drop(eng);
    drop(r);
    let _ = std::fs::remove_dir_all(&dir);
    m.put("wal.append_us_p50", median(&append_us), "us");
    m.put("wal.sync_ms_p50", median(&sync_ms), "ms");
    m.put("wal.sync_ms_p90", quantile(&sync_ms, 0.9), "ms");
    m.put("wal.snapshot_ms", median(&snapshot_ms), "ms");
    m.put("wal.bytes_per_update", log_bytes as f64 / updates, "bytes");
    m.put("wal.recover.snapshot_read_ms", read_ms, "ms");
    m.put("wal.recover.replay_ms", recover_ms - read_ms, "ms");
    if spec.kind != Kind::Durable {
        // The durable workload reports its serving follower instead.
        m.put("follower.catch_up_us_p50", median(&catch_us), "us");
        m.put("follower.lag_batches_max", lag_max as f64, "count");
    }

    // Data-structure layer.
    let root = tr.begin("replay.dstruct", 0);
    let sp = tr.begin("dstruct.edge_table", 0);
    let t = Instant::now();
    let mut table = EdgeTable::with_capacity(inp.init.len());
    let mut ops = 0u64;
    for e in &inp.init {
        table.insert(e.u, e.v, 1);
        ops += 1;
    }
    for b in &batches {
        for e in &b.deletions {
            black_box(table.remove(e.u, e.v));
        }
        for e in &b.insertions {
            table.insert(e.u, e.v, 1);
        }
        for e in b.deletions.iter().chain(&b.insertions) {
            black_box(table.get(e.u, e.v));
        }
        ops += 2 * b.len() as u64;
    }
    m.put(
        "dstruct.edge_table_ns_per_op",
        t.elapsed().as_secs_f64() * 1e9 / ops as f64,
        "ns",
    );
    tr.end(sp);
    black_box(table.len());
    // Spanning-forest deltas of one BatchConnectivity (the `conn` layer:
    // batch link/cut with replacement search) fed the same batches,
    // replayed as Euler-tour cuts and links.
    let mut c = BatchConnectivity::builder(spec.n)
        .build(&inp.init)
        .map_err(|e| format!("conn build: {e}"))?;
    let initial: Vec<(u32, u32)> = c.forest_edges().iter().map(|e| (e.u, e.v)).collect();
    let mut forest = Vec::with_capacity(batches.len());
    for b in &batches {
        c.apply_into(b, &mut delta);
        forest.push((delta.deleted().to_vec(), delta.inserted().to_vec()));
    }
    let mut tour = EulerForest::bulk_build(&initial);
    let sp = tr.begin("dstruct.euler", 0);
    let t = Instant::now();
    let mut ops = 0u64;
    for (removed, added) in &forest {
        for e in removed {
            tour.cut(e.u, e.v);
        }
        for e in added {
            tour.link(e.u, e.v);
        }
        ops += (removed.len() + added.len()) as u64;
    }
    let euler_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    m.put(
        "dstruct.euler_link_cut_ns_per_op",
        euler_s * 1e9 / ops.max(1) as f64,
        "ns",
    );
    tr.end(root);

    // Par layer: one task fan-out over the lane count, empty tasks.
    let mut items = vec![0u64; k];
    let mut fan_us = Vec::with_capacity(200);
    for i in 0..200 {
        let sp = tr.begin("par.fanout", i);
        let t = Instant::now();
        bds_par::par_for_each_task(&mut items, |x| {
            black_box(x);
        });
        fan_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end(sp);
    }
    m.put("par.fanout_us", median(&fan_us), "us");
    Ok(())
}
