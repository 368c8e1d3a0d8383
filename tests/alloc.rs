//! Counting-allocator assertions for the zero-alloc delta path.
//!
//! The unified API's contract: once the caller-owned [`DeltaBuf`] and
//! the delta-tracking baselines have warmed up, the steady-state delta
//! path — membership bookkeeping plus `take_delta_into` — performs no
//! heap allocations at all, and a full engine batch loop stays under an
//! absolute allocation bound.
//!
//! All assertions live in ONE test function and diff the *per-thread*
//! allocation counter: the process-global counter picks up stray
//! allocations from the libtest harness thread (it runs concurrently
//! with the test even at `--test-threads=1`), which made the `== 0`
//! assertions sporadically fail with off-by-one-or-two counts.

use batch_spanners::par::alloc_counter::{thread_allocations as allocs, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn delta_path_is_allocation_free_after_warmup() {
    use batch_spanners::core::SpannerSet;
    use batch_spanners::gen;
    use batch_spanners::prelude::*;
    use batch_spanners::sparsify::WeightedSet;

    // --- 1. SpannerSet: the unweighted delta path, exactly zero. ---
    // Steady state = bounded churn over a resident core. (Removing the
    // *entire* set every round is a shrink workload: the edge table's
    // amortized anti-tombstone rebuild fires, which allocates — that is
    // table maintenance, not the delta path.)
    let edges = gen::gnm(64, 256, 9);
    let (core, churn) = edges.split_at(192);
    let mut set = SpannerSet::new();
    let mut buf = DeltaBuf::new();
    for &e in core {
        set.add(e);
    }
    // Warm-up: two churn/extract cycles size the count table, the
    // baseline table, and the buffer.
    for _ in 0..2 {
        for &e in churn {
            set.add(e);
        }
        set.take_delta_into(&mut buf);
        for &e in churn {
            set.remove(e);
        }
        set.take_delta_into(&mut buf);
    }
    let before = allocs();
    for _ in 0..10 {
        for &e in churn {
            set.add(e);
        }
        set.take_delta_into(&mut buf);
        assert_eq!(buf.recourse(), churn.len());
        for &e in churn {
            set.remove(e);
        }
        set.take_delta_into(&mut buf);
        assert_eq!(buf.recourse(), churn.len());
    }
    assert_eq!(
        allocs() - before,
        0,
        "SpannerSet delta path allocated after warm-up"
    );

    // --- 2. WeightedSet: the weighted delta path, exactly zero. ---
    let mut wset = WeightedSet::new();
    for &e in core {
        wset.insert(e, 1.0);
    }
    for _ in 0..2 {
        for &e in churn {
            wset.insert(e, 4.0);
        }
        wset.take_delta_into(&mut buf);
        for &e in churn {
            wset.remove(e);
        }
        wset.take_delta_into(&mut buf);
    }
    let before = allocs();
    for _ in 0..10 {
        for &e in churn {
            wset.insert(e, 4.0);
        }
        wset.take_delta_into(&mut buf);
        for &e in churn {
            wset.remove(e);
        }
        wset.take_delta_into(&mut buf);
    }
    assert_eq!(
        allocs() - before,
        0,
        "WeightedSet delta path allocated after warm-up"
    );

    // --- 3. End-to-end: the FullyDynamicSpanner `apply_into` batch
    //        loop stays under an absolute allocation bound. The bound
    //        is the count measured on this schedule (identical in debug,
    //        release and a 4-worker pool) once the wrapper sorts, splits
    //        and groups its batches in reused scratch; it was 745 before.
    //        What remains is batch generation and the decremental slots'
    //        per-batch work queues. ---
    use bds_graph::stream::UpdateStream;
    const APPLY_LOOP_ALLOC_BOUND: u64 = 566;
    let n = 200;
    let init = gen::gnm_connected(n, 800, 5);
    let mut a = FullyDynamicSpanner::builder(n)
        .stretch(2)
        .seed(77)
        .build(&init)
        .unwrap();
    let mut stream = UpdateStream::new(n, &init, 31);
    for _ in 0..5 {
        let batch = stream.next_batch(20, 20);
        a.apply_into(&batch, &mut buf);
    }
    let rounds = 30;
    let before = allocs();
    let mut recourse = 0usize;
    for _ in 0..rounds {
        let batch = stream.next_batch(20, 20);
        a.apply_into(&batch, &mut buf);
        recourse += buf.recourse();
    }
    let apply_loop = allocs() - before;
    assert!(recourse > 0, "the schedule must change the spanner");
    assert!(
        apply_loop <= APPLY_LOOP_ALLOC_BOUND,
        "apply_into loop allocated {apply_loop} times in {rounds} rounds \
         (bound {APPLY_LOOP_ALLOC_BOUND})"
    );

    // --- 4. ShardedEngine: the merged delta path — scatter into
    //        per-shard sub-batches, per-shard apply, merge_from + net
    //        into the caller's buffer — is exactly zero once warm.
    //        MirrorSpanner shards keep the per-shard apply itself
    //        allocation-free, so the assertion isolates the dispatcher;
    //        one pinned thread keeps the fan-out on this thread (scoped
    //        worker spawns are scheduling, not the delta path).
    bds_par::run_with_threads(1, || {
        let n = 96;
        let init = gen::gnm(n, 384, 17);
        let (core, churn) = init.split_at(256);
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(4)
            .build_with(core, move |_, shard_edges| {
                MirrorSpanner::build(n, shard_edges)
            })
            .unwrap();
        let mut buf = DeltaBuf::new();
        let ins = UpdateBatch::insert_only(churn.to_vec());
        let del = UpdateBatch::delete_only(churn.to_vec());
        for _ in 0..2 {
            engine.apply_into(&ins, &mut buf);
            engine.apply_into(&del, &mut buf);
        }
        let before = allocs();
        for _ in 0..10 {
            engine.apply_into(&ins, &mut buf);
            assert_eq!(buf.recourse(), churn.len());
            engine.apply_into(&del, &mut buf);
            assert_eq!(buf.recourse(), churn.len());
        }
        assert_eq!(
            allocs() - before,
            0,
            "sharded merged-delta path allocated after warm-up"
        );
    });

    // --- 5. Replicated ShardedEngine: the steady-state lane × replica
    //        fan-out (every write applied to every live replica, engine
    //        live-edge tracking, sequence stamping, primary-delta merge)
    //        is also exactly zero once warm — replication multiplies the
    //        work, not the allocations. One replica is dropped so the
    //        dead-replica skip path is exercised too.
    bds_par::run_with_threads(1, || {
        let n = 96;
        let init = gen::gnm(n, 384, 19);
        let (core, churn) = init.split_at(256);
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(2)
            .replicas(3)
            .partitioner(JumpPartitioner::new())
            .build_with(core, move |_, shard_edges| {
                MirrorSpanner::build(n, shard_edges)
            })
            .unwrap();
        engine.drop_replica(0, 2).unwrap();
        let mut buf = DeltaBuf::new();
        let ins = UpdateBatch::insert_only(churn.to_vec());
        let del = UpdateBatch::delete_only(churn.to_vec());
        for _ in 0..2 {
            engine.apply_into(&ins, &mut buf);
            engine.apply_into(&del, &mut buf);
        }
        let before = allocs();
        for _ in 0..10 {
            engine.apply_into(&ins, &mut buf);
            assert_eq!(buf.recourse(), churn.len());
            engine.apply_into(&del, &mut buf);
            assert_eq!(buf.recourse(), churn.len());
        }
        assert_eq!(
            allocs() - before,
            0,
            "replicated sharded fan-out allocated after warm-up"
        );
    });

    // --- 6. FollowerView::catch_up: tailing the log (read the new
    //        bytes, frame and checksum each record, decode deltas into
    //        one reused buffer, walk batch records in place, apply to
    //        the mirrored view) is exactly zero once warm. The writer
    //        logs what a durable serve loop logs per batch: the input
    //        batch, then its output delta. Only catch_up is counted. ---
    {
        use bds_graph::wal::{FollowerView, FsyncPolicy, WalWriter};
        let n = 64;
        let edges = gen::gnm(n, 256, 23);
        let (core, churn) = edges.split_at(192);
        let log = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("alloc_follower.wal");
        let mut wal = WalWriter::create(&log, 1, 0, n as u64, 0, FsyncPolicy::Manual).unwrap();
        wal.append_seed(0, core).unwrap();
        let ins = UpdateBatch::insert_only(churn.to_vec());
        let del = UpdateBatch::delete_only(churn.to_vec());
        let mut seq = 0u64;
        let mut append_round = |wal: &mut WalWriter, delta: &mut DeltaBuf| {
            for batch in [&ins, &del] {
                seq += 1;
                delta.clear();
                for &e in &batch.insertions {
                    delta.push_ins(e);
                }
                for &e in &batch.deletions {
                    delta.push_del(e);
                }
                delta.stamp_seq(seq);
                wal.append_batch(seq, batch).unwrap();
                wal.append_delta(delta).unwrap();
            }
        };
        let mut fv = FollowerView::open(&log).unwrap();
        for _ in 0..2 {
            append_round(&mut wal, &mut buf);
            assert_eq!(fv.catch_up().unwrap(), 2);
        }
        let mut counted = 0;
        for _ in 0..10 {
            append_round(&mut wal, &mut buf);
            let before = allocs();
            let applied = fv.catch_up().unwrap();
            counted += allocs() - before;
            assert_eq!(applied, 2);
        }
        assert_eq!(fv.view().len(), core.len(), "follower mirrors the log");
        assert_eq!(counted, 0, "FollowerView::catch_up allocated after warm-up");
        let _ = std::fs::remove_file(&log);
    }
}
