//! One serving phase: build, serve a flood or a paced stream with one
//! producer and one reader thread, drain, and check the final state.

use crate::engines::{self, Home, Make};
use crate::gen::{Inputs, Kind, Spec};
use crate::out::{repeat_timed, Tally};
use crate::trace::Tracer;
use bds_dstruct::FxHashSet;
use bds_graph::api::{BatchDynamic, FullyDynamic};
use bds_graph::serve::{BatchPolicy, ReadHandle, ServeLoopBuilder, ServeReport, Update};
use bds_graph::shard::{HashPartitioner, ShardedEngineBuilder};
use bds_graph::types::Edge;
use bds_graph::wal::{self, FollowerView, FsyncPolicy, Snapshot, WalConfig, WalWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared, read-only run context.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub seed: u64,
    pub scratch: PathBuf,
    pub epoch: Instant,
}

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Push this many updates of the stream (plus, on a durable
    /// workload, up to the next snapshot and a short tail) as fast as
    /// backpressure allows. The flood is a fixed amount of work, not a
    /// fixed time: the engines' cost per update changes along the stream,
    /// so a time-boxed flood would measure how far a run got as well.
    Flood(usize),
    /// Open loop: this many updates at `Spec::paced_rate`.
    Paced(usize),
}

/// What the durable phase leaves behind for recovery checks.
pub enum Recovery {
    /// Recover from the latest snapshot + log and check the result.
    Checked,
    /// As `Checked`, then time `recover` of the same pair (see
    /// [`repeat_timed`]).
    Timed,
    /// Recover from the initial snapshot + full log and require the
    /// output to equal the live engine's.
    Exact,
}

pub struct PhaseOut {
    pub setup_s: f64,
    /// Updates the producer sent.
    pub sent: u64,
    /// First send to the writer's returned report.
    pub wall_s: f64,
    pub report: ServeReport,
    pub reads_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    pub follower_visible_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub lag_max: u64,
    /// Final served output size |H|.
    pub out_edges: usize,
    /// Served output size |H| at fixed stream positions (paced only:
    /// every `OUTPUT_SAMPLE_EVERY`-th update, when it is due).
    pub view_len: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Final live input edge set (the oracle).
    pub live: Vec<Edge>,
    pub tally: Tally,
    pub producer: Tracer,
    pub reader: Tracer,
}

/// How often the paced producer and the reader poll outstanding probes
/// (and the longest the producer sleeps between sends).
const POLL_EVERY: Duration = Duration::from_micros(200);
const MIN_SLEEP: Duration = Duration::from_micros(100);
/// The paced producer samples the served output size every this many
/// updates.
const OUTPUT_SAMPLE_EVERY: usize = 512;
/// Batches a durable flood sends after the writer passes a snapshot.
const RECOVERY_TAIL_BATCHES: usize = 8;

#[derive(Clone, Copy)]
struct Probe {
    edge: Edge,
    due: Instant,
    present: bool,
}

/// Sets the reader's stop flag when dropped, so the reader thread ends
/// on every exit path of the phase, early errors included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        // ordering: SeqCst — as the explicit store in `run_phase`.
        self.0.store(true, SeqCst);
    }
}

/// Record the probes in `pending` that `has(edge)` now reflects.
fn observe(
    pending: &mut Vec<Probe>,
    seen_ms: &mut Vec<f64>,
    now: Instant,
    has: impl Fn(Edge) -> bool,
) {
    pending.retain(|p| {
        if has(p.edge) == p.present {
            seen_ms.push(now.saturating_duration_since(p.due).as_secs_f64() * 1e3);
            false
        } else {
            true
        }
    });
}

/// Queue a probe. An unobserved older probe on the same edge is dropped
/// and so never observed: every announced probe not observed by the end
/// of the phase counts as failed.
fn add_probe(pending: &mut Vec<Probe>, p: Probe) {
    if let Some(i) = pending.iter().position(|q| q.edge == p.edge) {
        pending.swap_remove(i);
    }
    pending.push(p);
}

/// Build the engine plus serve loop once and drop it: one `setup_s`
/// sample.
pub fn setup_sample<S: FullyDynamic + Send + 'static>(
    ctx: &Ctx,
    make: &Make<S>,
    tag: &str,
) -> Result<f64, String> {
    let home: Home<S> = Arc::new(Mutex::new((0..ctx.spec.shards).map(|_| None).collect()));
    let dir = phase_dir(ctx, tag)?;
    let t = Instant::now();
    let built = build(ctx, make, &home, &dir)?;
    let dt = t.elapsed().as_secs_f64();
    drop(built);
    Ok(dt)
}

fn phase_dir(ctx: &Ctx, tag: &str) -> Result<PathBuf, String> {
    let dir = ctx.scratch.join(format!("{}-{tag}", ctx.spec.name));
    if ctx.spec.kind == Kind::Durable {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

type Built<S> = (
    bds_graph::serve::ServeLoop<engines::Handback<S>, HashPartitioner>,
    bds_graph::serve::IngestHandle,
);

fn build<S: FullyDynamic + Send + 'static>(
    ctx: &Ctx,
    make: &Make<S>,
    home: &Home<S>,
    dir: &Path,
) -> Result<Built<S>, String> {
    let spec = ctx.spec;
    let engine = engines::sharded_handback(spec, &ctx.inputs.init, make, home)
        .map_err(|e| format!("engine build: {e}"))?;
    let mut b = ServeLoopBuilder::new(engine)
        .queue_capacity(2 * spec.batch)
        .batch_policy(BatchPolicy::Fixed(spec.batch));
    if spec.kind == Kind::Durable {
        b = b.durability(
            WalConfig::new(dir.join("log"))
                .fsync(FsyncPolicy::EveryN(spec.fsync_every))
                .snapshot(dir.join("snap"), spec.snapshot_every),
        );
    }
    b.try_build().map_err(|e| format!("serve loop build: {e}"))
}

pub fn run_phase<S: FullyDynamic + Send + 'static>(
    ctx: &Ctx,
    make: &Make<S>,
    mode: Mode,
    traced: bool,
    tag: &str,
    recovery: Recovery,
) -> Result<PhaseOut, String> {
    let spec = ctx.spec;
    let inp = ctx.inputs;
    let home: Home<S> = Arc::new(Mutex::new((0..spec.shards).map(|_| None).collect()));
    let dir = phase_dir(ctx, tag)?;
    let t = Instant::now();
    let (serve, ingest) = build(ctx, make, &home, &dir)?;
    let setup_s = t.elapsed().as_secs_f64();
    let durable = spec.kind == Kind::Durable;
    if durable {
        std::fs::copy(dir.join("snap"), dir.join("snap0"))
            .map_err(|e| format!("copy snapshot: {e}"))?;
    }
    let read = serve.read_handle();
    let follower = if durable {
        Some(FollowerView::open(&dir.join("log")).map_err(|e| format!("follower open: {e}"))?)
    } else {
        None
    };
    let writer = serve.spawn();
    let stop = AtomicBool::new(false);
    let (ptx, prx) = channel::<Probe>();
    let mut producer = Tracer::new(traced, ctx.epoch, "producer");
    let mut tally = Tally::default();
    let mut present = vec![false; inp.probes.len()];
    let mut visible_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut view_len = Vec::new();
    let mut sent = 0u64;
    let mut announced = 0u64;

    let (report, wall_s, rd, p) = std::thread::scope(|sc| -> Result<_, String> {
        let reader = {
            let reader = Reader::new(ctx, read.clone(), follower, traced);
            let stop = &stop;
            match mode {
                Mode::Flood(_) => sc.spawn(move || reader.requests(stop)),
                Mode::Paced(_) => sc.spawn(move || reader.watch(prx, stop)),
            }
        };
        let _stop = StopOnDrop(&stop);
        let t0 = Instant::now();
        let mut p = 0usize;
        let mut pending: Vec<Probe> = Vec::new();
        let mut snap_at: Option<u64> = None;
        let mut tail_left = usize::MAX;
        let mut send_failed = false;
        let mut reached: Option<Instant> = None;
        match mode {
            Mode::Flood(ops) => 'flood: loop {
                for _ in 0..64.min(tail_left) {
                    tail_left -= 1;
                    let sp = producer.begin("client.send", 0);
                    let r = ingest.send(inp.op(p));
                    producer.end(sp);
                    if let Err(e) = r {
                        tally.check("sends", false, || format!("send: {e}"));
                        send_failed = true;
                        break 'flood;
                    }
                    p += 1;
                }
                if p < ops {
                    continue;
                }
                // A durable flood ends a fixed tail after a snapshot, so
                // the timed recovery replays the same amount of log.
                let reached = *reached.get_or_insert_with(Instant::now);
                if spec.kind != Kind::Durable || reached.elapsed() > Duration::from_secs(10) {
                    break;
                }
                let seq = read.pin().seq();
                let every = spec.snapshot_every;
                match snap_at {
                    // The first snapshot at or after the flood's last
                    // batch: the same one in every run.
                    None => {
                        let last_batch = p.div_ceil(spec.batch) as u64;
                        snap_at = Some(last_batch.div_ceil(every) * every);
                    }
                    Some(at) if seq >= at => {
                        tail_left = tail_left.min(RECOVERY_TAIL_BATCHES * spec.batch)
                    }
                    Some(_) => {}
                }
                if tail_left == 0 {
                    break;
                }
            },
            Mode::Paced(ops) => {
                let mut i = 0usize;
                let mut probe_ctr = 0usize;
                let mut last_poll = Duration::ZERO;
                while i < ops {
                    let due = Duration::from_secs_f64(i as f64 / spec.paced_rate);
                    let now = t0.elapsed();
                    if now >= due {
                        if i.is_multiple_of(OUTPUT_SAMPLE_EVERY) {
                            view_len.push(read.pin().len() as f64);
                        }
                        // A probe slot toggles the next pair whose last
                        // toggle the producer has seen (none free: churn).
                        let free = (i + 1)
                            .is_multiple_of(spec.probe_every)
                            .then(|| {
                                (0..inp.probes.len())
                                    .map(|d| (probe_ctr + d) % inp.probes.len())
                                    .find(|&j| !pending.iter().any(|q| q.edge == inp.probes[j]))
                            })
                            .flatten();
                        let up = if let Some(j) = free {
                            probe_ctr = j + 1;
                            present[j] = !present[j];
                            let probe = Probe {
                                edge: inp.probes[j],
                                due: t0 + due,
                                present: present[j],
                            };
                            add_probe(&mut pending, probe);
                            announced += 1;
                            let _ = ptx.send(probe);
                            if probe.present {
                                Update::Insert(probe.edge)
                            } else {
                                Update::Delete(probe.edge)
                            }
                        } else {
                            p += 1;
                            inp.op(p - 1)
                        };
                        late_ms.push((now - due).as_secs_f64() * 1e3);
                        let sp = producer.begin("client.send", 0);
                        let r = ingest.send(up);
                        producer.end(sp);
                        if let Err(e) = r {
                            tally.check("sends", false, || format!("send: {e}"));
                            send_failed = true;
                            break;
                        }
                        i += 1;
                        continue;
                    }
                    if !pending.is_empty() && now >= last_poll + POLL_EVERY {
                        poll(&read, &mut pending, &mut visible_ms, &mut producer);
                        last_poll = now;
                    }
                    // Never spin: the writer and reader share the cores.
                    std::thread::sleep((due - now).clamp(MIN_SLEEP, POLL_EVERY));
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while !pending.is_empty() && Instant::now() < deadline {
                    poll(&read, &mut pending, &mut visible_ms, &mut producer);
                    std::thread::sleep(POLL_EVERY);
                }
            }
        }
        sent = match mode {
            Mode::Flood(_) => p as u64,
            Mode::Paced(_) => late_ms.len() as u64,
        };
        if !send_failed {
            tally.check("sends", true, String::new);
        }
        drop(ingest);
        let report = writer
            .join()
            .map_err(|_| "serve writer panicked".to_string())?;
        let wall_s = t0.elapsed().as_secs_f64();
        // Probes still unobserved get one look at the final view.
        poll(&read, &mut pending, &mut visible_ms, &mut producer);
        // ordering: SeqCst — the reader's final pass must observe the
        // drained state, and the writer was joined before this store.
        stop.store(true, SeqCst);
        let rd = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())??;
        Ok((report, wall_s, rd, p))
    })?;
    // Every announced probe must have been observed by both the
    // producer's polls and the reader.
    tally.bulk(
        "probes seen by the producer",
        announced,
        announced - visible_ms.len() as u64,
    );
    tally.bulk(
        "probes seen by the reader",
        announced,
        announced.saturating_sub(rd.visible_ms.len() as u64),
    );
    let mut out = PhaseOut {
        setup_s,
        sent,
        wall_s,
        report,
        reads_ms: rd.reads_ms,
        visible_ms,
        follower_visible_ms: rd.visible_ms,
        late_ms,
        lag_max: rd.lag_max,
        out_edges: 0,
        view_len,
        recover_s: Vec::new(),
        live: Vec::new(),
        tally,
        producer,
        reader: rd.tracer,
    };
    out.tally.merge(rd.tally);
    out.tally.check(
        "writer pulled what was sent",
        out.sent == out.report.raw_updates,
        || {
            format!(
                "sent {} updates but the writer pulled {}",
                out.sent, out.report.raw_updates
            )
        },
    );
    // Final-state oracle: churn prefix plus the probes left present.
    let mut live = inp.live_after(p);
    for (j, &on) in present.iter().enumerate() {
        if on {
            live.insert(inp.probes[j]);
        }
    }
    let lanes: Vec<S> = match home.lock() {
        Ok(mut h) => h.iter_mut().filter_map(Option::take).collect(),
        Err(_) => Vec::new(),
    };
    out.tally.check(
        "lane engines handed back",
        lanes.len() == spec.shards,
        || format!("{} of {} lanes", lanes.len(), spec.shards),
    );
    final_checks(ctx, &read, &lanes, &live, rd.follower_edges, &mut out);
    out.live = live.into_iter().collect();
    if durable {
        match recovery {
            Recovery::Checked | Recovery::Timed => {
                let snap = dir.join("snap");
                let log = dir.join("log");
                let r = recover::<S>(ctx, make, &snap, &log)?;
                let live: FxHashSet<Edge> = out.live.iter().copied().collect();
                let input: FxHashSet<Edge> = r.engine.live_input_edges().collect();
                out.tally.check(
                    "recovery reaches the final seq",
                    r.seq == out.report.final_seq,
                    || format!("recovered {} != final {}", r.seq, out.report.final_seq),
                );
                out.tally
                    .check("recovered input equals the live set", input == live, || {
                        format!("{} recovered vs {} live edges", input.len(), live.len())
                    });
                stretch_check(ctx, &out.live, &r.engine.output_edges_vec(), &mut out.tally);
                drop(r);
                if matches!(recovery, Recovery::Timed) {
                    repeat_timed(&mut out.recover_s, || {
                        let t = Instant::now();
                        let r = recover::<S>(ctx, make, &snap, &log)?;
                        let dt = t.elapsed().as_secs_f64();
                        drop(r);
                        Ok(dt)
                    })?;
                }
            }
            Recovery::Exact => {
                let r = recover::<S>(ctx, make, &dir.join("snap0"), &dir.join("log"))?;
                let got: FxHashSet<Edge> = r.engine.output_edges_vec().into_iter().collect();
                let want: FxHashSet<Edge> =
                    lanes.iter().flat_map(|l| l.output_edges_vec()).collect();
                out.tally.check(
                    "full-log recovery equals the live output",
                    r.seq == out.report.final_seq && got == want,
                    || {
                        format!(
                            "seq {}, |H| {} vs seq {}, |H| {}",
                            r.seq,
                            got.len(),
                            out.report.final_seq,
                            want.len()
                        )
                    },
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

/// Recovery for a workload served without a WAL: snapshot an engine built
/// over the initial graph, log the stream's first `RECOVERY_TAIL_BATCHES`
/// aligned batches through a `WalWriter`, and time `wal::recover` of the
/// pair — the same snapshot plus 8-batch tail the durable flood leaves.
pub fn offline_recovery<S: FullyDynamic + Send + 'static>(
    ctx: &Ctx,
    make: &Make<S>,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let spec = ctx.spec;
    let dir = ctx.scratch.join(format!("{}-recover", spec.name));
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: std::io::Error| format!("recovery artifacts: {e}");
    std::fs::create_dir_all(&dir).map_err(io)?;
    let (snap, log) = (dir.join("snap"), dir.join("log"));
    {
        let eng = engines::sharded(spec, &ctx.inputs.init, make)
            .map_err(|e| format!("engine build: {e}"))?;
        Snapshot::of(&eng).write_to(&snap).map_err(io)?;
        let mut w = WalWriter::create(
            &log,
            eng.engine_id(),
            eng.layout_epoch(),
            spec.n as u64,
            eng.seq(),
            FsyncPolicy::Manual,
        )
        .map_err(io)?;
        for c in 0..RECOVERY_TAIL_BATCHES {
            w.append_batch(eng.seq() + 1 + c as u64, &ctx.inputs.batch(c, spec.batch))
                .map_err(io)?;
        }
        w.sync().map_err(io)?;
    }
    let r = recover::<S>(ctx, make, &snap, &log)?;
    let want = ctx.inputs.live_after(RECOVERY_TAIL_BATCHES * spec.batch);
    let got: FxHashSet<Edge> = r.engine.live_input_edges().collect();
    tally.check(
        "offline recovery reproduces the live set",
        r.seq == RECOVERY_TAIL_BATCHES as u64 && got == want,
        || format!("seq {}, {} vs {} live edges", r.seq, got.len(), want.len()),
    );
    drop(r);
    let mut samples = Vec::new();
    repeat_timed(&mut samples, || {
        let t = Instant::now();
        let r = recover::<S>(ctx, make, &snap, &log)?;
        let dt = t.elapsed().as_secs_f64();
        drop(r);
        Ok(dt)
    })?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(samples)
}

pub fn recover<S: FullyDynamic + Send + 'static>(
    ctx: &Ctx,
    make: &Make<S>,
    snap: &Path,
    log: &Path,
) -> Result<wal::Recovered<S, HashPartitioner>, String> {
    let make = Arc::clone(make);
    wal::recover(
        snap,
        log,
        ShardedEngineBuilder::new(ctx.spec.n).shards(ctx.spec.shards),
        move |i, es| make(i, es),
    )
    .map_err(|e| format!("recover: {e}"))
}

/// Producer-side probe poll: one short pin.
fn poll(
    read: &ReadHandle<HashPartitioner>,
    pending: &mut Vec<Probe>,
    seen_ms: &mut Vec<f64>,
    tr: &mut Tracer,
) {
    let sp = tr.begin("probe.pin", 0);
    let g = read.pin();
    tr.end(sp);
    let hold = tr.begin("probe.hold", 0);
    observe(pending, seen_ms, Instant::now(), |e| g.contains(e));
    drop(g);
    tr.end(hold);
}

/// Sampled stretch audit (`csr::edge_stretch`, 64 sources) of output
/// `h` over the live edges.
pub fn stretch_check(ctx: &Ctx, live: &[Edge], h: &[Edge], tally: &mut Tally) {
    let bound = engines::stretch_bound(ctx.spec);
    let st = bds_graph::csr::edge_stretch(ctx.spec.n, live, h, 64, ctx.seed);
    tally.check("stretch audit", st <= bound, || {
        format!("sampled stretch {st} exceeds {bound}")
    });
}

fn final_checks<S: FullyDynamic>(
    ctx: &Ctx,
    read: &ReadHandle<HashPartitioner>,
    lanes: &[S],
    live: &FxHashSet<Edge>,
    follower: Option<Vec<Edge>>,
    out: &mut PhaseOut,
) {
    let g = read.pin();
    let view = g.edges();
    out.out_edges = view.len();
    let view_set: FxHashSet<Edge> = view.iter().copied().collect();
    let engine_out: FxHashSet<Edge> = lanes.iter().flat_map(|l| l.output_edges_vec()).collect();
    let t = &mut out.tally;
    t.check(
        "final view at the writer's seq",
        g.seq() == out.report.final_seq,
        || format!("{} != {}", g.seq(), out.report.final_seq),
    );
    t.check(
        "final view equals the engine output",
        view_set == engine_out,
        || format!("{} vs {} edges", view_set.len(), engine_out.len()),
    );
    t.check("served output is live", view_set.is_subset(live), || {
        "an edge that is not live".into()
    });
    let live_vec: Vec<Edge> = live.iter().copied().collect();
    stretch_check(ctx, &live_vec, &view, t);
    let bad = ctx
        .inputs
        .probes
        .iter()
        .filter(|&&p| g.contains(p) != live.contains(&p))
        .count();
    t.bulk(
        "final probe membership",
        ctx.inputs.probes.len() as u64,
        bad as u64,
    );
    if let Some(f) = follower {
        let f: FxHashSet<Edge> = f.into_iter().collect();
        t.check(
            "follower view equals the primary view",
            f == view_set,
            || format!("{} vs {} edges", f.len(), view_set.len()),
        );
    }
}

struct ReaderOut {
    reads_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    lag_max: u64,
    follower_edges: Option<Vec<Edge>>,
    tally: Tally,
    tracer: Tracer,
}

/// The reader client. In a flood it runs a closed loop of read requests
/// with a think time between them; in a paced phase it issues no
/// requests and only watches the probes the producer announces, at the
/// producer's poll cadence. On `durable_small` it reads the
/// `FollowerView` (after `catch_up`), elsewhere a pinned primary view.
struct Reader<'a> {
    ctx: &'a Ctx<'a>,
    read: ReadHandle<HashPartitioner>,
    follower: Option<FollowerView>,
    tr: Tracer,
    out: ReaderOut,
}

impl<'a> Reader<'a> {
    fn new(
        ctx: &'a Ctx<'a>,
        read: ReadHandle<HashPartitioner>,
        follower: Option<FollowerView>,
        traced: bool,
    ) -> Self {
        Reader {
            ctx,
            read,
            follower,
            tr: Tracer::new(traced, ctx.epoch, "reader"),
            out: ReaderOut {
                reads_ms: Vec::new(),
                visible_ms: Vec::new(),
                lag_max: 0,
                follower_edges: None,
                tally: Tally::default(),
                tracer: Tracer::new(false, ctx.epoch, "reader"),
            },
        }
    }

    /// Bring the follower up to the log's end.
    fn follow(&mut self, r: u64) -> Result<(), String> {
        let cu = self.tr.begin("follower.catch_up", r);
        let caught = self.follower.as_mut().map(FollowerView::catch_up);
        self.tr.end(cu);
        self.out
            .tally
            .check("follower catch_up", matches!(caught, Some(Ok(_))), || {
                format!("{caught:?}")
            });
        match self.follower {
            Some(_) => Ok(()),
            None => Err("durable reader without a follower".into()),
        }
    }

    /// Record the follower's lag behind the primary (one short pin).
    fn record_lag(&mut self, r: u64) {
        let Some(fseq) = self.follower.as_ref().map(FollowerView::seq) else {
            return;
        };
        let sp = self.tr.begin("reader.pin", r);
        let g = self.read.pin();
        self.tr.end(sp);
        let hold = self.tr.begin("reader.hold", r);
        self.out.lag_max = self.out.lag_max.max(g.seq().saturating_sub(fseq));
        drop(g);
        self.tr.end(hold);
    }

    /// One read request: membership and degree of `q` query edges and
    /// vertices. Returns its latency and whether its answers were
    /// inconsistent (an edge reported present whose endpoint has degree
    /// 0 in the same view).
    fn request(&mut self, r: u64) -> Result<(Duration, bool), String> {
        let inp = self.ctx.inputs;
        let range = inp.query_range(r, self.ctx.spec.q);
        let (edges, vertices) = (&inp.query_edges[range.clone()], &inp.query_vertices[range]);
        let mut bools = Vec::with_capacity(edges.len());
        let mut degs = Vec::with_capacity(vertices.len());
        let req = self.tr.begin("reader.request", r);
        let t0 = Instant::now();
        let dt = match self.ctx.spec.kind {
            Kind::Spanner => {
                let sp = self.tr.begin("reader.pin", r);
                let g = self.read.pin();
                self.tr.end(sp);
                let hold = self.tr.begin("reader.hold", r);
                let q = self.tr.begin("reader.query", r);
                g.batch_contains(edges, &mut bools);
                g.batch_degree(vertices, &mut degs);
                self.tr.end(q);
                let dt = t0.elapsed();
                drop(g);
                self.tr.end(hold);
                dt
            }
            Kind::Durable => {
                self.follow(r)?;
                let q = self.tr.begin("reader.query", r);
                if let Some(fv) = &self.follower {
                    let view = fv.view();
                    for (e, &v) in edges.iter().zip(vertices) {
                        bools.push(view.contains(*e));
                        degs.push(view.degree(v));
                    }
                }
                let dt = t0.elapsed();
                self.tr.end(q);
                // Outside the timed request.
                self.record_lag(r);
                dt
            }
        };
        self.tr.end(req);
        let bad = bools.iter().zip(&degs).any(|(&c, &d)| c && d == 0);
        Ok((dt, bad))
    }

    /// Flood: a closed loop of one read request, then a seeded think
    /// time, until `stop`.
    fn requests(mut self, stop: &AtomicBool) -> Result<ReaderOut, String> {
        let mut think = StdRng::seed_from_u64(self.ctx.seed ^ 0x7417_71e5);
        let (mut reads, mut bad_reads) = (0u64, 0u64);
        for r in 0.. {
            // ordering: SeqCst — pairs with the producer's store after it
            // joined the writer, so the last pass reads the drained state.
            let last = stop.load(SeqCst);
            let (dt, bad) = self.request(r)?;
            reads += 1;
            bad_reads += u64::from(bad);
            if last {
                break;
            }
            self.out.reads_ms.push(dt.as_secs_f64() * 1e3);
            // Seeded think time, uniform around the workload's mean: a
            // fixed one lets the reader phase-lock with the writer's
            // publishes.
            std::thread::sleep(self.ctx.spec.think.mul_f64(2.0 * think.gen::<f64>()));
        }
        self.out
            .tally
            .bulk("read requests with consistent answers", reads, bad_reads);
        Ok(self.finish())
    }

    /// Paced: wait for announced probes, then look for them every
    /// `POLL_EVERY` until each is visible; after `stop`, one last look.
    fn watch(mut self, probes: Receiver<Probe>, stop: &AtomicBool) -> Result<ReaderOut, String> {
        let mut pending: Vec<Probe> = Vec::new();
        for r in 0.. {
            // ordering: SeqCst — as in `requests`.
            let last = stop.load(SeqCst);
            if pending.is_empty() && !last {
                match probes.recv_timeout(POLL_EVERY) {
                    Ok(p) => add_probe(&mut pending, p),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => std::thread::sleep(POLL_EVERY),
                }
            }
            while let Ok(p) = probes.try_recv() {
                add_probe(&mut pending, p);
            }
            let now = match self.ctx.spec.kind {
                Kind::Spanner => {
                    let sp = self.tr.begin("reader.pin", r);
                    let g = self.read.pin();
                    self.tr.end(sp);
                    let hold = self.tr.begin("reader.hold", r);
                    let now = Instant::now();
                    observe(&mut pending, &mut self.out.visible_ms, now, |e| {
                        g.contains(e)
                    });
                    drop(g);
                    self.tr.end(hold);
                    now
                }
                Kind::Durable => {
                    self.follow(r)?;
                    let now = Instant::now();
                    if let Some(fv) = &self.follower {
                        let view = fv.view();
                        observe(&mut pending, &mut self.out.visible_ms, now, |e| {
                            view.contains(e)
                        });
                    }
                    self.record_lag(r);
                    now
                }
            };
            if last {
                break;
            }
            if !pending.is_empty() {
                std::thread::sleep(POLL_EVERY.saturating_sub(now.elapsed()));
            }
        }
        Ok(self.finish())
    }

    fn finish(mut self) -> ReaderOut {
        if let Some(fv) = &self.follower {
            self.out.follower_edges = Some(fv.view().edges());
        }
        self.out.tracer = self.tr;
        self.out
    }
}
