//! Serving benchmark for the batch-dynamic engines.
//!
//! Two workloads (see `perfbench/README.md`), each driven from
//! outside through the public `bds_graph::serve` / `shard` / `wal`
//! API. The untraced binary prints every end-to-end metric; the
//! traced binary (`perfbench_traced`, with a counting allocator)
//! records spans around every layer call and prints the per-layer
//! metrics. The last stdout line is the JSON result.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod engines;
pub mod gen;
pub mod out;
pub mod phase;
pub mod replay;
pub mod trace;

use bds_graph::api::FullyDynamic;
use engines::Make;
use gen::{Inputs, Kind};
use out::{median, quantile, repeat_timed, Metrics, Tally};
use phase::{Ctx, Mode, PhaseOut, Recovery};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut scratch = PathBuf::from(".bench_scratch");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--scratch" => scratch = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        scratch,
    })
}

/// Entry point of both binaries; returns the process exit code.
pub fn main_with(traced: bool) -> i32 {
    match parse_args().and_then(|a| run(&a, traced)) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// (steal, total) CPU ticks so far, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run(args: &Args, traced: bool) -> Result<String, String> {
    let spec =
        gen::spec(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    std::fs::create_dir_all(&args.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let inputs = Inputs::generate(&spec, args.seed);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let prov = out::json_object(&[
        ("workload", spec.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", traced.to_string()),
        ("host", host.trim().to_string()),
        ("nproc", nproc.to_string()),
        ("inner_threads", bds_par::threads_available().to_string()),
        ("git_rev", env("PERFBENCH_GIT_REV")),
        ("source_digest", env("PERFBENCH_SOURCE_DIGEST")),
        ("graph", inputs.graph.clone()),
        ("n", spec.n.to_string()),
        ("m_init", inputs.init.len().to_string()),
        ("shards", format!("{} x HashPartitioner", spec.shards)),
        ("batch_policy", format!("Fixed({})", spec.batch)),
        ("paced_rate_per_s", spec.paced_rate.to_string()),
        (
            "fsync_policy",
            if spec.kind == Kind::Durable {
                format!(
                    "EveryN({}), snapshot every {} batches",
                    spec.fsync_every, spec.snapshot_every
                )
            } else {
                "none (no WAL)".into()
            },
        ),
        ("scratch", args.scratch.display().to_string()),
        ("scratch_fs", env("PERFBENCH_SCRATCH_FS")),
    ]);
    println!("{{\"provenance\": {prov}}}");
    let ctx = Ctx {
        spec: &spec,
        inputs: &inputs,
        seed: args.seed,
        scratch: args.scratch.clone(),
        epoch: Instant::now(),
    };
    let secs = args.seconds;
    let (steal0, total0) = cpu_ticks();
    let line = match spec.kind {
        Kind::Spanner => run_kind(&ctx, engines::spanner_make(&spec), secs, traced),
        Kind::Durable => run_kind(&ctx, engines::durable_make(&spec), secs, traced),
    }?;
    // Time the hypervisor ran something else on our vCPUs: a run with a
    // large share was measured on a contended host.
    let (steal1, total1) = cpu_ticks();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    println!("{{\"provenance\": {{\"cpu_steal_share\": \"{steal:.4}\"}}}}");
    Ok(line)
}

fn summary(name: &str, p: &PhaseOut) {
    let r = &p.report;
    eprintln!(
        "[{name}] sent {} in {:.2}s ({:.0}/s), batches {}, apply {:.2}s, pin_wait {:.2}s, wal {:.2}s, reads {}, \
         probes seen {}/{} (producer/reader), |H| {}, setup {:.3}s",
        p.sent,
        p.wall_s,
        p.sent as f64 / p.wall_s,
        r.batches,
        r.apply_ns_total as f64 * 1e-9,
        r.pin_wait_ns as f64 * 1e-9,
        r.wal_ns_total as f64 * 1e-9,
        p.reads_ms.len(),
        p.visible_ms.len(),
        p.follower_visible_ms.len(),
        p.out_edges,
        p.setup_s,
    );
}

fn run_kind<S: FullyDynamic + Send + 'static>(
    ctx: &Ctx,
    make: Make<S>,
    secs: f64,
    traced: bool,
) -> Result<String, String> {
    let spec = ctx.spec;
    let paced_ops = |share: f64| (spec.paced_rate * secs * share).round().max(1.0) as usize;
    let flood = Mode::Flood(spec.flood_ops);
    let durable = spec.kind == Kind::Durable;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if !traced {
        // One serving session (a flood, then the paced phase) gives the
        // peak memory; then floods of the same fixed work from fresh
        // engines follow until half the run has been spent flooding, and
        // throughput is the median over all floods. Repeated floods leave
        // allocator fragmentation behind that no single session has, so
        // they come after the peak.
        let first = phase::run_phase(ctx, &make, flood, false, "flood", Recovery::Timed)?;
        summary("flood", &first);
        let paced = phase::run_phase(
            ctx,
            &make,
            Mode::Paced(paced_ops(0.4)),
            false,
            "paced",
            Recovery::Exact,
        )?;
        summary("paced", &paced);
        let peak_rss = peak_rss_mib();
        let mut floods = vec![first];
        while floods.iter().map(|f| f.wall_s).sum::<f64>() < secs * 0.5 {
            let f = phase::run_phase(ctx, &make, flood, false, "flood", Recovery::Checked)?;
            summary("flood", &f);
            floods.push(f);
        }
        let mut setup: Vec<f64> = floods.iter().map(|f| f.setup_s).collect();
        setup.push(paced.setup_s);
        repeat_timed(&mut setup, || phase::setup_sample(ctx, &make, "setup"))?;
        let recover = if durable {
            floods[0].recover_s.clone()
        } else {
            phase::offline_recovery(ctx, &make, &mut tally)?
        };
        let rates: Vec<f64> = floods.iter().map(|f| f.sent as f64 / f.wall_s).collect();
        let reads: Vec<f64> = floods
            .iter()
            .flat_map(|f| f.reads_ms.iter().copied())
            .collect();
        m.put("updates_per_s", median(&rates), "1/s");
        m.put("read_p50_ms", median(&reads), "ms");
        m.put("read_p90_ms", quantile(&reads, 0.9), "ms");
        m.put("recover_s", median(&recover), "s");
        m.put("setup_s", median(&setup), "s");
        m.put("peak_rss_mib", peak_rss, "MiB");
        // Averaged over fixed positions of the paced stream: the engines'
        // output size saws with their rebuild cycles, so an end-state
        // sample is noisy, and the flood reaches further into the stream
        // the faster the program is.
        let mean_len = paced.view_len.iter().sum::<f64>() / paced.view_len.len().max(1) as f64;
        m.put(
            "output_edges_per_vertex",
            mean_len / spec.n as f64,
            "edges/vertex",
        );
        let fmt_s = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!(
            "samples: reads {}, probes {}, follower probes {}\nflood rates: {}\nsetup_s samples: {}\nrecover_s samples: {}",
            reads.len(),
            paced.visible_ms.len(),
            paced.follower_visible_ms.len(),
            fmt_s(&rates),
            fmt_s(&setup),
            fmt_s(&recover)
        );
        // Visibility is a per-layer metric (see the README): shown here,
        // not reported.
        eprintln!(
            "visible p50/p90 {:.3}/{:.3} ms, reader-observed p50 {:.3} ms",
            median(&paced.visible_ms),
            quantile(&paced.visible_ms, 0.9),
            median(&paced.follower_visible_ms)
        );
        for f in floods {
            tally.merge(f.tally);
        }
        tally.merge(paced.tally);
    } else {
        let reference = phase::run_phase(ctx, &make, flood, false, "ref", Recovery::Checked)?;
        summary("flood untraced", &reference);
        let flood = phase::run_phase(ctx, &make, flood, true, "flood", Recovery::Checked)?;
        summary("flood traced", &flood);
        let paced = phase::run_phase(
            ctx,
            &make,
            Mode::Paced(paced_ops(0.2)),
            true,
            "paced",
            Recovery::Exact,
        )?;
        summary("paced traced", &paced);
        let mut tr = Tracer::new(true, ctx.epoch, "replay");
        replay::replays(ctx, &make, &mut tr, &mut tally, &mut m)?;
        let mut segments = vec![("replay", 0, tr.spans().len())];
        for t in [flood.producer, flood.reader, paced.producer, paced.reader] {
            segments.push(tr.absorb(t));
        }
        let readers: Vec<_> = segments
            .iter()
            .copied()
            .filter(|s| s.0 == "reader")
            .collect();
        let r = &flood.report;
        let wall_ns = flood.wall_s * 1e9;
        let share = |ns: u64| ns as f64 / wall_ns;
        let other = 1.0 - share(r.apply_ns_total) - share(r.pin_wait_ns) - share(r.wal_ns_total);
        m.put("serve.apply_share", share(r.apply_ns_total), "ratio");
        m.put("serve.pin_wait_share", share(r.pin_wait_ns), "ratio");
        m.put("serve.wal_share", share(r.wal_ns_total), "ratio");
        m.put("serve.other_share", other.max(0.0), "ratio");
        m.put(
            "serve.mean_batch",
            r.raw_updates as f64 / r.batches.max(1) as f64,
            "count",
        );
        m.put(
            "serve.noop_ratio",
            (r.dropped_noops + 2 * r.cancelled_pairs) as f64 / r.raw_updates.max(1) as f64,
            "ratio",
        );
        let us = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
        let ms = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e6).collect::<Vec<_>>();
        // Only the flood's sends (segment 1): the paced ones are rate-limited.
        let flood_sends = spans_in(&tr, &segments[1..2], "client.send");
        m.put(
            "serve.send_wait_us_p90",
            quantile(&us(flood_sends), 0.9),
            "us",
        );
        m.put(
            "reader.pin_us_p50",
            median(&us(spans_in(&tr, &readers, "reader.pin"))),
            "us",
        );
        let hold = ms(spans_in(&tr, &readers, "reader.hold"));
        m.put("reader.hold_ms_p50", median(&hold), "ms");
        m.put("reader.hold_ms_p90", quantile(&hold, 0.9), "ms");
        let queries = spans_in(&tr, &readers, "reader.query");
        m.put(
            "reader.query_ns",
            queries.iter().sum::<f64>() / (queries.len().max(1) * 2 * spec.q) as f64,
            "ns",
        );
        if durable {
            m.put(
                "follower.catch_up_us_p50",
                median(&us(spans_in(&tr, &readers, "follower.catch_up"))),
                "us",
            );
            m.put(
                "follower.lag_batches_max",
                flood.lag_max.max(paced.lag_max) as f64,
                "count",
            );
        }
        m.put("serve.visible_p50_ms", median(&paced.visible_ms), "ms");
        m.put(
            "serve.visible_p90_ms",
            quantile(&paced.visible_ms, 0.9),
            "ms",
        );
        m.put(
            "follower.visible_p50_ms",
            median(&paced.follower_visible_ms),
            "ms",
        );
        m.put("client.late_ms_p90", quantile(&paced.late_ms, 0.9), "ms");
        let untraced = reference.sent as f64 / reference.wall_s;
        let traced_rate = flood.sent as f64 / flood.wall_s;
        m.put("trace.overhead_ratio", untraced / traced_rate, "ratio");
        let path = ctx
            .scratch
            .join("trace")
            .join(format!("{}-seed{}.tsv", spec.name, ctx.seed));
        trace::write_tsv(&path, &segments, tr.spans()).map_err(|e| format!("write trace: {e}"))?;
        eprintln!("spans: {} written to {}", tr.spans().len(), path.display());
        eprintln!("self time by span (count, total ms):");
        for (name, count, ns) in trace::self_times(tr.spans()) {
            eprintln!("  {name:<28} {count:>9} {:>12.3}", ns as f64 / 1e6);
        }
        tally.merge(reference.tally);
        tally.merge(flood.tally);
        tally.merge(paced.tally);
    }
    if !traced {
        m.put("success_rate", tally.success_rate(), "ratio");
    }
    eprintln!("checks (attempted, failed, category):\n{}", tally.summary());
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    Ok(out::result_line(&mut tally, &m))
}

/// Durations (ns) of the spans called `name` within the given tracer
/// segments `(thread, first span, span count)`.
fn spans_in(tr: &Tracer, segments: &[(&'static str, usize, usize)], name: &str) -> Vec<f64> {
    segments
        .iter()
        .flat_map(|&(_, base, n)| tr.spans().iter().skip(base).take(n))
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}
