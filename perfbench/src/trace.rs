//! In-memory span recorder for the traced run.
//!
//! Each client thread owns one [`Tracer`]; a span is recorded around
//! every call the benchmark makes into a layer's public API (name,
//! start, end, parent span, request id). Nothing is written while a
//! phase runs: the spans stay in memory and [`write_tsv`] dumps them
//! when the run ends. With tracing off, `begin`/`end` return at once
//! and read no clock, so the untraced run pays one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Id of "no span" (tracing off, or a root span's parent).
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log; all tracers of a run share one epoch so
/// their timestamps are comparable.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: &'static str) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it).
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let t = self.now();
        while let Some(top) = self.open.pop() {
            if let Some(s) = self.spans.get_mut(top as usize) {
                s.end_ns = t;
            }
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another tracer's spans in (re-parenting their ids).
    pub fn absorb(&mut self, other: Tracer) -> (&'static str, usize, usize) {
        let base = self.spans.len() as u32;
        let n = other.spans.len();
        for mut s in other.spans {
            if s.parent != NONE {
                s.parent += base;
            }
            self.spans.push(s);
        }
        (other.thread, base as usize, n)
    }
}

/// Self time per span name: duration minus the part covered by direct
/// children (children of one thread never overlap).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = child_ns.get_mut(s.parent as usize) {
            *c += s.dur_ns();
        }
    }
    let mut agg: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (s, c) in spans.iter().zip(&child_ns) {
        let e = agg.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns().saturating_sub(*c);
    }
    agg.into_iter().map(|(k, (n, ns))| (k, n, ns)).collect()
}

/// Write spans as tab-separated lines:
/// `segment id parent req name start_ns end_ns` (ids are global).
pub fn write_tsv(
    path: &Path,
    segments: &[(&'static str, usize, usize)],
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tid\tparent\treq\tname\tstart_ns\tend_ns")?;
    for &(thread, base, n) in segments {
        for (i, s) in spans.iter().enumerate().skip(base).take(n) {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{thread}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}
