//! Percentiles, check bookkeeping, and the one-line JSON result.

/// Nearest-rank quantile of `v` (`q` in 0..=1); NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() - 1) as f64 * q).round() as usize;
    s.get(idx.min(s.len() - 1)).copied().unwrap_or(f64::NAN)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// A once-per-run timing (`setup_s`, `recover_s`) is sampled until it has
/// at least `REPEATS` samples and `REPEAT_SECONDS` worth of them (at most
/// `MAX_REPEATS`); the metric is their median.
const REPEATS: usize = 11;
const REPEAT_SECONDS: f64 = 4.0;
const MAX_REPEATS: usize = 41;

pub fn repeat_timed(
    samples: &mut Vec<f64>,
    mut once: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    while samples.len() < REPEATS
        || (samples.iter().sum::<f64>() < REPEAT_SECONDS && samples.len() < MAX_REPEATS)
    {
        samples.push(once()?);
    }
    Ok(())
}

/// Checked operations by category: (category, attempted, failed).
///
/// `success_rate` is the lowest pass rate over the categories, not the
/// pass rate of all operations together: a final-state check (the view
/// equals the engine output, recovery reproduces it, ...) is a category
/// of its own, so one failure of it drives the rate to 0 however many
/// per-read checks passed.
#[derive(Debug, Default)]
pub struct Tally {
    cats: Vec<(&'static str, u64, u64)>,
    /// One note per failure (printed to stderr at the end of the run).
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 50;

impl Tally {
    fn add(&mut self, cat: &'static str, n: u64, bad: u64) {
        match self.cats.iter_mut().find(|c| c.0 == cat) {
            Some(c) => {
                c.1 += n;
                c.2 += bad;
            }
            None => self.cats.push((cat, n, bad)),
        }
    }

    /// Count one checked operation of category `cat`.
    pub fn check(&mut self, cat: &'static str, ok: bool, what: impl FnOnce() -> String) {
        self.add(cat, 1, u64::from(!ok));
        if !ok && self.notes.len() < MAX_NOTES {
            self.notes.push(format!("{cat}: {}", what()));
        }
    }

    /// Count `n` operations of category `cat`, of which `bad` failed.
    pub fn bulk(&mut self, cat: &'static str, n: u64, bad: u64) {
        self.add(cat, n, bad);
        if bad > 0 && self.notes.len() < MAX_NOTES {
            self.notes.push(format!("{cat}: {bad} of {n} failed"));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (cat, n, bad) in other.cats {
            self.add(cat, n, bad);
        }
        for n in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(n);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.cats.iter().map(|c| c.1).sum()
    }

    pub fn failed(&self) -> u64 {
        self.cats.iter().map(|c| c.2).sum()
    }

    /// The lowest pass rate over the categories (1 with no checks).
    pub fn success_rate(&self) -> f64 {
        self.cats
            .iter()
            .filter(|c| c.1 > 0)
            .map(|c| (c.1 - c.2) as f64 / c.1 as f64)
            .fold(1.0, f64::min)
    }

    /// `attempted failed category` lines, for stderr.
    pub fn summary(&self) -> String {
        self.cats
            .iter()
            .map(|(cat, n, bad)| format!("  {n:>9} {bad:>4}  {cat}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON object from string pairs (provenance lines).
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line. A non-finite metric is a failed check (JSON has no
/// NaN), reported as -1.
pub fn result_line(tally: &mut Tally, metrics: &Metrics) -> String {
    let mut parts = Vec::with_capacity(metrics.0.len());
    for (name, value, unit) in &metrics.0 {
        let v = if value.is_finite() {
            *value
        } else {
            tally.check("finite metrics", false, || format!("{name} is not finite"));
            -1.0
        };
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            fmt_num(v),
            json_str(unit)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted().max(1),
        tally.failed(),
        parts.join(", ")
    )
}

fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('e') || s.contains('.') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}
