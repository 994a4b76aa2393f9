//! The printed result: the metric list, the run record, and the last
//! line's JSON object.

use std::fmt::Write as _;

use crate::workloads::{Workload, DAEMON_WORKERS};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's `BENCHMARK.json` name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Metrics plus the sample count behind each timing.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// `(metric, samples)` for every metric taken from a distribution.
    pub samples: Vec<(&'static str, usize)>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a metric taken from `samples` measurements.
    pub fn push_sampled(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.push(name, value, unit);
        self.samples.push((name, samples));
    }
}

/// A JSON string literal (the names and values written here need only
/// quote and backslash escaping, plus control characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which a correct run never
/// produces) become `null` so the line stays parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The run record printed before the result: machine, pool and daemon
/// sizes, seed, commit, compiler, and every sample count.
pub fn run_record(
    workload: Workload,
    seed: u64,
    trace: bool,
    samples: &[(&'static str, usize)],
) -> String {
    let counts: Vec<String> = samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"run_record\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \"pool_threads\": {}, \"daemon_workers\": {DAEMON_WORKERS}, \"git_commit\": {}, \"rustc\": {}, \"samples\": {{{}}}}}}}",
        json_str(workload.name()),
        rayon::current_num_threads(),
        json_str(&git_commit()),
        json_str(&rustc_version()),
        counts.join(", ")
    )
}

/// The process's peak resident set in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(r))
            .unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

fn packed_ref(name: &str) -> Option<String> {
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            let (hash, r) = l.split_once(' ')?;
            (r == name).then(|| hash.to_string())
        })
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
