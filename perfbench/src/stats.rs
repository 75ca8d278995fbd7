//! What a run measured, the statistics over it, and the result line.

use std::time::Duration;

/// One named metric with its unit, as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Latencies the timed phase's buffer is reserved for up front. Pages
/// of a large reservation are mapped as they are written, so the
/// buffer's share of `peak_rss_mb` grows with the op count instead of
/// jumping at each doubling of a growing vector.
const LATENCY_RESERVE: usize = 1 << 20;

/// The timed phase of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Latency of every op attempted in the timed phase.
    pub latencies: Vec<Duration>,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Attempted ops whose output failed a check.
    pub failed: u64,
    /// Length of the timed phase.
    pub elapsed: Duration,
    /// One sample per repeated set-up, each up to the timed phase.
    pub setup: Vec<Duration>,
    /// Every failed check, described; a failed check anywhere in the
    /// run (timed phase, set-up or a cross-check) makes the run
    /// incorrect.
    pub problems: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            latencies: Vec::with_capacity(LATENCY_RESERVE),
            attempted: 0,
            failed: 0,
            elapsed: Duration::ZERO,
            setup: Vec::new(),
            problems: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Counts one op: its latency, and whether its output passed.
    pub fn op(&mut self, latency: Duration, ok: bool) {
        self.latencies.push(latency);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another outcome's ops and problems to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.latencies.extend_from_slice(&other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            self.problem(p);
        }
    }

    /// Records a failed check; the first few are kept verbatim.
    pub fn problem(&mut self, what: impl Into<String>) {
        if self.problems.len() < 8 {
            self.problems.push(what.into());
        } else if self.problems.len() == 8 {
            self.problems.push("(further failures not listed)".into());
        }
    }

    /// Ops that passed their checks, per second of the timed phase.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    pub fn end_to_end_metrics(&self) -> Vec<Metric> {
        let mut lat = self.latencies.clone();
        lat.sort_unstable();
        vec![
            Metric::new("throughput_ops_s", self.throughput(), "1/s"),
            Metric::new("latency_p50_ms", ms(percentile(&lat, 0.50)), "ms"),
            Metric::new("latency_p90_ms", ms(percentile(&lat, 0.90)), "ms"),
            Metric::new(
                "correct_ratio",
                (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("setup_s", median(&self.setup).as_secs_f64(), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of sorted samples (zero when empty).
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[Duration]) -> Duration {
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile(&s, 0.5)
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics as JSON object members, `"name": {"value": v, "unit": u}`.
/// Values print in Rust's shortest round-trip form, which is valid JSON
/// for every finite value; a non-finite one (a defect `main` reports)
/// prints as 0.
pub fn metrics_json(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics).join(", ")
    )
}
