//! Metrics, the tail-percentile rule, the simulated-output digest, the
//! host line and the result line.

use std::fmt::Write as _;

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time or memory.
    Host,
    /// Simulated quantity: deterministic for a seed.
    Sim,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "simulated",
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Host or simulated.
    pub clock: Clock,
    /// What the value means on this workload.
    pub note: String,
}

impl Metric {
    /// A host-clock metric.
    pub fn host(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Host,
            note: note.into(),
        }
    }

    /// A simulated metric.
    pub fn sim(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Sim,
            note: note.into(),
        }
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The percentiles the tail rule may pick, lowest first.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// The tail of `xs`: the highest percentile of [`TAIL_LADDER`] that
/// leaves at least ten samples strictly above its nearest-rank
/// position, with its value. `None` when even the median leaves fewer
/// than ten (under 20 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, ((p * n as f64).ceil() as usize).max(1)))
        .find(|&(_, rank)| rank <= n && n - rank >= 10)
        .map(|(p, rank)| (p, v[rank - 1]))
}

/// FNV-1a over the simulated outputs of a run: identical inputs and an
/// identical simulated trajectory give an identical digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a number in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a string in.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host line printed with every result.
pub fn host_line() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={} available_parallelism={} profile={} rustc=\"{}\" git_rev={}",
        command_line("nproc", &[]),
        parallelism,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        command_line("rustc", &["--version"]),
        if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "--short", "HEAD"])
        } else {
            "none (not a git checkout)".to_string()
        },
    )
}

/// Human-readable metric lines: name, value, unit, clock, meaning.
pub fn render(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<32} {:>14.6} {:<10} {:<9} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label(),
            m.note
        );
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (`{"name": {"value": v, "unit": u}}`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 0..20 {
            assert_eq!(tail(&samples(n)), None, "n = {n}");
        }
        assert_eq!(tail(&samples(20)), Some((0.5, 10.0)));
        assert_eq!(tail(&samples(39)), Some((0.5, 20.0)));
        assert_eq!(tail(&samples(40)), Some((0.75, 30.0)));
        assert_eq!(tail(&samples(100)), Some((0.9, 90.0)));
        assert_eq!(tail(&samples(199)), Some((0.9, 180.0)));
        assert_eq!(tail(&samples(200)), Some((0.95, 190.0)));
        for n in 20..500 {
            let (p, v) = tail(&samples(n)).expect("n >= 20 has a tail");
            let beyond = samples(n).iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n = {n}, p = {p}: {beyond} beyond");
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::host("setup_s", 0.5, "s", ""),
                Metric::sim("x.y", 2.0, "count", ""),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x.y\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.u64(1);
        b.u64(2);
        assert_ne!(a, b);
        a.str("x");
        b = a;
        b.str("");
        assert_ne!(a, b);
    }
}
