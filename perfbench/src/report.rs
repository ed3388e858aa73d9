//! Turning samples into named metrics, and the run's printed output:
//! the JSON result line, the run context, and the trace summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use atk_trace::{Histogram, Snapshot};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes (0 for counts and ratios).
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The nearest-rank `q`-quantile of `samples` (sorted here), 0 when
/// empty.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples a p99 needs: ten of them beyond it.
pub const P99_SAMPLES: usize = 1000;

/// The highest quantile up to p99 with at least ten of `n` samples
/// beyond it: p99 from 1000 samples on, the median below 20.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples: &[u64]) -> f64 {
    quantile(samples, 0.5) as f64 / 1e3
}

/// The `q`-quantile of a log2-bucket histogram of truncated integer
/// samples, interpolated linearly inside the bucket that holds it:
/// bucket `i` holds true values in `[2^(i-1), 2^i)` (bucket 0:
/// `[0, 1)`). The exporter's `approx_percentile` returns the bucket's
/// lower bound, which reads the same on most runs. 0 for an empty or
/// absent histogram.
pub fn hist_quantile(h: Option<&Histogram>, q: f64) -> f64 {
    let Some(h) = h.filter(|h| h.count > 0) else {
        return 0.0;
    };
    let rank = (q * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= rank {
            let (lo, hi) = match i {
                0 => (0.0, 1.0),
                _ => ((1u64 << (i - 1)) as f64, (1u128 << i) as f64),
            };
            let at = lo + (hi - lo) * (rank - seen) / n as f64;
            return at.clamp(h.min as f64, h.max as f64 + 1.0);
        }
        seen += n as f64;
    }
    h.max as f64
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Renders the JSON result line (the last line of standard output).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite float as JSON (non-finite values become 0; the self-test
/// and the correctness flag catch them first).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Quotes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: u64 = 100;

/// CPU time this process has used so far, every thread included (live
/// or exited), in nanoseconds, from `utime + stime` in
/// `/proc/self/stat`. The kernel leaves time the hypervisor stole out
/// of it. 0 where it is unavailable.
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the command name, which may hold spaces: state is
    // field 3, utime 14, stime 15.
    let fields: Vec<u64> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    fields.iter().sum::<u64>() * (1_000_000_000 / USER_HZ)
}

/// `(steal, total)` CPU ticks of the whole host so far, from the
/// `cpu` line of `/proc/stat`; `None` where it is unavailable.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Per span name: calls, total and self time, p50 and p99. Self time
/// is a span's duration minus the part its child spans cover.
pub fn self_time_summary(parts: &[(String, Snapshot)]) -> String {
    let mut out = String::from(
        "part              span                      calls     total_ms      self_ms     p50_us     p99_us\n",
    );
    for (label, snap) in parts {
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &snap.spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.dur_us;
            }
        }
        let mut rows: BTreeMap<&str, (Vec<u64>, u64)> = BTreeMap::new();
        for s in &snap.spans {
            let row = rows.entry(s.name).or_default();
            row.0.push(s.dur_us);
            row.1 += s
                .dur_us
                .saturating_sub(child_us.get(&s.seq).copied().unwrap_or(0));
        }
        for (name, (durs, self_us)) in rows {
            let total: u64 = durs.iter().sum();
            let p99 = if durs.len() >= P99_SAMPLES {
                quantile(&durs, 0.99).to_string()
            } else {
                "-".into()
            };
            let _ = writeln!(
                out,
                "{label:<17} {name:<25} {:>6} {:>12.3} {:>12.3} {:>10} {:>10}",
                durs.len(),
                total as f64 / 1e3,
                self_us as f64 / 1e3,
                quantile(&durs, 0.5),
                p99
            );
        }
        if snap.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "{label:<17} ({} spans dropped by the ring)",
                snap.dropped_spans
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&v, tail_q(v.len())), 90);
        assert_eq!(tail_q(2000), 0.99);
        assert_eq!(tail_q(3), 0.5);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let mut h = Histogram::default();
        for v in [100, 110, 120, 130, 200, 210, 220, 230] {
            h.record(v);
        }
        let p50 = hist_quantile(Some(&h), 0.5);
        // Rank 4 is the first of five samples in [128, 256).
        assert!((p50 - 153.6).abs() < 1e-9, "{p50}");
        // Interpolation never passes the largest sample's bucket slot.
        assert_eq!(hist_quantile(Some(&h), 0.99), 231.0);
        assert_eq!(hist_quantile(None, 0.5), 0.0);
    }

    #[test]
    fn result_line_is_valid_json() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("a_ms", 1.25, "ms", 3),
                Metric::new("b", f64::NAN, "s", 0),
            ],
        );
        atk_trace::validate_json(&line).unwrap();
        assert!(line.contains("\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }
}
