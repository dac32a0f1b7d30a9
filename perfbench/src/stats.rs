//! Percentiles and the result table.

use std::fmt::Write as _;

/// Nearest-rank percentile of `xs` (`p` in `0..=1`); 0 when empty.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nanosecond samples converted to `unit_ns`-sized units.
pub fn scaled(ns: &[u64], unit_ns: f64) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / unit_ns).collect()
}

/// Time segments a timed phase is split into. Segment statistics are
/// combined by their median, so a burst of outside load that hits one
/// or two segments does not move the result.
pub const SEGMENTS: usize = 10;

/// Samples `(offset, value)` of a phase of length `run_ns`, grouped by
/// the segment their offset falls in.
fn segments(samples: &[(u64, f64)], run_ns: u64) -> Vec<Vec<f64>> {
    let mut segs = vec![Vec::new(); SEGMENTS];
    for &(at, v) in samples {
        let i = (at as u128 * SEGMENTS as u128 / run_ns.max(1) as u128) as usize;
        segs[i.min(SEGMENTS - 1)].push(v);
    }
    segs
}

/// The median over segments of each segment's `p`-percentile.
pub fn seg_pct(samples: &[(u64, f64)], run_ns: u64, p: f64) -> f64 {
    let per: Vec<f64> = segments(samples, run_ns)
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| pct(s, p))
        .collect();
    pct(&per, 0.5)
}

/// The median over segments of each segment's completions per second.
pub fn seg_rate(offsets: &[u64], run_ns: u64) -> f64 {
    let samples: Vec<(u64, f64)> = offsets.iter().map(|&at| (at, 1.0)).collect();
    let seg_s = run_ns as f64 / 1e9 / SEGMENTS as f64;
    let per: Vec<f64> = segments(&samples, run_ns)
        .iter()
        .map(|s| s.len() as f64 / seg_s)
        .collect();
    pct(&per, 0.5)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (0 when not a sample
    /// statistic).
    pub samples: usize,
    /// Printed in the table only, left out of the JSON line.
    pub table_only: bool,
}

/// Metrics in report order, printed as a table and as the final JSON
/// line.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            table_only: false,
        });
    }

    /// A metric for the table only (see [`Metric::table_only`]).
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.add(name, value, unit, samples);
        self.metrics.last_mut().expect("just added").table_only = true;
    }

    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let n = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            let tag = if m.table_only { "  [table only]" } else { "" };
            let _ = writeln!(
                s,
                "  {:<28} {:>14.4} {:<6}{n}{tag}",
                m.name, m.value, m.unit
            );
        }
        s
    }

    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.table_only)
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}
