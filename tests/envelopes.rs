//! The committed benchmark envelopes (`benchmarks/BENCH_*.json`) pinned
//! bound by bound.
//!
//! Every envelope must parse as a `BenchRecord`, gate clean against
//! itself, and carry exactly the gated metrics listed in [`PINNED`]
//! with exactly those bounds. For every gated metric, a run moved just
//! past the bound fails on that metric alone, and a run just inside it
//! passes. Loosening or dropping a bound in an envelope fails here.

use dgs::net::{BenchRecord, Better};
use std::path::Path;

/// `(file, metric, tolerance, slack, limit, the bound they make)`.
type Pin = (
    &'static str,
    &'static str,
    Option<f64>,
    Option<f64>,
    Option<f64>,
    f64,
);

const T20: Option<f64> = Some(0.20);
const T25: Option<f64> = Some(0.25);
const S500: Option<f64> = Some(500.0);
const S2000: Option<f64> = Some(2000.0);
const S200: Option<f64> = Some(200.0);

/// Every gated metric of every committed envelope, in file order.
#[rustfmt::skip]
const PINNED: &[Pin] = &[
    // Serving: 20% / 500 us, throughput floored at base/1.2, errors 0.
    ("BENCH_serving.json", "throughput_rps", T20, None, None, 12_500.0),
    ("BENCH_serving.json", "p50_us", T20, S500, None, 750.0),
    ("BENCH_serving.json", "p95_us", T20, S500, None, 2_000.0),
    ("BENCH_serving.json", "p99_us", T20, S500, None, 9_000.0),
    ("BENCH_serving.json", "errors", None, None, Some(0.0), 0.0),
    // Connection sweep: 25% / 2000 us per step, errors 0 over all steps.
    ("BENCH_connsweep.json", "throughput_rps@1", T25, None, None, 1_440.0),
    ("BENCH_connsweep.json", "p99_us@1", T25, S2000, None, 150_000.0),
    ("BENCH_connsweep.json", "throughput_rps@10", T25, None, None, 1_440.0),
    ("BENCH_connsweep.json", "p99_us@10", T25, S2000, None, 200_000.0),
    ("BENCH_connsweep.json", "throughput_rps@100", T25, None, None, 1_440.0),
    ("BENCH_connsweep.json", "p99_us@100", T25, S2000, None, 75_000.0),
    ("BENCH_connsweep.json", "throughput_rps@1000", T25, None, None, 1_440.0),
    ("BENCH_connsweep.json", "p99_us@1000", T25, S2000, None, 250_000.0),
    ("BENCH_connsweep.json", "throughput_rps@5000", T25, None, None, 1_440.0),
    ("BENCH_connsweep.json", "p99_us@5000", T25, S2000, None, 437_500.0),
    ("BENCH_connsweep.json", "errors", None, None, Some(0.0), 0.0),
    // Subscribe: 25% / 2000 us, at least 32 of the committed 40 diffs,
    // errors 0.
    ("BENCH_subscribe.json", "diffs", T25, None, None, 32.0),
    ("BENCH_subscribe.json", "diff_p50_us", T25, S2000, None, 10_000.0),
    ("BENCH_subscribe.json", "diff_p95_us", T25, S2000, None, 37_500.0),
    ("BENCH_subscribe.json", "diff_p99_us", T25, S2000, None, 100_000.0),
    ("BENCH_subscribe.json", "errors", None, None, Some(0.0), 0.0),
    // Executors: 20% / 200 us, kernel speedup >= 2x hard.
    ("BENCH_executors.json", "kernel_speedup", T20, None, Some(2.0), 8.0 / 1.2),
    ("BENCH_executors.json", "query_p50_us", T20, S200, None, 3_000.0),
    ("BENCH_executors.json", "query_p99_us", T20, S200, None, 7_200.0),
];

fn envelopes() -> Vec<(String, BenchRecord)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("benchmarks/ is readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|f| {
            let text = std::fs::read_to_string(dir.join(&f)).expect("readable");
            let record = BenchRecord::parse_json(&text).unwrap_or_else(|e| panic!("{f}: {e}"));
            (f, record)
        })
        .collect()
}

#[test]
fn committed_envelopes_keep_every_bound() {
    let envelopes = envelopes();
    let mut pinned_files: Vec<&str> = PINNED.iter().map(|p| p.0).collect();
    pinned_files.sort_unstable();
    pinned_files.dedup();
    let files: Vec<&str> = envelopes.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(
        files, pinned_files,
        "every committed envelope is pinned here"
    );

    for (file, env) in &envelopes {
        assert_eq!(env.gate(env), Vec::<String>::new(), "{file} against itself");
        let gated: Vec<_> = env.metrics.iter().filter(|m| m.bound().is_some()).collect();
        let pinned: Vec<_> = PINNED.iter().filter(|p| p.0 == file).collect();
        assert_eq!(gated.len(), pinned.len(), "{file}: {gated:#?}");
        for (m, &&(_, name, tolerance, slack, limit, pinned_bound)) in gated.iter().zip(&pinned) {
            let got = (m.name.as_str(), m.tolerance, m.slack, m.limit);
            assert_eq!(got, (name, tolerance, slack, limit), "{file}");
            let bound = m.bound().unwrap();
            let eps = 1e-9 * bound.abs().max(1.0);
            assert!(
                (bound - pinned_bound).abs() <= eps,
                "{file}: {name} bound {bound}"
            );
            // Just past the bound fails on this metric alone; just
            // inside passes.
            let (past, inside) = match m.better {
                Better::Lower => (bound + eps, bound - eps),
                Better::Higher => (bound - eps, bound + eps),
            };
            let mut run = env.clone();
            run.metric_mut(name).unwrap().value = past;
            let verdicts = run.gate(env);
            assert_eq!(verdicts.len(), 1, "{file}: {name} at {past}: {verdicts:?}");
            assert!(verdicts[0].starts_with(&format!("{name} ")), "{verdicts:?}");
            run.metric_mut(name).unwrap().value = inside;
            assert_eq!(
                run.gate(env),
                Vec::<String>::new(),
                "{file}: {name} at {inside}"
            );
        }
    }
}
