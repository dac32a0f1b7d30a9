//! The unified trajectory driver:
//!
//! ```text
//! dgs-bench --area executors|update|serving
//!           [--json FILE] [--baseline FILE] [--test]
//! ```
//!
//! `--area executors` re-measures the single-query hot path (bitset
//! kernels vs the HashSet reference, distributed per-query latency),
//! prints the trajectory report, and with `--json` writes it as an
//! `executors` bench record (the `BENCH_executors.json` artifact).
//! `--baseline FILE` gates the fresh run against a committed record
//! and **exits nonzero** on any verdict; the bounds are the ones the
//! committed record carries — this is the CI gate. Apart from
//! `--test`, the workload size is fixed, so a gated run measures the
//! workload the envelope was taken from.
//!
//! `--area update` and `--area serving` run the existing throughput
//! workloads under the same front door. `--test` shrinks every area
//! to CI smoke size.

use dgs_bench::trajectory::{render_executors, run_executors, TrajectoryConfig};
use dgs_net::BenchRecord;
use std::path::PathBuf;

struct Args {
    area: String,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    test: bool,
}

/// Prints a named argument error and exits 2 (a usage error, not a
/// verdict).
fn fail(msg: &str) -> ! {
    eprintln!("dgs-bench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        area: "executors".into(),
        json: None,
        baseline: None,
        test: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--area" => out.area = val("--area").to_ascii_lowercase(),
            "--json" => out.json = Some(PathBuf::from(val("--json"))),
            "--baseline" => out.baseline = Some(PathBuf::from(val("--baseline"))),
            "--test" => out.test = true,
            "--help" | "-h" => {
                println!(
                    "dgs-bench --area executors|update|serving [--json FILE] [--baseline FILE] \
                     [--test]"
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other} (try --help)")),
        }
    }
    out
}

fn run_executors_area(args: &Args) {
    let cfg = if args.test {
        TrajectoryConfig::smoke()
    } else {
        TrajectoryConfig::default()
    };

    let record = run_executors(&cfg);
    print!("{}", render_executors(&record));
    println!();

    if let Some(path) = &args.json {
        match std::fs::write(path, record.to_json()) {
            Ok(()) => println!("executors record -> {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchRecord::parse_json(&text))
            .unwrap_or_else(|e| {
                eprintln!("error: baseline {}: {e}", path.display());
                std::process::exit(1);
            });
        let verdicts = record.gate(&baseline);
        if verdicts.is_empty() {
            println!("within envelope of {}", path.display());
            return;
        }
        eprintln!("REGRESSION against {}:", path.display());
        for v in verdicts {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

fn run_update_area(args: &Args) {
    use dgs_bench::update::{check_update, measure_update, UpdateConfig};
    let cfg = if args.test {
        UpdateConfig::smoke()
    } else {
        UpdateConfig::default()
    };
    println!("## trajectory: update\n");
    // Print every stream before the bars are checked, so a failed bar
    // still shows what was measured.
    let reports = measure_update(&cfg);
    for r in &reports {
        println!(
            "{:<13} {:>6} ops  incremental {:>8.2} ms ({:>9.0} ops/s)  baseline {:>8.2} ms  x{:.2}",
            r.label, r.ops, r.incremental_ms, r.ops_per_sec, r.rebuild_ms, r.speedup
        );
    }
    check_update(&cfg, &reports);
}

fn run_serving_area(args: &Args) {
    use dgs_bench::serving::{run_serving, ServingConfig};
    let cfg = if args.test {
        ServingConfig {
            nodes: 120,
            batch: 9,
            ..ServingConfig::default()
        }
    } else {
        ServingConfig::default()
    };
    let r = run_serving(&cfg);
    println!("## trajectory: serving\n");
    println!(
        "batch {} over {} workers: sequential {:.1} ms, parallel {:.1} ms (x{:.2}), \
         warm cache {:.2} ms ({} hits, {} messages)",
        r.batch,
        r.workers,
        r.sequential_ms,
        r.parallel_ms,
        r.speedup,
        r.cached_ms,
        r.cache_hits,
        r.cached_messages
    );
}

fn main() {
    let args = parse_args();
    match args.area.as_str() {
        "executors" => run_executors_area(&args),
        "update" => run_update_area(&args),
        "serving" => run_serving_area(&args),
        other => fail(&format!(
            "unknown area {other}: expected executors|update|serving"
        )),
    }
}
