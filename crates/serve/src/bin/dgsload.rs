//! `dgsload` — open- and closed-loop traffic generator for `dgsd`.
//!
//! ```text
//! dgsload --addr ADDR [--clients N] [--requests R] [--mode closed|open]
//!         [--rate RPS] [--batch B] [--deltas EVERY] [--pattern FILE[,FILE...]]
//!         [--seed S]
//! ```
//!
//! Closed loop (default): each client keeps one request outstanding —
//! the classic saturation benchmark. Open loop: requests launch on a
//! fixed fleet-wide schedule of `--rate` per second, so server
//! slowdowns surface as queueing delay in the tail percentiles
//! instead of being absorbed by the clients.
//!
//! The report prints completed/errored counts, throughput, and
//! p50/p95/p99/max latency from the merged per-client
//! `LatencyHistogram`s. Exit status is nonzero when any request
//! errored, which is what the CI smoke job asserts on.
//!
//! `--session NAME` routes every client at a named server session,
//! and `--pipeline D` keeps `D` requests in flight per connection
//! (wire v3). `--ping 1` swaps queries for `PING`s — the pure
//! protocol microbenchmark the CI pipelining gate measures.
//!
//! Every mode writes its run as a `BenchRecord` (README
//! "Performance") with `--json PATH`, and `--baseline PATH` gates the
//! run against a committed record, exiting nonzero on any verdict. The
//! bounds live in the baseline file (`benchmarks/BENCH_*.json`), not
//! here. A load run is a `serving` record, or a `ping` record with
//! `--ping 1`.
//!
//! **Sweep mode** (`--sweep N1,N2,...`) replaces the load run with
//! the open-loop connection-count sweep: per step it holds that many
//! connections open, drives a constant-rate `PING` schedule through
//! at most `--senders` of them, and reports throughput + p99 — a
//! `connsweep` record with per-step metrics such as `p99_us@1000`.
//!
//! **Subscribe mode** (`--subscribe 1`) runs the live-subscription
//! churn experiment instead: `--sessions` sessions are created, each
//! with `--subscribers` subscribers holding open `MATCH_DIFF` streams
//! (wire v4), and a writer storms the first session with `--batches`
//! delta batches of `--ops` edge ops. Each subscriber reconstructs
//! the match set from its diffs and checks it against a final
//! re-query, so the run is self-verifying; the report is diff count
//! plus delivery-latency percentiles, a `subscribe` record.
//!
//! **Obs mode** (`--obs-on ON.json --obs-off OFF.json`) gates two
//! `ping` records — the same quiet-ping run against a daemon with
//! metrics on and one with `--metrics off` — with the same gate, the
//! metrics-off run as the baseline. A ping record carries its own
//! `p50_us` bound (10%, 25 us slack), because it is gated against its
//! sibling run rather than a committed envelope.

use dgs_graph::io as gio;
use dgs_net::BenchRecord;
use dgs_serve::{
    run_conn_sweep, run_load, run_subscribe, sweep_record, ConnSweepConfig, LoadConfig, LoadMode,
    ServeAddr, SubscribeConfig,
};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("dgsload: {msg}");
    exit(2);
}

const ALLOWED: &[&str] = &[
    "addr",
    "clients",
    "requests",
    "mode",
    "rate",
    "batch",
    "deltas",
    "pattern",
    "seed",
    "session",
    "json",
    "baseline",
    "pipeline",
    "sweep",
    "senders",
    "ping",
    "subscribe",
    "sessions",
    "subscribers",
    "nodes",
    "batches",
    "ops",
    "obs-on",
    "obs-off",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  dgsload --addr tcp:HOST:PORT|unix:/PATH.sock [--clients N] [--requests R]\n          \
         [--mode closed|open] [--rate RPS] [--batch B] [--deltas EVERY]\n          \
         [--pattern FILE[,FILE...]] [--seed S] [--session NAME] [--pipeline D]\n          \
         [--ping 1] [--json RECORD.json] [--baseline RECORD.json]\n  \
         dgsload --addr ADDR --sweep N1,N2,... [--rate RPS] [--requests R] [--senders N]\n          \
         [--json RECORD.json] [--baseline RECORD.json]   (connection-count sweep)\n  \
         dgsload --addr ADDR --subscribe 1 [--sessions N] [--subscribers N] [--nodes N]\n          \
         [--batches N] [--ops N] [--seed S] [--json RECORD.json] [--baseline RECORD.json]\n          \
         (live-subscription churn: writer storms one session, subscribers verify the diff stream)\n  \
         dgsload --obs-on ON.json --obs-off OFF.json\n          \
         (gate the instrumentation overhead between two quiet-ping records)"
    );
    exit(2);
}

/// Reads a bench record, or exits naming the problem.
fn read_record(path: &str) -> BenchRecord {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    BenchRecord::parse_json(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// `--json` writes `record`; `--baseline` gates it. Returns whether
/// the gate found a regression.
fn write_and_gate(flags: &HashMap<String, String>, record: &BenchRecord) -> bool {
    if let Some(path) = flags.get("json") {
        std::fs::write(path, record.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("  record written to {path}");
    }
    let Some(path) = flags.get("baseline") else {
        return false;
    };
    let verdicts = record.gate(&read_record(path));
    if verdicts.is_empty() {
        println!("  baseline {path}: within tolerance");
    }
    for v in &verdicts {
        eprintln!("dgsload: REGRESSION vs {path}: {v}");
    }
    !verdicts.is_empty()
}

/// `dgsload --obs-on/--obs-off`: gate the quiet-ping record taken
/// against a daemon with metrics on against the one taken with
/// `--metrics off`.
fn run_obs_mode(flags: &HashMap<String, String>) -> ! {
    if let Some(other) = flags.keys().find(|k| !k.starts_with("obs-")) {
        fail(&format!("--{other} does not apply with --obs-on/--obs-off"));
    }
    let read = |key: &str| {
        read_record(
            flags
                .get(key)
                .unwrap_or_else(|| fail(&format!("--{key} RECORD.json required in obs mode"))),
        )
    };
    let (on, off) = (read("obs-on"), read("obs-off"));
    if let (Some(a), Some(b)) = (on.value("p50_us"), off.value("p50_us")) {
        println!(
            "dgsload: instrumentation overhead — p50 {a:.1} us (metrics on) vs {b:.1} us (off): \
             {:+.2}%",
            (a - b) / b * 100.0
        );
    }
    let verdicts = on.gate(&off);
    if verdicts.is_empty() {
        println!("  within the overhead bound");
        exit(0);
    }
    for v in &verdicts {
        eprintln!("dgsload: OVERHEAD: {v}");
    }
    exit(1);
}

/// `dgsload --subscribe`: the live-subscription churn run.
fn run_subscribe_mode(flags: &HashMap<String, String>, addr: ServeAddr) -> ! {
    let cfg = SubscribeConfig {
        addr,
        sessions: num(flags, "sessions", 2),
        subscribers: num(flags, "subscribers", 2),
        nodes: num(flags, "nodes", 600),
        batches: num(flags, "batches", 40),
        ops_per_batch: num(flags, "ops", 20),
        seed: num(flags, "seed", 7),
    };
    if cfg.sessions == 0 || cfg.subscribers == 0 || cfg.batches == 0 {
        fail("--sessions, --subscribers and --batches must be >= 1");
    }
    println!(
        "dgsload: subscription churn — {} sessions x {} subscribers, {} batches x {} ops \
         storming churn-0",
        cfg.sessions, cfg.subscribers, cfg.batches, cfg.ops_per_batch
    );
    let report = run_subscribe(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let h = &report.histogram;
    println!(
        "  {} diffs delivered over {} batches in {:.2} s  ({} errors)",
        report.diffs,
        report.batches,
        report.elapsed.as_secs_f64(),
        report.errors
    );
    println!(
        "  diff latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        ms(h.p50()),
        ms(h.p95()),
        ms(h.p99()),
        ms(h.max())
    );
    let regressed = write_and_gate(flags, &report.record());
    if report.errors > 0 {
        eprintln!("dgsload: {} subscription errors", report.errors);
        exit(1);
    }
    exit(i32::from(regressed));
}

/// `dgsload --sweep`: the connection-count sweep.
fn run_sweep_mode(flags: &HashMap<String, String>, addr: ServeAddr, spec: &str) -> ! {
    let steps: Vec<usize> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| fail(&format!("--sweep: '{s}' is not a connection count")))
        })
        .collect();
    if steps.is_empty() || steps.contains(&0) {
        fail("--sweep needs a comma-separated list of counts >= 1");
    }
    let cfg = ConnSweepConfig {
        addr,
        steps,
        rate: num(flags, "rate", 2000.0),
        requests_per_step: num(flags, "requests", 4000),
        active_senders: num(flags, "senders", 64),
    };
    if cfg.rate <= 0.0 {
        fail("--rate must be positive");
    }
    println!(
        "dgsload: connection sweep over {:?} ({:.0} req/s open loop, {} requests/step, <= {} senders)",
        cfg.steps, cfg.rate, cfg.requests_per_step, cfg.active_senders
    );
    let steps = run_conn_sweep(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let mut errored = false;
    for s in &steps {
        println!(
            "  {:>6} conns: {:>8.1} req/s  p99 {:>9.1} us  ({} completed, {} errors)",
            s.connections, s.throughput, s.p99_us, s.completed, s.errors
        );
        errored |= s.errors > 0;
    }
    let regressed = write_and_gate(flags, &sweep_record(&steps));
    if errored {
        eprintln!("dgsload: sweep steps reported errors");
        exit(1);
    }
    exit(i32::from(regressed));
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .unwrap_or_else(|| fail(&format!("expected a --flag, got '{}'", args[i])));
        if !ALLOWED.contains(&key) {
            fail(&format!(
                "unknown flag --{key} (allowed: {})",
                ALLOWED
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| fail(&format!("--{key} requires a value")));
        flags.insert(key.to_owned(), value.clone());
        i += 2;
    }
    flags
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key}: cannot parse '{v}'"))),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        usage();
    }
    let flags = parse_flags(&args);
    // Obs mode compares two already-written snapshots; no daemon
    // involved, so it runs before --addr is required.
    if flags.contains_key("obs-on") || flags.contains_key("obs-off") {
        run_obs_mode(&flags);
    }
    let addr_s = flags.get("addr").unwrap_or_else(|| fail("--addr required"));
    let addr =
        ServeAddr::parse(addr_s).unwrap_or_else(|| fail(&format!("unparseable --addr '{addr_s}'")));
    if let Some(spec) = flags.get("sweep") {
        run_sweep_mode(&flags, addr, spec);
    }
    if num::<usize>(&flags, "subscribe", 0) != 0 {
        run_subscribe_mode(&flags, addr);
    }
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("closed") {
        "closed" => LoadMode::Closed,
        "open" => {
            let rate: f64 = num(&flags, "rate", 100.0);
            if rate <= 0.0 {
                fail("--rate must be positive in open mode");
            }
            LoadMode::Open { rate }
        }
        other => fail(&format!("unknown mode '{other}'")),
    };
    let patterns = match flags.get("pattern") {
        None => Vec::new(),
        Some(arg) => arg
            .split(',')
            .map(|path| {
                let f =
                    File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
                gio::read_pattern_auto(BufReader::new(f))
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")))
            })
            .collect(),
    };

    let cfg = LoadConfig {
        addr,
        clients: num(&flags, "clients", 8),
        requests_per_client: num(&flags, "requests", 50),
        mode,
        delta_every: num(&flags, "deltas", 0),
        batch_size: num(&flags, "batch", 1),
        seed: num(&flags, "seed", 1),
        patterns,
        session: flags.get("session").cloned(),
        pipeline: num(&flags, "pipeline", 1),
        pings: num::<usize>(&flags, "ping", 0) != 0,
    };
    if cfg.clients == 0 || cfg.requests_per_client == 0 {
        fail("--clients and --requests must be >= 1");
    }
    if cfg.pipeline == 0 {
        fail("--pipeline must be >= 1");
    }
    println!(
        "dgsload: {} clients x {} requests, {} mode{}{}{}{} -> {}",
        cfg.clients,
        cfg.requests_per_client,
        match cfg.mode {
            LoadMode::Closed => "closed-loop".to_owned(),
            LoadMode::Open { rate } => format!("open-loop ({rate:.0} req/s)"),
        },
        if cfg.delta_every > 0 {
            format!(", delta every {} requests", cfg.delta_every)
        } else {
            String::new()
        },
        match &cfg.session {
            Some(name) => format!(", session '{name}'"),
            None => String::new(),
        },
        if cfg.pipeline > 1 {
            format!(", pipeline depth {}", cfg.pipeline)
        } else {
            String::new()
        },
        if cfg.pings { ", pings" } else { "" },
        addr_s
    );

    let report = run_load(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let h = &report.histogram;
    println!(
        "  completed {} / errored {}  in {:.2} s  ({:.1} req/s)",
        report.completed,
        report.errors,
        report.elapsed.as_secs_f64(),
        report.throughput()
    );
    println!(
        "  latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms  (mean {:.3} ms)",
        ms(h.p50()),
        ms(h.p95()),
        ms(h.p99()),
        ms(h.max()),
        h.mean() / 1.0e6
    );
    println!("  cache hits: {}", report.cache_hits);
    if report.failed_connects > 0 {
        println!("  failed connects: {}", report.failed_connects);
    }

    let mut record = report.record(if cfg.pings { "ping" } else { "serving" });
    if cfg.pings {
        // The instrumentation-overhead bound of obs mode: a metrics-on
        // p50 fails when over max(off·1.1, off + 25 us), i.e. over both
        // 10% and 25 us past the metrics-off run.
        let p50 = record
            .metric_mut("p50_us")
            .expect("a load record has p50_us");
        (p50.tolerance, p50.slack) = (Some(0.10), Some(25.0));
    }
    let regressed = write_and_gate(&flags, &record);
    if report.errors > 0 {
        eprintln!("dgsload: {} requests errored", report.errors);
        exit(1);
    }
    if regressed {
        exit(1);
    }
}
