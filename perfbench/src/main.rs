//! `perfbench`: the dgsd benchmark. See `perfbench/NOTES.md`.
//!
//! ```text
//! perfbench --dgsd PATH --work DIR --workload read_hot|read_cold|write_mix
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns `dgsd` on a generated graph over a Unix socket under `DIR`,
//! drives it from this one process with at most two connections, checks
//! the answers against the reference simulation, and prints a table
//! followed by one JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` re-runs the request sequence and replays it
//! through each layer's public functions in-process, reporting the
//! per-layer metrics. Exits 1 on a wrong answer, a failed request or a
//! no-op delta op.

mod check;
mod daemon;
mod drive;
mod layers;
mod stats;
mod workload;

use daemon::Daemon;
use dgs_graph::{Graph, Pattern};
use drive::{ReadOut, Source, WriteCfg, WriteOut};
use layers::{DeltaLayers, QueryLayers};
use stats::{mean, pct, scaled, seg_pct, seg_rate, Report, SEGMENTS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{hot_pool, Churn, ColdPatterns, Workload, HOT_POOL};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Closed-loop reader connections.
const READERS: usize = 2;
/// Writer queries between two deltas on write_mix.
const QUERIES_PER_DELTA: usize = 3;
/// Share of a read workload's run spent in its write probe.
const PROBE_SHARE: f64 = 0.4;
/// Untimed queries each read_cold client sends before timing starts.
const COLD_WARMUP: usize = 4;
/// `PING`s timed in the traced run.
const PINGS: usize = 2000;
/// How often the daemon's resident memory is sampled.
const RSS_EVERY: Duration = Duration::from_millis(100);
/// Time budget of each traced replay, as a share of `--seconds`.
const REPLAY_SHARE: f64 = 0.25;

struct Args {
    dgsd: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = get("--workload")?;
    let args = Args {
        dgsd: get("--dgsd")?.into(),
        work: get("--work")?.into(),
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Writes the workload's graph where the daemon will load it.
fn write_graph(g: &Graph, path: &Path) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(f);
    dgs_graph::io::write_graph(g, &mut w).map_err(|e| format!("writing the graph: {e}"))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("writing the graph: {e}"))
}

/// Everything a run measured.
struct Run {
    setups_s: Vec<f64>,
    /// The write loop: the whole of write_mix, the write probe of the
    /// read workloads.
    write: WriteOut,
    /// The closed-loop read phase of the read workloads.
    read: Option<ReadOut>,
    rss_mb: f64,
    rss_samples: usize,
    checked: usize,
    /// Traced run only: `PING` round trips and the layer replays.
    ping_us: Vec<f64>,
    layers: Option<(QueryLayers, DeltaLayers)>,
}

/// The workload's inputs, derived from the seed.
struct Inputs {
    g: Graph,
    /// The hot pool plus the subscribed pattern.
    pool: Vec<Pattern>,
    /// Index of the subscribed pattern in `pool`.
    sub: usize,
    /// The write generator before its first batch.
    churn: Churn,
}

impl Inputs {
    fn new(w: Workload, seed: u64) -> Inputs {
        let g = w.graph(seed);
        // The hot pool, then the subscribed pattern at index HOT_POOL.
        let mut pool = hot_pool(seed);
        pool.push(workload::subscription());
        let sub = HOT_POOL;
        let churn = Churn::new(&g, seed, workload::critical_edges(&pool[sub], &g));
        Inputs {
            g,
            pool,
            sub,
            churn,
        }
    }
}

fn run(args: &Args) -> Result<(Report, u64, u64), String> {
    let w = args.workload;
    let inputs = Inputs::new(w, args.seed);
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let tag = format!("{}-{}", w.name(), std::process::id());
    let graph_path = args.work.join(format!("{tag}.graph"));
    let sock = args.work.join(format!("{tag}.sock"));
    write_graph(&inputs.g, &graph_path)?;
    let result = measure(args, &inputs, &graph_path, &sock);
    let _ = std::fs::remove_file(&graph_path);
    let run = result?;

    let wo = &run.write;
    let (attempted, failed) = match &run.read {
        Some(r) => (wo.attempted + r.attempted, wo.failed + r.failed),
        None => (wo.attempted, wo.failed),
    };
    // Latencies as (start offset, ms); completions as end offsets.
    let to_ms = |v: &[(u64, u64)]| -> Vec<(u64, f64)> {
        v.iter().map(|&(at, ns)| (at, ns as f64 / 1e6)).collect()
    };
    let ends = |v: &[(u64, u64)]| -> Vec<u64> { v.iter().map(|&(at, ns)| at + ns).collect() };
    let batch_ns: Vec<(u64, u64)> = wo.batches.iter().map(|b| (b.at_ns, b.lat_ns)).collect();
    let deltas = to_ms(&batch_ns);
    let diffs = diff_latencies_ms(wo);
    let write_ns = wo.elapsed.as_nanos() as u64;
    let (queries, completions, query_run_ns, hits) = match &run.read {
        Some(r) => (
            to_ms(&r.lat_ns),
            ends(&r.lat_ns),
            r.elapsed.as_nanos() as u64,
            r.cache_hits,
        ),
        None => (
            to_ms(&wo.query_ns),
            [ends(&wo.query_ns), ends(&batch_ns)].concat(),
            write_ns,
            wo.cache_hits,
        ),
    };
    println!(
        "  {} reads, {} deltas, {} pushed diffs; failed_frac {:.4} ({failed} of {attempted}); \
         {} answers checked against the reference",
        queries.len(),
        deltas.len(),
        wo.pushes.len(),
        failed as f64 / attempted.max(1) as f64,
        run.checked
    );
    let mut rep = Report::default();
    let q50 = seg_pct(&queries, query_run_ns, 0.5);
    let d50 = seg_pct(&deltas, write_ns, 0.5);
    if !args.trace {
        rep.add("setup_s", pct(&run.setups_s, 0.5), "s", run.setups_s.len());
        // Closed-loop throughput and the sub-millisecond tails swing
        // with load from outside the process on a small shared host, so
        // they are printed but not part of the bounded result (see
        // NOTES.md).
        let rate = seg_rate(&completions, query_run_ns);
        rep.note("throughput_rps", rate, "1/s", completions.len());
        rep.add("query_p50_ms", q50, "ms", queries.len());
        rep.note(
            "query_p99_ms",
            seg_pct(&queries, query_run_ns, 0.99),
            "ms",
            queries.len(),
        );
        rep.add("delta_p50_ms", d50, "ms", deltas.len());
        rep.note(
            "delta_p95_ms",
            seg_pct(&deltas, write_ns, 0.95),
            "ms",
            deltas.len(),
        );
        rep.add(
            "diff_p50_ms",
            seg_pct(&diffs, write_ns, 0.5),
            "ms",
            diffs.len(),
        );
        rep.add("rss_mb", run.rss_mb, "MiB", run.rss_samples);
        return Ok((rep, attempted, failed));
    }

    let (ql, dl) = run.layers.as_ref().expect("traced run replays the layers");
    let n_q = queries.len().max(1) as f64;
    let batches = wo.batches.len().max(1) as f64;
    let pairs: usize = wo
        .pushes
        .iter()
        .map(|p| p.diff.added.len() + p.diff.removed.len())
        .sum();
    let ping = pct(&run.ping_us, 0.5);
    let codec = pct(&ql.codec_us, 0.5);
    let inproc = pct(&ql.query_us, 0.5);
    let residual = q50 * 1e3 - inproc;
    let exec50 = pct(&ql.exec_ms, 0.5);
    let hhk50 = pct(&ql.hhk_ms, 0.5);
    let apply50 = pct(&dl.apply_ms, 0.5);
    rep.add("wire.codec_us", codec, "us", ql.codec_us.len());
    rep.add("serve.ping_rtt_us", ping, "us", run.ping_us.len());
    rep.add(
        "serve.answer_bytes",
        mean(&ql.answer_bytes),
        "bytes",
        ql.answer_bytes.len(),
    );
    rep.add("serve.residual_us", residual, "us", 0);
    rep.add(
        "engine.plan_us",
        pct(&ql.plan_us, 0.5),
        "us",
        ql.plan_us.len(),
    );
    rep.add(
        "engine.cache_us",
        pct(&ql.cache_us, 0.5),
        "us",
        ql.cache_us.len(),
    );
    rep.add("cache.hit_ratio", hits as f64 / n_q, "ratio", queries.len());
    rep.add("exec.run_ms_p50", exec50, "ms", ql.exec_ms.len());
    rep.add(
        "exec.run_ms_p99",
        pct(&ql.exec_ms, 0.99),
        "ms",
        ql.exec_ms.len(),
    );
    rep.add("exec.rounds", mean(&ql.rounds), "count", ql.rounds.len());
    rep.add(
        "exec.data_msgs",
        mean(&ql.data_msgs),
        "count",
        ql.data_msgs.len(),
    );
    rep.add(
        "exec.data_bytes",
        mean(&ql.data_bytes),
        "bytes",
        ql.data_bytes.len(),
    );
    rep.add(
        "exec.site_ops_skew",
        mean(&ql.site_ops_skew),
        "ratio",
        ql.site_ops_skew.len(),
    );
    rep.add("sim.hhk_ms", hhk50, "ms", ql.hhk_ms.len());
    rep.add("exec.dist_overhead", exec50 / hhk50, "ratio", 0);
    rep.add("delta.apply_ms", apply50, "ms", dl.apply_ms.len());
    rep.add(
        "delta.frag_ms",
        pct(&dl.frag_ms, 0.5),
        "ms",
        dl.frag_ms.len(),
    );
    rep.add(
        "delta.maintained_entries",
        mean(&dl.maintained),
        "count",
        dl.maintained.len(),
    );
    rep.add(
        "delta.invalidated_entries",
        mean(&dl.invalidated),
        "count",
        dl.invalidated.len(),
    );
    rep.add(
        "delta.revoked_pairs",
        mean(&dl.revoked),
        "count",
        dl.revoked.len(),
    );
    rep.add(
        "delta.resurrected_pairs",
        mean(&dl.resurrected),
        "count",
        dl.resurrected.len(),
    );
    rep.add(
        "delta.maint_msgs",
        mean(&dl.maint_msgs),
        "count",
        dl.maint_msgs.len(),
    );
    rep.add(
        "delta.ms_per_entry",
        pct(&dl.ms_per_entry, 0.5),
        "ms",
        dl.ms_per_entry.len(),
    );
    rep.add(
        "sub.diffs",
        wo.pushes.len() as f64 / batches,
        "count",
        wo.batches.len(),
    );
    rep.add(
        "sub.pairs",
        pairs as f64 / batches,
        "count",
        wo.batches.len(),
    );
    // Coverage: the blocking layer times next to the client p50s they
    // should add up to.
    let share = |part: f64, whole: f64| 100.0 * part / whole.max(f64::MIN_POSITIVE);
    println!(
        "  coverage query p50 {:.1} us = ping {ping:.1} + codec {codec:.1} + engine.query {inproc:.1} \
         ({:.0}% covered); serve.residual_us {residual:.1}; exec.run_ms_p50 {exec50:.3}",
        q50 * 1e3,
        share(ping + codec + inproc, q50 * 1e3),
    );
    println!(
        "  coverage delta p50 {d50:.3} ms; delta.apply_ms {apply50:.3} ({:.0}% covered), \
         of which delta.frag_ms {:.3}",
        share(apply50, d50),
        pct(&dl.frag_ms, 0.5),
    );
    Ok((rep, attempted, failed))
}

/// Send-to-push latency of each `MATCH_DIFF`, matched to its batch by
/// generation, as `(batch offset, ms)`.
fn diff_latencies_ms(wo: &WriteOut) -> Vec<(u64, f64)> {
    let sent: HashMap<u64, (Instant, u64)> = wo
        .batches
        .iter()
        .map(|b| (b.summary.generation, (b.sent, b.at_ns)))
        .collect();
    wo.pushes
        .iter()
        .filter_map(|p| {
            sent.get(&p.diff.generation)
                .map(|&(s, at)| (at, p.at.saturating_duration_since(s).as_secs_f64() * 1e3))
        })
        .collect()
}

fn measure(args: &Args, inputs: &Inputs, graph: &Path, sock: &Path) -> Result<Run, String> {
    let mut setups_s = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let d = Daemon::start(&args.dgsd, graph, sock, args.seed)?;
        setups_s.push(d.setup.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("at least one start-up");
    let secs = args.seconds;
    let pool = &inputs.pool;
    let mut churn = inputs.churn.clone();
    let write_mix = args.workload == Workload::WriteMix;
    let write_cfg = WriteCfg {
        pool,
        sub: inputs.sub,
        walk: write_mix,
        queries_per_delta: if write_mix { QUERIES_PER_DELTA } else { 1 },
        run: Duration::from_secs_f64(if write_mix { secs } else { secs * PROBE_SHARE }),
        seed: args.seed,
        record_log: args.trace,
    };
    // Resident memory is sampled through the whole measured run.
    let stop = AtomicBool::new(false);
    let pid = d.pid();
    let (write, read_graph, read, rss) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let t0 = Instant::now();
            let mut samples = Vec::new();
            while !stop.load(Ordering::Acquire) {
                samples.push((t0.elapsed().as_nanos() as u64, daemon::rss_mb(pid)));
                std::thread::sleep(RSS_EVERY);
            }
            (samples, t0.elapsed().as_nanos() as u64)
        });
        let write = drive::write_phase(&d.addr, &write_cfg, &mut churn);
        // The read phase runs on the graph the write probe left behind.
        let read_graph = churn.graph();
        let read_secs = Duration::from_secs_f64(secs * (1.0 - PROBE_SHARE));
        let read = match args.workload {
            Workload::ReadHot => {
                let src = Source::Hot(&pool[..HOT_POOL]);
                let warm = HOT_POOL;
                Some(drive::read_phase(
                    &d.addr, READERS, &src, warm, read_secs, args.seed, args.trace,
                ))
            }
            Workload::ReadCold => {
                let stream = Mutex::new(ColdPatterns::new(args.seed));
                let src = Source::Cold(&stream);
                let warm = COLD_WARMUP;
                Some(drive::read_phase(
                    &d.addr, READERS, &src, warm, read_secs, args.seed, args.trace,
                ))
            }
            Workload::WriteMix => None,
        };
        stop.store(true, Ordering::Release);
        let rss = sampler.join().expect("rss sampler panicked");
        (write, read_graph, read, rss)
    });
    // "At the end of the run": the median sample of the last segment.
    let (rss_all, rss_ns) = rss;
    let last: Vec<f64> = rss_all
        .into_iter()
        .filter(|&(at, _)| at * SEGMENTS as u64 >= rss_ns * (SEGMENTS as u64 - 1))
        .map(|(_, r)| r)
        .collect::<Result<_, _>>()?;
    let ping_us = if args.trace {
        let clients = if write_mix { 1 } else { READERS };
        scaled(&drive::ping_rtts(&d.addr, clients, PINGS)?, 1e3)
    } else {
        Vec::new()
    };
    d.stop()?;

    let errors = write
        .errors
        .iter()
        .chain(read.iter().flat_map(|r| &r.errors));
    if let Some(e) = errors.into_iter().next() {
        return Err(e.clone());
    }
    let mut checked = check::check_writes(&inputs.churn, pool, &write)?;
    if let Some(r) = &read {
        checked += check::check_reads(&read_graph, &r.samples)?;
    }

    let layers = if args.trace {
        let budget = Duration::from_secs_f64(secs * REPLAY_SHARE);
        let warm: Vec<usize> = if write_mix {
            (0..pool.len()).collect()
        } else {
            vec![inputs.sub]
        };
        let dl = layers::delta_replay(
            &inputs.g,
            args.seed,
            pool,
            &warm,
            &inputs.churn,
            &write.queried,
            &write.batches,
            budget,
        )?;
        // write_mix's queries are replayed on the initial graph: its
        // stream keeps exactly four edges deleted at any time.
        let (qg, qwarm, log) = match (&read, args.workload) {
            (Some(r), Workload::ReadHot) => (&read_graph, pool.clone(), &r.log),
            (Some(r), _) => (&read_graph, vec![pool[inputs.sub].clone()], &r.log),
            (None, _) => (&inputs.g, pool.clone(), &write.log),
        };
        let ql = layers::query_replay(qg, args.seed, &qwarm, log, budget)?;
        Some((ql, dl))
    } else {
        None
    };
    Ok(Run {
        setups_s,
        write,
        read,
        rss_mb: pct(&last, 0.5),
        rss_samples: last.len(),
        checked,
        ping_us,
        layers,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok((rep, attempted, failed)) => {
            print!("{}", rep.table());
            let correct = failed == 0;
            println!("{}", rep.json(correct, attempted, failed));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}
