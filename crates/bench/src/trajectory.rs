//! The trajectory driver behind the `dgs-bench` binary: one command
//! that re-measures an *area* of the codebase's hot path and compares
//! the run against a committed baseline snapshot, so performance wins
//! are recorded once and then defended by CI.
//!
//! Areas:
//!
//! * `executors` — the single-query hot path. Times the
//!   HashSet-of-pairs reference kernel
//!   ([`dgs_sim::hashset_simulation`]) against the flat bitset kernel
//!   ([`dgs_sim::hhk_simulation`]) on the same query stream (the
//!   representation win, gated ≥ 2×), and the distributed engine's
//!   per-query latency on the same stream. Every distributed answer is
//!   also checked against the centralized kernels, so the trajectory
//!   run doubles as a conformance pass.
//!   Emits an `executors` [`BenchRecord`] (`BENCH_executors.json`).
//! * `update` — the delta-maintenance throughput streams of
//!   [`crate::update`].
//! * `serving` — the shared-session batch/cache workload of
//!   [`crate::serving`].
//!
//! The binary's `--baseline` gates the record with
//! [`BenchRecord::gate`] against the committed
//! `benchmarks/BENCH_executors.json`, which carries the bounds (20% /
//! 200 µs, kernel speedup ≥ 2× hard).

use crate::serving::mixed_patterns;
use dgs_graph::generate::random;
use dgs_graph::{Graph, Pattern};
use dgs_net::Better::{Higher, Lower};
use dgs_net::{BenchRecord, LatencyHistogram};
use dgs_partition::{hash_partition, Fragmentation};
use dgs_sim::{hashset_simulation, hhk_simulation};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the executors-area trajectory run.
#[derive(Clone, Debug)]
pub struct TrajectoryConfig {
    /// Data-graph nodes (edges are 4×).
    pub nodes: usize,
    /// Number of sites.
    pub sites: usize,
    /// Queries in the measured stream.
    pub queries: usize,
    /// Distinct labels.
    pub labels: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Timed repetitions of the kernel leg (the per-query kernels are
    /// fast; repeating keeps the measurement out of clock noise).
    pub kernel_iters: usize,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            nodes: 3_000,
            sites: 4,
            queries: 24,
            labels: 4,
            seed: 17,
            kernel_iters: 3,
        }
    }
}

impl TrajectoryConfig {
    /// The CI smoke configuration (`--test`): small enough for a debug
    /// build, still running every leg.
    pub fn smoke() -> Self {
        TrajectoryConfig {
            nodes: 300,
            queries: 6,
            kernel_iters: 1,
            ..TrajectoryConfig::default()
        }
    }
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// Times one centralized kernel over the whole query stream,
/// `iters` times, returning the per-pass mean and the last pass's
/// relations (for the conformance check).
fn time_kernel(
    g: &Graph,
    queries: &[Pattern],
    iters: usize,
    kernel: impl Fn(&Pattern, &Graph) -> dgs_sim::SimResult,
) -> (Vec<dgs_sim::SimResult>, f64) {
    // Warmup pass: fault the graph into cache before timing.
    for q in queries {
        let _ = kernel(q, g);
    }
    let (results, total_ms) = time_ms(|| {
        let mut last = Vec::new();
        for _ in 0..iters.max(1) {
            last = queries.iter().map(|q| kernel(q, g)).collect();
        }
        last
    });
    (results, total_ms / iters.max(1) as f64)
}

/// Runs the executors-area trajectory: kernel representation win +
/// distributed per-query latency, with answer-equality asserts
/// throughout. Panics if any pair of legs disagrees on an answer —
/// a trajectory number for a wrong answer is worthless.
pub fn run_executors(cfg: &TrajectoryConfig) -> BenchRecord {
    let g = random::uniform(cfg.nodes, 4 * cfg.nodes, cfg.labels, cfg.seed);
    let queries = mixed_patterns(cfg.queries, cfg.labels, cfg.seed);

    // Leg 1 — representation win: HashSet-of-pairs reference kernel
    // vs the flat bitset kernel, same stream, centralized.
    let (hs, hashset_kernel_ms) = time_kernel(&g, &queries, cfg.kernel_iters, |q, g| {
        hashset_simulation(q, g)
    });
    let (bs, bitset_kernel_ms) = time_kernel(&g, &queries, cfg.kernel_iters, hhk_simulation);
    for (i, (a, b)) in hs.iter().zip(&bs).enumerate() {
        assert_eq!(
            a.relation, b.relation,
            "kernel answers diverge on query {i}"
        );
    }

    // Leg 2 — the distributed engine on the same stream, queried one
    // pattern at a time.
    let assign = hash_partition(g.node_count(), cfg.sites, cfg.seed);
    let frag = Arc::new(Fragmentation::build(&g, &assign, cfg.sites));
    let engine = dgs_core::SimEngine::builder(&g, frag).cache(false).build();
    let mut latency = LatencyHistogram::new();
    for (i, q) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let r = engine.query(q).expect("trajectory query");
        latency.record_duration(t0.elapsed());
        assert_eq!(
            bs[i].relation, r.relation,
            "distributed answer diverges from the centralized kernel on query {i}"
        );
    }

    let speedup = if bitset_kernel_ms > 0.0 {
        hashset_kernel_ms / bitset_kernel_ms
    } else {
        0.0
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let mut r = BenchRecord::new("executors");
    r.push("hashset_kernel_ms", "ms", Lower, hashset_kernel_ms);
    r.push("bitset_kernel_ms", "ms", Lower, bitset_kernel_ms);
    r.push("kernel_speedup", "x", Higher, speedup);
    r.push("query_p50_us", "us", Lower, us(latency.p50()));
    r.push("query_p99_us", "us", Lower, us(latency.p99()));
    r.push("queries", "queries", Higher, latency.count() as f64);
    r
}

/// Renders an executors record as the human-readable trajectory
/// report printed by the binary.
pub fn render_executors(r: &BenchRecord) -> String {
    let v = |name: &str| r.value(name).unwrap_or(f64::NAN);
    format!(
        "## trajectory: executors\n\n\
         kernel (centralized, {q} queries/pass): HashSet {hk:.2} ms, bitset {bk:.2} ms  \
         -> x{ks:.2} representation win\n\
         engine (distributed, per-query latency): p50 {p50:.1} us  p99 {p99:.1} us\n",
        q = v("queries"),
        hk = v("hashset_kernel_ms"),
        bk = v("bitset_kernel_ms"),
        ks = v("kernel_speedup"),
        p50 = v("query_p50_us"),
        p99 = v("query_p99_us"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executors_trajectory_is_consistent() {
        let r = run_executors(&TrajectoryConfig::smoke());
        let v = |name: &str| r.value(name).unwrap();
        assert_eq!(v("queries"), 6.0);
        assert!(v("hashset_kernel_ms") > 0.0);
        assert!(v("bitset_kernel_ms") > 0.0);
        assert!(v("kernel_speedup") > 0.0);
        assert!(v("query_p99_us") >= v("query_p50_us"));
        // Round-trips through the committed-artifact form.
        assert_eq!(BenchRecord::parse_json(&r.to_json()), Ok(r));
    }
}
