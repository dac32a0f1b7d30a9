//! The traced run's per-layer replay. The requests and batches the
//! end-to-end phases sent are replayed in-process through each layer's
//! public functions, with the timing taken around each call from out
//! here (no spans inside the program):
//!
//! * `serve` — the `proto` codecs on the frames actually exchanged;
//! * `core` — `SimEngine::{plan, query, apply_delta}` on a cache-on
//!   replica warmed like the daemon, and `query` on a cache-off one;
//! * `partition` — `Fragmentation` clone plus `apply_delta`;
//! * `sim` — centralized `hhk_simulation` on the whole graph;
//! * `net` — the `RunMetrics` of each cache-off `RunReport`.

use crate::drive::{Batch, Exchange};
use crate::workload::{Churn, CACHE, SITES};
use dgs_core::{GraphDelta, SimEngine};
use dgs_graph::{Graph, Pattern};
use dgs_partition::{hash_partition, EdgeOp, Fragmentation};
use dgs_serve::{Request, Response, WireAlgorithm};
use dgs_sim::hhk_simulation;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A replica of the daemon's session: same graph, partition and cache
/// size (`cache = false` turns the result cache off).
fn replica(g: &Graph, seed: u64, cache: bool) -> SimEngine {
    let assignment = hash_partition(g.node_count(), SITES, seed);
    let frag = Arc::new(Fragmentation::build(g, &assignment, SITES));
    let b = SimEngine::builder(g, frag);
    if cache {
        b.cache_capacity(CACHE).build()
    } else {
        b.cache(false).build()
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-call samples of the query-path layers.
#[derive(Default)]
pub struct QueryLayers {
    pub codec_us: Vec<f64>,
    pub answer_bytes: Vec<f64>,
    pub plan_us: Vec<f64>,
    /// Cache-on replica, first ask of each logged request (what the
    /// daemon's engine did for it).
    pub query_us: Vec<f64>,
    /// Cache-on replica, immediate re-ask (a guaranteed hit).
    pub cache_us: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub rounds: Vec<f64>,
    pub data_msgs: Vec<f64>,
    pub data_bytes: Vec<f64>,
    pub site_ops_skew: Vec<f64>,
    pub hhk_ms: Vec<f64>,
}

/// Replays `log` (in order) on replicas of the session serving `g`,
/// after warming the cache-on replica with `warm`. Stops early when
/// `budget` runs out.
pub fn query_replay(
    g: &Graph,
    seed: u64,
    warm: &[Pattern],
    log: &[Exchange],
    budget: Duration,
) -> Result<QueryLayers, String> {
    let cached = replica(g, seed, true);
    let cold = replica(g, seed, false);
    for q in warm {
        cached
            .query(q)
            .map_err(|e| format!("replica warm-up: {e}"))?;
    }
    let mut out = QueryLayers::default();
    let t0 = Instant::now();
    for x in log {
        if t0.elapsed() > budget {
            break;
        }
        let q = &x.pattern;
        let req = Request::Query {
            pattern: q.clone(),
            algorithm: WireAlgorithm::Auto,
            boolean: false,
        };
        let resp = Response::Answer(x.answer.clone());
        let t = Instant::now();
        let (ty, payload) = req.encode();
        black_box(Request::decode(ty, &payload).map_err(|e| format!("request codec: {e}"))?);
        let (ty, payload) = resp.encode();
        black_box(Response::decode(ty, &payload).map_err(|e| format!("answer codec: {e}"))?);
        out.codec_us.push(us(t));
        out.answer_bytes.push(payload.len() as f64);

        let t = Instant::now();
        black_box(cached.plan(q).map_err(|e| format!("plan: {e}"))?);
        out.plan_us.push(us(t));

        let t = Instant::now();
        black_box(cached.query(q).map_err(|e| format!("replica query: {e}"))?);
        out.query_us.push(us(t));
        let t = Instant::now();
        let hit = cached
            .query(q)
            .map_err(|e| format!("replica re-query: {e}"))?;
        let hit_us = us(t);
        if hit.metrics.cache_hits == 1 {
            out.cache_us.push(hit_us);
        }

        let t = Instant::now();
        let run = cold.query(q).map_err(|e| format!("cache-off query: {e}"))?;
        out.exec_ms.push(us(t) / 1e3);
        let m = &run.metrics;
        out.rounds.push(m.quiescence_rounds as f64);
        out.data_msgs.push(m.data_messages as f64);
        out.data_bytes.push(m.data_bytes as f64);
        let total: u64 = m.site_ops.iter().sum();
        if total > 0 {
            let max = *m.site_ops.iter().max().expect("sites") as f64;
            out.site_ops_skew
                .push(max / (total as f64 / m.site_ops.len() as f64));
        }

        let t = Instant::now();
        black_box(hhk_simulation(q, g));
        out.hhk_ms.push(us(t) / 1e3);
    }
    Ok(out)
}

/// Per-batch samples of the delta-path layers.
#[derive(Default)]
pub struct DeltaLayers {
    pub apply_ms: Vec<f64>,
    pub frag_ms: Vec<f64>,
    pub maintained: Vec<f64>,
    pub invalidated: Vec<f64>,
    pub revoked: Vec<f64>,
    pub resurrected: Vec<f64>,
    pub maint_msgs: Vec<f64>,
    pub ms_per_entry: Vec<f64>,
}

fn edge_ops(d: &GraphDelta) -> Vec<EdgeOp> {
    d.delete_edges
        .iter()
        .map(|&(u, v)| EdgeOp::Delete(u, v))
        .chain(d.insert_edges.iter().map(|&(u, v)| EdgeOp::Insert(u, v)))
        .collect()
}

/// Replays the write loop on a cache-on replica of the session serving
/// `g`: the same warm-up, priming batch, queries and batches in the
/// same order. Stops early when `budget` runs out.
#[allow(clippy::too_many_arguments)]
pub fn delta_replay(
    g: &Graph,
    seed: u64,
    pool: &[Pattern],
    warm: &[usize],
    churn: &Churn,
    queried: &[usize],
    batches: &[Batch],
    budget: Duration,
) -> Result<DeltaLayers, String> {
    let engine = replica(g, seed, true);
    for &i in warm {
        engine
            .query(&pool[i])
            .map_err(|e| format!("replica warm-up: {e}"))?;
    }
    let mut churn = churn.clone();
    engine
        .apply_delta(&churn.prime())
        .map_err(|e| format!("replica priming batch: {e}"))?;
    let per_batch = if batches.is_empty() {
        0
    } else {
        queried.len() / batches.len()
    };
    let mut out = DeltaLayers::default();
    let t0 = Instant::now();
    for (k, b) in batches.iter().enumerate() {
        if t0.elapsed() > budget {
            break;
        }
        for &i in &queried[k * per_batch..(k + 1) * per_batch] {
            engine
                .query(&pool[i])
                .map_err(|e| format!("replica query: {e}"))?;
        }
        let ops = edge_ops(&b.delta);
        let current = engine.fragmentation();
        let t = Instant::now();
        let mut frag = Fragmentation::clone(&current);
        black_box(frag.apply_delta(&ops));
        out.frag_ms.push(us(t) / 1e3);
        drop(frag);

        let t = Instant::now();
        let rep = engine
            .apply_delta(&b.delta)
            .map_err(|e| format!("replica apply_delta: {e}"))?;
        let ms = us(t) / 1e3;
        if rep.ignored != 0 {
            return Err(format!("replica batch {k}: {} ops ignored", rep.ignored));
        }
        out.apply_ms.push(ms);
        out.maintained.push(rep.maintained_entries as f64);
        out.invalidated.push(rep.invalidated_entries as f64);
        out.revoked.push(rep.revoked_pairs as f64);
        out.resurrected.push(rep.resurrected_pairs as f64);
        out.maint_msgs.push(rep.metrics.data_messages as f64);
        if rep.maintained_entries > 0 {
            out.ms_per_entry.push(ms / rep.maintained_entries as f64);
        }
    }
    Ok(out)
}
