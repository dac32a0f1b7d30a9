//! The benchmark's inputs, all derived from the workload seed: the
//! served graph, the hot pattern pool, the stream of never-seen cold
//! patterns, and the no-op-free delta generator with its graph mirror.

use dgs_core::{GraphDelta, SimEngine};
use dgs_graph::generate::{patterns, random};
use dgs_graph::{Graph, GraphBuilder, Label, NodeId, Pattern};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Sites every workload partitions its graph over (hash partition).
pub const SITES: usize = 4;
/// Result-cache capacity of the served session (the daemon default).
pub const CACHE: usize = 128;
/// Labels of every generated graph and pattern.
const LABELS: usize = 6;
/// Patterns in the hot pool: the `mixed_pattern_pool` shapes, sized to
/// fit the cache.
pub const HOT_POOL: usize = 24;

/// The three named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop queries over a pool that fits the cache.
    ReadHot,
    /// Closed-loop queries that are all new to the daemon.
    ReadCold,
    /// One writer (3 queries, then 1 delta) beside one subscriber.
    WriteMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read_hot" => Some(Workload::ReadHot),
            "read_cold" => Some(Workload::ReadCold),
            "write_mix" => Some(Workload::WriteMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::WriteMix => "write_mix",
        }
    }

    /// `(nodes, edges)` of the generated web-like graph.
    fn graph_size(self) -> (usize, usize) {
        match self {
            Workload::ReadHot | Workload::WriteMix => (2_000, 8_000),
            Workload::ReadCold => (20_000, 80_000),
        }
    }

    /// The served graph.
    pub fn graph(self, seed: u64) -> Graph {
        let (n, m) = self.graph_size();
        random::web_like(n, m, LABELS, seed)
    }
}

/// The hot pool: 24 mixed cyclic/DAG patterns.
pub fn hot_pool(seed: u64) -> Vec<Pattern> {
    dgs_serve::mixed_pattern_pool(HOT_POOL, LABELS, seed)
}

/// splitmix64: the benchmark's only source of randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic stream of patterns that are pairwise distinct under
/// the engine's canonical form, so none of them can hit the cache.
/// Shapes rotate over cyclic (dGPM/dGPMs) and DAG (dGPMd) patterns.
pub struct ColdPatterns {
    base: u64,
    next: u64,
    seen: HashSet<Vec<u32>>,
}

impl ColdPatterns {
    pub fn new(seed: u64) -> ColdPatterns {
        ColdPatterns {
            base: seed.wrapping_mul(0x0001_0000_0001).wrapping_add(10_000),
            next: 0,
            seen: HashSet::new(),
        }
    }

    pub fn next_pattern(&mut self) -> Pattern {
        loop {
            let i = self.next;
            self.next += 1;
            let s = self.base.wrapping_add(i);
            let q = match i % 3 {
                0 => patterns::random_cyclic(3, 6, LABELS, s),
                1 => patterns::random_dag_with_depth(4, 6, 2, LABELS, s),
                _ => patterns::random_cyclic(4, 8, LABELS, s),
            };
            if self.seen.insert(SimEngine::pattern_canon(&q).0) {
                return q;
            }
        }
    }
}

/// The pattern the subscriber follows: one edge from label 0 to label
/// 1, the same for every seed. Its match set on any generated graph is
/// large and statistically alike, so the per-batch maintenance cost does
/// not swing with the seed the way a pick from the seeded pool did.
pub fn subscription() -> Pattern {
    patterns::path_pattern(1, &[Label(0), Label(1)])
}

/// Edges that `q`'s matches on `g` hang on: `(v, w)` such that `v`
/// matches `u`, `w` matches `u'` for a query edge `(u, u')`, and `w` is
/// the only successor of `v` matching `u'`. Deleting one revokes
/// `(u, v)`, so a subscriber on `q` receives a diff.
pub fn critical_edges(q: &Pattern, g: &Graph) -> Vec<(NodeId, NodeId)> {
    let r = dgs_sim::hhk_simulation(q, g).relation;
    let mut out = BTreeSet::new();
    for (u, u2) in q.edges() {
        for &v in r.matches_of(u) {
            let mut support = g.successors(v).iter().filter(|&&w| r.contains(u2, w));
            if let (Some(&w), None) = (support.next(), support.next()) {
                out.insert((v, w));
            }
        }
    }
    out.into_iter().collect()
}

/// The write stream and the writer's mirror of the graph. Every op
/// changes the graph: deletes pick edges that are present, inserts
/// re-add edges this generator deleted earlier (oldest first), so a
/// batch never mixes no-op ops into the delta latency. The first
/// delete of each batch is a critical edge of the subscribed pattern
/// (see [`critical_edges`]) when one is present, so most batches push
/// a diff.
#[derive(Clone)]
pub struct Churn {
    labels: Vec<Label>,
    present: Vec<(NodeId, NodeId)>,
    removed: VecDeque<(NodeId, NodeId)>,
    targets: Vec<(NodeId, NodeId)>,
    rng: u64,
}

/// Edges each batch deletes, and edges it re-inserts.
const OPS_PER_SIDE: usize = 2;

impl Churn {
    pub fn new(g: &Graph, seed: u64, targets: Vec<(NodeId, NodeId)>) -> Churn {
        Churn {
            labels: g.labels().to_vec(),
            present: g.edges().collect(),
            removed: VecDeque::new(),
            targets,
            rng: seed ^ 0x5eed_c4a2_0000_0001,
        }
    }

    fn take_present(&mut self) -> (NodeId, NodeId) {
        let i = (splitmix(&mut self.rng) % self.present.len() as u64) as usize;
        self.present.swap_remove(i)
    }

    /// A present critical edge, else a random present edge.
    fn take_target(&mut self) -> (NodeId, NodeId) {
        for _ in 0..8 {
            if self.targets.is_empty() {
                break;
            }
            let t = self.targets[(splitmix(&mut self.rng) % self.targets.len() as u64) as usize];
            if let Some(i) = self.present.iter().position(|&e| e == t) {
                return self.present.swap_remove(i);
            }
        }
        self.take_present()
    }

    /// The untimed priming batch: deletes `2 * OPS_PER_SIDE` edges so
    /// that every later batch has deleted edges to re-insert.
    pub fn prime(&mut self) -> GraphDelta {
        let dels: Vec<_> = (0..2 * OPS_PER_SIDE).map(|_| self.take_present()).collect();
        self.removed.extend(dels.iter().copied());
        GraphDelta::deletions(dels)
    }

    /// The next mixed batch: deletes `OPS_PER_SIDE` present edges and
    /// re-inserts the `OPS_PER_SIDE` oldest deleted ones.
    pub fn next_batch(&mut self) -> GraphDelta {
        let ins: Vec<_> = (0..OPS_PER_SIDE)
            .map(|_| {
                self.removed
                    .pop_front()
                    .expect("primed churn has deleted edges")
            })
            .collect();
        let mut dels = vec![self.take_target()];
        dels.extend((1..OPS_PER_SIDE).map(|_| self.take_present()));
        self.present.extend(ins.iter().copied());
        self.removed.extend(dels.iter().copied());
        GraphDelta {
            insert_edges: ins,
            delete_edges: dels,
        }
    }

    /// The mirror: the graph after every batch produced so far.
    pub fn graph(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.labels.len(), self.present.len());
        for &l in &self.labels {
            b.add_node(l);
        }
        for &(u, v) in &self.present {
            b.add_edge(u, v);
        }
        b.build()
    }
}
