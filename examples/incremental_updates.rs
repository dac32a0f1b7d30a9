//! Incremental simulation maintenance on a changing social graph.
//!
//! The paper's incremental `lEval` (§4.2) builds on incremental
//! pattern matching [13]: when edges disappear (an unfollow, a
//! revoked recommendation), the match relation shrinks and can be
//! repaired in `O(|AFF|)` — the affected area — instead of
//! recomputing from scratch. When an edge comes back, only the pairs
//! it can flip are re-refined. This example keeps one cached answer
//! of a one-site `SimEngine` current across a stream of single-edge
//! unfollows and re-follows, and compares the maintenance cost
//! against full recomputation.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use dgs::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let fig1 = dgs::graph::generate::social::fig1();
    let pattern = fig1.pattern.clone();
    let n = 20_000;
    let graph = dgs::graph::generate::social::social_network(n, 4 * n, 8, &pattern, 25, 7);
    println!(
        "social graph: {} nodes, {} edges; pattern |Q| = ({}, {})",
        graph.node_count(),
        graph.edge_count(),
        pattern.node_count(),
        pattern.edge_count()
    );

    let full = hhk_simulation(&pattern, &graph);
    println!(
        "initial maximum match: {} pairs (full HHK: {} ops)",
        full.relation.len(),
        full.ops
    );

    // One site: the distributed maintenance protocol degenerates to
    // the centralized counter repair, with no messages between sites.
    let frag = Arc::new(Fragmentation::build(
        &graph,
        &vec![0; graph.node_count()],
        1,
    ));
    let engine = SimEngine::builder(&graph, frag).build();
    assert_eq!(engine.query(&pattern).unwrap().relation, full.relation);

    let mut rng = SmallRng::seed_from_u64(99);
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let mut unfollowed = Vec::new();
    let mut total_update_ops = 0u64;
    let updates = 500;
    for i in 0..updates {
        // Every fifth update re-follows the oldest unfollow.
        let (delta, what) = if i % 5 == 4 {
            let e = unfollowed.remove(0);
            edges.push(e);
            (GraphDelta::insertions([e]), "re-follow")
        } else {
            let e = edges.swap_remove(rng.gen_range(0..edges.len()));
            unfollowed.push(e);
            (GraphDelta::deletions([e]), "unfollow")
        };
        let report = engine.apply_delta(&delta).unwrap();
        assert_eq!(report.maintained_entries, 1);
        total_update_ops += report.metrics.total_ops;
        if report.revoked_pairs + report.resurrected_pairs > 0 {
            let (u, v) = delta
                .delete_edges
                .first()
                .or(delta.insert_edges.first())
                .copied()
                .expect("one op per update");
            println!(
                "  {what} {u:?} -> {v:?}: {} pair(s) revoked, {} resurrected ({} ops)",
                report.revoked_pairs, report.resurrected_pairs, report.metrics.total_ops
            );
        }
    }

    let answer = engine.query(&pattern).unwrap();
    assert_eq!(
        answer.metrics.cache_hits, 1,
        "served from the maintained entry"
    );
    assert_eq!(
        answer.relation,
        hhk_simulation(&pattern, &engine.graph()).relation
    );
    println!(
        "\n{updates} updates maintained with {total_update_ops} total ops \
         ({:.1} ops/update, vs {} ops for ONE full recomputation)",
        total_update_ops as f64 / updates as f64,
        full.ops
    );
    println!(
        "final relation: {} pairs; still matching: {}",
        answer.relation.len(),
        answer.relation.is_total()
    );
    assert!(
        total_update_ops < full.ops * 2,
        "incremental maintenance should be far cheaper than recomputation per update"
    );
}
