//! Answer checks against the centralized reference simulation. A
//! mismatch fails the run; it is never reported as a metric.

use crate::drive::{Exchange, WriteOut};
use crate::workload::Churn;
use dgs_graph::{Graph, Pattern, QNodeId};
use dgs_serve::Answer;
use dgs_sim::{hhk_simulation, MatchRelation};

/// One sorted row of data nodes per query node.
fn rows_of(rel: &MatchRelation) -> Vec<Vec<u32>> {
    (0..rel.query_nodes())
        .map(|u| {
            rel.matches_of(QNodeId(u as u16))
                .iter()
                .map(|v| v.0)
                .collect()
        })
        .collect()
}

/// The paper's answer convention on both sides: the Boolean answer
/// must agree and, on a match, the full relation must.
fn agrees(q: &Pattern, g: &Graph, a: &Answer) -> Result<(), String> {
    let want = hhk_simulation(q, g);
    if a.is_match != want.matches() {
        return Err(format!(
            "is_match {} but the reference says {}",
            a.is_match,
            want.matches()
        ));
    }
    if a.is_match && a.rows != rows_of(&want.relation) {
        return Err("relation differs from the reference".into());
    }
    Ok(())
}

/// Checks sampled read answers against `g`.
pub fn check_reads(g: &Graph, samples: &[Exchange]) -> Result<usize, String> {
    for (i, x) in samples.iter().enumerate() {
        agrees(&x.pattern, g, &x.answer).map_err(|e| format!("read sample {i}: {e}"))?;
    }
    Ok(samples.len())
}

/// Checks the write loop: every batch changed exactly its ops, the
/// first answer after each batch equals the reference on the mirror at
/// that generation, and the subscriber's replayed diffs equal a final
/// re-query that itself equals the reference on the final mirror.
pub fn check_writes(initial: &Churn, pool: &[Pattern], out: &WriteOut) -> Result<usize, String> {
    let mut mirror = initial.clone();
    mirror.prime();
    if out.checks.len() != out.batches.len() {
        return Err(format!(
            "{} batches but {} post-batch answers",
            out.batches.len(),
            out.checks.len()
        ));
    }
    for (k, (b, (qi, answer))) in out.batches.iter().zip(&out.checks).enumerate() {
        let s = &b.summary;
        let ops = b.delta.op_count() as u64;
        if s.ignored != 0 || s.inserted + s.deleted != ops {
            return Err(format!(
                "batch {k}: {} inserted + {} deleted of {ops} ops, {} ignored",
                s.inserted, s.deleted, s.ignored
            ));
        }
        if mirror.next_batch() != b.delta {
            return Err(format!(
                "batch {k}: the mirror diverged from the sent batch"
            ));
        }
        agrees(&pool[*qi], &mirror.graph(), answer)
            .map_err(|e| format!("answer after batch {k}: {e}"))?;
    }
    let final_answer = out
        .sub_final
        .as_ref()
        .ok_or("the subscriber's final re-query is missing")?;
    if out.sub_replayed != final_answer.rows {
        return Err("the subscriber's replayed diffs differ from a final re-query".into());
    }
    agrees(&pool[out.sub_pattern], &mirror.graph(), final_answer)
        .map_err(|e| format!("final subscriber answer: {e}"))?;
    Ok(out.checks.len() + 1)
}
