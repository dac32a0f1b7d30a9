//! The end-to-end phases: closed-loop readers on up to two connections,
//! and the write loop (one writer connection beside one subscriber
//! connection). Each phase records client-observed latencies plus the
//! answers and batches the correctness checks and the traced replay
//! need afterwards.

use crate::workload::{splitmix, Churn, ColdPatterns, HOT_POOL};
use dgs_core::GraphDelta;
use dgs_graph::Pattern;
use dgs_serve::{
    Answer, DeltaSummary, DgsClient, MatchDiff, ServeAddr, ServeError, SubscriptionEvent,
    WireAlgorithm,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Answers kept per client for the oracle check.
const SAMPLE_CAP: usize = 32;
/// Requests a client keeps in its replay log (traced run only).
const LOG_CAP: usize = 4096;
/// How long the writer waits for a batch's diff before moving on (a
/// batch that changes no match pushes none).
const DIFF_WAIT: Duration = Duration::from_millis(100);

/// Where a reader draws its next pattern.
pub enum Source<'a> {
    /// Seeded uniform draws from the warm pool.
    Hot(&'a [Pattern]),
    /// The shared stream of never-seen patterns.
    Cold(&'a Mutex<ColdPatterns>),
}

impl Source<'_> {
    fn next(&self, rng: &mut u64) -> Pattern {
        match self {
            Source::Hot(pool) => pool[(splitmix(rng) % pool.len() as u64) as usize].clone(),
            Source::Cold(stream) => stream.lock().expect("pattern stream lock").next_pattern(),
        }
    }
}

/// One client-observed query and its answer.
pub struct Exchange {
    pub pattern: Pattern,
    pub answer: Answer,
}

/// What one closed-loop read phase observed.
#[derive(Default)]
pub struct ReadOut {
    /// `(start offset, latency)` of each timed query, in nanoseconds.
    pub lat_ns: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// `Answer.metrics.cache_hits` summed over timed answers.
    pub cache_hits: u64,
    /// Warm-up answers plus a seeded sample of timed answers.
    pub samples: Vec<Exchange>,
    /// The timed request sequence of client 0 (traced run only).
    pub log: Vec<Exchange>,
    pub errors: Vec<String>,
}

fn is_timeout(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(io) if matches!(io.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut))
}

/// Closed loop: each of `clients` connections sends its next `QUERY`
/// only after the previous answer arrived. Every client first sends
/// `warmup` untimed queries (hot: the whole pool, so the cache holds
/// it); timing starts when all clients finished warming up.
pub fn read_phase(
    addr: &ServeAddr,
    clients: usize,
    source: &Source<'_>,
    warmup: usize,
    run: Duration,
    seed: u64,
    record_log: bool,
) -> ReadOut {
    let barrier = Barrier::new(clients);
    let outs: Vec<ReadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    read_client(
                        addr,
                        c,
                        source,
                        warmup,
                        run,
                        seed,
                        barrier,
                        record_log && c == 0,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let mut total = ReadOut::default();
    for o in outs {
        total.lat_ns.extend(o.lat_ns);
        total.attempted += o.attempted;
        total.failed += o.failed;
        total.elapsed = total.elapsed.max(o.elapsed);
        total.cache_hits += o.cache_hits;
        total.samples.extend(o.samples);
        total.log.extend(o.log);
        total.errors.extend(o.errors);
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn read_client(
    addr: &ServeAddr,
    c: usize,
    source: &Source<'_>,
    warmup: usize,
    run: Duration,
    seed: u64,
    barrier: &Barrier,
    record_log: bool,
) -> ReadOut {
    let mut out = ReadOut::default();
    let mut rng = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(c as u64 + 1);
    let mut client = match DgsClient::connect(addr) {
        Ok(cl) => Some(cl),
        Err(e) => {
            out.errors.push(format!("client {c}: connect: {e}"));
            None
        }
    };
    if let Some(cl) = client.as_mut() {
        for i in 0..warmup {
            let q = match source {
                Source::Hot(pool) => pool[i % pool.len()].clone(),
                Source::Cold(_) => source.next(&mut rng),
            };
            match cl.query(&q, WireAlgorithm::Auto) {
                Ok(answer) => out.samples.push(Exchange { pattern: q, answer }),
                Err(e) => {
                    out.errors.push(format!("client {c}: warm-up query: {e}"));
                    client = None;
                    break;
                }
            }
        }
    }
    barrier.wait();
    let Some(mut client) = client else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let mut sample_rng = seed ^ 0xc0ff_ee00 ^ c as u64;
    let start = Instant::now();
    while start.elapsed() < run {
        let q = source.next(&mut rng);
        out.attempted += 1;
        let t = Instant::now();
        let res = client.query(&q, WireAlgorithm::Auto);
        let ns = t.elapsed().as_nanos() as u64;
        match res {
            Ok(answer) => {
                out.lat_ns.push(((t - start).as_nanos() as u64, ns));
                out.cache_hits += answer.metrics.cache_hits;
                if record_log && out.log.len() < LOG_CAP {
                    out.log.push(Exchange {
                        pattern: q.clone(),
                        answer: answer.clone(),
                    });
                }
                if splitmix(&mut sample_rng).is_multiple_of(64)
                    && out.samples.len() < warmup + SAMPLE_CAP
                {
                    out.samples.push(Exchange { pattern: q, answer });
                }
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("client {c}: query: {e}"));
                break;
            }
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// One applied batch as the writer saw it.
pub struct Batch {
    pub delta: GraphDelta,
    pub summary: DeltaSummary,
    pub sent: Instant,
    /// Send time as an offset from the start of the timed loop.
    pub at_ns: u64,
    pub lat_ns: u64,
}

/// A push the subscriber received, with its arrival time.
pub struct Push {
    pub diff: MatchDiff,
    pub at: Instant,
}

/// What one write phase observed.
#[derive(Default)]
pub struct WriteOut {
    /// `(start offset, latency)` of each timed query, in nanoseconds.
    pub query_ns: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
    pub cache_hits: u64,
    /// Timed batches, in order (the untimed priming batch excluded).
    pub batches: Vec<Batch>,
    /// The first answer after each timed batch: `(pool index, answer)`.
    pub checks: Vec<(usize, Answer)>,
    /// Pool index of every timed query, in order.
    pub queried: Vec<usize>,
    /// Every query of the loop in order (traced run only).
    pub log: Vec<Exchange>,
    /// Pool index of the subscribed pattern.
    pub sub_pattern: usize,
    pub pushes: Vec<Push>,
    /// Replayed subscriber rows and a final re-query on the subscriber
    /// connection; equal when the diff stream was exact.
    pub sub_replayed: Vec<Vec<u32>>,
    pub sub_final: Option<Answer>,
    pub errors: Vec<String>,
}

/// The writer's query order: a seeded walk over the warm pool.
fn writer_sequence(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = seed ^ 0x0057_1e00;
    (0..len)
        .map(|_| (splitmix(&mut rng) % HOT_POOL as u64) as usize)
        .collect()
}

/// How a write loop runs.
pub struct WriteCfg<'a> {
    pub pool: &'a [Pattern],
    /// Pool index of the pattern connection B subscribes to.
    pub sub: usize,
    /// Queries before each delta: from the seeded walk over the pool
    /// (after warming the whole pool), or, when `false`, the subscribed
    /// pattern only.
    pub walk: bool,
    pub queries_per_delta: usize,
    pub run: Duration,
    pub seed: u64,
    pub record_log: bool,
}

/// The write loop. Connection B subscribes to the `cfg.sub` pattern;
/// connection A applies the untimed priming batch, then repeats
/// `cfg.queries_per_delta` queries and one `APPLY_DELTA` until
/// `cfg.run` elapses.
pub fn write_phase(addr: &ServeAddr, cfg: &WriteCfg<'_>, churn: &mut Churn) -> WriteOut {
    let pool = cfg.pool;
    let mut out = WriteOut {
        sub_pattern: cfg.sub,
        ..WriteOut::default()
    };
    let fail = |out: &mut WriteOut, msg: String| {
        out.attempted += 1;
        out.failed += 1;
        out.errors.push(msg);
    };
    let (mut writer, mut sub) = match (DgsClient::connect(addr), DgsClient::connect(addr)) {
        (Ok(w), Ok(s)) => (w, s),
        (w, s) => {
            fail(&mut out, format!("connect: {:?} / {:?}", w.err(), s.err()));
            return out;
        }
    };
    if cfg.walk {
        for q in pool {
            if let Err(e) = writer.query(q, WireAlgorithm::Auto) {
                fail(&mut out, format!("warm-up query: {e}"));
                return out;
            }
        }
    }
    let mut rows = match sub.subscribe(&pool[cfg.sub], WireAlgorithm::Auto) {
        Ok((_, _, rows)) => rows,
        Err(e) => {
            fail(&mut out, format!("subscribe: {e}"));
            return out;
        }
    };
    if let Err(e) = sub.set_read_timeout(Some(Duration::from_millis(20))) {
        fail(&mut out, format!("subscriber read timeout: {e}"));
        return out;
    }
    let prime = churn.prime();
    match writer.apply_delta(&prime) {
        Ok(s) if s.ignored == 0 && (s.inserted + s.deleted) as usize == prime.op_count() => {}
        other => {
            fail(&mut out, format!("priming batch: {other:?}"));
            return out;
        }
    }

    let stop = AtomicBool::new(false);
    // The newest generation the subscriber has received a diff for.
    let seen = (Mutex::new(0u64), Condvar::new());
    let seq = writer_sequence(cfg.seed, 4096);
    let query_at = |i: usize| {
        if cfg.walk {
            seq[i % seq.len()]
        } else {
            cfg.sub
        }
    };
    let (sub_res, sub_back) = std::thread::scope(|s| {
        let (stop, seen) = (&stop, &seen);
        let listener = s.spawn(move || -> (Result<Vec<Push>, String>, DgsClient) {
            let mut pushes = Vec::new();
            loop {
                match sub.next_event() {
                    Ok(SubscriptionEvent::Diff(diff)) => {
                        let at = Instant::now();
                        *seen.0.lock().expect("subscriber generation lock") = diff.generation;
                        seen.1.notify_all();
                        pushes.push(Push { diff, at });
                    }
                    Ok(SubscriptionEvent::Event { kind, .. }) => {
                        return (Err(format!("subscription ended: {kind:?}")), sub)
                    }
                    Err(e) if is_timeout(&e) => {
                        if stop.load(Ordering::Acquire) {
                            return (Ok(pushes), sub);
                        }
                    }
                    Err(e) => return (Err(format!("subscriber: {e}")), sub),
                }
            }
        });

        let start = Instant::now();
        let mut i = 0usize;
        let mut check_next = false;
        'outer: while start.elapsed() < cfg.run {
            for _ in 0..cfg.queries_per_delta {
                let qi = query_at(i);
                i += 1;
                out.attempted += 1;
                let t = Instant::now();
                match writer.query(&pool[qi], WireAlgorithm::Auto) {
                    Ok(answer) => {
                        out.query_ns
                            .push(((t - start).as_nanos() as u64, t.elapsed().as_nanos() as u64));
                        out.queried.push(qi);
                        out.cache_hits += answer.metrics.cache_hits;
                        if cfg.record_log && out.log.len() < LOG_CAP {
                            out.log.push(Exchange {
                                pattern: pool[qi].clone(),
                                answer: answer.clone(),
                            });
                        }
                        if check_next {
                            out.checks.push((qi, answer));
                            check_next = false;
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("query: {e}"));
                        break 'outer;
                    }
                }
            }
            let delta = churn.next_batch();
            out.attempted += 1;
            let sent = Instant::now();
            match writer.apply_delta(&delta) {
                Ok(summary) => {
                    let lat_ns = sent.elapsed().as_nanos() as u64;
                    // The next query waits for the batch's diff to reach
                    // the subscriber, so push delivery never overlaps a
                    // timed query (on two cores that overlap made the
                    // query tail swing between runs).
                    let guard = seen.0.lock().expect("subscriber generation lock");
                    let _ = seen
                        .1
                        .wait_timeout_while(guard, DIFF_WAIT, |g| *g < summary.generation)
                        .expect("subscriber generation lock");
                    out.batches.push(Batch {
                        delta,
                        summary,
                        sent,
                        at_ns: (sent - start).as_nanos() as u64,
                        lat_ns,
                    });
                    check_next = true;
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("apply_delta: {e}"));
                    break;
                }
            }
        }
        out.elapsed = start.elapsed();
        // The last batch's check query runs after the clock stopped.
        if check_next {
            let qi = query_at(i);
            match writer.query(&pool[qi], WireAlgorithm::Auto) {
                Ok(answer) => out.checks.push((qi, answer)),
                Err(e) => out.errors.push(format!("check query: {e}")),
            }
        }
        stop.store(true, Ordering::Release);
        listener.join().expect("subscriber thread panicked")
    });
    sub = sub_back;
    match sub_res {
        Ok(p) => out.pushes = p,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    }
    for p in &out.pushes {
        apply_diff(&mut rows, &p.diff);
    }
    // Final re-query on the subscriber connection; pushes still in
    // flight are drained until the replayed rows catch up.
    let _ = sub.set_read_timeout(None);
    match sub.query(&pool[cfg.sub], WireAlgorithm::Auto) {
        Ok(final_answer) => {
            let _ = sub.set_read_timeout(Some(Duration::from_secs(5)));
            while rows != final_answer.rows {
                match sub.next_event() {
                    Ok(SubscriptionEvent::Diff(d)) => apply_diff(&mut rows, &d),
                    other => {
                        out.errors
                            .push(format!("draining the subscription: {other:?}"));
                        break;
                    }
                }
            }
            out.sub_final = Some(final_answer);
        }
        Err(e) => out.errors.push(format!("final re-query: {e}")),
    }
    out.sub_replayed = rows;
    out
}

/// Replays one pushed diff onto the subscriber's row table.
fn apply_diff(rows: &mut [Vec<u32>], diff: &MatchDiff) {
    for &(u, v) in &diff.removed {
        let row = &mut rows[u as usize];
        if let Ok(i) = row.binary_search(&v) {
            row.remove(i);
        }
    }
    for &(u, v) in &diff.added {
        let row = &mut rows[u as usize];
        if let Err(i) = row.binary_search(&v) {
            row.insert(i, v);
        }
    }
}

/// `PING` round trips in nanoseconds from `clients` concurrent
/// connections, `count` in all: the same connection kind and the same
/// concurrency as the timed phase, so an idle CPU's wake-up latency does
/// not inflate the figure.
pub fn ping_rtts(addr: &ServeAddr, clients: usize, count: usize) -> Result<Vec<u64>, String> {
    let per: Vec<Result<Vec<u64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut c = DgsClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    (0..count / clients)
                        .map(|_| {
                            let t = Instant::now();
                            c.ping().map_err(|e| format!("ping: {e}"))?;
                            Ok(t.elapsed().as_nanos() as u64)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping thread panicked"))
            .collect()
    });
    Ok(per.into_iter().collect::<Result<Vec<_>, _>>()?.concat())
}
