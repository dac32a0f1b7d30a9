//! Run metrics: the PT and DS quantities of the paper's figures, plus
//! the [`LatencyHistogram`] shared by the serving layer's traffic
//! generator and benches.

use std::time::Duration;

/// Aggregated metrics of a protocol run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Bytes of **data** messages — the paper's DS metric.
    pub data_bytes: u64,
    /// Number of data messages.
    pub data_messages: u64,
    /// Bytes of **control** messages (barriers, query broadcast).
    pub control_bytes: u64,
    /// Number of control messages.
    pub control_messages: u64,
    /// Bytes of **result** messages (final match collection).
    pub result_bytes: u64,
    /// Number of result messages.
    pub result_messages: u64,
    /// Total charged operations across all endpoints.
    pub total_ops: u64,
    /// Charged operations per worker site.
    pub site_ops: Vec<u64>,
    /// Messages **sent** by each worker site, all classes (the
    /// coordinator's sends are the difference to the class totals).
    /// The conformance suite uses these to bound per-site traffic
    /// across executors.
    pub site_msgs: Vec<u64>,
    /// Charged operations at the coordinator.
    pub coordinator_ops: u64,
    /// Virtual response time in ns (0 under the threaded executor).
    pub virtual_time_ns: u64,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Number of quiescence rounds (phase barriers) the run used.
    pub quiescence_rounds: u64,
    /// Data messages delivered twice by fault injection
    /// ([`crate::fault::FaultPlan`]); the duplicates are *also*
    /// counted in `data_messages`/`data_bytes`, since retransmission
    /// is real traffic.
    pub duplicated_messages: u64,
    /// Bytes of duplicated data messages.
    pub duplicated_bytes: u64,
    /// Queries answered from a session-level result cache instead of a
    /// protocol run. A cache hit ships **nothing**: all message and
    /// byte counters stay zero for the hit, and only this counter
    /// records that the query was served.
    pub cache_hits: u64,
}

/// Per-site accounting of one graph-update (delta) application: how
/// much of the batch each site absorbed and what it had to ship to
/// keep the maintained relation consistent. Aggregated by
/// `SimEngine::apply_delta` across the maintained entries of a
/// session; complements the run-level [`RunMetrics`] the same way
/// `site_ops` complements `total_ops`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteDeltaMetrics {
    /// The site.
    pub site: usize,
    /// Edge ops this site applied (it owns the source node).
    pub ops_applied: u64,
    /// Falsified in-node variables shipped to subscriber sites.
    pub falsifications_shipped: u64,
    /// Local match pairs revoked by incremental maintenance.
    pub pairs_revoked: u64,
    /// Local match pairs resurrected by insertion-side maintenance.
    pub pairs_resurrected: u64,
    /// Local pairs in this site's slice of the insertion-side affected
    /// area `AFF` (the pairs maintenance revived and re-refined).
    pub pairs_marked: u64,
}

impl SiteDeltaMetrics {
    /// Field-wise accumulation (same-site entries from several
    /// maintenance runs).
    pub fn merge(&mut self, other: &SiteDeltaMetrics) {
        debug_assert_eq!(self.site, other.site, "merging different sites");
        self.ops_applied += other.ops_applied;
        self.falsifications_shipped += other.falsifications_shipped;
        self.pairs_revoked += other.pairs_revoked;
        self.pairs_resurrected += other.pairs_resurrected;
        self.pairs_marked += other.pairs_marked;
    }
}

impl RunMetrics {
    pub(crate) fn new(num_sites: usize) -> Self {
        RunMetrics {
            site_ops: vec![0; num_sites],
            site_msgs: vec![0; num_sites],
            ..Default::default()
        }
    }

    /// Records one sent message, attributing it to the sending
    /// endpoint's per-site counter.
    pub(crate) fn record_send_from(
        &mut self,
        from: crate::message::Endpoint,
        class: crate::message::MsgClass,
        bytes: usize,
    ) {
        if let crate::message::Endpoint::Site(i) = from {
            if let Some(slot) = self.site_msgs.get_mut(i as usize) {
                *slot += 1;
            }
        }
        self.record_send(class, bytes);
    }

    pub(crate) fn record_send(&mut self, class: crate::message::MsgClass, bytes: usize) {
        match class {
            crate::message::MsgClass::Data => {
                self.data_bytes += bytes as u64;
                self.data_messages += 1;
            }
            crate::message::MsgClass::Control => {
                self.control_bytes += bytes as u64;
                self.control_messages += 1;
            }
            crate::message::MsgClass::Result => {
                self.result_bytes += bytes as u64;
                self.result_messages += 1;
            }
        }
    }

    pub(crate) fn record_ops(&mut self, ep: crate::message::Endpoint, ops: u64) {
        self.total_ops += ops;
        match ep {
            crate::message::Endpoint::Coordinator => self.coordinator_ops += ops,
            crate::message::Endpoint::Site(i) => self.site_ops[i as usize] += ops,
        }
    }

    /// Virtual response time in milliseconds — the unit of the paper's
    /// PT plots (they report seconds; our scaled-down workloads land in
    /// ms).
    pub fn virtual_time_ms(&self) -> f64 {
        self.virtual_time_ns as f64 / 1.0e6
    }

    /// Data shipment in KB, the unit of the paper's DS plots.
    pub fn data_kb(&self) -> f64 {
        self.data_bytes as f64 / 1024.0
    }

    /// The largest per-site op count (a proxy for the parallel
    /// computation bottleneck).
    pub fn max_site_ops(&self) -> u64 {
        self.site_ops.iter().copied().max().unwrap_or(0)
    }

    /// Field-wise accumulation of another run's metrics (used to
    /// aggregate multi-query batches). Lives here so a new field
    /// cannot be forgotten by an out-of-crate copy of this list.
    pub fn merge(&mut self, other: &RunMetrics) {
        let RunMetrics {
            data_bytes,
            data_messages,
            control_bytes,
            control_messages,
            result_bytes,
            result_messages,
            total_ops,
            site_ops,
            site_msgs,
            coordinator_ops,
            virtual_time_ns,
            wall_time,
            quiescence_rounds,
            duplicated_messages,
            duplicated_bytes,
            cache_hits,
        } = other;
        self.data_bytes += data_bytes;
        self.data_messages += data_messages;
        self.control_bytes += control_bytes;
        self.control_messages += control_messages;
        self.result_bytes += result_bytes;
        self.result_messages += result_messages;
        self.total_ops += total_ops;
        self.coordinator_ops += coordinator_ops;
        self.virtual_time_ns += virtual_time_ns;
        self.wall_time += *wall_time;
        self.quiescence_rounds += quiescence_rounds;
        self.duplicated_messages += duplicated_messages;
        self.duplicated_bytes += duplicated_bytes;
        self.cache_hits += cache_hits;
        if self.site_ops.len() < site_ops.len() {
            self.site_ops.resize(site_ops.len(), 0);
        }
        for (t, s) in self.site_ops.iter_mut().zip(site_ops) {
            *t += s;
        }
        if self.site_msgs.len() < site_msgs.len() {
            self.site_msgs.resize(site_msgs.len(), 0);
        }
        for (t, s) in self.site_msgs.iter_mut().zip(site_msgs) {
            *t += s;
        }
    }
}

/// Linear sub-buckets per power of two. 32 sub-buckets bound the
/// relative quantile error by `1/32 ≈ 3%`.
const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// One group of sub-buckets per possible bit length of a `u64` value
/// (bit length 0 is the dedicated zero bucket).
const BUCKETS: usize = (65 << SUB_BUCKET_BITS) as usize;

/// A log-bucketed latency histogram: `O(1)` recording, constant
/// memory, mergeable across threads, with quantile accessors whose
/// relative error is bounded by the sub-bucket resolution (≈ 3%).
///
/// Values are dimensionless `u64`s; the serving layer records
/// nanoseconds ([`LatencyHistogram::record_duration`]). Per-client
/// histograms are merged with [`LatencyHistogram::merge`] — merging is
/// exact (bucket counts add), so a fleet of closed-loop clients can
/// each record locally and the driver reports fleet-wide p50/p95/p99
/// without a shared lock on the hot path.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `v`: the bit length selects the octave, the
    /// next [`SUB_BUCKET_BITS`] bits select the linear sub-bucket.
    fn bucket_of(v: u64) -> usize {
        let bits = 64 - v.leading_zeros(); // 0 for v == 0
        if bits <= SUB_BUCKET_BITS {
            // Small values are exact: one bucket per value.
            return v as usize;
        }
        let shift = bits - 1 - SUB_BUCKET_BITS;
        let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        ((bits as usize) << SUB_BUCKET_BITS) | sub
    }

    /// A representative value for bucket `i` (the largest value the
    /// bucket holds), inverse of [`Self::bucket_of`].
    fn bucket_high(i: usize) -> u64 {
        let bits = (i >> SUB_BUCKET_BITS) as u32;
        if bits == 0 {
            return (i & (SUB_BUCKETS - 1)) as u64;
        }
        let sub = (i & (SUB_BUCKETS - 1)) as u64;
        let shift = bits - 1 - SUB_BUCKET_BITS;
        // Top bit set, sub-bucket bits filled in, low bits saturated.
        (1u64 << (bits - 1)) | (sub << shift) | ((1u64 << shift) - 1)
    }

    /// Records one observation. Counts and the running sum saturate
    /// instead of overflowing: a histogram that has absorbed `u64::MAX`
    /// observations keeps reporting (slightly pessimistic) quantiles
    /// rather than panicking or wrapping.
    pub fn record(&mut self, v: u64) {
        let b = &mut self.counts[Self::bucket_of(v)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v as u128);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a wall-clock duration in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds every observation of `other` into `self` (exact; bucket
    /// counts add). Merging an empty histogram — in either direction —
    /// is the identity, and counts saturate instead of overflowing.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (t, s) in self.counts.iter_mut().zip(other.counts.iter()) {
            *t = t.saturating_add(*s);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q ∈ [0, 1]`: an upper bound of the
    /// bucket holding the `⌈q·count⌉`-th smallest observation, clamped
    /// to the observed maximum. `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

/// Format version of [`ServingSnapshot::to_json`]. Bump when the
/// schema changes; parsers refuse other versions so a stale committed
/// baseline is treated as "no baseline" instead of misread.
pub const SERVING_SNAPSHOT_VERSION: u32 = 1;

/// A serving-benchmark snapshot: the committed-artifact form of one
/// load run (throughput + latency quantiles), written as a small flat
/// JSON file (`BENCH_serving.json`) and compared across runs to catch
/// serving-path regressions in CI.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingSnapshot {
    /// Schema version ([`SERVING_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Completed requests per second.
    pub throughput: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed.
    pub errors: u64,
}

impl ServingSnapshot {
    /// A snapshot of one run: quantiles from `histogram` (recorded in
    /// nanoseconds), throughput from `completed / elapsed`.
    pub fn of_run(
        histogram: &LatencyHistogram,
        completed: u64,
        errors: u64,
        elapsed_secs: f64,
    ) -> ServingSnapshot {
        let us = |ns: u64| ns as f64 / 1_000.0;
        ServingSnapshot {
            version: SERVING_SNAPSHOT_VERSION,
            throughput: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
            p50_us: us(histogram.p50()),
            p95_us: us(histogram.p95()),
            p99_us: us(histogram.p99()),
            completed,
            errors,
        }
    }

    /// The committed-artifact form (flat JSON, stable key order,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"version\": {},\n  \"throughput_rps\": {:.2},\n  \"p50_us\": {:.1},\n  \
             \"p95_us\": {:.1},\n  \"p99_us\": {:.1},\n  \"completed\": {},\n  \"errors\": {}\n}}\n",
            self.version,
            self.throughput,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.completed,
            self.errors
        )
    }

    /// Parses [`ServingSnapshot::to_json`] output (any flat JSON with
    /// the same keys, whitespace-insensitive). `None` on a missing
    /// key or a version this build does not speak.
    pub fn parse_json(s: &str) -> Option<ServingSnapshot> {
        let num = |key: &str| -> Option<f64> {
            let pat = format!("\"{key}\"");
            let at = s.find(&pat)? + pat.len();
            let rest = s[at..].trim_start().strip_prefix(':')?.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let version = num("version")? as u32;
        if version != SERVING_SNAPSHOT_VERSION {
            return None;
        }
        Some(ServingSnapshot {
            version,
            throughput: num("throughput_rps")?,
            p50_us: num("p50_us")?,
            p95_us: num("p95_us")?,
            p99_us: num("p99_us")?,
            completed: num("completed")? as u64,
            errors: num("errors")? as u64,
        })
    }

    /// Human-readable regression verdicts of `self` (the new run)
    /// against `baseline`, empty when the run is acceptable.
    ///
    /// `tolerance` is the relative slack (CI gates on `0.20` = 20%);
    /// latency additionally gets `latency_floor_us` of absolute slack
    /// so sub-millisecond micro-noise on shared runners cannot trip
    /// the gate — the regressions this guards against (a reintroduced
    /// write barrier on the serve path) cost milliseconds, not tens of
    /// microseconds.
    pub fn regressions(
        &self,
        baseline: &ServingSnapshot,
        tolerance: f64,
        latency_floor_us: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if self.errors > 0 {
            out.push(format!(
                "{} requests errored (baseline gate: 0)",
                self.errors
            ));
        }
        let floor = baseline.throughput / (1.0 + tolerance);
        if self.throughput < floor {
            out.push(format!(
                "throughput {:.1} req/s fell below {:.1} (baseline {:.1} / {:.0}% tolerance)",
                self.throughput,
                floor,
                baseline.throughput,
                tolerance * 100.0
            ));
        }
        for (name, new, base) in [
            ("p50", self.p50_us, baseline.p50_us),
            ("p95", self.p95_us, baseline.p95_us),
            ("p99", self.p99_us, baseline.p99_us),
        ] {
            let ceiling = (base * (1.0 + tolerance)).max(base + latency_floor_us);
            if new > ceiling {
                out.push(format!(
                    "{name} {new:.1}us exceeds {ceiling:.1}us (baseline {base:.1}us + {:.0}% \
                     tolerance, {latency_floor_us:.0}us floor)",
                    tolerance * 100.0
                ));
            }
        }
        out
    }
}

/// Format version of [`ConnSweepSnapshot::to_json`]; same bump/refuse
/// discipline as [`SERVING_SNAPSHOT_VERSION`].
pub const CONN_SWEEP_SNAPSHOT_VERSION: u32 = 1;

/// One step of a connection-count sweep: the server held
/// `connections` concurrent connections while a bounded subset drove
/// open-loop traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnSweepStep {
    /// Concurrent connections held open during this step.
    pub connections: u64,
    /// Completed requests per second over the step.
    pub throughput: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests (or connects) that failed.
    pub errors: u64,
}

/// A connection-count sweep snapshot (`BENCH_connsweep.json`): the
/// committed-artifact form of one `dgsload --sweep` run, one
/// [`ConnSweepStep`] per connection count. The CI gate compares steps
/// by connection count against a committed conservative envelope —
/// the property it guards is that p99 stays *flat* as idle
/// connections pile up (connections must cost buffers, not threads).
#[derive(Clone, Debug, PartialEq)]
pub struct ConnSweepSnapshot {
    /// Schema version ([`CONN_SWEEP_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Steps in ascending connection-count order.
    pub steps: Vec<ConnSweepStep>,
}

impl ConnSweepSnapshot {
    /// The committed-artifact form (one step object per line, stable
    /// key order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"version\": {},\n  \"steps\": [\n", self.version);
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"connections\": {}, \"throughput_rps\": {:.2}, \"p99_us\": {:.1}, \
                 \"completed\": {}, \"errors\": {}}}{}\n",
                s.connections,
                s.throughput,
                s.p99_us,
                s.completed,
                s.errors,
                if i + 1 < self.steps.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses [`ConnSweepSnapshot::to_json`] output. `None` on a
    /// missing key, an empty sweep, or a version this build does not
    /// speak.
    pub fn parse_json(s: &str) -> Option<ConnSweepSnapshot> {
        let field = |obj: &str, key: &str| -> Option<f64> {
            let pat = format!("\"{key}\"");
            let at = obj.find(&pat)? + pat.len();
            let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let head = &s[..s.find('[')?];
        let version = field(head, "version")? as u32;
        if version != CONN_SWEEP_SNAPSHOT_VERSION {
            return None;
        }
        let body = &s[s.find('[')? + 1..s.rfind(']')?];
        let mut steps = Vec::new();
        for obj in body.split('{').skip(1) {
            let obj = &obj[..obj.find('}')?];
            steps.push(ConnSweepStep {
                connections: field(obj, "connections")? as u64,
                throughput: field(obj, "throughput_rps")?,
                p99_us: field(obj, "p99_us")?,
                completed: field(obj, "completed")? as u64,
                errors: field(obj, "errors")? as u64,
            });
        }
        if steps.is_empty() {
            return None;
        }
        Some(ConnSweepSnapshot { version, steps })
    }

    /// Regression verdicts of `self` (the new sweep) against
    /// `baseline`, matched by connection count; empty when acceptable.
    /// Any errored step fails outright; per-step throughput and p99
    /// get the same `tolerance` + `latency_floor_us` slack as
    /// [`ServingSnapshot::regressions`]. Steps without a baseline
    /// counterpart (a widened sweep) are gated on errors only.
    pub fn regressions(
        &self,
        baseline: &ConnSweepSnapshot,
        tolerance: f64,
        latency_floor_us: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for step in &self.steps {
            if step.errors > 0 {
                out.push(format!(
                    "{} errors at {} connections (sweep gate: 0)",
                    step.errors, step.connections
                ));
            }
            let Some(base) = baseline
                .steps
                .iter()
                .find(|b| b.connections == step.connections)
            else {
                continue;
            };
            let floor = base.throughput / (1.0 + tolerance);
            if step.throughput < floor {
                out.push(format!(
                    "throughput {:.1} req/s at {} connections fell below {:.1} (baseline {:.1})",
                    step.throughput, step.connections, floor, base.throughput
                ));
            }
            let ceiling = (base.p99_us * (1.0 + tolerance)).max(base.p99_us + latency_floor_us);
            if step.p99_us > ceiling {
                out.push(format!(
                    "p99 {:.1}us at {} connections exceeds {:.1}us (baseline {:.1}us)",
                    step.p99_us, step.connections, ceiling, base.p99_us
                ));
            }
        }
        out
    }
}

/// Format version of [`SubscribeSnapshot::to_json`]; same bump/refuse
/// discipline as [`SERVING_SNAPSHOT_VERSION`].
pub const SUBSCRIBE_SNAPSHOT_VERSION: u32 = 1;

/// A live-subscription benchmark snapshot (`BENCH_subscribe.json`):
/// the committed-artifact form of one `dgsload --subscribe` run. A
/// writer storms one session with delta batches while subscribers on
/// every session hold open `MATCH_DIFF` streams; each diff's latency
/// is the span from the writer handing the batch to the wire to the
/// subscriber decoding the push that carries that batch's generation.
#[derive(Clone, Debug, PartialEq)]
pub struct SubscribeSnapshot {
    /// Schema version ([`SUBSCRIBE_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Diff pushes delivered across every subscriber.
    pub diffs: u64,
    /// Delta batches the writer applied.
    pub batches: u64,
    /// Median diff delivery latency, microseconds.
    pub diff_p50_us: f64,
    /// 95th-percentile diff delivery latency, microseconds.
    pub diff_p95_us: f64,
    /// 99th-percentile diff delivery latency, microseconds.
    pub diff_p99_us: f64,
    /// Anything that went wrong: failed connects or subscribes,
    /// unexpected terminal events, cross-session leakage, or a
    /// reconstructed match set diverging from the final re-query.
    pub errors: u64,
}

impl SubscribeSnapshot {
    /// A snapshot of one run: diff-latency quantiles from `histogram`
    /// (recorded in nanoseconds).
    pub fn of_run(
        histogram: &LatencyHistogram,
        diffs: u64,
        batches: u64,
        errors: u64,
    ) -> SubscribeSnapshot {
        let us = |ns: u64| ns as f64 / 1_000.0;
        SubscribeSnapshot {
            version: SUBSCRIBE_SNAPSHOT_VERSION,
            diffs,
            batches,
            diff_p50_us: us(histogram.p50()),
            diff_p95_us: us(histogram.p95()),
            diff_p99_us: us(histogram.p99()),
            errors,
        }
    }

    /// The committed-artifact form (flat JSON, stable key order,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"version\": {},\n  \"diffs\": {},\n  \"batches\": {},\n  \
             \"diff_p50_us\": {:.1},\n  \"diff_p95_us\": {:.1},\n  \"diff_p99_us\": {:.1},\n  \
             \"errors\": {}\n}}\n",
            self.version,
            self.diffs,
            self.batches,
            self.diff_p50_us,
            self.diff_p95_us,
            self.diff_p99_us,
            self.errors
        )
    }

    /// Parses [`SubscribeSnapshot::to_json`] output (any flat JSON
    /// with the same keys, whitespace-insensitive). `None` on a
    /// missing key or a version this build does not speak.
    pub fn parse_json(s: &str) -> Option<SubscribeSnapshot> {
        let num = |key: &str| -> Option<f64> {
            let pat = format!("\"{key}\"");
            let at = s.find(&pat)? + pat.len();
            let rest = s[at..].trim_start().strip_prefix(':')?.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let version = num("version")? as u32;
        if version != SUBSCRIBE_SNAPSHOT_VERSION {
            return None;
        }
        Some(SubscribeSnapshot {
            version,
            diffs: num("diffs")? as u64,
            batches: num("batches")? as u64,
            diff_p50_us: num("diff_p50_us")?,
            diff_p95_us: num("diff_p95_us")?,
            diff_p99_us: num("diff_p99_us")?,
            errors: num("errors")?.round() as u64,
        })
    }

    /// Regression verdicts of `self` (the new run) against `baseline`,
    /// empty when acceptable. Errors fail outright; a delivered-diff
    /// count below the baseline floor means pushes were lost or
    /// coalesced away; diff-latency quantiles get the usual
    /// `tolerance` + `latency_floor_us` slack.
    pub fn regressions(
        &self,
        baseline: &SubscribeSnapshot,
        tolerance: f64,
        latency_floor_us: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if self.errors > 0 {
            out.push(format!(
                "{} subscription errors (baseline gate: 0)",
                self.errors
            ));
        }
        let floor = (baseline.diffs as f64 / (1.0 + tolerance)).floor() as u64;
        if self.diffs < floor {
            out.push(format!(
                "delivered {} diffs, below {} (baseline {} / {:.0}% tolerance)",
                self.diffs,
                floor,
                baseline.diffs,
                tolerance * 100.0
            ));
        }
        for (name, new, base) in [
            ("diff p50", self.diff_p50_us, baseline.diff_p50_us),
            ("diff p95", self.diff_p95_us, baseline.diff_p95_us),
            ("diff p99", self.diff_p99_us, baseline.diff_p99_us),
        ] {
            let ceiling = (base * (1.0 + tolerance)).max(base + latency_floor_us);
            if new > ceiling {
                out.push(format!(
                    "{name} {new:.1}us exceeds {ceiling:.1}us (baseline {base:.1}us + {:.0}% \
                     tolerance, {latency_floor_us:.0}us floor)",
                    tolerance * 100.0
                ));
            }
        }
        out
    }
}

/// Format version of [`ExecutorsSnapshot::to_json`]; same bump/refuse
/// discipline as [`SERVING_SNAPSHOT_VERSION`].
pub const EXECUTORS_SNAPSHOT_VERSION: u32 = 2;

/// An executors-area trajectory snapshot (`dgs-bench --area
/// executors`): the committed-artifact form of the single-query hot
/// path — bitset kernels vs the old HashSet-of-pairs representation,
/// and the distributed engine's per-query latency. Written as
/// `BENCH_executors.json` and compared in CI, so the bitset win is
/// recorded and *stays* won.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutorsSnapshot {
    /// Schema version ([`EXECUTORS_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Centralized single-query time of the HashSet-of-pairs
    /// reference kernel, milliseconds.
    pub hashset_kernel_ms: f64,
    /// Centralized single-query time of the bitset kernel over the
    /// same workload, milliseconds.
    pub bitset_kernel_ms: f64,
    /// `hashset_kernel_ms / bitset_kernel_ms` — the representation
    /// win; gated to stay ≥ 2× (the PR's acceptance target).
    pub kernel_speedup: f64,
    /// Median distributed per-query latency over the measured stream,
    /// microseconds.
    pub query_p50_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub query_p99_us: f64,
    /// Queries timed into the latency histogram.
    pub queries: u64,
}

impl ExecutorsSnapshot {
    /// A snapshot of one trajectory run; per-query latencies come from
    /// `histogram` (recorded in nanoseconds).
    pub fn of_run(
        hashset_kernel_ms: f64,
        bitset_kernel_ms: f64,
        histogram: &LatencyHistogram,
    ) -> ExecutorsSnapshot {
        let us = |ns: u64| ns as f64 / 1_000.0;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        ExecutorsSnapshot {
            version: EXECUTORS_SNAPSHOT_VERSION,
            hashset_kernel_ms,
            bitset_kernel_ms,
            kernel_speedup: ratio(hashset_kernel_ms, bitset_kernel_ms),
            query_p50_us: us(histogram.p50()),
            query_p99_us: us(histogram.p99()),
            queries: histogram.count(),
        }
    }

    /// The committed-artifact form (flat JSON, stable key order,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"version\": {},\n  \"hashset_kernel_ms\": {:.3},\n  \
             \"bitset_kernel_ms\": {:.3},\n  \"kernel_speedup\": {:.2},\n  \
             \"query_p50_us\": {:.1},\n  \"query_p99_us\": {:.1},\n  \
             \"queries\": {}\n}}\n",
            self.version,
            self.hashset_kernel_ms,
            self.bitset_kernel_ms,
            self.kernel_speedup,
            self.query_p50_us,
            self.query_p99_us,
            self.queries
        )
    }

    /// Parses [`ExecutorsSnapshot::to_json`] output (any flat JSON
    /// with the same keys, whitespace-insensitive). `None` on a
    /// missing key or a version this build does not speak.
    pub fn parse_json(s: &str) -> Option<ExecutorsSnapshot> {
        let num = |key: &str| -> Option<f64> {
            let pat = format!("\"{key}\"");
            let at = s.find(&pat)? + pat.len();
            let rest = s[at..].trim_start().strip_prefix(':')?.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let version = num("version")? as u32;
        if version != EXECUTORS_SNAPSHOT_VERSION {
            return None;
        }
        Some(ExecutorsSnapshot {
            version,
            hashset_kernel_ms: num("hashset_kernel_ms")?,
            bitset_kernel_ms: num("bitset_kernel_ms")?,
            kernel_speedup: num("kernel_speedup")?,
            query_p50_us: num("query_p50_us")?,
            query_p99_us: num("query_p99_us")?,
            queries: num("queries")? as u64,
        })
    }

    /// Regression verdicts of `self` (the new run) against `baseline`,
    /// empty when acceptable.
    ///
    /// The kernel speedup is a *ratio measured within one run*, so it
    /// is robust to runner speed: it is gated against both the
    /// committed baseline (with `tolerance` slack) and the hard 2×
    /// representation-win target. Absolute per-query latency gets
    /// `tolerance` + `latency_floor_us` slack like every other
    /// snapshot.
    pub fn regressions(
        &self,
        baseline: &ExecutorsSnapshot,
        tolerance: f64,
        latency_floor_us: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if self.kernel_speedup < 2.0 {
            out.push(format!(
                "bitset kernel speedup {:.2}x fell below the 2x representation-win target",
                self.kernel_speedup
            ));
        }
        let (new, base) = (self.kernel_speedup, baseline.kernel_speedup);
        let floor = base / (1.0 + tolerance);
        if new < floor {
            out.push(format!(
                "kernel speedup {new:.2}x fell below {floor:.2}x (baseline {base:.2}x / {:.0}% \
                 tolerance)",
                tolerance * 100.0
            ));
        }
        for (name, new, base) in [
            ("query p50", self.query_p50_us, baseline.query_p50_us),
            ("query p99", self.query_p99_us, baseline.query_p99_us),
        ] {
            let ceiling = (base * (1.0 + tolerance)).max(base + latency_floor_us);
            if new > ceiling {
                out.push(format!(
                    "{name} {new:.1}us exceeds {ceiling:.1}us (baseline {base:.1}us + {:.0}% \
                     tolerance, {latency_floor_us:.0}us floor)",
                    tolerance * 100.0
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Endpoint, MsgClass};

    #[test]
    fn record_send_classifies() {
        let mut m = RunMetrics::new(2);
        m.record_send(MsgClass::Data, 100);
        m.record_send(MsgClass::Data, 50);
        m.record_send(MsgClass::Control, 8);
        m.record_send(MsgClass::Result, 300);
        assert_eq!(m.data_bytes, 150);
        assert_eq!(m.data_messages, 2);
        assert_eq!(m.control_bytes, 8);
        assert_eq!(m.result_bytes, 300);
        assert!((m.data_kb() - 150.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn record_ops_attributes_per_endpoint() {
        let mut m = RunMetrics::new(3);
        m.record_ops(Endpoint::Site(1), 10);
        m.record_ops(Endpoint::Site(1), 5);
        m.record_ops(Endpoint::Coordinator, 7);
        assert_eq!(m.site_ops, vec![0, 15, 0]);
        assert_eq!(m.coordinator_ops, 7);
        assert_eq!(m.total_ops, 22);
        assert_eq!(m.max_site_ops(), 15);
    }

    #[test]
    fn virtual_time_ms_conversion() {
        let m = RunMetrics {
            virtual_time_ns: 2_500_000,
            ..RunMetrics::new(0)
        };
        assert!((m.virtual_time_ms() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..=31u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.5), 15); // ceil(0.5*32) = 16th smallest = 15
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_quantile_error_is_bounded() {
        // Uniform 1..=100_000: every quantile estimate must be within
        // the sub-bucket resolution (1/32) of the true value.
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, truth) in &[(0.50, 50_000u64), (0.95, 95_000), (0.99, 99_000)] {
            let est = h.quantile(q);
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(
                err <= 1.0 / 32.0 + 1e-9,
                "q={q}: estimate {est} vs true {truth} (relative error {err:.4})"
            );
            // A quantile estimate is the bucket's upper bound, so it
            // never understates below one resolution step.
            assert!(est as f64 >= truth as f64 * (1.0 - 1.0 / 32.0));
        }
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - 50_000.5).abs() / 50_000.5 < 1e-9);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = (i * 2_654_435_761) % 1_000_000 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn histogram_quantiles_clamp_to_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.p50(), 1_000_003);
        assert_eq!(h.p99(), 1_000_003);
        h.record_duration(Duration::from_nanos(17));
        assert_eq!(h.min(), 17);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn serving_snapshot_json_roundtrips() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(i * 10_000); // 10µs .. 1ms
        }
        let snap = ServingSnapshot::of_run(&h, 100, 0, 2.0);
        assert!((snap.throughput - 50.0).abs() < 1e-9);
        let parsed = ServingSnapshot::parse_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed.version, SERVING_SNAPSHOT_VERSION);
        assert_eq!(parsed.completed, 100);
        assert_eq!(parsed.errors, 0);
        // The JSON rounds to 1 decimal of a microsecond.
        assert!((parsed.p99_us - snap.p99_us).abs() < 0.1);
        assert!((parsed.throughput - snap.throughput).abs() < 0.01);
    }

    #[test]
    fn serving_snapshot_rejects_other_versions_and_garbage() {
        let mut h = LatencyHistogram::new();
        h.record(1);
        let json = ServingSnapshot::of_run(&h, 1, 0, 1.0)
            .to_json()
            .replace("\"version\": 1", "\"version\": 999");
        assert_eq!(ServingSnapshot::parse_json(&json), None);
        assert_eq!(ServingSnapshot::parse_json("not json at all"), None);
        assert_eq!(ServingSnapshot::parse_json("{\"version\": 1}"), None);
    }

    #[test]
    fn serving_snapshot_regression_gate() {
        let base = ServingSnapshot {
            version: SERVING_SNAPSHOT_VERSION,
            throughput: 1000.0,
            p50_us: 200.0,
            p95_us: 400.0,
            p99_us: 800.0,
            completed: 500,
            errors: 0,
        };
        // Within tolerance: quantiles float inside the absolute floor.
        let ok = ServingSnapshot {
            throughput: 900.0,
            p99_us: 1100.0,
            ..base.clone()
        };
        assert!(ok.regressions(&base, 0.20, 500.0).is_empty());
        // A real regression (milliseconds, as a reintroduced write
        // barrier would cost) trips both gates.
        let bad = ServingSnapshot {
            throughput: 400.0,
            p99_us: 9000.0,
            errors: 3,
            ..base.clone()
        };
        let verdicts = bad.regressions(&base, 0.20, 500.0);
        assert_eq!(verdicts.len(), 3, "{verdicts:?}");
        assert!(verdicts[0].contains("errored"));
        assert!(verdicts[1].contains("throughput"));
        assert!(verdicts[2].contains("p99"));
    }

    fn sweep(steps: &[(u64, f64, f64, u64)]) -> ConnSweepSnapshot {
        ConnSweepSnapshot {
            version: CONN_SWEEP_SNAPSHOT_VERSION,
            steps: steps
                .iter()
                .map(|&(connections, throughput, p99_us, errors)| ConnSweepStep {
                    connections,
                    throughput,
                    p99_us,
                    completed: 100,
                    errors,
                })
                .collect(),
        }
    }

    #[test]
    fn conn_sweep_snapshot_json_roundtrip() {
        let snap = sweep(&[(1, 5000.0, 300.0, 0), (100, 4800.5, 450.25, 0)]);
        let parsed = ConnSweepSnapshot::parse_json(&snap.to_json()).unwrap();
        assert_eq!(parsed.steps.len(), 2);
        assert_eq!(parsed.steps[1].connections, 100);
        assert!((parsed.steps[1].throughput - 4800.5).abs() < 0.01);
        assert!((parsed.steps[1].p99_us - 450.2).abs() < 0.1);
    }

    #[test]
    fn conn_sweep_snapshot_rejects_other_versions_and_garbage() {
        let json = sweep(&[(1, 1.0, 1.0, 0)])
            .to_json()
            .replace("\"version\": 1", "\"version\": 7");
        assert_eq!(ConnSweepSnapshot::parse_json(&json), None);
        assert_eq!(ConnSweepSnapshot::parse_json("nope"), None);
        assert_eq!(
            ConnSweepSnapshot::parse_json("{\"version\": 1, \"steps\": []}"),
            None
        );
    }

    #[test]
    fn subscribe_snapshot_json_roundtrips_and_rejects_other_versions() {
        let mut h = LatencyHistogram::new();
        for i in 1..=50u64 {
            h.record(i * 20_000); // 20µs .. 1ms
        }
        let snap = SubscribeSnapshot::of_run(&h, 200, 64, 0);
        let parsed = SubscribeSnapshot::parse_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed.version, SUBSCRIBE_SNAPSHOT_VERSION);
        assert_eq!(parsed.diffs, 200);
        assert_eq!(parsed.batches, 64);
        assert_eq!(parsed.errors, 0);
        assert!((parsed.diff_p99_us - snap.diff_p99_us).abs() < 0.1);
        let stale = snap.to_json().replace("\"version\": 1", "\"version\": 12");
        assert_eq!(SubscribeSnapshot::parse_json(&stale), None);
        assert_eq!(SubscribeSnapshot::parse_json("junk"), None);
    }

    #[test]
    fn subscribe_regression_gate() {
        let base = SubscribeSnapshot {
            version: SUBSCRIBE_SNAPSHOT_VERSION,
            diffs: 100,
            batches: 50,
            diff_p50_us: 300.0,
            diff_p95_us: 900.0,
            diff_p99_us: 1500.0,
            errors: 0,
        };
        // Micro-noise inside the floor and a slightly lower diff count
        // pass.
        let ok = SubscribeSnapshot {
            diffs: 90,
            diff_p99_us: 1900.0,
            ..base.clone()
        };
        assert!(ok.regressions(&base, 0.25, 500.0).is_empty());
        // Errors, lost pushes, and millisecond-scale latency blowups
        // each trip their own verdict.
        let bad = SubscribeSnapshot {
            diffs: 40,
            diff_p99_us: 50_000.0,
            errors: 2,
            ..base.clone()
        };
        let verdicts = bad.regressions(&base, 0.25, 500.0);
        assert_eq!(verdicts.len(), 3, "{verdicts:?}");
        assert!(verdicts[0].contains("errors"));
        assert!(verdicts[1].contains("diffs"));
        assert!(verdicts[2].contains("p99"));
    }

    #[test]
    fn conn_sweep_regression_gate_matches_steps_by_connection_count() {
        let base = sweep(&[(1, 1000.0, 500.0, 0), (1000, 900.0, 600.0, 0)]);
        // Flat-and-fast run passes; a step the baseline lacks is only
        // gated on errors.
        let ok = sweep(&[
            (1, 1000.0, 500.0, 0),
            (1000, 950.0, 650.0, 0),
            (5000, 100.0, 9e6, 0),
        ]);
        assert!(ok.regressions(&base, 0.20, 500.0).is_empty());
        // Errors anywhere, or a blown-up p99 at a matched step, fail.
        let bad = sweep(&[(1, 1000.0, 500.0, 0), (1000, 200.0, 50_000.0, 3)]);
        let verdicts = bad.regressions(&base, 0.20, 500.0);
        assert_eq!(verdicts.len(), 3, "{verdicts:?}");
        assert!(verdicts[0].contains("errors at 1000 connections"));
        assert!(verdicts[1].contains("throughput"));
        assert!(verdicts[2].contains("p99"));
    }

    /// Satellite hardening: the edge cases the bench driver leans on.
    #[test]
    fn histogram_empty_merge_is_identity() {
        let mut a = LatencyHistogram::new();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 0);
        assert_eq!(a.p99(), 0);
        assert_eq!(a.mean(), 0.0);

        // Empty into non-empty and non-empty into empty agree.
        let mut src = LatencyHistogram::new();
        src.record(1_234);
        let mut ne = src.clone();
        ne.merge(&LatencyHistogram::new());
        let mut e = LatencyHistogram::new();
        e.merge(&src);
        for h in [&ne, &e] {
            assert_eq!(h.count(), 1);
            assert_eq!(h.min(), 1_234);
            assert_eq!(h.max(), 1_234);
        }
    }

    #[test]
    fn histogram_single_sample_quantiles_are_the_sample() {
        let mut h = LatencyHistogram::new();
        h.record(777);
        assert_eq!(h.p50(), 777);
        assert_eq!(h.p95(), 777);
        assert_eq!(h.p99(), 777);
        assert_eq!(h.quantile(0.0), 777);
        assert_eq!(h.quantile(1.0), 777);
        assert!(!h.mean().is_nan());
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn histogram_saturates_instead_of_overflowing() {
        // Extreme values record without panicking...
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        // ...and a count already at the u64 ceiling saturates on both
        // the record and merge paths instead of wrapping.
        let mut big = LatencyHistogram::new();
        big.record(5);
        big.count = u64::MAX;
        big.counts[LatencyHistogram::bucket_of(5)] = u64::MAX;
        big.sum = u128::MAX;
        big.record(5);
        assert_eq!(big.count(), u64::MAX);
        let mut other = LatencyHistogram::new();
        other.record(5);
        big.merge(&other);
        assert_eq!(big.count(), u64::MAX);
        // Quantiles stay finite, non-NaN numbers.
        assert!(big.p99() >= 5);
        assert!(!big.mean().is_nan());
    }

    fn exec_snapshot() -> ExecutorsSnapshot {
        let mut h = LatencyHistogram::new();
        for i in 0..100u64 {
            h.record(1_000_000 + i * 10_000);
        }
        ExecutorsSnapshot::of_run(80.0, 8.0, &h)
    }

    #[test]
    fn executors_snapshot_roundtrip() {
        let snap = exec_snapshot();
        assert!((snap.kernel_speedup - 10.0).abs() < 1e-9);
        assert_eq!(snap.queries, 100);
        let parsed = ExecutorsSnapshot::parse_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed.version, EXECUTORS_SNAPSHOT_VERSION);
        assert!((parsed.kernel_speedup - 10.0).abs() < 0.01);
        assert_eq!(parsed.queries, 100);
    }

    #[test]
    fn executors_snapshot_rejects_other_versions() {
        let other = exec_snapshot()
            .to_json()
            .replace("\"version\": 2", "\"version\": 99");
        assert!(ExecutorsSnapshot::parse_json(&other).is_none());
    }

    #[test]
    fn executors_regression_gate() {
        let base = exec_snapshot();
        // Identical run passes.
        assert!(exec_snapshot().regressions(&base, 0.20, 200.0).is_empty());
        // The hard 2x kernel target fires independently of the baseline.
        let slow_kernel = ExecutorsSnapshot {
            kernel_speedup: 1.5,
            ..exec_snapshot()
        };
        let verdicts = slow_kernel.regressions(&base, 0.20, 200.0);
        assert_eq!(verdicts.len(), 2, "{verdicts:?}");
        assert!(verdicts[0].contains("2x representation-win target"));
        assert!(verdicts[1].contains("kernel speedup"));
        // A blown-up latency fails.
        let bad = ExecutorsSnapshot {
            query_p99_us: 1e6,
            ..exec_snapshot()
        };
        let verdicts = bad.regressions(&base, 0.20, 200.0);
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        assert!(verdicts[0].contains("query p99"));
    }
}
