//! Bench records: the one artifact format every committed benchmark
//! envelope (`benchmarks/BENCH_*.json`) and every bench run writes,
//! and the one gate that compares a run against a baseline.
//!
//! A [`BenchRecord`] is an area name plus a list of named
//! [`BenchMetric`]s. Each metric has a unit, a better-direction and a
//! value, and may carry up to three bounds:
//!
//! * `tolerance` — relative slack against the baseline value;
//! * `slack` — an absolute floor under a lower-is-better ceiling, so
//!   sub-millisecond jitter on a shared runner cannot trip the gate;
//! * `limit` — a hard bound that holds whatever the baseline value is.
//!
//! [`BenchRecord::gate`] reads every bound from the **baseline**, so a
//! committed envelope carries its own tolerances and a fresh run
//! carries none. A metric without bounds is recorded, not gated.

/// Format version of [`BenchRecord::to_json`]. Bump when the schema
/// changes; [`BenchRecord::parse_json`] refuses other versions so a
/// stale committed baseline is refused instead of misread.
pub const BENCH_RECORD_VERSION: u32 = 1;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Latencies, sizes, error counts.
    Lower,
    /// Throughputs, speedups, delivered counts.
    Higher,
}

/// One named measurement of a [`BenchRecord`], with its bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchMetric {
    /// Metric name, unique within its record (e.g. `p99_us@1000`).
    pub name: String,
    /// Unit, for reports only (e.g. `us`, `req/s`).
    pub unit: String,
    /// Which way the metric improves.
    pub better: Better,
    /// The measured value.
    pub value: f64,
    /// Relative slack against the baseline (`0.20` = 20%).
    pub tolerance: Option<f64>,
    /// Absolute slack on a lower-is-better ceiling, in the metric's
    /// unit.
    pub slack: Option<f64>,
    /// Hard bound: a ceiling for lower-is-better metrics, a floor for
    /// higher-is-better ones.
    pub limit: Option<f64>,
}

impl BenchMetric {
    /// The least-good value a run may report against this baseline
    /// metric and still pass; `None` when the metric is not gated.
    ///
    /// Lower is better: `min(max(base·(1+tol), base+slack), limit)`.
    /// Higher is better: `max(base/(1+tol), limit)`.
    pub fn bound(&self) -> Option<f64> {
        let relative = (self.tolerance.is_some() || self.slack.is_some()).then(|| {
            let tol = 1.0 + self.tolerance.unwrap_or(0.0);
            match self.better {
                Better::Lower => (self.value * tol).max(self.value + self.slack.unwrap_or(0.0)),
                Better::Higher => self.value / tol,
            }
        });
        match (relative, self.limit) {
            (Some(r), Some(l)) if self.better == Better::Lower => Some(r.min(l)),
            (Some(r), Some(l)) => Some(r.max(l)),
            (r, l) => r.or(l),
        }
    }
}

/// A versioned bench artifact: one area's named metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Schema version ([`BENCH_RECORD_VERSION`]).
    pub version: u32,
    /// What was measured (`serving`, `connsweep`, `executors`, ...);
    /// a gate refuses a baseline from another area.
    pub area: String,
    /// The measurements, in report order.
    pub metrics: Vec<BenchMetric>,
}

impl BenchRecord {
    /// An empty record of `area` at the current version.
    pub fn new(area: &str) -> BenchRecord {
        BenchRecord {
            version: BENCH_RECORD_VERSION,
            area: area.to_owned(),
            metrics: Vec::new(),
        }
    }

    /// Appends an ungated metric and returns it, so a caller can set
    /// its bounds.
    pub fn push(&mut self, name: &str, unit: &str, better: Better, value: f64) -> &mut BenchMetric {
        self.metrics.push(BenchMetric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            better,
            value,
            tolerance: None,
            slack: None,
            limit: None,
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metric called `name`, to set its bounds.
    pub fn metric_mut(&mut self, name: &str) -> Option<&mut BenchMetric> {
        self.metrics.iter_mut().find(|m| m.name == name)
    }

    /// The value of the metric called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metric(name).map(|m| m.value)
    }

    /// Regression verdicts of `self` (the new run) against `baseline`,
    /// one line per failing metric; empty when the run passes.
    ///
    /// A baseline of another area or version is refused with one
    /// verdict. Every gated baseline metric must be present in the run,
    /// finite, and no worse than the baseline metric's
    /// [`BenchMetric::bound`]. Metrics the baseline does not gate are
    /// not checked.
    pub fn gate(&self, baseline: &BenchRecord) -> Vec<String> {
        if (&self.area, self.version) != (&baseline.area, baseline.version) {
            return vec![format!(
                "record '{}' v{} cannot be gated against baseline '{}' v{}",
                self.area, self.version, baseline.area, baseline.version
            )];
        }
        let mut out = Vec::new();
        for base in &baseline.metrics {
            let (Some(bound), name) = (base.bound(), &base.name) else {
                continue;
            };
            let Some(new) = self.value(name) else {
                out.push(format!(
                    "{name} missing from the run (the baseline gates it)"
                ));
                continue;
            };
            let (failed, verb) = match base.better {
                Better::Lower => (new > bound, "exceeds"),
                Better::Higher => (new < bound, "fell below"),
            };
            if failed || !new.is_finite() {
                out.push(format!(
                    "{name} {} {unit} {verb} its bound {} {unit} (baseline {})",
                    show(new),
                    show(bound),
                    show(base.value),
                    unit = base.unit
                ));
            }
        }
        out
    }

    /// The artifact form: one metric object per line, bounds only when
    /// set. Values are written exactly, so `parse_json(to_json(r)) == r`
    /// for finite values.
    pub fn to_json(&self) -> String {
        let line = |m: &BenchMetric| {
            let bounds = [
                ("tolerance", m.tolerance),
                ("slack", m.slack),
                ("limit", m.limit),
            ];
            let bounds: String = bounds
                .iter()
                .filter_map(|(key, b)| b.map(|b| format!(", \"{key}\": {b}")))
                .collect();
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"value\": {}{bounds}}}",
                m.name, m.unit, m.value
            )
        };
        let metrics: Vec<String> = self.metrics.iter().map(line).collect();
        format!(
            "{{\n  \"version\": {},\n  \"area\": \"{}\",\n  \"metrics\": [\n{}\n  ]\n}}\n",
            self.version,
            self.area,
            metrics.join(",\n")
        )
    }

    /// Parses a record (any whitespace and key order). `Err` names the
    /// first problem: malformed JSON, a missing or mistyped key, a
    /// duplicate metric name, or a version this build does not speak.
    pub fn parse_json(s: &str) -> Result<BenchRecord, String> {
        let (s, mut at) = (s.as_bytes(), 0);
        let top = parse_value(s, &mut at)?;
        skip_ws(s, &mut at);
        if at != s.len() {
            return Err(format!("trailing text at byte {at}"));
        }
        let version = top.num("version")?;
        if version != f64::from(BENCH_RECORD_VERSION) {
            return Err(format!(
                "version {version} (this build reads version {BENCH_RECORD_VERSION})"
            ));
        }
        let Some(Json::Arr(items)) = top.get("metrics") else {
            return Err("missing \"metrics\" array".into());
        };
        let mut rec = BenchRecord::new(top.str("area")?);
        for (i, item) in items.iter().enumerate() {
            let ctx = |e: String| format!("metric {i}: {e}");
            let name = item.str("name").map_err(ctx)?;
            if rec.metric(name).is_some() {
                return Err(ctx(format!("duplicate name '{name}'")));
            }
            let better = match item.str("better").map_err(ctx)? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(ctx(format!("better is '{other}', not lower|higher"))),
            };
            let bound = |key| {
                item.get(key)
                    .map(|_| item.num(key).map_err(ctx))
                    .transpose()
            };
            let bounds = (bound("tolerance")?, bound("slack")?, bound("limit")?);
            let (unit, value) = (
                item.str("unit").map_err(ctx)?,
                item.num("value").map_err(ctx)?,
            );
            let m = rec.push(name, unit, better, value);
            (m.tolerance, m.slack, m.limit) = bounds;
        }
        Ok(rec)
    }
}

/// A number for verdicts: at most two decimals, no trailing zeros.
fn show(v: f64) -> String {
    format!("{}", (v * 100.0).round() / 100.0)
}

/// The JSON subset records are written in: objects, arrays, strings
/// without escapes, and numbers.
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing number \"{key}\"")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing string \"{key}\"")),
        }
    }
}

fn skip_ws(s: &[u8], at: &mut usize) {
    while s.get(*at).is_some_and(u8::is_ascii_whitespace) {
        *at += 1;
    }
}

fn parse_value(s: &[u8], at: &mut usize) -> Result<Json, String> {
    let expected = |what: &str, at: usize| format!("expected {what} at byte {at}");
    skip_ws(s, at);
    let start = *at;
    match s.get(start) {
        Some(&open @ (b'{' | b'[')) => {
            let (object, close) = (open == b'{', if open == b'{' { b'}' } else { b']' });
            let mut items = Vec::new();
            *at += 1;
            skip_ws(s, at);
            let mut done = s.get(*at) == Some(&close);
            *at += usize::from(done);
            while !done {
                let key = if object {
                    let Json::Str(key) = parse_value(s, at)? else {
                        return Err(expected("a key", *at));
                    };
                    skip_ws(s, at);
                    if s.get(*at) != Some(&b':') {
                        return Err(expected("':'", *at));
                    }
                    *at += 1;
                    key
                } else {
                    String::new()
                };
                items.push((key, parse_value(s, at)?));
                skip_ws(s, at);
                match s.get(*at) {
                    Some(b',') => {}
                    Some(&c) if c == close => done = true,
                    _ => return Err(expected(&format!("',' or '{}'", close as char), *at)),
                }
                *at += 1;
            }
            Ok(if object {
                Json::Obj(items)
            } else {
                Json::Arr(items.into_iter().map(|(_, v)| v).collect())
            })
        }
        Some(b'"') => {
            let len = s[start + 1..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .filter(|&n| s[start + 1 + n] == b'"')
                .ok_or_else(|| expected("a closing '\"' with no escapes", start))?;
            *at = start + len + 2;
            let text = String::from_utf8_lossy(&s[start + 1..start + 1 + len]);
            Ok(Json::Str(text.into_owned()))
        }
        _ => {
            while s
                .get(*at)
                .is_some_and(|c| c.is_ascii_digit() || b".eE+-".contains(c))
            {
                *at += 1;
            }
            std::str::from_utf8(&s[start..*at])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| expected("a value", start))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record from a one-line spec: space-separated metrics, each
    /// `name<value` (lower is better) or `name>value` (higher), then
    /// optional `~tolerance`, `+slack` and `!limit`.
    fn rec(area: &str, spec: &str) -> BenchRecord {
        let mut r = BenchRecord::new(area);
        for tok in spec.split_whitespace() {
            let at = tok.find(['<', '>']).expect("a direction");
            let (name, rest) = (&tok[..at], &tok[at + 1..]);
            let better = if tok[at..].starts_with('<') {
                Better::Lower
            } else {
                Better::Higher
            };
            let number = |s: &str| s.split(['~', '+', '!']).next()?.parse().ok();
            let bound = |mark: char| number(rest.split(mark).nth(1)?);
            let m = r.push(name, "u", better, number(rest).expect("a value"));
            (m.tolerance, m.slack, m.limit) = (bound('~'), bound('+'), bound('!'));
        }
        r
    }

    /// `base` as an ungated run, with `changes` applied (a name the
    /// base lacks is appended).
    fn run(base: &BenchRecord, changes: &[(&str, f64)]) -> BenchRecord {
        let mut r = base.clone();
        for m in &mut r.metrics {
            (m.tolerance, m.slack, m.limit) = (None, None, None);
        }
        for &(name, value) in changes {
            match r.metric_mut(name) {
                Some(m) => m.value = value,
                None => r.push(name, "u", Better::Lower, value).value = value,
            }
        }
        r
    }

    #[test]
    fn record_json_roundtrips_exactly() {
        let r = rec(
            "serving",
            "throughput_rps>1234.5678~0.2 p99_us@1000<0.30000000000000004~0.25+2000 errors<0!0 queries>24",
        );
        let json = r.to_json();
        assert_eq!(BenchRecord::parse_json(&json), Ok(r.clone()));
        // Whitespace and key order do not matter.
        let flat: String = json.split_whitespace().collect();
        let flat = flat.replace(r#""version":1,"area":"serving","#, "");
        let reordered = flat.replacen('{', r#"{"area":"serving","version":1,"#, 1);
        assert_eq!(BenchRecord::parse_json(&reordered), Ok(r));
    }

    #[test]
    fn parse_refuses_other_versions_and_garbage() {
        let json = rec("serving", "p50_us<1").to_json();
        let err = |text: &str| BenchRecord::parse_json(text).unwrap_err();
        assert!(err(&json.replace(r#""version": 1"#, r#""version": 2"#)).contains("version"));
        let dup = r#", {"name": "p50_us", "unit": "u", "better": "lower", "value": 2}]"#;
        assert!(err(&json.replace(']', dup)).contains("duplicate"));
        for bad in [
            "not json at all",
            r#"{"version": 1}"#,
            r#"{"version": 1, "area": "x", "metrics": [{"name": "a"}]}"#,
            r#"{"version": 1, "area": "x", "metrics": []} trailing"#,
            r#"{"version": 1, "area": "x\"", "metrics": []}"#,
            // The pre-record flat snapshot format is refused, not misread.
            r#"{"version": 1, "throughput_rps": 15000.00, "p50_us": 250.0}"#,
            &json.replace("lower", "sideways"),
            &json.replace(r#""value": 1"#, r#""value": "1""#),
        ] {
            err(bad);
        }
    }

    /// Every gate rule in one table: `(case, baseline, run, the metrics
    /// expected to fail, in baseline order)`, with each area's bounds
    /// exercised on both sides.
    #[test]
    #[rustfmt::skip]
    fn gate_verdicts() {
        // Serving: 20% / 500 us, errors hard at 0.
        let serving = rec("serving", "throughput_rps>1000~0.2 p50_us<200~0.2+500 \
            p95_us<400~0.2+500 p99_us<800~0.2+500 completed>500 errors<0!0");
        // Subscribe: 25% / 500 us, delivered diffs floored, errors 0.
        let subscribe = rec("subscribe", "diffs>100~0.25 batches>50 diff_p50_us<300~0.25+500 \
            diff_p95_us<900~0.25+500 diff_p99_us<1500~0.25+500 errors<0!0");
        // Executors: speedup 20% off the baseline and >= 2x hard, latency
        // 20% / 200 us over a 1.00..1.99 ms query stream.
        let executors = |speedup: f64| rec("executors", &format!("kernel_speedup>{speedup}~0.2!2 \
            query_p50_us<1500~0.2+200 query_p99_us<1990~0.2+200 queries>100"));
        let (exec, exec_near_2x) = (executors(10.0), executors(2.2));
        // Obs: the metrics-on ping run against the metrics-off one, p50
        // at 10% with a 25 us (or a forgiving 100 us) slack.
        let ping = |slack: f64| rec("ping", &format!("throughput_rps>10000 p50_us<50~0.1+{slack}"));
        let (ping25, ping100) = (ping(25.0), ping(100.0));
        let on = [("throughput_rps", 9000.0), ("p50_us", 110.0)];
        // Connection sweep: steps matched by name, 20% / 500 us per step,
        // errors of every step (listed or not) hard at 0.
        let sweep = rec("connsweep", "throughput_rps@1>1000~0.2 p99_us@1<500~0.2+500 errors@1<0 \
            throughput_rps@1000>900~0.2 p99_us@1000<600~0.2+500 errors@1000<0 errors<0!0");
        let step_5000 = |errors| run(&sweep, &[("throughput_rps@1000", 950.0),
            ("p99_us@1000", 650.0), ("throughput_rps@5000", 100.0), ("p99_us@5000", 9e6),
            ("errors@5000", errors), ("errors", errors)]);
        let regressed_step = [("throughput_rps@1000", 200.0), ("p99_us@1000", 50_000.0),
            ("errors@1000", 3.0), ("errors", 3.0)];
        let mut stale = run(&serving, &[]);
        stale.version += 1;
        let without = |name| {
            let mut r = run(&serving, &[]);
            r.metrics.retain(|m| m.name != name);
            r
        };

        let cases: Vec<(&str, &BenchRecord, BenchRecord, &[&str])> = vec![
            ("serving: identical", &serving, run(&serving, &[]), &[]),
            // Quantiles float inside the absolute slack.
            ("serving: within", &serving,
             run(&serving, &[("throughput_rps", 900.0), ("p99_us", 1100.0)]), &[]),
            ("serving: millisecond regression", &serving,
             run(&serving, &[("throughput_rps", 400.0), ("p99_us", 9000.0), ("errors", 3.0)]),
             &["throughput_rps", "p99_us", "errors"]),
            ("subscribe: within", &subscribe,
             run(&subscribe, &[("diffs", 90.0), ("diff_p99_us", 1900.0)]), &[]),
            ("subscribe: lost pushes", &subscribe,
             run(&subscribe, &[("diffs", 40.0), ("diff_p99_us", 50_000.0), ("errors", 2.0)]),
             &["diffs", "diff_p99_us", "errors"]),
            ("executors: identical", &exec, run(&exec, &[]), &[]),
            ("executors: slow kernel", &exec,
             run(&exec, &[("kernel_speedup", 1.5)]), &["kernel_speedup"]),
            // The hard 2x target fires where the baseline's own 20%
            // floor (1.83x) would pass.
            ("executors: hard limit", &exec_near_2x,
             run(&exec_near_2x, &[("kernel_speedup", 1.9)]), &["kernel_speedup"]),
            ("executors: latency blowup", &exec,
             run(&exec, &[("query_p99_us", 1e6)]), &["query_p99_us"]),
            // 120% overhead and +60 us: over both bars.
            ("obs: overhead", &ping25, run(&ping25, &on), &["p50_us"]),
            // The absolute slack forgives big relative jitter on a tiny
            // base...
            ("obs: slack", &ping100, run(&ping100, &on), &[]),
            // ...and a run inside the relative bar passes regardless.
            ("obs: quiet", &ping25, run(&ping25, &[]), &[]),
            ("sweep: a step the baseline lacks is not gated", &sweep, step_5000(0.0), &[]),
            ("sweep: ...except on its errors", &sweep, step_5000(2.0), &["errors"]),
            ("sweep: matched step regressed", &sweep, run(&sweep, &regressed_step),
             &["throughput_rps@1000", "p99_us@1000", "errors"]),
            ("foreign area", &serving, run(&subscribe, &[]), &["record 'subscribe' v1"]),
            ("foreign version", &serving, stale, &["record 'serving' v2"]),
            ("gated metric missing", &serving, without("p95_us"), &["p95_us missing"]),
            ("ungated metric missing", &serving, without("completed"), &[]),
            ("non-finite value", &serving,
             run(&serving, &[("throughput_rps", f64::NAN)]), &["throughput_rps"]),
        ];
        for (case, base, new, want) in cases {
            let verdicts = new.gate(base);
            assert_eq!(verdicts.len(), want.len(), "{case}: {verdicts:#?}");
            for (v, w) in verdicts.iter().zip(want) {
                assert!(v.starts_with(&format!("{w} ")), "{case}: {v:?} should name {w}");
            }
        }
    }

    #[test]
    fn bound_combines_relative_slack_and_limit() {
        let bound = |spec| rec("x", spec).metrics[0].bound();
        assert_eq!(bound("m<100"), None);
        // `on > max(off·1.1, off+25)` is `pct > 10 ∧ Δ > 25 us`.
        assert_eq!(bound("m<50~0.1+25"), Some(75.0));
        assert_eq!(bound("m<1000~0.1+25"), Some(1100.0));
        assert_eq!(bound("m<0!0"), Some(0.0));
        assert_eq!(bound("m<100~1!150"), Some(150.0));
        assert_eq!(bound("m>40~0.25"), Some(32.0));
        assert_eq!(bound("m>8~0.2!2"), Some(8.0 / 1.2));
        assert_eq!(bound("m>2.2~0.2!2"), Some(2.0));
    }
}
