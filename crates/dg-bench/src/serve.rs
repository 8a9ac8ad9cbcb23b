//! Sustained-throughput benchmark and report plumbing for the
//! `dg-serve` concurrent similarity-cache server (`serve_bench` binary;
//! DESIGN.md §8, EXPERIMENTS.md "dg-serve throughput").
//!
//! The benchmark drives [`dg_serve::Server`] with batched
//! Zipf-over-similarity traffic and exports `BENCH_serve.json` in the
//! same `{meta, rows}` shape as `BENCH_repro.json`, so the trajectory
//! tooling can diff server throughput across revisions with full
//! provenance. The oracle gate re-checks the analytic hit-rate contract
//! (`dg_serve::che`) from the command line, giving CI a cheap
//! end-to-end probe that doesn't need the test harness.

use std::path::Path;
use std::time::Instant;

use crate::argparse::{set_flag, set_value, take_value};
use crate::experiments::Scale;
use crate::json::{array_document, Json, ObjectWriter};
use crate::meta::RunMeta;
use dg_serve::{ServeConfig, Server, SimilarityWorkload, WorkloadSpec};

/// Parsed arguments of the `serve_bench` binary (strict: anything
/// outside this set aborts with usage, like `repro_all`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeArgs {
    /// Reduced-scale run: small config, truncated workload (`--smoke`).
    pub smoke: bool,
    /// Run only the analytic hit-rate gate; exit non-zero on a miss
    /// outside the oracle band (`--check`).
    pub check: bool,
    /// Output path for the report (`--json PATH`, default
    /// `BENCH_serve.json`).
    pub json: Option<String>,
    /// Validate the shape of an existing report instead of running
    /// (`--validate PATH`).
    pub validate: Option<String>,
}

impl ServeArgs {
    /// The usage message printed on a parse error.
    pub const USAGE: &'static str = "usage: serve_bench [--smoke] [--check] [--json PATH] \
                                     [--validate PATH]\n\
                                     \n\
                                     --smoke          short run: small server, truncated workload\n\
                                     --check          run the analytic hit-rate gate and exit 0/1\n\
                                     --json PATH      report path (default BENCH_serve.json)\n\
                                     --validate PATH  validate an existing report's shape, no run";

    /// Parse the arguments after the program name (strict matching via
    /// [`crate::argparse`], shared with `repro_all`).
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut out = ServeArgs::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => set_flag(&mut out.smoke, "--smoke")?,
                "--check" => set_flag(&mut out.check, "--check")?,
                "--json" | "--validate" => {
                    let value = take_value(&mut it, &arg)?;
                    let slot = if arg == "--json" { &mut out.json } else { &mut out.validate };
                    set_value(slot, &arg, value)?;
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if out.check && out.validate.is_some() {
            return Err("--check and --validate are distinct modes".into());
        }
        Ok(out)
    }

    /// The scale stamped into the report's provenance.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Small
        } else {
            Scale::Paper
        }
    }
}

/// One measured segment of the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRow {
    /// Segment label (`"query"`, `"get_put"`, `"oracle_gate"`).
    pub name: String,
    /// Requests served in the segment.
    pub requests: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Throughput, million operations per second.
    pub mops: f64,
    /// Measured hit fraction over the segment's lookups.
    pub hit_rate: f64,
    /// Oracle-predicted hit rate (only meaningful on oracle rows;
    /// `NaN` → exported as `null` elsewhere).
    pub predicted_hit_rate: f64,
    /// Worker threads the pool used.
    pub workers: u64,
    /// Server shard count.
    pub shards: u64,
    /// Lookup-shaped requests (`Get` + `Query`) the segment performed
    /// against the cache — the denominator of `hit_rate`, exported so
    /// trajectory diffs can weigh rates by volume.
    pub accesses: u64,
    /// Mean wall-clock per request, nanoseconds (`secs / requests`).
    pub ns_per_op: f64,
    /// Median per-batch latency, nanoseconds ([`dg_obs::Hist64`]
    /// quantile over the measured batches).
    pub batch_p50_ns: u64,
    /// 90th-percentile per-batch latency, nanoseconds.
    pub batch_p90_ns: u64,
    /// 99th-percentile per-batch latency, nanoseconds.
    pub batch_p99_ns: u64,
}

impl ServeRow {
    /// Render as a JSON object at array-element depth.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = ObjectWriter::with_indent(1);
        o.str_field("name", &self.name)
            .u64_field("requests", self.requests)
            .f64_field("secs", self.secs)
            .f64_field("mops", self.mops)
            .f64_field("hit_rate", self.hit_rate)
            .f64_field("predicted_hit_rate", self.predicted_hit_rate)
            .u64_field("workers", self.workers)
            .u64_field("shards", self.shards)
            .u64_field("accesses", self.accesses)
            .f64_field("ns_per_op", self.ns_per_op)
            .u64_field("batch_p50_ns", self.batch_p50_ns)
            .u64_field("batch_p90_ns", self.batch_p90_ns)
            .u64_field("batch_p99_ns", self.batch_p99_ns);
        o.finish()
    }
}

/// Benchmark shape at one scale.
struct BenchPlan {
    cfg: ServeConfig,
    spec: WorkloadSpec,
    batch: usize,
    warmup_batches: usize,
    measure_batches: usize,
}

fn plan(smoke: bool) -> BenchPlan {
    if smoke {
        BenchPlan {
            cfg: ServeConfig::small(),
            spec: WorkloadSpec::tier1(),
            batch: 8_192,
            warmup_batches: 4,
            measure_batches: 12,
        }
    } else {
        BenchPlan {
            cfg: ServeConfig::bench(),
            spec: WorkloadSpec::bench(),
            batch: 65_536,
            warmup_batches: 8,
            measure_batches: 48,
        }
    }
}

/// Time one traffic shape against a fresh server.
///
/// `predict` attaches the Che-approximation hit-rate estimate to the
/// row. It is only meaningful for segments whose traffic matches the
/// oracle's model — a pure get-or-insert stream (`query`). Mixed
/// get/put traffic mutates residency in ways the model does not cover,
/// so those rows export `null` instead of a number that looks
/// authoritative but is not.
fn run_segment(
    name: &str,
    plan: &BenchPlan,
    predict: bool,
    mut next_batch: impl FnMut(&mut SimilarityWorkload, usize) -> Vec<dg_serve::Request>,
) -> ServeRow {
    let server = Server::new(plan.cfg).expect("bench config is valid");
    let mut workload = SimilarityWorkload::new(plan.spec, &plan.cfg);
    let predicted =
        if predict { workload.expected_hit_rate(&server).hit_rate } else { f64::NAN };
    for _ in 0..plan.warmup_batches {
        server.run_batch(&next_batch(&mut workload, plan.batch));
    }
    server.reset_stats();
    // Generate outside the timed region: the report measures the
    // server, not the workload generator.
    let batches: Vec<_> =
        (0..plan.measure_batches).map(|_| next_batch(&mut workload, plan.batch)).collect();
    let mut batch_ns = dg_obs::Hist64::new();
    let t0 = Instant::now();
    for b in &batches {
        let b0 = Instant::now();
        server.run_batch(b);
        batch_ns.record(b0.elapsed().as_nanos() as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    let requests = stats.ops();
    ServeRow {
        name: name.to_string(),
        requests,
        secs,
        mops: requests as f64 / secs / 1e6,
        hit_rate: stats.hit_rate(),
        predicted_hit_rate: predicted,
        workers: server.workers() as u64,
        shards: plan.cfg.shards as u64,
        accesses: stats.lookups(),
        ns_per_op: secs * 1e9 / requests.max(1) as f64,
        batch_p50_ns: batch_ns.quantile(0.5).unwrap_or(0),
        batch_p90_ns: batch_ns.quantile(0.9).unwrap_or(0),
        batch_p99_ns: batch_ns.quantile(0.99).unwrap_or(0),
    }
}

/// Run the analytic hit-rate gate: measured steady-state hit rate vs
/// the Che-approximation oracle. Returns the row plus the verdict.
pub fn oracle_gate(smoke: bool) -> (ServeRow, bool, f64) {
    let plan = plan(smoke);
    // The gate always runs on the small tier-1 shape — the oracle's
    // tolerance is calibrated there — but the full bench measures more
    // lookups for a tighter band.
    let cfg = ServeConfig::small();
    let spec = WorkloadSpec::tier1();
    let server = Server::new(cfg).expect("gate config is valid");
    let mut workload = SimilarityWorkload::new(spec, &cfg);
    let estimate = workload.expected_hit_rate(&server);

    let batch = plan.batch;
    let (warmup, measure) = if smoke { (6, 18) } else { (3, 10) };
    for _ in 0..warmup {
        server.run_batch(&workload.batch(batch));
    }
    server.reset_stats();
    // Generate outside the timed region, as `run_segment` does.
    let batches: Vec<_> = (0..measure).map(|_| workload.batch(batch)).collect();
    let mut batch_ns = dg_obs::Hist64::new();
    let t0 = Instant::now();
    for b in &batches {
        let b0 = Instant::now();
        server.run_batch(b);
        batch_ns.record(b0.elapsed().as_nanos() as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    let tolerance = estimate.tolerance(stats.lookups());
    let ok = (stats.hit_rate() - estimate.hit_rate).abs() <= tolerance;
    let row = ServeRow {
        name: "oracle_gate".to_string(),
        requests: stats.ops(),
        secs,
        mops: stats.ops() as f64 / secs / 1e6,
        hit_rate: stats.hit_rate(),
        predicted_hit_rate: estimate.hit_rate,
        workers: server.workers() as u64,
        shards: cfg.shards as u64,
        accesses: stats.lookups(),
        ns_per_op: secs * 1e9 / stats.ops().max(1) as f64,
        batch_p50_ns: batch_ns.quantile(0.5).unwrap_or(0),
        batch_p90_ns: batch_ns.quantile(0.9).unwrap_or(0),
        batch_p99_ns: batch_ns.quantile(0.99).unwrap_or(0),
    };
    (row, ok, tolerance)
}

/// Run the full benchmark: a get-or-insert segment, a get/put segment,
/// and the oracle gate. Returns the rows and whether the gate held.
pub fn run_bench(smoke: bool) -> (Vec<ServeRow>, bool) {
    let p = plan(smoke);
    let query = run_segment("query", &p, true, |w, n| w.batch(n));
    let get_put = run_segment("get_put", &p, false, |w, n| w.batch_mixed(n, 0.25));
    let (gate, ok, _) = oracle_gate(smoke);
    (vec![query, get_put, gate], ok)
}

/// Render a report document (`{meta, rows}`) from measured rows.
#[must_use]
pub fn report_json(scale: Scale, rows: &[ServeRow]) -> String {
    let rendered: Vec<String> = rows.iter().map(ServeRow::to_json).collect();
    let mut doc = ObjectWriter::with_indent(0);
    doc.raw_field("meta", &RunMeta::capture(scale).to_json(1))
        .raw_field("rows", &array_document(&rendered));
    doc.finish()
}

/// Write the report to `path`.
pub fn export(scale: Scale, rows: &[ServeRow], path: &Path) -> std::io::Result<()> {
    std::fs::write(path, report_json(scale, rows) + "\n")
}

/// Validate the shape of a `BENCH_serve.json` document: provenance
/// fields present, at least one row, every row carrying the full
/// column set with sane values (finite secs/mops, hit rates in [0, 1]
/// or null for the non-gated columns).
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let meta = doc.get("meta").ok_or("missing 'meta' object")?;
    for field in ["git_sha", "scale", "host"] {
        meta.get(field)
            .and_then(Json::as_str)
            .ok_or(format!("meta.{field} missing or not a string"))?;
    }
    meta.get("threads").and_then(Json::as_u64).ok_or("meta.threads missing or not a u64")?;

    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("missing 'rows' array")?;
    if rows.is_empty() {
        return Err("'rows' must not be empty".into());
    }
    let mut names = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("rows[{i}].name missing"))?;
        names.push(name.to_string());
        for field in ["requests", "workers", "shards", "accesses"] {
            let v = row
                .get(field)
                .and_then(Json::as_u64)
                .ok_or(format!("rows[{i}].{field} missing or not a u64"))?;
            if v == 0 {
                return Err(format!("rows[{i}].{field} is zero"));
            }
        }
        for field in ["secs", "mops", "ns_per_op"] {
            let v = row
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("rows[{i}].{field} missing or not a number"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("rows[{i}].{field} = {v} is not a positive number"));
            }
        }
        let mut quantiles = [0u64; 3];
        let names_q = ["batch_p50_ns", "batch_p90_ns", "batch_p99_ns"];
        for (q, field) in quantiles.iter_mut().zip(names_q) {
            *q = row
                .get(field)
                .and_then(Json::as_u64)
                .ok_or(format!("rows[{i}].{field} missing or not a u64"))?;
            if *q == 0 {
                return Err(format!("rows[{i}].{field} is zero"));
            }
        }
        for pair in quantiles.windows(2).zip(names_q.windows(2)) {
            let (q, n) = pair;
            if q[0] > q[1] {
                return Err(format!(
                    "rows[{i}].{} {} exceeds {} {} (quantiles must be monotone)",
                    n[0], q[0], n[1], q[1]
                ));
            }
        }
        for field in ["hit_rate", "predicted_hit_rate"] {
            match row.get(field) {
                Some(Json::Null) if field == "predicted_hit_rate" => {
                    // The prediction is emitted exactly where the Che
                    // oracle's model applies: get-or-insert streams
                    // (`query`) and the gate itself. Those rows must
                    // carry a number; only other segments may be null.
                    if name == "query" || name == "oracle_gate" {
                        return Err(format!("rows[{i}] ({name}).{field} must be a number"));
                    }
                }
                Some(v) => {
                    let v = v.as_f64().ok_or(format!("rows[{i}].{field} not a number"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("rows[{i}].{field} = {v} outside [0, 1]"));
                    }
                    if field == "predicted_hit_rate" && name == "get_put" {
                        // Mixed get/put traffic is outside the oracle's
                        // model; a number here would be fabricated.
                        return Err(format!("rows[{i}] (get_put).{field} must be null"));
                    }
                }
                None => return Err(format!("rows[{i}].{field} missing")),
            }
        }
    }
    for required in ["query", "get_put", "oracle_gate"] {
        if !names.iter().any(|n| n == required) {
            return Err(format!("missing '{required}' row (have {names:?})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        ServeArgs::parse(args.iter().copied())
    }

    #[test]
    fn args_parse_strictly() {
        assert_eq!(parse(&[]).unwrap(), ServeArgs::default());
        let a = parse(&["--smoke", "--json", "out.json"]).unwrap();
        assert!(a.smoke);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.scale(), Scale::Small);
        assert!(parse(&["--check"]).unwrap().check);
        assert_eq!(parse(&["--validate", "f.json"]).unwrap().validate.as_deref(), Some("f.json"));

        assert!(parse(&["--smok"]).is_err(), "typos must be rejected");
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--json", "--smoke"]).is_err());
        assert!(parse(&["--smoke", "--smoke"]).is_err());
        assert!(parse(&["--check", "--validate", "f"]).is_err());
    }

    #[test]
    fn report_round_trips_through_validation() {
        let rows = vec![
            ServeRow {
                name: "query".into(),
                requests: 1000,
                secs: 0.5,
                mops: 0.002,
                hit_rate: 0.5,
                predicted_hit_rate: 0.52,
                workers: 4,
                shards: 4,
                accesses: 800,
                ns_per_op: 500.0,
                batch_p50_ns: 100_000,
                batch_p90_ns: 180_000,
                batch_p99_ns: 250_000,
            },
            ServeRow {
                name: "get_put".into(),
                requests: 1000,
                secs: 0.5,
                mops: 0.002,
                hit_rate: 0.25,
                predicted_hit_rate: f64::NAN,
                workers: 4,
                shards: 4,
                accesses: 800,
                ns_per_op: 500.0,
                batch_p50_ns: 100_000,
                batch_p90_ns: 180_000,
                batch_p99_ns: 250_000,
            },
            ServeRow {
                name: "oracle_gate".into(),
                requests: 1000,
                secs: 0.5,
                mops: 0.002,
                hit_rate: 0.55,
                predicted_hit_rate: 0.53,
                workers: 4,
                shards: 4,
                accesses: 800,
                ns_per_op: 500.0,
                batch_p50_ns: 100_000,
                batch_p90_ns: 180_000,
                batch_p99_ns: 250_000,
            },
        ];
        let doc = report_json(Scale::Small, &rows);
        validate_report(&doc).unwrap();
        let parsed = Json::parse(&doc).unwrap();
        let arr = parsed.get("rows").unwrap().as_array().unwrap();
        // Query rows carry the oracle prediction; the mixed get/put
        // segment is outside the model and exports null (NaN → null).
        assert_eq!(arr[0].get("predicted_hit_rate").unwrap().as_f64(), Some(0.52));
        assert_eq!(*arr[1].get("predicted_hit_rate").unwrap(), Json::Null);
    }

    #[test]
    fn validation_pins_where_predictions_belong() {
        let base = |name: &str, predicted: f64| ServeRow {
            name: name.into(),
            requests: 1000,
            secs: 0.5,
            mops: 0.002,
            hit_rate: 0.5,
            predicted_hit_rate: predicted,
            workers: 4,
            shards: 4,
            accesses: 800,
            ns_per_op: 500.0,
            batch_p50_ns: 100_000,
            batch_p90_ns: 180_000,
            batch_p99_ns: 250_000,
        };
        let gate = base("oracle_gate", 0.5);
        // A null prediction on a query row is a shape error…
        let rows =
            vec![base("query", f64::NAN), base("get_put", f64::NAN), gate.clone()];
        let err = validate_report(&report_json(Scale::Small, &rows)).unwrap_err();
        assert!(err.contains("query"), "unexpected error: {err}");
        // …and a numeric prediction on get_put is too.
        let rows = vec![base("query", 0.5), base("get_put", 0.5), gate];
        let err = validate_report(&report_json(Scale::Small, &rows)).unwrap_err();
        assert!(err.contains("get_put"), "unexpected error: {err}");
    }

    #[test]
    fn validation_requires_monotone_latency_quantiles() {
        let row = |p50: u64, p90: u64, p99: u64| ServeRow {
            name: "query".into(),
            requests: 1000,
            secs: 0.5,
            mops: 0.002,
            hit_rate: 0.5,
            predicted_hit_rate: 0.52,
            workers: 4,
            shards: 4,
            accesses: 800,
            ns_per_op: 500.0,
            batch_p50_ns: p50,
            batch_p90_ns: p90,
            batch_p99_ns: p99,
        };
        let mut rows = vec![row(100, 180, 250)];
        rows.push(ServeRow { name: "get_put".into(), predicted_hit_rate: f64::NAN, ..row(1, 2, 3) });
        rows.push(ServeRow { name: "oracle_gate".into(), ..row(5, 5, 5) });
        validate_report(&report_json(Scale::Small, &rows)).unwrap();

        let bad = vec![row(200, 180, 250), rows[1].clone(), rows[2].clone()];
        let err = validate_report(&report_json(Scale::Small, &bad)).unwrap_err();
        assert!(err.contains("monotone"), "unexpected error: {err}");
        let bad = vec![row(100, 300, 250), rows[1].clone(), rows[2].clone()];
        let err = validate_report(&report_json(Scale::Small, &bad)).unwrap_err();
        assert!(err.contains("monotone"), "unexpected error: {err}");
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        assert!(validate_report("not json").is_err());
        assert!(validate_report("{}").is_err());
        let no_rows = r#"{"meta": {"git_sha": "x", "threads": 1, "scale": "small", "host": "h"},
                          "rows": []}"#;
        assert!(validate_report(no_rows).unwrap_err().contains("empty"));
        let bad_row = r#"{"meta": {"git_sha": "x", "threads": 1, "scale": "small", "host": "h"},
                          "rows": [{"name": "query"}]}"#;
        assert!(validate_report(bad_row).is_err());
    }

    #[test]
    fn smoke_bench_produces_a_valid_report_and_holds_the_gate() {
        let (rows, gate_ok) = run_bench(true);
        assert!(gate_ok, "oracle gate failed: {rows:?}");
        let doc = report_json(Scale::Small, &rows);
        validate_report(&doc).unwrap();
        let gate = rows.iter().find(|r| r.name == "oracle_gate").unwrap();
        assert!(gate.predicted_hit_rate.is_finite());
        assert!((gate.hit_rate - gate.predicted_hit_rate).abs() < 0.1);
    }
}
