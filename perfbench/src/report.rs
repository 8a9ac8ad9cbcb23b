//! The result line of one run and the document of `--workload all`.

use std::fmt::Write as _;

use dg_bench::json::{escape, number, Json};

use crate::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// The one-line JSON result of a run: `correct`, `attempted`, `failed`
/// and every metric of `defs`, in catalog order, with its unit.
///
/// # Errors
///
/// A metric of `defs` missing from `out`, recorded twice, not in `defs`
/// or not finite.
pub fn result_line(out: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    for (name, _) in &out.metrics {
        if !defs.iter().any(|d| d.name == *name) {
            return Err(format!("metric '{name}' is not in the catalog"));
        }
        if out.metrics.iter().filter(|(n, _)| n == name).count() > 1 {
            return Err(format!("metric '{name}' recorded twice"));
        }
    }
    let mut metrics = String::new();
    for (i, d) in defs.iter().enumerate() {
        let v = out
            .get(d.name)
            .ok_or(format!("metric '{}' was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric '{}' is {v}", d.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            number(v),
            d.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    ))
}

/// One workload's row of the `--workload all` document, from the result
/// lines of its untraced and traced runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Result line of the untraced run.
    pub untraced: String,
    /// Result line of the traced run.
    pub traced: String,
    /// Whether both runs printed the same behaviour digest.
    pub digests_agree: bool,
}

/// The `--workload all` document: a `meta` object and one row per
/// workload holding both runs' results.
pub fn document(meta: &str, rows: &[Row]) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"digests_agree\": {}, \"untraced\": {}, \"traced\": {}}}",
                escape(&r.workload),
                r.digests_agree,
                r.untraced,
                r.traced
            )
        })
        .collect();
    format!("{{\"meta\": {meta}, \"rows\": [{}]}}", rendered.join(", "))
}

/// Check one result object: the four keys, `attempted ≥ 1`, and every
/// metric of `defs` as a number with its unit.
pub fn validate_result(result: &Json, defs: &[MetricDef]) -> Result<(), String> {
    if !matches!(result.get("correct"), Some(Json::Bool(_))) {
        return Err("'correct' missing or not a boolean".into());
    }
    let attempted = result
        .get("attempted")
        .and_then(Json::as_u64)
        .ok_or("bad 'attempted'")?;
    result
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("bad 'failed'")?;
    if attempted == 0 {
        return Err("'attempted' is 0".into());
    }
    let metrics = result.get("metrics").ok_or("'metrics' missing")?;
    let Json::Object(fields) = metrics else {
        return Err("'metrics' is not an object".into());
    };
    if fields.len() != defs.len() {
        return Err(format!("{} metrics, expected {}", fields.len(), defs.len()));
    }
    for d in defs {
        let m = metrics
            .get(d.name)
            .ok_or(format!("metric '{}' missing", d.name))?;
        m.get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("metric '{}' has no value", d.name))?;
        if m.get("unit").and_then(Json::as_str) != Some(d.unit) {
            return Err(format!(
                "metric '{}' does not carry unit '{}'",
                d.name, d.unit
            ));
        }
    }
    Ok(())
}

/// Check a `--workload all` document: it parses, and it has exactly one
/// row per workload, each with every end-to-end metric in its untraced
/// result and every per-layer metric in its traced result.
pub fn validate_document(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    doc.get("meta").ok_or("'meta' missing")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("'rows' missing")?;
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("workload").and_then(Json::as_str).unwrap_or(""))
        .collect();
    if names != WORKLOADS {
        return Err(format!("rows are {names:?}, expected {WORKLOADS:?}"));
    }
    for (row, name) in rows.iter().zip(names) {
        let untraced = row
            .get("untraced")
            .ok_or(format!("{name}: untraced result missing"))?;
        validate_result(untraced, END_TO_END).map_err(|e| format!("{name} untraced: {e}"))?;
        let traced = row
            .get("traced")
            .ok_or(format!("{name}: traced result missing"))?;
        validate_result(traced, PER_LAYER).map_err(|e| format!("{name} traced: {e}"))?;
    }
    Ok(())
}
