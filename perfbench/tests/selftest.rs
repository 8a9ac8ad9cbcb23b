//! Self-tests of the benchmark: its metric catalog, its tracer and its
//! output document.

use std::thread::sleep;
use std::time::{Duration, Instant};

use dg_bench::json::Json;
use perfbench::report::{document, result_line, validate_document, Row};
use perfbench::trace::Tracer;
use perfbench::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
    for (i, d) in all.iter().enumerate() {
        assert!(valid_name(d.name), "bad metric name '{}'", d.name);
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit '{}' of {}",
            d.unit,
            d.name
        );
        assert!(
            all[..i].iter().all(|e| e.name != d.name),
            "'{}' named twice",
            d.name
        );
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "bad workload name '{w}'");
    }
}

/// `BENCHMARK.json` lists exactly the workloads and metrics this
/// package reports, in the same order and with the same units.
#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("'{key}' missing"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let entries = doc.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(entries.len(), defs.len(), "{key} length");
        for (e, d) in entries.iter().zip(defs) {
            assert_eq!(e.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                e.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                e.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                d.name
            );
        }
    }
}

#[test]
fn spans_close_and_self_times_fit_the_traced_wall_time() {
    let wall = Instant::now();
    let mut tr = Tracer::on();
    tr.span("root", |tr| {
        sleep(Duration::from_millis(2));
        tr.span("child", |tr| {
            tr.span("grandchild", |_| sleep(Duration::from_millis(3)));
            tr.count("grandchild", 4.0);
        });
        tr.span("child", |_| sleep(Duration::from_millis(1)));
    });
    let wall_ns = wall.elapsed().as_nanos() as u64;
    tr.check(wall_ns)
        .expect("a closed, nested recording checks out");

    let own = tr.self_ns();
    assert_eq!(own.len(), 4);
    assert!(own.iter().all(|&ns| ns >= 0));
    assert!(own.iter().sum::<i64>() as u64 <= wall_ns);
    assert_eq!(tr.spans()[1].parent, Some(0));
    assert_eq!(tr.spans()[2].parent, Some(1));
    assert_eq!(tr.spans()[3].parent, Some(0));
    assert!(tr.self_s("grandchild") >= 0.003);
    assert!(tr.ns_per("grandchild") >= 0.75e6, "3 ms over 4 units");
    // The root's self time excludes both children.
    assert!(tr.self_s("root") < tr.spans()[0].end_ns.unwrap() as f64 / 1e9 - 0.004);

    let doc = Json::parse(&tr.to_json()).expect("span export parses");
    assert_eq!(
        doc.get("spans").and_then(Json::as_array).map(<[Json]>::len),
        Some(4)
    );
}

#[test]
fn an_open_span_or_a_short_wall_time_fails_the_check() {
    let mut tr = Tracer::on();
    let id = tr.open("left-open");
    assert!(tr.check(u64::MAX).unwrap_err().contains("never closed"));
    sleep(Duration::from_millis(1));
    tr.close(id);
    assert!(tr.check(u64::MAX).is_ok());
    assert!(tr.check(1).unwrap_err().contains("beyond"));
}

#[test]
fn an_inert_tracer_records_nothing() {
    let mut tr = Tracer::off();
    let v = tr.span("x", |tr| {
        tr.count("x", 1.0);
        7
    });
    assert_eq!(v, 7);
    assert!(tr.spans().is_empty());
    assert_eq!(tr.counted("x"), 0.0);
}

fn outcome(defs: &[MetricDef]) -> Outcome {
    let mut out = Outcome {
        attempted: 10,
        ..Outcome::default()
    };
    for (i, d) in defs.iter().enumerate() {
        out.set(d.name, 1.5 + i as f64);
    }
    out
}

#[test]
fn the_output_document_parses_with_one_full_row_per_workload() {
    let untraced = result_line(&outcome(END_TO_END), END_TO_END).unwrap();
    let traced = result_line(&outcome(PER_LAYER), PER_LAYER).unwrap();
    let line = Json::parse(&untraced).expect("result line parses");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let rows: Vec<Row> = WORKLOADS
        .iter()
        .map(|w| Row {
            workload: w.to_string(),
            untraced: untraced.clone(),
            traced: traced.clone(),
            digests_agree: true,
        })
        .collect();
    validate_document(&document("{}", &rows)).expect("full document validates");

    // A missing row, or a row missing a metric, is rejected.
    assert!(validate_document(&document("{}", &rows[1..])).is_err());
    let mut short = rows.clone();
    short[2].traced = short[2].untraced.clone();
    assert!(validate_document(&document("{}", &short))
        .unwrap_err()
        .contains("serve-query"));
}

#[test]
fn result_lines_reject_missing_duplicate_and_non_finite_metrics() {
    let mut out = outcome(END_TO_END);
    out.metrics.pop();
    assert!(result_line(&out, END_TO_END)
        .unwrap_err()
        .contains("not measured"));
    let mut out = outcome(END_TO_END);
    out.set(END_TO_END[0].name, 2.0);
    assert!(result_line(&out, END_TO_END).unwrap_err().contains("twice"));
    let mut out = outcome(END_TO_END);
    out.metrics[0].1 = f64::NAN;
    assert!(result_line(&out, END_TO_END).is_err());
    let mut out = outcome(END_TO_END);
    out.failed = 1;
    let line = Json::parse(&result_line(&out, END_TO_END).unwrap()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
}
