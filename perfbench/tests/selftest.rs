//! Tiny-size runs of every workload, untraced and traced: every
//! metric `BENCHMARK.json` names is emitted with its unit, every name
//! is legal, every check passes and the result line parses.

use cim_metrics::jsonval::JsonValue;
use perfbench::report::{valid_name, Report};
use perfbench::{per_layer_names, run, Options, Sizes, Workload};

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of the spec.
fn listed(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// A metric name without its `.wN` width suffix.
fn base(name: &str) -> &str {
    match name.rsplit_once(".w") {
        Some((head, tail)) if tail.chars().all(|c| c.is_ascii_digit()) => head,
        _ => name,
    }
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
    };
    let mut cold_setup = || {
        let mut report = Report::default();
        let setup_s = perfbench::setup_only(&opts, &mut report);
        if report.correct() {
            Ok(setup_s)
        } else {
            Err("set-up failed".to_string())
        }
    };
    let report = run(&opts, &mut cold_setup);
    assert!(
        report.correct(),
        "{} trace={trace}: {} of {} checks failed",
        workload.name(),
        report.failed,
        report.attempted
    );
    report
}

/// The result line parses and has exactly the contract's keys.
fn assert_result_line(report: &Report) {
    let line = report.json_line();
    let parsed = JsonValue::parse(&line).expect("result line parses");
    let keys: Vec<&str> = parsed
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        parsed.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    let metrics = parsed
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object");
    assert_eq!(metrics.len(), report.metrics.len());
    for (name, m) in metrics {
        assert!(valid_name(name), "{name}");
        assert!(
            m.get("value")
                .and_then(JsonValue::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert!(
            m.get("unit").and_then(JsonValue::as_str).is_some(),
            "{name}"
        );
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    let expected = listed(&spec(), "end_to_end");
    for workload in Workload::ALL {
        let report = tiny(workload, false);
        let got: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(got, expected, "{}", workload.name());
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{} {} is not positive",
                workload.name(),
                m.name
            );
        }
        assert_result_line(&report);
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let listed = listed(&spec(), "per_layer");
    for workload in Workload::ALL {
        let report = tiny(workload, true);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            per_layer_names(&Sizes::tiny()),
            "{}",
            workload.name()
        );
        for m in &report.metrics {
            let unit = listed
                .iter()
                .find(|(n, _)| base(n) == base(&m.name))
                .map(|(_, u)| u.as_str());
            assert_eq!(unit, Some(m.unit), "{}", m.name);
        }
        assert_eq!(report.get("core.progcache.timed_misses"), Some(0.0));
        assert_result_line(&report);
    }
}

#[test]
fn benchmark_json_lists_the_full_size_per_layer_metrics() {
    let listed: Vec<String> = listed(&spec(), "per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(listed, per_layer_names(&Sizes::full()));
}
