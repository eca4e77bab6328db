//! The benchmark's contract with `BENCHMARK.json`: every metric it names is
//! printed, with its unit, by every workload, and traced runs make exactly
//! the calls their untraced operations make.

use angel_perfbench::metrics::{END_TO_END, PER_LAYER};
use angel_perfbench::{plan_sweep, service_mix, train_online, Opts, WORKLOADS};

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(v: &serde_json::Value) -> Vec<(String, String)> {
    v.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn registry(set: &[(&str, &str)]) -> Vec<(String, String)> {
    set.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(names_and_units(&b["end_to_end"]), registry(END_TO_END));
    assert_eq!(names_and_units(&b["per_layer"]), registry(PER_LAYER));
    let workloads: Vec<&str> = b["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Every metric of the set is in the result, with its unit and a finite
/// value; end-to-end values are never zero.
fn assert_prints(outcome: &angel_perfbench::metrics::Outcome, traced: bool) {
    assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
    let result = outcome.result_json(traced);
    assert_eq!(result["correct"].as_bool(), Some(true));
    let set = if traced { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        let m = &result["metrics"][*name];
        assert_eq!(m["unit"].as_str(), Some(*unit), "{name}");
        let v = m["value"].as_f64().unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{name} = {v}");
        if !traced {
            assert!(v > 0.0, "{name} = {v}");
        }
    }
}

#[test]
fn plan_sweep_prints_every_metric_and_traced_calls_match() {
    // Two cycles: one untraced, one traced (the run itself fails when the
    // traced cycle's call counts differ from its operations).
    assert_prints(&plan_sweep::run(&Opts::fixed(21, 2, false)), false);
    let traced = plan_sweep::run(&Opts::fixed(21, 2, true));
    assert_prints(&traced, true);
    let requests = plan_sweep::CLASSES.len() as f64;
    assert_eq!(traced.layers.get("plan.trace.calls"), requests);
    assert_eq!(traced.layers.get("trace.ops"), requests);
}

#[test]
fn train_online_prints_every_metric_and_traced_calls_match() {
    assert_prints(&train_online::run(&Opts::fixed(22, 400, false)), false);
    let traced = train_online::run(&Opts::fixed(22, 400, true));
    assert_prints(&traced, true);
    assert!(traced.layers.get("sim.runs") > 0.0);
    assert_eq!(
        traced.layers.get("sim.runs"),
        traced.layers.get("plan.lower.calls")
    );
}

#[test]
fn service_mix_prints_every_metric_and_traced_calls_match() {
    assert_prints(&service_mix::run(&Opts::fixed(23, 1, false)), false);
    let traced = service_mix::run(&Opts::fixed(23, 2, true));
    assert_prints(&traced, true);
    let deck: usize = service_mix::DECK.iter().map(|(_, n)| n).sum();
    assert_eq!(traced.layers.get("service.admission.calls"), deck as f64);
    assert_eq!(traced.layers.get("trace.ops"), deck as f64);
}
