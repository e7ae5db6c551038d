//! The benchmark binary at a tiny SCALE: every name `BENCHMARK.json`
//! declares is printed with its unit, and the program's deterministic
//! counts repeat exactly for one seed and move with another.

use std::collections::BTreeMap;
use std::process::Command;

use sunbfs::common::JsonValue;

/// `(correct, name -> (value, unit))` from one run's last output line.
fn run(workload: &str, seed: u64, trace: bool) -> (bool, BTreeMap<String, (f64, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "2", "--scale", "10"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = JsonValue::parse(stdout.lines().last().expect("a result line")).unwrap();
    let keys: Vec<&str> = match &last {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let JsonValue::Object(metrics) = last.get("metrics").unwrap() else {
        panic!("metrics is not an object")
    };
    let metrics = metrics
        .iter()
        .map(|(k, v)| {
            let value = match v.get("value") {
                Some(JsonValue::Float(x)) => *x,
                other => panic!("{k}: value {other:?}"),
            };
            let unit = v
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string();
            (k.clone(), (value, unit))
        })
        .collect();
    assert!(out.status.success(), "{workload} failed");
    (last.get("correct") == Some(&JsonValue::Bool(true)), metrics)
}

fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.get(section)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for w in workloads() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (correct, metrics) = run(&w, 1, trace);
            assert!(correct, "{w} trace={trace} failed a check");
            let printed: BTreeMap<String, String> = metrics
                .into_iter()
                .map(|(k, (_, unit))| (k, unit))
                .collect();
            assert_eq!(printed, declared(section), "{w} trace={trace}");
        }
    }
}

/// Counts the program computes deterministically from its inputs.
fn counts(workload: &str, seed: u64) -> Vec<(String, f64)> {
    let deterministic = |k: &str| {
        k.starts_with("net.")
            || k.starts_with("model.")
            || k == "core.engine.iterations_per_bfs"
            || k == "mutate.compactions"
            || k == "mutate.repair_scanned_edges"
    };
    run(workload, seed, true)
        .1
        .into_iter()
        .filter(|(k, _)| deterministic(k))
        .map(|(k, (v, _))| (k, v))
        .collect()
}

#[test]
fn deterministic_counts_repeat_for_a_seed_and_move_with_another() {
    for w in ["graph500", "live_update"] {
        let a = counts(w, 5);
        assert_eq!(
            a,
            counts(w, 5),
            "{w}: counts differ between two runs of one seed"
        );
        let b = counts(w, 6);
        let moved = a
            .iter()
            .zip(&b)
            .filter(|((_, x), (_, y))| *x != 0.0 && x != y)
            .count();
        assert!(moved > 0, "{w}: no count changed with the seed: {a:?}");
    }
}
