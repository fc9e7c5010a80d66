//! The benchmark's own smoke test: every workload, at its tiny size, passes
//! its output check and prints every metric with its unit in both modes,
//! and `BENCHMARK.json` declares exactly the workloads and metrics the
//! binary knows.

use std::process::Command;

use perfbench::workloads::WORKLOADS;
use perfbench::{END_TO_END, PER_LAYER};

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

/// The result line of a tiny run.
fn result_line(workload: &str, trace: &str) -> String {
    let args = format!("--workload {workload} --seed 3 --seconds 1 --trace {trace} --tiny");
    let out = perfbench(&args.split_whitespace().collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// Assert `line` is a result carrying exactly `metrics`, each a finite
/// number with its unit; `positive` also demands every value be above
/// zero.
fn assert_metrics(line: &str, metrics: &[(&str, &str)], positive: bool) {
    assert!(line.starts_with("{\"correct\": "), "{line}");
    assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{line}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let (value, tail) = line[at + key.len()..]
            .split_once(", \"unit\": ")
            .expect("a unit follows the value");
        let v: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("{name}: {value:?}: {e}"));
        assert!(v.is_finite() && (!positive || v > 0.0), "{name} = {v}");
        assert!(
            tail.starts_with(&format!("\"{unit}\"}}")),
            "{name} unit: {tail}"
        );
    }
}

#[test]
fn every_workload_checks_out_and_reports_every_metric() {
    let mut incorrect = Vec::new();
    for w in WORKLOADS {
        for (trace, metrics, positive) in
            [("0", &END_TO_END[..], true), ("1", &PER_LAYER[..], false)]
        {
            let line = result_line(w.name, trace);
            assert_metrics(&line, metrics, positive);
            if !line.starts_with("{\"correct\": true, ") || !line.contains(", \"failed\": 0, ") {
                let head = &line[..line.find(", \"metrics\"").unwrap_or(line.len())];
                incorrect.push(format!("{} --trace {trace}: {head}", w.name));
            }
        }
    }
    assert!(
        incorrect.is_empty(),
        "runs failed their output check:\n{}",
        incorrect.join("\n")
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload linreg-ctl --seed 1 --seconds 1 --trace 2",
        "--workload linreg-ctl --seed x --seconds 1 --trace 0",
        "--workload linreg-ctl --seed 1 --trace 0",
    ] {
        let args: Vec<&str> = args.split_whitespace().collect();
        let out = perfbench(&args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn benchmark_json_declares_the_same_workloads_and_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"why\": ").count(), WORKLOADS.len());
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
