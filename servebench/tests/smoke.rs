//! Smoke mode: every workload, untraced and traced, on tiny documents
//! with a window of a second or two. Each run must print every declared
//! metric with a valid name and unit, fail nothing, and pass its output
//! checks in every measuring process; a traced run's span file must add
//! up request by request.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use tl_obs::json::{parse, Json};

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Runs one smoke run and returns (diagnostics, result). A traced run
/// gets two seconds, four half-second slices, so that traced and
/// untraced slices alternate.
fn run(workload: &str, trace: bool, dir: &Path) -> (Json, Json) {
    std::fs::create_dir_all(dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tl-servebench"))
        .args(["--workload", workload, "--seed", "3", "--smoke"])
        .args(["--seconds", if trace { "2" } else { "1" }])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "diagnostics and result lines: {stdout}");
    let result = parse(lines[lines.len() - 1]).expect("result is JSON");
    let diagnostics = parse(lines[lines.len() - 2]).expect("diagnostics are JSON");
    (diagnostics, result)
}

fn check_result(result: &Json, declared: &[(String, String)]) {
    let keys: Vec<&str> = result
        .entries()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").and_then(Json::entries).unwrap();
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(printed, declared);
    for (name, unit) in &printed {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{unit}");
    }
}

#[derive(Default)]
struct Request {
    round_trips: u32,
    round_trip_ns: u64,
    layers: BTreeMap<String, u32>,
    layer_ns: u64,
}

/// Re-derives the traced requests from the span file: each has one round
/// trip and the layer calls the server makes for an estimate, and the
/// median of round trip minus layer sum is the reported
/// `transport.residual_us`. Untraced round trips, the baseline of
/// `trace.overhead_pct`, are interleaved with the traced ones.
fn check_trace(file: &Path, result: &Json) {
    let text = std::fs::read_to_string(file).expect("span file");
    let mut requests: BTreeMap<u64, Request> = BTreeMap::new();
    let mut children = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        assert_eq!(f.len(), 6, "{line}");
        let n = |i: usize| f[i].parse::<u64>().unwrap();
        assert!(n(5) >= n(4), "{line}");
        match f[3] {
            "request.estimate" => {
                requests.insert(n(0), Request::default());
                traced.push(n(4));
            }
            "untraced.estimate" => untraced.push(n(4)),
            _ => {}
        }
        if let Ok(parent) = f[2].parse::<u64>() {
            children.push((parent, f[3].to_string(), n(5) - n(4)));
        }
    }
    assert!(!requests.is_empty(), "traced requests recorded");
    for (parent, layer, ns) in children {
        let Some(r) = requests.get_mut(&parent) else {
            continue;
        };
        if layer == "wire.round_trip" {
            r.round_trips += 1;
            r.round_trip_ns += ns;
        } else {
            *r.layers.entry(layer).or_default() += 1;
            r.layer_ns += ns;
        }
    }
    let mut residuals = Vec::new();
    for r in requests.values() {
        assert_eq!(r.round_trips, 1);
        for layer in ["protocol.encode", "protocol.decode"] {
            assert_eq!(r.layers.get(layer), Some(&2), "{layer}");
        }
        for layer in ["twig.parse", "queue.admit", "obs.record"] {
            assert_eq!(r.layers.get(layer), Some(&1), "{layer}");
        }
        let work = ["engine.estimate", "catalog.estimate"]
            .iter()
            .filter(|l| r.layers.contains_key(**l))
            .count();
        assert_eq!(work, 1, "one engine or catalog call per request");
        residuals.push((r.round_trip_ns as i64 - r.layer_ns as i64) as f64 / 1e3);
    }
    let first_untraced = untraced.iter().min().expect("untraced slices");
    assert!(
        traced.iter().any(|t| t > first_untraced),
        "traced and untraced slices alternate"
    );
    residuals.sort_by(f64::total_cmp);
    let median = residuals[residuals.len().div_ceil(2) - 1];
    let reported = result
        .get("metrics")
        .and_then(|m| m.get("transport.residual_us"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert_eq!(reported, Some(median));
}

/// The run-level diagnostics and each measuring process's, checking that
/// the run lists one value per process for every metric and reports
/// their median (the lower one for an even count).
fn processes<'a>(diag: &'a Json, result: &Json, expected: usize) -> (&'a Json, &'a [Json]) {
    let run = diag.get("servebench").unwrap();
    assert_eq!(
        run.get("processes").and_then(Json::as_u64),
        Some(expected as u64)
    );
    for (name, values) in run.get("per_process").and_then(Json::entries).unwrap() {
        let mut v: Vec<f64> = values
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(v.len(), expected, "{name}");
        v.sort_by(f64::total_cmp);
        let reported = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(reported, Some(v[v.len().div_ceil(2) - 1]), "{name}");
    }
    let each = run.get("by_process").and_then(Json::as_arr).unwrap();
    assert_eq!(each.len(), expected);
    (run, each)
}

fn smoke(workload: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let (diag, result) = run(workload, false, &dir);
    check_result(&result, &declared("end_to_end"));
    let (run_diag, each) = processes(&diag, &result, 2);
    assert_eq!(run_diag.get("error_rate").and_then(Json::as_f64), Some(0.0));
    for p in each {
        assert!(p.get("checked_answers").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(p.get("check_mismatches").and_then(Json::as_f64), Some(0.0));
    }

    let (diag, result) = run(workload, true, &dir);
    check_result(&result, &declared("per_layer"));
    let (_, each) = processes(&diag, &result, 1);
    assert_eq!(
        each[0].get("replica_mismatches").and_then(Json::as_f64),
        Some(0.0)
    );
    check_trace(
        &dir.join(each[0].get("trace_file").and_then(Json::as_str).unwrap()),
        &result,
    );
}

#[test]
fn serve_hot_smoke() {
    smoke("serve-hot");
}

#[test]
fn serve_cold_smoke() {
    smoke("serve-cold");
}
