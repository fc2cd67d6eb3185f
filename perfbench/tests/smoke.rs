//! A tiny-size run of every workload, traced and untraced, through the
//! same binary and code path the benchmark runs: each must pass its
//! correctness gate and print every catalogued metric as its last line.

use std::path::PathBuf;
use std::process::Command;

use pgraph::json::Json;

fn catalogue(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "40"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(result.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics in {stdout}");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(matches!(
                m.get("value"),
                Some(Json::Int(_) | Json::Float(_))
            ));
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
            )
        })
        .collect();
    let key = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(printed, catalogue(key), "{workload}");
    if !trace {
        for (name, m) in metrics {
            let value = m.get("value").and_then(|v| match v {
                Json::Int(i) => Some(*i as f64),
                Json::Float(f) => Some(*f),
                _ => None,
            });
            assert!(value.unwrap() > 0.0, "{workload}: {name} is not positive");
        }
    }
}

#[test]
fn validate_bulk_smoke() {
    smoke("validate-bulk", false);
    smoke("validate-bulk", true);
}

#[test]
fn session_durable_smoke() {
    smoke("session-durable", false);
    smoke("session-durable", true);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
