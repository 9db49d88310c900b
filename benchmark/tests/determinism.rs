//! Seed and determinism: the smoke-size run, end to end through the real
//! binary, twice under one seed and once under another.
//!
//! Under one seed every count metric must repeat bit for bit — counts are
//! what a later change may rest a claim on — and under another seed the op
//! lists and the data must differ, so `--seed` really is the input.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["dss-mem", "dss-file", "plan-cold", "serve-param"];

/// The metrics that are exact counts (or ratios of exact counts).
fn is_count_metric(name: &str) -> bool {
    (name.starts_with("exec.") && name.ends_with("_per_op"))
        || (name.starts_with("bitvector.") && name.ends_with("_per_op"))
        || matches!(
            name,
            "bitvector.eliminated_ratio"
                | "format.bytes_read_per_op"
                | "format.read_chunk_calls_per_op"
                | "format.chunks_pruned_ratio"
                | "format.read_amplification"
                | "optimizer.candidates_per_query"
                | "bqo_work_ratio"
        )
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-determinism-{tag}-{}", std::process::id()))
}

/// Runs `bqo-benchmark run --smoke --seed <seed>` and returns the document
/// it wrote.
fn smoke_run(seed: u64, tag: &str) -> Json {
    let dir = out_dir(tag);
    let output = Command::new(env!("CARGO_BIN_EXE_bqo-benchmark"))
        .args(["run", "--smoke", "--seed", &seed.to_string(), "--out-dir"])
        .arg(&dir)
        .output()
        .expect("spawn bqo-benchmark");
    assert!(
        output.status.success(),
        "smoke run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let written = std::fs::read_to_string(dir.join("result.json")).expect("result.json");
    let printed = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert_eq!(
        written.trim(),
        printed.trim(),
        "stdout and result.json agree"
    );
    for workload in WORKLOADS {
        assert!(
            dir.join(format!("trace-{workload}.json")).is_file(),
            "trace file of {workload}"
        );
    }
    let document = Json::parse(written.trim()).expect("result.json parses");
    std::fs::remove_dir_all(dir).expect("clean up");
    document
}

fn section<'a>(document: &'a Json, workload: &str, section: &str) -> &'a Json {
    document
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        })
        .and_then(|w| w.get(section))
        .unwrap_or_else(|| panic!("{workload}.{section} missing"))
}

fn counts(document: &Json, workload: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for part in ["end_to_end", "per_layer"] {
        let Some(Json::Obj(metrics)) = section(document, workload, part).get("metrics") else {
            panic!("{workload}.{part}.metrics missing");
        };
        for (name, metric) in metrics {
            if is_count_metric(name) {
                let value = metric.get("value").and_then(Json::as_f64).expect("value");
                out.push((name.clone(), value));
            }
        }
    }
    out
}

fn detail_str(document: &Json, workload: &str, key: &str) -> String {
    section(document, workload, "end_to_end")
        .get("detail")
        .and_then(|d| d.get(key))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{workload}: detail.{key} missing"))
        .to_string()
}

#[test]
fn counts_repeat_under_one_seed_and_inputs_follow_the_seed() {
    let first = smoke_run(7, "a");
    let again = smoke_run(7, "b");
    let other = smoke_run(8, "c");
    for workload in WORKLOADS {
        let (a, b) = (counts(&first, workload), counts(&again, workload));
        assert!(a.len() >= 12, "{workload}: only {} count metrics", a.len());
        for ((name, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{workload}: {name} differs under one seed: {x} vs {y}"
            );
        }
        for run in [&first, &again, &other] {
            for part in ["end_to_end", "per_layer"] {
                let s = section(run, workload, part);
                assert_eq!(s.get("correct").and_then(Json::as_bool), Some(true));
                assert_eq!(s.get("failed").and_then(Json::as_f64), Some(0.0));
                let mismatched = s.get("detail").and_then(|d| d.get("mismatched_ops"));
                assert_eq!(mismatched.and_then(Json::as_f64), Some(0.0));
            }
        }
        for key in ["op_list_digest", "answers_digest"] {
            assert_eq!(
                detail_str(&first, workload, key),
                detail_str(&again, workload, key),
                "{workload}: {key} must repeat under one seed"
            );
            assert_ne!(
                detail_str(&first, workload, key),
                detail_str(&other, workload, key),
                "{workload}: {key} must follow the seed"
            );
        }
    }
    // The layer tables discriminate even at smoke size.
    let share = |workload: &str, name: &str| {
        section(&first, workload, "per_layer")
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"))
    };
    assert_eq!(share("dss-mem", "format.share"), 0.0);
    assert!(share("dss-file", "format.share") > 0.0);
    assert_eq!(share("plan-cold", "core.cache.hit_ratio"), 0.0);
    assert!(
        share("plan-cold", "sql.share") + share("plan-cold", "core.cache.share")
            > share("plan-cold", "exec.share")
    );
    assert!(share("serve-param", "core.server.submit_us") > 0.0);
    assert_eq!(share("dss-mem", "core.server.submit_us"), 0.0);
}
