//! `compare <a> <b>`: the regression gate. One row per (workload,
//! end-to-end metric) with both values, the ratio with its base, the bound
//! from `BENCHMARK.json` and a verdict.

use crate::json::Json;
use crate::stats::{iqr_spread, median};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between runs is wider than the bound: the runs cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against base `a`: how much worse `b` is as a share of `a` (negative
/// when better), judged against `bound` unless `spread` exceeds it.
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let worse_by = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One side of the comparison: the result documents of one commit.
struct Side {
    documents: Vec<Json>,
}

impl Side {
    /// `path` is one `result.json`, or a directory holding several (one per
    /// run of the A/B recipe).
    fn load(path: &Path) -> Result<Side, String> {
        let mut files = Vec::new();
        if path.is_dir() {
            for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
                let file = entry.map_err(|e| e.to_string())?.path();
                if file.extension().is_some_and(|ext| ext == "json") {
                    files.push(file);
                }
            }
            files.sort();
        } else {
            files.push(path.to_path_buf());
        }
        let documents = files
            .iter()
            .map(|file| {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
                Json::parse(text.trim()).map_err(|e| format!("{}: {e}", file.display()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if documents.is_empty() {
            return Err(format!("{}: no result documents", path.display()));
        }
        Ok(Side { documents })
    }

    fn end_to_end<'a>(document: &'a Json, workload: &str) -> Option<&'a Json> {
        document
            .get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
            .get("end_to_end")
    }

    /// The metric's value in every document that has it.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.documents
            .iter()
            .filter_map(|d| {
                Side::end_to_end(d, workload)?
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    /// Spread between the documents' values; with a single document, the
    /// spread that run recorded between its own passes.
    fn spread(&self, workload: &str, metric: &str) -> f64 {
        let values = self.values(workload, metric);
        if values.len() >= 2 {
            return iqr_spread(&values);
        }
        self.documents
            .first()
            .and_then(|d| {
                Side::end_to_end(d, workload)?
                    .get("detail")?
                    .get("spread")?
                    .get(metric)?
                    .as_f64()
            })
            .unwrap_or(0.0)
    }

    /// Whether every document's run of `workload` was correct and failed no
    /// op.
    fn clean(&self, workload: &str) -> bool {
        self.documents.iter().all(|d| {
            Side::end_to_end(d, workload).is_some_and(|e| {
                e.get("correct").and_then(Json::as_bool) == Some(true)
                    && e.get("failed").and_then(Json::as_f64) == Some(0.0)
            })
        })
    }
}

pub fn main(args: &[String], default_manifest: &Path) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut manifest = default_manifest.to_path_buf();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--manifest" {
            manifest = it.next().ok_or("`--manifest` needs a path")?.into();
        } else {
            paths.push(arg);
        }
    }
    let [a, b] = paths[..] else {
        return Err("compare takes two results: <a> <b>".to_string());
    };
    let (a, b) = (Side::load(Path::new(a))?, Side::load(Path::new(b))?);
    let manifest_text =
        std::fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let manifest = Json::parse(&manifest_text).map_err(|e| format!("manifest: {e}"))?;
    let names = |key: &str| -> Vec<&Json> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .map(|items| items.iter().collect())
            .unwrap_or_default()
    };

    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    let mut regressed = false;
    for workload in names("workloads") {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("");
        for metric in names("end_to_end") {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (name, unit) = (field("name"), field("unit"));
            let (va, vb) = (a.values(workload, name), b.values(workload, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<12} {name:<16} missing on one side  regressed");
                regressed = true;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let spread = a.spread(workload, name).max(b.spread(workload, name));
            let verdict = judge(ma, mb, field("better") == "higher", bound, spread);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{workload:<12} {name:<16} {ma:>14.4} {mb:>14.4} {:>8.4} {bound:>7.3} {spread:>7.4}  {} ({unit}, n={}/{})",
                if ma == 0.0 { 0.0 } else { mb / ma },
                verdict.label(),
                va.len(),
                vb.len(),
            );
        }
        if !b.clean(workload) {
            println!("{workload:<12} failed or mismatched ops on side b  regressed");
            regressed = true;
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(100.0, 109.0, false, 0.10, 0.01), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, false, 0.10, 0.01), Verdict::Regressed);
        assert_eq!(judge(100.0, 50.0, false, 0.10, 0.01), Verdict::Ok);
        // Higher is better.
        assert_eq!(judge(100.0, 91.0, true, 0.10, 0.01), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, true, 0.10, 0.01), Verdict::Regressed);
        assert_eq!(judge(100.0, 150.0, true, 0.10, 0.01), Verdict::Ok);
        // Noise wider than the bound: neither ok nor regressed.
        assert_eq!(judge(100.0, 101.0, false, 0.10, 0.2), Verdict::Unresolved);
        assert_eq!(judge(100.0, 150.0, false, 0.10, 0.2), Verdict::Unresolved);
    }

    fn document(qps: f64, spread: f64, correct: bool) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":[{{"name":"dss-mem","end_to_end":{{"correct":{correct},"failed":0,
            "metrics":{{"throughput_qps":{{"value":{qps},"unit":"ops/s"}}}},
            "detail":{{"spread":{{"throughput_qps":{spread}}}}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn sides_take_medians_and_spreads_across_documents() {
        let single = Side {
            documents: vec![document(100.0, 0.03, true)],
        };
        assert_eq!(single.values("dss-mem", "throughput_qps"), vec![100.0]);
        assert_eq!(single.spread("dss-mem", "throughput_qps"), 0.03);
        assert!(single.clean("dss-mem"));
        assert!(single.values("dss-file", "throughput_qps").is_empty());

        let many = Side {
            documents: [90.0, 100.0, 110.0, 120.0]
                .into_iter()
                .map(|qps| document(qps, 0.0, qps < 115.0))
                .collect(),
        };
        assert_eq!(median(&many.values("dss-mem", "throughput_qps")), 105.0);
        assert!(many.spread("dss-mem", "throughput_qps") > 0.2);
        assert!(!many.clean("dss-mem"));
    }
}
