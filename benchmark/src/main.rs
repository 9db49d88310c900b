//! `bqo-benchmark`: the repository's benchmark spine (see `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! bqo-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//! bqo-benchmark run [--seed <n>] [--seconds <s>] [--smoke]
//!     all four workloads, untraced then traced, each in a fresh child
//!     process; one JSON document on stdout and in <out-dir>/result.json
//! bqo-benchmark compare <a> <b> [--manifest BENCHMARK.json]
//!     a and b: result.json files, or directories of them
//! ```

mod check;
mod compare;
mod driver;
mod json;
mod probes;
mod report;
mod source;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{RunConfig, RunOutput};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Kind;

/// Measured seconds per run when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Where results, traces and the `.bqo` files go, relative to the working
/// directory (the repository root).
const DEFAULT_OUT_DIR: &str = "benchmark/out";
/// Environment variables that would change what the engine runs; cleared
/// before anything is measured, and recorded.
const ENV_OVERRIDES: [&str; 2] = ["BQO_FORCE_SCALAR", "BQO_TEST_THREADS"];

#[derive(Debug)]
struct RunArgs {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(DEFAULT_OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Kind::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("`--seconds` takes a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".to_string()),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.smoke {
        // One pass of every kind, however short.
        parsed.seconds = 0.0;
    }
    Ok(parsed)
}

/// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &RunOutput) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One workload in this process. Prints a table to stderr, then two stdout
/// lines: the detail object and — last — the result object.
fn run_one(args: &RunArgs, kind: Kind, env_seen: &[(String, String)]) -> Result<bool, String> {
    let out = report::run_workload(&RunConfig {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    })?;
    eprintln!(
        "{} seed={} trace={} correct={} attempted={} failed={}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        out.correct,
        out.attempted,
        out.failed
    );
    for m in &out.metrics {
        eprintln!(
            "  {:<44} {:>16.6} {:<8} n={} spread={:.4}",
            m.name, m.value, m.unit, m.samples, m.spread
        );
    }
    let mut detail = match out.detail.clone() {
        Json::Obj(fields) => fields,
        _ => Vec::new(),
    };
    detail.push((
        "available_parallelism".to_string(),
        Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
    ));
    detail.push(("env_overrides_cleared".to_string(), env_json(env_seen)));
    println!(
        "{}",
        Json::obj(vec![("detail", Json::Obj(detail))]).render()
    );
    println!("{}", result_line(&out).render());
    Ok(out.correct)
}

/// The environment overrides that were set when the process started.
fn env_json(env_seen: &[(String, String)]) -> Json {
    Json::Obj(
        env_seen
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The host block every result document carries.
fn host_block(env_seen: &[(String, String)]) -> Json {
    let online_cpus = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    Json::obj(vec![
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        ("nproc", Json::Num(online_cpus as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "dev (debug assertions on: not a measurement build)"
            } else {
                "release: opt-level=3 lto=thin codegen-units=1 debug=false"
            }),
        ),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("env_overrides_cleared", env_json(env_seen)),
    ])
}

/// All four workloads, untraced then traced, each in a fresh child process
/// of this executable so one workload's memory peak (and allocator state)
/// never leaks into the next one's numbers.
fn run_all(args: &RunArgs, env_seen: &[(String, String)]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let mut entry = vec![("name".to_string(), Json::str(kind.name()))];
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", kind.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out-dir")
                .arg(&args.out_dir);
            if args.smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child; its table goes straight to our
            // stderr.
            let output = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            all_ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result = lines.next().and_then(|l| Json::parse(l).ok());
            let detail = lines.next().and_then(|l| Json::parse(l).ok());
            let (Some(result), Some(detail)) = (result, detail) else {
                return Err(format!(
                    "{} (trace {trace}) printed no result; exit {}",
                    kind.name(),
                    output.status
                ));
            };
            let section = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            let mut fields = match result {
                Json::Obj(fields) => fields,
                _ => Vec::new(),
            };
            fields.extend(
                detail
                    .get("detail")
                    .cloned()
                    .map(|d| ("detail".to_string(), d)),
            );
            entry.push((section.to_string(), Json::Obj(fields)));
        }
        workloads.push(Json::Obj(entry));
    }
    let document = Json::obj(vec![
        ("benchmark", Json::str("bqo-benchmark")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("host", host_block(env_seen)),
        ("workloads", Json::Arr(workloads)),
    ])
    .render();
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, format!("{document}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{document}");
    Ok(all_ok)
}

fn usage() -> String {
    "usage:\n  bqo-benchmark run [--workload <dss-mem|dss-file|plan-cold|serve-param>] \
     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out-dir <dir>]\n  \
     bqo-benchmark compare <a.json|dir> <b.json|dir> [--manifest <BENCHMARK.json>]"
        .to_string()
}

fn main() -> ExitCode {
    // Before any thread exists: the engine reads these lazily, and a stray
    // value would silently change which kernels every workload runs.
    let env_seen: Vec<(String, String)> = ENV_OVERRIDES
        .iter()
        .filter_map(|name| std::env::var(name).ok().map(|v| (name.to_string(), v)))
        .collect();
    for name in ENV_OVERRIDES {
        std::env::remove_var(name);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|run| match run.workload {
            Some(kind) => run_one(&run, kind, &env_seen),
            None => run_all(&run, &env_seen),
        }),
        Some("compare") => compare::main(&args[1..], Path::new("BENCHMARK.json")),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bqo-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_drivers_form() {
        let args = parse_run_args(&strings(&[
            "--workload",
            "dss-file",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some(Kind::DssFile));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 20.0, true));
        assert!(!args.smoke);
        assert_eq!(args.out_dir, PathBuf::from(DEFAULT_OUT_DIR));

        let all = parse_run_args(&strings(&["--smoke"])).unwrap();
        assert_eq!(all.workload, None);
        assert_eq!(all.seconds, 0.0);

        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_run_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program prints, with the same units, directions and bounds.
    #[test]
    fn manifest_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
        let list = |key: &str| manifest.get(key).unwrap().as_arr().unwrap().to_vec();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = report::END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
            .collect();
        assert_eq!(end_to_end, expected);
        assert!(end_to_end
            .iter()
            .any(|(n, u, b, _)| n == "setup_s" && u == "s" && b == "lower"));

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = report::PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(per_layer, expected);

        assert_eq!(
            manifest.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        let paths: Vec<Json> = list("paths");
        assert_eq!(paths, vec![Json::str("benchmark")]);
        assert!(DEFAULT_OUT_DIR.starts_with("benchmark/"));
    }
}
