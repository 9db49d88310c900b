//! Runs one workload and turns what it measured into named metrics.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric tables;
//! `BENCHMARK.json` declares the same names, units and directions (a test
//! keeps them equal).

use crate::check::hash_bytes;
use crate::driver::{self, Counts, Env, PassKind, PassResult};
use crate::json::Json;
use crate::probes::{self, FILTER_SHAPES};
use crate::stats::{iqr_spread, median, quantile_sorted, range_spread, supported_percentile};
use crate::trace::{self, LayerTimes, Span};
use crate::workloads::{Kind, Sizes};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `(name, unit, better, regression bound)`. The three timing bounds are as
/// wide as the acceptance driver allows: it also requires the spread between
/// ten runs to stay inside the bound, and on the host this was defined on —
/// whose memory-bound speed wanders by ±25 % over seconds to minutes — that
/// spread is 4–12 %, and above 20 % in a bad stretch (see README, *Measured
/// spread*).
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("throughput_qps", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("bqo_work_ratio", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`; the `bitvector.*_mrows_per_s` metrics come one
/// per filter shape, in [`FILTER_SHAPES`] order.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("sql.parse_us", "us", "lower"),
    ("sql.bind_us", "us", "lower"),
    ("sql.share", "ratio", "lower"),
    ("plan.fingerprint_us", "us", "lower"),
    ("plan.to_graph_us", "us", "lower"),
    ("plan.pushdown_us", "us", "lower"),
    ("optimizer.bqo_optimize_us", "us", "lower"),
    ("optimizer.baseline_optimize_us", "us", "lower"),
    ("optimizer.bqo_over_baseline_ratio", "ratio", "lower"),
    ("optimizer.candidates_per_query", "count", "lower"),
    ("core.cache.prepare_us", "us", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.reoptimizations_per_op", "count", "lower"),
    ("core.cache.share", "ratio", "lower"),
    ("core.server.submit_us", "us", "lower"),
    ("core.server.queue_wait_ms_p50", "ms", "lower"),
    ("core.server.queue_wait_ms_p95", "ms", "lower"),
    ("core.server.overhead_ms", "ms", "lower"),
    ("core.server.rejected_per_op", "count", "lower"),
    ("exec.build_pipeline_us", "us", "lower"),
    ("exec.open_ms", "ms", "lower"),
    ("exec.stream_ms", "ms", "lower"),
    ("exec.close_us", "us", "lower"),
    ("exec.collect_us", "us", "lower"),
    ("exec.release_us", "us", "lower"),
    ("exec.share", "ratio", "lower"),
    ("exec.tuples_per_op", "count", "lower"),
    ("exec.build_rows_per_op", "count", "lower"),
    ("exec.probe_rows_per_op", "count", "lower"),
    ("exec.logical_work_per_op", "count", "lower"),
    ("exec.output_rows_per_op", "count", "lower"),
    ("bitvector.filters_created_per_op", "count", "lower"),
    ("bitvector.probed_per_op", "count", "lower"),
    ("bitvector.eliminated_ratio", "ratio", "higher"),
    (
        "bitvector.probe_mrows_per_s.bitmap_dense",
        "Mrows/s",
        "higher",
    ),
    (
        "bitvector.probe_mrows_per_s.bitmap_sparse",
        "Mrows/s",
        "higher",
    ),
    ("bitvector.probe_mrows_per_s.exact", "Mrows/s", "higher"),
    ("bitvector.probe_mrows_per_s.bloom", "Mrows/s", "higher"),
    (
        "bitvector.probe_mrows_per_s.blocked_bloom",
        "Mrows/s",
        "higher",
    ),
    (
        "bitvector.build_mrows_per_s.bitmap_dense",
        "Mrows/s",
        "higher",
    ),
    (
        "bitvector.build_mrows_per_s.bitmap_sparse",
        "Mrows/s",
        "higher",
    ),
    ("bitvector.build_mrows_per_s.exact", "Mrows/s", "higher"),
    ("bitvector.build_mrows_per_s.bloom", "Mrows/s", "higher"),
    (
        "bitvector.build_mrows_per_s.blocked_bloom",
        "Mrows/s",
        "higher",
    ),
    ("format.read_chunk_us", "us", "lower"),
    ("format.read_chunk_calls_per_op", "count", "lower"),
    ("format.bytes_read_per_op", "bytes", "lower"),
    ("format.read_amplification", "ratio", "lower"),
    ("format.chunks_pruned_ratio", "ratio", "higher"),
    ("format.share", "ratio", "lower"),
    ("format.write_mb_per_s", "MiB/s", "higher"),
    ("format.file_bytes_per_table_byte", "ratio", "lower"),
    ("storage.generate_mrows_per_s", "Mrows/s", "higher"),
    ("storage.catalog_mb", "MiB", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "higher"),
    ("bench.pass_spread", "ratio", "lower"),
    ("bench.calib_ms", "ms", "lower"),
    ("bench.untraced_throughput_qps", "ops/s", "higher"),
];

/// FNV-1a offset basis: where the input digests start.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Observations the value summarizes.
    pub samples: usize,
    /// Spread of the value within this run, as a share of it (`0` for exact
    /// counts and single observations).
    pub spread: f64,
}

#[derive(Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: sample counts, spreads, the host.
    pub detail: Json,
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn per_op(total: u64, ops: usize) -> f64 {
    total as f64 / ops.max(1) as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Sum of plan-cache `(hits, misses, reoptimizations)` over the engines.
fn cache_counters(env: &Env) -> (u64, u64, u64) {
    env.engines.iter().fold((0, 0, 0), |acc, engine| {
        let stats = engine.plan_cache().cache_stats();
        (
            acc.0 + stats.hits,
            acc.1 + stats.misses,
            acc.2 + stats.reoptimizations,
        )
    })
}

struct Collector {
    table: Vec<(&'static str, &'static str)>,
    metrics: Vec<Metric>,
}

impl Collector {
    fn push(&mut self, name: &str, value: f64, samples: usize, spread: f64) {
        let unit = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the metric table"))
            .1;
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            spread,
        });
    }

    /// Median of `samples` scaled by `scale`.
    fn push_median(&mut self, name: &str, samples: &[f64], scale: f64) {
        self.push(name, median(samples) * scale, samples.len(), 0.0);
    }
}

/// Sets the workload up, checks its answers, measures it for
/// `config.seconds` and derives the end-to-end metrics (untraced run) or the
/// per-layer metrics (traced run).
pub fn run_workload(config: &RunConfig) -> Result<RunOutput, String> {
    let sizes = if config.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("{}: {e}", config.out_dir.display()))?;
    let calib_before = probes::calibration_ms();

    let repeats = if config.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..repeats {
        // The previous set-up's server, pool threads and files go first.
        drop(env.take());
        let started = Instant::now();
        env = Some(driver::setup(
            config.kind,
            sizes,
            config.seed,
            config.trace,
            &config.out_dir,
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    // Sampled here, not at exit: up to this point the process has generated
    // the data, built the engines and run every op once on one client —
    // the same allocations in the same order on every run. After it come the
    // reference plans (not the system under test) and, on `serve-param`,
    // concurrent passes whose peak depends on how the threads interleave
    // (measured: 42–72 MiB for one seed).
    let rss_after_setup = peak_rss_mb();

    let reference = driver::reference(&env.inputs)?;
    let ops = &env.inputs.ops;
    let mismatched = env
        .warmup
        .iter()
        .zip(&reference.answers)
        .filter(|(seen, expected)| seen.answer != **expected)
        .count() as u64;
    let expected_rows: Vec<u64> = reference.answers.iter().map(|a| a.rows).collect();

    let traced_kind = if env.server.is_some() {
        PassKind::ServerTraced
    } else {
        PassKind::Traced
    };
    let cycle: &[PassKind] = match (config.trace, env.server.is_some()) {
        (false, _) => &[PassKind::Untraced],
        (true, false) => &[PassKind::Untraced, PassKind::Traced],
        (true, true) => &[PassKind::Untraced, PassKind::ServerTraced, PassKind::Traced],
    };
    let cache_before = cache_counters(&env);
    let passes = env.measure(config.seconds, cycle, &expected_rows);
    let cache_after = cache_counters(&env);
    let calib_after = probes::calibration_ms();

    let attempted: u64 = passes.iter().map(|p| p.ops() as u64).sum();
    let rejected: u64 = passes.iter().map(|p| p.rejected).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum::<u64>() + rejected;
    let wrong_rows: u64 = passes.iter().map(|p| p.wrong_rows).sum();
    let of_kind = |kind: PassKind| passes.iter().filter(move |p| p.kind == kind);
    let untraced: Vec<&PassResult> = of_kind(PassKind::Untraced).collect();
    let qps: Vec<f64> = untraced.iter().map(|p| p.throughput_qps()).collect();

    let mut warm = Counts::default();
    for seen in &env.warmup {
        warm.add(&seen.counts);
    }
    // Digests of the inputs, so a test (or a reader of two result files) can
    // tell "same seed, same inputs" from "other seed, other inputs".
    let op_list_digest = ops.iter().fold(DIGEST_SEED, |h, op| {
        let query = &env.inputs.queries[op.query];
        hash_bytes(
            h,
            format!("{}|{:?}|{}", query.sql, query.params, op.tenant).as_bytes(),
        )
    });
    let answers_digest = reference.answers.iter().fold(DIGEST_SEED, |h, a| {
        hash_bytes(
            hash_bytes(h, &a.rows.to_le_bytes()),
            &a.checksum.to_le_bytes(),
        )
    });

    let mut detail = vec![
        ("workload", Json::str(config.kind.name())),
        ("seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds)),
        ("trace", Json::Bool(config.trace)),
        ("smoke", Json::Bool(config.smoke)),
        ("clients", Json::Num(env.inputs.clients as f64)),
        ("ops_per_pass", Json::Num(ops.len() as f64)),
        (
            "distinct_queries",
            Json::Num(env.inputs.queries.len() as f64),
        ),
        ("passes", Json::Num(passes.len() as f64)),
        (
            "mismatched_ops",
            Json::Num((mismatched + wrong_rows) as f64),
        ),
        (
            "failed_ops_ratio",
            Json::Num(ratio(failed as f64, attempted as f64)),
        ),
        (
            "op_list_digest",
            Json::str(format!("{op_list_digest:016x}")),
        ),
        (
            "answers_digest",
            Json::str(format!("{answers_digest:016x}")),
        ),
    ];

    let mut out = Collector {
        table: if config.trace {
            PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)).collect()
        } else {
            END_TO_END.iter().map(|&(n, unit, ..)| (n, unit)).collect()
        },
        metrics: Vec::new(),
    };

    if !config.trace {
        // Percentiles are taken per pass (every pass runs the same op list,
        // so each has the whole latency distribution) and the median over
        // passes is reported. Pooling the samples first is far less steady:
        // with N distinct queries a pooled percentile sits on the boundary
        // between two queries' sample clusters whenever q·N is whole, and
        // flips between them from run to run.
        let samples: usize = untraced.iter().map(|p| p.ops()).sum();
        let tail = supported_percentile(samples, 0.95);
        let sorted: Vec<Vec<f64>> = untraced
            .iter()
            .map(|p| {
                let mut latencies = p.latencies_ms.clone();
                latencies.sort_by(f64::total_cmp);
                latencies
            })
            .collect();
        let per_pass =
            |q: f64| -> Vec<f64> { sorted.iter().map(|s| quantile_sorted(s, q)).collect() };
        let (p50, p_tail) = (per_pass(0.5), per_pass(tail));
        out.push("throughput_qps", median(&qps), qps.len(), iqr_spread(&qps));
        out.push("latency_p50_ms", median(&p50), samples, iqr_spread(&p50));
        out.push(
            "latency_p95_ms",
            median(&p_tail),
            samples,
            iqr_spread(&p_tail),
        );
        out.push(
            "bqo_work_ratio",
            ratio(reference.bqo_work as f64, reference.baseline_work as f64),
            env.inputs.queries.len(),
            0.0,
        );
        out.push("peak_rss_mb", rss_after_setup, 1, 0.0);
        out.push(
            "setup_s",
            median(&setup_s),
            setup_s.len(),
            range_spread(&setup_s),
        );
        let list = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        detail.push(("pass_qps", list(&qps)));
        detail.push(("pass_p50_ms", list(&p50)));
        detail.push(("pass_tail_ms", list(&p_tail)));
        // Median latency of every distinct query, in `queries` order: the
        // per-query view a regression hunt starts from.
        let mut by_query = vec![Vec::new(); env.inputs.queries.len()];
        for pass in &untraced {
            for (&query, &ms) in pass.queries.iter().zip(&pass.latencies_ms) {
                by_query[query].push(ms);
            }
        }
        let per_query: Vec<f64> = by_query.iter().map(|ms| median(ms)).collect();
        detail.push(("per_query_p50_ms", list(&per_query)));
        detail.push(("latency_tail_percentile", Json::Num(tail)));
        detail.push(("pass_spread", Json::Num(range_spread(&qps))));
    } else {
        let spans_of = |kind: PassKind| -> Vec<Span> {
            of_kind(kind)
                .flat_map(|p| p.spans.iter().cloned())
                .collect()
        };
        let direct = spans_of(PassKind::Traced);
        let served_spans = spans_of(PassKind::ServerTraced);
        let layers = LayerTimes::from_spans(&direct);
        let span_us = |out: &mut Collector, metric: &str, span: &str, scale: f64| {
            out.push_median(metric, &trace::durations_ns(&direct, span), scale);
        };

        span_us(&mut out, "sql.parse_us", "sql.parse", 1e-3);
        span_us(&mut out, "sql.bind_us", "sql.bind", 1e-3);
        out.push("sql.share", layers.share("sql"), direct.len(), 0.0);

        let plan = probes::plan_probes(&env.inputs)?;
        out.push_median("plan.fingerprint_us", &plan.fingerprint_us, 1.0);
        out.push_median("plan.to_graph_us", &plan.to_graph_us, 1.0);
        out.push_median("plan.pushdown_us", &plan.pushdown_us, 1.0);
        out.push_median("optimizer.bqo_optimize_us", &plan.bqo_optimize_us, 1.0);
        out.push_median(
            "optimizer.baseline_optimize_us",
            &plan.baseline_optimize_us,
            1.0,
        );
        out.push(
            "optimizer.bqo_over_baseline_ratio",
            ratio(
                plan.bqo_optimize_us.iter().sum(),
                plan.baseline_optimize_us.iter().sum(),
            ),
            plan.bqo_optimize_us.len(),
            0.0,
        );
        out.push(
            "optimizer.candidates_per_query",
            per_op(plan.candidates.iter().sum(), plan.candidates.len()),
            plan.candidates.len(),
            0.0,
        );

        let (hits, misses, reopts) = (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
            cache_after.2 - cache_before.2,
        );
        span_us(
            &mut out,
            "core.cache.prepare_us",
            "core.cache.prepare",
            1e-3,
        );
        out.push(
            "core.cache.hit_ratio",
            ratio(hits as f64, (hits + misses + reopts) as f64),
            attempted as usize,
            0.0,
        );
        out.push(
            "core.cache.reoptimizations_per_op",
            per_op(reopts, attempted as usize),
            attempted as usize,
            0.0,
        );
        out.push(
            "core.cache.share",
            layers.share("core.cache"),
            direct.len(),
            0.0,
        );

        let served: Vec<_> = of_kind(PassKind::ServerTraced)
            .flat_map(|p| p.served.iter().copied())
            .collect();
        let mut queue_ms: Vec<f64> = served.iter().map(|s| s.queue_wait_ms).collect();
        queue_ms.sort_by(f64::total_cmp);
        let submit_us: Vec<f64> = served.iter().map(|s| s.submit_us).collect();
        let overhead_ms: Vec<f64> = served.iter().map(|s| s.overhead_ms).collect();
        out.push_median("core.server.submit_us", &submit_us, 1.0);
        out.push(
            "core.server.queue_wait_ms_p50",
            quantile_sorted(&queue_ms, 0.5),
            queue_ms.len(),
            0.0,
        );
        out.push(
            "core.server.queue_wait_ms_p95",
            quantile_sorted(&queue_ms, supported_percentile(queue_ms.len(), 0.95)),
            queue_ms.len(),
            0.0,
        );
        out.push_median("core.server.overhead_ms", &overhead_ms, 1.0);
        out.push(
            "core.server.rejected_per_op",
            per_op(rejected, attempted as usize),
            attempted as usize,
            0.0,
        );

        span_us(
            &mut out,
            "exec.build_pipeline_us",
            "exec.build_pipeline",
            1e-3,
        );
        span_us(&mut out, "exec.open_ms", "exec.open", 1e-6);
        span_us(&mut out, "exec.stream_ms", "exec.stream", 1e-6);
        span_us(&mut out, "exec.close_us", "exec.close", 1e-3);
        span_us(&mut out, "exec.collect_us", "exec.collect", 1e-3);
        span_us(&mut out, "exec.release_us", "exec.release", 1e-3);
        out.push("exec.share", layers.share("exec"), direct.len(), 0.0);

        // Exact counts come from the single-client warm-up pass, which runs
        // every distinct query once, in query order, and so repeats bit for
        // bit under one seed.
        let n = ops.len();
        for (name, total) in [
            ("exec.tuples_per_op", warm.tuples),
            ("exec.build_rows_per_op", warm.build_rows),
            ("exec.probe_rows_per_op", warm.probe_rows),
            ("exec.logical_work_per_op", warm.logical_work),
            ("exec.output_rows_per_op", warm.output_rows),
            ("bitvector.filters_created_per_op", warm.filters_created),
            ("bitvector.probed_per_op", warm.probed),
        ] {
            out.push(name, per_op(total, n), n, 0.0);
        }
        out.push(
            "bitvector.eliminated_ratio",
            ratio(warm.eliminated as f64, warm.probed as f64),
            n,
            0.0,
        );
        let kernels = probes::kernel_probes(config.seed);
        for (shape, probe) in FILTER_SHAPES.iter().zip(&kernels) {
            out.push(
                &format!("bitvector.probe_mrows_per_s.{shape}"),
                probe.probe_mrows_per_s,
                1,
                0.0,
            );
        }
        for (shape, probe) in FILTER_SHAPES.iter().zip(&kernels) {
            out.push(
                &format!("bitvector.build_mrows_per_s.{shape}"),
                probe.build_mrows_per_s,
                1,
                0.0,
            );
        }

        span_us(&mut out, "format.read_chunk_us", "format.read_chunk", 1e-3);
        out.push(
            "format.read_chunk_calls_per_op",
            per_op(warm.chunks_read, n),
            n,
            0.0,
        );
        out.push(
            "format.bytes_read_per_op",
            per_op(warm.bytes_read, n),
            n,
            0.0,
        );
        // Bytes one pass over the op list reads ÷ bytes on disk.
        out.push(
            "format.read_amplification",
            ratio(warm.bytes_read as f64, env.files.file_bytes as f64),
            n,
            0.0,
        );
        out.push(
            "format.chunks_pruned_ratio",
            ratio(
                warm.chunks_pruned as f64,
                (warm.chunks_read + warm.chunks_pruned) as f64,
            ),
            n,
            0.0,
        );
        out.push("format.share", layers.share("format"), direct.len(), 0.0);
        let mib = 1024.0 * 1024.0;
        out.push(
            "format.write_mb_per_s",
            ratio(env.files.file_bytes as f64 / mib, env.files.write_s),
            1,
            0.0,
        );
        out.push(
            "format.file_bytes_per_table_byte",
            ratio(env.files.file_bytes as f64, env.files.table_bytes as f64),
            1,
            0.0,
        );
        out.push(
            "storage.generate_mrows_per_s",
            ratio(
                env.inputs.rows_generated as f64 / 1e6,
                env.inputs.generate_s,
            ),
            1,
            0.0,
        );
        out.push(
            "storage.catalog_mb",
            env.inputs.catalog_bytes() as f64 / mib,
            1,
            0.0,
        );

        let traced_qps: Vec<f64> = of_kind(traced_kind).map(|p| p.throughput_qps()).collect();
        out.push(
            "bench.trace_overhead_ratio",
            ratio(median(&traced_qps), median(&qps)),
            traced_qps.len(),
            0.0,
        );
        out.push("bench.pass_spread", range_spread(&qps), qps.len(), 0.0);
        out.push(
            "bench.calib_ms",
            median(&[calib_before, calib_after]),
            2,
            0.0,
        );
        out.push(
            "bench.untraced_throughput_qps",
            median(&qps),
            qps.len(),
            iqr_spread(&qps),
        );

        let mut spans = direct;
        spans.extend(served_spans);
        let path = trace_path(&config.out_dir, config.kind);
        trace::write_trace(&path, config.kind.name(), config.seed, &spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        detail.push(("trace_file", Json::str(path.display().to_string())));
        detail.push(("spans", Json::Num(spans.len() as f64)));
        detail.push(("op_self_share", Json::Num(layers.share(trace::OP_SPAN))));
    }

    detail.push((
        "samples",
        Json::Obj(
            out.metrics
                .iter()
                .map(|m| (m.name.clone(), Json::Num(m.samples as f64)))
                .collect(),
        ),
    ));
    detail.push((
        "spread",
        Json::Obj(
            out.metrics
                .iter()
                .map(|m| (m.name.clone(), Json::Num(m.spread)))
                .collect(),
        ),
    ));
    Ok(RunOutput {
        correct: mismatched == 0 && wrong_rows == 0,
        attempted,
        failed,
        metrics: out.metrics,
        detail: Json::obj(detail),
    })
}

pub fn trace_path(out_dir: &Path, kind: Kind) -> PathBuf {
    out_dir.join(format!("trace-{}.json", kind.name()))
}
