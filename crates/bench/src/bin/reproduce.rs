//! Regenerates every table and figure of the paper's evaluation section and
//! records the output in `EXPERIMENTS.md` next to the paper's numbers.
//!
//! ```text
//! cargo run -p bqo-bench --bin reproduce --release -- all
//! cargo run -p bqo-bench --bin reproduce --release -- fig2 fig8
//! BQO_SCALE=0.1 BQO_QUERIES=20 cargo run -p bqo-bench --bin reproduce --release -- fig8
//! ```
//!
//! Available experiments: `fig2`, `table2`, `table3`, `fig7`, `fig8`, `fig9`,
//! `fig10`, `table4`, `parallel_scaling`, `serving_throughput`, `scheduling`,
//! `probe_throughput`, `storage_scan`, `ablation_threshold`, `ablation_fpr`,
//! `all`.
//!
//! `probe_throughput` additionally writes the machine-readable
//! `BENCH_probe.json` (rows/sec per kernel, scalar vs vectorized) next to
//! `EXPERIMENTS.md` so later PRs have a perf trajectory to regress against.
//! `storage_scan` likewise writes `BENCH_storage.json`: it serializes the
//! TPC-DS-like tables to `.bqo` files (run with `BQO_SCALE=1` for the paper's
//! full-scale setting) and re-runs the pushdown workload out of core.
//!
//! Full (`all`) runs write the Markdown record to `EXPERIMENTS.md` in the
//! current directory. Partial runs leave the committed record alone unless
//! `BQO_EXPERIMENTS_PATH` names an explicit destination; set it to `-` to
//! skip writing entirely.

use bqo_bench::{default_query_count, default_scale, experiments, report};
use std::fmt::Write as _;

/// What the paper reports for each experiment, quoted next to our output so
/// EXPERIMENTS.md reads as a side-by-side comparison.
fn paper_reference(section: &str) -> Option<&'static str> {
    match section {
        "fig2" => Some(
            "Paper (Figure 2): on the JOB motivating query, the conventional plan \
             with post-processed bitvector filters costs about 3x the \
             bitvector-aware plan.",
        ),
        "table2" => Some(
            "Paper (Table 2 / Theorems 4.1, 5.1, 5.3): the right-deep plan space \
             grows exponentially with the relation count, yet a linear-size \
             candidate set always contains a minimum-cost plan under the \
             bitvector-aware Cout.",
        ),
        "table3" => Some(
            "Paper (Table 3): TPC-DS (24 tables, 103 queries, avg 7.7 joins), \
             JOB (21 tables, 113 queries, avg 7.9 joins) and CUSTOMER \
             (>400 tables, avg ~19 joins) — our synthetic stand-ins reproduce \
             the shapes and join counts at configurable scale.",
        ),
        "fig7" => Some(
            "Paper (Figure 7): a bitvector filter wins once it eliminates \
             roughly 5% of the probe input; the benefit grows as the \
             build-side predicate becomes more selective.",
        ),
        "fig8" => Some(
            "Paper (Figure 8): the bitvector-aware optimizer reduces total \
             workload CPU by 13-29%, with the largest wins on the low- \
             selectivity (L) group.",
        ),
        "fig9" => Some(
            "Paper (Figure 9): BQO plans shift tuples out of join operators — \
             total operator output drops by roughly a quarter, with leaf \
             output rising slightly as filters are pushed to scans.",
        ),
        "fig10" => Some(
            "Paper (Figure 10): per-query, BQO is at least as good as the \
             baseline almost everywhere, with up to ~3x improvements on the \
             most expensive queries and no significant regressions.",
        ),
        "table4" => Some(
            "Paper (Table 4 / Appendix A): executing the same plans with \
             bitvector filtering enabled reduces workload CPU to roughly \
             0.7-0.8x of the no-filter runs, with >90% of queries containing \
             at least one filter.",
        ),
        "parallel_scaling" => Some(
            "Paper (Section 6 setup): the evaluation executed inside a \
             commercial multi-core engine (SQL Server on a 2-socket server), \
             where bitvector probe work on scans and joins is spread across \
             parallel workers. This reproduction's morsel-driven executor \
             keeps rows and counters bit-identical to the serial path at \
             every thread count (tests/tests/parallel_oracle.rs); wall-clock \
             speedup depends on the hardware threads the host exposes.",
        ),
        "serving_throughput" => Some(
            "Paper (Section 6 setup): the evaluation ran inside SQL Server, a \
             commercial engine whose serving stack reuses worker threads and \
             admission-controls concurrent queries rather than spawning \
             threads per query. This reproduction's persistent WorkerPool \
             plus the admission-controlled Server front end mirror that \
             architecture; answers stay identical to fresh single-threaded \
             sessions (tests/tests/server_oracle.rs). History: until \
             2026-09-25 this section also timed a per-section scoped-spawn \
             baseline (`worker_threads(0)`); its last recorded run (1 \
             hardware thread, scale 0.1) was 321.2 vs 420.0 queries/s, the \
             persistent pool at 1.31x, after which the scoped-spawn dispatch \
             path was deleted from the engine.",
        ),
        "scheduling" => Some(
            "Paper (Section 6 setup): the evaluation ran inside SQL Server, \
             whose workload-management stack admission-controls and \
             prioritizes concurrent requests rather than serving them \
             first-come-first-served. This reproduction's Server front end \
             mirrors that: priority/deadline dispatch serves interactive \
             probes past a slow batch backlog while FIFO drains the backlog \
             first, with bit-identical answers either way \
             (tests/tests/server_oracle.rs).",
        ),
        "probe_throughput" => Some(
            "Paper (Section 6 setup): the evaluation ran inside SQL Server, \
             whose batch-mode execution probes bitmap filters over vectors of \
             rows rather than row-at-a-time. This reproduction's word-level \
             probe kernels (selection-vector batches, 64 rows per survivor \
             word) play that role; the scalar kernels remain as the \
             differential oracle and both modes are bit-identical \
             (tests/tests/kernel_oracle.rs).",
        ),
        "storage_scan" => Some(
            "Paper (Section 6 setup): the evaluation ran over on-disk TPC-DS, \
             JOB and CUSTOMER databases inside SQL Server, where scans stream \
             column segments with zone-map (segment elimination) pruning. \
             This reproduction's .bqo columnar files play that role: chunked \
             scans with per-chunk min/max zone maps prune chunks against both \
             local predicates and pushed-down bitvector filters, with answers \
             bit-identical to the in-memory tables \
             (tests/tests/storage_oracle.rs).",
        ),
        "ablation_threshold" => Some(
            "Paper (Section 6.3): the λ threshold trades filter count against \
             benefit; small thresholds keep nearly all filters, λ→1 disables \
             filtering.",
        ),
        "ablation_fpr" => Some(
            "Paper (Section 3): the analysis assumes no false positives; \
             practical Bloom filters pass a few extra tuples but never change \
             answers.",
        ),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<String> = if args.is_empty() {
        vec!["all".to_string()]
    } else {
        args
    };
    let scale = default_scale();
    let queries = default_query_count();
    let wants = |name: &str| {
        selected
            .iter()
            .any(|s| s.eq_ignore_ascii_case(name) || s.eq_ignore_ascii_case("all"))
    };

    let header = format!(
        "bitvector-aware query optimization — reproduction harness (scale {}, {} queries per workload)\n",
        scale.0, queries
    );
    println!("{header}");

    let mut doc = String::new();
    let _ = writeln!(doc, "# EXPERIMENTS — reproduce-binary output");
    let _ = writeln!(doc);
    let _ = writeln!(
        doc,
        "Generated by `cargo run -p bqo-bench --bin reproduce --release -- {}`",
        selected.join(" ")
    );
    let _ = writeln!(
        doc,
        "with scale factor {} and {} queries per workload (`BQO_SCALE` / `BQO_QUERIES`).",
        scale.0, queries
    );
    let _ = writeln!(doc);
    let _ = writeln!(
        doc,
        "Each section shows this reproduction's measurements followed by the \
         corresponding claim from the paper (Ding, Chaudhuri, Narasayya — \
         SIGMOD 2020). Wall-clock numbers depend on the machine; the logical \
         work counters are deterministic."
    );
    let _ = writeln!(doc);

    let mut record = |section: &str, text: String| {
        print!("{text}");
        let _ = writeln!(doc, "## {section}");
        let _ = writeln!(doc);
        let _ = writeln!(doc, "```text");
        let _ = write!(doc, "{}", text.trim_end_matches('\n'));
        let _ = writeln!(doc);
        let _ = writeln!(doc, "```");
        let _ = writeln!(doc);
        if let Some(reference) = paper_reference(section) {
            let _ = writeln!(doc, "> {reference}");
            let _ = writeln!(doc);
        }
    };

    if wants("fig2") {
        record(
            "fig2",
            report::render_figure2(&experiments::run_figure2(scale)),
        );
    }
    if wants("table2") {
        record("table2", report::render_table2(&experiments::run_table2()));
    }
    if wants("table3") {
        record(
            "table3",
            report::render_table3(&experiments::run_table3(scale, queries)),
        );
    }
    if wants("fig7") {
        record(
            "fig7",
            report::render_figure7(&experiments::run_figure7(scale, 3)),
        );
    }
    if wants("fig8") || wants("fig9") || wants("fig10") {
        let reports = experiments::run_workload_comparisons(scale, queries);
        if wants("fig8") {
            record("fig8", report::render_figure8(&reports));
        }
        if wants("fig9") {
            record("fig9", report::render_figure9(&reports));
        }
        if wants("fig10") {
            record("fig10", report::render_figure10(&reports, 60));
        }
    }
    if wants("table4") {
        record(
            "table4",
            report::render_table4(&experiments::run_table4(scale, queries)),
        );
    }
    if wants("parallel_scaling") {
        record(
            "parallel_scaling",
            report::render_parallel_scaling(&experiments::run_parallel_scaling(
                scale,
                queries.min(8),
            )),
        );
    }
    if wants("serving_throughput") {
        record(
            "serving_throughput",
            report::render_serving_throughput(&experiments::run_serving_throughput(
                scale,
                (queries.max(1)) * 8,
            )),
        );
    }
    if wants("scheduling") {
        record(
            "scheduling",
            report::render_scheduling(&experiments::run_scheduling(scale, 4)),
        );
    }
    if wants("probe_throughput") {
        let result = experiments::run_probe_throughput(scale);
        record("probe_throughput", report::render_probe_throughput(&result));
        let json = report::render_probe_json(&result);
        std::fs::write("BENCH_probe.json", &json).expect("write BENCH_probe.json");
        println!("wrote BENCH_probe.json");
    }
    if wants("storage_scan") {
        let result = experiments::run_storage_scan(scale, queries);
        record("storage_scan", report::render_storage_scan(&result));
        let json = report::render_storage_json(&result);
        std::fs::write("BENCH_storage.json", &json).expect("write BENCH_storage.json");
        println!("wrote BENCH_storage.json");
    }
    if wants("ablation_threshold") {
        record(
            "ablation_threshold",
            report::render_ablation_threshold(&experiments::run_ablation_threshold(scale, queries)),
        );
    }
    if wants("ablation_fpr") {
        record(
            "ablation_fpr",
            report::render_ablation_filter_kind(&experiments::run_ablation_filter_kind(
                scale, queries,
            )),
        );
    }

    let explicit_path = std::env::var("BQO_EXPERIMENTS_PATH").ok();
    let ran_all = selected.iter().any(|s| s.eq_ignore_ascii_case("all"));
    let path = explicit_path
        .clone()
        .unwrap_or_else(|| "EXPERIMENTS.md".to_string());
    if path == "-" {
        return;
    }
    if !ran_all && explicit_path.is_none() {
        // A partial run would replace the committed full record with a
        // single-section document; require an explicit path for that.
        println!(
            "partial run: not overwriting {path} (set BQO_EXPERIMENTS_PATH to record this run)"
        );
        return;
    }
    match std::fs::write(&path, &doc) {
        Ok(()) => println!("recorded results in {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
