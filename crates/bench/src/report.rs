//! Plain-text rendering of the experiment results, mirroring how the paper
//! presents them.
//!
//! Every section has a `render_*` function returning the text; the
//! `reproduce` binary uses it both for stdout and for the EXPERIMENTS.md
//! record.

use crate::experiments::{
    Figure2Result, Figure7Point, FilterKindAblationRow, Table2Row, ThresholdAblationRow,
};
use bqo_core::experiment::{BitvectorEffectReport, WorkloadReport};
use bqo_core::workloads::WorkloadStats;
use std::fmt::Write;

/// Renders the Figure 2 motivating example.
pub fn render_figure2(result: &Figure2Result) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2 — motivating example (movie_keyword ⋈ title ⋈ keyword)"
    );
    let _ = writeln!(
        out,
        "{:<42} {:<34} {:>14} {:>14} {:>10}",
        "plan", "join order", "estimated Cout", "executed work", "wall ms"
    );
    for p in &result.plans {
        let _ = writeln!(
            out,
            "{:<42} {:<34} {:>14.0} {:>14} {:>10.2}",
            p.label,
            p.order,
            p.estimated_cout,
            p.executed_work,
            p.elapsed_secs * 1e3
        );
    }
    if let (Some(post), Some(aware)) = (
        result
            .plans
            .iter()
            .find(|p| p.label.contains("post-processed")),
        result
            .plans
            .iter()
            .find(|p| p.label.contains("bitvector-aware")),
    ) {
        let _ = writeln!(
        out,

            "-> post-processed conventional plan costs {:.1}x the bitvector-aware plan in logical work, {:.1}x in wall time (paper: ~3x)",
            post.executed_work as f64 / aware.executed_work.max(1) as f64,
            post.elapsed_secs / aware.elapsed_secs.max(1e-12)
        );
    }
    let _ = writeln!(out);
    out
}

/// Renders the Table 2 plan-space summary.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — plan space complexity (right-deep trees without cross products)"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>16} {:>12} {:>22}",
        "query shape", "relations", "plans in space", "candidates", "optimum in candidates"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>16} {:>12} {:>22}",
            row.shape,
            row.relations,
            row.total_plans,
            row.candidate_plans,
            if row.candidates_contain_optimum {
                "yes"
            } else {
                "NO"
            }
        );
    }
    let _ = writeln!(out);
    out
}

/// Renders the Table 3 workload statistics.
pub fn render_table3(stats: &[WorkloadStats]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3 — workload statistics (synthetic stand-ins)");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>9} {:>12} {:>11} {:>12}",
        "workload", "tables", "queries", "joins avg", "joins max", "DB size MB"
    );
    for s in stats {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>9} {:>12.1} {:>11} {:>12.1}",
            s.name,
            s.tables,
            s.queries,
            s.avg_joins,
            s.max_joins,
            s.db_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    let _ = writeln!(out);
    out
}

/// Renders the Figure 7 overhead profile.
pub fn render_figure7(points: &[Figure7Point]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7 — bitvector filter overhead vs selectivity (normalized CPU)"
    );
    let baseline = points
        .iter()
        .map(|p| p.secs_without_filter)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>18} {:>18} {:>12}",
        "keep frac", "eliminated", "CPU w/ filter", "CPU w/o filter", "winner"
    );
    for p in points {
        let with = p.secs_with_filter / baseline;
        let without = p.secs_without_filter / baseline;
        let _ = writeln!(
            out,
            "{:>12.3} {:>12.3} {:>18.3} {:>18.3} {:>12}",
            p.keep_fraction,
            p.eliminated_fraction,
            with,
            without,
            if with < without {
                "filter"
            } else {
                "no filter"
            }
        );
    }
    let _ = writeln!(out);
    out
}

/// Renders the Figure 8 per-selectivity-group CPU comparison.
pub fn render_figure8(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8 — total execution cost, Original vs BQO, by selectivity group"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "workload", "work ratio", "time ratio", "S ratio", "M ratio", "L ratio", "queries"
    );
    for report in reports {
        let groups = report.selectivity_groups();
        let ratio_of = |label: &str| {
            groups
                .iter()
                .find(|g| g.group.label() == label)
                .map(|g| g.work_ratio())
                .unwrap_or(1.0)
        };
        let _ = writeln!(
            out,
            "{:<12} {:>14.2} {:>14.2} {:>10.2} {:>10.2} {:>10.2} {:>10}",
            report.workload,
            report.total_work_ratio(),
            report.total_time_ratio(),
            ratio_of("S"),
            ratio_of("M"),
            ratio_of("L"),
            report.queries.len()
        );
    }
    let _ = writeln!(
        out,
        "(ratios are BQO / Original; < 1.0 means the bitvector-aware optimizer wins)\n"
    );
    out
}

/// Renders the Figure 9 tuple breakdown.
pub fn render_figure9(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9 — tuples output by operators, normalized by the Original total"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "workload", "orig join", "orig leaf", "orig other", "bqo join", "bqo leaf", "bqo other"
    );
    for report in reports {
        let b = report.tuple_breakdown();
        let total = b.baseline_total().max(1) as f64;
        let _ = writeln!(
            out,
            "{:<12} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.3}",
            report.workload,
            b.baseline_join as f64 / total,
            b.baseline_leaf as f64 / total,
            b.baseline_other as f64 / total,
            b.bqo_join as f64 / total,
            b.bqo_leaf as f64 / total,
            b.bqo_other as f64 / total
        );
    }
    let _ = writeln!(out);
    out
}

/// Renders the Figure 10 per-query comparison (top queries by baseline cost).
pub fn render_figure10(reports: &[WorkloadReport], top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10 — per-query cost (top {top} most expensive queries, normalized)"
    );
    for report in reports {
        let _ = writeln!(out, "--- {} ---", report.workload);
        let sorted = report.sorted_by_baseline_cost();
        let max = sorted
            .first()
            .map(|q| q.baseline.logical_work.max(1))
            .unwrap_or(1) as f64;
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>8}",
            "query", "Original", "BQO", "ratio"
        );
        for q in sorted.into_iter().take(top) {
            let _ = writeln!(
                out,
                "{:<18} {:>12.4} {:>12.4} {:>8.2}",
                q.name,
                q.baseline.logical_work as f64 / max,
                q.bqo.logical_work as f64 / max,
                q.work_ratio()
            );
        }
    }
    let _ = writeln!(out);
    out
}

/// Renders the Table 4 with/without-bitvector comparison.
pub fn render_table4(reports: &[BitvectorEffectReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4 — query plans executed with vs without bitvector filters"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>11} {:>11} {:>18} {:>12} {:>12}",
        "workload", "work ratio", "time ratio", "queries w/ filters", "improved", "regressed"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<12} {:>11.2} {:>11.2} {:>18.2} {:>12.2} {:>12.2}",
            r.workload,
            r.work_ratio,
            r.time_ratio,
            r.queries_with_bitvectors,
            r.improved,
            r.regressed
        );
    }
    let _ = writeln!(
        out,
        "(ratios are with-filters / without-filters; < 1.0 means filters help)\n"
    );
    out
}

/// Renders the λ-threshold ablation.
pub fn render_ablation_threshold(rows: &[ThresholdAblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — cost-based bitvector filter threshold λ (Section 6.3)"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>16} {:>14} {:>16}",
        "λ threshold", "filters created", "total work", "total wall ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>12.2} {:>16} {:>14} {:>16.1}",
            r.lambda_threshold,
            r.filters_created,
            r.total_work,
            r.total_secs * 1e3
        );
    }
    let _ = writeln!(out);
    out
}

/// Renders the filter implementation ablation.
pub fn render_ablation_filter_kind(rows: &[FilterKindAblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — bitvector filter implementation (false positives vs the exact filter)"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>16} {:>22}",
        "filter", "total work", "total wall ms", "extra tuples passed"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>16.1} {:>22}",
            r.label,
            r.total_work,
            r.total_secs * 1e3,
            r.filter_false_pass
        );
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use bqo_core::workloads::Scale;

    #[test]
    fn printers_do_not_panic_on_real_results() {
        // Smoke-test the formatting code against tiny real experiment output.
        let reports = experiments::run_workload_comparisons(Scale(0.01), 3);
        let sections = [
            render_table2(&experiments::run_table2()[..2]),
            render_table3(&experiments::run_table3(Scale(0.01), 2)),
            render_figure7(&experiments::run_figure7(Scale(0.02), 1)),
            render_figure8(&reports),
            render_figure9(&reports),
            render_figure10(&reports, 3),
            render_table4(&experiments::run_table4(Scale(0.01), 2)),
        ];
        assert!(sections.iter().all(|section| section.lines().count() > 2));
    }
}
