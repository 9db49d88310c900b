//! Multi-fact-table reporting query (the JOB-like shape that exercises
//! Algorithm 3): two fact tables share a large dimension and are linked by a
//! non-PKFK join. Shows the extracted plan, the bitvector filter placements
//! and the executed tuple counts for both optimizers.
//!
//! ```text
//! cargo run --release --example multi_fact_report
//! ```

use bqo_core::workloads::{job_like, Scale};
use bqo_core::{Engine, OptimizerChoice, RunOptions};

fn main() {
    let workload = job_like::generate(Scale(0.1), 12, 7);
    println!("workload: {}", workload.stats());
    let engine = Engine::from_catalog(workload.catalog);

    // Pick the multi-fact queries (every third query by construction).
    let multi: Vec<_> = workload
        .queries
        .iter()
        .filter(|q| q.name.ends_with("2") || q.name.ends_with("5") || q.name.ends_with("8"))
        .collect();

    for query in multi {
        let graph = query
            .to_join_graph(engine.catalog())
            .expect("query resolves");
        println!(
            "\n=== {} — {} relations, {} joins, {} fact tables ===",
            query.name,
            graph.num_relations(),
            query.num_joins(),
            graph.fact_tables().len()
        );
        let session = engine.session();
        for choice in [OptimizerChoice::Baseline, OptimizerChoice::Bqo] {
            let stmt = engine.prepare(query, choice).expect("query prepares");
            let result = session
                .execute(&stmt, RunOptions::new())
                .expect("query executes")
                .result;
            println!("--- {} ---", choice.display_label());
            println!("{}", stmt.explain());
            println!(
                "result rows {}, join tuples {}, filters {} (eliminated {}), wall {:.1} ms",
                result.output_rows,
                result.metrics.tuples_by_kind(bqo_core::OperatorKind::Join),
                result.metrics.filters_created,
                result.metrics.filter_stats.eliminated,
                result.metrics.elapsed_secs() * 1e3
            );
        }
    }
}
