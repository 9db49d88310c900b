//! Plan stability: one digest per (workload, optimizer choice) over every
//! chosen plan's `explain` text, its total `Cout` and every per-node
//! estimate, bit for bit.
//!
//! A planner refactor that must not change plans passes this suite with the
//! constants untouched. A change that moves plans on purpose re-blesses the
//! constants it moved and lists the changed plans in its description: run
//! with `--nocapture` and copy the `GOLDEN` table the failing test prints.

use bqo_core::plan::CostModel;
use bqo_core::workloads::{customer_like, job_like, snowflake, star, tpcds_like, Scale, Workload};
use bqo_core::{Engine, OptimizerChoice};

const SCALE: Scale = Scale(0.01);
const SEED: u64 = 7;

const CHOICES: [OptimizerChoice; 3] = [
    OptimizerChoice::Bqo,
    OptimizerChoice::Baseline,
    OptimizerChoice::BqoWithThreshold(0.0),
];

/// `(workload, [Bqo, Baseline, BqoWithThreshold(0.0)])`.
const GOLDEN: [(&str, [u64; 3]); 8] = [
    (
        "star6",
        [0x717151a0148b111f, 0xc2c899aa57df503f, 0x32cceafb54a96b15],
    ),
    (
        "snowflake_1_2_3",
        [0xc3c0bd0eab784590, 0x391a2cb680d515a2, 0x493de3e40adf0fd7],
    ),
    (
        "snowflake_3_3_3_2",
        [0x16ba022ad5126cb7, 0x9487902144d107db, 0xff39ac66e1081814],
    ),
    (
        "snowflake_3_3_3_3_2",
        [0x3096d2b5af839fa3, 0xf31fb21655cfa9b2, 0x51da3c53b7ddb8fd],
    ),
    (
        "snowflake_4_4_3_3_2",
        [0x77e6722842cf9807, 0x1d89872c0337912e, 0xd315baa038fbab9f],
    ),
    (
        "tpcds_like",
        [0xa16df565a5b88f4c, 0x061c8b1afce6426d, 0x0b98dc2083abd85d],
    ),
    (
        "job_like",
        [0x6794b81f64447bce, 0x14e323e2b95baf6c, 0xdd3ba5410a3d1dc3],
    ),
    (
        "customer_like",
        [0xe47804d86797a69f, 0x2867073a6f9f1937, 0x9a9bc0aaa5be1b1d],
    ),
];

fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("star6", star::generate(SCALE, 6, 10, SEED)),
        (
            "snowflake_1_2_3",
            snowflake::generate(SCALE, &[1, 2, 3], 10, SEED),
        ),
        // The three `plan-cold` shapes of the benchmark (12, 15, 17 relations).
        (
            "snowflake_3_3_3_2",
            snowflake::generate(SCALE, &[3, 3, 3, 2], 10, SEED),
        ),
        (
            "snowflake_3_3_3_3_2",
            snowflake::generate(SCALE, &[3, 3, 3, 3, 2], 10, SEED),
        ),
        (
            "snowflake_4_4_3_3_2",
            snowflake::generate(SCALE, &[4, 4, 3, 3, 2], 10, SEED),
        ),
        ("tpcds_like", tpcds_like::generate(SCALE, 30, SEED)),
        ("job_like", job_like::generate(SCALE, 30, SEED)),
        ("customer_like", customer_like::generate(SCALE, 30, SEED)),
    ]
}

/// FNV-1a, 64 bit.
fn fold(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(workload: &Workload, choice: OptimizerChoice) -> u64 {
    let engine = Engine::from_catalog(workload.catalog.clone());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for query in &workload.queries {
        // Every query is optimized, never served from the plan cache.
        engine.plan_cache().clear();
        let stmt = engine
            .prepare(query, choice)
            .unwrap_or_else(|e| panic!("{}: {e}", query.name));
        let cost = CostModel::new(stmt.graph()).cout_physical(stmt.plan());
        fold(&mut digest, stmt.plan().explain(stmt.graph()).as_bytes());
        fold(&mut digest, &cost.total.to_bits().to_le_bytes());
        for (node, card) in &cost.per_node {
            fold(&mut digest, &(node.0 as u64).to_le_bytes());
            fold(&mut digest, &card.to_bits().to_le_bytes());
        }
    }
    digest
}

#[test]
fn chosen_plans_and_estimates_match_the_blessed_digests() {
    let workloads = workloads();
    assert_eq!(workloads.len(), GOLDEN.len());
    let actual: Vec<(&str, [u64; 3])> = workloads
        .iter()
        .map(|(name, workload)| (*name, CHOICES.map(|choice| digest(workload, choice))))
        .collect();
    if actual != GOLDEN {
        for (name, [bqo, baseline, keep_all]) in &actual {
            println!("    (\"{name}\", [{bqo:#018x}, {baseline:#018x}, {keep_all:#018x}]),");
        }
        panic!("chosen plans or estimates changed (table above; see the module doc)");
    }
}
