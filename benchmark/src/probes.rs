//! Isolated layer probes: single public functions of `plan`, `optimizer`
//! and `bitvector` timed on their own, once per distinct query / filter
//! shape, inside the traced run.

use crate::stats::median;
use crate::workloads::{Inputs, Rng};
use bqo_core::bitvector::{AnyFilter, BitvectorFilter, FilterKind};
use bqo_core::optimizer::{candidate_plans, optimize_join_graph, BaselineOptimizer};
use bqo_core::plan::{push_down_bitvectors, CostModel, PhysicalPlan};
use bqo_core::{BqoOptimizer, Optimizer};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per probe; the median is kept.
const REPS: usize = 3;

/// Median wall time of `f` over [`REPS`] runs, in microseconds. `prepare`
/// builds each run's input outside the timed interval.
fn time_us<I, R>(mut prepare: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let input = prepare();
            let started = Instant::now();
            black_box(f(black_box(input)));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Per distinct query: the cost of each planning step, called the way
/// `Engine::prepare` and `BqoOptimizer::optimize` call them.
#[derive(Debug, Default)]
pub struct PlanProbes {
    pub fingerprint_us: Vec<f64>,
    pub to_graph_us: Vec<f64>,
    pub pushdown_us: Vec<f64>,
    pub bqo_optimize_us: Vec<f64>,
    pub baseline_optimize_us: Vec<f64>,
    /// Candidate plans Algorithm 2 costs (0 for general graphs).
    pub candidates: Vec<u64>,
}

pub fn plan_probes(inputs: &Inputs) -> Result<PlanProbes, String> {
    let mut out = PlanProbes::default();
    for query in &inputs.queries {
        let catalog = &inputs.databases[query.database];
        let template = bqo_core::sql::lower(&query.sql, catalog).map_err(|e| e.to_string())?;
        let spec = match &query.params {
            Some(params) => template.bind(params).map_err(|e| e.to_string())?,
            None => template.clone(),
        };
        out.fingerprint_us
            .push(time_us(|| (), |()| template.fingerprint()));
        out.to_graph_us
            .push(time_us(|| (), |()| spec.to_join_graph(catalog)));
        let graph = spec.to_join_graph(catalog).map_err(|e| e.to_string())?;
        let model = CostModel::new(&graph);
        out.pushdown_us.push(time_us(
            || PhysicalPlan::from_join_tree(&graph, &optimize_join_graph(&graph, &model)),
            |plan| push_down_bitvectors(&graph, plan),
        ));
        out.bqo_optimize_us
            .push(time_us(|| (), |()| BqoOptimizer::new().optimize(&graph)));
        out.baseline_optimize_us.push(time_us(
            || (),
            |()| BaselineOptimizer::new().optimize(&graph),
        ));
        out.candidates
            .push(candidate_plans(&graph).map_or(0, |plans| plans.len() as u64));
    }
    Ok(out)
}

/// The five filter shapes the executor can build, in reporting order.
pub const FILTER_SHAPES: [&str; 5] = [
    "bitmap_dense",
    "bitmap_sparse",
    "exact",
    "bloom",
    "blocked_bloom",
];

/// Keys probed (and, for the build probe, inserted) per measurement.
const KERNEL_KEYS: usize = 1_000_000;
/// Spreads keys over a domain too wide for the dense bitmap.
const SPARSE_STRIDE: i64 = 1_000_003;
const BLOOM_BITS_PER_KEY: usize = 8;

/// Build and probe throughput of one filter shape, in million keys per
/// second.
#[derive(Debug, Clone, Copy)]
pub struct KernelProbe {
    pub build_mrows_per_s: f64,
    pub probe_mrows_per_s: f64,
}

/// Times `AnyFilter::from_keys` over 1 M distinct keys and
/// `BitvectorFilter::probe_words` over 1 M seeded keys (about 40 % members)
/// for each shape — the kernels on their own, so a kernel gain that does not
/// reach `exec.stream_ms` shows as exactly that.
pub fn kernel_probes(seed: u64) -> Vec<KernelProbe> {
    let mut rng = Rng::new(seed ^ 0x6b65_726e_656c_7321);
    // Members: every key of 0..domain that is ≡ 0 or 1 mod 5; probes draw
    // uniformly from the domain.
    let domain = KERNEL_KEYS as i64 * 5 / 2;
    let members: Vec<i64> = (0..domain).filter(|k| k % 5 < 2).collect();
    let probes: Vec<i64> = (0..KERNEL_KEYS)
        .map(|_| rng.below(domain as usize) as i64)
        .collect();
    let sparse = |keys: &[i64]| -> Vec<i64> { keys.iter().map(|k| k * SPARSE_STRIDE).collect() };
    let (sparse_members, sparse_probes) = (sparse(&members), sparse(&probes));
    let shapes: [(FilterKind, &[i64], &[i64]); 5] = [
        (FilterKind::Bitmap, &members, &probes),
        (FilterKind::Bitmap, &sparse_members, &sparse_probes),
        (FilterKind::Exact, &members, &probes),
        (
            FilterKind::Bloom {
                bits_per_key: BLOOM_BITS_PER_KEY,
            },
            &members,
            &probes,
        ),
        (
            FilterKind::BlockedBloom {
                bits_per_key: BLOOM_BITS_PER_KEY,
            },
            &members,
            &probes,
        ),
    ];
    shapes
        .into_iter()
        .map(|(kind, members, probes)| {
            let build_us = time_us(|| (), |()| AnyFilter::from_keys(kind, members));
            let filter = AnyFilter::from_keys(kind, members);
            let mut words = Vec::new();
            let probe_us = time_us(
                || (),
                |()| {
                    filter.probe_words(probes, &mut words);
                    words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
                },
            );
            KernelProbe {
                build_mrows_per_s: members.len() as f64 / build_us,
                probe_mrows_per_s: probes.len() as f64 / probe_us,
            }
        })
        .collect()
}

/// A fixed arithmetic loop, timed: how fast this host ran *something that
/// never changes* around the measurement. Reported, never used to rescale.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_core::bitvector::RangeBitmapFilter;

    #[test]
    fn sparse_stride_defeats_the_dense_bitmap() {
        let dense: Vec<i64> = (0..1000).filter(|k| k % 5 < 2).collect();
        let sparse: Vec<i64> = dense.iter().map(|k| k * SPARSE_STRIDE).collect();
        assert!(RangeBitmapFilter::from_keys(&dense).is_dense());
        assert!(!RangeBitmapFilter::from_keys(&sparse).is_dense());
    }

    #[test]
    fn time_us_prepares_outside_the_timed_interval() {
        let mut prepared = 0;
        let us = time_us(
            || {
                prepared += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
            },
            |()| (),
        );
        assert_eq!(prepared, REPS);
        assert!(us < 10_000.0, "the 20 ms prepare leaked into {us} µs");
    }
}
