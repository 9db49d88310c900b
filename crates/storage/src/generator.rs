//! Deterministic synthetic data generation.
//!
//! The paper evaluates on TPC-DS (100 GB), JOB (IMDB) and a proprietary
//! customer workload. None of those datasets can ship with this repository,
//! so the workload crates synthesize schemas with the same structural
//! properties. This module holds the reusable primitives: seeded RNG
//! streams, uniform and Zipf-distributed key generation, foreign-key columns
//! referencing a parent table's key space, and helpers to build dimension
//! and fact tables.

use crate::table::{Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic generator seeded per logical stream so that tables are
/// reproducible regardless of generation order.
#[derive(Debug)]
pub struct DataGenerator {
    seed: u64,
}

impl DataGenerator {
    /// Creates a generator with a base seed. The same seed always produces
    /// the same tables.
    pub fn new(seed: u64) -> Self {
        DataGenerator { seed }
    }

    /// Derives a stream-specific RNG from the base seed and a label, so each
    /// table/column gets an independent but reproducible stream.
    pub fn rng(&self, label: &str) -> StdRng {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        StdRng::seed_from_u64(h)
    }

    /// Sequential surrogate keys `0..n` (dense primary keys).
    pub fn sequential_keys(&self, n: usize) -> Vec<i64> {
        (0..n as i64).collect()
    }

    /// Uniformly distributed integers in `[lo, hi)`.
    pub fn uniform_ints(&self, label: &str, n: usize, lo: i64, hi: i64) -> Vec<i64> {
        assert!(hi > lo, "empty range");
        let mut rng = self.rng(label);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// Uniformly distributed floats in `[lo, hi)`.
    pub fn uniform_floats(&self, label: &str, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut rng = self.rng(label);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// Foreign-key column: `n` values uniformly referencing `0..parent_rows`.
    pub fn uniform_fk(&self, label: &str, n: usize, parent_rows: usize) -> Vec<i64> {
        assert!(parent_rows > 0, "parent table must not be empty");
        self.uniform_ints(label, n, 0, parent_rows as i64)
    }

    /// Foreign-key column with Zipf-distributed skew over `0..parent_rows`.
    ///
    /// `theta == 0` degenerates to uniform; `theta ~ 1` is the classic
    /// heavily skewed distribution seen in sales-style fact tables.
    pub fn zipf_fk(&self, label: &str, n: usize, parent_rows: usize, theta: f64) -> Vec<i64> {
        assert!(parent_rows > 0, "parent table must not be empty");
        let mut rng = self.rng(label);
        let sampler = ZipfSampler::new(parent_rows, theta);
        (0..n).map(|_| sampler.sample(&mut rng) as i64).collect()
    }

    /// Low-cardinality category column: values in `0..categories` uniformly.
    pub fn categories(&self, label: &str, n: usize, categories: usize) -> Vec<i64> {
        self.uniform_ints(label, n, 0, categories.max(1) as i64)
    }

    /// Descriptive string column: `prefix_<int>` with `distinct` distinct values.
    pub fn labels(&self, label: &str, n: usize, prefix: &str, distinct: usize) -> Vec<String> {
        let ids = self.uniform_ints(label, n, 0, distinct.max(1) as i64);
        ids.iter().map(|i| format!("{prefix}_{i}")).collect()
    }

    /// Builds a dimension table `name(name_sk, name_category, name_label)`
    /// with `rows` rows and `categories` distinct category values.
    ///
    /// The `_sk` column is a dense primary key; `_category` is the column the
    /// workload generators place predicates on.
    #[expect(
        clippy::expect_used,
        reason = "invariant: all columns are built with the same `rows` length, the only failure `build` checks"
    )]
    pub fn dimension_table(&self, name: &str, rows: usize, categories: usize) -> Table {
        TableBuilder::new(name)
            .with_i64(format!("{name}_sk"), self.sequential_keys(rows))
            .with_i64(
                format!("{name}_category"),
                self.categories(&format!("{name}/cat"), rows, categories),
            )
            .with_utf8(
                format!("{name}_label"),
                self.labels(&format!("{name}/label"), rows, name, categories * 4),
            )
            .build()
            .expect("generated dimension table is always well-formed")
    }

    /// Builds a fact table with one foreign key per `(dim_name, dim_rows, skew)`
    /// entry plus a measure column. The FK column is named `<dim>_sk` so that
    /// equi-join predicates can be written as `fact.<dim>_sk = <dim>.<dim>_sk`.
    #[expect(
        clippy::expect_used,
        reason = "invariant: all columns are built with the same `rows` length, the only failure `build` checks"
    )]
    pub fn fact_table(&self, name: &str, rows: usize, dims: &[(String, usize, f64)]) -> Table {
        let mut builder =
            TableBuilder::new(name).with_i64(format!("{name}_id"), self.sequential_keys(rows));
        for (dim, dim_rows, theta) in dims {
            let col = format!("{dim}_sk");
            let values = if *theta > 0.0 {
                self.zipf_fk(&format!("{name}/{dim}"), rows, *dim_rows, *theta)
            } else {
                self.uniform_fk(&format!("{name}/{dim}"), rows, *dim_rows)
            };
            builder = builder.with_i64(col, values);
        }
        builder = builder.with_f64(
            format!("{name}_amount"),
            self.uniform_floats(&format!("{name}/amount"), rows, 0.0, 1000.0),
        );
        builder
            .build()
            .expect("generated fact table is always well-formed")
    }
}

/// Zipf sampler over `0..n` using the standard rejection-free inverse-CDF
/// approximation with precomputed harmonic normalization.
///
/// Implemented locally to avoid pulling in `rand_distr`; the workloads only
/// need a reproducible skewed distribution, not a statistically perfect one.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    n: usize,
    theta: f64,
    /// Cumulative probabilities for the first `PREFIX` ranks; the tail is
    /// sampled by inverse power interpolation.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    const PREFIX: usize = 1024;

    /// Creates a sampler over `0..n` with skew parameter `theta >= 0`.
    pub(crate) fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "domain must not be empty");
        assert!(theta >= 0.0, "theta must be non-negative");
        let prefix = Self::PREFIX.min(n);
        let mut weights: Vec<f64> = (1..=n)
            .take(prefix)
            .map(|k| 1.0 / (k as f64).powf(theta))
            .collect();
        // Approximate the tail mass by integrating k^-theta from prefix to n.
        let tail = if n > prefix {
            integral_pow(prefix as f64 + 0.5, n as f64 + 0.5, theta)
        } else {
            0.0
        };
        let total: f64 = weights.iter().sum::<f64>() + tail;
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        ZipfSampler {
            n,
            theta,
            cdf: weights,
        }
    }

    /// Draws one sample in `0..n` (0-based rank).
    #[expect(
        clippy::unwrap_used,
        reason = "infallible: CDF entries are finite (sums of positive finite weights) and `u` is a finite sample, so the comparison is total"
    )]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(idx) => idx,
            Err(idx) if idx < self.cdf.len() => idx,
            _ => {
                // Tail: sample uniformly over the remaining mass using the
                // continuous power-law inverse CDF.
                let prefix = self.cdf.len();
                if self.n <= prefix {
                    return self.n - 1;
                }
                #[expect(
                    clippy::unwrap_used,
                    reason = "infallible: the constructor asserts `n > 0`, so the CDF prefix holds at least one entry"
                )]
                let last = *self.cdf.last().unwrap();
                let frac = ((u - last) / (1.0 - last)).clamp(0.0, 1.0);
                let lo = prefix as f64 + 0.5;
                let hi = self.n as f64 + 0.5;
                let k = inverse_integral_pow(lo, hi, self.theta, frac);
                (k.floor() as usize).clamp(prefix, self.n - 1)
            }
        }
    }
}

/// Integral of x^-theta over [lo, hi].
fn integral_pow(lo: f64, hi: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        (hi / lo).ln()
    } else {
        (hi.powf(1.0 - theta) - lo.powf(1.0 - theta)) / (1.0 - theta)
    }
}

/// Solves for x such that the integral of t^-theta over [lo, x] equals
/// `frac` of the integral over [lo, hi].
fn inverse_integral_pow(lo: f64, hi: f64, theta: f64, frac: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        lo * (hi / lo).powf(frac)
    } else {
        let a = lo.powf(1.0 - theta);
        let b = hi.powf(1.0 - theta);
        (a + frac * (b - a)).powf(1.0 / (1.0 - theta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_calls() {
        let g1 = DataGenerator::new(42);
        let g2 = DataGenerator::new(42);
        assert_eq!(
            g1.uniform_ints("x", 100, 0, 1000),
            g2.uniform_ints("x", 100, 0, 1000)
        );
        assert_ne!(
            g1.uniform_ints("x", 100, 0, 1000),
            g1.uniform_ints("y", 100, 0, 1000)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = DataGenerator::new(1).uniform_ints("x", 50, 0, i64::MAX);
        let b = DataGenerator::new(2).uniform_ints("x", 50, 0, i64::MAX);
        assert_ne!(a, b);
    }

    #[test]
    fn sequential_keys_dense() {
        let g = DataGenerator::new(0);
        assert_eq!(g.sequential_keys(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn uniform_fk_within_bounds() {
        let g = DataGenerator::new(7);
        let fks = g.uniform_fk("fk", 1000, 50);
        assert!(fks.iter().all(|&v| (0..50).contains(&v)));
        let distinct: HashSet<_> = fks.iter().collect();
        assert!(distinct.len() > 30, "should cover most of the key space");
    }

    #[test]
    fn zipf_is_skewed() {
        let g = DataGenerator::new(3);
        let vals = g.zipf_fk("z", 20_000, 1000, 1.0);
        assert!(vals.iter().all(|&v| (0..1000).contains(&v)));
        let zero_share = vals.iter().filter(|&&v| v == 0).count() as f64 / vals.len() as f64;
        let uniform_share = 1.0 / 1000.0;
        assert!(
            zero_share > 10.0 * uniform_share,
            "rank 0 should be much more frequent under zipf: {zero_share}"
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let g = DataGenerator::new(3);
        let vals = g.zipf_fk("z0", 50_000, 100, 0.0);
        let zero_share = vals.iter().filter(|&&v| v == 0).count() as f64 / vals.len() as f64;
        assert!(zero_share < 0.05, "got {zero_share}");
    }

    #[test]
    fn zipf_small_domain() {
        let g = DataGenerator::new(9);
        let vals = g.zipf_fk("s", 100, 1, 1.2);
        assert!(vals.iter().all(|&v| v == 0));
    }

    #[test]
    fn labels_have_prefix_and_bounded_cardinality() {
        let g = DataGenerator::new(5);
        let labels = g.labels("l", 500, "brand", 10);
        assert!(labels.iter().all(|l| l.starts_with("brand_")));
        let distinct: HashSet<_> = labels.iter().collect();
        assert!(distinct.len() <= 10);
    }

    #[test]
    fn dimension_table_shape() {
        let g = DataGenerator::new(11);
        let t = g.dimension_table("store", 200, 8);
        assert_eq!(t.num_rows(), 200);
        assert!(t.schema().contains("store_sk"));
        assert!(t.schema().contains("store_category"));
        assert!(t.schema().contains("store_label"));
        let stats = t.compute_stats();
        assert!(stats.column("store_sk").unwrap().is_unique());
        assert!(stats.column("store_category").unwrap().distinct_count <= 8);
    }

    #[test]
    fn fact_table_shape() {
        let g = DataGenerator::new(13);
        let dims = vec![
            ("store".to_string(), 50, 0.0),
            ("item".to_string(), 100, 0.8),
        ];
        let t = g.fact_table("sales", 5000, &dims);
        assert_eq!(t.num_rows(), 5000);
        assert!(t.schema().contains("store_sk"));
        assert!(t.schema().contains("item_sk"));
        assert!(t.schema().contains("sales_amount"));
        let fk = t.column("store_sk").unwrap().as_i64().unwrap();
        assert!(fk.iter().all(|&v| (0..50).contains(&v)));
    }

    #[test]
    fn zipf_sampler_cdf_monotone() {
        let s = ZipfSampler::new(10_000, 1.1);
        for w in s.cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(*s.cdf.last().unwrap() <= 1.0 + 1e-9);
    }
}
