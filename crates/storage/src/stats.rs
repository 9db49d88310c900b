//! Per-column statistics used by the cardinality estimator.
//!
//! The paper relies on the host system's (SQL Server's) cardinality
//! estimator. This module provides the equivalent substrate: per-column
//! distinct counts, min/max bounds and a small equi-width histogram, which
//! the `bqo-plan` estimator consumes to estimate local-predicate
//! selectivities, join selectivities and semi-join (bitvector) reduction
//! factors.
//!
//! Distinct counts are exact and hash nothing. An `Int64` column sets one
//! bit per value in a bitmap over its span `[min, max]` when that span needs
//! at most 64 bits per row, and otherwise sorts a copy and counts runs; a
//! `Float64` column sorts a copy of its bit patterns, so `-0.0` and `0.0`,
//! and NaNs with different payloads, count as distinct values. Either way
//! the transient memory is at most 8 bytes per row.

use crate::column::Column;
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of buckets used by the equi-width histograms.
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// Statistics for a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of rows in the column.
    pub row_count: usize,
    /// Exact number of distinct values (`Float64` values compare by bit
    /// pattern). Counted from a span bitmap or a sorted copy, never a hash
    /// set: see the module docs.
    pub distinct_count: usize,
    /// Minimum numeric value (integer columns use their value, float columns
    /// their value, strings/bools are not tracked numerically).
    pub min: Option<f64>,
    /// Maximum numeric value.
    pub max: Option<f64>,
    /// Equi-width histogram bucket counts over `[min, max]` for numeric
    /// columns. Empty for non-numeric columns.
    pub histogram: Vec<usize>,
}

impl ColumnStats {
    /// Computes statistics for a column.
    pub fn compute(column: &Column) -> Self {
        match column {
            Column::Int64(values) => {
                let (lo, hi) = values
                    .iter()
                    .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                // `i64 -> f64` is monotone, so these are the bounds of the
                // converted values.
                let (min, max) = if values.is_empty() {
                    (None, None)
                } else {
                    (Some(lo as f64), Some(hi as f64))
                };
                let histogram = histogram(values.iter().map(|&v| v as f64), min, max);
                ColumnStats {
                    row_count: values.len(),
                    distinct_count: distinct_i64(values, lo, hi),
                    min,
                    max,
                    histogram,
                }
            }
            Column::Float64(values) => {
                let distinct = distinct_sorted(values.iter().map(|v| v.to_bits()).collect());
                let (min, max) = min_max(values.iter().copied());
                let histogram = histogram(values.iter().copied(), min, max);
                ColumnStats {
                    row_count: values.len(),
                    distinct_count: distinct,
                    min,
                    max,
                    histogram,
                }
            }
            Column::Utf8(values) => {
                let distinct = values
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len();
                ColumnStats {
                    row_count: values.len(),
                    distinct_count: distinct,
                    min: None,
                    max: None,
                    histogram: Vec::new(),
                }
            }
            Column::Bool(values) => {
                let mut seen = [false, false];
                for &v in values {
                    seen[v as usize] = true;
                }
                ColumnStats {
                    row_count: values.len(),
                    distinct_count: seen.iter().filter(|&&s| s).count(),
                    min: None,
                    max: None,
                    histogram: Vec::new(),
                }
            }
        }
    }

    /// Estimated selectivity of `column = literal` using distinct counts
    /// (uniformity assumption).
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct_count == 0 {
            0.0
        } else {
            1.0 / self.distinct_count as f64
        }
    }

    /// Estimated selectivity of `column < bound` (or `<=`, the difference is
    /// below histogram resolution) using the histogram when available,
    /// falling back to a linear interpolation over `[min, max]`.
    pub fn lt_selectivity(&self, bound: f64) -> f64 {
        match (self.min, self.max) {
            (Some(min), Some(max)) => {
                if bound <= min {
                    0.0
                } else if bound >= max {
                    1.0
                } else if !self.histogram.is_empty() && self.row_count > 0 {
                    let width = (max - min) / self.histogram.len() as f64;
                    if width <= 0.0 {
                        return 1.0;
                    }
                    let bucket = ((bound - min) / width).floor() as usize;
                    let bucket = bucket.min(self.histogram.len() - 1);
                    let full: usize = self.histogram[..bucket].iter().sum();
                    let frac_in_bucket = ((bound - min) - bucket as f64 * width) / width;
                    let partial = self.histogram[bucket] as f64 * frac_in_bucket;
                    ((full as f64 + partial) / self.row_count as f64).clamp(0.0, 1.0)
                } else {
                    ((bound - min) / (max - min)).clamp(0.0, 1.0)
                }
            }
            _ => 0.5,
        }
    }

    /// Estimated selectivity of `column > bound`.
    pub fn gt_selectivity(&self, bound: f64) -> f64 {
        (1.0 - self.lt_selectivity(bound)).clamp(0.0, 1.0)
    }

    /// True when every value in the column is unique (e.g. a key column).
    pub fn is_unique(&self) -> bool {
        self.row_count > 0 && self.distinct_count == self.row_count
    }
}

/// Statistics for all columns of a table.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Number of rows in the table.
    pub row_count: usize,
    /// Per-column statistics, keyed by column name.
    pub columns: HashMap<Arc<str>, ColumnStats>,
}

impl TableStats {
    /// Computes statistics for every column of a table.
    pub fn compute(table: &Table) -> Self {
        let mut columns = HashMap::new();
        for (field, column) in table.schema().fields().iter().zip(table.columns()) {
            columns.insert(field.name.clone(), ColumnStats::compute(column));
        }
        TableStats {
            row_count: table.num_rows(),
            columns,
        }
    }

    /// Statistics for a single column, if present.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }
}

/// Distinct values of an `Int64` column whose values all lie in `[lo, hi]`:
/// a bitmap of `hi - lo + 1` bits when that is at most 64 per row (so at
/// most one word per row), else the runs of a sorted copy.
fn distinct_i64(values: &[i64], lo: i64, hi: i64) -> usize {
    let span = hi.abs_diff(lo);
    if span / 64 >= values.len() as u64 {
        return distinct_sorted(values.to_vec());
    }
    let mut words = vec![0u64; (span / 64) as usize + 1];
    for &v in values {
        let offset = v.abs_diff(lo);
        words[(offset / 64) as usize] |= 1 << (offset % 64);
    }
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Distinct values of `values`, counted as the runs of their sorted order.
fn distinct_sorted<T: Ord>(mut values: Vec<T>) -> usize {
    values.sort_unstable();
    values.dedup();
    values.len()
}

fn min_max(values: impl Iterator<Item = f64>) -> (Option<f64>, Option<f64>) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut any = false;
    for v in values {
        any = true;
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    if any {
        (Some(min), Some(max))
    } else {
        (None, None)
    }
}

fn histogram(values: impl Iterator<Item = f64>, min: Option<f64>, max: Option<f64>) -> Vec<usize> {
    let (Some(min), Some(max)) = (min, max) else {
        return Vec::new();
    };
    let mut buckets = vec![0usize; HISTOGRAM_BUCKETS];
    let width = (max - min) / HISTOGRAM_BUCKETS as f64;
    for v in values {
        let idx = if width <= 0.0 {
            0
        } else {
            (((v - min) / width) as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        buckets[idx] += 1;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The hash-set statistics the span bitmap and the sorted copy replaced:
    /// the reference every column's stats must equal bit for bit.
    fn reference_stats(column: &Column) -> ColumnStats {
        let (distinct_count, (min, max), histogram) = match column {
            Column::Int64(values) => {
                let (min, max) = min_max(values.iter().map(|&v| v as f64));
                (
                    values.iter().collect::<HashSet<_>>().len(),
                    (min, max),
                    histogram(values.iter().map(|&v| v as f64), min, max),
                )
            }
            Column::Float64(values) => {
                let (min, max) = min_max(values.iter().copied());
                (
                    values
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<HashSet<_>>()
                        .len(),
                    (min, max),
                    histogram(values.iter().copied(), min, max),
                )
            }
            _ => unreachable!("only numeric columns changed"),
        };
        ColumnStats {
            row_count: column.len(),
            distinct_count,
            min,
            max,
            histogram,
        }
    }

    /// `PartialEq` on `ColumnStats` compares floats by value; the stored
    /// bounds must be equal bit for bit.
    fn assert_same_stats(column: &Column) {
        let (got, want) = (ColumnStats::compute(column), reference_stats(column));
        assert_eq!(got, want, "{column:?}");
        assert_eq!(got.min.map(f64::to_bits), want.min.map(f64::to_bits));
        assert_eq!(got.max.map(f64::to_bits), want.max.map(f64::to_bits));
    }

    #[test]
    fn numeric_corner_columns_match_the_hash_set_reference() {
        let ints: [Vec<i64>; 8] = [
            vec![],
            vec![i64::MIN],
            vec![7; 100],
            vec![i64::MIN, i64::MAX],
            vec![i64::MIN, i64::MIN + 1, i64::MIN, 5],
            vec![i64::MAX, i64::MAX - 64, i64::MAX - 127, i64::MAX],
            // 128 and 129 bits over two rows: both sides of the
            // 64-bits-per-row rule.
            vec![0, 127],
            vec![0, 128],
        ];
        for values in ints {
            assert_same_stats(&Column::from(values));
        }
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        let floats: [Vec<f64>; 5] = [
            vec![],
            vec![0.0, -0.0, 0.0, -0.0],
            vec![nan(0), nan(1), nan(1), -nan(2), f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.0, nan(3)],
            vec![nan(4), nan(5)],
        ];
        for values in floats {
            assert_same_stats(&Column::from(values));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `Int64` columns anchored at `i64::MIN`, near zero or at
        /// `i64::MAX`: all-equal, dense with repeats, spans at and just past
        /// 64 bits per row, and up to the whole `i64` range.
        #[test]
        fn int_stats_match_the_hash_set_reference(
            anchor in 0usize..3,
            span_kind in 0usize..6,
            draws in prop::collection::vec(0u64..u64::MAX, 0..300),
        ) {
            let n = draws.len() as u64;
            let span = match span_kind {
                0 => 0,
                1 => n / 2,
                2 => (64 * n).saturating_sub(1),
                3 => 64 * n,
                4 => 64 * n + 1000,
                _ => u64::MAX,
            };
            let lo = match anchor {
                0 => i64::MIN,
                1 => 0i64.wrapping_sub_unsigned(span / 2),
                _ => i64::MAX.wrapping_sub_unsigned(span),
            };
            // Values lo + d mod (span + 1), wrapping at the `i64` ends; the
            // first two rows are the span's ends.
            let mut values: Vec<i64> = draws
                .iter()
                .map(|&d| lo.wrapping_add_unsigned(d % span.saturating_add(1)))
                .collect();
            if values.len() >= 2 {
                values[0] = lo;
                values[1] = lo.wrapping_add_unsigned(span);
            }
            assert_same_stats(&Column::from(values));
        }

        /// Random `Float64` columns mixing `±0.0`, NaN payloads, `±inf` and
        /// finite values.
        #[test]
        fn float_stats_match_the_hash_set_reference(
            picks in prop::collection::vec((0usize..8, -1e6f64..1e6), 0..300),
        ) {
            let values: Vec<f64> = picks
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::INFINITY,
                    3 => f64::NEG_INFINITY,
                    4 => f64::from_bits(0x7ff8_0000_0000_0000 | (x.to_bits() & 7)),
                    5 => -f64::NAN,
                    6 => x.round(),
                    _ => x,
                })
                .collect();
            assert_same_stats(&Column::from(values));
        }
    }

    #[test]
    fn int_column_stats() {
        let c = Column::from(vec![1i64, 2, 2, 3, 10]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.row_count, 5);
        assert_eq!(s.distinct_count, 4);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(10.0));
        assert_eq!(s.histogram.iter().sum::<usize>(), 5);
    }

    #[test]
    fn unique_key_detection() {
        let s = ColumnStats::compute(&Column::from((0..100i64).collect::<Vec<_>>()));
        assert!(s.is_unique());
        let s2 = ColumnStats::compute(&Column::from(vec![1i64, 1, 2]));
        assert!(!s2.is_unique());
    }

    #[test]
    fn eq_selectivity_uniform() {
        let s = ColumnStats::compute(&Column::from((0..50i64).collect::<Vec<_>>()));
        assert!((s.eq_selectivity() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn eq_selectivity_empty_column() {
        let s = ColumnStats::compute(&Column::from(Vec::<i64>::new()));
        assert_eq!(s.eq_selectivity(), 0.0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
    }

    #[test]
    fn lt_selectivity_bounds() {
        let s = ColumnStats::compute(&Column::from((0..1000i64).collect::<Vec<_>>()));
        assert_eq!(s.lt_selectivity(-5.0), 0.0);
        assert_eq!(s.lt_selectivity(2000.0), 1.0);
        let mid = s.lt_selectivity(500.0);
        assert!((mid - 0.5).abs() < 0.05, "expected ~0.5, got {mid}");
        assert!((s.gt_selectivity(500.0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn lt_selectivity_skewed_histogram_beats_interpolation() {
        // 90% of the mass at value 0, 10% spread to 1000.
        let mut values = vec![0i64; 900];
        values.extend(0..100i64);
        values.push(1000);
        let s = ColumnStats::compute(&Column::from(values));
        // Linear interpolation would say sel(< 100) ~= 0.1, the histogram
        // should know it is ~0.99.
        assert!(s.lt_selectivity(100.0) > 0.9);
    }

    #[test]
    fn string_and_bool_stats() {
        let s = ColumnStats::compute(&Column::from(vec!["a".to_string(), "a".into(), "b".into()]));
        assert_eq!(s.distinct_count, 2);
        assert!(s.histogram.is_empty());
        let b = ColumnStats::compute(&Column::from(vec![true, true, true]));
        assert_eq!(b.distinct_count, 1);
    }

    #[test]
    fn float_column_stats() {
        let s = ColumnStats::compute(&Column::from(vec![1.5f64, 1.5, 2.5]));
        assert_eq!(s.distinct_count, 2);
        assert_eq!(s.min, Some(1.5));
        assert_eq!(s.max, Some(2.5));
    }

    #[test]
    fn table_stats_covers_all_columns() {
        let t = TableBuilder::new("t")
            .with_i64("id", vec![1, 2, 3])
            .with_utf8("s", vec!["x".into(), "y".into(), "y".into()])
            .build()
            .unwrap();
        let stats = TableStats::compute(&t);
        assert_eq!(stats.row_count, 3);
        assert_eq!(stats.column("id").unwrap().distinct_count, 3);
        assert_eq!(stats.column("s").unwrap().distinct_count, 2);
        assert!(stats.column("missing").is_none());
    }

    #[test]
    fn constant_column_histogram() {
        let s = ColumnStats::compute(&Column::from(vec![5i64; 10]));
        assert_eq!(s.min, Some(5.0));
        assert_eq!(s.max, Some(5.0));
        // All mass lands in one bucket and selectivity behaves sanely.
        assert_eq!(s.lt_selectivity(4.0), 0.0);
        assert_eq!(s.lt_selectivity(6.0), 1.0);
    }
}
