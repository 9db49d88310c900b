//! Local (single-table) predicates, with optional parameter placeholders.

use bqo_storage::{Column, ColumnStats, StorageError, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Comparison operators supported by local predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// SQL-ish rendering used by plan explanations.
    pub fn symbol(&self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::NotEq => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// The right-hand side of a predicate: a concrete literal, or a named
/// parameter placeholder to be filled in by [`Params`] at bind time.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateValue {
    /// A concrete literal — the predicate is executable as-is.
    Literal(Value),
    /// A named placeholder (`$name`): the predicate must be bound with
    /// [`ColumnPredicate::bind`] before it can be resolved or executed.
    Param(String),
}

impl PredicateValue {
    /// The parameter name, if this side is a placeholder.
    pub(crate) fn param_name(&self) -> Option<&str> {
        match self {
            PredicateValue::Literal(_) => None,
            PredicateValue::Param(name) => Some(name),
        }
    }
}

impl std::fmt::Display for PredicateValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredicateValue::Literal(v) => write!(f, "{v}"),
            PredicateValue::Param(name) => write!(f, "${name}"),
        }
    }
}

/// A named set of parameter values for binding parameterized queries.
///
/// Built fluently (`Params::new().set("category", 3i64)`) and passed to
/// `QuerySpec::bind` / the engine's `bind` entry point, which substitutes
/// every [`PredicateValue::Param`] placeholder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    values: BTreeMap<String, Value>,
}

impl Params {
    /// An empty parameter set.
    pub fn new() -> Self {
        Params::default()
    }

    /// Sets (or replaces) one parameter value.
    pub fn set(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.values.insert(name.into(), value.into());
        self
    }

    /// Looks up a parameter value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// The parameter names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(|s| s.as_str())
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A predicate of the form `column <op> value` applied to one relation, where
/// the value is either a literal or a named parameter placeholder.
///
/// Decision-support queries place these on dimension attributes (the
/// `k.keyword LIKE '%ge%'` style predicates in the paper's motivating query
/// are modelled as selectivity-equivalent comparisons on generated columns).
/// Parameterized predicates ([`ColumnPredicate::param`]) describe a query
/// *template*; [`ColumnPredicate::bind`] produces the executable literal
/// form.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Column the predicate restricts.
    pub column: Arc<str>,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal or `$param` placeholder compared against.
    pub value: PredicateValue,
}

impl ColumnPredicate {
    /// Creates a literal predicate.
    pub fn new(column: impl Into<Arc<str>>, op: CompareOp, value: impl Into<Value>) -> Self {
        ColumnPredicate {
            column: column.into(),
            op,
            value: PredicateValue::Literal(value.into()),
        }
    }

    /// Creates a parameterized predicate `column <op> $name`.
    pub fn param(column: impl Into<Arc<str>>, op: CompareOp, name: impl Into<String>) -> Self {
        ColumnPredicate {
            column: column.into(),
            op,
            value: PredicateValue::Param(name.into()),
        }
    }

    /// True if the predicate still contains a parameter placeholder.
    pub fn is_parameterized(&self) -> bool {
        matches!(self.value, PredicateValue::Param(_))
    }

    /// Substitutes the parameter placeholder (if any) with its value from
    /// `params`, returning the executable literal predicate.
    ///
    /// # Errors
    /// [`StorageError::UnboundParameter`] if the placeholder's name is
    /// missing from `params`.
    pub fn bind(&self, params: &Params) -> Result<ColumnPredicate, StorageError> {
        match &self.value {
            PredicateValue::Literal(_) => Ok(self.clone()),
            PredicateValue::Param(name) => {
                let value = params
                    .get(name)
                    .cloned()
                    .ok_or_else(|| StorageError::UnboundParameter { name: name.clone() })?;
                Ok(ColumnPredicate {
                    column: self.column.clone(),
                    op: self.op,
                    value: PredicateValue::Literal(value),
                })
            }
        }
    }

    /// The rows of `rows` whose value in `column` satisfies the predicate,
    /// ascending — a scan's first predicate, selecting straight from its
    /// morsel's row range. A type-mismatched literal or an unbound
    /// parameter selects nothing.
    ///
    /// # Panics
    /// Panics if `rows` reaches past `column.len()`.
    pub fn select(&self, column: &Column, rows: Range<usize>) -> Vec<usize> {
        let mut selected = Vec::new();
        self.run(column, Rows::Range(rows, &mut selected));
        selected
    }

    /// Keeps, in order, the rows of `rows` whose value in `column`
    /// satisfies the predicate — each further predicate of a scan, refining
    /// the survivors of the first. Selects exactly what
    /// [`ColumnPredicate::select`] selects.
    ///
    /// # Panics
    /// Panics if a row is out of `column`'s bounds.
    pub fn retain(&self, column: &Column, rows: &mut Vec<usize>) {
        self.run(column, Rows::List(rows));
    }

    /// The one selection entry: resolves the column type, the literal and
    /// the operator once, then runs `pass` with a per-row test over the
    /// typed values.
    fn run(&self, column: &Column, pass: Rows<'_>) {
        // An unbound parameter selects nothing; graph resolution rejects
        // parameterized predicates before execution, so this arm is only a
        // defensive fallback (mirroring the type-mismatch behaviour below).
        let PredicateValue::Literal(value) = &self.value else {
            return pass.reject_all();
        };
        let op = self.op;
        match (column, value) {
            (Column::Int64(values), Value::Int64(lit)) => by_op(pass, values, op, |v| v.cmp(lit)),
            (Column::Int64(values), Value::Float64(lit)) => {
                by_op(pass, values, op, |v| (*v as f64).total_cmp(lit))
            }
            (Column::Float64(values), Value::Float64(lit)) => {
                by_op(pass, values, op, |v| v.total_cmp(lit))
            }
            (Column::Float64(values), Value::Int64(lit)) => {
                let lit = *lit as f64;
                by_op(pass, values, op, |v| v.total_cmp(&lit))
            }
            (Column::Utf8(values), Value::Utf8(lit)) => {
                by_op(pass, values, op, |v| v.as_str().cmp(lit.as_str()))
            }
            (Column::Bool(values), Value::Bool(lit)) => by_op(pass, values, op, |v| v.cmp(lit)),
            // Type mismatch: nothing qualifies. Workload generators never
            // produce mismatched predicates, but a silent empty result is a
            // safer behaviour than a panic for user-written queries.
            _ => pass.reject_all(),
        }
    }

    /// Zone-map test: can *any* value `v` with `min <= v <= max` (under
    /// [`Value::total_cmp`], the order zone maps are computed in) satisfy
    /// this predicate? `false` proves the whole range fails, so a scan may
    /// skip a chunk with these bounds without reading it.
    ///
    /// Mirrors [`ColumnPredicate::select`] arm by arm: the typed
    /// comparisons match, a type-mismatched predicate selects nothing (so
    /// the range is prunable), and an unbound parameter likewise selects
    /// nothing. The monotone `i64 -> f64` casts keep the mixed-numeric
    /// arms consistent with row-at-a-time evaluation, so a one-value range
    /// `[v, v]` may pass exactly when `v` is selected.
    pub fn range_may_pass(&self, min: &Value, max: &Value) -> bool {
        let PredicateValue::Literal(value) = &self.value else {
            return false;
        };
        // Orderings of the range endpoints against the literal, in the
        // same typed comparison `select` uses. `None` is the
        // type-mismatch arm: no row can pass.
        let bounds = match (min, max, value) {
            (Value::Int64(lo), Value::Int64(hi), Value::Int64(lit)) => {
                Some((lo.cmp(lit), hi.cmp(lit)))
            }
            (Value::Int64(lo), Value::Int64(hi), Value::Float64(lit)) => {
                Some(((*lo as f64).total_cmp(lit), (*hi as f64).total_cmp(lit)))
            }
            (Value::Float64(lo), Value::Float64(hi), Value::Float64(lit)) => {
                Some((lo.total_cmp(lit), hi.total_cmp(lit)))
            }
            (Value::Float64(lo), Value::Float64(hi), Value::Int64(lit)) => {
                let lit = *lit as f64;
                Some((lo.total_cmp(&lit), hi.total_cmp(&lit)))
            }
            (Value::Utf8(lo), Value::Utf8(hi), Value::Utf8(lit)) => {
                Some((lo.as_str().cmp(lit.as_str()), hi.as_str().cmp(lit.as_str())))
            }
            (Value::Bool(lo), Value::Bool(hi), Value::Bool(lit)) => {
                Some((lo.cmp(lit), hi.cmp(lit)))
            }
            _ => None,
        };
        let Some((lo_ord, hi_ord)) = bounds else {
            return false;
        };
        use std::cmp::Ordering::*;
        match self.op {
            // lit inside [min, max]?
            CompareOp::Eq => lo_ord != Greater && hi_ord != Less,
            // Only an all-lit chunk fails `<> lit`.
            CompareOp::NotEq => !(lo_ord == Equal && hi_ord == Equal),
            CompareOp::Lt => lo_ord == Less,
            CompareOp::Le => lo_ord != Greater,
            CompareOp::Gt => hi_ord == Greater,
            CompareOp::Ge => hi_ord != Less,
        }
    }

    /// Estimates the selectivity of this predicate from column statistics.
    ///
    /// A still-parameterized predicate has no value to estimate from; it
    /// falls back to the literal-free default of its operator class (the
    /// estimate is re-derived from the bound literal at bind time, so this
    /// path is only reachable when inspecting unbound templates).
    pub(crate) fn estimate_selectivity(&self, stats: &ColumnStats) -> f64 {
        let numeric = match &self.value {
            PredicateValue::Literal(Value::Int64(v)) => Some(*v as f64),
            PredicateValue::Literal(Value::Float64(v)) => Some(*v),
            _ => None,
        };
        match self.op {
            CompareOp::Eq => stats.eq_selectivity(),
            CompareOp::NotEq => (1.0 - stats.eq_selectivity()).max(0.0),
            CompareOp::Lt | CompareOp::Le => match numeric {
                Some(b) => stats.lt_selectivity(b),
                None => 0.33,
            },
            CompareOp::Gt | CompareOp::Ge => match numeric {
                Some(b) => stats.gt_selectivity(b),
                None => 0.33,
            },
        }
    }
}

/// The candidate rows of one selection pass.
enum Rows<'a> {
    /// A contiguous row range, selected from into the list.
    Range(Range<usize>, &'a mut Vec<usize>),
    /// A row list, retained in place and in order.
    List(&'a mut Vec<usize>),
}

impl Rows<'_> {
    /// Runs the pass with the per-row test `keep` over the typed column
    /// `values`; compiled once per typed comparison, so the row loops carry
    /// no dispatch.
    fn run<T>(self, values: &[T], keep: impl Fn(&T) -> bool) {
        match self {
            // 64 rows at a time: the tests fill one word without a branch,
            // and only its set bits are visited, one step per selected row.
            Rows::Range(rows, selected) => {
                let start = rows.start;
                for (at, chunk) in (start..).step_by(64).zip(values[rows].chunks(64)) {
                    let mut word = 0u64;
                    for (bit, value) in chunk.iter().enumerate() {
                        word |= u64::from(keep(value)) << bit;
                    }
                    while word != 0 {
                        selected.push(at + word.trailing_zeros() as usize);
                        word &= word - 1;
                    }
                }
            }
            // Branch-free compaction: every row is written at the cursor,
            // and the cursor moves past it only when it is kept.
            Rows::List(rows) => {
                let mut kept = 0;
                for at in 0..rows.len() {
                    let row = rows[at];
                    rows[kept] = row;
                    kept += usize::from(keep(&values[row]));
                }
                rows.truncate(kept);
            }
        }
    }

    /// Runs the pass as if no row satisfied the test.
    fn reject_all(self) {
        if let Rows::List(rows) = self {
            rows.clear();
        }
    }
}

/// Runs `pass` with the test `op` puts on `cmp`, the ordering of a value
/// against the literal: one monomorphic pass per operator.
fn by_op<T>(pass: Rows<'_>, values: &[T], op: CompareOp, cmp: impl Fn(&T) -> Ordering) {
    use std::cmp::Ordering::*;
    match op {
        CompareOp::Eq => pass.run(values, |v| cmp(v) == Equal),
        CompareOp::NotEq => pass.run(values, |v| cmp(v) != Equal),
        CompareOp::Lt => pass.run(values, |v| cmp(v) == Less),
        CompareOp::Le => pass.run(values, |v| cmp(v) != Greater),
        CompareOp::Gt => pass.run(values, |v| cmp(v) == Greater),
        CompareOp::Ge => pass.run(values, |v| cmp(v) != Less),
    }
}

impl std::fmt::Display for ColumnPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.column, self.op.symbol(), self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_storage::Column;
    use proptest::prelude::*;

    /// Every row of `column` that `p` selects.
    fn selected(p: &ColumnPredicate, column: &Column) -> Vec<usize> {
        p.select(column, 0..column.len())
    }

    #[test]
    fn select_by_ranges_and_retain_match_the_whole_column_pass() {
        let c = Column::from(vec![3i64, 1, 4, 1, 5, 9, 2, 6]);
        for op in [
            CompareOp::Eq,
            CompareOp::NotEq,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            let p = ColumnPredicate::new("x", op, 4i64);
            let whole = selected(&p, &c);
            // Any partitioning into ranges reproduces the whole-column pass.
            for split in 0..=c.len() {
                let mut stitched = p.select(&c, 0..split);
                stitched.extend(p.select(&c, split..c.len()));
                assert_eq!(stitched, whole, "{op:?} split {split}");
            }
            // Retaining over every row, or over rows in any order, keeps
            // the same rows in list order.
            let mut all: Vec<usize> = (0..c.len()).rev().collect();
            p.retain(&c, &mut all);
            all.reverse();
            assert_eq!(all, whole, "{op:?} retain");
        }
        assert!(ColumnPredicate::new("x", CompareOp::Eq, 4i64)
            .select(&c, 3..3)
            .is_empty());
    }

    #[test]
    fn evaluate_int_comparisons() {
        let c = Column::from(vec![1i64, 5, 10]);
        let rows = |op| selected(&ColumnPredicate::new("x", op, 5i64), &c);
        assert_eq!(rows(CompareOp::Lt), [0]);
        assert_eq!(rows(CompareOp::Le), [0, 1]);
        assert_eq!(rows(CompareOp::Eq), [1]);
        assert_eq!(rows(CompareOp::NotEq), [0, 2]);
        assert_eq!(rows(CompareOp::Ge), [1, 2]);
        assert_eq!(rows(CompareOp::Gt), [2]);
    }

    #[test]
    fn evaluate_mixed_numeric_types() {
        let c = Column::from(vec![1.0f64, 2.5, 4.0]);
        let p = ColumnPredicate::new("x", CompareOp::Gt, 2i64);
        assert_eq!(selected(&p, &c), [1, 2]);
        let ci = Column::from(vec![1i64, 3]);
        let p = ColumnPredicate::new("x", CompareOp::Lt, 2.5f64);
        assert_eq!(selected(&p, &ci), [0]);
    }

    #[test]
    fn evaluate_strings_and_bools() {
        let c = Column::from(vec!["apple".to_string(), "banana".into()]);
        let p = ColumnPredicate::new("s", CompareOp::Eq, "banana");
        assert_eq!(selected(&p, &c), [1]);
        let b = Column::from(vec![true, false, true]);
        let p = ColumnPredicate::new("b", CompareOp::Eq, true);
        assert_eq!(selected(&p, &b), [0, 2]);
    }

    #[test]
    fn type_mismatch_selects_nothing() {
        let c = Column::from(vec![1i64, 2]);
        let p = ColumnPredicate::new("x", CompareOp::Eq, "oops");
        assert!(selected(&p, &c).is_empty());
    }

    #[test]
    fn selectivity_estimates() {
        let c = Column::from((0..100i64).collect::<Vec<_>>());
        let stats = bqo_storage::ColumnStats::compute(&c);
        let eq = ColumnPredicate::new("x", CompareOp::Eq, 5i64).estimate_selectivity(&stats);
        assert!((eq - 0.01).abs() < 1e-9);
        let lt = ColumnPredicate::new("x", CompareOp::Lt, 50i64).estimate_selectivity(&stats);
        assert!((lt - 0.5).abs() < 0.05);
        let gt = ColumnPredicate::new("x", CompareOp::Gt, 75i64).estimate_selectivity(&stats);
        assert!((gt - 0.25).abs() < 0.05);
        let ne = ColumnPredicate::new("x", CompareOp::NotEq, 5i64).estimate_selectivity(&stats);
        assert!(ne > 0.98);
    }

    /// Soundness of zone-map pruning: whenever `range_may_pass` says a
    /// chunk's `[min, max]` cannot satisfy the predicate, evaluating the
    /// predicate over that chunk must select nothing — for every operator,
    /// every typed arm, and the mismatch/param fallbacks.
    #[test]
    fn range_may_pass_is_sound_against_evaluate() {
        use bqo_storage::Value;
        let ops = [
            CompareOp::Eq,
            CompareOp::NotEq,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        let columns = [
            Column::from(vec![3i64, 7, 7, 12]),
            Column::from(vec![7i64, 7]),
            Column::from(vec![-2.5f64, 0.0, 7.0]),
            Column::from(vec!["kiwi".to_string(), "mango".into()]),
            Column::from(vec![true, true]),
        ];
        let literals = [
            Value::Int64(7),
            Value::Int64(-100),
            Value::Float64(7.0),
            Value::Float64(0.25),
            Value::Utf8("mango".into()),
            Value::Bool(true),
            Value::Bool(false),
        ];
        for column in &columns {
            // The chunk's zone bounds under the same order zone maps use.
            let mut min = column.value(0);
            let mut max = column.value(0);
            for i in 1..column.len() {
                let v = column.value(i);
                if v.total_cmp(&min) == std::cmp::Ordering::Less {
                    min = v.clone();
                }
                if v.total_cmp(&max) == std::cmp::Ordering::Greater {
                    max = v;
                }
            }
            for op in ops {
                for lit in &literals {
                    let p = ColumnPredicate {
                        column: "c".into(),
                        op,
                        value: PredicateValue::Literal(lit.clone()),
                    };
                    if !p.range_may_pass(&min, &max) {
                        assert!(
                            selected(&p, column).is_empty(),
                            "pruned a passing chunk: {p} over {min:?}..{max:?}"
                        );
                    }
                }
                // Unbound parameters select nothing, so pruning is sound.
                let p = ColumnPredicate::param("c", op, "unbound");
                assert!(!p.range_may_pass(&min, &max));
            }
        }
        // Completeness spot-checks: in-range chunks are not prunable.
        let p = ColumnPredicate::new("c", CompareOp::Eq, 7i64);
        assert!(p.range_may_pass(&Value::Int64(3), &Value::Int64(12)));
        assert!(!p.range_may_pass(&Value::Int64(8), &Value::Int64(12)));
        let p = ColumnPredicate::new("c", CompareOp::NotEq, 7i64);
        assert!(!p.range_may_pass(&Value::Int64(7), &Value::Int64(7)));
        assert!(p.range_may_pass(&Value::Int64(7), &Value::Int64(8)));
        let p = ColumnPredicate::new("c", CompareOp::Lt, 5.5f64);
        assert!(p.range_may_pass(&Value::Int64(5), &Value::Int64(9)));
        assert!(!p.range_may_pass(&Value::Int64(6), &Value::Int64(9)));
    }

    #[test]
    fn display_is_readable() {
        let p = ColumnPredicate::new("price", CompareOp::Le, 10i64);
        assert_eq!(p.to_string(), "price <= 10");
        let p = ColumnPredicate::param("price", CompareOp::Le, "max_price");
        assert_eq!(p.to_string(), "price <= $max_price");
    }

    #[test]
    fn bind_substitutes_parameters() {
        let template = ColumnPredicate::param("price", CompareOp::Lt, "cap");
        assert!(template.is_parameterized());
        let bound = template.bind(&Params::new().set("cap", 10i64)).unwrap();
        assert!(!bound.is_parameterized());
        assert_eq!(bound, ColumnPredicate::new("price", CompareOp::Lt, 10i64));
        // Missing parameter is a descriptive error.
        let err = template.bind(&Params::new()).unwrap_err();
        assert!(matches!(
            err,
            bqo_storage::StorageError::UnboundParameter { ref name } if name == "cap"
        ));
        // Binding a literal predicate is a no-op regardless of params.
        let literal = ColumnPredicate::new("price", CompareOp::Lt, 5i64);
        assert_eq!(literal.bind(&Params::new()).unwrap(), literal);
    }

    #[test]
    fn unbound_parameter_selects_nothing_and_estimates_a_default() {
        let c = Column::from(vec![1i64, 2, 3]);
        let p = ColumnPredicate::param("x", CompareOp::Lt, "b");
        assert!(selected(&p, &c).is_empty());
        let stats = bqo_storage::ColumnStats::compute(&c);
        let sel = p.estimate_selectivity(&stats);
        assert!(sel > 0.0 && sel <= 1.0);
    }

    const OPS: [CompareOp; 6] = [
        CompareOp::Eq,
        CompareOp::NotEq,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ];
    /// 2^53 + 1 rounds to 2^53 as an `f64`: the mixed-numeric arms compare
    /// after that cast.
    const INTS: [i64; 9] = [-3, -1, 0, 1, 2, 7, i64::MIN, i64::MAX, (1 << 53) + 1];
    /// Both zeros and both NaNs: `total_cmp` orders -0.0 below 0.0 and NaN
    /// above infinity (-NaN below -infinity).
    const FLOATS: [f64; 11] = [
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        1.5,
        -2.5,
        7.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        2.0,
        9_007_199_254_740_992.0,
    ];
    const STRS: [&str; 6] = ["", "a", "apple", "b", "banana", "A"];

    /// A column of `kind` (Int64, Float64, Utf8, Bool) whose row `r` is the
    /// `cells[r]`-th value of that type's pool, cyclically.
    fn pool_column(kind: usize, cells: &[usize]) -> Column {
        match kind {
            0 => Column::Int64(cells.iter().map(|&c| INTS[c % INTS.len()]).collect()),
            1 => Column::Float64(cells.iter().map(|&c| FLOATS[c % FLOATS.len()]).collect()),
            2 => Column::Utf8(cells.iter().map(|&c| STRS[c % STRS.len()].into()).collect()),
            _ => Column::Bool(cells.iter().map(|&c| c % 2 == 1).collect()),
        }
    }

    /// Every literal of every pool, then an unbound parameter.
    fn every_right_hand_side() -> Vec<PredicateValue> {
        let ints = INTS.iter().map(|&v| Value::Int64(v));
        let floats = FLOATS.iter().map(|&v| Value::Float64(v));
        let strs = STRS.iter().map(|&v| Value::Utf8(v.into()));
        let bools = [Value::Bool(false), Value::Bool(true)].into_iter();
        let literals = ints.chain(floats).chain(strs).chain(bools);
        let mut values: Vec<PredicateValue> = literals.map(PredicateValue::Literal).collect();
        values.push(PredicateValue::Param("unbound".into()));
        values
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `select` over any row range and `retain` over any row list (in
        /// any order, with repeats) pick exactly the rows whose value `v`
        /// has `range_may_pass(&v, &v)` — the zone-map test, which compares
        /// arm by arm without sharing the selection code — for every
        /// operator, column type and right-hand side: matching,
        /// mixed-numeric and mismatched literals and an unbound parameter.
        #[test]
        fn selection_is_the_one_value_zone_test(
            cells in prop::collection::vec(0usize..64, 0..120),
            range in (0usize..121, 0usize..121),
            picks in prop::collection::vec(0usize..120, 0..80),
        ) {
            let len = cells.len();
            let start = range.0 % (len + 1);
            let end = start + range.1 % (len + 1 - start);
            let picks: Vec<usize> = if len == 0 {
                Vec::new()
            } else {
                picks.iter().map(|&p| p % len).collect()
            };
            for kind in 0..4 {
                let column = pool_column(kind, &cells);
                for value in every_right_hand_side() {
                    for op in OPS {
                        let p = ColumnPredicate { column: "c".into(), op, value: value.clone() };
                        let passes = |&row: &usize| {
                            let v = column.value(row);
                            p.range_may_pass(&v, &v)
                        };
                        let want: Vec<usize> = (start..end).filter(passes).collect();
                        prop_assert_eq!(p.select(&column, start..end), want);
                        let want: Vec<usize> = picks.iter().copied().filter(passes).collect();
                        let mut got = picks.clone();
                        p.retain(&column, &mut got);
                        prop_assert_eq!(got, want);
                    }
                }
            }
        }
    }

    #[test]
    fn params_accessors() {
        let params = Params::new().set("a", 1i64).set("b", "x");
        assert_eq!(params.len(), 2);
        assert!(!params.is_empty());
        assert_eq!(params.get("a"), Some(&bqo_storage::Value::Int64(1)));
        assert_eq!(params.get("missing"), None);
        assert_eq!(params.names().collect::<Vec<_>>(), vec!["a", "b"]);
        // Re-setting replaces.
        let params = params.set("a", 9i64);
        assert_eq!(params.get("a"), Some(&bqo_storage::Value::Int64(9)));
    }

    #[test]
    fn predicate_value_accessors() {
        let lit = PredicateValue::Literal(bqo_storage::Value::Int64(3));
        assert_eq!(lit.param_name(), None);
        let param = PredicateValue::Param("p".into());
        assert_eq!(param.param_name(), Some("p"));
        assert_eq!(param.to_string(), "$p");
    }
}
