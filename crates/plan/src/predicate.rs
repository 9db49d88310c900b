//! Local (single-table) predicates, with optional parameter placeholders.

use bqo_storage::{Column, ColumnStats, StorageError, Value};
use std::collections::BTreeMap;
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

    /// Evaluates the predicate against every row of a column, producing a
    /// selection mask.
    pub fn evaluate(&self, column: &Column) -> Vec<bool> {
        self.evaluate_range(column, 0, column.len())
    }

    /// Evaluates the predicate against the rows `start..end` of a column,
    /// producing a selection mask of length `end - start`. This is the
    /// morsel-kernel entry point: evaluating a column range by range yields
    /// exactly the same mask as one whole-column [`ColumnPredicate::evaluate`]
    /// pass.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > column.len()`.
    pub fn evaluate_range(&self, column: &Column, start: usize, end: usize) -> Vec<bool> {
        let mut mask = vec![false; end - start];
        // An unbound parameter selects nothing; graph resolution rejects
        // parameterized predicates before execution, so this arm is only a
        // defensive fallback (mirroring the type-mismatch behaviour below).
        let PredicateValue::Literal(value) = &self.value else {
            return mask;
        };
        match (column, value) {
            (Column::Int64(values), Value::Int64(lit)) => {
                for (m, v) in mask.iter_mut().zip(&values[start..end]) {
                    *m = compare_ord(v.cmp(lit), self.op);
                }
            }
            (Column::Int64(values), Value::Float64(lit)) => {
                for (m, v) in mask.iter_mut().zip(&values[start..end]) {
                    *m = compare_ord((*v as f64).total_cmp(lit), self.op);
                }
            }
            (Column::Float64(values), Value::Float64(lit)) => {
                for (m, v) in mask.iter_mut().zip(&values[start..end]) {
                    *m = compare_ord(v.total_cmp(lit), self.op);
                }
            }
            (Column::Float64(values), Value::Int64(lit)) => {
                let lit = *lit as f64;
                for (m, v) in mask.iter_mut().zip(&values[start..end]) {
                    *m = compare_ord(v.total_cmp(&lit), self.op);
                }
            }
            (Column::Utf8(values), Value::Utf8(lit)) => {
                for (m, v) in mask.iter_mut().zip(&values[start..end]) {
                    *m = compare_ord(v.as_str().cmp(lit.as_str()), self.op);
                }
            }
            (Column::Bool(values), Value::Bool(lit)) => {
                for (m, v) in mask.iter_mut().zip(&values[start..end]) {
                    *m = compare_ord(v.cmp(lit), self.op);
                }
            }
            // Type mismatch: nothing qualifies. Workload generators never
            // produce mismatched predicates, but a silent empty result is a
            // safer behaviour than a panic for user-written queries.
            _ => {}
        }
        mask
    }

    /// Zone-map test: can *any* value `v` with `min <= v <= max` (under
    /// [`Value::total_cmp`], the order zone maps are computed in) satisfy
    /// this predicate? `false` proves the whole range fails, so a scan may
    /// skip a chunk with these bounds without reading it.
    ///
    /// Mirrors [`ColumnPredicate::evaluate_range`] arm by arm: the typed
    /// comparisons match, a type-mismatched predicate selects nothing (so
    /// the range is prunable), and an unbound parameter likewise selects
    /// nothing. The monotone `i64 -> f64` casts keep the mixed-numeric
    /// arms consistent with row-at-a-time evaluation.
    pub fn range_may_pass(&self, min: &Value, max: &Value) -> bool {
        let PredicateValue::Literal(value) = &self.value else {
            return false;
        };
        // Orderings of the range endpoints against the literal, in the
        // same typed comparison evaluate_range uses. `None` is the
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

fn compare_ord(ord: std::cmp::Ordering, op: CompareOp) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CompareOp::Eq => ord == Equal,
        CompareOp::NotEq => ord != Equal,
        CompareOp::Lt => ord == Less,
        CompareOp::Le => ord != Greater,
        CompareOp::Gt => ord == Greater,
        CompareOp::Ge => ord != Less,
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

    #[test]
    fn evaluate_range_matches_whole_column_pass() {
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
            let whole = p.evaluate(&c);
            // Any partitioning into ranges reproduces the whole-column mask.
            for split in 0..=c.len() {
                let mut stitched = p.evaluate_range(&c, 0, split);
                stitched.extend(p.evaluate_range(&c, split, c.len()));
                assert_eq!(stitched, whole, "{op:?} split {split}");
            }
        }
        assert!(ColumnPredicate::new("x", CompareOp::Eq, 4i64)
            .evaluate_range(&c, 3, 3)
            .is_empty());
    }

    #[test]
    fn evaluate_int_comparisons() {
        let c = Column::from(vec![1i64, 5, 10]);
        assert_eq!(
            ColumnPredicate::new("x", CompareOp::Lt, 5i64).evaluate(&c),
            vec![true, false, false]
        );
        assert_eq!(
            ColumnPredicate::new("x", CompareOp::Le, 5i64).evaluate(&c),
            vec![true, true, false]
        );
        assert_eq!(
            ColumnPredicate::new("x", CompareOp::Eq, 5i64).evaluate(&c),
            vec![false, true, false]
        );
        assert_eq!(
            ColumnPredicate::new("x", CompareOp::NotEq, 5i64).evaluate(&c),
            vec![true, false, true]
        );
        assert_eq!(
            ColumnPredicate::new("x", CompareOp::Ge, 5i64).evaluate(&c),
            vec![false, true, true]
        );
        assert_eq!(
            ColumnPredicate::new("x", CompareOp::Gt, 5i64).evaluate(&c),
            vec![false, false, true]
        );
    }

    #[test]
    fn evaluate_mixed_numeric_types() {
        let c = Column::from(vec![1.0f64, 2.5, 4.0]);
        let mask = ColumnPredicate::new("x", CompareOp::Gt, 2i64).evaluate(&c);
        assert_eq!(mask, vec![false, true, true]);
        let ci = Column::from(vec![1i64, 3]);
        let mask = ColumnPredicate::new("x", CompareOp::Lt, 2.5f64).evaluate(&ci);
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn evaluate_strings_and_bools() {
        let c = Column::from(vec!["apple".to_string(), "banana".into()]);
        let mask = ColumnPredicate::new("s", CompareOp::Eq, "banana").evaluate(&c);
        assert_eq!(mask, vec![false, true]);
        let b = Column::from(vec![true, false, true]);
        let mask = ColumnPredicate::new("b", CompareOp::Eq, true).evaluate(&b);
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn type_mismatch_selects_nothing() {
        let c = Column::from(vec![1i64, 2]);
        let mask = ColumnPredicate::new("x", CompareOp::Eq, "oops").evaluate(&c);
        assert_eq!(mask, vec![false, false]);
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
                            p.evaluate(column).iter().all(|&m| !m),
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
        assert_eq!(p.evaluate(&c), vec![false, false, false]);
        let stats = bqo_storage::ColumnStats::compute(&c);
        let sel = p.estimate_selectivity(&stats);
        assert!(sel > 0.0 && sel <= 1.0);
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
