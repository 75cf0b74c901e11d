//! Scalar expressions over tuples.

use crate::error::AlgebraError;
use crate::Result;
use pcqe_storage::{real_cmp, DataType, Image, Schema, Table, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Binary operators on scalar values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (always real division)
    Div,
    /// SQL `LIKE` pattern match (`%` = any run, `_` = any one character).
    Like,
}

impl BinaryOp {
    /// One of the six comparisons.
    fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// The comparison with its operands swapped: `a < b` is `b > a`.
    fn mirrored(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            symmetric => symmetric,
        }
    }

    /// Whether this comparison holds of operands [`Value::sql_cmp`] orders
    /// as `ord`.
    fn holds(self, ord: Ordering) -> bool {
        match self {
            BinaryOp::Eq => ord == Ordering::Equal,
            BinaryOp::Ne => ord != Ordering::Equal,
            BinaryOp::Lt => ord == Ordering::Less,
            BinaryOp::Le => ord != Ordering::Greater,
            BinaryOp::Gt => ord == Ordering::Greater,
            // Callers pass the six comparisons only.
            _ => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Like => "LIKE",
        };
        f.write_str(s)
    }
}

/// Unary operators on scalar values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// SQL `IS NULL` (never NULL itself: true/false).
    IsNull,
    /// SQL `IS NOT NULL`.
    IsNotNull,
}

/// A scalar expression, with column references already resolved to indexes
/// in the input schema (the SQL planner does the resolution).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Value of the input column at the given index.
    Column(usize),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Column reference by index.
    pub fn column(i: usize) -> ScalarExpr {
        ScalarExpr::Column(i)
    }

    /// Literal value.
    pub fn literal(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// Column reference resolved by (possibly qualified) name.
    pub fn named(schema: &Schema, qualifier: Option<&str>, name: &str) -> Result<ScalarExpr> {
        Ok(ScalarExpr::Column(schema.resolve(qualifier, name)?))
    }

    fn binary(self, op: BinaryOp, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    /// `self = rhs`
    pub fn eq(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Eq, rhs)
    }

    /// `self <> rhs`
    pub fn ne(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Ne, rhs)
    }

    /// `self < rhs`
    pub fn lt(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Lt, rhs)
    }

    /// `self <= rhs`
    pub fn le(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Le, rhs)
    }

    /// `self > rhs`
    pub fn gt(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Gt, rhs)
    }

    /// `self >= rhs`
    pub fn ge(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Ge, rhs)
    }

    /// `self AND rhs`
    pub fn and(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::And, rhs)
    }

    /// `self OR rhs`
    pub fn or(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Or, rhs)
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> ScalarExpr {
        ScalarExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }

    /// `self + rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Add, rhs)
    }

    /// `self - rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Sub, rhs)
    }

    /// `self * rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Mul, rhs)
    }

    /// `self / rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: ScalarExpr) -> ScalarExpr {
        self.binary(BinaryOp::Div, rhs)
    }

    /// All column indexes referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        fn collect(e: &ScalarExpr, out: &mut Vec<usize>) {
            match e {
                ScalarExpr::Column(i) => {
                    if !out.contains(i) {
                        out.push(*i);
                    }
                }
                ScalarExpr::Literal(_) => {}
                ScalarExpr::Binary { left, right, .. } => {
                    collect(left, out);
                    collect(right, out);
                }
                ScalarExpr::Unary { expr, .. } => collect(expr, out),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// Shift every column index by `delta` (used when a predicate moves
    /// from a joined schema onto the right input).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a shift would underflow.
    pub fn shift_columns(&self, delta: isize) -> ScalarExpr {
        match self {
            ScalarExpr::Column(i) => {
                let shifted = *i as isize + delta;
                debug_assert!(shifted >= 0, "column shift underflow");
                ScalarExpr::Column(shifted.max(0) as usize)
            }
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.shift_columns(delta)),
                right: Box::new(right.shift_columns(delta)),
            },
            ScalarExpr::Unary { op, expr } => ScalarExpr::Unary {
                op: *op,
                expr: Box::new(expr.shift_columns(delta)),
            },
        }
    }

    /// Infer the expression's output type against an input schema.
    pub fn infer_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            ScalarExpr::Column(i) => schema
                .columns()
                .get(*i)
                .map(|c| c.data_type)
                .ok_or_else(|| AlgebraError::Type(format!("column index {i} out of range"))),
            ScalarExpr::Literal(v) => Ok(v.data_type().unwrap_or(DataType::Text)),
            ScalarExpr::Binary { op, left, right } => {
                let lt = left.infer_type(schema)?;
                let rt = right.infer_type(schema)?;
                match op {
                    BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
                    | BinaryOp::And
                    | BinaryOp::Or => Ok(DataType::Bool),
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => {
                        if lt == DataType::Int && rt == DataType::Int {
                            Ok(DataType::Int)
                        } else {
                            Ok(DataType::Real)
                        }
                    }
                    BinaryOp::Div => Ok(DataType::Real),
                    BinaryOp::Like => Ok(DataType::Bool),
                }
            }
            ScalarExpr::Unary { op, expr } => match op {
                UnaryOp::Not | UnaryOp::IsNull | UnaryOp::IsNotNull => Ok(DataType::Bool),
                UnaryOp::Neg => expr.infer_type(schema),
            },
        }
    }

    /// Evaluate the expression on a row of values.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            ScalarExpr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| AlgebraError::Type(format!("column index {i} out of range"))),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Binary { op, left, right } => {
                // Logical connectives get SQL-ish short-circuit treatment.
                match op {
                    BinaryOp::And => {
                        let l = left.eval(row)?;
                        if l == Value::Bool(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = right.eval(row)?;
                        return eval_logic(BinaryOp::And, &l, &r);
                    }
                    BinaryOp::Or => {
                        let l = left.eval(row)?;
                        if l == Value::Bool(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = right.eval(row)?;
                        return eval_logic(BinaryOp::Or, &l, &r);
                    }
                    _ => {}
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                match op {
                    BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge => eval_cmp(*op, &l, &r),
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
                        eval_arith(*op, &l, &r)
                    }
                    BinaryOp::Like => eval_like(&l, &r),
                    // Short-circuit handling above returned early; if
                    // control ever falls through, `eval_logic` computes the
                    // same three-valued result (no panic path, PCQE-P002).
                    BinaryOp::And | BinaryOp::Or => eval_logic(*op, &l, &r),
                }
            }
            ScalarExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        Value::Null => Ok(Value::Null),
                        other => Err(AlgebraError::Type(format!("NOT applied to {other}"))),
                    },
                    UnaryOp::Neg => match v {
                        Value::Int(i) => i
                            .checked_neg()
                            .map(Value::Int)
                            .ok_or_else(|| AlgebraError::Type("integer overflow".into())),
                        Value::Real(r) => Ok(Value::Real(-r)),
                        Value::Null => Ok(Value::Null),
                        other => Err(AlgebraError::Type(format!("negation of {other}"))),
                    },
                    UnaryOp::IsNull => Ok(Value::Bool(v.is_null())),
                    UnaryOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
                }
            }
        }
    }

    /// Evaluate the expression as a predicate: `true` only when the result
    /// is boolean true (NULL counts as false, SQL-style). This tree walk
    /// is the reference; the vectorized executor tests rows through
    /// [`ScalarExpr::compile`], which is held to it result for result.
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(AlgebraError::Type(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }

    /// [`ScalarExpr::eval`] without the clone where the value already
    /// exists: a column is borrowed from the row, a literal from the
    /// expression; anything else is computed.
    pub(crate) fn eval_ref<'a>(&'a self, row: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            ScalarExpr::Column(i) => row
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| AlgebraError::Type(format!("column index {i} out of range"))),
            ScalarExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            computed => computed.eval(row).map(Cow::Owned),
        }
    }

    /// Compile the expression into a [`Predicate`]: once per operator,
    /// then [`Predicate::test`] per row.
    pub fn compile(&self) -> Predicate<'_> {
        Predicate(Node::compile(self))
    }

    /// Visit the conjuncts of the top-level `AND` chain in evaluation
    /// order — an expression that is not an `AND` is its own sole conjunct
    /// — for as long as `visit` says to go on; `false` once it has not.
    /// With [`ScalarExpr::into_conjuncts`], the only code that takes a
    /// predicate apart: the optimizer, the planner and the scan all read
    /// a chain through it, so they cannot disagree on what its conjuncts
    /// are or on their order.
    fn each_conjunct<'e>(&'e self, visit: &mut impl FnMut(&'e ScalarExpr) -> bool) -> bool {
        match self {
            ScalarExpr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => left.each_conjunct(visit) && right.each_conjunct(visit),
            conjunct => visit(conjunct),
        }
    }

    /// The conjuncts of the top-level `AND` chain, in evaluation order.
    pub(crate) fn conjuncts(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        self.each_conjunct(&mut |conjunct| {
            out.push(conjunct);
            true
        });
        out
    }

    /// [`ScalarExpr::conjuncts`] by value, appended to `out`.
    pub(crate) fn into_conjuncts(self, out: &mut Vec<ScalarExpr>) {
        match self {
            ScalarExpr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                left.into_conjuncts(out);
                right.into_conjuncts(out);
            }
            conjunct => out.push(conjunct),
        }
    }

    /// `AND` conjuncts back together, evaluation order kept (`None` when
    /// there are none).
    pub(crate) fn and_all(conjuncts: impl IntoIterator<Item = ScalarExpr>) -> Option<ScalarExpr> {
        conjuncts.into_iter().reduce(ScalarExpr::and)
    }

    /// This expression as `column <cmp> literal`, if it is one of the six
    /// comparisons between a column and a literal in either operand order
    /// (`3 < #0` reads `#0 > 3`).
    pub(crate) fn column_cmp_literal(&self) -> Option<ColumnCmp<'_>> {
        let ScalarExpr::Binary { op, left, right } = self else {
            return None;
        };
        let (column, op, literal) = match (&**left, &**right) {
            (ScalarExpr::Column(c), ScalarExpr::Literal(l)) => (*c, *op, l),
            (ScalarExpr::Literal(l), ScalarExpr::Column(c)) => (*c, op.mirrored(), l),
            _ => return None,
        };
        op.is_comparison().then_some(ColumnCmp {
            column,
            op,
            literal,
        })
    }

    /// Split off the predicate's [`LeadingRun`] over `table`, whose columns
    /// the expression reads: once per scan operator, or per planned scan.
    pub fn leading_run<'a>(&'a self, table: &'a Table) -> LeadingRun<'a> {
        let columns = table.schema().columns();
        let mut conjuncts = Vec::new();
        self.each_conjunct(&mut |conjunct| {
            let in_run = conjunct.column_cmp_literal().filter(|cmp| {
                let column = columns.get(cmp.column);
                column.is_some_and(|c| type_safe(c.data_type, cmp.literal))
            });
            conjuncts.extend(in_run);
            in_run.is_some()
        });
        LeadingRun { table, conjuncts }
    }
}

/// Whether comparing a column of type `column` with `literal` can never
/// fault: [`Value::sql_cmp`] orders the literal against everything the
/// column may hold besides NULL (a `REAL` column also holds widened
/// `Int`s, and any two numbers compare).
fn type_safe(column: DataType, literal: &Value) -> bool {
    matches!(
        (column, literal),
        (
            DataType::Int | DataType::Real,
            Value::Int(_) | Value::Real(_)
        ) | (DataType::Text, Value::Text(_))
            | (DataType::Bool, Value::Bool(_))
    )
}

/// `column <op> literal`, the column on the left whichever side it was
/// written on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnCmp<'e> {
    pub(crate) column: usize,
    pub(crate) op: BinaryOp,
    pub(crate) literal: &'e Value,
}

/// The *leading run* of a base-table predicate: the longest prefix of its
/// top-level `AND` chain, in evaluation order, whose conjuncts are
/// *type-safe* `column <cmp> literal` comparisons (either operand order,
/// all six comparisons) — by the table's schema and [`Value::sql_cmp`], a
/// numeric column against a numeric literal, `TEXT` against `TEXT`, `BOOL`
/// against `BOOL`, and nothing else.
///
/// No conjunct of the run can fault — a column holds values of its type
/// and NULLs (a `REAL` one also widened `Int`s), and `sql_cmp` orders any
/// two numbers, texts or booleans — and `AND` stops on a definite left
/// `false` and only then. So on a row where some conjunct of the run is
/// definitely false, the whole predicate returns `Ok(false)` without
/// raising, whatever follows the run: such a row may be skipped without
/// evaluating anything. That is the one skip rule, and the run answers
/// both sources of skips. A column image ([`pcqe_storage::image`]) decides
/// "definitely false" for a conjunct over a `REAL` column on *native*
/// slots only (the stored value is a `Real`, not a NULL or a widened
/// `Int`), by [`real_cmp`], the very comparison `sql_cmp` would make
/// ([`LeadingRun::candidates`]). An equality index decides it for a `=`
/// conjunct on every row that holds another non-NULL key, which is why
/// the planner takes an index scan's key from the run and nowhere else
/// ([`LeadingRun::conjuncts`]). Every other row is a *candidate*, for
/// the whole predicate to decide. A conjunct behind a fallible one, a
/// NULL literal, arithmetic, column against column or an `OR` is never in
/// the run: skipping on it could swallow an error the row-wise evaluation
/// raises first.
#[derive(Debug)]
pub struct LeadingRun<'a> {
    table: &'a Table,
    /// The run's conjuncts, in evaluation order.
    conjuncts: Vec<ColumnCmp<'a>>,
}

impl<'a> LeadingRun<'a> {
    /// The run's conjuncts, in evaluation order.
    pub(crate) fn conjuncts(&self) -> &[ColumnCmp<'a>] {
        &self.conjuncts
    }

    /// The positions of the table's rows that are candidates by its column
    /// images, ascending: all but those where a conjunct of the run is
    /// false on a native slot. `None` when no conjunct of the run is over
    /// an imaged column, which drops nothing: every row is a candidate.
    /// Every position left out has
    /// `predicate.compile().test(row) == Ok(false)`.
    pub fn candidates(&self) -> Option<Vec<usize>> {
        // The arm of `Value::sql_cmp` a `Real` against a number takes: the
        // real order, an `Int` literal widened.
        let imaged: Vec<ImagedCmp<'_>> = self
            .conjuncts
            .iter()
            .filter_map(|c| Some((c.op, self.table.image(c.column)?, c.literal.as_f64()?)))
            .collect();
        if imaged.is_empty() {
            return None;
        }
        // Per 64 rows, the ones no conjunct drops: a bit per row.
        let rows = self.table.len();
        let live: Vec<u64> = (0..rows.div_ceil(64))
            .map(|word| {
                let rows = (rows - 64 * word).min(64);
                !dropped(&imaged, word) & (u64::MAX >> (64 - rows))
            })
            .collect();
        let count = live.iter().map(|word| word.count_ones() as usize).sum();
        let mut candidates = Vec::with_capacity(count);
        for (word, mut live) in live.into_iter().enumerate() {
            while live != 0 {
                candidates.push(64 * word + live.trailing_zeros() as usize);
                live &= live - 1;
            }
        }
        Some(candidates)
    }
}

/// A run conjunct over an imaged column: the column's image, and the
/// literal as the real `sql_cmp` compares it as.
type ImagedCmp<'t> = (BinaryOp, &'t Image, f64);

/// Of the rows `64 * word ..`, those where some conjunct is false on a
/// native slot, as a bitmask. One [`Image::failing`] instance per
/// comparison, so that each inner loop is a single compare.
fn dropped(conjuncts: &[ImagedCmp<'_>], word: usize) -> u64 {
    conjuncts.iter().fold(0, |dropped, &(op, image, lit)| {
        let cmp = |v| real_cmp(v, lit);
        dropped
            | match op {
                BinaryOp::Eq => image.failing(word, |v| BinaryOp::Eq.holds(cmp(v))),
                BinaryOp::Ne => image.failing(word, |v| BinaryOp::Ne.holds(cmp(v))),
                BinaryOp::Lt => image.failing(word, |v| BinaryOp::Lt.holds(cmp(v))),
                BinaryOp::Le => image.failing(word, |v| BinaryOp::Le.holds(cmp(v))),
                BinaryOp::Gt => image.failing(word, |v| BinaryOp::Gt.holds(cmp(v))),
                // A run holds the six comparisons only.
                _ => image.failing(word, |v| BinaryOp::Ge.holds(cmp(v))),
            }
    })
}

/// A predicate compiled for repeated testing: the connectives and
/// comparisons of the tree become nodes that yield a three-valued truth
/// without building a [`Value`], over column and literal operands
/// borrowed from the row and the expression. Everything else (arithmetic,
/// `LIKE`, unary operators) is an operand run through
/// [`ScalarExpr::eval`]. Observably identical to
/// [`ScalarExpr::eval_predicate`]: same result, same evaluation order,
/// same error for the same row.
#[derive(Debug)]
pub struct Predicate<'e>(Node<'e>);

impl Predicate<'_> {
    /// `true` only when the predicate is boolean true on `row`.
    pub fn test(&self, row: &[Value]) -> Result<bool> {
        match self.0.eval(row) {
            Ok(truth) => Ok(truth == Some(true)),
            Err(Fault::NotBool(v)) => Err(AlgebraError::Type(format!(
                "predicate evaluated to non-boolean {v}"
            ))),
            Err(Fault::Error(e)) => Err(e),
        }
    }
}

/// What a boolean position evaluates to: a three-valued truth (`None` is
/// NULL), or why it has none.
type Truth = std::result::Result<Option<bool>, Fault>;

/// Why a boolean position has no truth value.
enum Fault {
    /// It holds a non-boolean value (rendered). Not yet an error: the
    /// position above decides whose error is reported, and words it.
    NotBool(String),
    /// Evaluation failed.
    Error(AlgebraError),
}

impl From<AlgebraError> for Fault {
    fn from(e: AlgebraError) -> Fault {
        Fault::Error(e)
    }
}

#[derive(Debug)]
enum Node<'e> {
    And(Box<Node<'e>>, Box<Node<'e>>),
    Or(Box<Node<'e>>, Box<Node<'e>>),
    /// One of the six comparisons over two operands.
    Cmp(BinaryOp, &'e ScalarExpr, &'e ScalarExpr),
    /// Any other expression in a boolean position.
    Value(&'e ScalarExpr),
}

impl<'e> Node<'e> {
    fn compile(e: &'e ScalarExpr) -> Node<'e> {
        let ScalarExpr::Binary { op, left, right } = e else {
            return Node::Value(e);
        };
        match op {
            BinaryOp::And => Node::And(
                Box::new(Node::compile(left)),
                Box::new(Node::compile(right)),
            ),
            BinaryOp::Or => Node::Or(
                Box::new(Node::compile(left)),
                Box::new(Node::compile(right)),
            ),
            op if op.is_comparison() => Node::Cmp(*op, left, right),
            _ => Node::Value(e),
        }
    }

    fn eval(&self, row: &[Value]) -> Truth {
        match self {
            Node::Value(e) => match &*e.eval_ref(row)? {
                Value::Bool(b) => Ok(Some(*b)),
                Value::Null => Ok(None),
                other => Err(Fault::NotBool(other.to_string())),
            },
            Node::Cmp(op, left, right) => {
                let (l, r) = (left.eval_ref(row)?, right.eval_ref(row)?);
                let Some(ord) = l.sql_cmp(&r) else {
                    if l.is_null() || r.is_null() {
                        return Ok(None);
                    }
                    return Err(AlgebraError::Type(format!("cannot compare {l} with {r}")).into());
                };
                // `compile` builds `Cmp` from the six comparisons only.
                Ok(Some(op.holds(ord)))
            }
            // Only a definite left `false` (`AND`) or `true` (`OR`) stops a
            // connective: a NULL or non-boolean left still runs the right
            // side, whose error wins over the left's non-boolean value.
            Node::And(left, right) => match left.eval(row) {
                l @ (Ok(Some(false)) | Err(Fault::Error(_))) => l,
                l => connect(l, right.eval(row), false),
            },
            Node::Or(left, right) => match left.eval(row) {
                l @ (Ok(Some(true)) | Err(Fault::Error(_))) => l,
                l => connect(l, right.eval(row), true),
            },
        }
    }
}

/// Kleene `AND` (`absorbing = false`) or `OR` (`absorbing = true`) of a
/// left side that did not stop the connective and the right side.
fn connect(l: Truth, r: Truth, absorbing: bool) -> Truth {
    match (l, r) {
        (Err(Fault::Error(e)), _) | (_, Err(Fault::Error(e))) => Err(Fault::Error(e)),
        (Err(Fault::NotBool(v)), _) | (_, Err(Fault::NotBool(v))) => {
            Err(AlgebraError::Type(format!("logic applied to {v}")).into())
        }
        (Ok(a), Ok(b)) if a == Some(absorbing) || b == Some(absorbing) => Ok(Some(absorbing)),
        (Ok(Some(_)), Ok(Some(_))) => Ok(Some(!absorbing)),
        _ => Ok(None),
    }
}

fn eval_logic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    let as_bool = |v: &Value| -> Result<Option<bool>> {
        match v {
            Value::Bool(b) => Ok(Some(*b)),
            Value::Null => Ok(None),
            other => Err(AlgebraError::Type(format!("logic applied to {other}"))),
        }
    };
    let (a, b) = (as_bool(l)?, as_bool(r)?);
    // Three-valued logic.
    let out = match op {
        BinaryOp::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        other => {
            return Err(AlgebraError::Type(format!(
                "{other:?} is not a logical connective"
            )))
        }
    };
    Ok(out.map_or(Value::Null, Value::Bool))
}

fn eval_cmp(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    let Some(ord) = l.sql_cmp(r) else {
        // NULL or incomparable types → NULL (filtered out by predicates).
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        return Err(AlgebraError::Type(format!("cannot compare {l} with {r}")));
    };
    let b = match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::Ne => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::Le => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::Ge => ord != Ordering::Less,
        other => {
            return Err(AlgebraError::Type(format!(
                "{other:?} is not a comparison operator"
            )))
        }
    };
    Ok(Value::Bool(b))
}

/// SQL LIKE: `%` matches any run (including empty), `_` any one char.
fn eval_like(l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let (Some(text), Some(pattern)) = (l.as_text(), r.as_text()) else {
        return Err(AlgebraError::Type(format!(
            "LIKE needs text operands, got {l} and {r}"
        )));
    };
    Ok(Value::Bool(like_match(
        &text.chars().collect::<Vec<_>>(),
        &pattern.chars().collect::<Vec<_>>(),
    )))
}

fn like_match(text: &[char], pattern: &[char]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some(('%', rest)) => {
            // Greedy with backtracking: try every split point. `get`
            // instead of slicing keeps the matcher panic-free (PCQE-P002).
            (0..=text.len()).any(|i| text.get(i..).is_some_and(|t| like_match(t, rest)))
        }
        Some(('_', rest)) => text.split_first().is_some_and(|(_, t)| like_match(t, rest)),
        Some((c, rest)) => text
            .split_first()
            .is_some_and(|(t0, t)| t0 == c && like_match(t, rest)),
    }
}

fn eval_arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op != BinaryOp::Div {
        if let (Value::Int(a), Value::Int(b)) = (l, r) {
            let out = match op {
                BinaryOp::Add => a.checked_add(*b),
                BinaryOp::Sub => a.checked_sub(*b),
                BinaryOp::Mul => a.checked_mul(*b),
                other => {
                    return Err(AlgebraError::Type(format!(
                        "{other:?} is not an arithmetic operator"
                    )))
                }
            };
            return out
                .map(Value::Int)
                .ok_or_else(|| AlgebraError::Type("integer overflow".into()));
        }
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(AlgebraError::Type(format!(
                "arithmetic on non-numeric values {l}, {r}"
            )))
        }
    };
    let out = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            // Exact-zero check on purpose (see lint.toml, PCQE-D004).
            #[allow(clippy::float_cmp)]
            if b == 0.0 {
                return Err(AlgebraError::Type("division by zero".into()));
            }
            a / b
        }
        other => {
            return Err(AlgebraError::Type(format!(
                "{other:?} is not an arithmetic operator"
            )))
        }
    };
    Ok(Value::Real(out))
}

impl fmt::Display for ScalarExpr {
    /// Compact infix rendering for plan output: columns as `#i` (positions
    /// in the input schema), text literals quoted, compound expressions
    /// parenthesised. Deterministic — used in golden EXPLAIN snapshots.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(i) => write!(f, "#{i}"),
            ScalarExpr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::IsNull => write!(f, "({expr} IS NULL)"),
                UnaryOp::IsNotNull => write!(f, "({expr} IS NOT NULL)"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::text("abc"),
            Value::Real(2.5),
            Value::Null,
        ]
    }

    #[test]
    fn column_and_literal() {
        let r = row();
        assert_eq!(ScalarExpr::column(0).eval(&r).unwrap(), Value::Int(10));
        assert_eq!(
            ScalarExpr::literal(Value::Bool(true)).eval(&r).unwrap(),
            Value::Bool(true)
        );
        assert!(ScalarExpr::column(9).eval(&r).is_err());
    }

    #[test]
    fn comparisons_coerce_numerics() {
        let r = row();
        let e = ScalarExpr::column(0).gt(ScalarExpr::literal(Value::Real(9.5)));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let e = ScalarExpr::column(2).le(ScalarExpr::literal(Value::Int(2)));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn null_comparisons_yield_null_and_fail_predicates() {
        let r = row();
        let e = ScalarExpr::column(3).eq(ScalarExpr::literal(Value::Int(1)));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&r).unwrap());
    }

    #[test]
    fn incomparable_types_error() {
        let r = row();
        let e = ScalarExpr::column(1).lt(ScalarExpr::literal(Value::Int(1)));
        assert!(e.eval(&r).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let r = row();
        let null_cmp = ScalarExpr::column(3).eq(ScalarExpr::literal(Value::Int(1)));
        let truth = ScalarExpr::literal(Value::Bool(true));
        let falsity = ScalarExpr::literal(Value::Bool(false));
        // NULL OR TRUE = TRUE; NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
        assert_eq!(
            null_cmp.clone().or(truth.clone()).eval(&r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            null_cmp.clone().and(falsity).eval(&r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(null_cmp.and(truth).eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        let r = row();
        // RHS would error (NOT on an int), but LHS short-circuits.
        let bad = ScalarExpr::column(0).not();
        let e = ScalarExpr::literal(Value::Bool(false)).and(bad.clone());
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
        let e = ScalarExpr::literal(Value::Bool(true)).or(bad);
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic_typing() {
        let r = row();
        let int_sum = ScalarExpr::column(0).add(ScalarExpr::literal(Value::Int(5)));
        assert_eq!(int_sum.eval(&r).unwrap(), Value::Int(15));
        let mixed = ScalarExpr::column(0).mul(ScalarExpr::column(2));
        assert_eq!(mixed.eval(&r).unwrap(), Value::Real(25.0));
        let div = ScalarExpr::column(0).div(ScalarExpr::literal(Value::Int(4)));
        assert_eq!(div.eval(&r).unwrap(), Value::Real(2.5));
        let div0 = ScalarExpr::column(0).div(ScalarExpr::literal(Value::Int(0)));
        assert!(div0.eval(&r).is_err());
    }

    #[test]
    fn overflow_is_reported() {
        let r = vec![Value::Int(i64::MAX)];
        let e = ScalarExpr::column(0).add(ScalarExpr::literal(Value::Int(1)));
        assert!(e.eval(&r).is_err());
    }

    #[test]
    fn like_patterns() {
        let like = |text: &str, pattern: &str| {
            ScalarExpr::literal(Value::text(text))
                .binary(BinaryOp::Like, ScalarExpr::literal(Value::text(pattern)))
                .eval(&[])
                .unwrap()
        };
        assert_eq!(like("SkyCam", "Sky%"), Value::Bool(true));
        assert_eq!(like("SkyCam", "%Cam"), Value::Bool(true));
        assert_eq!(like("SkyCam", "S_yCam"), Value::Bool(true));
        assert_eq!(like("SkyCam", "sky%"), Value::Bool(false), "case-sensitive");
        assert_eq!(like("", "%"), Value::Bool(true));
        assert_eq!(like("", "_"), Value::Bool(false));
        assert_eq!(like("abc", "%b%"), Value::Bool(true));
        assert_eq!(like("abc", "a%c%d"), Value::Bool(false));
        // NULL propagates; non-text errors.
        let null_like = ScalarExpr::literal(Value::Null)
            .binary(BinaryOp::Like, ScalarExpr::literal(Value::text("%")));
        assert_eq!(null_like.eval(&[]).unwrap(), Value::Null);
        let bad = ScalarExpr::literal(Value::Int(1))
            .binary(BinaryOp::Like, ScalarExpr::literal(Value::text("%")));
        assert!(bad.eval(&[]).is_err());
    }

    #[test]
    fn is_null_operators() {
        let r = vec![Value::Null, Value::Int(1)];
        let isnull = |i: usize| ScalarExpr::Unary {
            op: UnaryOp::IsNull,
            expr: Box::new(ScalarExpr::column(i)),
        };
        let isnotnull = |i: usize| ScalarExpr::Unary {
            op: UnaryOp::IsNotNull,
            expr: Box::new(ScalarExpr::column(i)),
        };
        assert_eq!(isnull(0).eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(isnull(1).eval(&r).unwrap(), Value::Bool(false));
        assert_eq!(isnotnull(0).eval(&r).unwrap(), Value::Bool(false));
        assert_eq!(isnotnull(1).eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unary_ops() {
        let r = row();
        let neg = ScalarExpr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(ScalarExpr::column(0)),
        };
        assert_eq!(neg.eval(&r).unwrap(), Value::Int(-10));
        let not = ScalarExpr::literal(Value::Bool(true)).not();
        assert_eq!(not.eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn type_inference() {
        use pcqe_storage::{Column, Schema};
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("r", DataType::Real),
        ])
        .unwrap();
        let ii = ScalarExpr::column(0).add(ScalarExpr::column(0));
        assert_eq!(ii.infer_type(&schema).unwrap(), DataType::Int);
        let ir = ScalarExpr::column(0).add(ScalarExpr::column(1));
        assert_eq!(ir.infer_type(&schema).unwrap(), DataType::Real);
        let cmp = ScalarExpr::column(0).lt(ScalarExpr::column(1));
        assert_eq!(cmp.infer_type(&schema).unwrap(), DataType::Bool);
    }
}
