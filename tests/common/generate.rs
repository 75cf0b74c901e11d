//! The one seeded generator the equivalence suites draw from: a database
//! as data ([`DbSpec`]), a query over it as an AST that prints to SQL
//! ([`Query`]), and a shrinker that reduces a failing pair to a few rows
//! and a one-line query, printed as a ready-to-paste `#[test]`
//! ([`check_generated`]).

use super::{check_sql, Agreed};
use pcqe::algebra::{BinaryOp, ScalarExpr, UnaryOp};
use pcqe::engine::{Database, EngineConfig};
use pcqe::lineage::Rng64;
use pcqe::storage::DataType::{Bool, Int, Real, Text};
use pcqe::storage::{Catalog, Column, DataType, Schema, Value};
use std::fmt::Write;

/// A database as data: its tables in creation order, each with its rows
/// (and their confidences) in insertion order and the columns it indexes.
/// Tuple ids follow the rows, table by table, from 0.
#[derive(Clone, Debug, Default)]
pub struct DbSpec {
    pub tables: Vec<TableSpec>,
}

#[derive(Clone, Debug)]
pub struct TableSpec {
    pub name: String,
    pub columns: Vec<Column>,
    pub rows: Vec<(f64, Vec<Value>)>,
    pub indexes: Vec<String>,
}

impl DbSpec {
    /// Append a table; [`DbSpec::row`], [`DbSpec::rows`] and
    /// [`DbSpec::index`] add to the last one.
    pub fn table(mut self, name: &str, columns: &[(&str, DataType)]) -> DbSpec {
        let columns = columns.iter().map(|&(c, t)| Column::new(c, t)).collect();
        let (name, rows, indexes) = (name.to_owned(), Vec::new(), Vec::new());
        self.tables.push(TableSpec {
            name,
            columns,
            rows,
            indexes,
        });
        self
    }

    pub fn row(self, confidence: f64, values: Vec<Value>) -> DbSpec {
        self.rows([(confidence, values)])
    }

    pub fn rows(mut self, rows: impl IntoIterator<Item = (f64, Vec<Value>)>) -> DbSpec {
        self.tables.last_mut().unwrap().rows.extend(rows);
        self
    }

    pub fn index(mut self, column: &str) -> DbSpec {
        self.tables
            .last_mut()
            .unwrap()
            .indexes
            .push(column.to_owned());
        self
    }

    fn columns(&self, table: &str) -> &[Column] {
        &self
            .tables
            .iter()
            .find(|t| t.name == table)
            .unwrap()
            .columns
    }

    /// The database as a catalog, with its indexes or without.
    pub fn catalog(&self, indexed: bool) -> Catalog {
        let mut catalog = Catalog::new();
        self.load(&mut catalog, indexed);
        catalog
    }

    /// The database as a `Database` (no policy yet), with its indexes or
    /// without.
    pub fn database(&self, config: EngineConfig, indexed: bool) -> Database {
        let mut db = Database::new(config);
        self.load(&mut db, indexed);
        db
    }

    /// The one builder: every table created in `store`, then each filled
    /// in order, its indexes (when `indexed`) created once half its rows
    /// are in — so an index is both backfilled and kept up by inserts.
    pub fn load(&self, store: &mut impl Store, indexed: bool) {
        for t in &self.tables {
            store.create_table(&t.name, Schema::new(t.columns.clone()).unwrap());
        }
        for t in &self.tables {
            for i in 0..=t.rows.len() {
                if indexed && i == t.rows.len() / 2 {
                    t.indexes
                        .iter()
                        .for_each(|c| store.create_index(&t.name, c));
                }
                if let Some((confidence, values)) = t.rows.get(i) {
                    store.insert(&t.name, values.clone(), *confidence);
                }
            }
        }
    }
}

/// What [`DbSpec::load`] builds into.
pub trait Store {
    fn create_table(&mut self, name: &str, schema: Schema);
    fn insert(&mut self, table: &str, values: Vec<Value>, confidence: f64);
    fn create_index(&mut self, table: &str, column: &str);
}

impl Store for Catalog {
    fn create_table(&mut self, name: &str, schema: Schema) {
        Catalog::create_table(self, name, schema).unwrap();
    }
    fn insert(&mut self, table: &str, values: Vec<Value>, confidence: f64) {
        Catalog::insert(self, table, values, confidence).unwrap();
    }
    fn create_index(&mut self, table: &str, column: &str) {
        Catalog::create_index(self, table, column).unwrap();
    }
}

impl Store for Database {
    fn create_table(&mut self, name: &str, schema: Schema) {
        Database::create_table(self, name, schema).unwrap();
    }
    fn insert(&mut self, table: &str, values: Vec<Value>, confidence: f64) {
        Database::insert(self, table, values, confidence).unwrap();
    }
    fn create_index(&mut self, table: &str, column: &str) {
        Database::create_index(self, table, column).unwrap();
    }
}

/// How big a generated case is, and which queries it draws: `worlds` keeps
/// to what the possible-worlds oracle evaluates — select-project-join,
/// `DISTINCT`, `UNION` and `EXCEPT`, over comparisons that cannot raise —
/// and otherwise grouping, ordering, arithmetic, `LIKE`, comparisons across
/// types and any predicate tree come too.
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    pub rows_per_table: usize,
    pub rows: usize,
    pub worlds: bool,
}

/// Every query shape, over up to three tables of up to six rows.
pub const ENGINE: Scope = Scope {
    rows_per_table: 6,
    rows: usize::MAX,
    worlds: false,
};

/// What the possible-worlds oracle enumerates: at most 12 base tuples.
pub const WORLDS: Scope = Scope {
    rows_per_table: 6,
    rows: 12,
    worlds: true,
};

/// Confidences on a coarse grid, so that bounds and confidences meet β.
const CONFIDENCES: [f64; 6] = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

const TYPES: [DataType; 4] = [Int, Real, Text, Bool];

fn pick<T: Clone>(rng: &mut Rng64, from: &[T]) -> T {
    from[rng.below_usize(from.len())].clone()
}

/// A stored value of `data_type`: NULL, `i64` extremes, ±0.0, NaN, a
/// subnormal and an `Int` in a `REAL` column included. Integers are mostly
/// 0–3, so that keys meet.
fn value(rng: &mut Rng64, data_type: DataType) -> Value {
    if rng.chance(0.12) {
        return Value::Null;
    }
    match data_type {
        DataType::Int if rng.chance(0.1) => {
            pick(rng, &[Value::Int(i64::MAX), Value::Int(i64::MIN)])
        }
        DataType::Int => Value::Int(rng.below_u64(4) as i64),
        DataType::Real => {
            let reals = [-1.5, -0.0, 0.0, 0.5, 2.0, f64::NAN, 5e-324].map(Value::Real);
            pick(rng, &[&reals[..], &[Value::Int(2)]].concat())
        }
        DataType::Text => Value::text(pick(rng, &["", "a", "ab", "a%", "x"])),
        DataType::Bool => Value::Bool(rng.chance(0.5)),
    }
}

/// A value of any type, edge cases included.
pub fn any_value(rng: &mut Rng64) -> Value {
    match rng.below_u64(9) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.below_u64(5) as i64 - 2),
        3 => pick(rng, &[Value::Int(i64::MAX), Value::Int(i64::MIN)]),
        4 => Value::Real(rng.range_f64(-2.0, 2.0)),
        5 => Value::Real(pick(rng, &[0.0, -0.0])),
        6 => Value::Real(f64::NAN),
        7 => Value::text(pick(rng, &["ab", "a%"])),
        _ => Value::text("abc"),
    }
}

/// A literal the SQL grammar can spell: no NaN, infinity, `i64::MIN` or
/// NULL.
fn literal(rng: &mut Rng64, data_type: DataType) -> Value {
    match data_type {
        DataType::Int if rng.chance(0.05) => Value::Int(i64::MAX),
        DataType::Int => Value::Int(rng.below_u64(5) as i64 - 1),
        DataType::Real => Value::Real(pick(rng, &[-1.5, -0.0, 0.0, 0.5, 2.0])),
        DataType::Text => Value::text(pick(rng, &["", "a", "ab", "x"])),
        DataType::Bool => Value::Bool(rng.chance(0.5)),
    }
}

/// Up to `max` rows of `columns` (none one time in ten), at grid
/// confidences.
pub fn random_rows(rng: &mut Rng64, columns: &[DataType], max: usize) -> Vec<(f64, Vec<Value>)> {
    let n = if max == 0 || rng.chance(0.1) {
        0
    } else {
        1 + rng.below_usize(max)
    };
    let row = |rng: &mut Rng64| columns.iter().map(|&t| value(rng, t)).collect();
    (0..n)
        .map(|_| (pick(rng, &CONFIDENCES), row(rng)))
        .collect()
}

/// One to three tables `a`, `b`, `c`: a key `k INT`, then one to three
/// columns of any type (`n INT`, `x REAL`, `s TEXT`, `f BOOL`); an index on
/// `k` half the time, on another indexable column a quarter of the time.
pub fn random_db(rng: &mut Rng64, scope: Scope) -> DbSpec {
    let (mut spec, mut rows) = (DbSpec::default(), scope.rows);
    for name in ["a", "b", "c"].into_iter().take(1 + rng.below_usize(3)) {
        let mut columns = vec![("k".to_owned(), DataType::Int)];
        for j in 0..1 + rng.below_usize(3) {
            let t = rng.below_usize(4);
            let base = ["n", "x", "s", "f"][t];
            let taken = columns.iter().any(|(c, _)| c == base);
            columns.push((
                if taken {
                    format!("{base}{j}")
                } else {
                    base.to_owned()
                },
                TYPES[t],
            ));
        }
        let types: Vec<DataType> = columns.iter().map(|c| c.1).collect();
        let table = random_rows(rng, &types, scope.rows_per_table.min(rows));
        rows -= table.len();
        let named: Vec<(&str, DataType)> = columns.iter().map(|(c, t)| (c.as_str(), *t)).collect();
        spec = spec.table(name, &named).rows(table);
        if rng.chance(0.5) {
            spec = spec.index("k");
        }
        let other = columns[1..].iter().find(|c| c.1 != DataType::Real);
        if let Some((column, _)) = other.filter(|_| rng.chance(0.25)) {
            spec = spec.index(column);
        }
    }
    spec
}

/// A query: a `SELECT`, each set operation (`true`: `UNION`, `false`:
/// `EXCEPT`) with the `SELECT` to its right, then `ORDER BY` output
/// positions (descending or not) and `LIMIT` — the grammar's own shape.
#[derive(Clone, Debug)]
pub struct Query {
    pub first: Select,
    pub rest: Vec<(bool, Select)>,
    pub order: Vec<(usize, bool)>,
    pub limit: Option<usize>,
}

/// One `SELECT` block. Its FROM entries are tables, each past the first
/// with the `ON` predicate of a `JOIN` or `None` for a comma product (an
/// entry after a `JOIN` without one prints as `JOIN … ON TRUE`). No items
/// is `*`; a grouped block projects its keys, then its aggregates.
#[derive(Clone, Debug, Default)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<Expr>,
    pub from: Vec<(String, Option<Expr>)>,
    pub filter: Vec<Expr>,
    pub group: Option<Group>,
}

/// `GROUP BY keys`, the aggregates (`COUNT`, `SUM`, `MIN` or `MAX`, and
/// `None` for `*`) and `HAVING <aggregate> <comparison> <literal>`.
#[derive(Clone, Debug)]
pub struct Group {
    pub keys: Vec<Expr>,
    pub aggs: Vec<(&'static str, Option<Expr>)>,
    pub having: Option<(usize, &'static str, Value)>,
}

/// An expression over the FROM entries: column `.1` of entry `.0`, a
/// literal, or an operator by its SQL spelling over one operand (`NOT`,
/// `IS NULL`, `IS NOT NULL`, and `NEG` for unary minus) or two.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Col(usize, usize),
    Lit(Value),
    Op(&'static str, Vec<Expr>),
}

const COMPARISONS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// The operators that yield a boolean, then those that yield a number;
/// `NOT`, `IS NULL`, `IS NOT NULL` and `NEG` (printed `-`) take one operand.
const OPS: &str = "=,<>,<,<=,>,>=,AND,OR,LIKE,NOT,IS NULL,IS NOT NULL,+,-,*,/,NEG";
const BOOLEAN_OPS: usize = 12;

impl Expr {
    pub fn op(op: &'static str, left: Expr, right: Expr) -> Expr {
        Expr::Op(op, vec![left, right])
    }

    /// The expression with every column moved by `to`, or `None` if `to`
    /// drops one it reads.
    pub fn map_columns(
        &self,
        to: &impl Fn(usize, usize) -> Option<(usize, usize)>,
    ) -> Option<Expr> {
        Some(match self {
            Expr::Col(f, c) => to(*f, *c).map(|(f, c)| Expr::Col(f, c))?,
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Op(op, args) => Expr::Op(
                op,
                args.iter()
                    .map(|a| a.map_columns(to))
                    .collect::<Option<_>>()?,
            ),
        })
    }

    /// Visit every literal of the expression.
    pub fn literals_mut(&mut self, visit: &mut impl FnMut(&mut Value)) {
        match self {
            Expr::Col(..) => {}
            Expr::Lit(v) => visit(v),
            Expr::Op(_, args) => args.iter_mut().for_each(|a| a.literals_mut(visit)),
        }
    }

    /// The engine's expression, FROM entry `f`'s columns from `offsets[f]`.
    pub fn to_scalar(&self, offsets: &[usize]) -> ScalarExpr {
        let scalar = |e: &Expr| Box::new(e.to_scalar(offsets));
        match self {
            Expr::Col(f, c) => ScalarExpr::column(offsets[*f] + c),
            Expr::Lit(v) => ScalarExpr::literal(v.clone()),
            Expr::Op(op, args) if args.len() == 1 => ScalarExpr::Unary {
                op: match *op {
                    "NOT" => UnaryOp::Not,
                    "IS NULL" => UnaryOp::IsNull,
                    "IS NOT NULL" => UnaryOp::IsNotNull,
                    _ => UnaryOp::Neg,
                },
                expr: scalar(&args[0]),
            },
            Expr::Op(op, args) => ScalarExpr::Binary {
                op: {
                    use BinaryOp::*;
                    let binary = [Eq, Ne, Lt, Le, Gt, Ge, And, Or, Like, Add, Sub, Mul, Div];
                    binary.into_iter().find(|b| b.to_string() == *op).unwrap()
                },
                left: scalar(&args[0]),
                right: scalar(&args[1]),
            },
        }
    }
}

/// A tree of depth ≤ `depth` for a boolean or a value position, its
/// leaves from `leaf`. Four times in five the operator fits the position
/// and its operands fit the operator, so that evaluation gets past the
/// root; otherwise any operator over any operands.
pub fn random_tree(
    rng: &mut Rng64,
    depth: u32,
    boolean: bool,
    leaf: &mut dyn FnMut(&mut Rng64) -> Expr,
) -> Expr {
    if depth == 0 || rng.chance(0.1) {
        return leaf(rng);
    }
    let ill_typed = rng.chance(0.2);
    let ops: Vec<&'static str> = OPS.split(',').collect();
    let op = match (ill_typed, boolean) {
        (true, _) => pick(rng, &ops),
        (false, true) => pick(rng, &ops[..BOOLEAN_OPS]),
        (false, false) => pick(rng, &ops[BOOLEAN_OPS..]),
    };
    let over_booleans = matches!(op, "AND" | "OR" | "NOT");
    let unary = matches!(op, "NOT" | "IS NULL" | "IS NOT NULL" | "NEG");
    let args = (0..2 - usize::from(unary))
        .map(|_| {
            let boolean = if ill_typed {
                rng.chance(0.5)
            } else {
                over_booleans
            };
            random_tree(rng, depth - 1, boolean, leaf)
        })
        .collect();
    Expr::Op(op, args)
}

/// Whether comparing values of these types can never raise: two numbers,
/// or two values of one type.
fn comparable(a: DataType, b: DataType) -> bool {
    let numeric = |t| matches!(t, DataType::Int | DataType::Real);
    a == b || numeric(a) && numeric(b)
}

/// A `WHERE` conjunct over the first `within` of FROM entries of these
/// column types: a comparison with a literal or another column,
/// `IS [NOT] NULL`, `OR`, `NOT` — and outside the worlds scope comparisons
/// across types, arithmetic and any tree as well.
pub fn random_predicate(
    rng: &mut Rng64,
    from: &[Vec<DataType>],
    within: usize,
    scope: Scope,
) -> Expr {
    let column = |rng: &mut Rng64| {
        let f = rng.below_usize(within);
        let c = rng.below_usize(from[f].len());
        (Expr::Col(f, c), from[f][c])
    };
    let ((col, t), cmp) = (column(rng), pick(rng, &COMPARISONS));
    match rng.below_u64(20) {
        0 => Expr::op(cmp, col, Expr::Lit(Value::Null)),
        1..=8 => Expr::op(cmp, col, Expr::Lit(literal(rng, t))),
        9..=11 => match column(rng) {
            (other, u) if scope.worlds && !comparable(t, u) => Expr::Op("IS NULL", vec![other]),
            (other, _) => Expr::op(cmp, col, other),
        },
        12 => Expr::Op(pick(rng, &["IS NULL", "IS NOT NULL"]), vec![col]),
        13 => Expr::op(
            "OR",
            random_predicate(rng, from, within, scope),
            random_predicate(rng, from, within, scope),
        ),
        14 => Expr::Op("NOT", vec![random_predicate(rng, from, within, scope)]),
        _ if scope.worlds => Expr::op(cmp, col, Expr::Lit(literal(rng, t))),
        15 | 16 => {
            let t = pick(rng, &TYPES);
            Expr::op(cmp, col, Expr::Lit(literal(rng, t)))
        }
        17 => Expr::op(
            cmp,
            Expr::op("+", col, Expr::Lit(Value::Int(1))),
            Expr::Lit(Value::Int(1)),
        ),
        _ => {
            let mut leaf = |rng: &mut Rng64| match rng.chance(0.5) {
                true => column(rng).0,
                false => {
                    let t = pick(rng, &TYPES);
                    Expr::Lit(literal(rng, t))
                }
            };
            let depth = 1 + rng.below_u64(2) as u32;
            random_tree(rng, depth, true, &mut leaf)
        }
    }
}

/// A `SELECT` over one to three tables of `spec`; with `types`, one that
/// projects exactly those (the right side of a set operation).
fn random_select(
    rng: &mut Rng64,
    spec: &DbSpec,
    scope: Scope,
    types: Option<&[DataType]>,
) -> Select {
    let (n, mut from) = (1 + rng.below_usize(3), Vec::<Vec<DataType>>::new());
    let commas = rng.below_usize(n);
    let mut s = Select {
        distinct: rng.chance(0.3),
        ..Select::default()
    };
    for i in 0..n {
        let table = &spec.tables[rng.below_usize(spec.tables.len())];
        from.push(table.columns.iter().map(|c| c.data_type).collect());
        let on = (i > commas).then(|| {
            let f = rng.below_usize(i + 1);
            let c = rng.below_usize(from[f].len());
            let on = match rng.chance(0.85) || scope.worlds && !comparable(from[f][c], from[i][0]) {
                true => Expr::op("=", Expr::Col(rng.below_usize(i), 0), Expr::Col(i, 0)),
                false => Expr::op(pick(rng, &COMPARISONS), Expr::Col(f, c), Expr::Col(i, 0)),
            };
            match rng.chance(0.3) {
                true => Expr::op("AND", on, random_predicate(rng, &from, i + 1, scope)),
                false => on,
            }
        });
        s.from.push((table.name.clone(), on));
    }
    let conjuncts = pick(rng, &[0, 0, 0, 1, 1, 1, 1, 2, 2, 3]);
    s.filter = (0..conjuncts)
        .map(|_| random_predicate(rng, &from, n, scope))
        .collect();
    let column = |rng: &mut Rng64| {
        let f = rng.below_usize(n);
        Expr::Col(f, rng.below_usize(from[f].len()))
    };
    if let Some(types) = types {
        let all = (0..n).flat_map(|f| (0..from[f].len()).map(move |c| (f, c)));
        let all: Vec<(usize, usize)> = all.collect();
        for &t in types {
            let typed: Vec<_> = all.iter().filter(|&&(f, c)| from[f][c] == t).collect();
            s.items.push(match typed.is_empty() {
                true => Expr::Lit(literal(rng, t)),
                false => {
                    let &(f, c) = pick(rng, &typed);
                    Expr::Col(f, c)
                }
            });
        }
    } else if !scope.worlds && rng.chance(0.15) {
        // `COUNT(*)`, or half the time `COUNT` of a column (NULLs skipped).
        let count = rng.chance(0.5).then(|| column(rng));
        let mut aggs = vec![("COUNT", count)];
        if rng.chance(0.5) {
            aggs.push((pick(rng, &["SUM", "MIN", "MAX"]), Some(column(rng))));
        }
        let having = rng
            .chance(0.4)
            .then(|| (0, pick(rng, &COMPARISONS), Value::Int(1)));
        s.group = Some(Group {
            keys: vec![column(rng)],
            aggs,
            having,
        });
    } else if rng.chance(0.85) {
        for _ in 0..1 + rng.below_usize(3) {
            let item = column(rng);
            s.items.push(match !scope.worlds && rng.chance(0.15) {
                true => Expr::op("+", item, Expr::Lit(Value::Int(1))),
                false => item,
            });
        }
    }
    s
}

/// A query over `spec`: a `SELECT`, or a `UNION` or `EXCEPT` of two or
/// three, and outside the worlds scope `ORDER BY` and `LIMIT` a quarter of
/// the time.
pub fn random_query(rng: &mut Rng64, spec: &DbSpec, scope: Scope) -> Query {
    let mut first = random_select(rng, spec, scope, None);
    let mut rest = Vec::new();
    if rng.chance(0.3) {
        if first.items.is_empty() && first.group.is_none() {
            first.items.push(Expr::Col(0, 0));
        }
        let types = first.output_types(spec);
        for _ in 0..1 + usize::from(rng.chance(0.3)) {
            rest.push((
                rng.chance(0.5),
                random_select(rng, spec, scope, Some(&types)),
            ));
        }
    }
    let explicit = !first.items.is_empty() || first.group.is_some();
    let arity = first.output_types(spec).len();
    let (mut order, mut limit) = (Vec::new(), None);
    if !scope.worlds && explicit && rng.chance(0.25) {
        order = (0..1 + rng.below_usize(2))
            .map(|_| (rng.below_usize(arity), rng.chance(0.5)))
            .collect();
        limit = rng.chance(0.6).then(|| rng.below_usize(4));
    }
    Query {
        first,
        rest,
        order,
        limit,
    }
}

impl Select {
    /// FROM entry `f`'s qualifier: its table, or `{table}{f}` where the
    /// table is named earlier in the list.
    fn qualifier(&self, f: usize) -> String {
        let name = &self.from[f].0;
        match self.from[..f].iter().any(|(t, _)| t == name) {
            true => format!("{name}{f}"),
            false => name.clone(),
        }
    }

    /// The types of the block's output columns (a NULL literal's: `TEXT`).
    pub fn output_types(&self, spec: &DbSpec) -> Vec<DataType> {
        let column = |f: usize, c: usize| spec.columns(&self.from[f].0)[c].data_type;
        let type_of = |e: &Expr| expr_type(e, &column);
        match &self.group {
            Some(g) => {
                let aggs =
                    g.aggs
                        .iter()
                        .map(|(agg, arg)| match (*agg, arg.as_ref().map(type_of)) {
                            ("SUM", Some(DataType::Int)) | ("COUNT", _) => DataType::Int,
                            ("SUM", _) => DataType::Real,
                            (_, t) => t.unwrap(),
                        });
                g.keys.iter().map(type_of).chain(aggs).collect()
            }
            None if self.items.is_empty() => self
                .from
                .iter()
                .flat_map(|(t, _)| spec.columns(t))
                .map(|c| c.data_type)
                .collect(),
            None => self.items.iter().map(type_of).collect(),
        }
    }

    /// The output columns' names, made unique with a `_{position}` suffix.
    fn output_names(&self, spec: &DbSpec) -> Vec<String> {
        let named = |e: &Expr| match e {
            Expr::Col(f, c) => spec.columns(&self.from[*f].0)[*c].name.clone(),
            _ => "expr".to_owned(),
        };
        let defaults: Vec<String> = match &self.group {
            Some(g) => {
                let aggs = (0..g.aggs.len()).map(|i| {
                    if i == 0 {
                        "n".to_owned()
                    } else {
                        format!("agg{i}")
                    }
                });
                g.keys.iter().map(named).chain(aggs).collect()
            }
            None => self.items.iter().map(named).collect(),
        };
        let mut names: Vec<String> = Vec::new();
        for (i, name) in defaults.into_iter().enumerate() {
            let taken = names.iter().any(|n| n.eq_ignore_ascii_case(&name));
            names.push(if taken { format!("{name}_{i}") } else { name });
        }
        names
    }

    fn sql(&self, spec: &DbSpec, out: &mut String) {
        let names = self.output_names(spec);
        let expr = |e: &Expr| self.expr(spec, e, false);
        let items: Vec<String> = match &self.group {
            Some(g) => {
                let aggs = g
                    .aggs
                    .iter()
                    .map(|(agg, arg)| format!("{agg}({})", arg.as_ref().map_or("*".into(), expr)));
                g.keys.iter().map(expr).chain(aggs).collect()
            }
            None if self.items.is_empty() => vec!["*".to_owned()],
            None => self.items.iter().map(expr).collect(),
        };
        let items: Vec<String> = items
            .into_iter()
            .zip(names.iter().map(Some).chain(std::iter::repeat(None)))
            .map(|(item, name)| match name {
                Some(name) if !item.ends_with(&format!(".{name}")) => format!("{item} AS {name}"),
                _ => item,
            })
            .collect();
        let distinct = if self.distinct { "DISTINCT " } else { "" };
        write!(out, "SELECT {distinct}{} FROM ", items.join(", ")).unwrap();
        let mut joined = false;
        for (f, (table, on)) in self.from.iter().enumerate() {
            let qualifier = self.qualifier(f);
            let table = if qualifier == *table {
                qualifier
            } else {
                format!("{table} AS {qualifier}")
            };
            if f == 0 {
                out.push_str(&table);
            } else if on.is_none() && !joined {
                write!(out, ", {table}").unwrap();
            } else {
                joined = true;
                write!(
                    out,
                    " JOIN {table} ON {}",
                    on.as_ref().map_or("TRUE".into(), expr)
                )
                .unwrap();
            }
        }
        if !self.filter.is_empty() {
            let conjunct = |c: &Expr| self.expr(spec, c, matches!(c, Expr::Op("AND" | "OR", _)));
            let conjuncts: Vec<String> = self.filter.iter().map(conjunct).collect();
            write!(out, " WHERE {}", conjuncts.join(" AND ")).unwrap();
        }
        if let Some(g) = &self.group {
            let keys: Vec<String> = g.keys.iter().map(expr).collect();
            write!(out, " GROUP BY {}", keys.join(", ")).unwrap();
            if let Some((agg, cmp, value)) = &g.having {
                write!(
                    out,
                    " HAVING {} {cmp} {}",
                    names[g.keys.len() + agg],
                    sql_literal(value)
                )
                .unwrap();
            }
        }
    }

    /// `e` as SQL; `nested` puts a connective in parentheses.
    fn expr(&self, spec: &DbSpec, e: &Expr, nested: bool) -> String {
        let operand = |e: &Expr| match e {
            Expr::Lit(v) if sql_literal(v).starts_with('-') => format!("({})", sql_literal(v)),
            e => self.expr(spec, e, true),
        };
        let text = match e {
            Expr::Col(f, c) => {
                return format!(
                    "{}.{}",
                    self.qualifier(*f),
                    spec.columns(&self.from[*f].0)[*c].name
                )
            }
            Expr::Lit(v) => return sql_literal(v),
            Expr::Op(op @ ("IS NULL" | "IS NOT NULL"), args) => {
                format!("{} {op}", operand(&args[0]))
            }
            Expr::Op("NOT", args) => format!("NOT {}", operand(&args[0])),
            Expr::Op(_, args) if args.len() == 1 => format!("-{}", operand(&args[0])),
            Expr::Op(op, args) => format!("{} {op} {}", operand(&args[0]), operand(&args[1])),
        };
        if nested {
            format!("({text})")
        } else {
            text
        }
    }
}

/// A value as a SQL literal.
fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Bool(b) => b.to_string().to_uppercase(),
        Value::Real(r) if r.is_sign_negative() => format!("-{:?}", -r),
        Value::Real(r) => format!("{r:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Int(i) => i.to_string(),
    }
}

/// The type `e` evaluates to, `column` giving a column's.
fn expr_type(e: &Expr, column: &impl Fn(usize, usize) -> DataType) -> DataType {
    match e {
        Expr::Col(f, c) => column(*f, *c),
        Expr::Lit(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Op("+" | "-" | "*", args) if args.len() == 2 => {
            let int = args.iter().all(|a| expr_type(a, column) == DataType::Int);
            if int {
                DataType::Int
            } else {
                DataType::Real
            }
        }
        Expr::Op("/", _) => DataType::Real,
        Expr::Op("NEG", args) => expr_type(&args[0], column),
        Expr::Op(..) => DataType::Bool,
    }
}

impl Query {
    /// The query as one line of SQL.
    pub fn sql(&self, spec: &DbSpec) -> String {
        let mut out = String::new();
        self.first.sql(spec, &mut out);
        for (union, select) in &self.rest {
            out.push_str(if *union { " UNION " } else { " EXCEPT " });
            select.sql(spec, &mut out);
        }
        let names = self.first.output_names(spec);
        let keys: Vec<String> = self
            .order
            .iter()
            .map(|&(at, desc)| format!("{}{}", names[at], if desc { " DESC" } else { "" }))
            .collect();
        if !keys.is_empty() {
            write!(out, " ORDER BY {}", keys.join(", ")).unwrap();
        }
        if let Some(n) = self.limit {
            write!(out, " LIMIT {n}").unwrap();
        }
        out
    }

    /// The query's twin: the same shape — every literal of the same type
    /// and sign, so that it prints to the same tokens — with new INT, REAL
    /// and TEXT values, drawn from pools so small that two slots often
    /// hold one value. `BOOL`, `NULL` and the `LIMIT` count stay.
    pub fn with_fresh_literals(&self, rng: &mut Rng64) -> Query {
        let mut twin = self.clone();
        let mut fresh = |v: &mut Value| {
            *v = match &*v {
                Value::Int(i) if *i < 0 => Value::Int(pick(rng, &[-1, -2, -3])),
                Value::Int(_) => Value::Int(pick(rng, &[0, 1, 2, 3])),
                Value::Real(r) if r.is_sign_negative() => {
                    Value::Real(pick(rng, &[-1.5, -0.0, -2.0]))
                }
                Value::Real(_) => Value::Real(pick(rng, &[0.0, 0.5, 2.0])),
                Value::Text(_) => Value::text(pick(rng, &["", "a", "ab", "x"])),
                other => other.clone(),
            }
        };
        for select in std::iter::once(&mut twin.first).chain(twin.rest.iter_mut().map(|(_, s)| s)) {
            let group = select.group.iter_mut().flat_map(|g| {
                let args = g.aggs.iter_mut().filter_map(|(_, arg)| arg.as_mut());
                g.keys.iter_mut().chain(args)
            });
            let on = select.from.iter_mut().filter_map(|(_, on)| on.as_mut());
            for e in select
                .items
                .iter_mut()
                .chain(on)
                .chain(&mut select.filter)
                .chain(group)
            {
                e.literals_mut(&mut fresh);
            }
            if let Some((_, _, value)) = select.group.as_mut().and_then(|g| g.having.as_mut()) {
                fresh(value);
            }
        }
        twin
    }

    fn selects(&self) -> impl Iterator<Item = &Select> {
        std::iter::once(&self.first).chain(self.rest.iter().map(|(_, s)| s))
    }
}

/// What a run of generated cases reached: cases that answered with rows,
/// with none, and that raised (the same error on every path).
#[derive(Debug, Default)]
pub struct Tally {
    pub answered: usize,
    pub empty: usize,
    pub errors: usize,
}

/// Run `cases` generated (database, query) pairs, each from its own seed,
/// through `check`. The first failure is shrunk and reported with its
/// message and the shrunk case as a ready-to-paste `#[test]`.
pub fn check_generated(
    cases: u64,
    base_seed: u64,
    scope: Scope,
    check: impl Fn(&DbSpec, &Query) -> Result<Agreed, String>,
) -> Tally {
    let mut tally = Tally::default();
    for case in 0..cases {
        let seed = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng64::seed_from_u64(seed);
        let spec = random_db(&mut rng, scope);
        let query = random_query(&mut rng, &spec, scope);
        match check(&spec, &query) {
            Ok(Agreed::Rows(0)) => tally.empty += 1,
            Ok(Agreed::Rows(_)) => tally.answered += 1,
            Ok(Agreed::Error(_)) => tally.errors += 1,
            Err(failure) => {
                let (spec, query, failure) =
                    shrink(spec, query, failure, &|s, q| check(s, q).err());
                let test = rust_test(&spec, &query.sql(&spec));
                panic!("case {case} (seed {seed:#018x}) failed; shrunk:\n{failure}\n\n{test}");
            }
        }
    }
    tally
}

/// [`check_sql`] on a generated query.
pub fn check(spec: &DbSpec, query: &Query) -> Result<Agreed, String> {
    check_sql(spec, &query.sql(spec))
}

/// Greedily shrink a failing case: take the first one-step reduction that
/// still fails, until none does (or 4 000 were tried).
pub fn shrink(
    mut spec: DbSpec,
    mut query: Query,
    mut failure: String,
    fails: &dyn Fn(&DbSpec, &Query) -> Option<String>,
) -> (DbSpec, Query, String) {
    let mut budget = 4_000;
    'smaller: while budget > 0 {
        for (s, q) in reductions(&spec, &query).into_iter().take(budget) {
            budget -= 1;
            if let Some(f) = fails(&s, &q) {
                (spec, query, failure) = (s, q, f);
                continue 'smaller;
            }
        }
        break;
    }
    (spec, query, failure)
}

/// Every one-step reduction of a case, the coarsest first: a set branch,
/// the ordering, a FROM entry (and what reads it), a conjunct or a part of
/// one, an `ON` predicate or a part of one, the grouping, an item,
/// `DISTINCT`; a table the query does not read, half a table's rows, a
/// row, an index.
fn reductions(spec: &DbSpec, query: &Query) -> Vec<(DbSpec, Query)> {
    let mut queries: Vec<Query> = Vec::new();
    for i in 0..query.rest.len() {
        let mut q = query.clone();
        let (_, right) = q.rest.remove(i);
        if i == 0 {
            queries.push(Query {
                first: right,
                ..q.clone()
            });
        }
        queries.push(q);
    }
    if !query.order.is_empty() || query.limit.is_some() {
        queries.push(Query {
            order: Vec::new(),
            limit: None,
            ..query.clone()
        });
    }
    for (at, select) in query.selects().enumerate() {
        let mut selects: Vec<Select> = Vec::new();
        for f in (1..select.from.len())
            .rev()
            .chain([0].into_iter().filter(|_| select.from.len() > 1))
        {
            selects.push(select.without_from(f));
        }
        let parts = |e: &Expr| match e {
            Expr::Op("AND" | "OR" | "NOT", args) => args.clone(),
            _ => Vec::new(),
        };
        for i in 0..select.filter.len() {
            let mut s = select.clone();
            s.filter.remove(i);
            selects.push(s);
            for part in parts(&select.filter[i]) {
                let mut s = select.clone();
                s.filter[i] = part;
                selects.push(s);
            }
        }
        for (f, (_, on)) in select.from.iter().enumerate() {
            for part in on
                .iter()
                .flat_map(parts)
                .map(Some)
                .chain(on.as_ref().map(|_| None))
            {
                let mut s = select.clone();
                s.from[f].1 = part;
                selects.push(s);
            }
        }
        if let Some(g) = &select.group {
            selects.push(Select {
                group: None,
                items: g.keys.clone(),
                ..select.clone()
            });
        }
        for i in (0..select.items.len()).filter(|_| select.items.len() > 1) {
            let mut s = select.clone();
            s.items.remove(i);
            selects.push(s);
        }
        if select.distinct {
            selects.push(Select {
                distinct: false,
                ..select.clone()
            });
        }
        for s in selects {
            let mut q = query.clone();
            *(if at == 0 {
                &mut q.first
            } else {
                &mut q.rest[at - 1].1
            }) = s;
            let arity = q.first.output_types(spec).len();
            q.order.retain(|&(i, _)| i < arity);
            queries.push(q);
        }
    }
    let mut out: Vec<(DbSpec, Query)> = queries.into_iter().map(|q| (spec.clone(), q)).collect();
    let read = |name: &str| {
        query
            .selects()
            .any(|s| s.from.iter().any(|(t, _)| t == name))
    };
    for (t, table) in spec.tables.iter().enumerate() {
        let n = table.rows.len();
        let mut specs: Vec<DbSpec> = Vec::new();
        if !read(&table.name) {
            specs.push(spec.clone());
            specs[0].tables.remove(t);
        }
        let halves = [(0, n / 2), (n / 2, n)].into_iter().filter(|_| n >= 4);
        for (from, to) in halves.chain((0..n).map(|i| (i, i + 1))) {
            let mut s = spec.clone();
            s.tables[t].rows.drain(from..to);
            specs.push(s);
        }
        for i in 0..table.indexes.len() {
            let mut s = spec.clone();
            s.tables[t].indexes.remove(i);
            specs.push(s);
        }
        out.extend(specs.into_iter().map(|s| (s, query.clone())));
    }
    out
}

impl Select {
    /// The block without FROM entry `f`, and without whatever reads it.
    fn without_from(&self, f: usize) -> Select {
        let map = |e: &Expr| e.map_columns(&|g, c| (g != f).then_some((g - usize::from(g > f), c)));
        let mut s = self.clone();
        s.from.remove(f);
        for (i, (_, on)) in s.from.iter_mut().enumerate() {
            *on = on.as_ref().filter(|_| i > 0).and_then(map);
        }
        s.filter = s.filter.iter().filter_map(map).collect();
        s.items = s.items.iter().filter_map(map).collect();
        if let Some(g) = &mut s.group {
            g.keys = g.keys.iter().filter_map(map).collect();
            let arity = g.aggs.len();
            g.aggs
                .retain(|(_, arg)| arg.as_ref().is_none_or(|a| map(a).is_some()));
            g.aggs
                .iter_mut()
                .for_each(|(_, arg)| *arg = arg.as_ref().and_then(map));
            if g.aggs.len() < arity {
                g.having = None;
            }
        }
        if s.group.as_ref().is_some_and(|g| g.keys.is_empty()) {
            s.group = None;
        }
        s
    }
}

/// A case as a `#[test]` to paste into a suite that has `mod common;`
/// (and `use common::{check_sql, DbSpec}` and `pcqe::storage::{DataType,
/// Value}` in scope).
pub fn rust_test(spec: &DbSpec, sql: &str) -> String {
    let mut out = String::from("#[test]\nfn shrunk_case() {\n    let spec = DbSpec::default()");
    for t in &spec.tables {
        let columns: Vec<String> = t
            .columns
            .iter()
            .map(|c| format!("(\"{}\", DataType::{:?})", c.name, c.data_type))
            .collect();
        write!(
            out,
            "\n        .table(\"{}\", &[{}])",
            t.name,
            columns.join(", ")
        )
        .unwrap();
        for (confidence, values) in &t.rows {
            let values: Vec<String> = values.iter().map(rust_value).collect();
            write!(
                out,
                "\n        .row({confidence:?}, vec![{}])",
                values.join(", ")
            )
            .unwrap();
        }
        for column in &t.indexes {
            write!(out, "\n        .index(\"{column}\")").unwrap();
        }
    }
    write!(out, ";\n    check_sql(&spec, {sql:?}).unwrap();\n}}").unwrap();
    out
}

/// A value as Rust source.
fn rust_value(v: &Value) -> String {
    match v {
        Value::Null => "Value::Null".to_owned(),
        Value::Bool(b) => format!("Value::Bool({b})"),
        Value::Int(i @ (i64::MIN | i64::MAX)) => {
            format!("Value::Int(i64::{})", if *i < 0 { "MIN" } else { "MAX" })
        }
        Value::Int(i) => format!("Value::Int({i})"),
        Value::Real(r) if r.is_finite() => format!("Value::Real({r:?})"),
        Value::Real(r) => format!("Value::Real(f64::from_bits({:#x}))", r.to_bits()),
        Value::Text(s) => format!("Value::text({s:?})"),
    }
}
