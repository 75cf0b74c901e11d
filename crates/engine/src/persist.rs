//! Directory-based persistence for a [`Database`].
//!
//! Layout: `<dir>/manifest.tsv` describes tables, their equality indexes,
//! policies, the role hierarchy and cost functions in a line-based
//! tab-separated format (a manifest without `index` lines — every one
//! written before indexes were saved — loads as a database without), and
//! each table's rows live in `<dir>/<table>.csv` (written with explicit
//! tuple ids so lineage and cost functions survive the round trip).
//!
//! Names containing tabs or newlines are rejected at save time; a role or
//! purpose literally named `*` cannot be distinguished from the wildcard
//! and is also rejected.

use crate::config::EngineConfig;
use crate::database::Database;
use crate::error::EngineError;
use crate::Result;
use pcqe_cost::CostFn;
use pcqe_policy::{ConfidencePolicy, PurposeSpec, Role, SubjectSpec};
use pcqe_storage::csv::{load_into, write_table_with_ids};
use pcqe_storage::{Column, DataType, Schema, StorageError, TupleId};
use std::fs;
use std::io::{BufReader, Write};
use std::path::Path;

fn persist_err(message: impl Into<String>) -> EngineError {
    EngineError::Storage(StorageError::Csv {
        line: 0,
        message: message.into(),
    })
}

fn check_name(name: &str) -> Result<&str> {
    if name.contains('\t') || name.contains('\n') || name.contains('\r') {
        return Err(persist_err(format!(
            "name `{name}` contains tab/newline and cannot be persisted"
        )));
    }
    if name == "*" {
        return Err(persist_err("the name `*` is reserved for wildcards"));
    }
    Ok(name)
}

/// Save a database (tables, rows with ids and confidences, which columns
/// are indexed, policies, role hierarchy, per-tuple cost functions) into
/// `dir`, creating it if needed. The engine configuration and estimator state are not saved.
pub fn save(db: &Database, dir: &Path) -> Result<()> {
    fs::create_dir_all(dir).map_err(|e| persist_err(format!("create {dir:?}: {e}")))?;
    let mut manifest = String::from("pcqe-manifest\tv1\n");

    for name in db.catalog.table_names() {
        check_name(name)?;
        let table = db.catalog.table(name)?;
        manifest.push_str(&format!("table\t{name}\n"));
        for c in table.schema().columns() {
            check_name(&c.name)?;
            manifest.push_str(&format!("column\t{}\t{}\n", c.name, c.data_type));
        }
        manifest.push_str("end\n");
        let mut out = Vec::new();
        write_table_with_ids(table, &mut out)
            .map_err(|e| persist_err(format!("serialise `{name}`: {e}")))?;
        fs::write(dir.join(format!("{name}.csv")), out)
            .map_err(|e| persist_err(format!("write `{name}.csv`: {e}")))?;
    }

    // Which columns are indexed, not the postings: `load` rebuilds an
    // index from the rows, so it cannot disagree with them.
    for name in db.catalog.table_names() {
        let table = db.catalog.table(name)?;
        for index in table.indexes() {
            let column = table.schema().columns().get(index.column());
            let column = column.ok_or_else(|| {
                persist_err(format!(
                    "index on `{name}` is over a column it does not have"
                ))
            })?;
            manifest.push_str(&format!("index\t{name}\t{}\n", column.name));
        }
    }

    for p in db.policies.policies() {
        let subject = match &p.subject {
            SubjectSpec::Role(r) => check_name(r.name())?.to_owned(),
            SubjectSpec::Any => "*".to_owned(),
        };
        let purpose = match &p.purpose {
            PurposeSpec::Purpose(pu) => check_name(pu.name())?.to_owned(),
            PurposeSpec::Any => "*".to_owned(),
        };
        manifest.push_str(&format!("policy\t{subject}\t{purpose}\t{}\n", p.threshold));
    }
    for (senior, junior) in db.policies.hierarchy().edges() {
        manifest.push_str(&format!(
            "inherit\t{}\t{}\n",
            check_name(&senior)?,
            check_name(&junior)?
        ));
    }
    for (specialised, general) in db.policies.purposes().edges() {
        manifest.push_str(&format!(
            "specialise\t{}\t{}\n",
            check_name(&specialised)?,
            check_name(&general)?
        ));
    }

    // BTreeMap iteration is already id-sorted; iterating entries directly
    // keeps the path free of indexing (PCQE-P002).
    for (id, cost) in &db.costs {
        manifest.push_str(&format!("cost\t{}\t{}\n", id.0, encode_cost(cost)?));
    }

    let mut f = fs::File::create(dir.join("manifest.tsv"))
        .map_err(|e| persist_err(format!("write manifest: {e}")))?;
    f.write_all(manifest.as_bytes())
        .map_err(|e| persist_err(format!("write manifest: {e}")))?;
    Ok(())
}

/// Load a database saved by [`save`], with a fresh configuration.
pub fn load(dir: &Path, config: EngineConfig) -> Result<Database> {
    let manifest = fs::read_to_string(dir.join("manifest.tsv"))
        .map_err(|e| persist_err(format!("read manifest: {e}")))?;
    let mut lines = manifest.lines().enumerate();
    match lines.next() {
        Some((_, "pcqe-manifest\tv1")) => {}
        _ => return Err(persist_err("bad manifest header")),
    }
    let mut db = Database::new(config);
    let mut pending_columns: Option<(String, Vec<Column>)> = None;
    for (i, line) in lines {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let bad = |m: &str| persist_err(format!("manifest line {lineno}: {m} in `{line}`"));
        match (fields.as_slice(), &mut pending_columns) {
            (["table", name], slot @ None) => {
                *slot = Some(((*name).to_owned(), Vec::new()));
            }
            (["column", name, ty], Some((_, cols))) => {
                let dt = match *ty {
                    "INT" => DataType::Int,
                    "REAL" => DataType::Real,
                    "TEXT" => DataType::Text,
                    "BOOL" => DataType::Bool,
                    other => return Err(bad(&format!("unknown type `{other}`"))),
                };
                cols.push(Column::new(*name, dt));
            }
            (["end"], slot @ Some(_)) => {
                let Some((name, cols)) = slot.take() else {
                    return Err(bad("`end` without an open table"));
                };
                db.create_table(&name, Schema::new(cols)?)?;
                let file = fs::File::open(dir.join(format!("{name}.csv")))
                    .map_err(|e| persist_err(format!("open `{name}.csv`: {e}")))?;
                load_into(&mut db.catalog, &name, BufReader::new(file))?;
            }
            (["index", table, column], None) => {
                db.create_index(table, column)
                    .map_err(|e| bad(&e.to_string()))?;
            }
            (["policy", subject, purpose, beta], None) => {
                let beta: f64 = beta.parse().map_err(|_| bad("bad threshold"))?;
                let policy = match (*subject, *purpose) {
                    ("*", "*") => ConfidencePolicy::default_floor(beta)?,
                    ("*", pu) => ConfidencePolicy::for_purpose(pu, beta)?,
                    (r, "*") => ConfidencePolicy::for_role(r, beta)?,
                    (r, pu) => ConfidencePolicy::new(r, pu, beta)?,
                };
                db.add_policy(policy);
            }
            (["inherit", senior, junior], None) => {
                db.add_role_inheritance(&Role::new(*senior), &Role::new(*junior))?;
            }
            (["specialise", specialised, general], None) => {
                db.add_purpose_specialisation(
                    &pcqe_policy::Purpose::new(*specialised),
                    &pcqe_policy::Purpose::new(*general),
                )?;
            }
            (["cost", id, rest @ ..], None) => {
                let id: u64 = id.parse().map_err(|_| bad("bad tuple id"))?;
                let cost = decode_cost(rest).ok_or_else(|| bad("bad cost function"))?;
                db.set_cost(TupleId(id), cost)?;
            }
            _ => return Err(bad("unexpected record")),
        }
    }
    if pending_columns.is_some() {
        return Err(persist_err("manifest ended inside a table definition"));
    }
    Ok(db)
}

fn encode_cost(cost: &CostFn) -> Result<String> {
    Ok(match cost {
        CostFn::Linear { rate } => format!("linear\t{rate}"),
        CostFn::Polynomial { coeff, degree } => format!("poly\t{coeff}\t{degree}"),
        CostFn::Exponential { coeff, rate } => format!("exp\t{coeff}\t{rate}"),
        CostFn::Logarithmic { coeff, scale } => format!("log\t{coeff}\t{scale}"),
        CostFn::Piecewise { points } => {
            let encoded: Vec<String> = points.iter().map(|(p, g)| format!("{p}:{g}")).collect();
            format!("piecewise\t{}", encoded.join(";"))
        }
    })
}

fn decode_cost(fields: &[&str]) -> Option<CostFn> {
    match fields {
        ["linear", rate] => CostFn::linear(rate.parse().ok()?).ok(),
        ["poly", coeff, degree] => {
            CostFn::polynomial(coeff.parse().ok()?, degree.parse().ok()?).ok()
        }
        ["exp", coeff, rate] => CostFn::exponential(coeff.parse().ok()?, rate.parse().ok()?).ok(),
        ["log", coeff, scale] => CostFn::logarithmic(coeff.parse().ok()?, scale.parse().ok()?).ok(),
        ["piecewise", encoded] => {
            let mut points = Vec::new();
            for part in encoded.split(';') {
                let (p, g) = part.split_once(':')?;
                points.push((p.parse().ok()?, g.parse().ok()?));
            }
            CostFn::piecewise(points).ok()
        }
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::database::{QueryRequest, User};
    use pcqe_storage::Value;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pcqe-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> (Database, TupleId) {
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "Deals",
            Schema::new(vec![
                Column::new("who", DataType::Text),
                Column::new("amount", DataType::Real),
                Column::new("won", DataType::Bool),
                Column::new("n", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        db.insert(
            "Deals",
            vec![
                Value::text("acme, \"quoted\""),
                Value::Real(10.5),
                Value::Bool(true),
                Value::Int(7),
            ],
            0.9,
        )
        .unwrap();
        let weak = db
            .insert(
                "Deals",
                vec![
                    Value::text("bolt"),
                    Value::Null,
                    Value::Bool(false),
                    Value::Null,
                ],
                0.3,
            )
            .unwrap();
        db.set_cost(weak, CostFn::exponential(5.0, 2.0).unwrap())
            .unwrap();
        db.add_policy(ConfidencePolicy::new("sales", "pipeline", 0.5).unwrap());
        db.add_policy(ConfidencePolicy::default_floor(0.1).unwrap());
        db.add_role_inheritance(&Role::new("vp"), &Role::new("sales"))
            .unwrap();
        db.add_purpose_specialisation(
            &pcqe_policy::Purpose::new("renewal"),
            &pcqe_policy::Purpose::new("pipeline"),
        )
        .unwrap();
        (db, weak)
    }

    #[test]
    fn save_load_round_trip_preserves_behaviour() {
        let (mut db, weak) = sample_db();
        let dir = temp_dir("roundtrip");
        save(&db, &dir).unwrap();
        let mut restored = load(&dir, EngineConfig::default()).unwrap();

        // Same confidences and ids.
        assert_eq!(restored.confidence(weak), Some(0.3));
        assert_eq!(restored.catalog().total_rows(), 2);

        // Same policy behaviour, including the inherited role and the
        // specialised purpose.
        let user = User::new("v", "vp");
        let request = QueryRequest::new("SELECT who FROM Deals", "renewal");
        let a = db.query(&user, &request).unwrap();
        let b = restored.query(&user, &request).unwrap();
        assert_eq!(a.released.len(), b.released.len());
        assert_eq!(a.threshold, b.threshold);

        // Same improvement proposal (cost function survived).
        let pa = a.proposal.expect("weak row improvable");
        let pb = b.proposal.expect("weak row improvable");
        assert_eq!(pa.increments, pb.increments);
        assert!((pa.cost - pb.cost).abs() < 1e-12);

        // New inserts in the restored database do not collide with ids.
        let next = restored
            .insert(
                "Deals",
                vec![
                    Value::text("new"),
                    Value::Real(1.0),
                    Value::Bool(true),
                    Value::Int(1),
                ],
                0.5,
            )
            .unwrap();
        assert!(next > weak);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_cost_family_round_trips() {
        let costs = [
            CostFn::linear(3.5).unwrap(),
            CostFn::polynomial(2.0, 3.0).unwrap(),
            CostFn::exponential(1.5, 4.0).unwrap(),
            CostFn::logarithmic(2.5, 9.0).unwrap(),
            CostFn::piecewise(vec![(0.0, 0.0), (0.5, 2.0), (1.0, 10.0)]).unwrap(),
        ];
        for cost in costs {
            let encoded = encode_cost(&cost).unwrap();
            let fields: Vec<&str> = encoded.split('\t').collect();
            let decoded = decode_cost(&fields).unwrap();
            assert_eq!(decoded, cost);
        }
    }

    #[test]
    fn load_rejects_corrupt_manifests() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("manifest.tsv"), "not a manifest\n").unwrap();
        assert!(load(&dir, EngineConfig::default()).is_err());
        fs::write(
            dir.join("manifest.tsv"),
            "pcqe-manifest\tv1\ntable\tt\ncolumn\tx\tINT\n",
        )
        .unwrap();
        assert!(
            load(&dir, EngineConfig::default()).is_err(),
            "unterminated table"
        );
        fs::write(
            dir.join("manifest.tsv"),
            "pcqe-manifest\tv1\ncost\t0\tmystery\t1\n",
        )
        .unwrap();
        assert!(load(&dir, EngineConfig::default()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_rejects_unpersistable_names() {
        let mut db = Database::new(EngineConfig::default());
        db.add_policy(ConfidencePolicy::new("bad\trole", "p", 0.5).unwrap());
        let dir = temp_dir("badname");
        assert!(save(&db, &dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
