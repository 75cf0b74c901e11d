//! A confidence is a real in [0, 1] with one encoding. Every point where
//! one enters the system refuses NaN, ±∞ and values outside [0, 1]
//! without leaving anything behind, keeps −0.0 as +0.0 and a subnormal
//! as it is; and a saved image is the same bytes whichever zero it was
//! given.

mod common;

use common::write_sealed_manifest;
use pcqe::core::ProblemBuilder;
use pcqe::cost::CostFn;
use pcqe::engine::{
    persist, Database, EngineConfig, ImprovementProposal, QueryRequest, StatementOutcome, User,
};
use pcqe::policy::ConfidencePolicy;
use pcqe::provenance::{Agent, Assigner, CollectionMethod, ProvenanceRecord, Source};
use pcqe::storage::csv::load_into;
use pcqe::storage::{Catalog, Column, DataType, Schema, TupleId, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn schema() -> Schema {
    Schema::new(vec![Column::new("k", DataType::Int)]).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pcqe-confidence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of a saved directory, by name.
fn image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// −0.0 and +0.0 are one confidence, so they save as one image: the
/// table file, its manifest `end` line and the manifest `checksum` are
/// the same bytes. An image that spells the confidence `-0` loads as
/// +0.0.
#[test]
fn a_negative_zero_confidence_saves_and_loads_as_zero() {
    let save = |zero: f64, tag: &str| {
        let mut db = Database::new(EngineConfig::default());
        db.create_table("t", schema()).unwrap();
        db.insert("t", vec![Value::Int(1)], zero).unwrap();
        db.add_policy(ConfidencePolicy::new("analyst", "audit", zero).unwrap());
        let dir = temp_dir(tag);
        persist::save(&db, &dir).unwrap();
        let saved = image(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        saved
    };
    let (negative, positive) = (save(-0.0, "neg"), save(0.0, "pos"));
    let text = |bytes: Option<&Vec<u8>>| {
        String::from_utf8_lossy(bytes.map_or(&[], Vec::as_slice)).into_owned()
    };
    let differ: Vec<String> = positive
        .iter()
        .filter(|&(name, bytes)| negative.get(name) != Some(bytes))
        .map(|(name, bytes)| {
            let (neg, pos) = (text(negative.get(name)), text(Some(bytes)));
            format!("{name}:\n  -0.0 {neg:?}\n  +0.0 {pos:?}")
        })
        .collect();
    assert!(differ.is_empty(), "{}", differ.join("\n"));
    assert_eq!(negative.len(), positive.len());

    let dir = temp_dir("hand-written");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("t.csv"), "__id,k,confidence\n0,1,-0\n").unwrap();
    let manifest = "pcqe-manifest\tv2\ntable\tt\ncolumn\tk\tINT\nend\n";
    write_sealed_manifest(&dir, manifest);
    let db = persist::load(&dir, EngineConfig::default()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let loaded = db.confidence(TupleId(0)).unwrap();
    assert_eq!(loaded.to_bits(), 0.0f64.to_bits());
}

/// The hostile values, and the bits each reads back as when it is
/// accepted.
fn hostile() -> [(&'static str, f64, Option<f64>); 7] {
    [
        ("NaN", f64::NAN, None),
        ("+inf", f64::INFINITY, None),
        ("-inf", f64::NEG_INFINITY, None),
        ("-0.0", -0.0, Some(0.0)),
        ("5e-324", 5e-324, Some(5e-324)),
        ("1+eps", 1.0f64.next_up(), None),
        ("-eps", (-0.0f64).next_down(), None),
    ]
}

/// What a row gets to work on: a database holding one tuple at
/// confidence 0, withheld at β = 0, and a proposal to raise it; and a
/// catalog with the same empty table, for the CSV loader.
struct Fixture {
    db: Database,
    proposal: ImprovementProposal,
    catalog: Catalog,
}

fn analyst() -> User {
    User::new("ana", "analyst")
}

fn request() -> QueryRequest {
    QueryRequest::new("SELECT k FROM t", "audit").expecting(1.0)
}

fn fixture() -> Fixture {
    let mut db = Database::new(EngineConfig::default());
    db.create_table("t", schema()).unwrap();
    db.insert("t", vec![Value::Int(0)], 0.0).unwrap();
    db.add_policy(ConfidencePolicy::new("analyst", "audit", 0.0).unwrap());
    let proposal = db.query(&analyst(), &request()).unwrap().proposal.unwrap();
    let mut catalog = Catalog::new();
    catalog.create_table("t", schema()).unwrap();
    Fixture {
        db,
        proposal,
        catalog,
    }
}

/// What a row reads back: the value as it landed, or `None` where the
/// ingestion point keeps no copy it reports (a preview that releases
/// nothing).
type Outcome = Result<Option<f64>, String>;

fn stored(db: &Database, id: TupleId) -> Outcome {
    Ok(db.confidence(id))
}

fn raised(proposal: &ImprovementProposal, to: f64) -> ImprovementProposal {
    let mut raised = proposal.clone();
    raised.increments.iter_mut().for_each(|i| i.to = to);
    raised
}

fn insert(f: &mut Fixture, v: f64) -> Outcome {
    let id = f.db.insert("t", vec![Value::Int(1)], v);
    stored(&f.db, id.map_err(|e| e.to_string())?)
}

fn sql_insert(f: &mut Fixture, v: f64) -> Outcome {
    let sql = format!("INSERT INTO t VALUES (1) WITH CONFIDENCE {v:?}");
    match f.db.execute(&sql).map_err(|e| e.to_string())? {
        StatementOutcome::Inserted(ids) => stored(&f.db, ids[0]),
        other => panic!("{other:?}"),
    }
}

fn csv(f: &mut Fixture, v: f64) -> Outcome {
    let text = format!("k,confidence\n1,{v:?}\n");
    let ids = load_into(&mut f.catalog, "t", text.as_bytes()).map_err(|e| e.to_string())?;
    Ok(f.catalog.confidence(ids[0]))
}

fn assessed(f: &mut Fixture, record: Result<ProvenanceRecord, String>) -> Outcome {
    let id = f.db.insert_assessed("t", vec![Value::Int(1)], &[record?]);
    stored(&f.db, id.map_err(|e| e.to_string())?)
}

fn source(f: &mut Fixture, v: f64) -> Outcome {
    let source = Source::new("s", v).map_err(|e| e.to_string());
    let record = source.map(|s| ProvenanceRecord::new(s, CollectionMethod::Audited));
    assessed(f, record)
}

fn agent(f: &mut Fixture, v: f64) -> Outcome {
    let source = Source::new("s", 1.0).unwrap();
    let record = ProvenanceRecord::new(source, CollectionMethod::Audited);
    let agent = Agent::new("a", v).map_err(|e| e.to_string());
    assessed(f, agent.map(|a| record.via(a)))
}

/// The assigner keeps its corroboration private; its `Debug` is where it
/// reads back.
fn assigner(_: &mut Fixture, v: f64) -> Outcome {
    let assigner = Assigner::new(365.0, v).map_err(|e| e.to_string())?;
    let shown = format!("{assigner:?}");
    let (_, rest) = shown.split_once("corroboration: ").unwrap();
    Ok(Some(rest.trim_end_matches([' ', '}']).parse().unwrap()))
}

fn apply(f: &mut Fixture, v: f64) -> Outcome {
    let proposal = raised(&f.proposal, v);
    f.db.apply(&proposal).map_err(|e| e.to_string())?;
    stored(&f.db, proposal.increments[0].tuple_id)
}

/// A preview keeps no copy of the raise; at β = 0 it releases the row
/// at the raised confidence when that is above zero.
fn what_if(f: &mut Fixture, v: f64) -> Outcome {
    let proposal = raised(&f.proposal, v);
    let preview = f.db.what_if(&analyst(), &request(), &proposal);
    let preview = preview.map_err(|e| e.to_string())?;
    Ok(preview.released.first().map(|r| r.confidence))
}

fn policy(_: &mut Fixture, v: f64) -> Outcome {
    let policy = ConfidencePolicy::new("analyst", "audit", v).map_err(|e| e.to_string())?;
    Ok(Some(policy.threshold))
}

fn problem(beta: f64, initial: f64) -> Result<pcqe::core::ProblemInstance, String> {
    let mut builder = ProblemBuilder::new(beta, 0.1);
    builder.base(0, initial, CostFn::linear(1.0).unwrap());
    builder.build().map_err(|e| e.to_string())
}

fn beta(_: &mut Fixture, v: f64) -> Outcome {
    Ok(Some(problem(v, 0.5)?.beta))
}

fn initial(_: &mut Fixture, v: f64) -> Outcome {
    Ok(Some(problem(0.5, v)?.bases[0].initial))
}

/// The value is the first breakpoint when it is a zero and the second
/// otherwise: the first must be at 0 and each next one above it.
fn breakpoint(_: &mut Fixture, v: f64) -> Outcome {
    let (points, at) = if v == 0.0 {
        (vec![(v, 0.0), (1.0, 1.0)], 0)
    } else {
        (vec![(0.0, 0.0), (v, 1.0)], 1)
    };
    match CostFn::piecewise(points).map_err(|e| e.to_string())? {
        CostFn::Piecewise { points } => Ok(Some(points[at].0)),
        other => panic!("{other}"),
    }
}

/// What a refusal must leave as it was.
#[derive(Debug, PartialEq)]
struct Trace {
    rows: usize,
    catalog_rows: usize,
    audited: usize,
    zero: Option<u64>,
}

fn trace(f: &Fixture) -> Trace {
    Trace {
        rows: common::total_rows(f.db.catalog()),
        catalog_rows: common::total_rows(&f.catalog),
        audited: f.db.audit_log().len(),
        zero: f.db.confidence(TupleId(0)).map(f64::to_bits),
    }
}

/// The ids the next insert into the database and into the catalog take.
fn next_ids(f: &mut Fixture) -> (TupleId, TupleId) {
    let db = f.db.insert("t", vec![Value::Int(9)], 0.5).unwrap();
    let catalog = f.catalog.insert("t", vec![Value::Int(9)], 0.5).unwrap();
    (db, catalog)
}

/// Whether a refusal left the fixture as it found it: no row, no audit
/// entry, no raise, no version bump (the proposal is not stale) and no
/// id taken (the next ids are an untouched fixture's).
fn left_nothing(f: &mut Fixture, before: &Trace, untouched: (TupleId, TupleId)) -> bool {
    let stale = f.db.what_if(&analyst(), &request(), &f.proposal).is_err();
    trace(f) == *before && !stale && next_ids(f) == untouched
}

type Row = (&'static str, fn(&mut Fixture, f64) -> Outcome);

const ROWS: [Row; 12] = [
    ("Database::insert", insert),
    ("INSERT … WITH CONFIDENCE", sql_insert),
    ("csv::load_into", csv),
    ("insert_assessed(Source::new)", source),
    ("insert_assessed(Agent::new)", agent),
    ("Assigner::new", assigner),
    ("apply", apply),
    ("what_if", what_if),
    ("ConfidencePolicy::new", policy),
    ("ProblemBuilder::build (β)", beta),
    ("ProblemBuilder::build (initial)", initial),
    ("CostFn::piecewise", breakpoint),
];

/// One table: every ingestion point against every hostile value. SQL
/// cannot spell NaN or ∞, and its parser refuses a signed confidence,
/// so those cells expect the parse refusal.
#[test]
fn every_ingestion_point_refuses_hostile_confidences_and_keeps_one_zero() {
    let untouched = next_ids(&mut fixture());
    let mut wrong = Vec::new();
    for (row, run) in ROWS {
        for (name, v, reads) in hostile() {
            let mut f = fixture();
            let before = trace(&f);
            let outcome = run(&mut f, v);
            let unspellable = v.is_nan() || v.is_infinite() || v.is_sign_negative();
            let ok = match (&outcome, reads) {
                (Err(e), _) if row.starts_with("INSERT") && unspellable => {
                    e.contains("expected a numeric confidence")
                        && left_nothing(&mut f, &before, untouched)
                }
                (Err(_), None) => left_nothing(&mut f, &before, untouched),
                (Ok(Some(got)), Some(want)) => got.to_bits() == want.to_bits(),
                // Only a preview reads nothing back, when it releases
                // nothing: at a zero.
                (Ok(None), Some(want)) => row == "what_if" && want == 0.0,
                _ => false,
            };
            if !ok {
                wrong.push(format!("{row} × {name}: {outcome:?}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
