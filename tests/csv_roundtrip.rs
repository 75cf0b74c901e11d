//! Seeded round-trip tests for the CSV layer: arbitrary values —
//! including quotes, commas, newlines and unicode — must survive
//! write-then-load exactly, both with fresh ids and with preserved ids,
//! and through `persist`'s directory of them; every way in leaves the
//! column images in step with the rows.

mod common;

use common::{
    assert_images_aligned, assert_matches_reference, explained, for_each_case, random_string,
    reference, write_sealed_manifest,
};
use pcqe::engine::{persist, Database, EngineConfig, EngineError, QueryRequest, User};
use pcqe::lineage::Rng64;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::csv::{load_into, write_table_with_ids};
use pcqe::storage::{Catalog, Column, DataType, Schema, Value};
use std::io::Cursor;

const CASES: u64 = 128;

/// Text alphabet exercising the CSV escaping rules: printable ASCII plus
/// quotes, commas, newlines and multi-byte unicode.
const TEXT_ALPHABET: &[char] = &[
    'a', 'z', 'A', 'Z', '0', '9', ' ', '!', '#', '$', '%', '&', '(', ')', '*', '+', ',', '-', '.',
    '/', ':', ';', '<', '=', '>', '?', '@', '[', '\\', ']', '^', '_', '`', '{', '|', '}', '~', '"',
    '\n', 'é', 'ß', '世',
];

fn random_value(rng: &mut Rng64, ty: DataType) -> Value {
    // One time in four: NULL, matching the old 3:1 strategy weights.
    if rng.below_usize(4) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(rng.next_u64() as i64),
        DataType::Real => Value::Real(rng.range_f64(-1e12, 1e12)),
        DataType::Bool => Value::Bool(rng.chance(0.5)),
        DataType::Text => Value::text(random_string(rng, TEXT_ALPHABET, 24)),
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        "t",
        Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("r", DataType::Real),
            Column::new("b", DataType::Bool),
            Column::new("s", DataType::Text),
        ])
        .unwrap(),
    )
    .unwrap();
    c
}

#[test]
fn csv_round_trips_values_and_confidences() {
    for_each_case(CASES, 0xC5F0_0001, |rng| {
        let n_rows = rng.below_usize(12);
        let mut c = catalog();
        for _ in 0..n_rows {
            let i = random_value(rng, DataType::Int);
            let r = random_value(rng, DataType::Real);
            let b = random_value(rng, DataType::Bool);
            // Empty text is indistinguishable from NULL in CSV; normalise.
            let s = match random_value(rng, DataType::Text) {
                Value::Text(t) if t.is_empty() => Value::Null,
                other => other,
            };
            let conf = rng.next_f64();
            c.insert("t", vec![i, r, b, s], conf).unwrap();
        }
        let mut buf = Vec::new();
        write_table_with_ids(c.table("t").unwrap(), &mut buf).unwrap();
        let mut c2 = catalog();
        load_into(&mut c2, "t", Cursor::new(&buf)).unwrap();
        assert_images_aligned(&c, "Catalog::insert");
        assert_images_aligned(&c2, "csv::load_into");
        let (t1, t2) = (c.table("t").unwrap(), c2.table("t").unwrap());
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.rows().iter().zip(t2.rows()) {
            assert_eq!(a.id, b.id);
            assert_eq!(&a.tuple, &b.tuple);
            // Confidence survives via its shortest round-trippable form.
            assert!((a.confidence.get() - b.confidence.get()).abs() < 1e-15);
        }
    });
}

/// A load is all or nothing: a file refused at its last record — a field
/// that does not parse, a confidence out of range, an id the file or the
/// catalog already holds — leaves the rows, the index postings, the images
/// and the next tuple id as they were.
#[test]
fn a_refused_csv_load_leaves_the_catalog_untouched() {
    let mut c = catalog();
    c.create_index("t", "i").unwrap();
    c.create_index("t", "s").unwrap();
    let held = c
        .insert(
            "t",
            vec![
                Value::Int(1),
                Value::Real(0.5),
                Value::Null,
                Value::text("x"),
            ],
            0.5,
        )
        .unwrap();
    let before = c.clone();
    for (csv, error) in [
        (
            "i,r,b,s,confidence\n1,1.5,true,x,0.5\n2,-0.0,,y,0.6\noops,2.5,false,z,0.7\n"
                .to_owned(),
            "csv error at line 4: bad integer `oops`".to_owned(),
        ),
        (
            "i,r,b,s,confidence\n1,1.5,true,x,0.5\n2,2.5,,y,1.6\n".to_owned(),
            "confidence outside [0, 1]".to_owned(),
        ),
        (
            "__id,i,r,b,s,confidence\n7,1,1.5,true,x,0.5\n8,2,2.5,,y,0.6\n7,3,3.5,,z,0.7\n"
                .to_owned(),
            "tuple id 7 already exists".to_owned(),
        ),
        (
            format!(
                "__id,i,r,b,s,confidence\n7,1,1.5,true,x,0.5\n{},2,2.5,,y,0.6\n",
                held.0
            ),
            format!("tuple id {} already exists", held.0),
        ),
    ] {
        let refused = load_into(&mut c, "t", Cursor::new(&csv)).unwrap_err();
        assert_eq!(refused.to_string(), error, "{csv}");
        let (table, was) = (c.table("t").unwrap(), before.table("t").unwrap());
        assert_eq!(table.rows(), was.rows(), "{csv}");
        assert_eq!(table.indexes(), was.indexes(), "{csv}");
        assert_images_aligned(&c, &csv);
        // No id was burned: a clone inserts under the id the untouched
        // catalog hands out.
        let row = vec![Value::Null, Value::Null, Value::Null, Value::Null];
        let next = |catalog: &Catalog| catalog.clone().insert("t", row.clone(), 1.0).unwrap();
        assert_eq!(next(&c), next(&before), "{csv}");
    }
    // The same records without the offending one load, ids and all.
    let csv = "__id,i,r,b,s,confidence\n7,1,1.5,true,x,0.5\n9,2,2.5,,y,0.6\n";
    let ids = load_into(&mut c, "t", Cursor::new(csv)).unwrap();
    assert_eq!(ids.iter().map(|id| id.0).collect::<Vec<_>>(), [7, 9]);
    assert_eq!(c.table("t").unwrap().len(), 3);
    assert_images_aligned(&c, csv);
}

#[test]
fn persisted_databases_reload_with_aligned_images() {
    let mut rng = Rng64::seed_from_u64(0xC5F0_0018);
    let mut db = Database::new(EngineConfig::default());
    db.create_table(
        "readings",
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Real),
            Column::new("tag", DataType::Text),
        ])
        .unwrap(),
    )
    .unwrap();
    // More than one image chunk, with every kind of slot.
    for i in 0..1_500i64 {
        let k = if rng.chance(0.1) {
            Value::Null
        } else {
            Value::Int(i % 11)
        };
        let v = match rng.below_u64(6) {
            0 => Value::Null,
            1 => Value::Int(2), // widened into the REAL column
            2 => Value::Real(-0.0),
            _ => Value::Real(rng.range_f64(-4.0, 4.0)),
        };
        let row = vec![k, v, Value::text(format!("r{i}"))];
        db.insert("readings", row, rng.range_f64(0.05, 0.95))
            .unwrap();
    }
    assert_images_aligned(db.catalog(), "Database::insert");
    let policy = ConfidencePolicy::new("analyst", "audit", 0.4).unwrap();
    db.add_policy(policy.clone());

    let dir = std::env::temp_dir().join(format!("pcqe-image-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    persist::save(&db, &dir).unwrap();
    let mut restored = persist::load(&dir, EngineConfig::default()).unwrap();
    assert_eq!(common::total_rows(restored.catalog()), 1_500);
    assert_images_aligned(restored.catalog(), "persist::load");

    // A range query on the reloaded database — the image scan — gives the
    // reference pipeline's answer.
    let sql = "SELECT k, v, tag FROM readings WHERE v > -1.5 AND v <= 2 AND 3 <= k";
    let expected = reference(sql, restored.catalog(), &policy);
    let analyst = User::new("ana", "analyst");
    let response = restored
        .query(&analyst, &QueryRequest::new(sql, "audit"))
        .unwrap();
    assert_matches_reference(&response, &expected, &policy, sql);
    assert!(response.released.len() > 20 && response.withheld > 20);

    // A truncated table file is a typed error, never a shorter table: the
    // manifest carries the file's checksum.
    let file = dir.join("readings.csv");
    let csv = std::fs::read(&file).unwrap();
    for cut in (0..csv.len()).step_by(csv.len() / 150) {
        std::fs::write(&file, &csv[..cut]).unwrap();
        match persist::load(&dir, EngineConfig::default()) {
            Err(EngineError::Storage(_)) => {}
            Err(other) => panic!("cut at byte {cut}: untyped {other:?}"),
            Ok(partial) => panic!(
                "cut at byte {cut}: loaded {} rows",
                common::total_rows(partial.catalog())
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory nobody saved: tuple ids at `u64::MAX`, at 2⁴⁰ and
/// thousands more 2³² apart, out of order. `load` takes them as they
/// are — ids are lineage variables, so they reach the circuit pool
/// unchanged, where anything indexed densely by id would try to allocate
/// the id space — and queries over them answer like the reference.
#[test]
fn a_hand_written_directory_with_hostile_tuple_ids_loads_and_answers() {
    let dir = std::env::temp_dir().join(format!("pcqe-hostile-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut readings = String::from("__id,k,v,confidence\n");
    let mut rng = Rng64::seed_from_u64(0xC5F0_01D5);
    // 256 << 32 is 2⁴⁰, so that one is among the first 2 400.
    let mut ids: Vec<u64> = (1..=2_400u64).map(|i| i << 32).collect();
    ids.extend([u64::MAX, (1 << 40) + 1, 7]);
    rng.shuffle(&mut ids);
    for (i, id) in ids.iter().enumerate() {
        let v = rng.range_f64(-1.0, 3.0);
        let confidence = rng.range_f64(0.0005, 0.003);
        readings.push_str(&format!("{id},{},{v},{confidence}\n", i % 4));
    }
    std::fs::write(dir.join("readings.csv"), readings).unwrap();
    let sites = format!(
        "__id,k,name,confidence\n{},0,north,0.8\n3,1,south,0.7\n{},2,east,0.6\n",
        u64::MAX - 1,
        3u64 << 62
    );
    std::fs::write(dir.join("sites.csv"), sites).unwrap();
    let manifest = "pcqe-manifest\tv2\n\
        table\treadings\ncolumn\tk\tINT\ncolumn\tv\tREAL\nend\n\
        table\tsites\ncolumn\tk\tINT\ncolumn\tname\tTEXT\nend\n\
        policy\tanalyst\taudit\t0.4\n";
    write_sealed_manifest(&dir, manifest);

    let mut db = persist::load(&dir, EngineConfig::default()).unwrap();
    assert_eq!(common::total_rows(db.catalog()), ids.len() + 3);
    assert_images_aligned(db.catalog(), "persist::load of hostile ids");
    let policy = ConfidencePolicy::new("analyst", "audit", 0.4).unwrap();
    let analyst = User::new("ana", "analyst");
    let mut released = 0;
    for sql in [
        "SELECT k, COUNT(*) AS n FROM readings GROUP BY k",
        "SELECT DISTINCT s.name FROM readings r JOIN sites s ON r.k = s.k WHERE r.v > 0",
        "SELECT k FROM readings WHERE v > 2 UNION SELECT k FROM readings WHERE v < 2.5",
        "SELECT name FROM sites",
    ] {
        let expected = reference(sql, db.catalog(), &policy);
        let response = db
            .query(&analyst, &QueryRequest::new(sql, "audit"))
            .unwrap();
        assert_matches_reference(&response, &expected, &policy, sql);
        released += response.released.len();
    }
    assert!(released >= 8, "only {released} rows were released");

    // The id counter stops short of `u64::MAX`, which is taken: the next
    // insert is a typed refusal, not a second tuple with that id.
    let row = vec![Value::Int(0), Value::Real(0.0)];
    assert!(matches!(
        db.insert("readings", row, 0.5),
        Err(EngineError::Storage(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Indexes are part of what `save` writes: a reloaded database keeps them,
/// so it plans the index scan and the index join the saved one planned —
/// not the same answers at table-scan speed. An `index` line that cannot
/// be honoured is a typed error; a manifest without any loads as before.
#[test]
fn persisted_databases_reload_with_their_indexes() {
    let mut db = Database::new(EngineConfig::default());
    let int = |name| Column::new(name, DataType::Int);
    let orders = vec![
        int("id"),
        int("cust"),
        Column::new("amount", DataType::Real),
    ];
    db.create_table("orders", Schema::new(orders).unwrap())
        .unwrap();
    let customers = vec![int("id"), Column::new("name", DataType::Text)];
    db.create_table("customers", Schema::new(customers).unwrap())
        .unwrap();
    // Second column first: creation order is not column order.
    db.create_index("customers", "name").unwrap();
    db.create_index("customers", "id").unwrap();
    db.create_index("orders", "cust").unwrap();
    for i in 0..200i64 {
        let row = vec![Value::Int(i), Value::Int(i % 40), Value::Real(i as f64)];
        db.insert("orders", row, 0.5).unwrap();
    }
    for i in 0..40i64 {
        let row = vec![Value::Int(i), Value::text(format!("c{i}"))];
        db.insert("customers", row, 0.5).unwrap();
    }
    let index_scan = "SELECT id FROM orders WHERE cust = 7 AND amount > 3";
    let index_join = "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust = c.id";
    let plans = |db: &mut Database| {
        [index_scan, index_join].map(|sql| explained(db, &format!("EXPLAIN {sql}")).unwrap())
    };
    let [scan_plan, join_plan] = plans(&mut db);
    assert!(
        scan_plan.contains("IndexScan orders (cust = 7)"),
        "{scan_plan}"
    );
    assert!(
        join_plan.contains("IndexJoin customers AS c (id)"),
        "{join_plan}"
    );

    let dir = std::env::temp_dir().join(format!("pcqe-index-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    persist::save(&db, &dir).unwrap();
    let mut restored = persist::load(&dir, EngineConfig::default()).unwrap();
    let indexed = |db: &Database, table: &str| -> Vec<usize> {
        let table = db.catalog().table(table).unwrap();
        table.indexes().iter().map(|ix| ix.column()).collect()
    };
    for (table, columns) in [("customers", vec![1, 0]), ("orders", vec![1])] {
        assert_eq!(indexed(&db, table), columns);
        assert_eq!(indexed(&restored, table), columns, "{table} after reload");
        let (saved, loaded) = (db.catalog().table(table), restored.catalog().table(table));
        assert_eq!(saved.unwrap().indexes(), loaded.unwrap().indexes());
    }
    assert_eq!(plans(&mut restored), [scan_plan, join_plan]);

    // An old manifest: the same file without its `index` lines.
    let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
    let (index_lines, other_lines): (Vec<&str>, Vec<&str>) = manifest
        .lines()
        .partition(|line| line.starts_with("index\t"));
    assert_eq!(
        index_lines,
        [
            "index\tcustomers\tname",
            "index\tcustomers\tid",
            "index\torders\tcust"
        ]
    );
    let old = other_lines.join("\n") + "\n";
    write_sealed_manifest(&dir, &old);
    let unindexed = persist::load(&dir, EngineConfig::default()).unwrap();
    assert_eq!(common::total_rows(unindexed.catalog()), 240);
    assert!(indexed(&unindexed, "customers").is_empty());

    // Index lines `create_index` refuses — no such table, no such column,
    // a `REAL` column — and one that comes before its table's block.
    for (line, reason) in [
        ("index\tnobody\tid", "unknown table"),
        ("index\torders\tnothing", "unknown column"),
        ("index\torders\tamount", "cannot carry an equality index"),
    ] {
        write_sealed_manifest(&dir, &format!("{old}{line}\n"));
        match persist::load(&dir, EngineConfig::default()) {
            Err(EngineError::Storage(e)) => {
                assert!(e.to_string().contains(reason), "{line:?}: {e}")
            }
            other => panic!("{line:?} loaded as {:?}", other.map(|_| "a database")),
        }
    }
    write_sealed_manifest(&dir, &old.replacen('\n', "\nindex\torders\tcust\n", 1));
    assert!(matches!(
        persist::load(&dir, EngineConfig::default()),
        Err(EngineError::Storage(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A save cut short or altered never loads: not at any line boundary of
/// the manifest or of a table file, not with one bit flipped, not with a
/// file gone. Without checksums, a manifest that lost its last line — the
/// clerk's β = 0.9 policy, saved after the `* * 0.1` floor — loaded, and
/// the clerk's query released at the floor a row the policy holds back;
/// a table file that lost its last row dropped the right side of an
/// `EXCEPT`, releasing the row it had subtracted.
#[test]
fn a_torn_or_flipped_save_never_loads() {
    let mut db = Database::new(EngineConfig::default());
    for table in ["a", "b"] {
        db.execute(&format!("CREATE TABLE {table} (k INT)"))
            .unwrap();
    }
    db.insert("a", vec![Value::Int(1)], 0.5).unwrap();
    db.insert("a", vec![Value::Int(2)], 0.95).unwrap();
    db.insert("b", vec![Value::Int(2)], 0.9).unwrap();
    db.add_policy(ConfidencePolicy::default_floor(0.1).unwrap());
    db.add_policy(ConfidencePolicy::new("clerk", "audit", 0.9).unwrap());
    let clerk = User::new("cleo", "clerk");
    let request = QueryRequest::new("SELECT k FROM a EXCEPT SELECT k FROM b", "audit");
    let released = |db: &mut Database| db.query(&clerk, &request).unwrap().released.len();
    // k = 1 at 0.5 and k = 2 at 0.95 · (1 − 0.9): neither clears β = 0.9.
    assert_eq!(released(&mut db), 0);

    let dir = std::env::temp_dir().join(format!("pcqe-torn-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    persist::save(&db, &dir).unwrap();
    let load = || persist::load(&dir, EngineConfig::default());
    for file in ["manifest.tsv", "a.csv", "b.csv"] {
        let path = dir.join(file);
        let saved = std::fs::read(&path).unwrap();
        // Every line boundary short of the whole file, longest first, then
        // the file with one bit flipped.
        let mut torn: Vec<(String, Vec<u8>)> = (0..saved.len())
            .rev()
            .filter(|&cut| cut == 0 || saved[cut - 1] == b'\n')
            .map(|cut| {
                (
                    format!("cut to {cut} of {} bytes", saved.len()),
                    saved[..cut].to_vec(),
                )
            })
            .collect();
        let mut flipped = saved.clone();
        flipped[saved.len() / 2] ^= 0x04;
        torn.push(("with one bit flipped".to_owned(), flipped));
        for (how, bytes) in torn {
            std::fs::write(&path, bytes).unwrap();
            match load() {
                Err(EngineError::Storage(_)) => {}
                Err(other) => panic!("{file} {how}: untyped {other:?}"),
                Ok(mut db) => panic!(
                    "{file} {how} loaded, and the clerk's query released {} row(s)",
                    released(&mut db)
                ),
            }
        }
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(load(), Err(EngineError::Storage(_))),
            "{file} gone"
        );
        std::fs::write(&path, &saved).unwrap();
    }
    assert_eq!(
        released(&mut load().unwrap()),
        0,
        "the intact save loads as saved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
