//! CSV import/export for confidence-carrying tables.
//!
//! The format is RFC-4180-flavoured: comma-separated, `"` quoting with
//! `""` escapes, one header row. The last column may be named
//! `confidence` (case-insensitive); when present it supplies each row's
//! confidence, otherwise rows load with confidence `1.0`. A leading
//! `__id` column, one more than the table has, carries each row's tuple
//! id (persistence, where ids must survive a round trip); without it rows
//! get fresh ids. Empty unquoted fields load as NULL.

use crate::catalog::Catalog;
use crate::error::StorageError;
use crate::table::Table;
use crate::tuple::TupleId;
use crate::value::{DataType, Value};
use crate::Result;
use std::io::{BufRead, Write};

/// Header of the optional leading tuple-id column.
const ID_COLUMN: &str = "__id";

/// Export a table as CSV with a leading `__id` column and a trailing
/// `confidence` column (for persistence, where tuple ids must survive a
/// round trip).
pub fn write_table_with_ids<W: Write>(table: &Table, out: &mut W) -> std::io::Result<()> {
    let mut header = vec![ID_COLUMN.to_owned()];
    header.extend(table.schema().columns().iter().map(|c| quote(&c.name)));
    header.push("confidence".to_owned());
    writeln!(out, "{}", header.join(","))?;
    for row in table.rows() {
        let mut cells = vec![row.id.0.to_string()];
        cells.extend(row.tuple.values().iter().map(|v| match v {
            Value::Null => String::new(),
            Value::Text(s) => quote(s),
            other => other.to_string(),
        }));
        cells.push(row.confidence.get().to_string());
        writeln!(out, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Load CSV rows into an existing catalog table, returning their tuple
/// ids. The header must name the table's columns in order (matched
/// case-insensitively), optionally preceded by `__id` — the rows then keep
/// the ids the file gives them, as [`write_table_with_ids`] wrote them,
/// instead of taking fresh ones — and optionally followed by `confidence`.
///
/// All or nothing: every record is parsed and checked once, by
/// [`Catalog::insert_all`] — a given id also against the file's earlier
/// rows — before the first is written, so a refused load (the error is
/// that of its first offending line) leaves no row, id or index posting
/// behind.
pub fn load_into<R: BufRead>(
    catalog: &mut Catalog,
    table: &str,
    reader: R,
) -> Result<Vec<TupleId>> {
    let mut records = parse(reader)?.into_iter();
    let header = records
        .next()
        .ok_or_else(|| csv_err(0, "missing header row"))?;
    let schema = catalog.table(table)?.schema().clone();
    let with_confidence = header
        .last()
        .is_some_and(|h| h.eq_ignore_ascii_case("confidence"));
    let named = schema.arity() + usize::from(with_confidence);
    let with_ids = header.len() == named + 1 && header.first().is_some_and(|h| h == ID_COLUMN);
    let expected = named + usize::from(with_ids);
    if header.len() != expected {
        return Err(csv_err(
            1,
            format!(
                "header has {} columns, table `{table}` needs {}{}",
                header.len(),
                schema.arity(),
                if with_confidence { " + confidence" } else { "" }
            ),
        ));
    }
    let named_columns = header.iter().skip(usize::from(with_ids));
    for (h, c) in named_columns.zip(schema.columns()) {
        if !h.eq_ignore_ascii_case(&c.name) {
            return Err(csv_err(
                1,
                format!(
                    "header column `{h}` does not match schema column `{}`",
                    c.name
                ),
            ));
        }
    }
    let rows = records.enumerate().map(|(i, record)| {
        let line = i + 2;
        if record.len() != expected {
            return Err(csv_err(
                line,
                format!("expected {expected} fields, found {}", record.len()),
            ));
        }
        let empty = || csv_err(line, "empty record");
        let mut fields = record.as_slice();
        let mut id = None;
        if with_ids {
            let (raw, rest) = fields.split_first().ok_or_else(empty)?;
            let given = raw.parse().map(TupleId);
            id = Some(given.map_err(|_| csv_err(line, format!("bad tuple id `{raw}`")))?);
            fields = rest;
        }
        let mut confidence = 1.0;
        if with_confidence {
            let (raw, rest) = fields.split_last().ok_or_else(empty)?;
            let given = raw.parse::<f64>();
            confidence = given.map_err(|_| csv_err(line, format!("bad confidence `{raw}`")))?;
            fields = rest;
        }
        let mut values = Vec::with_capacity(schema.arity());
        for (raw, col) in fields.iter().zip(schema.columns()) {
            values.push(parse_value(raw, col.data_type, line)?);
        }
        Ok((id, values, confidence))
    });
    catalog.insert_all(table, rows)
}

fn parse_value(raw: &str, ty: DataType, line: usize) -> Result<Value> {
    if raw.is_empty() {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Int => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| csv_err(line, format!("bad integer `{raw}`"))),
        DataType::Real => raw
            .parse::<f64>()
            .map(Value::Real)
            .map_err(|_| csv_err(line, format!("bad real `{raw}`"))),
        DataType::Bool => match raw.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(csv_err(line, format!("bad boolean `{raw}`"))),
        },
        DataType::Text => Ok(Value::Text(raw.to_owned())),
    }
}

fn csv_err(line: usize, message: impl Into<String>) -> StorageError {
    StorageError::Csv {
        line,
        message: message.into(),
    }
}

/// Quote a field if it contains a comma, a quote, or a newline.
fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Parse a whole CSV document into records of fields.
fn parse<R: BufRead>(mut reader: R) -> Result<Vec<Vec<String>>> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| csv_err(0, format!("read failed: {e}")))?;
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut any = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                if field.is_empty() {
                    in_quotes = true;
                    any = true;
                } else {
                    return Err(csv_err(line, "quote inside unquoted field"));
                }
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                any = true;
            }
            '\r' => {
                if chars.peek() == Some(&'\n') {
                    continue; // handled by the \n branch
                }
            }
            '\n' => {
                line += 1;
                if any || !field.is_empty() || !record.is_empty() {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    any = false;
                }
            }
            _ => {
                field.push(c);
                any = true;
            }
        }
    }
    if in_quotes {
        return Err(csv_err(line, "unterminated quoted field"));
    }
    if any || !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use std::io::Cursor;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "people",
            Schema::new(vec![
                Column::new("name", DataType::Text),
                Column::new("age", DataType::Int),
                Column::new("score", DataType::Real),
                Column::new("active", DataType::Bool),
            ])
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn load_with_confidence_column() {
        let mut c = catalog();
        let csv = "name,age,score,active,confidence\n\
                   alice,30,1.5,true,0.9\n\
                   bob,25,2.5,false,0.4\n";
        let ids = load_into(&mut c, "people", Cursor::new(csv)).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(c.confidence(ids[1]), Some(0.4));
        let t = c.table("people").unwrap();
        assert_eq!(t.rows()[0].tuple.get(0), Some(&Value::text("alice")));
        assert_eq!(t.rows()[1].tuple.get(3), Some(&Value::Bool(false)));
    }

    #[test]
    fn load_without_confidence_defaults_to_one() {
        let mut c = catalog();
        let csv = "name,age,score,active\ncarol,40,3.5,1\n";
        let ids = load_into(&mut c, "people", Cursor::new(csv)).unwrap();
        assert_eq!(c.confidence(ids[0]), Some(1.0));
    }

    #[test]
    fn quoting_and_nulls_round_trip() {
        let mut c = catalog();
        let csv = "name,age,score,active,confidence\n\
                   \"comma, quote \"\" and\nnewline\",,2.0,true,0.5\n";
        let ids = load_into(&mut c, "people", Cursor::new(csv)).unwrap();
        let t = c.table("people").unwrap();
        let row = t.row(ids[0]).unwrap();
        assert_eq!(
            row.tuple.get(0),
            Some(&Value::text("comma, quote \" and\nnewline"))
        );
        assert_eq!(row.tuple.get(1), Some(&Value::Null));
        // Write back out and re-load into a fresh catalog.
        let mut out = Vec::new();
        write_table_with_ids(t, &mut out).unwrap();
        let mut c2 = catalog();
        let ids2 = load_into(&mut c2, "people", Cursor::new(out)).unwrap();
        let row2 = c2.table("people").unwrap().row(ids2[0]).unwrap();
        assert_eq!(row2.tuple, row.tuple);
        assert_eq!(row2.confidence.get(), 0.5);
    }

    #[test]
    fn header_and_field_errors() {
        let mut c = catalog();
        assert!(matches!(
            load_into(&mut c, "people", Cursor::new("")),
            Err(StorageError::Csv { .. })
        ));
        assert!(load_into(&mut c, "people", Cursor::new("wrong,cols\n")).is_err());
        assert!(load_into(
            &mut c,
            "people",
            Cursor::new("name,age,score,active\nal,not_an_int,1.0,true\n")
        )
        .is_err());
        assert!(load_into(
            &mut c,
            "people",
            Cursor::new("name,age,score,active,confidence\nal,1,1.0,true,high\n")
        )
        .is_err());
        assert!(load_into(
            &mut c,
            "people",
            Cursor::new("name,age,score,active\n\"open quote,1,1.0,true\n")
        )
        .is_err());
        // Short row.
        assert!(load_into(
            &mut c,
            "people",
            Cursor::new("name,age,score,active\nal,1\n")
        )
        .is_err());
    }

    #[test]
    fn id_preserving_round_trip() {
        let mut c = catalog();
        let a = c
            .insert(
                "people",
                vec![
                    Value::text("alice"),
                    Value::Int(30),
                    Value::Real(1.5),
                    Value::Bool(true),
                ],
                0.9,
            )
            .unwrap();
        let mut out = Vec::new();
        write_table_with_ids(c.table("people").unwrap(), &mut out).unwrap();
        let mut c2 = catalog();
        // Pre-existing rows elsewhere shift the fresh-id counter; explicit
        // ids must still restore exactly.
        let ids = load_into(&mut c2, "people", Cursor::new(out)).unwrap();
        assert_eq!(ids, vec![a]);
        assert_eq!(c2.confidence(a), Some(0.9));
        // New inserts continue past the restored ids.
        let next = c2
            .insert(
                "people",
                vec![Value::text("bob"), Value::Null, Value::Null, Value::Null],
                0.5,
            )
            .unwrap();
        assert!(next.0 > a.0);
        // Restoring the same ids twice collides.
        let mut out2 = Vec::new();
        write_table_with_ids(c2.table("people").unwrap(), &mut out2).unwrap();
        assert!(matches!(
            load_into(&mut c2, "people", Cursor::new(out2)),
            Err(StorageError::DuplicateTupleId(_))
        ));
    }

    #[test]
    fn crlf_line_endings() {
        let mut c = catalog();
        let csv = "name,age,score,active\r\ndan,1,1.0,true\r\n";
        let ids = load_into(&mut c, "people", Cursor::new(csv)).unwrap();
        assert_eq!(ids.len(), 1);
    }
}
