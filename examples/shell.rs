//! An interactive PCQE shell: type SQL (DDL, DML with confidences,
//! `EXPLAIN [ANALYZE]`, and policy-checked queries) against an in-memory
//! database.
//!
//! Run with `cargo run --example shell`, or pipe a script:
//!
//! ```text
//! cargo run --example shell <<'EOF'
//! CREATE TABLE t (x INT, label TEXT);
//! INSERT INTO t VALUES (1, 'low') WITH CONFIDENCE 0.3;
//! INSERT INTO t VALUES (2, 'high') WITH CONFIDENCE 0.9;
//! .policy analyst report 0.5
//! .user alice analyst
//! .purpose report
//! SELECT x, label FROM t;
//! .accept
//! SELECT x, label FROM t;
//! EOF
//! ```
//!
//! Dot-commands: `.user <name> <role>`, `.purpose <p>`,
//! `.policy <role> <purpose> <beta>`, `.cost <tuple-id> <rate>`,
//! `.expecting <fraction>`, `.accept`, `.tables`,
//! `.trace <query> [json|chrome|folded]` (causal trace export),
//! `.metrics [json|prom]`, `.lint [json] [RULE-ID]` (run the static invariant
//! analyzer over the workspace), `.help`, `.quit`. The full list, with
//! one-line descriptions, comes from the [`COMMANDS`] table `.help`
//! renders — the same table `dispatch` consults, so they cannot drift.

use pcqe::cost::CostFn;
use pcqe::engine::{
    Database, EngineConfig, EngineError, ImprovementProposal, QueryRequest, StatementOutcome, User,
};
use pcqe::policy::ConfidencePolicy;
use pcqe::sql::{parse_statement, Statement};
use pcqe::storage::TupleId;
use std::io::{self, BufRead, Write};

struct Shell {
    db: Database,
    user: User,
    purpose: String,
    expecting: f64,
    pending: Option<ImprovementProposal>,
}

/// Every dot-command as `(name, arguments, one-line description)` — the
/// single source of truth: `.help` renders this table, and `dispatch`
/// rejects any `.name` not in it, so the help text and the dispatchable
/// set agree by construction (a unit test below pins it).
const COMMANDS: &[(&str, &str, &str)] = &[
    ("user", "<name> <role>", "set the querying user and role"),
    ("purpose", "<purpose>", "set the stated query purpose"),
    (
        "policy",
        "<role> <purpose> <beta>",
        "add a confidence policy",
    ),
    (
        "cost",
        "<tuple-id> <rate>",
        "attach a linear cost to a tuple",
    ),
    (
        "expecting",
        "<fraction>",
        "set the expected released fraction",
    ),
    ("accept", "", "apply the pending improvement proposal"),
    ("tables", "", "list tables and row counts"),
    (
        "trace",
        "<query> [json|chrome|folded]",
        "trace a query's causal timeline",
    ),
    ("metrics", "[json|prom]", "export recorded metrics"),
    (
        "lint",
        "[json] [RULE-ID]",
        "run the static invariant analyzer",
    ),
    ("save", "<dir>", "persist the database to a directory"),
    ("load", "<dir>", "load a database from a directory"),
    ("help", "", "show this help"),
    ("quit", "", "exit the shell (also .exit)"),
];

/// True iff `.name` is a dispatchable dot-command.
fn is_known_command(name: &str) -> bool {
    COMMANDS.iter().any(|(n, _, _)| *n == name)
}

/// The `.help` screen, rendered from [`COMMANDS`].
fn help_text() -> String {
    let mut out = String::from(
        "SQL: CREATE TABLE t (col TYPE, ...); CREATE INDEX ON t (col); INSERT INTO t \
         VALUES (...) [WITH CONFIDENCE c]; EXPLAIN [ANALYZE] SELECT ...; SELECT ...\n\
         dot-commands:\n",
    );
    for (name, args, desc) in COMMANDS {
        let usage = if args.is_empty() {
            format!(".{name}")
        } else {
            format!(".{name} {args}")
        };
        out.push_str(&format!("  {usage:<36} {desc}\n"));
    }
    out
}

fn main() -> io::Result<()> {
    let mut shell = Shell {
        db: Database::new(EngineConfig::default()),
        user: User::new("anon", "public"),
        purpose: "browsing".into(),
        expecting: 1.0,
        pending: None,
    };
    // A permissive default policy so the shell works out of the box.
    shell
        .db
        .add_policy(ConfidencePolicy::default_floor(0.0).expect("valid"));

    let stdin = io::stdin();
    let mut out = io::stdout();
    print!("pcqe> ");
    out.flush()?;
    for line in stdin.lock().lines() {
        let line = line?;
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            if trimmed.eq_ignore_ascii_case(".quit") || trimmed.eq_ignore_ascii_case(".exit") {
                break;
            }
            if let Err(e) = shell.dispatch(trimmed) {
                println!("error: {e}");
            }
        }
        print!("pcqe> ");
        out.flush()?;
    }
    println!();
    Ok(())
}

impl Shell {
    fn dispatch(&mut self, line: &str) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(rest) = line.strip_prefix('.') {
            self.dot_command(rest)
        } else {
            self.sql(line)
        }
    }

    fn dot_command(&mut self, rest: &str) -> Result<(), Box<dyn std::error::Error>> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        // Gate on the COMMANDS table first: a match arm below without a
        // table entry is unreachable, so `.help` can never under-report.
        match parts.first() {
            None => {
                println!("empty command (try .help)");
                return Ok(());
            }
            Some(name) if !is_known_command(name) => {
                println!("unknown command `.{rest}` (try .help)");
                return Ok(());
            }
            Some(_) => {}
        }
        match parts.as_slice() {
            ["help"] => {
                print!("{}", help_text());
            }
            ["user", name, role] => {
                self.user = User::new(*name, *role);
                println!("now querying as {name} ({role})");
            }
            ["purpose", p] => {
                self.purpose = (*p).to_owned();
                println!("purpose set to {p}");
            }
            ["policy", role, purpose, beta] => {
                let beta: f64 = beta.parse()?;
                self.db
                    .add_policy(ConfidencePolicy::new(*role, *purpose, beta)?);
                println!("policy ⟨{role}, {purpose}, {beta}⟩ added");
            }
            ["cost", id, rate] => {
                let id = TupleId(id.trim_start_matches('t').parse()?);
                let rate: f64 = rate.parse()?;
                self.db.set_cost(id, CostFn::linear(rate)?)?;
                println!("cost of {id} set to linear(rate={rate})");
            }
            ["expecting", fraction] => {
                self.expecting = fraction.parse()?;
                println!("expecting {}% of results", self.expecting * 100.0);
            }
            ["accept"] => match self.pending.take() {
                Some(p) => {
                    self.db.apply(&p)?;
                    println!(
                        "applied {} increment(s), total cost {:.2}",
                        p.increments.len(),
                        p.cost
                    );
                }
                None => println!("no pending proposal"),
            },
            ["tables"] => {
                for name in self.db.catalog().table_names() {
                    let t = self.db.catalog().table(name).expect("listed table");
                    println!("{name} ({} rows)", t.len());
                }
            }
            ["trace", rest @ ..] if !rest.is_empty() => {
                // Run the query with the causal tracer on and print the
                // timeline. A trailing `json`/`chrome` (the default)
                // selects Chrome trace-event JSON for chrome://tracing,
                // `folded` the collapsed-stack flamegraph text. The query
                // itself behaves exactly like typing the SQL: same policy
                // gate, same audit entry, same pending proposal.
                let (format, sql_parts) = match rest.split_last() {
                    Some((last, head))
                        if !head.is_empty() && ["json", "chrome", "folded"].contains(last) =>
                    {
                        (*last, head)
                    }
                    _ => ("chrome", rest),
                };
                let request = QueryRequest::new(sql_parts.join(" "), self.purpose.as_str())
                    .expecting(self.expecting);
                let (resp, trace) = self.db.trace_query(&self.user, &request)?;
                match format {
                    "folded" => print!("{}", pcqe::obs::trace_export::to_folded(&trace)),
                    _ => print!("{}", pcqe::obs::trace_export::to_chrome_json(&trace)),
                }
                self.pending = resp.proposal;
            }
            ["lint", rest @ ..] if rest.len() <= 2 => {
                // Run the in-repo static analyzer over the workspace the
                // shell was built from — the same analysis as
                // `cargo run -p pcqe-lint`, inside the session. Optional
                // args: `json` picks the machine format, a rule id
                // (e.g. PCQE-G001 or G001) narrows the display to that
                // rule — mirroring the CLI's `--rule`, the narrowed view
                // never changes what the full analysis found.
                let mut as_json = false;
                let mut rule = None;
                let mut bad = None;
                for arg in rest {
                    if *arg == "json" {
                        as_json = true;
                    } else if let Some(r) = pcqe_lint::rules::Rule::parse(arg) {
                        rule = Some(r);
                    } else {
                        bad = Some(*arg);
                    }
                }
                if let Some(arg) = bad {
                    println!("unknown rule id `{arg}` (usage: .lint [json] [RULE-ID])");
                } else {
                    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
                    let analysis = pcqe_lint::analyze(root)?;
                    let display = match rule {
                        Some(r) => analysis.filtered(r),
                        None => analysis,
                    };
                    if as_json {
                        print!("{}", pcqe_lint::report::json(&display));
                    } else {
                        print!("{}", pcqe_lint::report::human(&display));
                    }
                }
            }
            ["metrics"] | ["metrics", "prom"] => {
                print!(
                    "{}",
                    pcqe::obs::export::to_prometheus(&self.db.metrics_snapshot())
                );
            }
            ["metrics", "json"] => {
                print!(
                    "{}",
                    pcqe::obs::export::to_json(&self.db.metrics_snapshot())
                );
            }
            ["save", dir] => {
                pcqe::engine::persist::save(&self.db, std::path::Path::new(dir))?;
                println!("saved to {dir}");
            }
            ["load", dir] => {
                self.db = pcqe::engine::persist::load(
                    std::path::Path::new(dir),
                    EngineConfig::default(),
                )?;
                self.pending = None;
                println!("loaded from {dir}");
            }
            // The command name is known (checked above) but the arguments
            // did not match its arm: show the usage line from the table.
            _ => match parts
                .first()
                .and_then(|n| COMMANDS.iter().find(|(name, _, _)| name == n))
            {
                Some((name, args, _)) => println!("usage: .{name} {args}"),
                None => println!("unknown command `.{rest}` (try .help)"),
            },
        }
        Ok(())
    }

    fn sql(&mut self, line: &str) -> Result<(), Box<dyn std::error::Error>> {
        let statement = parse_statement(line).map_err(EngineError::Sql)?;
        if !matches!(statement, Statement::Query(_)) {
            match self.db.execute(line)? {
                StatementOutcome::TableCreated => println!("table created"),
                StatementOutcome::IndexCreated(column) => println!("indexed column #{column}"),
                StatementOutcome::Inserted(ids) => {
                    let rendered: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
                    println!("inserted {} row(s): {}", ids.len(), rendered.join(", "));
                }
                StatementOutcome::Explained(text) => print!("{text}"),
            }
            return Ok(());
        }
        let request = QueryRequest::new(line, self.purpose.as_str()).expecting(self.expecting);
        let resp = self.db.query(&self.user, &request)?;
        for row in &resp.released {
            println!("{}  [confidence {:.3}]", row.tuple, row.confidence);
        }
        println!(
            "{} row(s) released, {} withheld (β = {})",
            resp.released.len(),
            resp.withheld,
            resp.threshold
        );
        match resp.proposal {
            Some(p) => {
                println!(
                    "improvement available: cost {:.2} raises {} tuple(s) — type .accept",
                    p.cost,
                    p.increments.len()
                );
                for inc in &p.increments {
                    println!(
                        "  {}: {:.2} -> {:.2} (cost {:.2})",
                        inc.tuple_id, inc.from, inc.to, inc.cost
                    );
                }
                self.pending = Some(p);
            }
            None => self.pending = None,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Shell {
        let mut sh = Shell {
            db: Database::new(EngineConfig::default()),
            user: User::new("anon", "public"),
            purpose: "browsing".into(),
            expecting: 1.0,
            pending: None,
        };
        sh.db
            .add_policy(ConfidencePolicy::default_floor(0.0).expect("valid"));
        sh
    }

    /// `.help` renders exactly the COMMANDS table, and `dispatch`
    /// recognises exactly the same names — the two cannot disagree.
    #[test]
    fn help_and_dispatch_agree_on_the_command_set() {
        let help = help_text();
        for (name, _, desc) in COMMANDS {
            assert!(
                help.contains(&format!(".{name}")),
                "`.{name}` missing from help:\n{help}"
            );
            assert!(help.contains(desc), "description of `.{name}` missing");
            assert!(is_known_command(name), "`.{name}` not dispatchable");
        }
        // One line per command plus the two header lines, so every entry
        // gets a consistent one-line description.
        assert_eq!(help.lines().count(), COMMANDS.len() + 2);
        assert!(!is_known_command("bogus"));
        // Plans and indexes are SQL statements, not dot-commands.
        assert_eq!(COMMANDS.len(), 14);
        for statement in ["explain", "plan", "analyze", "index"] {
            assert!(!is_known_command(statement), "`.{statement}` is SQL now");
        }
        for spelling in ["CREATE INDEX ON t (col)", "EXPLAIN [ANALYZE] SELECT"] {
            assert!(help.contains(spelling), "help omits {spelling}:\n{help}");
        }
    }

    /// A scripted session through `dispatch` exercises the table-gated
    /// commands end to end (slow or filesystem-touching ones — `.lint`,
    /// `.save`, `.load` — are covered by the known-name gate above).
    #[test]
    fn scripted_session_dispatches_cleanly() {
        let mut sh = shell();
        for line in [
            "CREATE TABLE t (x INT)",
            "INSERT INTO t VALUES (1) WITH CONFIDENCE 0.9",
            ".policy analyst report 0.5",
            ".user alice analyst",
            ".purpose report",
            ".expecting 1.0",
            ".cost t0 10",
            ".tables",
            "CREATE INDEX ON t (x)",
            "EXPLAIN SELECT x FROM t",
            "EXPLAIN ANALYZE SELECT x FROM t",
            ".trace SELECT x FROM t folded",
            ".trace SELECT x FROM t",
            ".metrics",
            ".metrics json",
            ".accept",
            ".help",
            "SELECT x FROM t",
        ] {
            sh.dispatch(line)
                .unwrap_or_else(|e| panic!("`{line}` failed: {e}"));
        }
        let t = sh.db.catalog().table("t").expect("created");
        assert!(t.index_on(0).is_some(), "CREATE INDEX went to execute");
        // Only a query can be explained.
        assert!(sh.dispatch("EXPLAIN INSERT INTO t VALUES (2)").is_err());
        // Unknown names and bad arity fall through politely.
        sh.dispatch(".bogus").unwrap();
        sh.dispatch(".user onlyname").unwrap();
    }
}
