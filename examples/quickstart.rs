//! Quickstart: a five-minute tour of PCQE.
//!
//! Run with `cargo run --example quickstart`.

use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, QueryRequest, StatementOutcome, User};
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database whose rows carry confidence values.
    let mut db = Database::new(EngineConfig::default());
    db.create_table(
        "Customers",
        Schema::new(vec![
            Column::new("name", DataType::Text),
            Column::new("region", DataType::Text),
            Column::new("revenue", DataType::Real),
        ])?,
    )?;

    let rows: [(&str, &str, f64, f64); 4] = [
        ("Acme", "west", 1_200_000.0, 0.9), // verified account
        ("Bolt", "west", 800_000.0, 0.35),  // stale record
        ("Crux", "east", 950_000.0, 0.4),   // unverified import
        ("Dyno", "west", 400_000.0, 0.85),  // verified account
    ];
    let mut ids = Vec::new();
    for (name, region, revenue, confidence) in rows {
        let id = db.insert(
            "Customers",
            vec![Value::text(name), Value::text(region), Value::Real(revenue)],
            confidence,
        )?;
        ids.push(id);
    }
    // Re-verifying Bolt is cheap (a phone call); Crux needs a paid report.
    db.set_cost(ids[1], CostFn::linear(50.0)?)?;
    db.set_cost(ids[2], CostFn::linear(400.0)?)?;

    // 2. Confidence policies: analysts exploring need little assurance,
    //    account managers committing budget need much more.
    db.add_policy(ConfidencePolicy::new("analyst", "exploration", 0.2)?);
    db.add_policy(ConfidencePolicy::new("account-manager", "renewal", 0.6)?);

    // 3. An analyst sees almost everything.
    let analyst = User::new("amy", "analyst");
    let request = QueryRequest::new(
        "SELECT name, revenue FROM Customers WHERE region = 'west'",
        "exploration",
    );
    let resp = db.query(&analyst, &request)?;
    println!(
        "analyst sees {} of {} west-region rows:",
        resp.released.len(),
        resp.released.len() + resp.withheld
    );
    for row in &resp.released {
        println!("  {} (confidence {:.2})", row.tuple, row.confidence);
    }

    // 4. The account manager is blocked on the stale Bolt row — and gets
    //    a costed improvement proposal instead of silence.
    let manager = User::new("max", "account-manager");
    let request = QueryRequest::new(
        "SELECT name, revenue FROM Customers WHERE region = 'west'",
        "renewal",
    );
    let resp = db.query(&manager, &request)?;
    println!(
        "\naccount manager sees {} rows, {} withheld by the β={} policy",
        resp.released.len(),
        resp.withheld,
        resp.threshold
    );
    let proposal = resp.proposal.expect("a strategy exists");
    println!("proposal: spend {:.0} to verify:", proposal.cost);
    for inc in &proposal.increments {
        println!(
            "  tuple {}: confidence {:.2} -> {:.2} (cost {:.0})",
            inc.tuple_id, inc.from, inc.to, inc.cost
        );
    }

    // 5. Accept the proposal; the data-quality improvement is applied and
    //    the query now returns the full picture.
    db.apply(&proposal)?;
    let resp = db.query(&manager, &request)?;
    println!(
        "\nafter improvement the manager sees {} rows:",
        resp.released.len()
    );
    for row in &resp.released {
        println!("  {} (confidence {:.2})", row.tuple, row.confidence);
    }
    assert_eq!(resp.released.len(), 3);

    // 6. EXPLAIN ANALYZE: the plan annotated with observed per-operator
    //    row and lineage counts.
    println!("\nEXPLAIN ANALYZE:");
    let explained =
        db.execute("EXPLAIN ANALYZE SELECT name, revenue FROM Customers WHERE region = 'west'")?;
    if let StatementOutcome::Explained(text) = explained {
        print!("{text}");
    }

    // 7. Every query above was metered. Export the metrics as JSON (for
    //    the CI smoke check) and show the Prometheus rendering.
    let snapshot = db.metrics_snapshot();
    std::fs::create_dir_all("results")?;
    std::fs::write(
        "results/metrics.json",
        pcqe::obs::export::to_json(&snapshot),
    )?;
    println!("\nwrote results/metrics.json; Prometheus excerpt:");
    for line in pcqe::obs::export::to_prometheus(&snapshot)
        .lines()
        .filter(|l| l.contains("pcqe_policy_") || l.contains("pcqe_improvement_applied"))
    {
        println!("  {line}");
    }
    Ok(())
}
