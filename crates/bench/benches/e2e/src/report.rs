//! Metric names and units, and the two output forms: one line per metric
//! for people, one JSON object on the last line for the driver.

use crate::workload::Class;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. `BENCHMARK.json` lists the same
/// names (`tests::benchmark_json_lists_every_metric`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("live_heap_mb", "MB"),
];

/// Per-layer metrics other than the per-class medians.
const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_ms", "ms"),
    ("sql.plan_ms", "ms"),
    ("algebra.optimize_ms", "ms"),
    ("algebra.lower_ms", "ms"),
    ("algebra.execute_ms", "ms"),
    ("algebra.score_ms", "ms"),
    ("algebra.rows_out_per_op", "count"),
    ("algebra.rows_scanned_per_row_out", "count"),
    ("algebra.lineage_nodes_per_op", "count"),
    ("lineage.sync_probs_ms", "ms"),
    ("lineage.compile_hit_ratio", "ratio"),
    ("lineage.eval_hits_per_row", "count"),
    ("lineage.exact_skipped_ratio", "ratio"),
    ("lineage.pool_nodes_end", "count"),
    ("lineage.invalidated_per_apply", "count"),
    ("lineage.rescore_after_apply_ms", "ms"),
    ("policy.select_gate_us", "us"),
    ("core.build_problem_ms", "ms"),
    ("core.solve_heuristic_ms", "ms"),
    ("core.solve_greedy_ms", "ms"),
    ("core.solve_dnc_ms", "ms"),
    ("core.solve_multi_ms", "ms"),
    ("core.greedy_iterations_per_op", "count"),
    ("core.heuristic_nodes_per_op", "count"),
    ("core.bases_per_problem", "count"),
    ("core.proposal_cost_sum", "cost"),
    ("storage.insert_us", "us"),
    ("storage.apply_us", "us"),
    ("storage.index_build_ms", "ms"),
    ("storage.rows_loaded", "count"),
    ("par.batches_per_op", "count"),
    ("par.busy_ratio", "ratio"),
    ("engine.strategy_ops", "count"),
    ("engine.strategy_path_ms", "ms"),
    ("engine.materialize_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.unattributed_pct", "%"),
    ("engine.trace_overhead_pct", "%"),
    ("engine.recorder_gap_plan_pct", "%"),
    ("engine.recorder_gap_execute_pct", "%"),
    ("engine.recorder_gap_score_pct", "%"),
    ("engine.recorder_gap_propose_pct", "%"),
    ("engine.traced_ops", "count"),
    ("engine.latency_p99_ms", "ms"),
    ("engine.allocs_per_op", "count"),
    ("engine.alloc_bytes_per_op", "B"),
    ("engine.audit_entries_end", "count"),
];

/// Every per-layer metric, `(name, unit)`, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    for class in Class::ALL {
        all.push((format!("engine.{}_p50_ms", class.name()), "ms"));
    }
    all
}

/// One reported value.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Spread, sample count — whatever belongs beside the value.
    pub note: String,
}

/// One line per metric: name, value, unit, note.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<36} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

/// The driver's result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest digits that read back as the same f64.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let metrics = [Metric {
            name: "setup_s".to_owned(),
            value: 0.8127,
            unit: "s",
            note: String::new(),
        }];
        assert_eq!(
            result_json(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = pcqe_obs::json::parse(&text).expect("BENCHMARK.json is JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            let metrics = spec.get(key).and_then(|v| v.as_array()).expect(key);
            let field = |m: &pcqe_obs::json::Value, f: &str| {
                m.get(f).and_then(|v| v.as_str()).expect(f).to_owned()
            };
            metrics
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let owned = |(name, unit): &(&str, &str)| (name.to_string(), unit.to_string());
        assert_eq!(
            declared("end_to_end"),
            END_TO_END.iter().map(owned).collect::<Vec<_>>()
        );
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
