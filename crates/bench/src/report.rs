//! Text and JSON rendering of figure data.
//!
//! JSON is emitted by a small hand-rolled writer (no serde: the crate
//! builds offline with zero external dependencies). The document shape is
//! stable: one key per figure, each an array of row objects.

use crate::experiments::{Fig11aRow, Fig11beRow, Fig11cfRow};
use pcqe_obs::export::{json_f64, json_string};
use std::fmt::Write as _;

/// Everything the `figures` binary produced, serialisable as one JSON
/// document.
#[derive(Debug, Default)]
pub struct FigureReport {
    /// Figure 11(a) rows (no greedy bound), if run.
    pub fig11a: Vec<Fig11aRow>,
    /// Figure 11(d) rows (greedy bound), if run.
    pub fig11d: Vec<Fig11aRow>,
    /// Figure 11(b)/(e) rows, if run.
    pub fig11be: Vec<Fig11beRow>,
    /// Figure 11(c)/(f) rows, if run.
    pub fig11cf: Vec<Fig11cfRow>,
    /// Observability snapshot of the run (row/timing tallies recorded by
    /// the `figures` binary), if metrics were captured.
    pub metrics: Option<pcqe_obs::MetricsSnapshot>,
}

fn json_opt_f64(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_owned(), json_f64)
}

impl Fig11aRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"config\":{},\"greedy_bound\":{},\"seconds\":{},\"cost\":{},\"nodes\":{}}}",
            json_string(&self.config),
            self.greedy_bound,
            json_f64(self.seconds),
            json_f64(self.cost),
            self.nodes
        )
    }
}

impl Fig11beRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"data_size\":{},\"one_phase_seconds\":{},\"one_phase_cost\":{},\
             \"two_phase_seconds\":{},\"two_phase_cost\":{}}}",
            self.data_size,
            json_f64(self.one_phase_seconds),
            json_f64(self.one_phase_cost),
            json_f64(self.two_phase_seconds),
            json_f64(self.two_phase_cost)
        )
    }
}

impl Fig11cfRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"data_size\":{},\"algorithm\":{},\"seconds\":{},\"cost\":{}}}",
            self.data_size,
            json_string(&self.algorithm),
            json_opt_f64(self.seconds),
            json_opt_f64(self.cost)
        )
    }
}

fn json_array(rows: &[String]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n    ");
        }
        s.push_str(r);
    }
    s.push(']');
    s
}

/// Embed a pre-rendered multi-line JSON document at one indent level:
/// every line after the first is shifted right by two spaces so the
/// nested object lines up with the surrounding pretty-printing.
fn indent_embedded(doc: &str) -> String {
    let trimmed = doc.trim_end();
    let mut out = String::with_capacity(trimmed.len());
    for (i, line) in trimmed.lines().enumerate() {
        if i > 0 {
            out.push_str("\n  ");
        }
        out.push_str(line);
    }
    out
}

impl FigureReport {
    /// Serialise the whole report as pretty-printed JSON.
    ///
    /// The `"metrics"` member embeds the `pcqe-obs` JSON export of the
    /// run's [`pcqe_obs::MetricsSnapshot`] (an empty snapshot when none
    /// was captured), so the document shape is stable either way.
    pub fn to_json(&self) -> String {
        let section = |rows: &[String]| json_array(rows);
        let snapshot = self.metrics.clone().unwrap_or_default();
        format!(
            "{{\n  \"fig11a\": {},\n  \"fig11d\": {},\n  \"fig11be\": {},\n  \"fig11cf\": {},\n  \"metrics\": {}\n}}\n",
            section(
                &self
                    .fig11a
                    .iter()
                    .map(Fig11aRow::to_json)
                    .collect::<Vec<_>>()
            ),
            section(
                &self
                    .fig11d
                    .iter()
                    .map(Fig11aRow::to_json)
                    .collect::<Vec<_>>()
            ),
            section(
                &self
                    .fig11be
                    .iter()
                    .map(Fig11beRow::to_json)
                    .collect::<Vec<_>>()
            ),
            section(
                &self
                    .fig11cf
                    .iter()
                    .map(Fig11cfRow::to_json)
                    .collect::<Vec<_>>()
            ),
            indent_embedded(&pcqe_obs::export::to_json(&snapshot)),
        )
    }
}

/// Render Figure 11(a)/(d) as an aligned text table.
pub fn render_fig11a(rows: &[Fig11aRow], title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>14} {:>12}",
        "config", "seconds", "nodes", "cost"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:>12.6} {:>14} {:>12.2}",
            r.config, r.seconds, r.nodes, r.cost
        );
    }
    if let (Some(naive), Some(all)) = (
        rows.iter().find(|r| r.config == "Naive"),
        rows.iter().find(|r| r.config == "All"),
    ) {
        if all.seconds > 0.0 {
            let _ = writeln!(
                s,
                "speedup All vs Naive: {:.1}x (nodes {:.1}x)",
                naive.seconds / all.seconds,
                naive.nodes as f64 / all.nodes.max(1) as f64
            );
        }
    }
    s
}

/// Render Figure 11(b)+(e) as an aligned text table.
pub fn render_fig11be(rows: &[Fig11beRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 11(b)+(e): one-phase vs two-phase greedy");
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>14} {:>14} {:>10}",
        "size", "1ph sec", "2ph sec", "1ph cost", "2ph cost", "saved"
    );
    for r in rows {
        let saved = if r.one_phase_cost > 0.0 {
            100.0 * (1.0 - r.two_phase_cost / r.one_phase_cost)
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "{:>8} {:>12.4} {:>12.4} {:>14.1} {:>14.1} {:>9.1}%",
            r.data_size,
            r.one_phase_seconds,
            r.two_phase_seconds,
            r.one_phase_cost,
            r.two_phase_cost,
            saved
        );
    }
    s
}

/// Render Figure 11(c)+(f) as an aligned text table.
pub fn render_fig11cf(rows: &[Fig11cfRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 11(c)+(f): scalability of the three algorithms");
    let _ = writeln!(
        s,
        "{:>8} {:<20} {:>12} {:>14}",
        "size", "algorithm", "seconds", "cost"
    );
    for r in rows {
        match (r.seconds, r.cost) {
            (Some(sec), Some(cost)) => {
                let _ = writeln!(
                    s,
                    "{:>8} {:<20} {:>12.4} {:>14.1}",
                    r.data_size, r.algorithm, sec, cost
                );
            }
            _ => {
                let _ = writeln!(
                    s,
                    "{:>8} {:<20} {:>12} {:>14}",
                    r.data_size, r.algorithm, "-", "-"
                );
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_without_panicking() {
        let rows = vec![
            Fig11aRow {
                config: "Naive".into(),
                greedy_bound: false,
                seconds: 1.0,
                cost: 10.0,
                nodes: 100,
            },
            Fig11aRow {
                config: "All".into(),
                greedy_bound: false,
                seconds: 0.1,
                cost: 10.0,
                nodes: 10,
            },
        ];
        let text = render_fig11a(&rows, "Figure 11(a)");
        assert!(text.contains("speedup All vs Naive: 10.0x"));

        let be = vec![Fig11beRow {
            data_size: 1000,
            one_phase_seconds: 0.5,
            one_phase_cost: 100.0,
            two_phase_seconds: 0.6,
            two_phase_cost: 70.0,
        }];
        let text = render_fig11be(&be);
        assert!(text.contains("30.0%"));

        let cf = vec![Fig11cfRow {
            data_size: 10,
            algorithm: "Greedy".into(),
            seconds: Some(0.01),
            cost: Some(5.0),
        }];
        assert!(render_fig11cf(&cf).contains("Greedy"));
    }

    #[test]
    fn report_serialises_to_json() {
        let mut report = FigureReport::default();
        report.fig11cf.push(Fig11cfRow {
            data_size: 10,
            algorithm: "Gre\"edy".into(),
            seconds: Some(0.25),
            cost: None,
        });
        let json = report.to_json();
        assert!(json.contains("\"fig11cf\""));
        assert!(json.contains("\"Gre\\\"edy\""));
        assert!(json.contains("\"seconds\":0.25"));
        assert!(json.contains("\"cost\":null"));
        // Even without captured metrics the document embeds an (empty)
        // metrics block, so the shape is stable.
        assert!(json.contains("\"metrics\": {"));
        assert!(json.contains("\"counters\""));
    }

    #[test]
    fn captured_metrics_are_embedded_in_the_report() {
        let recorder = pcqe_obs::Recorder::new();
        recorder.counter_add("bench.fig11a.nodes", 110);
        let report = FigureReport {
            metrics: Some(recorder.snapshot()),
            ..FigureReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"bench.fig11a.nodes\": 110"), "{json}");
        // The embedded document is re-indented, not left at column zero.
        assert!(json.contains("\n    \"counters\""), "{json}");
    }
}
