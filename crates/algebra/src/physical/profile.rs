//! Per-operator profiles of a vectorized execution (`EXPLAIN ANALYZE`).

use crate::physical::PhysicalPlan;

/// Per-operator counters from a profiled execution (`EXPLAIN ANALYZE`).
///
/// Profiles are collected in the pre-order of the physical plan's
/// `Display` rendering — one entry per plan line — so the operator an
/// entry counts is the plan node on the same line, and
/// [`ExecProfile::render`] labels it from the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProfile {
    /// Depth in the plan tree (root = 0); matches `Display` indentation.
    pub depth: usize,
    /// Rows consumed from this operator's direct inputs (for `Scan`, the
    /// rows read from storage).
    pub rows_in: u64,
    /// Rows produced (after any duplicate merging).
    pub rows_out: u64,
    /// Total lineage-expression nodes across the produced rows — the
    /// quantity that drives downstream confidence-evaluation cost.
    pub lineage_nodes: u64,
}

/// The profile of one executed plan: operators in pre-order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// One entry per plan node, pre-order (= `Display` line order).
    pub operators: Vec<OperatorProfile>,
}

impl ExecProfile {
    /// Render `plan`, the plan this profile was collected from, with each
    /// operator's counts appended to its line: the `EXPLAIN ANALYZE` text.
    /// Labels are the plan's own `Display` lines, rendered here and only
    /// here — executing a plan never formats one.
    pub fn render(&self, plan: &PhysicalPlan) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (line, op) in plan.to_string().lines().zip(&self.operators) {
            let _ = writeln!(
                out,
                "{line} (rows_in={} rows_out={} lineage_nodes={})",
                op.rows_in, op.rows_out, op.lineage_nodes
            );
        }
        out
    }
}

/// Pre-order profile collector for the vectorized executor
/// ([`crate::physical::vexec`]); a disabled profiler is a no-op. It keeps
/// counts only: labels come from the plan at render time.
pub(crate) struct Profiler {
    slots: Option<Vec<OperatorProfile>>,
}

impl Profiler {
    pub(crate) fn off() -> Profiler {
        Profiler { slots: None }
    }

    pub(crate) fn on() -> Profiler {
        Profiler {
            slots: Some(Vec::new()),
        }
    }

    /// Reserve this node's slot *before* its children run, so slot order
    /// is pre-order regardless of execution order.
    pub(crate) fn enter(&mut self, depth: usize) -> usize {
        match &mut self.slots {
            None => 0,
            Some(v) => {
                v.push(OperatorProfile {
                    depth,
                    rows_in: 0,
                    rows_out: 0,
                    lineage_nodes: 0,
                });
                v.len() - 1
            }
        }
    }

    /// Fill the reserved slot once the operator's output exists (which
    /// may still be borrowed from storage, hence counters rather than
    /// rows). `lineage_nodes` walks the output, so it only runs when
    /// profiling is enabled.
    pub(crate) fn exit_counts(
        &mut self,
        slot: usize,
        rows_in: usize,
        rows_out: usize,
        lineage_nodes: impl FnOnce() -> u64,
    ) {
        if let Some(v) = &mut self.slots {
            if let Some(p) = v.get_mut(slot) {
                p.rows_in = rows_in as u64;
                p.rows_out = rows_out as u64;
                p.lineage_nodes = lineage_nodes();
            }
        }
    }

    pub(crate) fn finish(self) -> ExecProfile {
        ExecProfile {
            operators: self.slots.unwrap_or_default(),
        }
    }
}
