//! Crate-private instrumentation plumbing shared by the engines.
//!
//! Engines drive a [`MetricsRecorder`] unconditionally; when metrics were
//! not requested every method is a no-op, so the hot paths carry no
//! branches beyond one `Option` check per rule-family block.

use std::time::Instant;

use crate::report::{FamilyMetrics, RuleFamily, RuleMetrics, ValidationMetrics, ValidationReport};
use crate::rules::SinkOutput;

/// Sums per-rule entries into per-family rollups, in order of first
/// appearance (rule order, so Weak, Directives, Strong when all are on).
pub(crate) fn families_from_rules(rules: &[RuleMetrics]) -> Vec<FamilyMetrics> {
    let mut families: Vec<FamilyMetrics> = Vec::with_capacity(3);
    for rm in rules {
        let family = rm.rule.family();
        match families.iter_mut().find(|f| f.family == family) {
            Some(f) => {
                f.nanos += rm.nanos;
                f.violations += rm.violations;
            }
            None => families.push(FamilyMetrics {
                family,
                nanos: rm.nanos,
                violations: rm.violations,
            }),
        }
    }
    families
}

/// Accumulates [`ValidationMetrics`] for one validation run.
pub(crate) struct MetricsRecorder {
    metrics: Option<ValidationMetrics>,
}

impl MetricsRecorder {
    pub(crate) fn new(enabled: bool, engine: &'static str) -> Self {
        MetricsRecorder {
            metrics: enabled.then(|| ValidationMetrics {
                engine,
                ..ValidationMetrics::default()
            }),
        }
    }

    pub(crate) fn freeze(&mut self, nanos: u64) {
        if let Some(m) = &mut self.metrics {
            m.freeze_nanos = nanos;
        }
    }

    pub(crate) fn compile(&mut self, nanos: u64) {
        if let Some(m) = &mut self.metrics {
            m.compile_nanos = nanos;
        }
    }

    pub(crate) fn scanned(&mut self, nodes: u64, edges: u64) {
        if let Some(m) = &mut self.metrics {
            m.nodes_scanned += nodes;
            m.edges_scanned += edges;
        }
    }

    /// Runs one rule-family block, recording its wall time and the
    /// violations it contributed to `r`.
    pub(crate) fn family(
        &mut self,
        family: RuleFamily,
        r: &mut ValidationReport,
        block: impl FnOnce(&mut ValidationReport),
    ) {
        if self.metrics.is_none() {
            block(r);
            return;
        }
        let before = r.len();
        let start = Instant::now();
        block(r);
        let nanos = start.elapsed().as_nanos() as u64;
        if let Some(m) = &mut self.metrics {
            m.families.push(FamilyMetrics {
                family,
                nanos,
                violations: r.len() - before,
            });
        }
    }

    /// Absorbs one [`Sink`](crate::rules::Sink)'s per-rule output: the
    /// rule entries are appended and the scan counters added. Family
    /// rollups are derived from the rules at [`finish`](Self::finish).
    pub(crate) fn absorb(&mut self, out: Option<SinkOutput>) {
        let (Some(m), Some(out)) = (&mut self.metrics, out) else {
            return;
        };
        m.rules.extend(out.rules);
        m.nodes_scanned += out.nodes_scanned;
        m.edges_scanned += out.edges_scanned;
    }

    /// Attaches the collected metrics (if any) to the report. Engines
    /// that recorded per-rule entries but no family blocks (the kernel
    /// planners) get their family rollups derived here by summing rule
    /// time and violations per family, in order of first appearance.
    pub(crate) fn finish(self, r: &mut ValidationReport) {
        if let Some(mut m) = self.metrics {
            if m.families.is_empty() && !m.rules.is_empty() {
                m.families = families_from_rules(&m.rules);
            }
            r.set_metrics(m);
        }
    }
}
