//! `bench-diff`: compares two [`BenchReport`]s field by field.
//!
//! Gating policy (the CI `perf-gate` job runs this against the committed
//! `benchmarks/baseline.json`):
//!
//! * **model costs**, **quality** and the **critical-path statistics**
//!   must match the baseline *exactly* — the pipeline is deterministic,
//!   so any drift (better or worse) means either a behavioral change that
//!   needs a deliberate baseline refresh or a broken determinism
//!   contract. Both should stop a merge.
//! * **wall-clock** is reported but not gated unless a tolerance is
//!   supplied (`--wall-tolerance FRACTION`), because CI hardware noise
//!   would make a hard wall gate flaky.
//! * structural drift (workload set, instance shape) also fails: a stale
//!   baseline must be refreshed, not ignored. A report of another schema
//!   version never gets here — the reader rejects it.

use crate::schema::{BenchReport, CriticalPathStats, ModelCosts, Quality};
use crate::table::Table;

/// Comparator options.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Allowed fractional wall-clock growth per workload (e.g. `0.5`
    /// fails when a workload got >50% slower). `None` (default): report
    /// wall-clock drift but never gate on it.
    pub wall_tolerance: Option<f64>,
}

/// How a finding reads on the regression table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Candidate is strictly worse than baseline on an ordered field.
    Regression,
    /// Candidate is strictly better — still gated (refresh the baseline
    /// to accept it), but labeled so the fix is obvious.
    Improvement,
    /// Non-ordered drift: suite, workload set, instance shape.
    Structural,
}

impl FindingKind {
    fn label(&self) -> &'static str {
        match self {
            FindingKind::Regression => "REGRESSED",
            FindingKind::Improvement => "improved (refresh baseline)",
            FindingKind::Structural => "structural drift",
        }
    }
}

/// One gated difference between baseline and candidate.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workload id, or `"<report>"` for report-level findings.
    pub workload: String,
    /// Dotted field path, e.g. `model.mpc_rounds`.
    pub field: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Candidate value, rendered.
    pub candidate: String,
    /// Direction classification.
    pub kind: FindingKind,
}

/// Outcome of a comparison.
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// Gated differences; empty means the gate passes.
    pub findings: Vec<Finding>,
    /// Workloads compared on both sides.
    pub compared: usize,
    /// Ungated observations worth a human glance: wall-clock drift above
    /// 25% (when no tolerance gates it).
    pub wall_notes: Vec<String>,
}

impl DiffResult {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: verdict line, regression table (if any),
    /// a matrix-mismatch summary when entries are missing on either side,
    /// and wall-clock notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "bench-diff: OK — {} workloads, model costs, quality and critical path \
                 identical to baseline\n",
                self.compared
            ));
        } else {
            out.push_str(&format!(
                "bench-diff: FAIL — {} gated difference(s) across {} compared workload(s)\n",
                self.findings.len(),
                self.compared
            ));
            // Per-entry findings only; the "<report>" zero-overlap
            // pseudo-finding shares the field name but is not an entry.
            let missing = self
                .findings
                .iter()
                .filter(|f| f.field == "workload" && f.workload != "<report>")
                .count();
            if missing > 0 {
                out.push_str(&format!(
                    "error: {missing} workload/executor entr{} missing from one report — \
                     the matrix changed (new executor, tier, or family?); regenerate and \
                     commit the baseline to accept it\n",
                    if missing == 1 { "y is" } else { "ies are" }
                ));
            }
            let mut t = Table::new(
                "Gated differences vs baseline",
                &["workload", "field", "baseline", "candidate", "verdict"],
            );
            for f in &self.findings {
                t.push(vec![
                    f.workload.clone(),
                    f.field.clone(),
                    f.baseline.clone(),
                    f.candidate.clone(),
                    f.kind.label().to_string(),
                ]);
            }
            out.push_str(&t.render());
        }
        if !self.wall_notes.is_empty() {
            out.push_str("\nungated wall-clock drift:\n");
            for note in &self.wall_notes {
                out.push_str(&format!("  {note}\n"));
            }
        }
        out
    }
}

fn push(
    findings: &mut Vec<Finding>,
    workload: &str,
    field: &str,
    baseline: impl ToString,
    candidate: impl ToString,
    kind: FindingKind,
) {
    findings.push(Finding {
        workload: workload.to_string(),
        field: field.to_string(),
        baseline: baseline.to_string(),
        candidate: candidate.to_string(),
        kind,
    });
}

/// Quality fields where larger is worse. `lp_bound`, `greedy_weight` and
/// `bye_weight` are properties of the instance and its baselines — the
/// MPC pipeline never touches them — so drift there is structural.
fn quality_larger_is_worse(field: &str) -> Option<bool> {
    match field {
        "cover_weight" | "cover_size" | "certified_ratio" | "ratio_vs_lp" => Some(true),
        "lp_bound" | "greedy_weight" | "bye_weight" => None,
        other => unreachable!("unknown quality field {other}"),
    }
}

/// Integer fields of `group`, gated exactly. Every charged cost grows
/// monotonically with "worse", so growth is a regression and a shrink an
/// improvement. A `structural` field is not a cost: cluster shape is
/// derived from the instance and config, like n/m, and a different
/// straggler is a different schedule — neither better nor worse.
fn diff_exact(
    findings: &mut Vec<Finding>,
    id: &str,
    group: &str,
    structural: &[&str],
    fields: impl Iterator<Item = (&'static str, i64, i64)>,
) {
    for (field, b, c) in fields {
        if b != c {
            let kind = if structural.contains(&field) {
                FindingKind::Structural
            } else if c > b {
                FindingKind::Regression
            } else {
                FindingKind::Improvement
            };
            push(findings, id, &format!("{group}.{field}"), b, c, kind);
        }
    }
}

fn diff_quality(findings: &mut Vec<Finding>, id: &str, base: &Quality, cand: &Quality) {
    for &field in Quality::FIELDS {
        let (b, c) = (base.field(field), cand.field(field));
        // Exact equality: the harness is deterministic, and both sides
        // round-tripped through the same shortest-float serialization.
        if b != c {
            let kind = match quality_larger_is_worse(field) {
                Some(worse_up) => {
                    if worse_up == (c > b) {
                        FindingKind::Regression
                    } else {
                        FindingKind::Improvement
                    }
                }
                None => FindingKind::Structural,
            };
            push(
                findings,
                id,
                &format!("quality.{field}"),
                format!("{b:?}"),
                format!("{c:?}"),
                kind,
            );
        }
    }
}

/// Compares `candidate` against `baseline` under `opts`.
pub fn diff_reports(
    baseline: &BenchReport,
    candidate: &BenchReport,
    opts: DiffOptions,
) -> DiffResult {
    let mut findings = Vec::new();
    let mut wall_notes = Vec::new();

    if baseline.suite != candidate.suite {
        push(
            &mut findings,
            "<report>",
            "suite",
            &baseline.suite,
            &candidate.suite,
            FindingKind::Structural,
        );
    }

    let mut compared = 0usize;
    for b in &baseline.workloads {
        let Some(c) = candidate.workloads.iter().find(|c| c.id == b.id) else {
            // An absent entry is never clean: when the matrix grows an
            // axis (a new executor, tier, or family) the baseline must be
            // regenerated, not silently partially compared.
            push(
                &mut findings,
                &b.id,
                "workload",
                format!("present (executor {})", b.executor),
                "missing from candidate",
                FindingKind::Structural,
            );
            continue;
        };
        compared += 1;
        if b.executor != c.executor {
            push(
                &mut findings,
                &b.id,
                "executor",
                &b.executor,
                &c.executor,
                FindingKind::Structural,
            );
        }
        // Instance shape: if the built instance changed, every downstream
        // number is incomparable — report the cause, not just the symptoms.
        if b.n != c.n {
            push(&mut findings, &b.id, "n", b.n, c.n, FindingKind::Structural);
        }
        if b.m != c.m {
            push(&mut findings, &b.id, "m", b.m, c.m, FindingKind::Structural);
        }
        if b.epsilon != c.epsilon {
            push(
                &mut findings,
                &b.id,
                "epsilon",
                format!("{:?}", b.epsilon),
                format!("{:?}", c.epsilon),
                FindingKind::Structural,
            );
        }
        diff_exact(
            &mut findings,
            &b.id,
            "model",
            &["machines", "memory_cap_words"],
            ModelCosts::FIELDS
                .iter()
                .map(|&f| (f, b.model.field(f), c.model.field(f))),
        );
        diff_quality(&mut findings, &b.id, &b.quality, &c.quality);
        diff_exact(
            &mut findings,
            &b.id,
            "critical_path",
            &["straggler_machine"],
            CriticalPathStats::FIELDS
                .iter()
                .map(|&f| (f, b.critical_path.field(f), c.critical_path.field(f))),
        );

        // Wall clock: gated only on request, noted above 25% drift.
        let (bw, cw) = (b.wall_clock_s, c.wall_clock_s);
        if let Some(tol) = opts.wall_tolerance {
            if cw > bw * (1.0 + tol) {
                push(
                    &mut findings,
                    &b.id,
                    "wall_clock_s",
                    format!("{bw:.3}s"),
                    format!("{cw:.3}s (> +{:.0}%)", tol * 100.0),
                    FindingKind::Regression,
                );
            }
        }
        if bw > 0.0 {
            let drift = cw / bw - 1.0;
            if drift.abs() > 0.25 {
                wall_notes.push(format!(
                    "{}: wall {bw:.3}s -> {cw:.3}s ({:+.0}%)",
                    b.id,
                    drift * 100.0
                ));
            }
        }
    }
    for c in &candidate.workloads {
        if !baseline.workloads.iter().any(|b| b.id == c.id) {
            push(
                &mut findings,
                &c.id,
                "workload",
                "missing from baseline",
                format!("present (executor {})", c.executor),
                FindingKind::Structural,
            );
        }
    }
    if compared == 0 && (!baseline.workloads.is_empty() || !candidate.workloads.is_empty()) {
        push(
            &mut findings,
            "<report>",
            "workload",
            format!("{} workloads", baseline.workloads.len()),
            format!("{} workloads, zero overlap", candidate.workloads.len()),
            FindingKind::Structural,
        );
    }

    DiffResult {
        findings,
        compared,
        wall_notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::synthetic_report;

    #[test]
    fn identical_reports_are_clean() {
        let r = synthetic_report();
        let d = diff_reports(&r, &r.clone(), DiffOptions::default());
        assert!(d.is_clean(), "{:?}", d.findings);
        assert_eq!(d.compared, 2);
        assert!(d.render().contains("OK"));
    }

    #[test]
    fn rounds_regression_is_detected_and_named() {
        let base = synthetic_report();
        let mut cand = base.clone();
        cand.workloads[1].model.mpc_rounds += 9;
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert!(!d.is_clean());
        assert_eq!(d.findings.len(), 1);
        let f = &d.findings[0];
        assert_eq!(f.workload, "rmat-zipf-eps16-n64-roundcompress");
        assert_eq!(f.field, "model.mpc_rounds");
        assert_eq!(f.kind, FindingKind::Regression);
        let rendered = d.render();
        assert!(
            rendered.contains("rmat-zipf-eps16-n64-roundcompress"),
            "{rendered}"
        );
        assert!(rendered.contains("REGRESSED"), "{rendered}");
    }

    #[test]
    fn cluster_shape_drift_is_structural() {
        let base = synthetic_report();
        let mut cand = base.clone();
        cand.workloads[0].model.machines -= 1;
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert_eq!(d.findings.len(), 1);
        assert_eq!(d.findings[0].kind, FindingKind::Structural);
        assert_eq!(d.findings[0].field, "model.machines");
    }

    #[test]
    fn instance_baseline_drift_is_structural() {
        let base = synthetic_report();
        let mut cand = base.clone();
        cand.workloads[0].quality.greedy_weight += 1.0;
        cand.workloads[1].quality.lp_bound += 1.0;
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert_eq!(d.findings.len(), 2);
        assert!(d.findings.iter().all(|f| f.kind == FindingKind::Structural));
    }

    #[test]
    fn improvement_still_gates_but_reads_differently() {
        let base = synthetic_report();
        let mut cand = base.clone();
        cand.workloads[0].quality.cover_weight -= 1.0;
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert_eq!(d.findings.len(), 1);
        assert_eq!(d.findings[0].kind, FindingKind::Improvement);
        assert!(d.render().contains("refresh baseline"));
    }

    #[test]
    fn missing_and_new_workloads_are_structural_and_named_clearly() {
        let base = synthetic_report();
        let mut cand = base.clone();
        let mut extra = cand.workloads[0].clone();
        extra.id = "brand-new-workload".into();
        cand.workloads.remove(1);
        cand.workloads.push(extra);
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert_eq!(d.findings.len(), 2);
        assert!(d.findings.iter().all(|f| f.kind == FindingKind::Structural));
        assert_eq!(d.compared, 1);
        // Both directions are reported as a missing workload/executor
        // entry, and the rendering carries the matrix-mismatch error line.
        assert!(d
            .findings
            .iter()
            .any(|f| f.candidate == "missing from candidate"));
        assert!(d
            .findings
            .iter()
            .any(|f| f.baseline == "missing from baseline"));
        let rendered = d.render();
        assert!(
            rendered.contains("entries are missing from one report"),
            "{rendered}"
        );
        assert!(rendered.contains("regenerate"), "{rendered}");
    }

    #[test]
    fn grown_executor_axis_is_reported_not_treated_as_clean() {
        // The matrix-growth scenario the gate must catch: the candidate
        // grew a second executor per workload but the baseline predates
        // the axis. Every new entry is flagged; exit would be nonzero.
        let base = synthetic_report();
        let mut cand = base.clone();
        for w in base.workloads.iter() {
            let mut rc = w.clone();
            rc.id = format!("{}-other", w.id);
            rc.executor = "otherexec".into();
            cand.workloads.push(rc);
        }
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert!(!d.is_clean(), "grown matrix must not pass silently");
        assert_eq!(d.findings.len(), 2);
        for f in &d.findings {
            assert_eq!(f.kind, FindingKind::Structural);
            assert!(f.candidate.contains("executor otherexec"), "{f:?}");
        }
    }

    #[test]
    fn executor_rename_on_same_id_is_structural() {
        let base = synthetic_report();
        let mut cand = base.clone();
        cand.workloads[0].executor = "renamed".into();
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert_eq!(d.findings.len(), 1);
        assert_eq!(d.findings[0].field, "executor");
        assert_eq!(d.findings[0].kind, FindingKind::Structural);
    }

    #[test]
    fn zero_overlap_is_flagged_at_report_level() {
        let base = synthetic_report();
        let mut cand = base.clone();
        for w in &mut cand.workloads {
            w.id = format!("disjoint-{}", w.id);
        }
        let d = diff_reports(&base, &cand, DiffOptions::default());
        assert_eq!(d.compared, 0);
        assert!(d
            .findings
            .iter()
            .any(|f| f.workload == "<report>" && f.candidate.contains("zero overlap")));
    }

    #[test]
    fn wall_clock_only_gates_with_tolerance() {
        let base = synthetic_report();
        let mut cand = base.clone();
        cand.workloads[0].wall_clock_s = base.workloads[0].wall_clock_s * 10.0;
        let ungated = diff_reports(&base, &cand, DiffOptions::default());
        assert!(ungated.is_clean());
        assert_eq!(ungated.wall_notes.len(), 1, "big drift is still noted");
        let gated = diff_reports(
            &base,
            &cand,
            DiffOptions {
                wall_tolerance: Some(0.5),
            },
        );
        assert!(!gated.is_clean());
        assert_eq!(gated.findings[0].field, "wall_clock_s");
    }

    #[test]
    fn critical_path_is_gated_exactly() {
        let base = synthetic_report();
        let mut cand = base.clone();
        cand.workloads[0].critical_path.barrier_stall += 1;
        cand.workloads[0].critical_path.straggler_machine += 1;
        cand.workloads[1].critical_path.barrier_makespan -= 1;
        let d = diff_reports(&base, &cand, DiffOptions::default());
        let found: Vec<(&str, &str, FindingKind)> = d
            .findings
            .iter()
            .map(|f| (f.workload.as_str(), f.field.as_str(), f.kind))
            .collect();
        assert_eq!(
            found,
            vec![
                (
                    "gnm-uniform-eps4-n64-distributed",
                    "critical_path.barrier_stall",
                    FindingKind::Regression
                ),
                (
                    "gnm-uniform-eps4-n64-distributed",
                    "critical_path.straggler_machine",
                    FindingKind::Structural
                ),
                (
                    "rmat-zipf-eps16-n64-roundcompress",
                    "critical_path.barrier_makespan",
                    FindingKind::Improvement
                ),
            ]
        );
        assert!(d.wall_notes.is_empty(), "{:?}", d.wall_notes);
        assert!(d.render().contains("FAIL"));
    }
}
