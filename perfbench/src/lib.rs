//! Mid-scale host-time benchmark of the MWVC executors. `README.md` in
//! this directory describes the workloads, the metrics and which
//! per-layer metric should move which end-to-end metric.

pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;

use metrics::Metric;
use run::RunReport;
use spans::json_number;

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|Metric { def, value }| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(*value),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
