//! Self-tests of the benchmark: a miniature of every workload passes
//! every check in both modes, the printed metric names are exactly the
//! ones `BENCHMARK.json` declares, and a seeded defect is counted as a
//! failure instead of being dropped.
//!
//! Everything runs in one test function: the out-of-core executor puts
//! its spill files in the temp directory, which is process-global state
//! that the test points at its own scratch directory once, up front.

use mwvc_perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use mwvc_perfbench::result_json;
use mwvc_perfbench::run::{drop_one_cover_vertex, run, scratch_dir, RunConfig, RunReport, Tamper};
use mwvc_perfbench::workload::{workload, Scale, WORKLOAD_NAMES};
use std::path::{Path, PathBuf};

fn mini_run(name: &str, dir: &Path, trace: bool, tamper: Option<Tamper>) -> RunReport {
    let w = workload(name, Scale::Mini).expect("declared workload");
    let cfg = RunConfig {
        seed: 7,
        seconds: 0.0,
        trace,
        dir: dir.to_path_buf(),
        out_dir: dir.to_path_buf(),
    };
    run(&w, &cfg, tamper).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn value(report: &RunReport, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.def.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// The `"name"` values of the array stored under `key` in the
/// benchmark's JSON file (entries hold no nested arrays).
fn declared_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.def.name.to_string()).collect()
}

#[test]
fn selftest() {
    let dir = scratch_dir(&PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"))
        .expect("scratch dir");
    std::env::set_var("TMPDIR", &dir);

    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark directory");
    let declared_e2e = declared_names(&json, "end_to_end");
    let declared_layer = declared_names(&json, "per_layer");
    assert_eq!(declared_names(&json, "workloads"), WORKLOAD_NAMES);
    let catalogue: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(declared_e2e, catalogue);
    let catalogue: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(declared_layer, catalogue);

    for name in WORKLOAD_NAMES {
        let plain = mini_run(name, &dir, false, None);
        assert_eq!(plain.failed, 0, "{name}: {:?}", plain.failures);
        assert_eq!(names(&plain.metrics), declared_e2e, "{name}");
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end {} is {}",
                m.def.name,
                m.value
            );
        }
        let line = result_json(&plain);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );

        let traced = mini_run(name, &dir, true, None);
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.failures);
        assert_eq!(names(&traced.metrics), declared_layer, "{name}");
        let span_file = traced.span_file.as_ref().expect("traced runs write spans");
        assert!(std::fs::metadata(span_file).expect("span file").len() > 0);
        for m in &traced.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{name}: {} = {}",
                m.def.name,
                m.value
            );
        }
        assert!(value(&traced, "executor.certified_ratio") >= 1.0);
        assert!(value(&traced, "trace.overhead") > 0.0);
        assert!(value(&traced, "pool.speedup") > 0.0);
        if name == "outofcore-stream" {
            assert!(value(&traced, "mpc.spill_words") > 0.0);
            assert!(value(&traced, "graph.ocsr_bytes") > 0.0);
            assert!(
                value(&traced, "mpc.peak_resident_words") <= value(&traced, "mpc.memory_cap_words")
            );
        } else {
            // The round labels the benchmark knows account for (nearly)
            // all round time, and the pipelined solve ran.
            let rounds = value(&traced, "executor.rounds_s");
            let labelled: f64 = traced
                .metrics
                .iter()
                .filter(|m| {
                    m.def.name.starts_with("executor.round.")
                        && m.def.name != "executor.round.other_s"
                })
                .map(|m| m.value)
                .sum();
            assert!(rounds > 0.0, "{name}");
            assert!(value(&traced, "executor.outside_rounds_s") > 0.0, "{name}");
            assert!(
                labelled >= 0.95 * rounds,
                "{name}: {labelled} of {rounds} s labelled"
            );
            assert!((labelled + value(&traced, "executor.round.other_s") - rounds).abs() < 1e-9);
            assert!(value(&traced, "mpc.pipelined_solve_s") > 0.0);
        }
    }

    // A seeded defect (one cover vertex dropped before the check) fails
    // every solve, in memory and on disk, and each failure names its
    // workload and executor.
    for name in ["mid-gnm.roundcompress", "outofcore-stream"] {
        let broken = mini_run(name, &dir, false, Some(drop_one_cover_vertex));
        assert_eq!(broken.failed, broken.attempted, "{name}");
        assert!(broken.attempted >= 3);
        assert!(
            broken.failures.iter().all(|f| f.starts_with(name)),
            "{:?}",
            broken.failures
        );
        assert!(result_json(&broken).starts_with("{\"correct\": false"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}
