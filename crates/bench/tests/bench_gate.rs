//! The perf-gate contract tests: the `BENCH_core.json` schema is pinned
//! by a golden file, the committed baselines are canonical current-schema
//! documents, the experiments CLI fails cleanly, and the harness's report
//! rows must be bit-identical at every host pool width.

use mwvc_bench::harness::{run_workload, BenchWorkload, ExecutorKind};
use mwvc_bench::json::Json;
use mwvc_bench::schema::{synthetic_report, SCHEMA_VERSION};
use mwvc_graph::{GraphPreset, WeightModel};
use std::path::PathBuf;
use std::process::Command;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bench_schema.json")
}

/// The schema golden test: byte-for-byte serialization of a synthetic
/// report, pinning field names, field ordering, number formatting, and
/// `schema_version`. Any intentional change must bump `SCHEMA_VERSION`
/// and regenerate with `BLESS=1 cargo test -p mwvc-bench golden`.
#[test]
fn golden_file_pins_schema_bytes() {
    let text = synthetic_report().to_json();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path(), &text).expect("bless golden file");
    }
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden file missing; regenerate with BLESS=1");
    assert_eq!(
        text, golden,
        "BENCH_core.json serialization drifted from the golden file. If the schema \
         change is intentional, bump SCHEMA_VERSION in crates/bench/src/schema.rs, \
         re-bless (BLESS=1), and refresh benchmarks/baseline.json."
    );
}

/// The committed baselines are canonical current-schema documents: they
/// carry [`SCHEMA_VERSION`] and re-render to the identical bytes, so a
/// hand-edited baseline can never drift from the writer's formatting.
#[test]
fn committed_baselines_are_canonical_current_schema() {
    for name in ["baseline.json", "baseline-full.json"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../benchmarks")
            .join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_i64),
            Some(SCHEMA_VERSION),
            "{name} is stale"
        );
        assert_eq!(doc.render(), text, "{name} is not canonical");
    }
}

/// The experiments CLI contract: unknown subcommands exit 2 with usage on
/// stderr — including when riding alongside `all`, which previously
/// slipped through with exit 0 — and `--list` enumerates experiments and
/// bench workloads.
#[test]
fn experiments_cli_rejects_unknown_and_lists() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    for args in [
        vec!["bogus"],
        vec!["all", "bogus"],
        vec!["--frobnicate"],
        vec!["rounds", "--executor", "bogus"],
        vec!["e01", "--graph", "only-for-bench.col"],
        // --executor must be rejected, not silently ignored, by
        // experiments that cannot honor it.
        vec!["e08", "--executor", "roundcompress"],
        vec!["compress", "--executor", "distributed"],
        // The report carries no host time, so nothing is left to repeat.
        vec!["bench", "--repeat", "3"],
    ] {
        let out = Command::new(exe).args(&args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?} prints usage: {stderr}");
    }
    let out = Command::new(exe).arg("--list").output().expect("run");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("e01"), "{stdout}");
    assert!(stdout.contains("scaling"), "{stdout}");
    assert!(stdout.contains("bench workloads (quick):"), "{stdout}");
    assert!(stdout.contains("gnp-uniform-eps4-n1024"), "{stdout}");
}

/// A `--csv` directory that cannot be created is an I/O error with exit
/// 2, reported before any experiment runs — never a panic after one.
#[test]
fn experiments_csv_bad_directory_exits_2() {
    let file = std::env::temp_dir().join(format!("bench-gate-{}-csv-file", std::process::id()));
    std::fs::write(&file, "a regular file").expect("write temp file");
    let dir = file.join("sub");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e02")
        .arg("--csv")
        .arg(&dir)
        .output()
        .expect("run");
    let _ = std::fs::remove_file(&file);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a bad --csv directory must exit 2"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("error: cannot write {}", dir.display())),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no experiment may run first");
}

/// `experiments scaling` rejects a `SCALING_*` variable that is set to
/// anything but a positive integer: exit 2, naming the variable, before
/// any experiment runs. The pool-width gate is driven by these variables,
/// so a typo must not shrink the sweep or the instance unnoticed.
#[test]
fn experiments_scaling_rejects_malformed_env() {
    for (key, raw) in [
        ("SCALING_MAX_THREADS", "four"),
        ("SCALING_N", "2k"),
        ("SCALING_DEGREE", "0"),
        ("SCALING_MAX_THREADS", "-1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg("scaling")
            .env("SCALING_N", "2000")
            .env(key, raw)
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{key}={raw} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {key}={raw:?} is not a valid value")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "no experiment may run first");
    }
}

/// The determinism contract behind the gate: a report row is
/// bit-identical whether the harness runs on a 1-thread or a 3-thread
/// host pool (the `RAYON_NUM_THREADS` sweep of the test suite, in
/// miniature) — for every benched executor.
#[test]
fn rows_bit_identical_across_pool_widths() {
    for executor in ExecutorKind::all() {
        let w = BenchWorkload {
            id: format!("gnm-uniform-eps16-n256-poolcheck-{}", executor.label()),
            preset: GraphPreset::Gnm {
                n: 256,
                avg_degree: 16,
            },
            weights_label: "uniform",
            weights: WeightModel::Uniform { lo: 1.0, hi: 10.0 },
            epsilon: 0.0625,
            tier_n: 256,
            executor,
        };
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build pool");
            pool.install(|| run_workload(&w))
        };
        assert_eq!(
            run(1),
            run(3),
            "{}: a row must not see host threading",
            executor.label()
        );
    }
}
