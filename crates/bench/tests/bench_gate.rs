//! The perf-gate contract tests: the `BENCH_core.json` schema is pinned
//! by a golden file, `bench-diff` must catch injected regressions with a
//! nonzero exit naming the offender, and the harness's report rows must
//! be bit-identical at every host pool width.

use mwvc_bench::harness::{run_workload, BenchWorkload, ExecutorKind};
use mwvc_bench::json::Json;
use mwvc_bench::schema::{
    synthetic_report, BenchReport, CriticalPathStats, ModelCosts, Quality, SCHEMA_VERSION,
};
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
    // The golden bytes parse back to the identical report (writer and
    // parser agree on the pinned schema).
    assert_eq!(
        BenchReport::from_json(&golden).expect("golden parses"),
        synthetic_report()
    );
}

#[test]
fn golden_file_field_order_matches_schema_lists() {
    // Works on the canonical serialization directly (the byte-equality
    // test above ties it to the golden file), so this test never races
    // with a BLESS re-write.
    let golden = synthetic_report().to_json();
    let mut last = 0;
    for field in ["schema_version", "suite", "seed", "workloads"] {
        let at = golden.find(&format!("\"{field}\"")).expect(field);
        assert!(at > last || last == 0, "report field {field} out of order");
        last = at;
    }
    let model_at = golden.find("\"model\"").unwrap();
    let quality_at = golden.find("\"quality\"").unwrap();
    assert!(model_at < quality_at, "model precedes quality");
    let mut last = model_at;
    for field in ModelCosts::FIELDS {
        let at = golden[model_at..]
            .find(&format!("\"{field}\""))
            .expect(field)
            + model_at;
        assert!(at > last, "model field {field} out of order");
        last = at;
    }
    let mut last = quality_at;
    for field in Quality::FIELDS {
        let at = golden[quality_at..]
            .find(&format!("\"{field}\""))
            .expect(field)
            + quality_at;
        assert!(at > last, "quality field {field} out of order");
        last = at;
    }
    // critical_path follows quality and closes the row.
    let cp_at = golden.find("\"critical_path\"").unwrap();
    assert!(quality_at < cp_at, "critical_path follows quality");
    let mut last = cp_at;
    for field in CriticalPathStats::FIELDS {
        let at = golden[cp_at..].find(&format!("\"{field}\"")).expect(field) + cp_at;
        assert!(at > last, "critical-path field {field} out of order");
        last = at;
    }
    let doc = Json::parse(&golden).expect("golden parses");
    for row in doc.get("workloads").and_then(Json::as_arr).expect("rows") {
        let Json::Obj(fields) = row else {
            panic!("a row is not an object: {row:?}")
        };
        let last = fields.last().map(|(key, _)| key.as_str());
        assert_eq!(last, Some("critical_path"), "critical_path closes the row");
    }
}

/// The committed baselines are canonical current-schema documents: they parse
/// through the strict reader and re-render to the identical bytes, so a
/// hand-migrated baseline can never drift from what `experiments bench`
/// itself would write.
#[test]
fn committed_baselines_are_canonical_current_schema() {
    for name in ["baseline.json", "baseline-full.json"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../benchmarks")
            .join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.schema_version, SCHEMA_VERSION, "{name} is stale");
        assert_eq!(report.to_json(), text, "{name} is not canonical");
    }
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench-gate-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp report");
    path
}

/// End-to-end satellite requirement: a synthetic rounds regression makes
/// the `bench-diff` *binary* exit nonzero and name the offending
/// workload on stdout.
#[test]
fn bench_diff_binary_flags_injected_rounds_regression() {
    let base = synthetic_report();
    let mut cand = base.clone();
    cand.workloads[1].model.mpc_rounds += 9;
    let base_path = temp_file("base.json", &base.to_json());
    let cand_path = temp_file("cand.json", &cand.to_json());

    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args([&base_path, &cand_path])
        .output()
        .expect("run bench-diff");
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("rmat-zipf-eps16-n64-roundcompress"),
        "offending workload named: {stdout}"
    );
    assert!(stdout.contains("model.mpc_rounds"), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // A workload/executor entry absent from the candidate is an explicit
    // matrix-mismatch error, not a silently clean partial comparison.
    let mut partial = base.clone();
    partial.workloads.remove(1);
    let partial_path = temp_file("partial.json", &partial.to_json());
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args([&base_path, &partial_path])
        .output()
        .expect("run bench-diff");
    assert_eq!(out.status.code(), Some(1), "missing entry must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("missing from candidate"), "{stdout}");
    assert!(stdout.contains("missing from one report"), "{stdout}");
    let _ = std::fs::remove_file(partial_path);

    // Identical files pass with exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args([&base_path, &base_path])
        .output()
        .expect("run bench-diff");
    assert_eq!(out.status.code(), Some(0), "identical reports must pass");

    // The report carries no host time, so there is no wall-clock
    // tolerance to pass: the flag is unknown, a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args([&base_path, &base_path])
        .args(["--wall-tolerance", "0.5"])
        .output()
        .expect("run bench-diff");
    assert_eq!(out.status.code(), Some(2), "a removed flag must exit 2");

    // Unparseable input is a usage-class error, distinct from a failed gate.
    let junk_path = temp_file("junk.json", "{not json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args([&base_path, &junk_path])
        .output()
        .expect("run bench-diff");
    assert_eq!(out.status.code(), Some(2), "parse errors must exit 2");

    // So is a report of an older schema: nothing was compared, and the
    // error says which versions met and how to regenerate the stale one.
    let mut stale = base.clone();
    stale.schema_version = SCHEMA_VERSION - 1;
    let stale_path = temp_file("stale.json", &stale.to_json());
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args([&stale_path, &base_path])
        .output()
        .expect("run bench-diff");
    assert_eq!(out.status.code(), Some(2), "a stale schema must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("v{}", SCHEMA_VERSION - 1)),
        "{stderr}"
    );
    assert!(stderr.contains(&format!("v{SCHEMA_VERSION}")), "{stderr}");
    assert!(
        stderr.contains("cargo run --release --bin experiments -- bench"),
        "{stderr}"
    );

    for p in [base_path, cand_path, junk_path, stale_path] {
        let _ = std::fs::remove_file(p);
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
