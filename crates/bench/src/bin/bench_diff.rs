//! `bench-diff` — the perf-gate comparator.
//!
//! ```text
//! bench-diff <baseline.json> <candidate.json>
//! ```
//!
//! Exit codes: `0` — model costs, quality and critical path identical
//! (gate passes);
//! `1` — gated differences found (regression, improvement needing a
//! baseline refresh, or structural drift); `2` — usage, I/O, or parse
//! error, including a report of another schema version.

// The gate's exit status IS its interface (0 pass / 1 gated diff /
// 2 usage), and the divergent `usage`/`help` helpers need `exit` rather
// than `ExitCode` plumbing; everything else in the workspace keeps the
// deny.
#![allow(clippy::exit)]

use mwvc_bench::diff::diff_reports;
use mwvc_bench::schema::BenchReport;

fn main() {
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => help(),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            _ => paths.push(arg),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        usage("expected exactly two report paths: <baseline.json> <candidate.json>");
    };

    let baseline = load(baseline_path);
    let candidate = load(candidate_path);
    let result = diff_reports(&baseline, &candidate);
    print!("{}", result.render());
    std::process::exit(if result.is_clean() { 0 } else { 1 });
}

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    BenchReport::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn help() -> ! {
    print_usage();
    std::process::exit(0);
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    print_usage();
    std::process::exit(2);
}

fn print_usage() {
    eprintln!("usage: bench-diff <baseline.json> <candidate.json>");
    eprintln!();
    eprintln!("Compares two BENCH_core.json reports. Model costs, quality and the");
    eprintln!("critical-path statistics must match exactly.");
    eprintln!();
    eprintln!("Exit codes:");
    eprintln!("  0  gate passes: model costs, quality and critical path identical to the");
    eprintln!("     baseline");
    eprintln!("  1  gated differences found: a regression, an improvement awaiting a");
    eprintln!("     deliberate baseline refresh, or structural drift (workload matrix,");
    eprintln!("     instance shape)");
    eprintln!("  2  usage, I/O, or parse error, including a report of another schema");
    eprintln!("     version (regenerate it) — nothing was compared");
}
