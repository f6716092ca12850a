//! `bench-diff` — the perf-gate comparator.
//!
//! ```text
//! bench-diff <baseline.json> <candidate.json> [--wall-tolerance FRACTION]
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

use mwvc_bench::diff::{diff_reports, DiffOptions};
use mwvc_bench::schema::BenchReport;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--wall-tolerance" => {
                i += 1;
                let raw = args
                    .get(i)
                    .unwrap_or_else(|| usage("--wall-tolerance needs a fraction"));
                let tol: f64 = raw
                    .parse()
                    .unwrap_or_else(|_| usage("--wall-tolerance needs a number, e.g. 0.5"));
                if !(tol >= 0.0 && tol.is_finite()) {
                    usage("--wall-tolerance must be a nonnegative finite fraction");
                }
                opts.wall_tolerance = Some(tol);
            }
            "--help" | "-h" => help(),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            path => paths.push(path.to_string()),
        }
        i += 1;
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        usage("expected exactly two report paths: <baseline.json> <candidate.json>");
    };

    let baseline = load(baseline_path);
    let candidate = load(candidate_path);
    let result = diff_reports(&baseline, &candidate, opts);
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
    eprintln!("usage: bench-diff <baseline.json> <candidate.json> [--wall-tolerance FRACTION]");
    eprintln!();
    eprintln!("Compares two BENCH_core.json reports. Model costs, quality and the");
    eprintln!("critical-path statistics must match exactly; wall-clock is reported, and");
    eprintln!("gated only when a tolerance is given (e.g. --wall-tolerance 0.5 fails");
    eprintln!("workloads that got >50% slower).");
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
