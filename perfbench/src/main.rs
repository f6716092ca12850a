//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Builds the workload's instance from the seed, times warm solves for
//! `S` seconds, checks every output, prints each metric with its unit and
//! direction, and ends with one JSON result line. Exits 2 on bad
//! arguments and 1 when the run cannot start.

use mwvc_perfbench::result_json;
use mwvc_perfbench::run::{run, scratch_dir, RunConfig};
use mwvc_perfbench::workload::{workload, Scale, WORKLOAD_NAMES};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: {}",
                WORKLOAD_NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, Scale::Full) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {}",
            args.workload,
            WORKLOAD_NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    // Everything the run writes stays under this package's `out/`.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let dir = match scratch_dir(&out_dir) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    // Spill files of the out-of-core executor go to the temp directory;
    // point it at the scratch directory before any thread starts.
    std::env::set_var("TMPDIR", &dir);

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} (executor {}, eps {}), seed {}, {} s, trace {}",
        w.name,
        w.solver.label(),
        w.epsilon,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("instance {:?}", w.instance);
    println!("solver {:?}", w.solver);
    println!("load: one process, closed loop of back-to-back solves on the default {threads}-thread pool");

    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.clone(),
        out_dir,
    };
    let result = run(&w, &cfg, None);
    let _ = std::fs::remove_dir_all(&dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", w.name);
            return ExitCode::from(1);
        }
    };

    for m in &report.metrics {
        println!(
            "  {:<30} {:>16.6} {:<8} ({} is better)",
            m.def.name, m.value, m.def.unit, m.def.better
        );
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    println!(
        "fail_ratio {}/{} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    if let Some(path) = &report.span_file {
        println!("spans written to {}", path.display());
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
