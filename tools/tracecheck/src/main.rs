//! CLI wrapper over [`tracecheck::check_trace`].
//!
//! ```text
//! tracecheck TRACE.json [--expect-overlap]
//! ```
//!
//! Exits non-zero if the file is not a well-formed Chrome trace, or if
//! `--expect-overlap` is given and no two events on different machine
//! tracks overlap in time (i.e. the critical path's Gantt chart would
//! show no cross-machine concurrency).

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut path = None;
    let mut expect_overlap = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--expect-overlap" => expect_overlap = true,
            "--help" | "-h" => {
                println!("usage: tracecheck TRACE.json [--expect-overlap]");
                return ExitCode::SUCCESS;
            }
            _ if path.is_none() => path = Some(arg),
            other => {
                eprintln!("tracecheck: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: tracecheck TRACE.json [--expect-overlap]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match tracecheck::check_trace(&text) {
        Ok(summary) => {
            println!(
                "tracecheck: {path}: {} events across {} machines, cross-machine overlap: {}",
                summary.events, summary.machines, summary.cross_machine_overlap
            );
            if expect_overlap && !summary.cross_machine_overlap {
                eprintln!("tracecheck: expected cross-machine overlap, found none");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tracecheck: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
