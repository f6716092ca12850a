//! CLI wrapper over [`tracecheck::check_trace`].
//!
//! ```text
//! tracecheck TRACE.json
//! ```
//!
//! Exits non-zero if the file is not a well-formed Chrome trace, or if
//! two slices on one machine track overlap in time (a machine runs one
//! round at a time).

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("usage: tracecheck TRACE.json");
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
        eprintln!("usage: tracecheck TRACE.json");
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
                "tracecheck: {path}: {} events across {} machines, no machine overlaps itself",
                summary.events, summary.machines
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tracecheck: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
