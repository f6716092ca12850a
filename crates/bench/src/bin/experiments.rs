//! CLI entry point for the experiment tables and the benchmark suite.
//!
//! ```text
//! experiments all                   # run the full experiment-table suite
//! experiments e01 e05               # run selected experiments
//! experiments all --csv out/        # also write one CSV per table
//! experiments scaling --threads 4   # pin the host pool width
//! experiments rounds --executor roundcompress   # one executor's trajectory
//! experiments compress              # executor head-to-head report
//! experiments bench --quick         # benchmark matrix -> BENCH_core.json
//! experiments bench --out B.json    # choose the output path
//! experiments bench --quick --graph g.col       # add file workloads
//! experiments trace                 # Perfetto timeline -> TRACE.json
//! experiments trace --out T.json    # choose the output path
//! experiments --list                # enumerate experiments and workloads
//! ```
//!
//! Exit codes: `0` on success, `2` on any usage error (unknown
//! subcommand, unknown flag, missing flag argument) or on an output path
//! that cannot be written.

// The exit status is this CLI's interface; everything else in the
// workspace keeps the `clippy::exit` deny.
#![allow(clippy::exit)]

use mwvc_bench::experiments::ExpOptions;
use mwvc_bench::harness::{self, BenchSuite, ExecutorKind};
use mwvc_bench::{experiments, Table};
use std::io::Write;
use std::time::Instant;

#[derive(Default)]
struct Options {
    ids: Vec<String>,
    csv_dir: Option<String>,
    threads: Option<usize>,
    quick: bool,
    full: bool,
    out: Option<String>,
    graph: Option<String>,
    executor: Option<ExecutorKind>,
    /// Whether `--executor` appeared at all (including `both`), so the
    /// flag is rejected — never silently ignored — where inapplicable.
    executor_set: bool,
    list: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opt = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => {
                i += 1;
                let dir = args
                    .get(i)
                    .unwrap_or_else(|| usage("--csv needs a directory"));
                // Created here, so a bad directory fails before any
                // experiment runs.
                std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(dir, e));
                opt.csv_dir = Some(dir.clone());
            }
            "--threads" => {
                i += 1;
                let t = args
                    .get(i)
                    .unwrap_or_else(|| usage("--threads needs a count"))
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage("--threads needs a positive integer"));
                if t == 0 {
                    usage("--threads needs a positive integer");
                }
                opt.threads = Some(t);
            }
            "--out" => {
                i += 1;
                opt.out = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--out needs a file path"))
                        .clone(),
                );
            }
            "--graph" => {
                i += 1;
                opt.graph = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--graph needs a file path"))
                        .clone(),
                );
            }
            "--executor" => {
                i += 1;
                opt.executor_set = true;
                let name = args
                    .get(i)
                    .unwrap_or_else(|| usage("--executor needs a name"));
                if name != "both" {
                    opt.executor = Some(ExecutorKind::from_name(name).unwrap_or_else(|| {
                        let known: Vec<&str> =
                            ExecutorKind::all().iter().map(|k| k.label()).collect();
                        usage(&format!(
                            "unknown executor {name:?}; known: {known:?} or 'both'"
                        ))
                    }));
                }
            }
            "--quick" => opt.quick = true,
            "--full" => opt.full = true,
            "--list" => opt.list = true,
            "--help" | "-h" => help(),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            other => opt.ids.push(other.to_string()),
        }
        i += 1;
    }

    if opt.list {
        if !opt.ids.is_empty() {
            usage("--list takes no further arguments");
        }
        list();
    }

    if let Some(t) = opt.threads {
        // Pin the global pool before any parallel work builds it lazily.
        // (The `scaling` experiment sweeps its own pools regardless.)
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
            .expect("--threads must be set before the pool is first used");
    }

    if opt.ids.iter().any(|id| id == "bench") {
        run_bench(&opt);
        return;
    }
    if opt.ids.iter().any(|id| id == "trace") {
        run_trace(&opt);
        return;
    }
    run_tables(&opt);
}

/// `experiments trace`: run one skewed quick workload and export its
/// per-machine round rows as a Chrome Trace Event Format timeline (load
/// the file in Perfetto / `chrome://tracing`).
fn run_trace(opt: &Options) {
    if opt.ids.len() != 1 {
        usage("'trace' cannot be combined with other experiments");
    }
    if opt.quick || opt.full || opt.graph.is_some() {
        usage("--quick/--full/--graph do not apply to 'trace'");
    }
    let executor = opt.executor.unwrap_or(ExecutorKind::Distributed);
    // The R-MAT/Zipf cell of the quick matrix: the most degree- and
    // weight-skewed workload, so per-machine loads differ and the barrier
    // timeline shows machines stalling behind each round's straggler.
    let wanted = format!("rmat-zipf-eps4-n1024-{}", executor.label());
    let workload = harness::workload_matrix(BenchSuite::Quick)
        .into_iter()
        .find(|w| w.id == wanted)
        .unwrap_or_else(|| {
            usage(&format!(
                "trace workload {wanted:?} missing from the matrix"
            ))
        });
    let out_path = opt.out.clone().unwrap_or_else(|| "TRACE.json".into());
    let start = Instant::now();
    eprintln!("[trace] running {}...", workload.id);
    let outcome = harness::run_for_trace(&workload);
    let trace = &outcome.trace;
    let doc = mwvc_bench::tracefmt::chrome_trace(trace);
    write_or_exit(&out_path, doc.render());
    let cp = &trace.critical_path;
    match cp.straggler() {
        Some((machine, stall)) => eprintln!(
            "[trace] straggler: machine {machine} (stalled {stall} words, the least of \
             any machine); barrier makespan {}, total barrier stall {} words",
            cp.barrier_makespan, cp.barrier_stall
        ),
        None => eprintln!("[trace] no critical-path rows recorded"),
    }
    eprintln!(
        "[trace] wrote {out_path} ({} rounds x {} machines) in {:.1}s",
        cp.machine_rounds.len(),
        cp.machine_rounds.first().map_or(0, Vec::len),
        start.elapsed().as_secs_f64()
    );
}

/// `experiments bench`: the workload matrix -> BENCH_core.json.
fn run_bench(opt: &Options) {
    if opt.ids.len() != 1 {
        usage("'bench' cannot be combined with other experiments");
    }
    if opt.quick && opt.full {
        usage("--quick and --full are mutually exclusive");
    }
    let suite = if opt.quick {
        BenchSuite::Quick
    } else {
        BenchSuite::Full
    };
    let out_path = opt.out.clone().unwrap_or_else(|| "BENCH_core.json".into());
    let start = Instant::now();
    eprintln!("[bench] running the {} suite...", suite.label());
    let mut matrix = harness::workload_matrix(suite);
    if let Some(path) = &opt.graph {
        matrix.extend(harness::file_workloads(path).unwrap_or_else(|e| usage(&e)));
    }
    if let Some(k) = opt.executor {
        matrix.retain(|w| w.executor == k);
        eprintln!(
            "[bench] --executor {}: {} workload(s); note the report will not \
             match a full-matrix baseline",
            k.label(),
            matrix.len()
        );
    }
    let (report, table) = harness::run_workloads(suite.label(), matrix);
    emit_tables("bench", &[table], &opt.csv_dir);
    write_or_exit(&out_path, report.to_json());
    eprintln!(
        "[bench] wrote {out_path} ({} workloads) in {:.1}s",
        report.workloads.len(),
        start.elapsed().as_secs_f64()
    );
}

/// Classic experiment tables (`e01`..`e13`, `scaling`, `rounds`,
/// `compress`, `all`).
fn run_tables(opt: &Options) {
    if opt.quick || opt.full || opt.out.is_some() || opt.graph.is_some() {
        usage("--quick/--full/--out/--graph apply to the 'bench' subcommand only");
    }
    if opt.ids.is_empty() {
        usage("no experiments selected");
    }
    let registry = experiments::all();
    let known: Vec<&str> = registry.iter().map(|(id, _)| *id).collect();
    // Validate every requested id — including alongside "all" — so a typo
    // can never silently succeed.
    for id in &opt.ids {
        if id != "all" && !known.contains(&id.as_str()) {
            usage(&format!(
                "unknown experiment {id:?}; known: {known:?}, 'all', 'bench', or 'trace'"
            ));
        }
    }
    let run_all = opt.ids.iter().any(|i| i == "all");
    let selected: Vec<_> = registry
        .into_iter()
        .filter(|(id, _)| run_all || opt.ids.iter().any(|want| want == id))
        .collect();

    // `--executor` only steers executor-selectable experiments; reject it
    // elsewhere rather than silently ignoring it (mirrors --graph).
    if opt.executor_set && !opt.ids.iter().any(|id| id == "rounds" || id == "all") {
        usage("--executor applies to the 'rounds' and 'bench' subcommands only");
    }
    // The sweep's variables are checked before any experiment runs.
    if selected.iter().any(|(id, _)| *id == "scaling") {
        experiments::ScalingParams::from_env().unwrap_or_else(|e| usage(&e));
    }
    let exp_opts = ExpOptions {
        executor: opt.executor,
    };
    for (id, run) in selected {
        let start = Instant::now();
        eprintln!("[{id}] running...");
        let tables = run(&exp_opts);
        emit_tables(id, &tables, &opt.csv_dir);
        eprintln!("[{id}] done in {:.1}s", start.elapsed().as_secs_f64());
        let _ = std::io::stdout().flush();
    }
}

fn emit_tables(id: &str, tables: &[Table], csv_dir: &Option<String>) {
    for (k, table) in tables.iter().enumerate() {
        print!("{}", table.render());
        if let Some(dir) = csv_dir {
            let path = format!("{dir}/{id}_{k}.csv");
            write_or_exit(&path, table.to_csv());
            eprintln!("[{id}] wrote {path}");
        }
    }
}

/// Writes `contents` to `path`, or exits 2 naming the path.
fn write_or_exit(path: &str, contents: String) {
    std::fs::write(path, contents).unwrap_or_else(|e| cannot_write(path, e));
}

fn cannot_write(path: &str, e: std::io::Error) -> ! {
    eprintln!("error: cannot write {path}: {e}");
    std::process::exit(2);
}

/// `--list`: experiments and benchmark workloads, one per line.
fn list() -> ! {
    println!("experiments:");
    for (id, _) in experiments::all() {
        println!("  {id}");
    }
    println!("  bench");
    println!("  trace");
    for suite in [BenchSuite::Quick, BenchSuite::Full] {
        println!("bench workloads ({}):", suite.label());
        for w in harness::workload_matrix(suite) {
            println!("  {}", w.id);
        }
    }
    std::process::exit(0);
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
    eprintln!(
        "usage: experiments <e01..e13 | scaling | rounds | compress | all>... \
         [--csv DIR] [--threads N] [--executor NAME|both]"
    );
    eprintln!(
        "       experiments bench [--quick | --full] [--out PATH] [--threads N] \
         [--executor NAME|both] [--graph FILE]"
    );
    eprintln!(
        "       experiments trace [--executor NAME] [--out PATH] [--threads N]   # Chrome trace"
    );
    eprintln!("       experiments --list");
}
