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
//! experiments bench --tier huge     # out-of-core 1e8-edge tier (HUGE_* env shrinks it)
//! experiments trace                 # Perfetto timeline -> TRACE.json
//! experiments trace --out T.json    # choose the output path
//! experiments chaos --quick         # seeded fault-injection sweep (CI chaos gate)
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
    tier: Option<String>,
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
            "--tier" => {
                i += 1;
                let name = args.get(i).unwrap_or_else(|| usage("--tier needs a name"));
                if name != "huge" {
                    usage(&format!(
                        "unknown tier {name:?}; the only out-of-matrix tier is \"huge\" \
                         (--quick/--full select the in-matrix tiers)"
                    ));
                }
                opt.tier = Some(name.clone());
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
    if opt.ids.iter().any(|id| id == "chaos") {
        run_chaos(&opt);
        return;
    }
    run_tables(&opt);
}

/// `experiments chaos`: the deterministic fault-injection sweep — both
/// flagship executors under the seeded fault matrix of
/// [`mwvc_bench::chaos`], asserting gated-output
/// bit-identity against the fault-free baseline and typed errors for
/// unrecoverable plans. Exit 0 when the contract holds, 1 on any
/// violation (the CI chaos job also runs the suite under
/// `CHAOS_MUTATE=skip-retry` / `skip-replay` and requires *that*
/// exit to be nonzero).
fn run_chaos(opt: &Options) {
    if opt.ids.len() != 1 {
        usage("'chaos' cannot be combined with other experiments");
    }
    if opt.full || opt.tier.is_some() || opt.graph.is_some() {
        usage("--full/--tier/--graph do not apply to 'chaos'");
    }
    if opt.executor_set || opt.out.is_some() {
        usage("'chaos' always sweeps every executor; --executor/--out do not apply");
    }
    if let Some(name) = std::env::var_os("CHAOS_MUTATE") {
        eprintln!("[chaos] CHAOS_MUTATE={name:?}: the sweep is expected to FAIL");
    }
    let start = Instant::now();
    eprintln!("[chaos] running the seeded fault matrix...");
    let report = mwvc_bench::chaos::run_chaos(opt.quick);
    emit_tables("chaos", &[report.table], &opt.csv_dir);
    eprintln!(
        "[chaos] {} faulted runs, {} failure(s) in {:.1}s",
        report.runs,
        report.failures.len(),
        start.elapsed().as_secs_f64()
    );
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("[chaos] FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// `experiments trace`: run one skewed quick workload and export its
/// per-machine round rows as a Chrome Trace Event Format timeline (load
/// the file in Perfetto / `chrome://tracing`).
fn run_trace(opt: &Options) {
    if opt.ids.len() != 1 {
        usage("'trace' cannot be combined with other experiments");
    }
    if opt.quick || opt.full || opt.tier.is_some() || opt.graph.is_some() {
        usage("--quick/--full/--tier/--graph do not apply to 'trace'");
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
    if opt.tier.is_some() {
        run_bench_huge(opt);
        return;
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

/// `experiments bench --tier huge`: the flag-gated out-of-core tier (see
/// `mwvc_bench::huge`). CI runs it on every PR at the miniature scale its
/// `HUGE_*` overrides select; the 10⁸-edge default runs only by hand. It
/// ignores no flags silently — the matrix-only ones are rejected.
fn run_bench_huge(opt: &Options) {
    if opt.quick || opt.full || opt.graph.is_some() || opt.executor_set {
        usage(
            "--tier huge runs a fixed out-of-core workload; it cannot be combined with \
               --quick/--full/--graph/--executor",
        );
    }
    let params = mwvc_bench::huge::HugeParams::from_env().unwrap_or_else(|e| usage(&e));
    let out_path = opt.out.clone().unwrap_or_else(|| "BENCH_huge.json".into());
    let start = Instant::now();
    let (report, table) = mwvc_bench::huge::run_huge(&params).unwrap_or_else(|e| {
        eprintln!("error: huge tier failed: {e}");
        std::process::exit(2);
    });
    emit_tables("bench-huge", &[table], &opt.csv_dir);
    write_or_exit(&out_path, report.to_json());
    eprintln!(
        "[bench] wrote {out_path} (huge tier) in {:.1}s",
        start.elapsed().as_secs_f64()
    );
}

/// Classic experiment tables (`e01`..`e13`, `scaling`, `rounds`,
/// `compress`, `all`).
fn run_tables(opt: &Options) {
    if opt.quick || opt.full || opt.out.is_some() || opt.tier.is_some() || opt.graph.is_some() {
        usage("--quick/--full/--out/--tier/--graph apply to the 'bench' subcommand only");
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
                "unknown experiment {id:?}; known: {known:?}, 'all', 'bench', 'trace', or 'chaos'"
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
    println!("  chaos");
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
        "       experiments bench --tier huge [--out PATH]   # out-of-core 1e8-edge run \
         (HUGE_* env overrides shrink it)"
    );
    eprintln!(
        "       experiments trace [--executor NAME] [--out PATH] [--threads N]   # Chrome trace"
    );
    eprintln!(
        "       experiments chaos [--quick] [--csv DIR] [--threads N]   # seeded \
         fault-injection sweep"
    );
    eprintln!("       experiments --list");
}
