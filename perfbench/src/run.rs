//! One measured run of one workload: set up, solve repeatedly, check
//! every output, and reduce the samples to the declared metrics.

use crate::metrics::{Metric, END_TO_END, PER_LAYER, ROUND_LABELS};
use crate::spans::{median, Span, SpanId, Tracer};
use crate::workload::{
    build_instance, derive_seed, splitmix64, DiskGraph, Instance, SolverSpec, Workload,
};
use mpc_sim::{MemoryBudget, MpcConfig, RoundScheduler};
use mwvc_baselines::bar_yehuda_even;
use mwvc_core::mpc::{
    run_outofcore, DistributedExecutor, Executor, ExecutorOutcome, MpcMwvcConfig, OocConfig,
    OocOutcome,
};
use mwvc_core::VertexCover;
use mwvc_roundcompress::{RoundCompressConfig, RoundCompressExecutor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest instance builds per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Builds continue until they have taken this long, so that quick
/// builds are sampled as often as slow ones need.
const SETUP_SECONDS: f64 = 2.0;
/// Most instance builds per run.
const MAX_SETUPS: usize = 20;
/// Timed solves to make even when `seconds` runs out first.
const MIN_SOLVES: usize = 3;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Seconds of timed solves (after set-up and the warm-up solves).
    pub seconds: f64,
    /// Traced run: record spans and report the per-layer metrics.
    pub trace: bool,
    /// Scratch directory for on-disk instances.
    pub dir: PathBuf,
    /// Directory the span file of a traced run is written to.
    pub out_dir: PathBuf,
}

/// A deliberate defect applied to every solver output before it is
/// checked; the self-tests use it to show that the checks fire.
pub type Tamper = fn(&mut Output, &Instance);

/// What one run yields.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Solves attempted, warm-up and traced-only solves included.
    pub attempted: usize,
    /// Solves that panicked, erred, failed a check, or differed from the
    /// run's first solve.
    pub failed: usize,
    /// One line per failure, naming workload and executor.
    pub failures: Vec<String>,
    /// The end-to-end metrics, or the per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Where the spans were written (traced runs only).
    pub span_file: Option<PathBuf>,
}

/// One solver output.
pub enum Output {
    /// From an in-memory executor.
    Mem(ExecutorOutcome),
    /// From the out-of-core executor.
    Disk(OocOutcome),
}

impl Output {
    /// The vertex cover.
    pub fn cover_mut(&mut self) -> &mut VertexCover {
        match self {
            Output::Mem(o) => &mut o.solution.cover,
            Output::Disk(o) => &mut o.cover,
        }
    }

    /// Order-sensitive hash of the cover and every dual value, bit-exact.
    fn fingerprint(&self) -> u64 {
        let (cover, duals) = match self {
            Output::Mem(o) => (&o.solution.cover, &o.solution.certificate.x),
            Output::Disk(o) => (&o.cover, &o.loads),
        };
        let mut h = 0x05ca_1ab1_e0dd_ba11_u64;
        let mut mix = |v: u64| h = splitmix64(h.rotate_left(23) ^ v);
        cover.vertices().iter().for_each(|&v| mix(v as u64));
        mix(u64::MAX);
        duals.iter().for_each(|x| mix(x.to_bits()));
        h
    }
}

/// Removes a cover vertex that is the only covered endpoint of some
/// edge, so the result is no longer a cover: the seeded defect of the
/// self-tests.
pub fn drop_one_cover_vertex(out: &mut Output, inst: &Instance) {
    let cover = out.cover_mut();
    let half_covered = |&(u, v): &(u32, u32)| cover.contains(u) != cover.contains(v);
    let edge = match inst {
        Instance::InMemory { eidx, .. } => eidx
            .edges()
            .iter()
            .map(|e| (e.u(), e.v()))
            .find(half_covered),
        Instance::OnDisk(d) => {
            let mut found = None;
            if let Ok(mut stream) = d.csr.stream() {
                while let (None, Ok(Some(bucket))) = (found, stream.next_bucket()) {
                    found = bucket.iter().copied().find(half_covered);
                }
            }
            found
        }
    };
    if let Some((u, v)) = edge {
        let drop = if cover.contains(u) { u } else { v };
        let rest = cover
            .vertices()
            .iter()
            .copied()
            .filter(|&x| x != drop)
            .collect();
        *cover = VertexCover::new(inst.num_vertices(), rest);
    }
}

/// Quality of a checked output.
#[derive(Debug, Clone, Copy)]
struct Quality {
    cover_weight: f64,
    certified_ratio: f64,
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: returns free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns freed heap pages to the kernel, then resets the kernel's
/// peak-RSS mark of this process to its current RSS. Without the trim,
/// pages freed by the set-up builds but kept by the allocator would
/// count towards the solve's peak in a varying amount.
fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and only releases pages
    // the allocator holds free; glibc allows calling it at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak RSS since the last reset, in MiB (0 where `/proc` is missing).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Executes the workload's solver once on the current rayon pool.
fn solve(
    w: &Workload,
    inst: &Instance,
    algo_seed: u64,
    scheduler: RoundScheduler,
) -> Result<Output, String> {
    match (&w.solver, inst) {
        (SolverSpec::Distributed { paper_scaled }, Instance::InMemory { wg, .. }) => {
            let profile = if *paper_scaled {
                MpcMwvcConfig::paper_scaled
            } else {
                MpcMwvcConfig::practical
            };
            let exec =
                DistributedExecutor::new(profile(w.epsilon, algo_seed).with_scheduler(scheduler));
            Ok(Output::Mem(exec.run(wg)))
        }
        (SolverSpec::RoundCompress, Instance::InMemory { wg, .. }) => {
            let exec = RoundCompressExecutor::new(
                RoundCompressConfig::practical(w.epsilon, algo_seed).with_scheduler(scheduler),
            );
            Ok(Output::Mem(exec.run(wg)))
        }
        (
            SolverSpec::OutOfCore {
                machines,
                memory_factor,
                batch_words,
                max_iterations,
            },
            Instance::OnDisk(d),
        ) => {
            let cfg = OocConfig {
                epsilon: w.epsilon,
                max_iterations: *max_iterations,
                batch_words: *batch_words,
            };
            let cluster = MpcConfig::new(*machines, memory_factor * d.csr.num_vertices())
                .with_budget(MemoryBudget::Enforced);
            run_outofcore(&d.csr, &d.weights, &cfg, cluster).map(Output::Disk)
        }
        _ => Err("solver and instance kinds do not match".into()),
    }
}

/// Checks that every half-edge of the on-disk graph has an endpoint in
/// `cover`.
fn check_disk_cover(d: &DiskGraph, cover: &VertexCover) -> Result<(), String> {
    let mut stream = d.csr.stream()?;
    while let Some(bucket) = stream.next_bucket()? {
        if let Some(&(u, v)) = bucket
            .iter()
            .find(|&&(u, v)| !cover.contains(u) && !cover.contains(v))
        {
            return Err(format!("uncovered edge ({u}, {v})"));
        }
    }
    Ok(())
}

/// The full correctness check of one output.
fn check(out: &Output, inst: &Instance, w: &Workload) -> Result<Quality, String> {
    let q = match (out, inst) {
        (Output::Mem(o), Instance::InMemory { wg, eidx }) => {
            o.solution.verify(wg, eidx)?;
            Quality {
                cover_weight: o.solution.weight(wg),
                certified_ratio: o.solution.certified_ratio(wg, eidx),
            }
        }
        (Output::Disk(o), Instance::OnDisk(d)) => {
            check_disk_cover(d, &o.cover)?;
            let summary = o.trace.summary();
            let SolverSpec::OutOfCore { memory_factor, .. } = w.solver else {
                return Err("out-of-core output from another solver".into());
            };
            let cap = memory_factor * d.csr.num_vertices();
            if o.forced != 0 {
                return Err(format!(
                    "{} vertices force-frozen at the iteration cap",
                    o.forced
                ));
            }
            if summary.spill_words == 0 {
                return Err("nothing spilled: the enforced cap was never exercised".into());
            }
            if summary.peak_resident_words > cap {
                return Err(format!(
                    "peak resident {} words exceeds S = {cap}",
                    summary.peak_resident_words
                ));
            }
            if o.dual_lower_bound <= 0.0 {
                return Err("dual lower bound is not positive".into());
            }
            let cover_weight = o.cover_weight(&d.weights);
            Quality {
                cover_weight,
                certified_ratio: cover_weight / o.dual_lower_bound,
            }
        }
        _ => return Err("output and instance kinds do not match".into()),
    };
    if !(q.certified_ratio.is_finite() && q.certified_ratio >= 1.0 - 1e-9) {
        return Err(format!("certified ratio {} is not >= 1", q.certified_ratio));
    }
    Ok(q)
}

/// Bar-Yehuda–Even cover weight, in memory or by one pass over the file.
fn bye_weight(inst: &Instance) -> Result<f64, String> {
    match inst {
        Instance::InMemory { wg, .. } => Ok(bar_yehuda_even(wg).cover.weight(wg)),
        Instance::OnDisk(d) => {
            let mut residual = d.weights.clone();
            let mut stream = d.csr.stream()?;
            while let Some(bucket) = stream.next_bucket()? {
                for &(u, v) in bucket.iter().filter(|(u, v)| u < v) {
                    let (u, v) = (u as usize, v as usize);
                    if residual[u] > 0.0 && residual[v] > 0.0 {
                        let delta = residual[u].min(residual[v]);
                        residual[u] -= delta;
                        residual[v] -= delta;
                    }
                }
            }
            Ok(residual
                .iter()
                .zip(&d.weights)
                .filter(|(r, _)| **r <= 0.0)
                .map(|(_, w)| w)
                .sum())
        }
    }
}

/// Numbers read from one output, attached to its `executor.run` span.
fn record_outcome(t: &mut Tracer, span: SpanId, out: &Output, inst: &Instance, w: &Workload) {
    match out {
        Output::Mem(o) => {
            let rounds_s: f64 = o.round_wall.iter().sum();
            t.attr(span, "rounds_s", rounds_s);
            let by_label = |keep: &dyn Fn(&str) -> bool| -> f64 {
                o.trace
                    .rounds
                    .iter()
                    .zip(&o.round_wall)
                    .filter(|(r, _)| keep(&r.label))
                    .map(|(_, s)| s)
                    .sum()
            };
            for label in ROUND_LABELS {
                t.attr(span, format!("round.{label}_s"), by_label(&|l| l == label));
            }
            let other = by_label(&|l| !ROUND_LABELS.contains(&l));
            t.attr(span, "round.other_s", other);
            t.attr(
                span,
                "compute_s",
                o.host_phases.iter().map(|p| p.compute_s).sum(),
            );
            t.attr(
                span,
                "route_s",
                o.host_phases.iter().map(|p| p.route_s).sum(),
            );
            t.attr(
                span,
                "spill_s",
                o.host_phases.iter().map(|p| p.spill_s).sum(),
            );
            t.attr(span, "phases", o.cost.phases as f64);
            t.attr(span, "mpc_rounds", o.cost.mpc_rounds as f64);
            if let Some(tr) = o.cost.traffic {
                t.attr(span, "msg_words", tr.total_message_words as f64);
                t.attr(span, "peak_round_words", tr.peak_round_words as f64);
                t.attr(span, "machines", tr.machines as f64);
                t.attr(span, "spill_words", tr.spill_words as f64);
                t.attr(span, "peak_resident_words", tr.peak_resident_words as f64);
                t.attr(span, "memory_cap_words", tr.memory_cap_words as f64);
            }
        }
        Output::Disk(o) => {
            let s = o.trace.summary();
            let (machines, cap) = match w.solver {
                SolverSpec::OutOfCore {
                    machines,
                    memory_factor,
                    ..
                } => (machines, memory_factor * inst.num_vertices()),
                _ => (0, 0),
            };
            t.attr(span, "phases", o.iterations as f64);
            t.attr(span, "mpc_rounds", s.rounds as f64);
            t.attr(span, "msg_words", s.total_message_words as f64);
            t.attr(span, "peak_round_words", s.peak_round_words as f64);
            t.attr(span, "machines", machines as f64);
            t.attr(span, "spill_words", s.spill_words as f64);
            t.attr(span, "peak_resident_words", s.peak_resident_words as f64);
            t.attr(span, "memory_cap_words", cap as f64);
            t.attr(span, "forced", o.forced as f64);
        }
    }
}

/// Solve accounting shared by every solve of a run.
struct Book<'a> {
    w: &'a Workload,
    tamper: Option<Tamper>,
    attempted: usize,
    failures: Vec<String>,
    reference: Option<u64>,
    ratios: Vec<f64>,
    cover_weights: Vec<f64>,
}

impl Book<'_> {
    /// One solve: run it under `span_name` (traced when `t` records),
    /// check it, and book the result. Returns its wall seconds, or `None`
    /// when it failed.
    fn attempt(
        &mut self,
        t: &mut Tracer,
        span_name: &'static str,
        inst: &Instance,
        algo_seed: u64,
        scheduler: RoundScheduler,
        what: &str,
    ) -> Option<f64> {
        self.attempted += 1;
        let w = self.w;
        let (res, span, secs) = t.time(span_name, |_| {
            catch_unwind(AssertUnwindSafe(|| solve(w, inst, algo_seed, scheduler)))
        });
        let result = match res {
            Err(_) => Err("panicked".to_string()),
            Ok(Err(e)) => Err(e),
            Ok(Ok(mut out)) => {
                record_outcome(t, span, &out, inst, w);
                if let Some(tamper) = self.tamper {
                    tamper(&mut out, inst);
                }
                let (checked, _, _) = t.time("certificate.verify", |_| check(&out, inst, w));
                checked.and_then(|q| {
                    let fp = out.fingerprint();
                    match *self.reference.get_or_insert(fp) == fp {
                        true => Ok(q),
                        false => Err("output differs from the run's first solve".to_string()),
                    }
                })
            }
        };
        match result {
            Ok(q) => {
                self.ratios.push(q.certified_ratio);
                self.cover_weights.push(q.cover_weight);
                Some(secs)
            }
            Err(e) => {
                self.failures
                    .push(format!("{} [{}] {what}: {e}", w.name, w.solver.label()));
                None
            }
        }
    }
}

/// Runs one workload: repeated instance builds, one warm-up solve,
/// then timed solves for `cfg.seconds`. A traced run alternates untraced
/// and traced solves, then adds one solve on a 1-thread pool and, for the
/// in-memory executors, one under the pipelined scheduler.
pub fn run(w: &Workload, cfg: &RunConfig, tamper: Option<Tamper>) -> Result<RunReport, String> {
    let mut t = Tracer::new(cfg.trace);
    let mut quiet = Tracer::new(false);

    let mut setup_s: Vec<f64> = Vec::new();
    let mut inst = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let tag = setup_s.len();
        drop(inst.take()); // free the previous build (and its file) first
        let (built, _, secs) = t.time("graph.setup", |t| {
            build_instance(&w.instance, cfg.seed, &cfg.dir, tag, t)
        });
        inst = Some(built?);
        setup_s.push(secs);
    }
    let inst = inst.expect("at least one setup");

    let algo_seed = derive_seed(cfg.seed, &format!("{}/executor", w.name));
    let barrier = RoundScheduler::Barrier;
    let mut book = Book {
        w,
        tamper,
        attempted: 0,
        failures: Vec::new(),
        reference: None,
        ratios: Vec::new(),
        cover_weights: Vec::new(),
    };

    // The first solve of a process runs slow (cold allocator and page
    // cache); it is checked but not timed. Its peak RSS is the one
    // reported: on a trimmed heap it is what a single solve needs, and
    // trimming before every timed solve would add page-fault time to
    // `solve_s`.
    reset_peak_rss();
    book.attempt(
        &mut quiet,
        "executor.run",
        &inst,
        algo_seed,
        barrier,
        "warm-up solve",
    );
    let rss_mb = peak_rss_mb();

    // The second solve of a process still runs a little slow. A traced
    // run spends it on a second warm-up, so that `trace.overhead`
    // compares like with like.
    if cfg.trace {
        book.attempt(
            &mut quiet,
            "executor.run",
            &inst,
            algo_seed,
            barrier,
            "second warm-up solve",
        );
    }

    // Traced solves are timed through their spans; `untraced` holds the
    // rest.
    let start = Instant::now();
    let mut untraced: Vec<f64> = Vec::new();
    let mut k = 0usize;
    while k < MIN_SOLVES || start.elapsed().as_secs_f64() < cfg.seconds {
        let is_traced = cfg.trace && k % 2 == 1;
        let tracer = if is_traced { &mut t } else { &mut quiet };
        let what = format!("solve {k}");
        let secs = book.attempt(tracer, "executor.run", &inst, algo_seed, barrier, &what);
        if let (false, Some(secs)) = (is_traced, secs) {
            untraced.push(secs);
        }
        k += 1;
    }

    let mut single_thread_s = 0.0;
    let mut pipelined_s = 0.0;
    if cfg.trace {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .map_err(|e| format!("1-thread pool: {e:?}"))?;
        if let Some(secs) = pool.install(|| {
            book.attempt(
                &mut t,
                "pool.single_thread.run",
                &inst,
                algo_seed,
                barrier,
                "1-thread pool solve",
            )
        }) {
            single_thread_s = secs;
        }
        if matches!(inst, Instance::InMemory { .. }) {
            let pipelined = RoundScheduler::Pipelined;
            if let Some(secs) = book.attempt(
                &mut t,
                "mpc.pipelined.run",
                &inst,
                algo_seed,
                pipelined,
                "pipelined solve",
            ) {
                pipelined_s = secs;
            }
        }
    }

    let failed = book.failures.len();
    let (metrics, span_file) = if cfg.trace {
        let (bye, _, _) = t.time("baselines.bar_yehuda_even", |_| bye_weight(&inst));
        let per_layer = per_layer_metrics(
            &t,
            &inst,
            &Extras {
                untraced_s: untraced,
                single_thread_s,
                pipelined_s,
                certified_ratio: median(&book.ratios),
                cover_vs_bye: median(&book.cover_weights) / bye?,
            },
        );
        let path = cfg
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", w.name, cfg.seed));
        t.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        (per_layer, Some(path))
    } else {
        let values = [median(&setup_s), median(&untraced), rss_mb];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| Metric { def, value })
            .collect();
        (metrics, None)
    };
    Ok(RunReport {
        attempted: book.attempted,
        failed,
        failures: book.failures,
        metrics,
        span_file,
    })
}

/// What a traced run measured outside the spans of its traced solves.
struct Extras {
    untraced_s: Vec<f64>,
    single_thread_s: f64,
    pipelined_s: f64,
    certified_ratio: f64,
    cover_vs_bye: f64,
}

/// Derives every per-layer metric from the recorded spans. The executor
/// and mpc breakdowns come from the traced solve of median duration, so
/// `executor.rounds_s + executor.outside_rounds_s` is exactly that
/// solve's wall time.
fn per_layer_metrics(t: &Tracer, inst: &Instance, extras: &Extras) -> Vec<Metric> {
    let med = |name: &str| median(&t.named(name).map(Span::duration_s).collect::<Vec<_>>());
    let mut solves: Vec<&Span> = t.named("executor.run").collect();
    solves.sort_by(|a, b| a.duration_s().total_cmp(&b.duration_s()));
    let mid = solves.get(solves.len().saturating_sub(1) / 2).copied();
    let attr = |key: &str| mid.map_or(0.0, |s| s.attr(key));
    let traced_s = median(&solves.iter().map(|s| s.duration_s()).collect::<Vec<_>>());
    let rounds_s = attr("rounds_s");
    let in_memory = matches!(inst, Instance::InMemory { .. });
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.name {
                "graph.generate_s" => med("graph.generate"),
                "graph.weights_s" => med("graph.weights"),
                "graph.edge_index_s" => med("graph.edge_index"),
                "graph.stream_build_s" => med("graph.stream_build"),
                "graph.ocsr_bytes" => t
                    .named("graph.stream_build")
                    .last()
                    .map_or(0.0, |s| s.attr("bytes")),
                "graph.edges" => inst.num_edges() as f64,
                "baselines.bye_s" => med("baselines.bar_yehuda_even"),
                "executor.rounds_s" => rounds_s,
                "executor.outside_rounds_s" if in_memory => {
                    mid.map_or(0.0, |s| s.duration_s()) - rounds_s
                }
                "executor.outside_rounds_s" => 0.0,
                "mpc.route_words_per_s" => ratio(attr("msg_words"), attr("route_s")),
                "mpc.pipelined_solve_s" => extras.pipelined_s,
                "pool.speedup" => ratio(extras.single_thread_s, traced_s),
                "executor.certified_ratio" => extras.certified_ratio,
                "executor.cover_vs_bye" => extras.cover_vs_bye,
                "certificate.verify_s" => med("certificate.verify"),
                "trace.overhead" => ratio(traced_s, median(&extras.untraced_s)),
                name => {
                    let key = name
                        .strip_prefix("executor.")
                        .or_else(|| name.strip_prefix("mpc."))
                        .unwrap_or(name);
                    attr(key)
                }
            };
            Metric { def, value }
        })
        .collect()
}

/// A fresh, empty scratch directory under `root` for this process.
pub fn scratch_dir(root: &Path) -> Result<PathBuf, String> {
    let dir = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
