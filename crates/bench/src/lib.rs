//! `mwvc-bench` — the experiment harness of the reproduction.
//!
//! The paper is a theory contribution with no empirical section, so the
//! "tables and figures" this crate regenerates are the paper's
//! quantitative *claims*, one experiment per theorem/lemma
//! (`experiments --list` is the index). Run them all with:
//!
//! ```text
//! cargo run --release -p mwvc-bench --bin experiments -- all
//! ```
//!
//! or a single one with e.g. `-- e01`. Each experiment prints an aligned
//! text table (and can emit CSV) whose shape mirrors the claim being
//! tested.
//!
//! Besides the per-claim experiments, this crate hosts the repo's
//! canonical perf instrument: `experiments bench` drives the workload
//! matrix of [`harness`] through the audited distributed executor and
//! writes a schema-versioned `BENCH_core.json` ([`schema`]). Every byte
//! of that report is a function of the code and the workload, so the CI
//! `perf-gate` job gates it with `diff -u -F '"id"'` against
//! `benchmarks/baseline.json`.

pub mod experiments;
pub mod harness;
pub mod json;
pub mod schema;
pub mod table;
pub mod tracefmt;
pub mod workloads;

pub use table::Table;
