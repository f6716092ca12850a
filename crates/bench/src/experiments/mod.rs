//! Experiment drivers, one per quantitative claim of the paper
//! (`experiments --list` is the index; each driver's result is the table
//! it prints, which `--csv DIR` also writes), plus the
//! executor-comparison experiments `rounds` (trajectories) and `compress`
//! (head-to-head).

mod compress;
mod coupled;
mod model;
mod quality;
mod rounds;
mod scaling;

pub use compress::compress;
pub use coupled::{e06_deviations, e07_bad_vertices, e12_threshold_ablation, e13_bias_ablation};
pub use model::{e04_machine_memory, e05_edge_shrink, e11_model_audit};
pub use quality::{e03_approx_ratio, e08_algorithm_comparison, e10_weight_robustness};
pub use rounds::{
    e01_rounds_vs_degree, e02_centralized_iterations, e09_init_comparison, rounds_trajectory,
};
pub use scaling::scaling;

use crate::harness::ExecutorKind;
use crate::Table;

/// Options threaded from the `experiments` CLI into the drivers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpOptions {
    /// Restricts executor-aware experiments (`rounds`) to one executor;
    /// `None` (the default) covers all of them.
    pub executor: Option<ExecutorKind>,
}

impl ExpOptions {
    /// The executors an executor-aware experiment should cover.
    pub fn executors(&self) -> Vec<ExecutorKind> {
        match self.executor {
            Some(k) => vec![k],
            None => ExecutorKind::all().to_vec(),
        }
    }
}

/// An experiment driver: produces one or more tables under the options.
pub type Driver = fn(&ExpOptions) -> Vec<Table>;

/// All experiments by id.
pub fn all() -> Vec<(&'static str, Driver)> {
    vec![
        ("e01", e01_rounds_vs_degree as Driver),
        ("e02", e02_centralized_iterations),
        ("e03", e03_approx_ratio),
        ("e04", e04_machine_memory),
        ("e05", e05_edge_shrink),
        ("e06", e06_deviations),
        ("e07", e07_bad_vertices),
        ("e08", e08_algorithm_comparison),
        ("e09", e09_init_comparison),
        ("e10", e10_weight_robustness),
        ("e11", e11_model_audit),
        ("e12", e12_threshold_ablation),
        ("e13", e13_bias_ablation),
        ("scaling", scaling),
        ("rounds", rounds_trajectory),
        ("compress", compress),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let ids: Vec<&str> = super::all().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 16);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        assert_eq!(ids[0], "e01");
        assert_eq!(ids[12], "e13");
        assert_eq!(ids[13], "scaling");
        assert_eq!(ids[14], "rounds");
        assert_eq!(ids[15], "compress");
    }

    #[test]
    fn executor_selection_defaults_to_all() {
        assert_eq!(ExpOptions::default().executors(), ExecutorKind::all());
        let only = ExpOptions {
            executor: Some(ExecutorKind::RoundCompress),
        };
        assert_eq!(only.executors(), vec![ExecutorKind::RoundCompress]);
    }
}
