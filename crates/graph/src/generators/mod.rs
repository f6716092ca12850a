//! Random and structured graph generators used as experiment workloads.
//!
//! Every generator is deterministic given its seed and produces a simple
//! undirected [`Graph`](crate::Graph). The families cover the regimes the
//! paper's analysis distinguishes:
//!
//! * `gnp` / `gnm` — Erdős–Rényi, the concentrated-degree regime where
//!   `Δ ≈ d`,
//! * `chung_lu` / `rmat` — skewed power-law degrees where `Δ ≫ d`
//!   (separates the `O(log log d)` bound from `O(log log Δ)`),
//! * `random_regular` — exactly uniform degrees,
//! * `star_composite` — extreme hub skew with a tunable `Δ/d` ratio,
//! * `grid` / `tree` / `star` / `clique` / `barbell` / `disjoint_cliques`
//!   / `random_bipartite` — structured instances with known covers,
//! * `planted_cover` — instances whose optimal weighted cover is known by
//!   construction, for ratio measurements without an exact solver,
//! * `gnm_stream_into` — an `O(1)`-state Erdős–Rényi variant that feeds
//!   any [`EdgeSink`](crate::EdgeSink), including the out-of-core build
//!   path ([`crate::outofcore`]), without holding the edge set in RAM.

mod classic;
mod planted;
mod random;
mod stream;

pub use classic::{
    barbell, clique, disjoint_cliques, grid, low_arboricity, path, star, star_composite, tree,
};
pub use planted::{planted_cover, PlantedInstance};
pub use random::{chung_lu, gnm, gnp, random_bipartite, random_regular, rmat, RmatParams};
pub use stream::gnm_stream_into;
