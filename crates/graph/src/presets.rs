//! Named workload presets over the [`generators`](crate::generators):
//! each preset is a parameterized graph family scaled by a target vertex
//! count and average degree, so that benchmark matrices can sweep
//! families × sizes uniformly without re-deriving per-generator
//! parameters at every call site.
//!
//! Every preset is deterministic given its seed (inherited from the
//! underlying generator), and [`GraphPreset::family`] names are stable —
//! they appear verbatim in `BENCH_core.json` workload ids, so renaming
//! one is a schema-visible change.

use crate::builder::EdgeSink;
use crate::generators::{
    chung_lu, gnm, gnm_stream, gnm_stream_into, gnp, random_bipartite, rmat, RmatParams,
};
use crate::io::{peek_vertex_count, read_dimacs, read_edge_list, stream_edges_into};
use crate::outofcore::{ChunkedCsr, StreamingGraphBuilder};
use crate::{Graph, WeightedGraph};
use std::path::Path;

/// On-disk format of a [`GraphPreset::File`] workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFileFormat {
    /// DIMACS `edge`/`col` format (`p edge n m`, 1-based `e u v` lines,
    /// optional `n v w` vertex weights).
    Dimacs,
    /// Plain edge list (`n` on the first line, `u v` edges, optional
    /// `w v weight` lines).
    EdgeList,
}

/// A named, scaled graph family.
///
/// # Examples
///
/// Build one family in memory, or sweep the whole benchmark matrix:
///
/// ```
/// use mwvc_graph::GraphPreset;
///
/// let g = GraphPreset::Gnm { n: 256, avg_degree: 8 }.build(7);
/// assert_eq!(g.num_vertices(), 256);
/// assert_eq!(g.num_edges(), 256 * 8 / 2);
///
/// // The five standard families of the benchmark matrix, stably named.
/// let families: Vec<&str> = GraphPreset::standard_families(1024, 16)
///     .iter()
///     .map(|p| p.family())
///     .collect();
/// assert_eq!(families, ["gnp", "gnm", "chung_lu", "rmat", "bipartite"]);
/// ```
///
/// The streamable families can instead be built **out of core**, never
/// holding the edge set in RAM (see
/// [`build_streamed`](GraphPreset::build_streamed)):
///
/// ```
/// use mwvc_graph::GraphPreset;
///
/// let path = std::env::temp_dir().join("preset-doc-example.ocsr");
/// let preset = GraphPreset::GnmStream { n: 512, avg_degree: 8 };
/// let csr = preset
///     .build_streamed(7, 1 << 16, None, &path)
///     .expect("stream build");
/// assert_eq!(csr.num_vertices(), 512);
/// std::fs::remove_file(path).ok();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum GraphPreset {
    /// Erdős–Rényi `G(n, p)` with `p = avg_degree / (n-1)`.
    Gnp {
        /// Vertices.
        n: usize,
        /// Target average degree.
        avg_degree: f64,
    },
    /// Erdős–Rényi `G(n, m)` with exactly `n·avg_degree/2` edges.
    Gnm {
        /// Vertices.
        n: usize,
        /// Exact average degree (`n·avg_degree` must be even-friendly;
        /// the edge count is floored).
        avg_degree: usize,
    },
    /// `G(n, m)`-style family with `O(1)` sampling state
    /// ([`gnm_stream`]): `n·avg_degree/2` pair draws *with* replacement,
    /// deduplicated by the builder. The only generated family whose
    /// [`GraphPreset::build_streamed`] path never holds the edge set in
    /// RAM — the workload of the `huge` benchmark tier.
    GnmStream {
        /// Vertices.
        n: usize,
        /// Target average degree (realized degree is marginally lower
        /// from with-replacement collisions).
        avg_degree: usize,
    },
    /// Chung–Lu power law with exponent `beta` (degree skew `Δ ≫ d`).
    ChungLu {
        /// Vertices.
        n: usize,
        /// Power-law exponent.
        beta: f64,
        /// Target average degree.
        avg_degree: f64,
    },
    /// R-MAT (Graph500-style recursive skew); `n = 2^scale`.
    Rmat {
        /// `log2` of the vertex count.
        scale: u32,
        /// Edges per vertex.
        edge_factor: usize,
    },
    /// Random bipartite `G(n/2, n/2, p)` with `p` set for the target
    /// average degree.
    Bipartite {
        /// Total vertices (split evenly between the sides).
        n: usize,
        /// Target average degree.
        avg_degree: f64,
    },
    /// A real graph loaded from a file ([`crate::io`] loaders) — the entry
    /// point for running external instances through any executor and the
    /// bench harness. Deterministic trivially (the seed is ignored); file
    /// weights (DIMACS `n` lines / edge-list `w` lines) are surfaced by
    /// [`GraphPreset::load_weighted`].
    File {
        /// Path to the graph file.
        path: String,
        /// On-disk format.
        format: GraphFileFormat,
    },
}

impl GraphPreset {
    /// The five standard families at a given size tier, in stable order.
    /// This is the generator axis of the benchmark workload matrix.
    pub fn standard_families(n: usize, avg_degree: usize) -> Vec<GraphPreset> {
        let d = avg_degree as f64;
        vec![
            GraphPreset::Gnp { n, avg_degree: d },
            GraphPreset::Gnm { n, avg_degree },
            GraphPreset::ChungLu {
                n,
                beta: 2.3,
                avg_degree: d,
            },
            GraphPreset::Rmat {
                scale: (n.max(2) as f64).log2().round() as u32,
                edge_factor: avg_degree / 2,
            },
            GraphPreset::Bipartite { n, avg_degree: d },
        ]
    }

    /// Derives a [`GraphPreset::File`] from a path, inferring the format
    /// from the extension: `.col`/`.clq`/`.dimacs` → DIMACS,
    /// `.txt`/`.edges`/`.el` → edge list.
    pub fn from_path(path: &str) -> Result<GraphPreset, String> {
        let ext = path.rsplit('.').next().unwrap_or("").to_ascii_lowercase();
        let format = match ext.as_str() {
            "col" | "clq" | "dimacs" => GraphFileFormat::Dimacs,
            "txt" | "edges" | "el" => GraphFileFormat::EdgeList,
            other => {
                return Err(format!(
                    "cannot infer graph format from extension {other:?} \
                     (known: .col/.clq/.dimacs, .txt/.edges/.el)"
                ))
            }
        };
        Ok(GraphPreset::File {
            path: path.to_string(),
            format,
        })
    }

    /// Stable family name (appears in benchmark workload ids).
    pub fn family(&self) -> &'static str {
        match self {
            GraphPreset::Gnp { .. } => "gnp",
            GraphPreset::Gnm { .. } => "gnm",
            GraphPreset::GnmStream { .. } => "gnm_stream",
            GraphPreset::ChungLu { .. } => "chung_lu",
            GraphPreset::Rmat { .. } => "rmat",
            GraphPreset::Bipartite { .. } => "bipartite",
            GraphPreset::File { .. } => "file",
        }
    }

    /// Nominal vertex count of the preset (`2^scale` for R-MAT; `0` for
    /// [`GraphPreset::File`], whose size is unknown until loaded).
    pub fn nominal_n(&self) -> usize {
        match *self {
            GraphPreset::Gnp { n, .. }
            | GraphPreset::Gnm { n, .. }
            | GraphPreset::GnmStream { n, .. }
            | GraphPreset::ChungLu { n, .. }
            | GraphPreset::Bipartite { n, .. } => n,
            GraphPreset::Rmat { scale, .. } => 1usize << scale,
            GraphPreset::File { .. } => 0,
        }
    }

    /// Loads the weighted instance of a [`GraphPreset::File`] preset,
    /// honoring the weights stored in the file (vertices without explicit
    /// weights default to 1). Errors for every other preset — generated
    /// families carry no intrinsic weights; sample a
    /// [`crate::WeightModel`] over [`GraphPreset::build`] instead.
    pub fn load_weighted(&self) -> Result<WeightedGraph, String> {
        let GraphPreset::File { path, format } = self else {
            return Err(format!(
                "preset family {:?} is generated, not loaded from a file",
                self.family()
            ));
        };
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
        let parsed = match format {
            GraphFileFormat::Dimacs => read_dimacs(file),
            GraphFileFormat::EdgeList => read_edge_list(file),
        };
        parsed.map_err(|e| format!("cannot parse {path:?}: {e}"))
    }

    /// Builds the graph deterministically from `seed`. For
    /// [`GraphPreset::File`] the seed is ignored and the file's graph
    /// structure is returned (weights dropped — use
    /// [`GraphPreset::load_weighted`] to keep them); panics with the load
    /// error if the file is missing or malformed, matching the infallible
    /// signature of the generated families.
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            GraphPreset::Gnp { n, avg_degree } => {
                let p = if n > 1 {
                    (avg_degree / (n - 1) as f64).min(1.0)
                } else {
                    0.0
                };
                gnp(n, p, seed)
            }
            GraphPreset::Gnm { n, avg_degree } => gnm(n, n * avg_degree / 2, seed),
            GraphPreset::GnmStream { n, avg_degree } => {
                gnm_stream(n, (n * avg_degree / 2) as u64, seed)
            }
            GraphPreset::ChungLu {
                n,
                beta,
                avg_degree,
            } => chung_lu(n, beta, avg_degree, seed),
            GraphPreset::Rmat { scale, edge_factor } => {
                rmat(scale, edge_factor, RmatParams::default(), seed)
            }
            GraphPreset::Bipartite { n, avg_degree } => {
                let left = n / 2;
                let right = n - left;
                let p = if left > 0 && right > 0 {
                    (avg_degree * n as f64 / (2.0 * left as f64 * right as f64)).min(1.0)
                } else {
                    0.0
                };
                random_bipartite(left, right, p, seed)
            }
            GraphPreset::File { .. } => {
                self.load_weighted()
                    .unwrap_or_else(|e| panic!("file preset: {e}"))
                    .graph
            }
        }
    }

    /// Vertex count available *before* building: the nominal size for
    /// generated families, the file header for [`GraphPreset::File`]
    /// (read without parsing the body). This is what sizes the sink of
    /// the streaming path.
    pub fn streamed_num_vertices(&self) -> Result<usize, String> {
        match self {
            GraphPreset::File { path, format } => {
                let f =
                    std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
                peek_vertex_count(f, *format).map_err(|e| format!("cannot parse {path:?}: {e}"))
            }
            _ => Ok(self.nominal_n()),
        }
    }

    /// Emits the preset's edge sequence into `sink` (which must be sized
    /// for [`streamed_num_vertices`](Self::streamed_num_vertices)).
    ///
    /// Memory: `O(1)` beyond the sink for [`GraphPreset::GnmStream`] and
    /// [`GraphPreset::File`] (the genuinely streaming families). Every
    /// other generated family has `Θ(m)` sampling state by construction
    /// (sorted draw sets, stub shuffles, shared weight tables), so those
    /// fall back to an in-memory build replayed into the sink — correct
    /// and bit-identical, but not memory-bounded; use `GnmStream` for
    /// instances that must not fit in RAM.
    pub fn stream_edges(&self, seed: u64, sink: &mut impl EdgeSink) -> Result<(), String> {
        match self {
            GraphPreset::GnmStream { n, avg_degree } => {
                gnm_stream_into(*n, (n * avg_degree / 2) as u64, seed, sink);
                Ok(())
            }
            GraphPreset::File { path, format } => {
                let f =
                    std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
                stream_edges_into(f, *format, sink)
                    .map(|_| ())
                    .map_err(|e| format!("cannot parse {path:?}: {e}"))
            }
            _ => {
                let g = self.build(seed);
                for e in g.edges() {
                    sink.add_edge(e.u(), e.v());
                }
                Ok(())
            }
        }
    }

    /// Builds the preset through the out-of-core path: edges stream into
    /// a byte-budgeted [`StreamingGraphBuilder`] whose runs land in
    /// `scratch_dir` and whose bucketed result is written to `out_path`.
    /// The resulting file loads to the same graph as
    /// [`build`](Self::build) with the same seed.
    pub fn build_streamed(
        &self,
        seed: u64,
        byte_budget: usize,
        scratch_dir: Option<&Path>,
        out_path: &Path,
    ) -> Result<ChunkedCsr, String> {
        let n = self.streamed_num_vertices()?;
        let mut b = StreamingGraphBuilder::new(n, byte_budget, scratch_dir);
        self.stream_edges(seed, &mut b)?;
        b.finish(out_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_families_are_five_and_stably_named() {
        let fams = GraphPreset::standard_families(1024, 16);
        let names: Vec<&str> = fams.iter().map(|p| p.family()).collect();
        assert_eq!(names, ["gnp", "gnm", "chung_lu", "rmat", "bipartite"]);
        for p in &fams {
            assert_eq!(p.nominal_n(), 1024);
        }
    }

    #[test]
    fn presets_build_deterministically_near_target_degree() {
        for preset in GraphPreset::standard_families(1024, 16) {
            let a = preset.build(7);
            let b = preset.build(7);
            assert_eq!(a.num_edges(), b.num_edges(), "{}", preset.family());
            let d = 2.0 * a.num_edges() as f64 / a.num_vertices().max(1) as f64;
            assert!(
                d > 4.0 && d < 32.0,
                "{}: average degree {d} far from target 16",
                preset.family()
            );
        }
    }

    #[test]
    fn gnm_preset_hits_exact_edge_count() {
        let g = GraphPreset::Gnm {
            n: 500,
            avg_degree: 16,
        }
        .build(3);
        assert_eq!(g.num_edges(), 4000);
    }

    #[test]
    fn file_preset_roundtrips_through_both_loaders() {
        use crate::io::{write_dimacs, write_edge_list};
        use crate::{VertexWeights, WeightedGraph};
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let wg = WeightedGraph::new(g, VertexWeights::from_vec(vec![1.0, 2.5, 1.0, 4.0, 1.0]));
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let mut dimacs = Vec::new();
        write_dimacs(&wg, &mut dimacs).unwrap();
        let mut edges = Vec::new();
        write_edge_list(&wg, &mut edges).unwrap();
        for (name, buf) in [
            (format!("preset-{pid}.col"), dimacs),
            (format!("preset-{pid}.edges"), edges),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, &buf).unwrap();
            let preset = GraphPreset::from_path(path.to_str().unwrap()).unwrap();
            assert_eq!(preset.family(), "file");
            assert_eq!(preset.nominal_n(), 0, "size unknown before loading");
            // build() ignores the seed and returns the file's structure...
            let ga = preset.build(1);
            let gb = preset.build(2);
            assert_eq!(ga, wg.graph);
            assert_eq!(ga, gb);
            // ...while load_weighted keeps the stored weights.
            let loaded = preset.load_weighted().unwrap();
            assert_eq!(loaded.graph, wg.graph);
            assert_eq!(loaded.weights, wg.weights);
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn file_preset_error_paths_are_clear() {
        let err = GraphPreset::from_path("graph.xyz").unwrap_err();
        assert!(err.contains("extension"), "{err}");
        let missing = GraphPreset::File {
            path: "/nonexistent/definitely-missing.col".into(),
            format: GraphFileFormat::Dimacs,
        };
        let err = missing.load_weighted().unwrap_err();
        assert!(err.contains("cannot open"), "{err}");
        let generated = GraphPreset::Gnm {
            n: 10,
            avg_degree: 2,
        };
        let err = generated.load_weighted().unwrap_err();
        assert!(err.contains("generated"), "{err}");
    }

    #[test]
    fn streamed_presets_equal_in_memory_builds() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        // One genuinely streaming family, one fallback family, one file.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let file_path = dir.join(format!("preset-stream-{pid}.edges"));
        {
            use crate::io::write_edge_list;
            let mut buf = Vec::new();
            write_edge_list(&WeightedGraph::unweighted(g.clone()), &mut buf).unwrap();
            std::fs::write(&file_path, &buf).unwrap();
        }
        let presets = [
            GraphPreset::GnmStream {
                n: 300,
                avg_degree: 8,
            },
            GraphPreset::Gnm {
                n: 300,
                avg_degree: 8,
            },
            GraphPreset::from_path(file_path.to_str().unwrap()).unwrap(),
        ];
        for (i, preset) in presets.iter().enumerate() {
            let out = dir.join(format!("preset-stream-{pid}-{i}.ocsr"));
            let csr = preset.build_streamed(9, 4096, None, &out).unwrap();
            assert_eq!(
                csr.load_graph().unwrap(),
                preset.build(9),
                "{} diverged between build paths",
                preset.family()
            );
            let _ = std::fs::remove_file(out);
        }
        let _ = std::fs::remove_file(file_path);
    }

    #[test]
    fn gnm_stream_family_is_stably_named() {
        let p = GraphPreset::GnmStream {
            n: 64,
            avg_degree: 4,
        };
        assert_eq!(p.family(), "gnm_stream");
        assert_eq!(p.nominal_n(), 64);
        assert_eq!(p.streamed_num_vertices().unwrap(), 64);
        assert!(p.load_weighted().is_err());
    }

    #[test]
    fn rmat_nominal_n_is_power_of_scale() {
        let p = GraphPreset::Rmat {
            scale: 10,
            edge_factor: 8,
        };
        assert_eq!(p.nominal_n(), 1024);
        assert!(p.build(1).num_vertices() <= 1024);
    }
}
