//! The benchmark's workloads and how their instances are built.
//!
//! A workload is one instance family run by one executor. The two
//! in-memory executors share each in-memory instance (same seed, same
//! graph), so `mid-gnm.distributed` and `mid-gnm.roundcompress` compare
//! like with like. Every workload reports the same metric names, which
//! is why the executor is part of the workload name and not of the
//! metric names.

use crate::spans::Tracer;
use mwvc_graph::generators::gnm_stream_into;
use mwvc_graph::{
    ChunkedCsr, EdgeIndex, Graph, GraphPreset, StreamingGraphBuilder, WeightModel, WeightedGraph,
};
use std::path::Path;

/// Instance size: the measured scale, or a miniature for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Same shapes at a size that runs in well under a second.
    Mini,
}

/// How a workload's instance is made.
#[derive(Debug, Clone)]
pub enum InstanceSpec {
    /// Generated in memory, weighted, and edge-indexed.
    Generated {
        /// Instance family label; seeds derive from it, so workloads that
        /// share it share the instance.
        label: &'static str,
        /// Graph generator.
        preset: GraphPreset,
        /// Vertex weights.
        weights: WeightModel,
    },
    /// Streamed from a `G(n, m)` sampler through a byte-budgeted builder
    /// into an on-disk chunked CSR; the edge set is never in memory.
    Streamed {
        /// Instance family label.
        label: &'static str,
        /// Vertices.
        n: usize,
        /// Edge samples drawn (duplicates are merged by the builder).
        samples: u64,
        /// In-memory buffer of the streaming builder, in bytes.
        builder_bytes: usize,
        /// Vertex weights.
        weights: WeightModel,
    },
}

impl InstanceSpec {
    /// The instance family label.
    pub fn label(&self) -> &'static str {
        match self {
            InstanceSpec::Generated { label, .. } | InstanceSpec::Streamed { label, .. } => label,
        }
    }
}

/// Which executor solves the instance, and with what settings.
#[derive(Debug, Clone, Copy)]
pub enum SolverSpec {
    /// Algorithm 2 as message passing (`DistributedExecutor`), under
    /// `MpcMwvcConfig::paper_scaled` if set, else `practical`.
    Distributed {
        /// Use the profile whose phase loop repeats at this scale.
        paper_scaled: bool,
    },
    /// The round-compression executor, `practical` profile.
    RoundCompress,
    /// The out-of-core pricing executor under an enforced memory cap.
    OutOfCore {
        /// Machines `M`.
        machines: usize,
        /// Per-machine memory `S` as a multiple of `n`.
        memory_factor: usize,
        /// Words per spill replay batch.
        batch_words: usize,
        /// Pricing iteration cap.
        max_iterations: usize,
    },
}

impl SolverSpec {
    /// The executor's name as it appears in workload names.
    pub fn label(&self) -> &'static str {
        match self {
            SolverSpec::Distributed { .. } => "distributed",
            SolverSpec::RoundCompress => "roundcompress",
            SolverSpec::OutOfCore { .. } => "outofcore",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `<instance>.<executor>`, or the instance label alone when only one
    /// executor can run it.
    pub name: &'static str,
    /// The instance.
    pub instance: InstanceSpec,
    /// The executor.
    pub solver: SolverSpec,
    /// Accuracy parameter ε.
    pub epsilon: f64,
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const WORKLOAD_NAMES: [&str; 5] = [
    "mid-gnm.distributed",
    "mid-gnm.roundcompress",
    "powerlaw-phases.distributed",
    "powerlaw-phases.roundcompress",
    "outofcore-stream",
];

fn zipf() -> WeightModel {
    WeightModel::Zipf {
        exponent: 1.2,
        scale: 100.0,
    }
}

fn mid_gnm(scale: Scale) -> InstanceSpec {
    let n = match scale {
        Scale::Full => 100_000,
        Scale::Mini => 2_000,
    };
    InstanceSpec::Generated {
        label: "mid-gnm",
        preset: GraphPreset::Gnm { n, avg_degree: 32 },
        weights: zipf(),
    }
}

fn powerlaw(scale: Scale) -> InstanceSpec {
    let (n, avg_degree) = match scale {
        Scale::Full => (20_000, 160.0),
        Scale::Mini => (2_000, 60.0),
    };
    InstanceSpec::Generated {
        label: "powerlaw-phases",
        preset: GraphPreset::ChungLu {
            n,
            beta: 2.3,
            avg_degree,
        },
        weights: zipf(),
    }
}

fn stream(scale: Scale) -> InstanceSpec {
    // Average degree 32 in both scales, so each of the 4 shards exceeds
    // half of S = 16n and must spill.
    let (n, builder_bytes) = match scale {
        Scale::Full => (1_000_000, 64 << 20),
        Scale::Mini => (20_000, 1 << 20),
    };
    InstanceSpec::Streamed {
        label: "outofcore-stream",
        n,
        samples: 16 * n as u64,
        builder_bytes,
        weights: WeightModel::Uniform { lo: 1.0, hi: 10.0 },
    }
}

/// The workload called `name` at `scale`, or `None` for an unknown name.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let (instance, solver, epsilon) = match name {
        "mid-gnm.distributed" => (
            mid_gnm(scale),
            SolverSpec::Distributed {
                paper_scaled: false,
            },
            0.1,
        ),
        "mid-gnm.roundcompress" => (mid_gnm(scale), SolverSpec::RoundCompress, 0.1),
        "powerlaw-phases.distributed" => (
            powerlaw(scale),
            SolverSpec::Distributed { paper_scaled: true },
            0.03,
        ),
        "powerlaw-phases.roundcompress" => (powerlaw(scale), SolverSpec::RoundCompress, 0.03),
        "outofcore-stream" => (
            stream(scale),
            SolverSpec::OutOfCore {
                machines: 4,
                memory_factor: 16,
                batch_words: match scale {
                    Scale::Full => 1 << 16,
                    Scale::Mini => 1 << 12,
                },
                max_iterations: 300,
            },
            0.1,
        ),
        _ => return None,
    };
    let name = WORKLOAD_NAMES.into_iter().find(|&w| w == name)?;
    Some(Workload {
        name,
        instance,
        solver,
        epsilon,
    })
}

/// FNV-1a of a string.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A seed for one purpose (`salt`) derived from the workload seed, so
/// graph, weights and executor seeds are independent.
pub fn derive_seed(seed: u64, salt: &str) -> u64 {
    splitmix64(seed ^ fnv1a(salt))
}

/// The splitmix64 finalizer: a bijective 64-bit mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A built instance.
pub enum Instance {
    /// In memory, with its edge index.
    InMemory {
        /// The weighted graph.
        wg: WeightedGraph,
        /// Its edge index (the certificate's edge order).
        eidx: EdgeIndex,
    },
    /// On disk.
    OnDisk(DiskGraph),
}

impl Instance {
    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        match self {
            Instance::InMemory { wg, .. } => wg.num_vertices(),
            Instance::OnDisk(d) => d.csr.num_vertices(),
        }
    }

    /// Edge count.
    pub fn num_edges(&self) -> u64 {
        match self {
            Instance::InMemory { wg, .. } => wg.num_edges() as u64,
            Instance::OnDisk(d) => d.csr.num_edges(),
        }
    }
}

/// An on-disk instance; the file is removed when this is dropped.
pub struct DiskGraph {
    /// The chunked CSR file.
    pub csr: ChunkedCsr,
    /// One weight per vertex.
    pub weights: Vec<f64>,
}

impl Drop for DiskGraph {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.csr.path());
    }
}

/// Builds the instance of `spec` for workload seed `seed`, recording one
/// span per layer call. On-disk files go to `dir`; `tag` keeps the files
/// of repeated builds apart.
pub fn build_instance(
    spec: &InstanceSpec,
    seed: u64,
    dir: &Path,
    tag: usize,
    t: &mut Tracer,
) -> Result<Instance, String> {
    let graph_seed = derive_seed(seed, &format!("{}/graph", spec.label()));
    let weight_seed = derive_seed(seed, &format!("{}/weights", spec.label()));
    match spec {
        InstanceSpec::Generated {
            preset, weights, ..
        } => {
            let (g, _, _) = t.time("graph.generate", |_| preset.build(graph_seed));
            let (w, _, _) = t.time("graph.weights", |_| weights.sample(&g, weight_seed));
            let wg = WeightedGraph::new(g, w);
            let (eidx, _, _) = t.time("graph.edge_index", |_| EdgeIndex::build(&wg.graph));
            Ok(Instance::InMemory { wg, eidx })
        }
        InstanceSpec::Streamed {
            label,
            n,
            samples,
            builder_bytes,
            weights,
        } => {
            let path = dir.join(format!("{label}-{tag}.ocsr"));
            let (csr, span, _) = t.time("graph.stream_build", |_| {
                let mut builder = StreamingGraphBuilder::new(*n, *builder_bytes, Some(dir));
                gnm_stream_into(*n, *samples, graph_seed, &mut builder);
                builder.finish(&path)
            });
            let csr = csr?;
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            t.attr(span, "bytes", bytes as f64);
            // The weight models only read the vertex count of the graph
            // they are given.
            let shell = Graph::from_edges(*n, &[]);
            let (w, _, _) = t.time("graph.weights", |_| weights.sample(&shell, weight_seed));
            Ok(Instance::OnDisk(DiskGraph {
                csr,
                weights: w.as_slice().to_vec(),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_unknown_names_do_not() {
        for name in WORKLOAD_NAMES {
            for scale in [Scale::Full, Scale::Mini] {
                let w = workload(name, scale).expect("listed workload");
                assert_eq!(w.name, name);
                assert!(name.starts_with(w.instance.label()));
            }
        }
        assert!(workload("mid-gnm", Scale::Full).is_none());
    }

    #[test]
    fn seeds_differ_by_purpose_and_by_seed() {
        assert_ne!(derive_seed(1, "a/graph"), derive_seed(1, "a/weights"));
        assert_ne!(derive_seed(1, "a/graph"), derive_seed(2, "a/graph"));
        assert_eq!(derive_seed(7, "x"), derive_seed(7, "x"));
    }
}
