//! Host-memory audit of the out-of-core pipeline: streaming a generated
//! instance to an on-disk CSR and running out-of-core pricing on it under
//! an enforced budget must never hold the edge set in RAM.
//!
//! This lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]` — something exactly one crate per
//! process may do. The simulator's word-level accounting already bounds
//! *model* memory; this test closes the loop on *host* memory by running
//! `gnm_stream_into`, `StreamingGraphBuilder` and `run_outofcore` at a
//! scale where the edge set is megabytes, and asserting that peak net
//! heap growth stays strictly below the on-disk edge bytes.

use mpc_sim::{MemoryBudget, MpcConfig};
use mwvc_core::mpc::{run_outofcore, OocConfig};
use mwvc_graph::generators::gnm_stream_into;
use mwvc_graph::{Graph, StreamingGraphBuilder, WeightModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapped with live/peak byte counters. `realloc` and
/// `alloc_zeroed` use the `GlobalAlloc` defaults, which route through
/// `alloc`/`dealloc` and therefore stay counted.
struct CountingAlloc;

// SAFETY: every call forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects on atomics and
// never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` is valid; forwarded
        // unchanged to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Sized so the on-disk instance is megabytes while the enforced
/// per-machine budget (and hence any honest host footprint) is far
/// smaller: ~586k built edges ≈ 9.4 MB of half-edge words on disk
/// against S = 14·n = 70_000 words per machine.
#[test]
fn streamed_outofcore_run_never_holds_the_edge_set_in_host_memory() {
    let (n, samples, machines, seed) = (5_000, 600_000, 3, 7);
    let path = std::env::temp_dir().join(format!("ooc-memory-{}.ocsr", std::process::id()));
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut builder = StreamingGraphBuilder::new(n, 1 << 20, None);
    gnm_stream_into(n, samples, seed, &mut builder);
    let csr = builder.finish(&path).expect("stream-build the instance");
    // Uniform weights depend on the vertex count alone.
    let weights = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&Graph::empty(n), seed);
    let cfg = OocConfig {
        epsilon: 0.1,
        max_iterations: 40,
        batch_words: 512,
    };
    let cluster = MpcConfig::new(machines, 14 * n).with_budget(MemoryBudget::Enforced);
    let out = run_outofcore(&csr, weights.as_slice(), &cfg, cluster);
    std::fs::remove_file(&path).ok();
    let out = out.expect("out-of-core run");
    let peak_growth = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    // 2 half-edge words of 8 bytes per built edge — the payload an
    // in-memory executor would have to hold.
    let edge_bytes = 2 * 8 * csr.num_edges() as usize;
    assert!(
        edge_bytes > 4 << 20,
        "instance too small ({edge_bytes} edge bytes) for the audit to mean anything"
    );
    let summary = out.trace.summary();
    assert!(
        summary.spill_words > 0,
        "the run must actually exercise the spill path"
    );
    assert_eq!(summary.violations, 0);
    assert!(
        peak_growth < edge_bytes,
        "peak heap growth {peak_growth} B reached the edge-set size {edge_bytes} B — \
         the pipeline is no longer out-of-core"
    );
}
