//! Host-memory audit of the streaming builder: a build that spills
//! several runs must hold one byte budget of half-edges, not two.
//!
//! This lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]` — something exactly one crate per
//! process may do — and it holds a single test, so no concurrently
//! running test can move the counters.

use mwvc_graph::outofcore::DEFAULT_BUCKET_ENTRIES;
use mwvc_graph::StreamingGraphBuilder;
use rayon::prelude::*;
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

/// Keys a run slice samples at most (one per 1/1024 of its length, plus
/// the first).
const SAMPLES_PER_SLICE: usize = 1025;

#[test]
fn multi_run_build_holds_one_byte_budget() {
    let budget = 4 << 20;
    let n = 100_000u64;
    // Start the pool before the baseline, so its threads' setup is not
    // counted against the builder.
    (0..rayon::current_num_threads())
        .into_par_iter()
        .for_each(|_| ());
    let out = std::env::temp_dir().join(format!("builder-memory-{}.ocsr", std::process::id()));

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut b = StreamingGraphBuilder::new(n as usize, budget, None);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (u, v) = ((x % n) as u32, ((x >> 32) % n) as u32);
        if u != v {
            b.add_edge(u, v);
        }
    }
    let pushed = b.half_edges_pushed() as usize;
    let csr = b.finish(&out).expect("streamed build");
    let peak_growth = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    let _ = std::fs::remove_file(&out);

    let runs = pushed.div_ceil(budget / 8);
    assert!(runs >= 4, "only {runs} runs: the merge is not exercised");
    assert!(csr.num_half_edges() > (3 * budget / 8) as u64);
    let slices = runs * rayon::current_num_threads();
    let samples = slices * SAMPLES_PER_SLICE * 8;
    let bucket = DEFAULT_BUCKET_ENTRIES as usize * 8;
    // Run list, window plan, bucket index and the reopened file's index.
    let bookkeeping = 64 << 10;
    let bound = budget + bucket + samples + bookkeeping;
    assert!(
        peak_growth <= bound,
        "peak heap growth {peak_growth} B exceeds the budget {budget} B + one bucket \
         {bucket} B + samples {samples} B + bookkeeping {bookkeeping} B = {bound} B"
    );
}
