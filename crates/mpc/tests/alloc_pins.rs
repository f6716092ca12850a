//! The counting-allocator pins of the zero-allocation message fabric:
//! once warmed up at the peak message shape, steady-state rounds perform
//! **zero** heap allocations, and a cluster returns every heap block it
//! allocated.
//!
//! The allocator below counts every allocation in the process, so a test
//! running concurrently on another thread would show up in a pin's
//! window. This binary is therefore `harness = false`: `main` runs the
//! pins one after another, with nothing else in the process.
//!
//! ```text
//! cargo test -p mpc-sim --test alloc_pins
//! ```

use mpc_sim::pipeline::pipelined_route_step;
use mpc_sim::router::{route_forced, stage_outboxes};
use mpc_sim::{Cluster, FlatInboxes, MpcConfig, Outbox, ReadinessBoard, RouteScratch, Words};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

mod common;
use common::{build_pairs, SenderPlan};

/// Global allocator that counts allocations and deallocations. A
/// `realloc` logically frees the old block and allocates a new one, so
/// it bumps both counters — `ALLOCS - DEALLOCS` is therefore the number
/// of live heap blocks.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System` with unchanged arguments;
// the counter updates do not allocate, so the impl upholds the
// `GlobalAlloc` contract exactly as `System` does.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn deallocations() -> usize {
    DEALLOCS.load(Ordering::Relaxed)
}

fn main() {
    warm_up_pool();
    let pins: [(&str, fn()); 3] = [
        (
            "steady_state_rounds_allocate_nothing",
            steady_state_rounds_allocate_nothing,
        ),
        (
            "pipelined_steady_state_rounds_allocate_nothing",
            pipelined_steady_state_rounds_allocate_nothing,
        ),
        (
            "partial_inbox_drains_drop_every_message_exactly_once",
            partial_inbox_drains_drop_every_message_exactly_once,
        ),
    ];
    println!("\nrunning {} tests", pins.len());
    for (name, pin) in pins {
        pin();
        println!("test {name} ... ok");
    }
    println!("\ntest result: ok. {} passed\n", pins.len());
}

/// Makes every pool worker run one job before any window opens: a
/// worker's first job allocates per-thread runtime state (its name, for
/// one), which would otherwise land inside whichever window the worker
/// first helps in. Each task waits on a barrier sized to the pool, so no
/// thread can take a second task and every worker gets exactly one.
fn warm_up_pool() {
    let threads = rayon::current_num_threads();
    let barrier = Barrier::new(threads);
    rayon::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| {
                barrier.wait();
            });
        }
    });
}

/// Pushes `pairs` into the (drained, capacity-retaining) outboxes.
fn refill(outboxes: &mut [Outbox<u64>], pairs: &[Vec<(usize, u64)>]) {
    for (ob, list) in outboxes.iter_mut().zip(pairs) {
        for &(to, msg) in list {
            ob.push(to, msg);
        }
    }
}

/// The bare fabric performs exactly zero heap allocations per
/// steady-state round (sequential path; the parallel path is pinned by
/// pointer identity in `fabric_properties.rs`, since the host pool's
/// scheduling is outside the fabric) — including draining the event
/// rings, which carry each machine's region shape.
fn steady_state_rounds_allocate_nothing() {
    let m = 8;
    let config = MpcConfig::new(m, usize::MAX / 4);
    let plans: Vec<SenderPlan> = (0..m).map(|i| (180 + 11 * i, 40, (i + 3) % m)).collect();
    let pairs = build_pairs(m, &plans);

    let mut outboxes = stage_outboxes(m, pairs.clone());
    let mut inboxes = FlatInboxes::new(m);
    let mut scratch = RouteScratch::new();
    let mut events = Vec::new();

    // Warm-up: grows every buffer to the peak shape, draining the rings
    // like the cluster's bookkeeping step does every round.
    for round in 0..2 {
        if round > 0 {
            inboxes.clear();
            refill(&mut outboxes, &pairs);
        }
        route_forced(
            &config,
            round,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            false,
        );
        scratch.drain_events_into(&mut events, round as u32);
    }
    let steady = 2..6;
    events.clear();
    events.reserve(2 * m * steady.len());

    // Steady state: >= 3 consecutive rounds, zero allocations.
    for round in steady.clone() {
        inboxes.clear();
        refill(&mut outboxes, &pairs);
        let before = allocations();
        route_forced(
            &config,
            round,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            false,
        );
        scratch.drain_events_into(&mut events, round as u32);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "round {round} allocated on the steady-state fabric path"
        );
    }
    // RegionMsgs + RegionWords per machine per round, really measured.
    assert_eq!(events.len(), 2 * m * steady.len());
    assert!(events.iter().any(|e| e.value > 0));
}

/// The sequential pipelined step performs exactly zero heap allocations
/// per steady-state round — the same pin, extended to the pipelined path
/// (the parallel engine is pinned by buffer identity in
/// `pipeline_properties.rs`).
fn pipelined_steady_state_rounds_allocate_nothing() {
    let m = 8;
    let config = MpcConfig::new(m, usize::MAX / 4).pipelined();
    let plans: Vec<SenderPlan> = (0..m).map(|i| (180 + 11 * i, 40, (i + 3) % m)).collect();
    let pairs = build_pairs(m, &plans);
    let expected: usize = pairs.iter().map(Vec::len).sum();

    let mut outboxes = stage_outboxes(m, pairs.clone());
    let mut inboxes = FlatInboxes::new(m);
    let mut scratch = RouteScratch::new();
    let mut board = ReadinessBoard::new(m);

    // Warm-up: grows every buffer to the peak shape.
    for round in 0..2 {
        pipelined_route_step(
            &config,
            round,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            &mut board,
            |_, inbox| {
                for msg in inbox {
                    std::hint::black_box(msg);
                }
            },
        );
        refill(&mut outboxes, &pairs);
    }

    // Steady state: >= 3 consecutive rounds, zero allocations, every
    // message still delivered exactly once.
    for round in 2..6 {
        let mut routed = 0usize;
        let before = allocations();
        pipelined_route_step(
            &config,
            round,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            &mut board,
            |_, inbox| {
                for msg in inbox {
                    std::hint::black_box(msg);
                    routed += 1;
                }
            },
        );
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "round {round} allocated on the steady-state pipelined path"
        );
        assert_eq!(
            routed, expected,
            "round {round} lost or duplicated messages"
        );
        refill(&mut outboxes, &pairs);
    }
}

/// Heap-owning message for the drop-discipline pin: counts
/// constructions and drops, and owns a `Box` so a double-drop would also
/// corrupt the allocator rather than just a counter.
struct Tracked(Box<u64>);

static CREATED: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicUsize = AtomicUsize::new(0);

impl Tracked {
    fn new(v: u64) -> Self {
        CREATED.fetch_add(1, Ordering::Relaxed);
        Tracked(Box::new(v))
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        // Read through the box first, so a double-drop dereferences the
        // freed payload instead of only over-counting.
        std::hint::black_box(*self.0);
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

impl Words for Tracked {
    fn words(&self) -> usize {
        1
    }
}

/// Runs `rounds` cluster rounds of `Tracked` traffic in which machines
/// drop their inbox view at varying points — fully drained, untouched,
/// and mid-iteration — then drops the cluster with the final round's
/// deliveries still pending in the flat buffer.
///
/// Exercises all three ownership-discharge paths: messages moved out by
/// iteration (dropped by the consumer), the unread tail dropped by
/// `Inbox::drop`, and pending deliveries dropped by `FlatInboxes::drop`.
fn run_tracked_scenario(m: usize, rounds: usize, per_dest: usize) {
    struct Sum(u64);
    impl Words for Sum {
        fn words(&self) -> usize {
            1
        }
    }

    let mut cluster: Cluster<Sum, Tracked> = Cluster::new(MpcConfig::new(m, 1 << 20), |_| Sum(0));
    for r in 0..rounds {
        cluster.round("churn", move |ctx, state, mut inbox| {
            // Vary the drain point by machine and round so every drop
            // path occurs: full drain, immediate drop, mid-iteration drop.
            let take = match (ctx.id + r) % 3 {
                0 => inbox.len(),
                1 => 0,
                _ => inbox.len() / 2,
            };
            for _ in 0..take {
                let msg = inbox.next().expect("inbox shorter than its len()");
                state.0 += *msg.0;
            }
            // `inbox` is dropped here; any unread tail must be dropped by
            // the view, exactly once.
            let next = (ctx.id + 1) % ctx.num_machines();
            ctx.reserve_sends(per_dest);
            for k in 0..per_dest {
                ctx.send(next, Tracked::new(k as u64));
            }
        });
    }
    drop(cluster);
}

/// Dropping an inbox view mid-iteration — across buffer-recycling rounds
/// and with deliveries still pending at cluster teardown — neither leaks
/// nor double-drops a message, at both the `Drop`-counter and the
/// allocator level.
fn partial_inbox_drains_drop_every_message_exactly_once() {
    let m = 4;
    let per_dest = 7;

    // Warm-up pass: forces lazily initialized global state (trace
    // buffers, the pool's queues) so the allocator-balance check below
    // observes a closed scope.
    run_tracked_scenario(m, 2, per_dest);
    let created0 = CREATED.load(Ordering::Relaxed);
    let dropped0 = DROPPED.load(Ordering::Relaxed);
    assert_eq!(created0, dropped0, "warm-up pass leaked or double-dropped");

    let rounds = 5;
    let allocs_before = allocations();
    let deallocs_before = deallocations();
    run_tracked_scenario(m, rounds, per_dest);
    let allocs_delta = allocations() - allocs_before;
    let deallocs_delta = deallocations() - deallocs_before;

    let created = CREATED.load(Ordering::Relaxed) - created0;
    let dropped = DROPPED.load(Ordering::Relaxed) - dropped0;
    assert_eq!(
        created,
        rounds * m * per_dest,
        "every send constructs exactly one message"
    );
    assert_eq!(
        created, dropped,
        "messages dropped exactly once (fewer = leak, more = double-drop)"
    );
    assert_eq!(
        allocs_delta, deallocs_delta,
        "the scenario must return every heap block it allocated"
    );
}
