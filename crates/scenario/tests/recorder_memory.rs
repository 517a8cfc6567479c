//! Recorder memory must not grow with the number of requests served.
//!
//! The repo benchmark's `serve_open` shape — two resilient nodes under
//! TriadLike AEX behind batching front-ends, open-loop load — is run to a
//! 40 s horizon at 1 000 and at 4 000 requests per second under a
//! byte-counting global allocator, and the heap still live at the horizon
//! is compared. Everything the ~99 000 extra answered requests leave
//! behind must fit in [`BUDGET_BYTES`]: per-request serving counters are
//! `trace::RateCounter`s (one cell per simulated second), the latency
//! histogram is fixed-size, and queues and dedup windows are bounded by
//! what is in flight, not by what has passed. Measured: 13 KB more at
//! 4 000/s (56 KB vs 69 KB live).
//!
//! With push-per-event `StepCounter`s in those fields the same comparison
//! read 3.9 MB (1.9 MB vs 5.8 MB live): an 8-byte instant per request in
//! each of `offered`, `served_ok` and `frontend_served`, plus one per
//! batch in `frontend_batches`, in doubling `Vec`s.
//!
//! The allocator is this file's own, so the test is the file's only test:
//! nothing else may allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use scenario::{AexSpec, NodeImplSpec, ScenarioSpec};
use service::{OpenLoopSpec, ServiceSpec};
use sim::SimTime;

/// Live heap allowed to differ between the two rates.
const BUDGET_BYTES: isize = 64 * 1024;

/// Bytes allocated and not yet freed. A statistic: `Relaxed` suffices.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap the run still holds at its horizon, and the requests it answered.
fn live_heap_at_horizon(rate_per_s: f64) -> (isize, u64) {
    let horizon = SimTime::from_secs(40);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut sim = ScenarioSpec::new(2)
        .horizon(horizon)
        .node_impl(NodeImplSpec::Resilient(Box::default()))
        .all_nodes_aex(AexSpec::TriadLike)
        .service(ServiceSpec::new().open_loop(OpenLoopSpec { rate_per_s }))
        .build(7);
    sim.run_until(horizon);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    (held, sim.world().recorder.service.goodput())
}

#[test]
fn live_heap_at_the_horizon_does_not_follow_the_request_rate() {
    let (heap_1k, answered_1k) = live_heap_at_horizon(1_000.0);
    let (heap_4k, answered_4k) = live_heap_at_horizon(4_000.0);
    assert!(
        answered_4k > 3 * answered_1k && answered_1k > 20_000,
        "the rates must differ in work done: {answered_1k} vs {answered_4k} answered"
    );
    let growth = heap_4k - heap_1k;
    assert!(
        growth.abs() < BUDGET_BYTES,
        "{} more answered requests left {growth} more live heap bytes \
         ({heap_1k} at 1 000/s, {heap_4k} at 4 000/s); budget {BUDGET_BYTES}",
        answered_4k - answered_1k
    );
}
