//! A traced statement allocates nothing in steady state: once its thread
//! and the profile ring have seen statements of the same shape, tracing
//! one (a trace, three spans, six counters) and recording it into the ring
//! neither allocates nor frees on the recording thread.
//!
//! A counting global allocator tallies allocations and frees per thread,
//! so other test threads cannot disturb the count.

use masksearch_obs::{add_counter, set_counter, span, trace, ProfileRing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        bump(&FREES);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

const STATEMENTS: [&str; 3] = [
    "SELECT mask_id FROM masks WHERE mask_id = 17",
    "SELECT mask_id FROM masks WHERE image_id = 4 AND model_id = 2",
    "SELECT mask_id FROM masks WHERE CP(mask, object, (0.8, 1.0)) > 100 LIMIT 5",
];

/// One statement: a trace, three spans, six counters, recorded.
fn statement(ring: &ProfileRing, i: u64) {
    let t = trace("query");
    {
        let _resolve = span("resolve");
        add_counter("candidates", i + 1);
    }
    {
        let _filter = span("filter");
        add_counter("candidates", 10);
        add_counter("pruned", 7);
        set_counter("verified", 3);
        let _verify = span("verify");
        add_counter("loaded", 2);
    }
    set_counter("rows", i);
    let text = STATEMENTS[(i % 3) as usize];
    t.finish(|records| ring.record(text, i, records))
        .expect("owned trace");
}

#[test]
fn a_traced_statement_allocates_and_frees_nothing_in_steady_state() {
    let ring = ProfileRing::new(16);
    // Warm: the thread's trace buffers and every ring slot.
    for i in 0..64 {
        statement(&ring, i);
    }
    let before = counts();
    for i in 0..1_000 {
        statement(&ring, i);
    }
    let after = counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "allocations and frees over 1,000 traced statements"
    );
    // The ring still holds what was recorded.
    assert_eq!(ring.recorded(), 1_064);
    let newest = &ring.recent(1)[0];
    assert_eq!(newest.statement, STATEMENTS[999 % 3]);
    assert_eq!(newest.root.counter("rows"), Some(999));
    assert_eq!(
        newest.root.find("verify").and_then(|v| v.counter("loaded")),
        Some(2)
    );
}
