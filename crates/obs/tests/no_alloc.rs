//! The no-op recorder must add **zero allocations** on the hot path.
//!
//! The instrumentation sites sit inside `vap-exec` work loops and the
//! RAPL solver, which the campaign timings in `BENCH.json` run with
//! observability off (all but the `ledger_*/on` rows). This test pins
//! what makes that path cheap: with no live session, every entry point
//! returns after one relaxed atomic load, before any TLS access or
//! allocation.
//!
//! This file is its own integration-test binary on purpose: no other
//! test here ever installs a `Session`, so the disabled fast path is
//! what actually runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per-thread count: the libtest harness keeps its own threads alive
    // during the measured window, and their bookkeeping must not land in
    // our tally. Const-init so the first access never allocates.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may already be torn down when a thread exits.
        let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_hot_path_does_not_allocate() {
    assert!(!vap_obs::enabled(), "this test binary must never install a session");

    // Warm up whatever lazy state the first calls might initialize.
    vap_obs::incr("warmup");
    vap_obs::observe("warmup.h", 1.0);
    drop(vap_obs::span("warmup.span"));

    let before = THREAD_ALLOCATIONS.with(Cell::get);
    for i in 0..100_000u64 {
        vap_obs::incr("exec.cells");
        vap_obs::incr_by("scheme.plans", 6);
        vap_obs::observe("mpi.wait_s", i as f64);
        vap_obs::label_item(|| unreachable!("label closures must not run when disabled"));
        vap_obs::ledger_tick(|| unreachable!("ledger closures must not run when disabled"));
        vap_obs::decision(|| unreachable!("decision closures must not run when disabled"));
        let _span = vap_obs::span("cell");
    }
    let after = THREAD_ALLOCATIONS.with(Cell::get);

    assert_eq!(after - before, 0, "no-op recorder allocated {} times", after - before);
}
