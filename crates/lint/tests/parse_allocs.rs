//! `parse::parse_file` allocates per file, not per item: ten times the
//! functions cost only the doublings of the lists a parse keeps.
//!
//! The crate takes no dependency, so this binary counts allocations with
//! its own global allocator, and runs without the test harness
//! (`harness = false`) so that no other thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use vap_lint::{lexer, parse};

/// Counts every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A file of `n` functions with two typed parameters, a return type and
/// five calls each.
fn source(n: usize) -> String {
    (0..n)
        .map(|k| {
            format!(
                "pub fn f{k}(cap: Watts, n: usize) -> Option<f64> {{\n    \
                 let w = scale(cap, 1.5);\n    set_cap(Watts(w.0 * 0.5), n);\n    \
                 xs.iter().sum::<Option<f64>>()\n}}\n"
            )
        })
        .collect()
}

/// Allocations `parse_file` makes on a file of `n` such functions, and
/// the functions and calls it finds.
fn parse_allocs(n: usize) -> (usize, usize, usize) {
    let code = lexer::scrub(&source(n)).code;
    let before = ALLOCS.load(Ordering::Relaxed);
    let parsed = parse::parse_file(&code);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, parsed.fns.len(), parsed.calls.len())
}

fn main() {
    let (small, fns, calls) = parse_allocs(100);
    assert_eq!((fns, calls), (100, 500));
    let (large, fns, calls) = parse_allocs(1000);
    assert_eq!((fns, calls), (1000, 5000));
    println!("parse_file allocations: {small} for 100 fns, {large} for 1000 fns");
    assert!(large <= small + 32, "{large} allocations for 1000 fns, {small} for 100");
}
