//! Zero-realloc capacity regression guard (`harness = false` so the
//! counting allocator sees only this binary's work, not the libtest
//! harness bookkeeping).
//!
//! The fleet constructor preallocates every column exactly: `Cluster`
//! builds one flat column per module field from exact-size iterators and
//! `vec![..; n]`. A single `realloc` on this path means a capacity hint
//! regressed — at 1M modules that's the difference between one clean
//! allocation per column and O(log n) copies of hundreds of megabytes.

use vap_bench::CountingAllocator;
use vap_model::systems::SystemSpec;
use vap_model::thermal::RackGradient;
use vap_sim::cluster::Cluster;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() {
    // 100k modules at reference temperature: flat columns, zero reallocs.
    ALLOC.start();
    let cluster = Cluster::with_size(SystemSpec::ha8k(), 100_000, 2015);
    let counts = ALLOC.stop();
    assert_eq!(cluster.len(), 100_000);
    assert_eq!(
        counts.reallocs, 0,
        "Cluster::with_size(100k) reallocated {} times — a column lost its capacity hint",
        counts.reallocs
    );
    assert!(counts.allocs > 0, "counting window saw no allocations at all");
    println!("alloc_regression: Cluster::with_size(100k): {} allocs, 0 reallocs", counts.allocs);

    // The rack-gradient path builds its thermal column through a map over
    // the module index: still exact-size, still zero reallocs.
    let gradient = RackGradient { cold_c: 20.0, hot_c: 40.0 };
    ALLOC.start();
    let cluster = Cluster::with_thermal(SystemSpec::ha8k(), 10_000, 2015, Some(gradient));
    let counts = ALLOC.stop();
    assert_eq!(cluster.len(), 10_000);
    assert_eq!(
        counts.reallocs, 0,
        "Cluster::with_thermal(10k, gradient) reallocated {} times",
        counts.reallocs
    );
    println!(
        "alloc_regression: Cluster::with_thermal(10k, gradient): {} allocs, 0 reallocs",
        counts.allocs
    );

    println!("alloc_regression: ok");
}
