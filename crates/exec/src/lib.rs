//! Deterministic parallel execution for fleet sweeps and campaign grids.
//!
//! The paper's experiments are embarrassingly parallel twice over: the
//! once-per-system PVT sweep visits every module independently (§5), and
//! the evaluation campaign walks independent workload × Cm × scheme cells
//! (§6). This crate fans that work over OS threads while keeping one hard
//! promise: **the result is a pure function of the inputs, never of the
//! thread count or scheduling order**.
//!
//! The contract that makes this work:
//!
//! 1. every work item receives an *index* and derives all randomness from
//!    a per-item seed ([`module_seed`]) or from cell-local state cloned
//!    from a pristine template — never from shared mutable state;
//! 2. results land in pre-allocated per-index slots and are reduced in
//!    index order, so the output vector is identical whether one thread
//!    or sixteen executed the items.
//!
//! `threads = 1` short-circuits to a plain serial loop over the *same*
//! closure, so serial and parallel runs share one code path and are
//! bit-for-bit identical by construction — the property the workspace
//! `determinism` lint promises and the contract test in the workspace's
//! `tests/golden_digests.rs` checks on every experiment's outputs.
//!
//! # Observability
//!
//! When a `vap_obs` session is live on the calling thread, every fan-out
//! registers a grid and brackets each item with
//! [`vap_obs::recorder::SessionRef::run_item`]: metrics recorded inside the item
//! accumulate into its `(grid, index)` cell, and the item's wall time
//! lands on the worker's timeline lane. The serial short-circuit runs
//! through the identical bracket (on lane 0), so the deterministic
//! journal is byte-identical at any thread count. With no session the
//! only cost is one relaxed atomic load per fan-out.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available, with a serial fallback when the
/// platform cannot say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolve a user-facing thread request: `None` means "use the hardware",
/// `Some(0)` is treated as `Some(1)` (serial), anything else is taken
/// as-is.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        None => available_parallelism(),
        Some(n) => n.max(1),
    }
}

/// Map `f` over `items` on up to `threads` OS threads, returning results
/// in item order. `kind` (`"cell"`, `"module"`) is the label under which
/// the fan-out's grid and cells appear in a `vap_obs` journal.
///
/// `f(i, &items[i])` must be a pure function of its arguments (plus any
/// captured *shared immutable* state). Items are claimed from an atomic
/// counter, so thread scheduling decides only *who* computes an item,
/// never *what* is computed or *where* the result lands. With
/// `threads <= 1` the items run serially through the identical closure.
fn par_map_kind<I, T, F>(items: &[I], threads: usize, kind: &'static str, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    // Capture the driver thread's session (if any) before fanning out;
    // worker threads have no session of their own.
    let obs = vap_obs::grid_session().map(|s| {
        let grid = s.begin_grid(kind, items.len());
        (s, grid)
    });

    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| match &obs {
                Some((s, grid)) => s.run_item(*grid, kind, i, 0, || f(i, item)),
                None => f(i, item),
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    // Mutex<Option<T>> rather than OnceLock<T>: sharing &OnceLock<T>
    // across workers demands T: Sync, while a Mutex slot only needs
    // T: Send. Each index is claimed exactly once, so every lock is
    // uncontended.
    let slots: Vec<Mutex<Option<T>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (next, slots, f, obs) = (&next, &slots, &f, &obs);
            scope.spawn(move || {
                let lane = (w + 1) as u32;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = match obs {
                        Some((s, grid)) => s.run_item(*grid, kind, i, lane, || f(i, &items[i])),
                        None => f(i, &items[i]),
                    };
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(out);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let slot = slot.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
            // vap:allow(no-panic-in-lib): every index in [0, len) is claimed
            // exactly once by the atomic counter, no worker holds a lock
            // across a panic, and a worker panic would already have
            // propagated out of the scope above.
            slot.expect("every work item produced a result")
        })
        .collect()
}

/// Fan `f` over the cells of a campaign grid (workload × Cm × scheme, or
/// any other enumeration of independent experiment cells), collecting
/// results in deterministic cell order.
///
/// Each cell must build its own state — typically by cloning a pristine
/// template fleet — from the same `(seed, cell)` derivation the serial
/// code uses, so a 1-thread and an N-thread run are bit-for-bit
/// identical.
pub fn par_grid<C, T, F>(cells: &[C], threads: usize, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    par_map_kind(cells, threads, "cell", |_, cell| f(cell))
}

/// Derive a per-module seed from a campaign seed and a module index:
/// the first SplitMix64 output at `seed ⊕ (id · φ64)`, so streams are
/// statistically independent per module and stable across thread counts
/// and platforms. Defined with the RNG in [`vap_model::rng`].
pub use vap_model::rng::module_seed;

/// Fan a read-only closure over `n` module indices with per-module
/// seeds, reducing in module-index order.
///
/// This is the shape of the once-per-system PVT sweep: each module is
/// measured independently (the paper runs them "simultaneously on all
/// modules", §5), and the table is assembled in module order. The closure
/// receives `(module_index, module_seed)` and typically reads a captured
/// `&Cluster`; the fan-out registers a `"module"` grid of length `n`. The
/// work items are zero-sized (`n` is the only input), so the fan-out
/// itself allocates nothing per module beyond the result slots.
pub fn par_map_fleet<T, F>(n: usize, seed: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let units = vec![(); n];
    par_map_kind(&units, threads, "module", |i, ()| f(i, module_seed(seed, i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = par_map_kind(&items, 4, "item", |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..97).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let items: Vec<u64> = (0..64).collect();
        let f = |_: usize, &x: &u64| module_seed(x, 17) as f64 / u64::MAX as f64;
        let serial = par_map_kind(&items, 1, "item", f);
        for threads in [2, 3, 8, 64] {
            let parallel = par_map_kind(&items, threads, "item", f);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_kind(&empty, 8, "item", |_, &x| x).is_empty());
        assert_eq!(par_map_kind(&[5u32], 8, "item", |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn par_grid_matches_serial_enumeration() {
        let cells: Vec<(usize, usize)> = (0..6).flat_map(|w| (0..7).map(move |c| (w, c))).collect();
        let serial = par_grid(&cells, 1, |&(w, c)| w * 100 + c);
        let parallel = par_grid(&cells, 5, |&(w, c)| w * 100 + c);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], 0);
        assert_eq!(serial[41], 506);
    }

    #[test]
    fn module_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..1000).map(|i| module_seed(42, i)).collect();
        let unique: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len(), "per-module seeds must not collide");
        // stable across calls (and, by construction, across platforms)
        assert_eq!(module_seed(42, 7), module_seed(42, 7));
        assert_ne!(module_seed(42, 7), module_seed(43, 7));
        // pinned values of the historical inline finalizer
        assert_eq!(module_seed(42, 0), 0xbdd7_3226_2feb_6e95);
        assert_eq!(module_seed(42, 7), 0xcbbd_05c7_de73_a889);
        assert_eq!(module_seed(0xdead, 1000), 0x054e_01a5_bd2d_b401);
    }

    #[test]
    fn par_map_fleet_is_thread_count_invariant_and_journals_a_module_grid() {
        let sweep = |threads: usize| {
            let session = vap_obs::Session::install();
            let out = par_map_fleet(32, 5, threads, |i, seed| {
                vap_obs::incr("test.sweep");
                (i, seed)
            });
            (out, session.finish().journal_jsonl)
        };
        let (serial, journal) = sweep(1);
        assert_eq!(serial.len(), 32);
        for (i, &item) in serial.iter().enumerate() {
            assert_eq!(item, (i, module_seed(5, i)), "index order, per-module seeds");
        }
        for threads in [2, 4, 64] {
            assert_eq!(sweep(threads), (serial.clone(), journal.clone()), "threads = {threads}");
        }
        assert!(journal.contains("\"kind\":\"module\""));
        assert!(journal.contains("\"test.sweep\":32"));
    }

    #[test]
    fn resolve_threads_contract() {
        assert_eq!(resolve_threads(Some(1)), 1);
        assert_eq!(resolve_threads(Some(0)), 1, "0 means serial, not 'no threads'");
        assert_eq!(resolve_threads(Some(6)), 6);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn observed_fanouts_record_cells_per_item() {
        let session = vap_obs::Session::install();
        let items: Vec<u32> = (0..5).collect();
        let out = par_map_kind(&items, 3, "item", |_, &x| {
            vap_obs::incr("test.work");
            x * 2
        });
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        let report = session.finish();
        assert!(report.journal_jsonl.contains("\"exec.items\":5"));
        assert!(report.journal_jsonl.contains("\"test.work\":5"));
    }

    #[test]
    fn observed_journal_is_thread_count_invariant() {
        let journal = |threads: usize| {
            let session = vap_obs::Session::install();
            let items: Vec<u64> = (0..40).collect();
            let _ = par_map_kind(&items, threads, "item", |i, &x| {
                vap_obs::incr("test.items");
                vap_obs::observe("test.values", (x * 3) as f64);
                vap_obs::label_item(|| format!("item-{i}"));
                x
            });
            session.finish().journal_jsonl
        };
        let serial = journal(1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, journal(threads), "journal differs at threads = {threads}");
        }
    }
}
