//! The snapshot registry: one writer, many readers, one lock.
//!
//! The daemon's deterministic sim loop publishes epoch-stamped
//! [`TelemetrySnapshot`]s; many concurrent scrapers read the latest one.
//! The current snapshot sits behind a [`Mutex`] as an
//! `Arc<TelemetrySnapshot>`:
//!
//! * a **reader** holds the lock only to copy that pointer (an `Arc`
//!   refcount bump), then renders from its own reference with the lock
//!   released — a scraper never holds the lock while it formats or
//!   writes;
//! * the **writer** holds it to stamp and seal the next snapshot and swap
//!   the pointer, then wakes every [`wait_newer`](SnapshotRegistry::wait_newer)
//!   caller through a [`Condvar`]. A displaced snapshot is freed when its
//!   last reader drops its `Arc`.
//!
//! Streaming exporters block in `wait_newer` instead of polling, and
//! [`close`](SnapshotRegistry::close) wakes them for shutdown.
//!
//! The epoch plus the per-snapshot checksum ([`TelemetrySnapshot::verify`])
//! let tests prove the absence of torn reads under arbitrary
//! interleavings (`tests/registry_props.rs`).

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::snapshot::TelemetrySnapshot;

/// What the lock guards.
#[derive(Debug)]
struct State {
    /// The latest sealed snapshot.
    current: Arc<TelemetrySnapshot>,
    /// Set by [`SnapshotRegistry::close`]: no more publishes will come.
    closed: bool,
    /// Snapshots handed out (service-plane stat, not part of the
    /// deterministic journal).
    reads: u64,
}

/// A single-writer / many-reader registry holding the latest
/// [`TelemetrySnapshot`].
///
/// The registry stamps each published snapshot with the next epoch and
/// seals its checksum. Readers get the snapshot as an `Arc`.
#[derive(Debug)]
pub struct SnapshotRegistry {
    state: Mutex<State>,
    /// Notified on every publish and on close.
    changed: Condvar,
}

impl SnapshotRegistry {
    /// A registry holding an empty epoch-0 snapshot.
    pub fn new() -> Self {
        SnapshotRegistry {
            state: Mutex::new(State {
                current: Arc::new(TelemetrySnapshot::default().seal(0)),
                closed: false,
                reads: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// The lock never guards a half-done update (every critical section
    /// is a field assignment), so a poisoned lock is still consistent.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a snapshot: stamp it with the next epoch, seal its
    /// checksum, swap it in as the current view and wake every waiting
    /// reader. Returns the epoch assigned.
    pub fn publish(&self, snapshot: TelemetrySnapshot) -> u64 {
        let mut state = self.lock();
        let epoch = state.current.epoch + 1;
        let old = std::mem::replace(&mut state.current, Arc::new(snapshot.seal(epoch)));
        drop(state);
        self.changed.notify_all();
        // freed here, outside the lock, unless a reader still holds it
        drop(old);
        epoch
    }

    /// Wake every [`wait_newer`](Self::wait_newer) caller for good: once
    /// they have the current snapshot, they get `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// The epoch of the current snapshot. Reading the epoch before and
    /// after a [`read`](Self::read) and seeing the same value proves the
    /// snapshot was current for that whole window (seqlock check).
    pub fn epoch(&self) -> u64 {
        self.lock().current.epoch
    }

    /// The current snapshot: a pointer copy under the lock.
    pub fn read(&self) -> Arc<TelemetrySnapshot> {
        let mut state = self.lock();
        state.reads += 1;
        Arc::clone(&state.current)
    }

    /// Block until a snapshot newer than `epoch` is current and return
    /// it, or return `None` once the registry is closed and holds
    /// nothing newer.
    pub fn wait_newer(&self, epoch: u64) -> Option<Arc<TelemetrySnapshot>> {
        let mut state = self
            .changed
            .wait_while(self.lock(), |s| s.current.epoch <= epoch && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        if state.current.epoch <= epoch {
            return None;
        }
        state.reads += 1;
        Some(Arc::clone(&state.current))
    }

    /// Snapshots handed out by [`read`](Self::read) and
    /// [`wait_newer`](Self::wait_newer) (service-plane stat;
    /// deliberately excluded from the deterministic journal).
    pub fn read_count(&self) -> u64 {
        self.lock().reads
    }
}

impl Default for SnapshotRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ModuleSample;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn snap(power: f64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            sim_time_s: power / 10.0,
            total_power_w: power,
            modules: vec![ModuleSample {
                id: 0,
                power_w: power,
                freq_ghz: 2.7,
                cap_w: Some(power + 5.0),
                duty: 1.0,
                throttled: false,
            }],
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn fresh_registry_serves_empty_epoch_zero() {
        let r = SnapshotRegistry::new();
        let s = r.read();
        assert_eq!(s.epoch, 0);
        assert!(s.verify());
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.read_count(), 1);
    }

    #[test]
    fn publish_stamps_sequential_epochs_and_seals() {
        let r = SnapshotRegistry::new();
        assert_eq!(r.publish(snap(100.0)), 1);
        assert_eq!(r.publish(snap(200.0)), 2);
        let s = r.read();
        assert_eq!(s.epoch, 2);
        assert_eq!(s.total_power_w, 200.0);
        assert!(s.verify());
    }

    #[test]
    fn concurrent_readers_always_see_sealed_snapshots() {
        let r = Arc::new(SnapshotRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = r.read();
                        assert!(s.verify(), "torn snapshot at epoch {}", s.epoch);
                        assert!(s.epoch >= last, "epoch went backwards");
                        last = s.epoch;
                    }
                })
            })
            .collect();
        for i in 0..1000 {
            r.publish(snap(i as f64));
        }
        stop.store(true, Ordering::Relaxed);
        for t in readers {
            t.join().expect("reader panicked");
        }
        assert_eq!(r.epoch(), 1000);
    }

    #[test]
    fn seqlock_epoch_check_brackets_a_stable_read() {
        let r = SnapshotRegistry::new();
        r.publish(snap(50.0));
        let before = r.epoch();
        let s = r.read();
        let after = r.epoch();
        assert_eq!(before, after);
        assert_eq!(s.epoch, before);
    }

    #[test]
    fn wait_newer_wakes_on_publish_and_drains_before_close() {
        let r = SnapshotRegistry::new();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| r.wait_newer(0).map(|s| s.epoch));
            r.publish(snap(1.0));
            assert_eq!(waiter.join().unwrap(), Some(1));
        });
        r.publish(snap(2.0));
        r.close();
        assert_eq!(r.wait_newer(1).map(|s| s.epoch), Some(2), "close keeps the last epoch");
        assert!(r.wait_newer(2).is_none(), "a closed registry never blocks");
    }
}
