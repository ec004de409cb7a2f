//! Property tests for the snapshot registry: under arbitrary
//! interleavings of publishes and concurrent reads, every observed
//! snapshot is fully consistent — its sealed checksum verifies, its
//! epoch is one the writer actually published, and epochs never run
//! backwards from any single reader's point of view. Run as seeded loops
//! ([`vap_model::rng::check`]): a failure names the case seed to replay.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vap_model::rng::check;
use vap_obs::{ModuleSample, SnapshotRegistry, TelemetrySnapshot};

fn module_sample(id: u64, seed: u64) -> ModuleSample {
    // cheap deterministic value spread so consecutive snapshots differ
    // in every field the checksum covers
    let x = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16) as f64;
    ModuleSample {
        id,
        power_w: 60.0 + (x % 55.0),
        freq_ghz: 1.2 + (x % 1.5),
        cap_w: if seed.is_multiple_of(3) { None } else { Some(50.0 + (x % 65.0)) },
        duty: ((seed % 16) as f64 + 1.0) / 16.0,
        throttled: seed.is_multiple_of(2),
    }
}

fn snapshot(seed: u64, modules: usize) -> TelemetrySnapshot {
    TelemetrySnapshot {
        sim_time_s: seed as f64 * 0.25,
        total_power_w: 90.0 * modules as f64,
        cap_w: 80.0 * modules as f64,
        running_jobs: seed % 7,
        queued_jobs: seed % 5,
        modules: (0..modules as u64).map(|id| module_sample(id, seed.wrapping_add(id))).collect(),
        ..TelemetrySnapshot::default()
    }
}

// Thread spawn/join per case is the dominant cost; a few dozen cases
// with hundreds of publishes each gives plenty of interleavings.
const THREADED_CASES: usize = 24;

/// No reader ever observes a torn snapshot, an epoch the writer
/// never published, or a backwards-running epoch sequence.
#[test]
fn concurrent_reads_never_tear() {
    check("concurrent_reads_never_tear", 1, THREADED_CASES, |rng| {
        let publishes = 1 + rng.next_index(399);
        let readers = 1 + rng.next_index(4);
        let modules = rng.next_index(9);
        let seed = rng.next_u64();
        let registry = Arc::new(SnapshotRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let published = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let published = Arc::clone(&published);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0u64;
                    loop {
                        let before = registry.epoch();
                        let snap = registry.read();
                        let after = registry.epoch();
                        assert!(snap.verify(), "torn snapshot at epoch {}", snap.epoch);
                        // seqlock check: a stable epoch window pins the
                        // snapshot to exactly that publish
                        if before == after {
                            assert_eq!(
                                snap.epoch, before,
                                "stale pointer inside stable epoch window"
                            );
                        }
                        assert!(
                            snap.epoch <= published.load(Ordering::SeqCst),
                            "epoch {} never published",
                            snap.epoch
                        );
                        assert!(snap.epoch >= last, "epoch ran backwards");
                        last = snap.epoch;
                        seen += 1;
                        if stop.load(Ordering::Relaxed) {
                            return seen;
                        }
                    }
                })
            })
            .collect();

        for i in 0..publishes {
            // announce the epoch before the swap makes it readable: a
            // reader may observe the new snapshot before `publish` returns
            let next = i as u64 + 1;
            published.store(next, Ordering::SeqCst);
            let epoch = registry.publish(snapshot(seed.wrapping_add(i as u64), modules));
            assert_eq!(epoch, next, "epochs are assigned sequentially");
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let seen = h.join().expect("reader panicked");
            assert!(seen >= 1);
        }
        assert_eq!(registry.epoch(), publishes as u64);
    });
}

/// Serialized publish/read (no concurrency) round-trips every field
/// exactly — the registry adds the epoch and checksum, nothing else.
#[test]
fn publish_then_read_roundtrips_exactly() {
    check("publish_then_read_roundtrips_exactly", 2, 256, |rng| {
        let seed = rng.next_u64();
        let modules = rng.next_index(17);
        let registry = SnapshotRegistry::new();
        let original = snapshot(seed, modules);
        let epoch = registry.publish(original.clone());
        let back = registry.read();
        assert_eq!(back.epoch, epoch);
        assert!(back.verify());
        assert_eq!(&back.modules, &original.modules);
        assert_eq!(back.sim_time_s.to_bits(), original.sim_time_s.to_bits());
        assert_eq!(back.total_power_w.to_bits(), original.total_power_w.to_bits());
        assert_eq!(back.running_jobs, original.running_jobs);
        assert_eq!(back.queued_jobs, original.queued_jobs);
    });
}
