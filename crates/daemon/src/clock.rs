//! Wall-clock pacing for the sensor loop.
//!
//! This is the *only* place in the serving plane that reads real time,
//! and it feeds nothing back into the simulation: the sim advances in
//! explicit virtual-time steps, and the pacer merely sleeps the main
//! thread so virtual time tracks `accel ×` wall time. Determinism of the
//! telemetry stream (`tests/determinism.rs`) therefore survives any
//! scheduling jitter — pacing changes *when* a snapshot is published,
//! never *what* it contains.

use crate::DaemonError;
use std::time::{Duration, Instant};

/// Sleeps the sensor loop so simulated time advances at `accel` virtual
/// seconds per wall second. `accel == 0` disables pacing (free-run).
#[derive(Debug)]
pub struct Pacer {
    accel: f64,
    start: Option<Instant>,
}

impl Pacer {
    /// A pacer for the given acceleration factor.
    pub fn new(accel: f64) -> Self {
        Pacer { accel, start: None }
    }

    /// Block until wall time catches up with `sim_time_s / accel`,
    /// measured from the first call. Free-running pacers return
    /// immediately. A target too far out for a [`Duration`] (a tiny
    /// `accel`) is an error, not a panic.
    pub fn pace(&mut self, sim_time_s: f64) -> Result<(), DaemonError> {
        if self.accel <= 0.0 {
            return Ok(());
        }
        // vap:allow(determinism): wall-clock pacing side channel, feeds nothing into the sim
        let start = *self.start.get_or_insert_with(Instant::now);
        let wall_s = (sim_time_s / self.accel).max(0.0);
        let target = Duration::try_from_secs_f64(wall_s).map_err(|_| {
            let accel = self.accel;
            DaemonError::msg(format!(
                "cannot pace {sim_time_s} simulated s at --accel {accel:?}: \
                 {wall_s:e} wall s is out of range"
            ))
        })?;
        let elapsed = start.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
        Ok(())
    }
}

/// Measures wall time for soak reports and throughput numbers.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        // vap:allow(determinism): wall-clock measurement for soak/bench reporting only
        Stopwatch { started: Instant::now() }
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A wall-clock budget: `expired()` flips to true after `limit_s`.
/// A zero (or negative) limit never expires.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    limit_s: f64,
}

impl Deadline {
    /// Start a budget of `limit_s` wall seconds (0 = unbounded).
    pub fn start(limit_s: f64) -> Self {
        // vap:allow(determinism): wall-clock run-duration budget, not simulation state
        Deadline { started: Instant::now(), limit_s }
    }

    /// Whether the budget has been used up.
    pub fn expired(&self) -> bool {
        self.limit_s > 0.0 && self.started.elapsed().as_secs_f64() >= self.limit_s
    }

    /// Wall time left in the budget: zero once it is used up,
    /// [`Duration::MAX`] when it is unbounded.
    pub fn remaining(&self) -> Duration {
        if self.limit_s <= 0.0 {
            return Duration::MAX;
        }
        Duration::try_from_secs_f64(self.limit_s)
            .map_or(Duration::MAX, |limit| limit.saturating_sub(self.started.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_running_pacer_never_sleeps() {
        let mut pacer = Pacer::new(0.0);
        let sw = Stopwatch::start();
        for t in 0..1000 {
            pacer.pace(f64::from(t)).unwrap();
        }
        // 1000 virtual seconds in well under one wall second
        assert!(sw.elapsed_s() < 1.0);
    }

    #[test]
    fn pacer_tracks_accelerated_time() {
        // 1000 virtual seconds per wall second: 50 virtual seconds
        // should take ~50 ms of wall time.
        let mut pacer = Pacer::new(1000.0);
        let sw = Stopwatch::start();
        pacer.pace(50.0).unwrap();
        let elapsed = sw.elapsed_s();
        assert!(elapsed >= 0.045, "paced too fast: {elapsed}s");
        assert!(elapsed < 5.0, "paced far too slow: {elapsed}s");
    }

    #[test]
    fn tiny_accel_is_an_error_not_a_panic() {
        // 1 simulated second at 1e-300 virtual s per wall s is 1e300 wall
        // seconds: no Duration holds that
        let mut pacer = Pacer::new(1e-300);
        let sw = Stopwatch::start();
        assert!(pacer.pace(0.0).is_ok(), "time zero needs no wait");
        let err = pacer.pace(1.0).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(sw.elapsed_s() < 1.0, "the refusal must not sleep first");
    }

    #[test]
    fn zero_deadline_never_expires() {
        assert!(!Deadline::start(0.0).expired());
        assert!(!Deadline::start(-1.0).expired());
    }

    #[test]
    fn short_deadline_expires() {
        let d = Deadline::start(0.01);
        assert!(d.remaining() <= Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(25));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        assert_eq!(Deadline::start(0.0).remaining(), Duration::MAX);
    }
}
