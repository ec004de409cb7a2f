//! Job-scheduler module allocation.
//!
//! The paper observes that under power constraints "application performance
//! will depend significantly on the physical processors allocated to it
//! during scheduling" (§1). This module provides the allocation policies the
//! what-if experiments compare: the conventional ones a batch scheduler
//! uses today (contiguous, round-robin, random) and a power-aware policy in
//! the spirit of the paper's RMAP future-work direction, which picks the
//! most power-efficient modules for a power-capped job.

use crate::cluster::Cluster;
use vap_model::rng::SplitMix64;
use vap_model::power::PowerActivity;

/// How the scheduler picks `n` modules out of the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// First `n` modules in fleet order (typical contiguous allocation).
    Contiguous,
    /// Every `stride`-th module, wrapping — spreads a job across racks.
    Strided {
        /// Allocation stride (≥ 1).
        stride: usize,
    },
    /// Uniformly random subset (what a busy production queue effectively
    /// hands out).
    Random,
    /// Power-aware: the `n` modules with the lowest power draw for the
    /// job's activity profile at maximum frequency. Requires a PVT-style
    /// characterization, which [`Scheduler::allocate`] approximates with
    /// the ground-truth fleet ranking.
    LowestPowerFirst,
}

/// A minimal job scheduler over a [`Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    policy: AllocationPolicy,
}

impl Scheduler {
    /// Create a scheduler with the given policy.
    pub fn new(policy: AllocationPolicy) -> Self {
        Scheduler { policy }
    }

    /// The configured policy.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Choose `n` module ids for a job with the given activity profile.
    ///
    /// # Panics
    /// Panics if `n` exceeds the fleet size — a scheduler bug, not a
    /// recoverable condition for an experiment.
    pub fn allocate(&self, cluster: &Cluster, n: usize, activity: PowerActivity, seed: u64) -> Vec<usize> {
        let total = cluster.len();
        assert!(n <= total, "requested {n} modules from a fleet of {total}");
        match self.policy {
            AllocationPolicy::Contiguous => (0..n).collect(),
            AllocationPolicy::Strided { stride } => {
                let stride = stride.max(1);
                let mut ids = Vec::with_capacity(n);
                let mut seen = vec![false; total];
                let mut i = 0usize;
                while ids.len() < n {
                    if !seen[i] {
                        seen[i] = true;
                        ids.push(i);
                    }
                    i = (i + stride) % total;
                    // if the stride cycle closed early, advance to the next
                    // unvisited module
                    if seen[i] {
                        if let Some(j) = seen.iter().position(|&s| !s) {
                            i = j;
                        } else {
                            break;
                        }
                    }
                }
                ids
            }
            AllocationPolicy::Random => {
                let mut ids: Vec<usize> = (0..total).collect();
                SplitMix64::new(seed).shuffle(&mut ids);
                ids.truncate(n);
                ids.sort_unstable();
                ids
            }
            AllocationPolicy::LowestPowerFirst => {
                let f_max = cluster.spec().pstates.f_max();
                let mut ranked: Vec<(usize, f64)> = cluster
                    .modules()
                    .map(|m| {
                        let p = m.power_model().module_power(
                            f_max,
                            activity,
                            m.variation(),
                            m.thermal_factor(),
                        );
                        (m.id(), p.value())
                    })
                    .collect();
                ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
                let mut ids: Vec<usize> = ranked.into_iter().take(n).map(|(id, _)| id).collect();
                ids.sort_unstable();
                ids
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;
    use vap_model::units::Watts;

    fn cluster() -> Cluster {
        Cluster::with_size(SystemSpec::ha8k(), 64, 21)
    }

    fn act() -> PowerActivity {
        PowerActivity { cpu: 1.0, dram: 0.25 }
    }

    #[test]
    fn contiguous_is_prefix() {
        let s = Scheduler::new(AllocationPolicy::Contiguous);
        assert_eq!(s.allocate(&cluster(), 5, act(), 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn strided_spreads_and_covers() {
        let s = Scheduler::new(AllocationPolicy::Strided { stride: 16 });
        let ids = s.allocate(&cluster(), 8, act(), 0);
        assert_eq!(ids.len(), 8);
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), 8);
        assert!(ids.contains(&0) && ids.contains(&16) && ids.contains(&32) && ids.contains(&48));
    }

    #[test]
    fn random_is_seeded_and_unique() {
        let s = Scheduler::new(AllocationPolicy::Random);
        let c = cluster();
        let a = s.allocate(&c, 10, act(), 5);
        let b = s.allocate(&c, 10, act(), 5);
        let d = s.allocate(&c, 10, act(), 6);
        assert_eq!(a, b);
        assert_ne!(a, d);
        let unique: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn lowest_power_first_actually_minimizes_power() {
        let c = cluster();
        let s = Scheduler::new(AllocationPolicy::LowestPowerFirst);
        let picked = s.allocate(&c, 16, act(), 0);
        let f_max = c.spec().pstates.f_max();
        let power_of = |id: usize| {
            let m = c.module(id);
            m.power_model().module_power(f_max, act(), m.variation(), 1.0)
        };
        let worst_picked =
            picked.iter().map(|&id| power_of(id)).fold(Watts::ZERO, Watts::max);
        for id in 0..c.len() {
            if !picked.contains(&id) {
                assert!(power_of(id) >= worst_picked - Watts(1e-9));
            }
        }
    }

    #[test]
    fn full_fleet_allocation_is_everyone() {
        let c = cluster();
        for policy in [
            AllocationPolicy::Contiguous,
            AllocationPolicy::Strided { stride: 7 },
            AllocationPolicy::Random,
            AllocationPolicy::LowestPowerFirst,
        ] {
            let ids = Scheduler::new(policy).allocate(&c, c.len(), act(), 1);
            assert_eq!(ids.len(), c.len(), "{policy:?}");
            let unique: std::collections::BTreeSet<_> = ids.iter().collect();
            assert_eq!(unique.len(), c.len(), "{policy:?}");
        }
    }

    #[test]
    #[should_panic]
    fn over_allocation_panics() {
        let c = cluster();
        let _ = Scheduler::new(AllocationPolicy::Contiguous).allocate(&c, 65, act(), 0);
    }
}
