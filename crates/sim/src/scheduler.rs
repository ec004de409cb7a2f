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
    /// characterization, which [`AllocationPolicy::pick`] approximates
    /// with the ground-truth fleet ranking.
    LowestPowerFirst,
}

impl AllocationPolicy {
    /// Up to `n` modules out of `pool`, in the policy's preference order
    /// (a job shrunk to fewer modules takes a prefix). `Random` draws its
    /// permutation from `seed`; `LowestPowerFirst` ranks by power at
    /// maximum frequency under `activity`, ties broken by module id.
    pub fn pick(
        self,
        cluster: &Cluster,
        pool: &[usize],
        n: usize,
        activity: PowerActivity,
        seed: u64,
    ) -> Vec<usize> {
        let n = n.min(pool.len());
        match self {
            AllocationPolicy::Contiguous => pool[..n].to_vec(),
            AllocationPolicy::Strided { stride } => {
                let stride = stride.max(1);
                // `n <= total`, so an empty pool never enters the walk,
                // which would index `seen[0]` and divide by zero
                let total = pool.len();
                let mut picked = Vec::with_capacity(n);
                let mut seen = vec![false; total];
                let mut i = 0usize;
                while picked.len() < n {
                    if !seen[i] {
                        seen[i] = true;
                        picked.push(pool[i]);
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
                picked
            }
            AllocationPolicy::Random => {
                let mut ids = pool.to_vec();
                SplitMix64::new(seed).shuffle(&mut ids);
                ids.truncate(n);
                ids
            }
            AllocationPolicy::LowestPowerFirst => {
                let f_max = cluster.spec().pstates.f_max();
                let mut ranked: Vec<(usize, f64)> = pool
                    .iter()
                    .filter_map(|&id| cluster.get(id))
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
                ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                ranked.into_iter().take(n).map(|(id, _)| id).collect()
            }
        }
    }

    /// Choose `n` module ids out of the whole fleet for a job with the
    /// given activity profile: [`AllocationPolicy::pick`] over every
    /// module, sorted.
    ///
    /// # Panics
    /// Panics if `n` exceeds the fleet size — a scheduler bug, not a
    /// recoverable condition for an experiment.
    pub fn allocate(
        self,
        cluster: &Cluster,
        n: usize,
        activity: PowerActivity,
        seed: u64,
    ) -> Vec<usize> {
        let total = cluster.len();
        assert!(n <= total, "requested {n} modules from a fleet of {total}");
        let all: Vec<usize> = (0..total).collect();
        let mut ids = self.pick(cluster, &all, n, activity, seed);
        ids.sort_unstable();
        ids
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
        let ids = AllocationPolicy::Contiguous.allocate(&cluster(), 5, act(), 0);
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn strided_spreads_and_covers() {
        let ids = AllocationPolicy::Strided { stride: 16 }.allocate(&cluster(), 8, act(), 0);
        assert_eq!(ids.len(), 8);
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), 8);
        assert!(ids.contains(&0) && ids.contains(&16) && ids.contains(&32) && ids.contains(&48));
    }

    #[test]
    fn random_is_seeded_and_unique() {
        let s = AllocationPolicy::Random;
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
        let picked = AllocationPolicy::LowestPowerFirst.allocate(&c, 16, act(), 0);
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
            let ids = policy.allocate(&c, c.len(), act(), 1);
            assert_eq!(ids.len(), c.len(), "{policy:?}");
            let unique: std::collections::BTreeSet<_> = ids.iter().collect();
            assert_eq!(unique.len(), c.len(), "{policy:?}");
        }
    }

    #[test]
    #[should_panic]
    fn over_allocation_panics() {
        let c = cluster();
        let _ = AllocationPolicy::Contiguous.allocate(&c, 65, act(), 0);
    }
}
