//! # vap-model
//!
//! Power, performance and manufacturing-variability models underlying the
//! `vap` reproduction of Inadomi et al., SC '15.
//!
//! The crate is split into two layers:
//!
//! 1. **Ground truth** — the physics the simulated hardware obeys, which the
//!    budgeting algorithm can only observe through measurements:
//!    * [`variability`] — per-module (die-to-die) and per-core (within-die)
//!      manufacturing multipliers for dynamic power, leakage and DRAM power,
//!      sampled from system-specific distributions.
//!    * [`power`] — CPU power `P = D·a·f·V(f)² + L·P_leak` with a linear
//!      voltage/frequency curve (so power is *mildly super-linear* in `f`,
//!      which is why the paper's linear fits achieve R² ≈ 0.99 rather than
//!      exactly 1 — Fig. 5), plus an affine DRAM power model.
//!    * [`boundedness`] — how execution rate scales with CPU frequency for
//!      workloads between CPU-bound (*DGEMM, EP) and memory-bound (*STREAM).
//!    * [`thermal`] — optional ambient-temperature modulation of leakage
//!      (the paper cites temperature as an additional variation source).
//!
//! 2. **The paper's model** — what the budgeting algorithm itself assumes:
//!    * [`linear`] — the two-point linear power model of §5.1.1
//!      (Eqs. 1–4), parameterized by measurements at `f_max` and `f_min`
//!      and steered by the coefficient `α ∈ [0, 1]`.
//!
//! [`rng`] is the workspace's one deterministic RNG (SplitMix64 with
//! normal, log-normal and shuffle samplers, plus the seeded property loop
//! the test suites run on). [`pstate`] provides discrete frequency tables
//! (P-states), [`units`] the strongly typed physical quantities used
//! throughout the workspace, and
//! [`systems`] the four production systems of Table 2 (Cab, Vulcan, Teller,
//! HA8K) with variability distributions calibrated so the simulated fleets
//! reproduce the paper's observed variation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundedness;
pub mod linear;
pub mod power;
pub mod pstate;
pub mod rng;
pub mod systems;
pub mod thermal;
pub mod units;
pub mod variability;

pub use systems::{SystemId, SystemSpec};
pub use units::{Seconds, Watts};
