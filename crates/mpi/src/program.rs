//! SPMD program descriptions.
//!
//! A [`Program`] is the op sequence every MPI rank executes. Compute work is
//! expressed in *reference seconds* — the time the op takes at relative
//! execution rate 1.0 (the workload at its reference frequency on a nominal
//! module) — so the same program scales faithfully across operating points.

use vap_model::rng::{SplitMix64, GOLDEN_GAMMA, MIX_GAMMA};

/// One operation in an SPMD program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Local computation costing `work` reference-seconds.
    Compute {
        /// Duration at reference rate 1.0.
        work: f64,
    },
    /// `MPI_Sendrecv` with both ring neighbors at `±offset` (the paper's
    /// MHD exchanges boundary data with neighboring ranks each iteration).
    /// Rank `r` synchronizes with ranks `(r ± offset) mod n`.
    Sendrecv {
        /// Ring-neighbor distance (≥ 1).
        offset: usize,
        /// Payload per direction in bytes.
        bytes: u64,
    },
    /// `MPI_Allreduce` over all ranks.
    Allreduce {
        /// Contribution size in bytes.
        bytes: u64,
    },
    /// `MPI_Barrier` over all ranks.
    Barrier,
}

impl Op {
    /// Whether this op synchronizes with other ranks.
    pub fn is_synchronizing(&self) -> bool {
        !matches!(self, Op::Compute { .. })
    }
}

/// Per-iteration compute-time noise: the OS jitter, cache interference and
/// NUMA effects real nodes exhibit on every timestep. Each `(rank, op)`
/// instance gets a deterministic multiplicative factor `1 + sigma·z` with
/// `z` approximately standard normal, derived from a counter-based hash —
/// reproducible without carrying RNG state.
///
/// This is what gives iterative codes their *baseline* synchronization
/// cost (the paper's Fig. 3 uncapped `Vt = 1.55` over MPI_Sendrecv times):
/// a different rank is momentarily slowest each iteration, so every rank
/// accumulates some waiting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Relative std-dev of per-op compute time (typically 0.5–3%).
    pub sigma: f64,
    /// Stream seed.
    pub seed: u64,
}

impl NoiseModel {
    /// The noise factor for rank `rank` executing op instance `step`.
    pub fn factor(&self, rank: usize, step: usize) -> f64 {
        // a SplitMix64 stream keyed by the (seed, rank, step) triple
        let mut rng = SplitMix64::new(
            self.seed
                .wrapping_add((rank as u64).wrapping_mul(GOLDEN_GAMMA))
                .wrapping_add((step as u64).wrapping_mul(MIX_GAMMA)),
        );
        let mut next = || rng.next_u64() as f64 / u64::MAX as f64;
        // Irwin-Hall(3): mean 1.5, var 1/4 → z = 2·(sum − 1.5)
        let z = 2.0 * (next() + next() + next() - 1.5);
        (1.0 + self.sigma * z.clamp(-4.0, 4.0)).max(0.1)
    }
}

/// An SPMD program: the shared op sequence plus optional per-rank load
/// multipliers (1.0 = perfectly balanced, the common case for the paper's
/// tuned benchmarks) and optional per-iteration compute noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
    load_multipliers: Option<Vec<f64>>,
    noise: Option<NoiseModel>,
}

impl Program {
    /// A program from an explicit op list.
    pub fn new(ops: Vec<Op>) -> Self {
        Program { ops, load_multipliers: None, noise: None }
    }

    /// Attach per-rank load multipliers (length must equal the rank count
    /// used at execution time; checked by the engine).
    pub fn with_load_multipliers(mut self, m: Vec<f64>) -> Self {
        assert!(m.iter().all(|&x| x > 0.0), "load multipliers must be positive");
        self.load_multipliers = Some(m);
        self
    }

    /// The op sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Per-rank load multiplier (1.0 when none configured).
    pub fn load_multiplier(&self, rank: usize) -> f64 {
        self.load_multipliers.as_ref().map_or(1.0, |m| m[rank])
    }

    /// Configured multiplier table, if any.
    pub fn load_multipliers(&self) -> Option<&[f64]> {
        self.load_multipliers.as_deref()
    }

    /// Attach per-iteration compute noise.
    pub fn with_compute_noise(mut self, sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        self.noise = Some(NoiseModel { sigma, seed });
        self
    }

    /// The configured noise model, if any.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// Total compute work per rank at multiplier 1.0, in reference seconds.
    pub fn total_work(&self) -> f64 {
        self.ops.iter().map(|op| if let Op::Compute { work } = op { *work } else { 0.0 }).sum()
    }

    /// Number of synchronizing ops.
    pub fn sync_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.is_synchronizing()).count()
    }
}

/// Builder for the iteration-structured programs HPC codes actually have:
/// optional prologue, a body repeated `n` times, optional epilogue.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Start an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a compute phase.
    pub fn compute(mut self, work: f64) -> Self {
        assert!(work >= 0.0, "work must be non-negative");
        self.ops.push(Op::Compute { work });
        self
    }

    /// Append a neighbor exchange.
    pub fn sendrecv(mut self, offset: usize, bytes: u64) -> Self {
        assert!(offset >= 1, "sendrecv offset must be >= 1");
        self.ops.push(Op::Sendrecv { offset, bytes });
        self
    }

    /// Append an allreduce.
    pub fn allreduce(mut self, bytes: u64) -> Self {
        self.ops.push(Op::Allreduce { bytes });
        self
    }

    /// Append a barrier.
    pub fn barrier(mut self) -> Self {
        self.ops.push(Op::Barrier);
        self
    }

    /// Repeat a body `n` times.
    pub fn iterations(mut self, n: usize, body: &[Op]) -> Self {
        for _ in 0..n {
            self.ops.extend_from_slice(body);
        }
        self
    }

    /// Finish building.
    pub fn build(self) -> Program {
        Program::new(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_iterative_program() {
        let body = [Op::Compute { work: 2.0 }, Op::Sendrecv { offset: 1, bytes: 1024 }];
        let p = ProgramBuilder::new().compute(1.0).iterations(3, &body).barrier().build();
        assert_eq!(p.ops().len(), 1 + 3 * 2 + 1);
        assert!((p.total_work() - 7.0).abs() < 1e-12);
        assert_eq!(p.sync_ops(), 4);
    }

    #[test]
    fn load_multipliers_default_to_one() {
        let p = ProgramBuilder::new().compute(1.0).build();
        assert_eq!(p.load_multiplier(0), 1.0);
        assert_eq!(p.load_multiplier(99), 1.0);
        assert!(p.load_multipliers().is_none());
    }

    #[test]
    fn load_multipliers_apply_per_rank() {
        let p = Program::new(vec![Op::Compute { work: 1.0 }])
            .with_load_multipliers(vec![1.0, 1.5, 0.5]);
        assert_eq!(p.load_multiplier(1), 1.5);
        assert_eq!(p.load_multipliers().unwrap().len(), 3);
    }

    #[test]
    fn noise_model_is_deterministic_and_centered() {
        let nm = NoiseModel { sigma: 0.02, seed: 9 };
        assert_eq!(nm.factor(3, 7), nm.factor(3, 7));
        assert_ne!(nm.factor(3, 7), nm.factor(3, 8));
        assert_ne!(nm.factor(3, 7), nm.factor(4, 7));
        let mean: f64 = (0..5000).map(|i| nm.factor(i % 13, i)).sum::<f64>() / 5000.0;
        assert!((mean - 1.0).abs() < 0.002, "noise mean {mean}");
        // all factors positive and bounded
        for i in 0..1000 {
            let f = nm.factor(i, i * 3);
            assert!(f > 0.9 && f < 1.1);
        }
    }

    #[test]
    fn noise_factors_match_the_pinned_stream() {
        // values of the historical inline splitmix64 formula, bit for bit
        let pin = |sigma, seed, rank, step, bits: u64| {
            let f = NoiseModel { sigma, seed }.factor(rank, step);
            assert_eq!(f.to_bits(), bits, "factor({sigma}, {seed}, {rank}, {step}) = {f}");
        };
        pin(0.02, 1, 0, 0, 0x3ff0_8057_ea8d_6269);
        pin(0.02, 1, 3, 5, 0x3fef_9231_8a78_7457);
        pin(0.05, 99, 7, 123, 0x3ff0_277d_58c2_cd4a);
        pin(0.5, 7, 2, 9, 0x3fda_c471_09b5_1d06);
    }

    #[test]
    fn program_carries_noise_model() {
        let p = ProgramBuilder::new().compute(1.0).build().with_compute_noise(0.01, 4);
        assert_eq!(p.noise().unwrap().sigma, 0.01);
        assert!(ProgramBuilder::new().compute(1.0).build().noise().is_none());
    }

    #[test]
    fn op_classification() {
        assert!(!Op::Compute { work: 1.0 }.is_synchronizing());
        assert!(Op::Barrier.is_synchronizing());
        assert!(Op::Allreduce { bytes: 8 }.is_synchronizing());
        assert!(Op::Sendrecv { offset: 1, bytes: 8 }.is_synchronizing());
    }

    #[test]
    #[should_panic]
    fn negative_work_panics() {
        let _ = ProgramBuilder::new().compute(-1.0);
    }

    #[test]
    #[should_panic]
    fn zero_offset_sendrecv_panics() {
        let _ = ProgramBuilder::new().sendrecv(0, 8);
    }

    #[test]
    #[should_panic]
    fn nonpositive_multiplier_panics() {
        let _ = Program::new(vec![]).with_load_multipliers(vec![1.0, 0.0]);
    }
}
