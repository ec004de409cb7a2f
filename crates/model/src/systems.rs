//! The four production systems of Table 2, as simulator configurations.
//!
//! | Site | Node arch | Total nodes | Procs/node | Cores | Freq | TDP | Measurement |
//! |---|---|---|---|---|---|---|---|
//! | Cab (LLNL) | Intel E5-2670 Sandy Bridge | 1,296 | 2 | 8 | 2.6 GHz | 115 W | RAPL |
//! | Vulcan (LLNL) | IBM PowerPC A2 (BG/Q) | 24,576 | 1 | 16 | 1.6 GHz | unreported | EMON |
//! | Teller (SNL) | AMD A10-5800K Piledriver | 104 | 1 | 4 | 3.8 GHz | 100 W | PowerInsight |
//! | HA8K (Kyushu) | Intel E5-2697v2 Ivy Bridge | 960 | 2 | 12 | 2.7 GHz | 130 W | RAPL |
//!
//! Each [`SystemSpec`] bundles the architectural facts with a ground-truth
//! power model and a variability distribution calibrated so a simulated
//! fleet reproduces the paper's fleet-level observations (Fig. 1 and
//! Fig. 2(i)): ≈23% max CPU power variation on Cab, ≈11% at node-board
//! granularity on Vulcan, ≈21% power / ≈17% performance variation on
//! Teller, and module-power Vp ≈ 1.3 with DRAM Vp ≈ 2.8 on HA8K.

use crate::power::{CpuPowerModel, DramPowerModel, ModulePowerModel, VoltageCurve};
use crate::pstate::PStateTable;
use crate::units::{GigaHertz, Watts};
use crate::variability::VariabilityModel;

/// Identifier for the four systems of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemId {
    /// Cab at LLNL — Intel Sandy Bridge, RAPL.
    Cab,
    /// Vulcan at LLNL — IBM BlueGene/Q, EMON.
    Vulcan,
    /// Teller at SNL — AMD Piledriver, PowerInsight.
    Teller,
    /// HA8K (QUARTETTO) at Kyushu University — Intel Ivy Bridge, RAPL.
    /// The system all capped / budgeted experiments run on.
    Ha8k,
}

impl SystemId {
    /// All four systems.
    pub const ALL: [SystemId; 4] =
        [SystemId::Cab, SystemId::Vulcan, SystemId::Teller, SystemId::Ha8k];
}

/// The power measurement technique available on a system (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasurementTech {
    /// Intel Running Average Power Limit: model-based, 1 ms average,
    /// supports hardware power capping.
    Rapl,
    /// Penguin PowerInsight: sensor-based instantaneous sampling at ≤1 ms,
    /// no capping.
    PowerInsight,
    /// IBM BG/Q EMON: instantaneous sampling at ~300 ms via node-board
    /// DCAs, no capping.
    BgqEmon,
}

impl MeasurementTech {
    /// Whether this technique can *enforce* power caps (only RAPL can).
    pub fn supports_capping(self) -> bool {
        matches!(self, MeasurementTech::Rapl)
    }

    /// The reporting granularity in seconds (Table 1's "Granularity").
    pub fn granularity_s(self) -> f64 {
        match self {
            MeasurementTech::Rapl => 1e-3,
            MeasurementTech::PowerInsight => 1e-3,
            MeasurementTech::BgqEmon => 0.3,
        }
    }

    /// Whether the technique reports a window *average* (RAPL) or an
    /// *instantaneous* sample (PI, EMON) — Table 1's "Reported" column.
    pub fn reports_average(self) -> bool {
        matches!(self, MeasurementTech::Rapl)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MeasurementTech::Rapl => "RAPL",
            MeasurementTech::PowerInsight => "PowerInsight",
            MeasurementTech::BgqEmon => "BGQ EMON",
        }
    }
}

/// Full description of one system: Table-2 facts plus simulation models.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Which system this is.
    pub id: SystemId,
    /// Display name.
    pub name: String,
    /// Hosting site.
    pub site: String,
    /// Processor part / microarchitecture.
    pub microarchitecture: String,
    /// Installed node count.
    pub total_nodes: usize,
    /// Processors (sockets) per node.
    pub procs_per_node: usize,
    /// Cores per processor.
    pub cores_per_proc: usize,
    /// DRAM per node in GB.
    pub memory_per_node_gb: usize,
    /// Processor TDP; `None` where unreported (Vulcan).
    pub tdp: Option<Watts>,
    /// DRAM TDP per module — the value the Naive scheme plugs into its PMT
    /// on HA8K (62 W).
    pub dram_tdp: Option<Watts>,
    /// Measurement technique available.
    pub measurement: MeasurementTech,
    /// Supported P-states (and turbo, where enabled in the study).
    pub pstates: PStateTable,
    /// Ground-truth power physics.
    pub power_model: ModulePowerModel,
    /// Manufacturing variability distributions.
    pub variability: VariabilityModel,
    /// How many modules the paper's study sampled on this system.
    pub modules_studied: usize,
    /// Modules aggregated per power measurement: 1 everywhere except
    /// Vulcan, where EMON measures per node board (32 compute cards).
    pub modules_per_measurement: usize,
}

impl SystemSpec {
    /// Look up a system by id.
    pub fn get(id: SystemId) -> SystemSpec {
        match id {
            SystemId::Cab => Self::cab(),
            SystemId::Vulcan => Self::vulcan(),
            SystemId::Teller => Self::teller(),
            SystemId::Ha8k => Self::ha8k(),
        }
    }

    /// **HA8K** — the 1,920-module Ivy Bridge system all power-capped
    /// experiments use. Calibrated so an uncapped *DGEMM-class workload
    /// (CPU activity 1.0) draws ≈101 W CPU / ≈12 W DRAM per module with
    /// module Vp ≈ 1.3 and DRAM Vp ≈ 2.84 across 1,920 samples.
    ///
    /// `dram_sigma` comes from the paper's DRAM Vp of 2.84 (Fig. 2(i)).
    /// Uncapped, every module runs at the same frequency and activity, so
    /// the fleet's DRAM Vp is the max/min of its multipliers `1 + σz`.
    /// The median largest of n standard normals is
    /// z* = Φ⁻¹(1 − ln 2 / n) = 3.381 at n = 1,920, and the smallest is
    /// −z*, so a median fleet has Vp = (1 + σz*) / (1 − σz*). Solving for
    /// σ gives (Vp − 1) / ((Vp + 1)·z*) = 1.84 / (3.84 × 3.381) = 0.1417,
    /// written 0.142.
    pub fn ha8k() -> SystemSpec {
        SystemSpec {
            id: SystemId::Ha8k,
            name: "HA8K".to_string(),
            site: "Kyushu University (QUARTETTO)".to_string(),
            microarchitecture: "Intel E5-2697v2 Ivy Bridge".to_string(),
            total_nodes: 960,
            procs_per_node: 2,
            cores_per_proc: 12,
            memory_per_node_gb: 256,
            tdp: Some(Watts(130.0)),
            dram_tdp: Some(Watts(62.0)),
            measurement: MeasurementTech::Rapl,
            // No turbo in the capped study: uncapped runs sit at 2.7 GHz on
            // every module, giving the paper's Vf = 1.00 baseline.
            pstates: PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.7), GigaHertz(0.1)),
            power_model: ModulePowerModel {
                cpu: CpuPowerModel {
                    voltage: VoltageCurve { v0: 0.60, v1: 0.10 },
                    dynamic_scale: Watts(36.7),
                    leakage: Watts(18.0),
                    idle: Watts(8.0),
                    gated_leakage_fraction: 1.0,
                },
                dram: DramPowerModel {
                    standby: Watts(4.0),
                    base: Watts(20.0),
                    slope_per_ghz: Watts(4.0),
                },
            },
            variability: VariabilityModel {
                dynamic_sigma: 0.035,
                leakage_sigma: 0.20,
                dram_sigma: 0.142,
                within_die_sigma: 0.05,
                perf_sigma: 0.0,
                perf_power_corr: 0.0,
            },
            modules_studied: 1920,
            modules_per_measurement: 1,
        }
    }

    /// **Cab** — Sandy Bridge with Turbo Boost; Fig. 1(A): ≈23% max CPU
    /// power variation over 2,386 sockets, essentially no performance
    /// variation (frequency-binned parts).
    pub fn cab() -> SystemSpec {
        SystemSpec {
            id: SystemId::Cab,
            name: "Cab".to_string(),
            site: "Lawrence Livermore National Laboratory".to_string(),
            microarchitecture: "Intel E5-2670 Sandy Bridge".to_string(),
            total_nodes: 1296,
            procs_per_node: 2,
            cores_per_proc: 8,
            memory_per_node_gb: 32,
            tdp: Some(Watts(115.0)),
            dram_tdp: None, // DRAM readings unavailable (BIOS restrictions)
            measurement: MeasurementTech::Rapl,
            pstates: PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.6), GigaHertz(0.1))
                .with_turbo(GigaHertz(3.3)),
            power_model: ModulePowerModel {
                cpu: CpuPowerModel {
                    voltage: VoltageCurve { v0: 0.60, v1: 0.10 },
                    dynamic_scale: Watts(30.0),
                    leakage: Watts(20.0),
                    idle: Watts(8.0),
                    gated_leakage_fraction: 1.0,
                },
                dram: DramPowerModel {
                    standby: Watts(3.0),
                    base: Watts(12.0),
                    slope_per_ghz: Watts(3.0),
                },
            },
            variability: VariabilityModel {
                dynamic_sigma: 0.025,
                leakage_sigma: 0.12,
                dram_sigma: 0.10,
                within_die_sigma: 0.05,
                perf_sigma: 0.0,
                perf_power_corr: 0.0,
            },
            modules_studied: 2386,
            modules_per_measurement: 1,
        }
    }

    /// **Vulcan** — BlueGene/Q. EMON measures per *node board* (32 compute
    /// cards), so the observed ≈11% variation is already an average over 32
    /// chips; the underlying chip-level distribution is wider.
    pub fn vulcan() -> SystemSpec {
        SystemSpec {
            id: SystemId::Vulcan,
            name: "BG/Q Vulcan".to_string(),
            site: "Lawrence Livermore National Laboratory".to_string(),
            microarchitecture: "IBM PowerPC A2".to_string(),
            total_nodes: 24576,
            procs_per_node: 1,
            cores_per_proc: 16,
            memory_per_node_gb: 16,
            tdp: None, // "Unreported (Max 100 kW per rack)"
            dram_tdp: None,
            measurement: MeasurementTech::BgqEmon,
            pstates: PStateTable::new(&[GigaHertz(1.6)], None), // fixed-frequency part
            power_model: ModulePowerModel {
                cpu: CpuPowerModel {
                    voltage: VoltageCurve { v0: 0.60, v1: 0.10 },
                    dynamic_scale: Watts(30.0),
                    leakage: Watts(12.0),
                    idle: Watts(5.0),
                    gated_leakage_fraction: 1.0,
                },
                dram: DramPowerModel {
                    standby: Watts(2.0),
                    base: Watts(8.0),
                    slope_per_ghz: Watts(2.0),
                },
            },
            variability: VariabilityModel {
                dynamic_sigma: 0.10,
                leakage_sigma: 0.45,
                dram_sigma: 0.10,
                within_die_sigma: 0.05,
                perf_sigma: 0.0,
                perf_power_corr: 0.0,
            },
            modules_studied: 1536,
            modules_per_measurement: 32,
        }
    }

    /// **Teller** — AMD Piledriver with Turbo Core; Fig. 1(C): ≈21% power
    /// *and* ≈17% performance variation over 64 processors, with a negative
    /// correlation between slowdown and power (the more power-hungry parts
    /// were faster — the paper suspects a different binning strategy).
    pub fn teller() -> SystemSpec {
        SystemSpec {
            id: SystemId::Teller,
            name: "Teller".to_string(),
            site: "Sandia National Laboratory".to_string(),
            microarchitecture: "AMD A10-5800K Piledriver".to_string(),
            total_nodes: 104,
            procs_per_node: 1,
            cores_per_proc: 4,
            memory_per_node_gb: 16,
            tdp: Some(Watts(100.0)),
            dram_tdp: None,
            measurement: MeasurementTech::PowerInsight,
            pstates: PStateTable::evenly_spaced(GigaHertz(1.4), GigaHertz(3.8), GigaHertz(0.2))
                .with_turbo(GigaHertz(4.2)),
            power_model: ModulePowerModel {
                cpu: CpuPowerModel {
                    voltage: VoltageCurve { v0: 0.55, v1: 0.11 },
                    dynamic_scale: Watts(16.0),
                    leakage: Watts(15.0),
                    idle: Watts(6.0),
                    gated_leakage_fraction: 1.0,
                },
                dram: DramPowerModel {
                    standby: Watts(2.0),
                    base: Watts(10.0),
                    slope_per_ghz: Watts(1.5),
                },
            },
            variability: VariabilityModel {
                dynamic_sigma: 0.033,
                leakage_sigma: 0.15,
                dram_sigma: 0.10,
                within_die_sigma: 0.06,
                perf_sigma: 0.033,
                perf_power_corr: 0.8,
            },
            modules_studied: 64,
            modules_per_measurement: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerActivity;
    use crate::units::GigaHertz;
    use crate::variability::ModuleVariation;
    use vap_stats::descriptive::quantile;
    use vap_stats::Summary;

    #[test]
    fn table2_facts() {
        let cab = SystemSpec::cab();
        assert_eq!(cab.total_nodes * cab.procs_per_node, 2592);
        assert_eq!(cab.tdp, Some(Watts(115.0)));
        assert_eq!(cab.cores_per_proc, 8);

        let vulcan = SystemSpec::vulcan();
        assert_eq!(vulcan.total_nodes, 24576);
        assert_eq!(vulcan.tdp, None);
        assert_eq!(vulcan.modules_per_measurement, 32);

        let teller = SystemSpec::teller();
        assert_eq!(teller.total_nodes * teller.procs_per_node, 104);
        assert_eq!(teller.modules_studied, 64);

        let ha8k = SystemSpec::ha8k();
        assert_eq!(ha8k.total_nodes * ha8k.procs_per_node, 1920);
        assert_eq!(ha8k.dram_tdp, Some(Watts(62.0)));
        assert_eq!(ha8k.pstates.f_max(), GigaHertz(2.7));
        assert_eq!(ha8k.pstates.f_min(), GigaHertz(1.2));
    }

    #[test]
    fn get_round_trips_ids() {
        for id in SystemId::ALL {
            assert_eq!(SystemSpec::get(id).id, id);
        }
    }

    #[test]
    fn measurement_table1_semantics() {
        assert!(MeasurementTech::Rapl.supports_capping());
        assert!(!MeasurementTech::PowerInsight.supports_capping());
        assert!(!MeasurementTech::BgqEmon.supports_capping());
        assert_eq!(MeasurementTech::Rapl.granularity_s(), 1e-3);
        assert_eq!(MeasurementTech::BgqEmon.granularity_s(), 0.3);
        assert!(MeasurementTech::Rapl.reports_average());
        assert!(!MeasurementTech::BgqEmon.reports_average());
    }

    #[test]
    fn ha8k_nominal_cpu_power_matches_paper_scale() {
        let spec = SystemSpec::ha8k();
        let v = ModuleVariation::nominal(0, spec.cores_per_proc);
        let act = PowerActivity { cpu: 1.0, dram: 0.25 };
        let p_cpu = spec.power_model.cpu_power(spec.pstates.f_max(), act, &v, 1.0);
        // paper Fig. 2(i): *DGEMM CPU average ≈ 100.8 W
        assert!((p_cpu.value() - 100.8).abs() < 3.0, "p_cpu = {p_cpu}");
        let p_dram = spec.power_model.dram_power(spec.pstates.f_max(), act, &v);
        // paper: DRAM average ≈ 12.0 W
        assert!((p_dram.value() - 12.0).abs() < 2.0, "p_dram = {p_dram}");
    }

    #[test]
    fn ha8k_dram_vp_ensemble_brackets_the_paper() {
        // Uncapped *DGEMM's DRAM Vp is the max/min of the fleet's DRAM
        // multipliers. Over 200 fleets of 1,920 modules, the paper's 2.84
        // (Fig. 2(i)) must lie inside the central 80% of that ratio.
        let spec = SystemSpec::ha8k();
        let vps: Vec<f64> = (0..200)
            .map(|seed| {
                let fleet =
                    spec.variability.sample_fleet(spec.modules_studied, spec.cores_per_proc, seed);
                let drams: Vec<f64> = fleet.iter().map(|v| v.dram).collect();
                let s = Summary::of(&drams).unwrap();
                s.max / s.min
            })
            .collect();
        let p10 = quantile(&vps, 0.1).unwrap();
        let p90 = quantile(&vps, 0.9).unwrap();
        assert!(p10 < 2.84 && p90 > 2.84, "paper's 2.84 outside p10–p90 [{p10:.3}, {p90:.3}]");
    }

    #[test]
    fn only_rapl_systems_can_cap() {
        assert!(SystemSpec::ha8k().measurement.supports_capping());
        assert!(SystemSpec::cab().measurement.supports_capping());
        assert!(!SystemSpec::vulcan().measurement.supports_capping());
        assert!(!SystemSpec::teller().measurement.supports_capping());
    }

    #[test]
    fn turbo_configuration_matches_study() {
        // Turbo enabled on Cab and Teller (Fig. 1); HA8K runs at nominal.
        let turbo = |s: SystemSpec| s.pstates.uncapped() > s.pstates.f_max();
        assert!(turbo(SystemSpec::cab()));
        assert!(turbo(SystemSpec::teller()));
        assert!(!turbo(SystemSpec::ha8k()));
    }
}
