//! The three power measurement technologies of Table 1.
//!
//! | Technique | Reported | Granularity | Power capping |
//! |---|---|---|---|
//! | RAPL | Average | 1 ms | Yes |
//! | PowerInsight | Instantaneous | 1 ms (or less) | No |
//! | BGQ EMON | Instantaneous | 300 ms | No |
//!
//! RAPL derives average power from wrapping energy counters
//! ([`RaplEnergyMeter`]); PowerInsight and EMON are sensor paths with
//! sampling noise ([`PowerSensor`]); EMON additionally measures per *node
//! board* — 32 compute cards at once — which is why Vulcan's observed
//! variation is an average over 32 chips ([`board_power`]).

use crate::cluster::ModuleView;
use crate::msr::EnergyCounter;
use vap_model::rng::SplitMix64;
use vap_model::systems::MeasurementTech;
use vap_model::units::{Seconds, Watts};

/// A sensor-style sampler of CPU package power with
/// technology-appropriate noise.
#[derive(Debug, Clone)]
pub struct PowerSensor {
    noise_frac: f64,
    rng: SplitMix64,
}

impl PowerSensor {
    /// Create a sensor of the given technology. Noise magnitudes reflect
    /// the character of each path: RAPL is a smooth model-based estimate
    /// (~0.3%), PowerInsight hall-effect sensors ~1%, EMON DCA
    /// microcontroller path ~1%.
    pub fn new(tech: MeasurementTech, seed: u64) -> Self {
        let noise_frac = match tech {
            MeasurementTech::Rapl => 0.003,
            MeasurementTech::PowerInsight => 0.01,
            MeasurementTech::BgqEmon => 0.01,
        };
        PowerSensor { noise_frac, rng: SplitMix64::new(seed) }
    }

    /// Sample one module's CPU power (instantaneous, with sensor noise).
    pub fn sample(&mut self, module: ModuleView<'_>) -> Watts {
        self.add_noise(module.cpu_power())
    }

    /// Average several samples over a measurement period — the standard
    /// procedure for characterizing steady workloads.
    pub fn sample_averaged(&mut self, module: ModuleView<'_>, n: usize) -> Watts {
        assert!(n > 0);
        let mut acc = Watts::ZERO;
        for _ in 0..n {
            acc += self.sample(module);
        }
        acc / n as f64
    }

    fn add_noise(&mut self, truth: Watts) -> Watts {
        let eps = self.noise_frac * self.rng.next_normal();
        (truth * (1.0 + eps)).max(Watts::ZERO)
    }
}

/// A RAPL-style average-power meter: reads the wrapping energy counters
/// ([`EnergyCounter::raw`], the `MSR_*_ENERGY_STATUS` values) before and
/// after an interval and divides by elapsed time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaplEnergyMeter {
    pkg_before: u32,
    dram_before: u32,
}

impl RaplEnergyMeter {
    /// Latch the current counters (the "before" reading).
    pub fn begin(module: ModuleView<'_>) -> Self {
        RaplEnergyMeter {
            pkg_before: module.pkg_counter().raw(),
            dram_before: module.dram_counter().raw(),
        }
    }

    /// Read the counters again and return `(pkg, dram)` average power over
    /// the elapsed interval.
    pub fn end(&self, module: ModuleView<'_>, elapsed: Seconds) -> (Watts, Watts) {
        assert!(elapsed.value() > 0.0, "measurement interval must be positive");
        let pkg = EnergyCounter::delta(self.pkg_before, module.pkg_counter().raw()) / elapsed;
        let dram = EnergyCounter::delta(self.dram_before, module.dram_counter().raw()) / elapsed;
        (pkg, dram)
    }
}

/// EMON-style node-board measurement: the sum of a group of modules'
/// CPU power, sampled with one sensor reading. On Vulcan each board
/// aggregates 32 compute cards.
pub fn board_power(modules: &[ModuleView<'_>], sensor: &mut PowerSensor) -> Watts {
    let mut total = Watts::ZERO;
    for &m in modules {
        total += m.cpu_power();
    }
    sensor.add_noise(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use vap_model::power::PowerActivity;
    use vap_model::systems::SystemSpec;
    use vap_model::variability::ModuleVariation;

    /// A one-module fleet on the nominal fingerprint, running busy.
    fn busy_module() -> Cluster {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), 1, 0);
        c.replace_silicon(0, ModuleVariation::nominal(0, 12));
        c.set_activity(0, PowerActivity { cpu: 1.0, dram: 0.25 });
        c
    }

    #[test]
    fn sensor_noise_is_small_and_unbiased() {
        let c = busy_module();
        let m = c.module(0);
        let truth = m.cpu_power();
        let mut s = PowerSensor::new(MeasurementTech::PowerInsight, 1);
        let avg = s.sample_averaged(m, 2000);
        assert!((avg.value() - truth.value()).abs() / truth.value() < 0.002);
        // individual samples do vary
        let a = s.sample(m);
        let b = s.sample(m);
        assert_ne!(a, b);
    }

    #[test]
    fn sensor_is_deterministic_in_seed() {
        let c = busy_module();
        let mut s1 = PowerSensor::new(MeasurementTech::Rapl, 42);
        let mut s2 = PowerSensor::new(MeasurementTech::Rapl, 42);
        let m = c.module(0);
        assert_eq!(s1.sample(m), s2.sample(m));
    }

    #[test]
    fn rapl_meter_recovers_average_power() {
        let mut c = busy_module();
        let meter = RaplEnergyMeter::begin(c.module(0));
        for _ in 0..500 {
            c.step(0, Seconds::from_millis(1.0));
        }
        let m = c.module(0);
        let (pkg, dram) = meter.end(m, Seconds(0.5));
        assert!((pkg.value() - m.cpu_power().value()).abs() < 0.01, "pkg = {pkg}");
        assert!((dram.value() - m.dram_power().value()).abs() < 0.01, "dram = {dram}");
    }

    #[test]
    fn emon_board_aggregates_members() {
        let mut c = Cluster::with_size(SystemSpec::vulcan(), 32, 5);
        c.set_activity_all(PowerActivity { cpu: 0.9, dram: 0.2 });
        c.step_all(Seconds(0.3));
        let truth: Watts = c.cpu_powers().into_iter().sum();
        let mut s = PowerSensor::new(MeasurementTech::BgqEmon, 9);
        let board: Vec<ModuleView<'_>> = c.modules().collect();
        let measured = board_power(&board, &mut s);
        assert!((measured.value() - truth.value()).abs() / truth.value() < 0.05);
    }
}
