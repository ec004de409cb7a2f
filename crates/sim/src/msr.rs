//! Model-specific register (MSR) encodings for the RAPL interface.
//!
//! On real Intel hardware the paper programs RAPL "with the help of
//! programmable Machine Specific Registers (MSRs) ... by using the libMSR
//! library". This module reproduces the bit layouts that matter, so the
//! capping path in this simulator goes through the same encode → decode
//! steps (including quantization!) that a real deployment does:
//!
//! * `MSR_RAPL_POWER_UNIT` (0x606) — global units: power in `1/2^PU` W,
//!   energy in `1/2^EU` J, time in `1/2^TU` s. We use the common Sandy
//!   Bridge values `PU=3` (1/8 W), `EU=16` (~15.3 µJ), `TU=10` (~0.98 ms).
//! * `MSR_PKG_POWER_LIMIT` (0x610) — power limit #1: 15-bit power in power
//!   units, enable + clamp bits, 7-bit floating-point time window
//!   ([`PowerLimitRegister`]).
//! * `MSR_PKG_ENERGY_STATUS` (0x611) and `MSR_DRAM_ENERGY_STATUS` (0x619)
//!   — free-running 32-bit energy counters in energy units that wrap (on
//!   real parts in about an hour at TDP) ([`EnergyCounter`]).

use vap_model::units::{Joules, Seconds, Watts};

/// Power-unit exponent: power quantum is `1/2^3 = 0.125 W`.
pub const POWER_UNIT_EXP: u32 = 3;
/// Energy-unit exponent: energy quantum is `1/2^16 ≈ 15.26 µJ`.
pub const ENERGY_UNIT_EXP: u32 = 16;
/// Time-unit exponent: time quantum is `1/2^10 ≈ 0.977 ms`.
pub const TIME_UNIT_EXP: u32 = 10;

/// The decoded contents of `MSR_PKG_POWER_LIMIT` (limit #1 only; the long
/// second window is not used in the paper's experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLimitRegister {
    /// The cap in watts (after quantization to 1/8 W).
    pub limit: Watts,
    /// Whether the limit is enabled.
    pub enabled: bool,
    /// Whether the hardware may clamp below OS-requested P-states.
    pub clamp: bool,
    /// The averaging window (after quantization).
    pub window: Seconds,
}

impl PowerLimitRegister {
    /// Encode into the 64-bit register layout:
    /// bits 14:0 power, 15 enable, 16 clamp, 23:17 time window
    /// (`window = 2^Y · (1 + Z/4) · time_unit` with Y in 21:17, Z in 23:22).
    pub fn encode(&self) -> u64 {
        let power_units =
            ((self.limit.value() * (1u64 << POWER_UNIT_EXP) as f64).round() as u64).min(0x7FFF);
        let mut bits = power_units & 0x7FFF;
        if self.enabled {
            bits |= 1 << 15;
        }
        if self.clamp {
            bits |= 1 << 16;
        }
        let (y, z) = encode_time_window(self.window);
        bits |= (y as u64 & 0x1F) << 17;
        bits |= (z as u64 & 0x3) << 22;
        bits
    }

    /// Decode from the 64-bit register layout.
    pub fn decode(bits: u64) -> Self {
        let power_units = bits & 0x7FFF;
        let limit = Watts(power_units as f64 / (1u64 << POWER_UNIT_EXP) as f64);
        let enabled = bits & (1 << 15) != 0;
        let clamp = bits & (1 << 16) != 0;
        let y = ((bits >> 17) & 0x1F) as u32;
        let z = ((bits >> 22) & 0x3) as u32;
        let window = decode_time_window(y, z);
        PowerLimitRegister { limit, enabled, clamp, window }
    }
}

/// Encode a time window as `(Y, Z)` with
/// `window = 2^Y · (1 + Z/4) / 2^TIME_UNIT_EXP` seconds, picking the
/// representable value closest to (and defaulting to one time unit for
/// sub-quantum requests).
///
/// The values rise with `(Y, Z)`, so the rounded errors fall to the
/// closest value and never fall again after it: the search stops at the
/// first error larger than the best, which the closest value precedes.
fn encode_time_window(window: Seconds) -> (u32, u32) {
    let target = (window.value() * (1u64 << TIME_UNIT_EXP) as f64).max(1.0);
    let mut best = (0u32, 0u32);
    let mut best_err = f64::INFINITY;
    'search: for y in 0..32u32 {
        for z in 0..4u32 {
            let v = (1u64 << y) as f64 * (1.0 + z as f64 / 4.0);
            let err = (v - target).abs();
            if err < best_err {
                best_err = err;
                best = (y, z);
            } else if err > best_err {
                break 'search;
            }
        }
    }
    best
}

fn decode_time_window(y: u32, z: u32) -> Seconds {
    let units = (1u64 << y.min(31)) as f64 * (1.0 + z as f64 / 4.0);
    Seconds(units / (1u64 << TIME_UNIT_EXP) as f64)
}

/// A free-running, wrapping 32-bit energy counter in hardware energy units.
///
/// Reading it twice and differencing (with wrap handling) is how RAPL
/// derives average power — and how this simulator's measurement layer does
/// too, so counter wrap bugs are reproducible here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyCounter {
    raw: u32,
    /// Sub-quantum accumulation that hasn't been committed to `raw` yet.
    residual: f64,
}

impl EnergyCounter {
    /// Accumulate `energy` joules into the counter (wrapping).
    pub fn accumulate(&mut self, energy: Joules) {
        let units = energy.value() * (1u64 << ENERGY_UNIT_EXP) as f64 + self.residual;
        let whole = units.floor();
        self.residual = units - whole;
        // The counter wraps modulo 2^32 exactly like hardware.
        self.raw = self.raw.wrapping_add((whole as u64 & 0xFFFF_FFFF) as u32);
    }

    /// Current raw register value.
    pub fn raw(&self) -> u32 {
        self.raw
    }

    /// Energy elapsed between two raw readings, wrap-corrected (valid as
    /// long as less than one full wrap elapsed between the readings).
    pub fn delta(before: u32, after: u32) -> Joules {
        let units = after.wrapping_sub(before);
        Joules(units as f64 / (1u64 << ENERGY_UNIT_EXP) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_limit_round_trip_with_quantization() {
        let reg = PowerLimitRegister {
            limit: Watts(77.3),
            enabled: true,
            clamp: true,
            window: Seconds::from_millis(1.0),
        };
        let back = PowerLimitRegister::decode(reg.encode());
        // quantized to 1/8 W: 77.3 → 77.375 (618 units... actually 618.4→618 = 77.25)
        assert!((back.limit.value() - 77.3).abs() <= 0.125 / 2.0 + 1e-9);
        assert!(back.enabled);
        assert!(back.clamp);
        // window quantized to the 2^Y(1+Z/4) grid around ~1 ms
        assert!((back.window.millis() - 1.0).abs() < 0.3);
    }

    #[test]
    fn power_limit_saturates_at_field_width() {
        let reg = PowerLimitRegister {
            limit: Watts(1e9),
            enabled: false,
            clamp: false,
            window: Seconds::from_millis(1.0),
        };
        let back = PowerLimitRegister::decode(reg.encode());
        assert!((back.limit.value() - 0x7FFF as f64 / 8.0).abs() < 1e-9);
        assert!(!back.enabled);
    }

    #[test]
    fn time_window_search_stops_at_the_closest_value() {
        // every (Y, Z) scanned, keeping the first of equally close values
        let exhaustive = |window: Seconds| {
            let target = (window.value() * (1u64 << TIME_UNIT_EXP) as f64).max(1.0);
            (0..32u32)
                .flat_map(|y| (0..4u32).map(move |z| (y, z)))
                .map(|(y, z)| {
                    ((y, z), ((1u64 << y) as f64 * (1.0 + z as f64 / 4.0) - target).abs())
                })
                .fold(((0, 0), f64::INFINITY), |best, c| if c.1 < best.1 { c } else { best })
                .0
        };
        // 2^50 s and 2^45 s round every error to a few ulps, so equal
        // errors come before the closest value
        let mut windows = vec![0.0, -1.0, 1e-9, 1.0, 2f64.powi(45), 2f64.powi(50), 1e300];
        windows.extend([f64::INFINITY, f64::NAN]);
        for y in 0..34u32 {
            for quarters in 0..8u32 {
                // the grid values, the midpoints between them, and near misses
                let units = (1u64 << y) as f64 * (1.0 + quarters as f64 / 8.0);
                for u in [units, units * (1.0 + 1e-12), units * (1.0 - 1e-12), units + 0.3] {
                    windows.push(u / (1u64 << TIME_UNIT_EXP) as f64);
                }
            }
        }
        windows.extend((1..2000).map(|ms| ms as f64 * 1e-4));
        for w in windows {
            assert_eq!(encode_time_window(Seconds(w)), exhaustive(Seconds(w)), "window {w} s");
        }
    }

    #[test]
    fn energy_counter_accumulates_and_diffs() {
        let mut c = EnergyCounter::default();
        let before = c.raw();
        c.accumulate(Joules(1.0));
        let after = c.raw();
        let d = EnergyCounter::delta(before, after);
        assert!((d.value() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn energy_counter_wraps_like_hardware() {
        let mut c = EnergyCounter::default();
        // 2^32 units = 65536 J; push close to wrap then past it.
        c.accumulate(Joules(65530.0));
        let before = c.raw();
        c.accumulate(Joules(10.0));
        let after = c.raw();
        assert!(after < before, "counter should have wrapped");
        let d = EnergyCounter::delta(before, after);
        assert!((d.value() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn sub_quantum_energy_is_not_lost() {
        let mut c = EnergyCounter::default();
        // 1 µJ at a time is below the 15.26 µJ quantum; 1000 of them must
        // still sum to ~1 mJ.
        for _ in 0..1000 {
            c.accumulate(Joules(1e-6));
        }
        let d = EnergyCounter::delta(0, c.raw());
        assert!((d.value() - 1e-3).abs() < 2e-5);
    }

    #[test]
    fn window_encoding_covers_wide_range() {
        for ms in [1.0, 2.0, 10.0, 100.0] {
            let (y, z) = encode_time_window(Seconds::from_millis(ms));
            let w = decode_time_window(y, z);
            // representable grid is geometric with ratio <= 1.25
            assert!(w.millis() / ms < 1.3 && ms / w.millis() < 1.3, "ms={ms} w={w:?}");
        }
        // sub-quantum requests floor at one time unit (~0.977 ms)
        let (y, z) = encode_time_window(Seconds::from_millis(0.1));
        let w = decode_time_window(y, z);
        assert!((w.millis() - 1000.0 / 1024.0).abs() < 1e-9);
    }
}
