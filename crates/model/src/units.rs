//! Strongly typed physical quantities.
//!
//! The workspace deals in four units — watts, gigahertz, seconds and joules —
//! and mixing them up (e.g. passing a module-level budget where a CPU cap is
//! expected) is exactly the class of bug a long simulation campaign cannot
//! afford. Each newtype is a transparent `f64` with only the arithmetic that
//! is dimensionally meaningful.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw `f64` value.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio of two like quantities is dimensionless.
        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                // folded from +0.0 so an empty sum is zero, not the -0.0
                // that std's `f64: Sum` starts from
                Self(iter.fold(0.0, |acc, x| acc + x.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);
unit!(
    /// CPU clock frequency in gigahertz.
    GigaHertz,
    "GHz"
);
unit!(
    /// Wall-clock duration in seconds.
    Seconds,
    "s"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);

impl Watts {
    /// Value in kilowatts.
    #[inline]
    // vap:allow(raw-unit-f64): deliberate unwrap to a raw scalar, mirroring
    // `value()`, for display in the paper's kW-quoted tables
    pub fn kilowatts(self) -> f64 {
        self.0 / 1e3
    }
}

impl Seconds {
    /// Convert from milliseconds (RAPL windows are ~1 ms).
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms / 1e3)
    }

    /// Value in milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }
}

/// Power × time = energy.
impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// Time × power = energy.
impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// Energy ÷ time = power.
impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

/// Energy ÷ power = time.
impl Div<Watts> for Joules {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let a = Watts(100.0);
        let b = Watts(30.0);
        assert_eq!(a + b, Watts(130.0));
        assert_eq!(a - b, Watts(70.0));
        assert_eq!(a * 2.0, Watts(200.0));
        assert_eq!(2.0 * a, Watts(200.0));
        assert_eq!(a / 4.0, Watts(25.0));
        assert_eq!(a / b, 100.0 / 30.0);
        assert!(a > b);
        assert_eq!((-b).0, -30.0);
    }

    #[test]
    fn accumulation() {
        let mut x = Watts(1.0);
        x += Watts(2.0);
        x -= Watts(0.5);
        assert_eq!(x, Watts(2.5));
        let total: Watts = vec![Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
    }

    #[test]
    fn energy_dimensional_analysis() {
        let e = Watts(50.0) * Seconds(4.0);
        assert_eq!(e, Joules(200.0));
        assert_eq!(Seconds(4.0) * Watts(50.0), Joules(200.0));
        assert_eq!(e / Seconds(4.0), Watts(50.0));
        assert_eq!(e / Watts(50.0), Seconds(4.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(Watts(96_000.0).kilowatts(), 96.0);
        assert_eq!(Seconds::from_millis(1.0), Seconds(0.001));
        assert_eq!(Seconds(0.3).millis(), 300.0);
    }

    #[test]
    fn min_max() {
        assert_eq!(GigaHertz(1.0).max(GigaHertz(1.2)), GigaHertz(1.2));
        assert_eq!(GigaHertz(1.0).min(GigaHertz(1.2)), GigaHertz(1.0));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{:.1}", Watts(112.83)), "112.8 W");
        assert_eq!(format!("{:.2}", GigaHertz(2.7)), "2.70 GHz");
        assert_eq!(format!("{}", Seconds(1.5)), "1.5 s");
    }
}
