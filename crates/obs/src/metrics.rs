//! Deterministic counters and histograms.
//!
//! A [`Metrics`] registry is a pure function of the `incr`/`observe`
//! calls that fed it: no clocks, no thread ids, no iteration-order
//! surprises (`BTreeMap` keys). Merging two registries is commutative
//! and associative, which is what lets per-cell metrics collected on
//! arbitrary worker threads reduce to a byte-identical journal at any
//! `--threads` count (the contract test in the workspace's
//! `tests/golden_digests.rs`).

use std::collections::BTreeMap;

use crate::hist;
use crate::json::{Fields, FromJson, ObjectWriter, ToJson, Value};

/// A sparse log-linear (HDR-style) histogram over `f64` observations.
///
/// Buckets are keyed by [`hist::bucket_index`]: each power of two is
/// split into [`hist::SUB_BUCKETS`] linear sub-buckets read directly
/// from the IEEE 754 exponent and top mantissa bits, so bucketing is
/// exact and platform-independent (no libm involved) and quantile
/// estimates carry ≤ 1/16 relative bucket error. Zeros and subnormals
/// land in the floor bucket [`hist::FLOOR_KEY`]; non-finite
/// observations (the `INFINITY` sync waits of a zero-rate rank) are
/// counted separately and excluded from `sum`/`min`/`max`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of finite observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Smallest finite observation (0 when `count == 0`).
    pub min: f64,
    /// Largest finite observation (0 when `count == 0`).
    pub max: f64,
    /// Number of non-finite observations (NaN, ±∞).
    pub nonfinite: u64,
    /// Finite observations per [`hist::bucket_index`] bucket.
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(hist::bucket_index(v)).or_insert(0) += 1;
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the finite
    /// observations by walking the cumulative bucket counts and
    /// reporting the upper edge of the bucket holding the target rank,
    /// clamped to the observed `[min, max]`. Magnitude-folded like the
    /// buckets themselves, so meaningful for the non-negative series
    /// (durations, latencies, iteration counts) this layer records.
    /// Returns `None` when no finite observations were recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // the extremes are tracked exactly — no bucket error at p0/p100
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&key, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(hist::bucket_upper_bound(key).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                if other.min < self.min {
                    self.min = other.min;
                }
                if other.max > self.max {
                    self.max = other.max;
                }
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.nonfinite += other.nonfinite;
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }
}

/// The journal's histogram object: every field, buckets as a
/// `{"key": count}` map in key order.
impl ToJson for Histogram {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("nonfinite", &self.nonfinite)
            .field("buckets", &self.buckets);
        o.end();
    }
}

impl FromJson for Histogram {
    fn from_value(v: &Value) -> Result<Self, String> {
        let mut f = Fields::of(v)?;
        let h = Histogram {
            count: f.get("count")?,
            sum: f.get("sum")?,
            min: f.get("min")?,
            max: f.get("max")?,
            nonfinite: f.get("nonfinite")?,
            buckets: f.get("buckets")?,
        };
        f.deny_unknown()?;
        Ok(h)
    }
}

/// A registry of named counters and histograms.
///
/// Metric names are `&'static str` by design: the hot path never
/// allocates for a name, and the fixed vocabulary keeps the exported
/// schema greppable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `by` to counter `name`.
    pub fn incr_by(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Record `v` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// Fold another registry into this one (commutative, associative).
    pub fn merge(&mut self, other: &Metrics) {
        for (&name, &n) in &other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Counter values, sorted by name.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Histograms, sorted by name.
    pub fn histograms(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_the_log_linear_key() {
        assert_eq!(hist::bucket_index(1.0), 0);
        assert_eq!(hist::bucket_index(1.99), 15);
        assert_eq!(hist::bucket_index(2.0), 16);
        assert_eq!(hist::bucket_index(0.5), -16);
        assert_eq!(hist::bucket_index(-8.0), 48);
        assert_eq!(hist::bucket_index(0.0), hist::FLOOR_KEY);
    }

    #[test]
    fn histogram_tracks_moments_and_nonfinite() {
        let mut h = Histogram::default();
        for v in [1.0, 3.0, 0.25, f64::INFINITY, f64::NAN] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.nonfinite, 2);
        assert_eq!(h.min, 0.25);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.sum, 4.25);
        // 1.0 → key 0; 3.0 = 1.5·2 → key 16+8; 0.25 → key -32
        assert_eq!(h.buckets.get(&0), Some(&1));
        assert_eq!(h.buckets.get(&24), Some(&1));
        assert_eq!(h.buckets.get(&-32), Some(&1));
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        assert_eq!(h.quantile(0.0), Some(1.0), "q=0 clamps to min");
        assert_eq!(h.quantile(1.0), Some(100.0), "q=1 clamps to max");
        let p50 = h.quantile(0.5).unwrap();
        assert!((45.0..=56.0).contains(&p50), "p50 of 1..=100 was {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((92.0..=100.0).contains(&p99), "p99 of 1..=100 was {p99}");
        assert!(Histogram::default().quantile(0.5).is_none());
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Metrics::new();
        a.incr_by("x", 2);
        a.observe("h", 1.0);
        a.observe("h", 9.0);
        let mut b = Metrics::new();
        b.incr_by("x", 3);
        b.incr_by("y", 1);
        b.observe("h", 0.5);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters()["x"], 5);
        assert_eq!(ab.histograms()["h"].count, 3);
        assert_eq!(ab.histograms()["h"].min, 0.5);
        assert_eq!(ab.histograms()["h"].max, 9.0);
    }

    #[test]
    fn merge_into_empty_preserves_extrema() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        b.observe("h", -4.0);
        a.merge(&b);
        assert_eq!(a.histograms()["h"].min, -4.0);
        assert_eq!(a.histograms()["h"].max, -4.0);
    }
}
