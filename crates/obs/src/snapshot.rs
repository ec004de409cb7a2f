//! Telemetry snapshots: the data model the live service plane publishes.
//!
//! A [`TelemetrySnapshot`] is one epoch-stamped, immutable view of the
//! fleet — per-module power / frequency / cap / duty / throttle plus the
//! cluster-level aggregates a scheduler dashboard needs. Snapshots are
//! produced by the simulation tick (the *sensor* side) and consumed by
//! arbitrarily many concurrent exporters and scrapers (the *exporter*
//! side) through a [`crate::registry::SnapshotRegistry`].
//!
//! Every snapshot carries a [`checksum`](TelemetrySnapshot::checksum)
//! sealed at publish time, so [`TelemetrySnapshot::verify`] can check
//! that what a reader holds is exactly what the writer sealed: the
//! registry's property test (`tests/registry_props.rs`) holds every read
//! to it under concurrent publishes, and the daemon's determinism tests
//! compare checksum streams.

use crate::json::{self, ObjectWriter, ToJson};

/// One module's telemetry at a snapshot instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSample {
    /// Fleet-wide module index.
    pub id: u64,
    /// Average module (CPU + DRAM) power draw in watts.
    pub power_w: f64,
    /// Effective frequency in GHz (clock × duty under modulation).
    pub freq_ghz: f64,
    /// Programmed RAPL cap in watts, if any.
    pub cap_w: Option<f64>,
    /// Run fraction in `[0, 1]` (1.0 except under clock modulation).
    pub duty: f64,
    /// Whether RAPL's dynamic control is actively limiting the module.
    pub throttled: bool,
}

/// One module's live drift alert (EWMA residual outside the z-band).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlertSample {
    /// The drifting module.
    pub module: u64,
    /// Measured − PVT-predicted power residual (W).
    pub residual_w: f64,
    /// How many tracked standard deviations out the residual sits.
    pub z: f64,
}

/// One `(bucket upper bound, cumulative-ready count)` pair; serializes
/// as a two-element array `[le, count]` to keep snapshot lines compact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount(pub f64, pub u64);

/// One named histogram in a snapshot, in Prometheus-friendly shape:
/// per-bucket counts (non-cumulative; the exporter accumulates into
/// `le`-labelled cumulative buckets) plus `count`/`sum`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name (fixed vocabulary).
    pub name: String,
    /// Finite observation count.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// `(upper bound, count)` per occupied bucket, ascending.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSample {
    /// Snapshot a [`crate::metrics::Histogram`] under `name`.
    pub fn from_histogram(name: &str, h: &crate::metrics::Histogram) -> Self {
        HistogramSample {
            name: name.to_string(),
            count: h.count,
            sum: h.sum,
            buckets: h
                .buckets
                .iter()
                .map(|(&k, &n)| BucketCount(crate::hist::bucket_upper_bound(k), n))
                .collect(),
        }
    }
}

/// One epoch-stamped view of the whole simulated cluster.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Publish sequence number, assigned by the registry (1, 2, 3, …;
    /// 0 is the registry's empty initial snapshot).
    pub epoch: u64,
    /// Simulated time of the snapshot (seconds).
    pub sim_time_s: f64,
    /// Fleet-level power draw (W).
    pub total_power_w: f64,
    /// Cluster-level power cap in effect (W); 0 when uncapped.
    pub cap_w: f64,
    /// Jobs currently running (0 outside a scheduling campaign).
    pub running_jobs: u64,
    /// Jobs currently queued (0 outside a scheduling campaign).
    pub queued_jobs: u64,
    /// Drift alerts raised over the producer's lifetime.
    pub drift_alerts: u64,
    /// Modules currently outside the drift z-band, in module-id order.
    pub alerts: Vec<DriftAlertSample>,
    /// Named histograms (JCT, solver iterations, latencies), name-sorted.
    pub hists: Vec<HistogramSample>,
    /// Per-module samples, in module-id order.
    pub modules: Vec<ModuleSample>,
    /// FNV-1a fingerprint over every other field, written by
    /// [`TelemetrySnapshot::seal`]. A reader that observes
    /// `verify() == true` holds an untorn snapshot.
    pub checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

impl TelemetrySnapshot {
    /// The checksum of the current contents (excluding the stored
    /// `checksum` field itself). Floats hash by bit pattern, so the
    /// fingerprint is exact, not tolerance-based.
    pub fn compute_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv(&mut h, &self.epoch.to_le_bytes());
        fnv(&mut h, &self.sim_time_s.to_bits().to_le_bytes());
        fnv(&mut h, &self.total_power_w.to_bits().to_le_bytes());
        fnv(&mut h, &self.cap_w.to_bits().to_le_bytes());
        fnv(&mut h, &self.running_jobs.to_le_bytes());
        fnv(&mut h, &self.queued_jobs.to_le_bytes());
        fnv(&mut h, &self.drift_alerts.to_le_bytes());
        fnv(&mut h, &(self.alerts.len() as u64).to_le_bytes());
        for a in &self.alerts {
            fnv(&mut h, &a.module.to_le_bytes());
            fnv(&mut h, &a.residual_w.to_bits().to_le_bytes());
            fnv(&mut h, &a.z.to_bits().to_le_bytes());
        }
        fnv(&mut h, &(self.hists.len() as u64).to_le_bytes());
        for hs in &self.hists {
            fnv(&mut h, hs.name.as_bytes());
            fnv(&mut h, &[0]);
            fnv(&mut h, &hs.count.to_le_bytes());
            fnv(&mut h, &hs.sum.to_bits().to_le_bytes());
            fnv(&mut h, &(hs.buckets.len() as u64).to_le_bytes());
            for b in &hs.buckets {
                fnv(&mut h, &b.0.to_bits().to_le_bytes());
                fnv(&mut h, &b.1.to_le_bytes());
            }
        }
        fnv(&mut h, &(self.modules.len() as u64).to_le_bytes());
        for m in &self.modules {
            fnv(&mut h, &m.id.to_le_bytes());
            fnv(&mut h, &m.power_w.to_bits().to_le_bytes());
            fnv(&mut h, &m.freq_ghz.to_bits().to_le_bytes());
            match m.cap_w {
                Some(c) => fnv(&mut h, &c.to_bits().to_le_bytes()),
                None => fnv(&mut h, &[0xFF]),
            }
            fnv(&mut h, &m.duty.to_bits().to_le_bytes());
            fnv(&mut h, &[u8::from(m.throttled)]);
        }
        h
    }

    /// Stamp `epoch` and write the checksum; done by the registry at
    /// publish time.
    pub fn seal(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self.checksum = self.compute_checksum();
        self
    }

    /// Whether the stored checksum matches the contents — i.e. the
    /// snapshot is internally consistent (not torn, not tampered).
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }

    /// One line of newline-delimited JSON (the streaming exporter's wire
    /// format), written through the [`crate::json`] primitives so the
    /// serving plane's hot path allocates exactly one string.
    pub fn to_json_line(&self) -> String {
        // ~96 bytes per module sample plus a fixed-size header.
        let mut out = String::with_capacity(128 + 96 * self.modules.len());
        self.write_json(&mut out);
        out
    }
}

impl ToJson for DriftAlertSample {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("module", &self.module).field("residual_w", &self.residual_w).field("z", &self.z);
        o.end();
    }
}

impl ToJson for BucketCount {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        json::push_f64(out, self.0);
        out.push(',');
        json::push_u64(out, self.1);
        out.push(']');
    }
}

impl ToJson for HistogramSample {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("name", &self.name)
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("buckets", &self.buckets);
        o.end();
    }
}

impl ToJson for ModuleSample {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("id", &self.id)
            .field("power_w", &self.power_w)
            .field("freq_ghz", &self.freq_ghz)
            .field("cap_w", &self.cap_w)
            .field("duty", &self.duty)
            .field("throttled", &self.throttled);
        o.end();
    }
}

impl ToJson for TelemetrySnapshot {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("epoch", &self.epoch)
            .field("sim_time_s", &self.sim_time_s)
            .field("total_power_w", &self.total_power_w)
            .field("cap_w", &self.cap_w)
            .field("running_jobs", &self.running_jobs)
            .field("queued_jobs", &self.queued_jobs)
            .field("drift_alerts", &self.drift_alerts)
            .field("alerts", &self.alerts)
            .field("hists", &self.hists)
            .field("modules", &self.modules)
            .field("checksum", &self.checksum);
        o.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            epoch: 0,
            sim_time_s: 12.5,
            total_power_w: 640.0,
            cap_w: 768.0,
            running_jobs: 3,
            queued_jobs: 1,
            drift_alerts: 2,
            alerts: vec![DriftAlertSample { module: 0, residual_w: 5.5, z: 6.25 }],
            hists: vec![HistogramSample {
                name: "sched.jct_s".to_string(),
                count: 2,
                sum: 3.5,
                buckets: vec![BucketCount(1.0625, 1), BucketCount(2.625, 1)],
            }],
            modules: vec![
                ModuleSample {
                    id: 0,
                    power_w: 80.0,
                    freq_ghz: 2.4,
                    cap_w: Some(90.0),
                    duty: 1.0,
                    throttled: true,
                },
                ModuleSample {
                    id: 1,
                    power_w: 20.0,
                    freq_ghz: 2.7,
                    cap_w: None,
                    duty: 1.0,
                    throttled: false,
                },
            ],
            checksum: 0,
        }
    }

    #[test]
    fn seal_then_verify_roundtrips() {
        let s = sample().seal(7);
        assert_eq!(s.epoch, 7);
        assert!(s.verify());
    }

    #[test]
    fn any_field_change_breaks_verification() {
        let sealed = sample().seal(7);
        let mut torn = sealed.clone();
        torn.total_power_w += 1.0;
        assert!(!torn.verify());
        let mut torn = sealed.clone();
        torn.modules[1].duty = 0.5;
        assert!(!torn.verify());
        let mut torn = sealed.clone();
        torn.modules[0].cap_w = None;
        assert!(!torn.verify());
        let mut torn = sealed.clone();
        torn.drift_alerts += 1;
        assert!(!torn.verify());
        let mut torn = sealed.clone();
        torn.alerts[0].z = 1.0;
        assert!(!torn.verify());
        let mut torn = sealed.clone();
        torn.hists[0].buckets[1].1 += 1;
        assert!(!torn.verify());
        let mut torn = sealed;
        torn.epoch += 1;
        assert!(!torn.verify());
    }

    #[test]
    fn json_line_shape_is_stable() {
        let s = sample().seal(3);
        let line = s.to_json_line();
        let expected = format!(
            "{{\"epoch\":3,\"sim_time_s\":12.5,\"total_power_w\":640,\"cap_w\":768,\
             \"running_jobs\":3,\"queued_jobs\":1,\"drift_alerts\":2,\
             \"alerts\":[{{\"module\":0,\"residual_w\":5.5,\"z\":6.25}}],\
             \"hists\":[{{\"name\":\"sched.jct_s\",\"count\":2,\"sum\":3.5,\
             \"buckets\":[[1.0625,1],[2.625,1]]}}],\"modules\":[\
             {{\"id\":0,\"power_w\":80,\"freq_ghz\":2.4,\"cap_w\":90,\"duty\":1,\"throttled\":true}},\
             {{\"id\":1,\"power_w\":20,\"freq_ghz\":2.7,\"cap_w\":null,\"duty\":1,\"throttled\":false}}\
             ],\"checksum\":{}}}",
            s.checksum
        );
        assert_eq!(line, expected);
        // non-finite floats cannot appear in a JSON number position
        let mut weird = sample();
        weird.total_power_w = f64::NAN;
        weird.sim_time_s = f64::INFINITY;
        let line = weird.seal(1).to_json_line();
        assert!(line.contains("\"total_power_w\":null"));
        assert!(line.contains("\"sim_time_s\":null"));
        assert!(!line.contains("NaN") && !line.contains("inf"));
    }

    #[test]
    fn json_line_parses_back_exactly() {
        let mut s = sample();
        s.sim_time_s = 0.1 + 0.2; // a value with a long shortest form
        let s = s.seal(3);
        let line = s.to_json_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let num = |v: &json::Value| match v {
            json::Value::Number(n) => n.clone(),
            other => panic!("not a number: {other:?}"),
        };
        let field = |k: &str| v.get(k).map(num).unwrap();
        assert_eq!(field("checksum").parse::<u64>().unwrap(), s.checksum);
        assert_eq!(field("sim_time_s").parse::<f64>().unwrap().to_bits(), s.sim_time_s.to_bits());
        assert_eq!(field("running_jobs"), "3");
        let modules = match v.get("modules") {
            Some(json::Value::Array(m)) => m.len(),
            other => panic!("modules: {other:?}"),
        };
        assert_eq!(modules, 2);
        assert_eq!(v.get("hists").unwrap().to_json(), s.hists.to_json());
    }

    #[test]
    fn default_snapshot_is_sealable() {
        let s = TelemetrySnapshot::default().seal(0);
        assert!(s.verify());
        assert!(s.modules.is_empty());
    }
}
