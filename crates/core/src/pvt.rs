//! The Power Variation Table (PVT).
//!
//! "The PVT is generated when the system is installed by executing
//! representative microbenchmarks on each module. The power parameters ...
//! are measured for each module, and the variation scales are obtained by
//! dividing each of these module power values by the respective average"
//! (§5.2). The paper uses *STREAM as the single microbenchmark; the
//! multi-PVT extension in [`crate::dynamic`] explores using several.
//!
//! Generation walks every module of the fleet — an O(fleet) cost paid
//! *once per system*, which is the paper's key scalability argument versus
//! per-job profiling of every allocation.

use vap_model::power::PowerActivity;
use vap_model::units::GigaHertz;
use vap_obs::json::{self, Fields, FromJson, ObjectWriter, ToJson, Value};
use vap_sim::cluster::{Cluster, ModuleView};
use vap_workloads::spec::WorkloadSpec;

/// Variation scales for one module: its power at each anchor divided by
/// the fleet average at that anchor (Fig. 6's left table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvtEntry {
    /// The module this entry describes.
    pub module_id: usize,
    /// CPU power scale at `f_max`.
    pub cpu_max: f64,
    /// CPU power scale at `f_min`.
    pub cpu_min: f64,
    /// DRAM power scale at `f_max`.
    pub dram_max: f64,
    /// DRAM power scale at `f_min`.
    pub dram_min: f64,
}

impl ToJson for PvtEntry {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("module_id", &self.module_id)
            .field("cpu_max", &self.cpu_max)
            .field("cpu_min", &self.cpu_min)
            .field("dram_max", &self.dram_max)
            .field("dram_min", &self.dram_min);
        o.end();
    }
}

impl FromJson for PvtEntry {
    fn from_value(v: &Value) -> Result<Self, String> {
        let mut f = Fields::of(v)?;
        Ok(PvtEntry {
            module_id: f.get("module_id")?,
            cpu_max: f.get("cpu_max")?,
            cpu_min: f.get("cpu_min")?,
            dram_max: f.get("dram_max")?,
            dram_min: f.get("dram_min")?,
        })
    }
}

/// The system-wide, application-independent Power Variation Table.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerVariationTable {
    /// Name of the microbenchmark the table was generated with.
    pub microbenchmark: String,
    /// Maximum-frequency anchor.
    pub f_max: GigaHertz,
    /// Minimum-frequency anchor.
    pub f_min: GigaHertz,
    /// Fleet-average raw anchor powers `[cpu_max, cpu_min, dram_max,
    /// dram_min]` in watts, recorded at assembly time. Scales are
    /// normalized by these, so keeping them lets a later *partial*
    /// re-calibration reconstruct every unaffected module's raw anchors
    /// (`scale × mean`) and renormalize the whole table consistently.
    /// Zeroed on tables persisted before this field existed
    /// ([`PowerVariationTable::recalibrate_modules`] falls back to a full
    /// sweep for those).
    anchor_means: [f64; 4],
    entries: Vec<PvtEntry>,
}

/// One module's raw anchor powers `(cpu_max, cpu_min, dram_max,
/// dram_min)` in watts, measured under its current workload.
fn measure(m: ModuleView<'_>, f_max: GigaHertz, f_min: GigaHertz) -> (f64, f64, f64, f64) {
    let (cpu_max, dram_max) = m.measure_anchors(f_max);
    let (cpu_min, dram_min) = m.measure_anchors(f_min);
    (cpu_max.value(), cpu_min.value(), dram_max.value(), dram_min.value())
}

impl PowerVariationTable {
    /// Generate the PVT by sweeping every module of the fleet with the
    /// given microbenchmark at `f_max` and `f_min` (the boot-time
    /// procedure). The fleet is left idle afterwards.
    pub fn generate(cluster: &mut Cluster, micro: &WorkloadSpec, seed: u64) -> Self {
        Self::generate_with_threads(cluster, micro, seed, 1)
    }

    /// [`PowerVariationTable::generate`] with the per-module sweep fanned
    /// over `threads` OS threads.
    ///
    /// The paper runs the microbenchmark "simultaneously on all modules"
    /// at install time; here each module is measured through
    /// [`ModuleView::measure_anchors`], which reads the fleet without
    /// changing it, so the table is bit-for-bit identical at any thread
    /// count — `threads = 1` is the serial sweep. The sweep allocates
    /// nothing per module, which is what keeps 10⁵–10⁶-module fleets
    /// tractable.
    pub fn generate_with_threads(
        cluster: &mut Cluster,
        micro: &WorkloadSpec,
        seed: u64,
        threads: usize,
    ) -> Self {
        let f_max = cluster.spec().pstates.f_max();
        let f_min = cluster.spec().pstates.f_min();
        let n = cluster.len();
        assert!(n > 0, "cannot generate a PVT for an empty fleet");

        // Put the microbenchmark on the whole fleet.
        micro.apply_to(cluster, seed);

        let raw: Vec<(f64, f64, f64, f64)> = {
            let fleet = &*cluster;
            vap_exec::par_map_fleet(n, seed, threads, |i, _module_seed| {
                vap_obs::incr("pvt.modules_swept");
                measure(fleet.module(i), f_max, f_min)
            })
        };

        // Restore the fleet to idle.
        for i in 0..n {
            cluster.set_workload_variation(i, None);
            cluster.set_activity(i, PowerActivity::IDLE);
        }

        Self::assemble(micro, f_max, f_min, raw)
    }

    /// Fold raw per-module anchor powers into variation scales (each
    /// module's power divided by the fleet average at that anchor) — the
    /// shared tail of the boot-time sweep and re-calibration.
    fn assemble(
        micro: &WorkloadSpec,
        f_max: GigaHertz,
        f_min: GigaHertz,
        raw: Vec<(f64, f64, f64, f64)>,
    ) -> Self {
        let nf = raw.len() as f64;
        let avg = raw.iter().fold([0.0f64; 4], |mut acc, r| {
            acc[0] += r.0 / nf;
            acc[1] += r.1 / nf;
            acc[2] += r.2 / nf;
            acc[3] += r.3 / nf;
            acc
        });
        let entries = raw
            .into_iter()
            .enumerate()
            .map(|(module_id, r)| PvtEntry {
                module_id,
                cpu_max: r.0 / avg[0],
                cpu_min: r.1 / avg[1],
                dram_max: r.2 / avg[2],
                dram_min: r.3 / avg[3],
            })
            .collect();

        PowerVariationTable {
            microbenchmark: micro.id.name().to_string(),
            f_max,
            f_min,
            anchor_means: avg,
            entries,
        }
    }

    /// Online re-calibration: re-run the microbenchmark sweep on the
    /// `affected` modules only — against whatever the silicon looks like
    /// *now*, accumulated drift included — and return a fresh table.
    ///
    /// Unaffected modules are not re-measured: their raw anchors are
    /// reconstructed from the stored scales and fleet means
    /// (`scale × mean`), then the whole table is renormalized, so the
    /// invariant that scales average to 1.0 survives re-calibration.
    /// Out-of-range ids are ignored; the affected modules are left idle,
    /// exactly as the boot-time sweep leaves the fleet. A table loaded
    /// from a pre-drift artifact (no stored anchor means) or sized for a
    /// different fleet falls back to the full boot-time sweep.
    pub fn recalibrate_modules(
        &self,
        cluster: &mut Cluster,
        micro: &WorkloadSpec,
        affected: &[usize],
        seed: u64,
    ) -> Self {
        let reconstructable = self.anchor_means.iter().all(|&m| m > 0.0);
        if !reconstructable || self.entries.len() != cluster.len() {
            return Self::generate_with_threads(cluster, micro, seed, 1);
        }
        let mut raw: Vec<(f64, f64, f64, f64)> = self
            .entries
            .iter()
            .map(|e| {
                (
                    e.cpu_max * self.anchor_means[0],
                    e.cpu_min * self.anchor_means[1],
                    e.dram_max * self.anchor_means[2],
                    e.dram_min * self.anchor_means[3],
                )
            })
            .collect();
        let ids: Vec<usize> = affected.iter().copied().filter(|&i| i < cluster.len()).collect();
        micro.apply_to_modules(cluster, &ids, seed);
        for &i in &ids {
            vap_obs::incr("pvt.modules_recalibrated");
            raw[i] = measure(cluster.module(i), self.f_max, self.f_min);
        }
        for &i in &ids {
            cluster.set_workload_variation(i, None);
            cluster.set_activity(i, PowerActivity::IDLE);
        }
        Self::assemble(micro, self.f_max, self.f_min, raw)
    }

    /// Number of modules covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry for one module.
    pub fn entry(&self, module_id: usize) -> Option<&PvtEntry> {
        self.entries.get(module_id).filter(|e| e.module_id == module_id)
    }

    /// Serialize to compact JSON (the PVT is a per-system artifact worth
    /// persisting — it is generated once at install time). Every scale
    /// reads back bit-for-bit.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + 112 * self.entries.len());
        let mut o = ObjectWriter::new(&mut out);
        o.field("microbenchmark", &self.microbenchmark)
            .field("f_max", &self.f_max.value())
            .field("f_min", &self.f_min.value())
            .field("anchor_means", self.anchor_means.as_slice())
            .field("entries", &self.entries);
        o.end();
        out
    }

    /// Load from JSON. Unknown fields are ignored, and a table persisted
    /// before `anchor_means` existed loads with zeroed means.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = json::parse(s)?;
        let mut f = Fields::of(&v)?;
        Ok(PowerVariationTable {
            microbenchmark: f.get("microbenchmark")?,
            f_max: GigaHertz(f.get("f_max")?),
            f_min: GigaHertz(f.get("f_min")?),
            anchor_means: f.get_or("anchor_means", [0.0; 4])?,
            entries: f.get("entries")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;
    use vap_workloads::catalog;
    use vap_workloads::spec::WorkloadId;

    fn pvt_for(n: usize, seed: u64) -> (Cluster, PowerVariationTable) {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), n, seed);
        let stream = catalog::get(WorkloadId::Stream);
        let pvt = PowerVariationTable::generate(&mut c, &stream, seed);
        (c, pvt)
    }

    #[test]
    fn scales_average_to_one() {
        let (_, pvt) = pvt_for(64, 3);
        assert_eq!(pvt.len(), 64);
        for field in [
            |e: &PvtEntry| e.cpu_max,
            |e: &PvtEntry| e.cpu_min,
            |e: &PvtEntry| e.dram_max,
            |e: &PvtEntry| e.dram_min,
        ] {
            let mean: f64 = pvt.entries.iter().map(field).sum::<f64>() / pvt.len() as f64;
            assert!((mean - 1.0).abs() < 1e-6, "mean scale {mean}");
        }
    }

    #[test]
    fn scales_spread_reflects_manufacturing_variation() {
        let (_, pvt) = pvt_for(256, 5);
        let max = pvt.entries.iter().map(|e| e.cpu_max).fold(f64::MIN, f64::max);
        let min = pvt.entries.iter().map(|e| e.cpu_max).fold(f64::MAX, f64::min);
        assert!(max / min > 1.1, "CPU scale spread {max}/{min}");
        // DRAM varies more than CPU (paper: DRAM Vp ≈ 2.8 vs module ≈ 1.3)
        let dmax = pvt.entries.iter().map(|e| e.dram_max).fold(f64::MIN, f64::max);
        let dmin = pvt.entries.iter().map(|e| e.dram_max).fold(f64::MAX, f64::min);
        assert!(dmax / dmin > max / min, "DRAM spread should exceed CPU spread");
    }

    #[test]
    fn generation_leaves_fleet_idle() {
        let (c, _) = pvt_for(8, 7);
        for m in c.modules() {
            assert_eq!(m.activity(), PowerActivity::IDLE);
            assert!(m.workload_variation().is_none());
            assert!(m.cap().is_none());
        }
    }

    #[test]
    fn metadata_records_microbenchmark_and_anchors() {
        let (_, pvt) = pvt_for(4, 1);
        assert_eq!(pvt.microbenchmark, "*STREAM");
        assert_eq!(pvt.f_max, GigaHertz(2.7));
        assert_eq!(pvt.f_min, GigaHertz(1.2));
    }

    #[test]
    fn json_round_trip() {
        let (_, pvt) = pvt_for(4, 9);
        let json = pvt.to_json();
        let back = PowerVariationTable::from_json(&json).unwrap();
        assert_eq!(pvt, back);
    }

    /// Two modules in the two-space pretty-printed layout PVT files were
    /// persisted in before the compact in-tree JSON writer.
    fn pretty_pvt(anchor_means: &str) -> String {
        format!(
            r#"{{
  "microbenchmark": "*STREAM",
  "f_max": 2.7,
  "f_min": 1.2,{anchor_means}
  "entries": [
    {{
      "module_id": 0,
      "cpu_max": 1.0213,
      "cpu_min": 0.9787,
      "dram_max": 1.0,
      "dram_min": 0.95
    }},
    {{
      "module_id": 1,
      "cpu_max": 0.9787,
      "cpu_min": 1.0213,
      "dram_max": 1.0,
      "dram_min": 1.05
    }}
  ]
}}"#
        )
    }

    #[test]
    fn pretty_pvt_files_still_load() {
        let expected = |anchor_means| PowerVariationTable {
            microbenchmark: "*STREAM".to_string(),
            f_max: GigaHertz(2.7),
            f_min: GigaHertz(1.2),
            anchor_means,
            entries: vec![
                PvtEntry {
                    module_id: 0,
                    cpu_max: 1.0213,
                    cpu_min: 0.9787,
                    dram_max: 1.0,
                    dram_min: 0.95,
                },
                PvtEntry {
                    module_id: 1,
                    cpu_max: 0.9787,
                    cpu_min: 1.0213,
                    dram_max: 1.0,
                    dram_min: 1.05,
                },
            ],
        };
        let with_means =
            pretty_pvt("\n  \"anchor_means\": [\n    95.5,\n    50.25,\n    12.0,\n    8.0\n  ],");
        assert_eq!(
            PowerVariationTable::from_json(&with_means).unwrap(),
            expected([95.5, 50.25, 12.0, 8.0])
        );
        // tables persisted before `anchor_means` existed load with zeros
        let without = pretty_pvt("");
        assert_eq!(PowerVariationTable::from_json(&without).unwrap(), expected([0.0; 4]));
        // and write back in the compact form, which loads to the same table
        let table = expected([95.5, 50.25, 12.0, 8.0]);
        assert_eq!(PowerVariationTable::from_json(&table.to_json()).unwrap(), table);
        assert!(!table.to_json().contains('\n'));
    }

    #[test]
    fn malformed_pvt_files_are_errors() {
        let good = pretty_pvt("");
        assert!(PowerVariationTable::from_json(&good.replace("\"f_max\"", "\"f_mux\"")).is_err());
        assert!(PowerVariationTable::from_json(&good.replace("1.0213", "\"x\"")).is_err());
        assert!(PowerVariationTable::from_json(&format!("{good}x")).is_err());
        let three = pretty_pvt("\"anchor_means\": [1, 2, 3],");
        assert!(PowerVariationTable::from_json(&three).unwrap_err().contains("anchor_means"));
    }

    #[test]
    fn entry_lookup() {
        let (_, pvt) = pvt_for(8, 11);
        assert_eq!(pvt.entry(3).unwrap().module_id, 3);
        assert!(pvt.entry(8).is_none());
        assert!(!pvt.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let (_, a) = pvt_for(16, 42);
        let (_, b) = pvt_for(16, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn recalibrating_nothing_reproduces_the_table() {
        let (mut c, pvt) = pvt_for(16, 23);
        let stream = catalog::get(WorkloadId::Stream);
        let again = pvt.recalibrate_modules(&mut c, &stream, &[], 23);
        assert_eq!(again.len(), pvt.len());
        for (a, b) in pvt.entries.iter().zip(again.entries) {
            assert!((a.cpu_max - b.cpu_max).abs() < 1e-12, "round-trip scale drifted");
            assert!((a.dram_min - b.dram_min).abs() < 1e-12);
        }
    }

    #[test]
    fn recalibration_tracks_silicon_drift() {
        use vap_model::variability::DriftSkew;
        let (mut c, stale) = pvt_for(32, 29);
        let aged = DriftSkew { dynamic: 1.08, leakage: 1.25, dram: 1.05 };
        c.apply_drift(3, &aged);
        let stream = catalog::get(WorkloadId::Stream);
        let fresh = stale.recalibrate_modules(&mut c, &stream, &[3], 29);
        // the drifted module's scale rises against its stale value...
        let before = stale.entry(3).unwrap().cpu_max;
        let after = fresh.entry(3).unwrap().cpu_max;
        assert!(after > before * 1.02, "recalibration must see the drift: {before} -> {after}");
        // ...while unaffected modules only move through renormalization
        for i in [0usize, 7, 31] {
            let b = stale.entry(i).unwrap().cpu_max;
            let a = fresh.entry(i).unwrap().cpu_max;
            assert!((a - b).abs() < 0.01, "module {i} moved {b} -> {a}");
        }
        // scales still average to 1.0 after renormalization
        let mean: f64 = fresh.entries.iter().map(|e| e.cpu_max).sum::<f64>() / fresh.len() as f64;
        assert!((mean - 1.0).abs() < 1e-6);
        // affected module left idle, like the boot-time sweep leaves it
        assert_eq!(c.module(3).activity(), PowerActivity::IDLE);
        assert!(c.module(3).workload_variation().is_none());
    }

    #[test]
    fn recalibration_falls_back_to_a_full_sweep_on_fleet_resize() {
        let (_, pvt) = pvt_for(8, 31);
        let stream = catalog::get(WorkloadId::Stream);
        let mut bigger = Cluster::with_size(SystemSpec::ha8k(), 12, 31);
        let fresh = pvt.recalibrate_modules(&mut bigger, &stream, &[2], 31);
        assert_eq!(fresh.len(), 12, "resized fleet takes the full-sweep path");
    }

    #[test]
    fn thread_count_does_not_change_the_table() {
        let stream = catalog::get(WorkloadId::Stream);
        let mut serial = Cluster::with_size(SystemSpec::ha8k(), 48, 13);
        let reference = PowerVariationTable::generate_with_threads(&mut serial, &stream, 13, 1);
        for threads in [2, 4, 7] {
            let mut c = Cluster::with_size(SystemSpec::ha8k(), 48, 13);
            let pvt = PowerVariationTable::generate_with_threads(&mut c, &stream, 13, threads);
            assert_eq!(pvt, reference, "threads = {threads}");
        }
    }
}
