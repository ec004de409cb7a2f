//! The watt-provenance ledger: per-tick attribution of the global power
//! budget to `(job, module, domain)` bins, with conservation enforced.
//!
//! Every tick a producer (the scheduler runtime, a PMMD region bracket)
//! splits the applied budget into four categories:
//!
//! * **useful** — watts the silicon actually drew for compute/DRAM;
//! * **throttle** — watts granted but lost to RAPL throttling or clock
//!   modulation (the module wanted the power and was denied);
//! * **headroom** — watts granted but never drawn because the part runs
//!   below its allocation (the manufacturing-variability headroom the
//!   paper's variation-aware schemes reclaim);
//! * **stranded** — watts the scheduler never allocated to any module
//!   (system-level slack, or a job-level residue between its budget and
//!   the Σ of its per-module allocations).
//!
//! The categories are constructed to *telescope*: per module-domain,
//! `useful + loss = granted`; per job, `Σ granted + residue = budget`;
//! per tick, `Σ budgets + stranded = cap`. [`LedgerTable::record`]
//! re-checks that invariant within a 1 ULP-scaled epsilon
//! ([`conservation_epsilon`]) and counts violations instead of silently
//! absorbing them — a broken ledger is a bug in the producer, not noise.
//!
//! Determinism: the table is a pure function of the ticks recorded into
//! it, keyed by `BTreeMap`, merged commutatively over bins — the same
//! contract as [`crate::metrics::Metrics`], so the exported `ledger.csv`
//! and journal records are byte-identical at any `--threads N`.

use std::collections::BTreeMap;

use crate::json::{self, Fields, FromJson, ObjectWriter, ToJson, Value};

/// Where attributed watts went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Watts drawn and turned into application progress.
    Useful,
    /// Granted watts lost to RAPL throttling / clock modulation.
    Throttle,
    /// Granted watts the part never drew (variability headroom).
    Headroom,
    /// Watts never allocated to any module.
    Stranded,
}

impl Category {
    /// All categories, in ledger column order.
    pub const ALL: [Category; 4] =
        [Category::Useful, Category::Throttle, Category::Headroom, Category::Stranded];

    /// Stable lowercase name (CSV/journal vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Category::Useful => "useful",
            Category::Throttle => "throttle",
            Category::Headroom => "headroom",
            Category::Stranded => "stranded",
        }
    }

    /// Index into a `[f64; 4]` per-category accumulator.
    pub fn index(self) -> usize {
        match self {
            Category::Useful => 0,
            Category::Throttle => 1,
            Category::Headroom => 2,
            Category::Stranded => 3,
        }
    }
}

/// The power domain a bin attributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Domain {
    /// CPU package power (the RAPL-capped domain).
    Cpu,
    /// DRAM power (never capped; the paper's §5 predicted domain).
    Dram,
}

impl Domain {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Cpu => "cpu",
            Domain::Dram => "dram",
        }
    }
}

impl ToJson for Category {
    fn write_json(&self, out: &mut String) {
        json::push_str(out, self.name());
    }
}

impl FromJson for Category {
    fn from_value(v: &Value) -> Result<Self, String> {
        let name = String::from_value(v)?;
        Category::ALL
            .into_iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| format!("unknown ledger category {name:?}"))
    }
}

impl ToJson for Domain {
    fn write_json(&self, out: &mut String) {
        json::push_str(out, self.name());
    }
}

impl FromJson for Domain {
    fn from_value(v: &Value) -> Result<Self, String> {
        let name = String::from_value(v)?;
        [Domain::Cpu, Domain::Dram]
            .into_iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| format!("unknown power domain {name:?}"))
    }
}

/// One attribution bin: `(job, module, domain, category)`. `None` fields
/// widen the bin: a job-level residue has no module/domain; system-level
/// stranded watts have no job either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BinKey {
    /// Owning job, if the watts were awarded to one.
    pub job: Option<u64>,
    /// Module the watts were programmed onto, if any.
    pub module: Option<u64>,
    /// Power domain, when the attribution is domain-resolved.
    pub domain: Option<Domain>,
    /// What happened to the watts.
    pub category: Category,
}

/// One attributed quantity inside a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// The bin this entry lands in.
    pub key: BinKey,
    /// Attributed power (W) over this tick.
    pub watts: f64,
}

impl LedgerEntry {
    /// A domain-resolved per-module entry.
    pub fn module(job: u64, module: u64, domain: Domain, category: Category, watts: f64) -> Self {
        LedgerEntry {
            key: BinKey { job: Some(job), module: Some(module), domain: Some(domain), category },
            watts,
        }
    }

    /// A job-level residue entry (budget minus Σ module allocations).
    pub fn job_residue(job: u64, watts: f64) -> Self {
        LedgerEntry {
            key: BinKey {
                job: Some(job),
                module: None,
                domain: None,
                category: Category::Stranded,
            },
            watts,
        }
    }

    /// The system-level stranded entry (cap minus Σ job budgets).
    pub fn system_stranded(watts: f64) -> Self {
        LedgerEntry {
            key: BinKey { job: None, module: None, domain: None, category: Category::Stranded },
            watts,
        }
    }
}

/// One tick's worth of attribution, handed to [`crate::ledger_tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerTick {
    /// Simulated time of the tick (seconds).
    pub t_s: f64,
    /// Width of the tick (seconds since the previous tick) — the weight
    /// that turns per-tick watts into accumulated watt-seconds.
    pub dt_s: f64,
    /// The budget the bins must sum to: the cluster cap in effect, or the
    /// plan budget for a single-region bracket.
    pub cap_w: f64,
    /// The attribution entries. Zero-watt entries may be omitted.
    pub entries: Vec<LedgerEntry>,
}

/// Conservation tolerance for a tick at `cap_w` with `entries` entries:
/// one ULP of the cap per summand, i.e. the worst-case accumulated
/// rounding of the telescoping sum, never tighter than one ULP of 1 W.
pub fn conservation_epsilon(cap_w: f64, entries: usize) -> f64 {
    cap_w.abs().max(1.0) * f64::EPSILON * (entries as f64 + 1.0)
}

/// Per-tick category totals, kept for the offline conservation re-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickTotals {
    /// Simulated time of the tick.
    pub t_s: f64,
    /// Tick width (s).
    pub dt_s: f64,
    /// Budget in effect.
    pub cap_w: f64,
    /// Watts per category, [`Category::index`]-ordered.
    pub totals_w: [f64; 4],
}

/// One serialized energy bin (journal vocabulary).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerBin {
    /// Owning job, if any.
    pub job: Option<u64>,
    /// Module, if module-resolved.
    pub module: Option<u64>,
    /// Domain, if domain-resolved.
    pub domain: Option<Domain>,
    /// Category.
    pub category: Category,
    /// Accumulated energy (watt-seconds) over all ticks.
    pub watt_s: f64,
}

impl ToJson for LedgerBin {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("job", &self.job)
            .field("module", &self.module)
            .field("domain", &self.domain)
            .field("category", &self.category)
            .field("watt_s", &self.watt_s);
        o.end();
    }
}

impl FromJson for LedgerBin {
    fn from_value(v: &Value) -> Result<Self, String> {
        let mut f = Fields::of(v)?;
        let bin = LedgerBin {
            job: f.get("job")?,
            module: f.get("module")?,
            domain: f.get("domain")?,
            category: f.get("category")?,
            watt_s: f.get("watt_s")?,
        };
        f.deny_unknown()?;
        Ok(bin)
    }
}

/// The accumulated ledger: per-bin energy plus the per-tick totals
/// series, with conservation checked at every tick.
#[derive(Debug, Clone, Default)]
pub struct LedgerTable {
    /// Each bin's slot in `energy`.
    slots: BTreeMap<BinKey, usize>,
    /// Accumulated energy per slot (watt-seconds).
    energy: Vec<f64>,
    /// The last tick's `(key, slot)` per entry position. A producer sends
    /// the same keys in the same order tick after tick, so most entries
    /// find their slot here instead of in `slots`.
    recent: Vec<(BinKey, usize)>,
    /// Per-tick category totals, in record order.
    pub ticks: Vec<TickTotals>,
    /// Ticks whose bins did not sum to the cap within epsilon.
    pub violations: u64,
    /// Largest |Σ bins − cap| seen (W).
    pub worst_residual_w: f64,
}

impl LedgerTable {
    /// An empty ledger.
    pub fn new() -> Self {
        LedgerTable::default()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty() && self.slots.is_empty()
    }

    /// Accumulated energy per bin (watt-seconds), in key order.
    fn bins(&self) -> impl Iterator<Item = (BinKey, f64)> + '_ {
        self.slots.iter().map(|(&k, &slot)| (k, self.energy[slot]))
    }

    /// The slot of bin `key`, made empty if it is new.
    fn slot(&mut self, key: BinKey) -> usize {
        let fresh = self.energy.len();
        let slot = *self.slots.entry(key).or_insert(fresh);
        if slot == fresh {
            self.energy.push(0.0);
        }
        slot
    }

    /// Record one tick: accumulate energy bins, append the tick totals,
    /// and check conservation.
    pub fn record(&mut self, tick: LedgerTick) {
        let mut totals = [0.0f64; 4];
        let mut sum = 0.0f64;
        for (i, e) in tick.entries.iter().enumerate() {
            totals[e.key.category.index()] += e.watts;
            sum += e.watts;
            let slot = match self.recent.get(i).copied() {
                Some((key, slot)) if key == e.key => slot,
                cached => {
                    let slot = self.slot(e.key);
                    if cached.is_some() {
                        self.recent[i] = (e.key, slot);
                    } else {
                        self.recent.push((e.key, slot));
                    }
                    slot
                }
            };
            self.energy[slot] += e.watts * tick.dt_s;
        }
        let residual = (sum - tick.cap_w).abs();
        if residual > self.worst_residual_w {
            self.worst_residual_w = residual;
        }
        // a NaN residual fails this test too, so it counts as a violation
        let conserved = residual <= conservation_epsilon(tick.cap_w, tick.entries.len());
        if !conserved {
            self.violations += 1;
        }
        self.ticks.push(TickTotals {
            t_s: tick.t_s,
            dt_s: tick.dt_s,
            cap_w: tick.cap_w,
            totals_w: totals,
        });
    }

    /// Fold another ledger into this one. Bin accumulation is commutative;
    /// the tick series appends in call order (callers merge cells in the
    /// deterministic `(grid, index)` order, same as metrics).
    pub fn merge(&mut self, other: &LedgerTable) {
        for (k, ws) in other.bins() {
            let slot = self.slot(k);
            self.energy[slot] += ws;
        }
        self.ticks.extend_from_slice(&other.ticks);
        self.violations += other.violations;
        if other.worst_residual_w > self.worst_residual_w {
            self.worst_residual_w = other.worst_residual_w;
        }
    }

    /// Total attributed energy per category (watt-seconds).
    pub fn energy_by_category(&self) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        for (k, ws) in self.bins() {
            out[k.category.index()] += ws;
        }
        out
    }

    /// The bins as sorted serializable records.
    pub fn bin_records(&self) -> Vec<LedgerBin> {
        self.bins()
            .map(|(k, watt_s)| LedgerBin {
                job: k.job,
                module: k.module,
                domain: k.domain,
                category: k.category,
                watt_s,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced_tick(t_s: f64, cap_w: f64) -> LedgerTick {
        // one job, one module, both domains + residues: telescopes to cap
        let useful_cpu = 61.0;
        let throttle_cpu = 9.0;
        let useful_dram = 18.5;
        let headroom_dram = 1.5;
        let residue = 2.0;
        let granted = useful_cpu + throttle_cpu + useful_dram + headroom_dram + residue;
        LedgerTick {
            t_s,
            dt_s: 1.0,
            cap_w,
            entries: vec![
                LedgerEntry::module(3, 7, Domain::Cpu, Category::Useful, useful_cpu),
                LedgerEntry::module(3, 7, Domain::Cpu, Category::Throttle, throttle_cpu),
                LedgerEntry::module(3, 7, Domain::Dram, Category::Useful, useful_dram),
                LedgerEntry::module(3, 7, Domain::Dram, Category::Headroom, headroom_dram),
                LedgerEntry::job_residue(3, residue),
                LedgerEntry::system_stranded(cap_w - granted),
            ],
        }
    }

    #[test]
    fn balanced_ticks_conserve() {
        let mut t = LedgerTable::new();
        t.record(balanced_tick(1.0, 160.0));
        t.record(balanced_tick(2.0, 120.0));
        assert_eq!(t.violations, 0, "residual {}", t.worst_residual_w);
        assert_eq!(t.ticks.len(), 2);
        let by_cat = t.energy_by_category();
        assert_eq!(by_cat[Category::Useful.index()], 2.0 * (61.0 + 18.5));
        // all energy accounted: Σ categories = Σ caps × dt
        let total: f64 = by_cat.iter().sum();
        assert!((total - 280.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn unbalanced_tick_counts_a_violation() {
        let mut t = LedgerTable::new();
        t.record(LedgerTick {
            t_s: 0.0,
            dt_s: 1.0,
            cap_w: 100.0,
            entries: vec![LedgerEntry::system_stranded(90.0)],
        });
        assert_eq!(t.violations, 1);
        assert!((t.worst_residual_w - 10.0).abs() < 1e-12);
        // a NaN entry, and an infinite cap met by an infinite entry, give
        // a NaN residual: neither conserves
        for (cap_w, useful) in [(100.0, f64::NAN), (f64::INFINITY, f64::INFINITY)] {
            t.record(LedgerTick {
                t_s: 1.0,
                dt_s: 1.0,
                cap_w,
                entries: vec![LedgerEntry::module(0, 0, Domain::Cpu, Category::Useful, useful)],
            });
        }
        assert_eq!(t.violations, 3);
    }

    #[test]
    fn epsilon_scales_with_cap_and_entry_count() {
        assert!(conservation_epsilon(1e6, 100) > conservation_epsilon(100.0, 100));
        assert!(conservation_epsilon(100.0, 1000) > conservation_epsilon(100.0, 10));
        // float dust at the scale of a real cluster cap stays tolerated
        let cap = 95.0 * 1920.0;
        let dust = cap * f64::EPSILON * 4.0;
        assert!(dust < conservation_epsilon(cap, 16));
    }

    #[test]
    fn merge_accumulates_bins_and_appends_ticks() {
        let mut a = LedgerTable::new();
        a.record(balanced_tick(1.0, 160.0));
        let mut b = LedgerTable::new();
        b.record(balanced_tick(2.0, 160.0));
        b.record(LedgerTick { t_s: 3.0, dt_s: 1.0, cap_w: 10.0, entries: vec![] });
        a.merge(&b);
        assert_eq!(a.ticks.len(), 3);
        assert_eq!(a.violations, 1, "the empty 10 W tick is unbalanced");
        let key = BinKey {
            job: Some(3),
            module: Some(7),
            domain: Some(Domain::Cpu),
            category: Category::Useful,
        };
        assert_eq!(a.bins().find(|b| b.0 == key), Some((key, 2.0 * 61.0)));
    }

    #[test]
    fn bins_add_up_in_any_key_order() {
        // the slot cache follows entry positions: keys that shift, leave
        // and come back must still land in their own bins, in tick order
        let ticks = [vec![1, 2, 3], vec![2, 3], vec![3, 1, 2, 4], vec![1, 2, 3]];
        let mut t = LedgerTable::new();
        let mut want = BTreeMap::new();
        for (n, jobs) in ticks.iter().enumerate() {
            let entries: Vec<_> =
                jobs.iter().map(|&j| LedgerEntry::job_residue(j, (j + n as u64) as f64)).collect();
            for e in &entries {
                *want.entry(e.key).or_insert(0.0) += e.watts * 0.5;
            }
            t.record(LedgerTick { t_s: n as f64, dt_s: 0.5, cap_w: 0.0, entries });
        }
        assert_eq!(t.bins().collect::<Vec<_>>(), want.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bin_records_are_sorted_and_stable() {
        let mut t = LedgerTable::new();
        t.record(balanced_tick(1.0, 160.0));
        let recs = t.bin_records();
        assert_eq!(recs.len(), 6);
        let keys: Vec<_> = recs.iter().map(|r| (r.job, r.module, r.domain, r.category)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // the journal vocabulary is lowercase, and bins read back exactly
        let json = recs.to_json();
        assert!(json.contains("\"cpu\"") && json.contains("\"useful\""), "{json}");
        assert_eq!(Vec::<LedgerBin>::from_json(&json).unwrap(), recs);
        let extra = json.replacen("\"watt_s\"", "\"extra\":1,\"watt_s\"", 1);
        assert!(Vec::<LedgerBin>::from_json(&extra).unwrap_err().contains("unknown field"));
    }
}
