//! Exporters: JSONL journal, metrics CSV, Chrome trace, summary table.
//!
//! Three artifacts, three contracts:
//!
//! * **`journal.jsonl`** — the deterministic event journal. One JSON
//!   object per line: a `meta` header, one `grid` line per registered
//!   fan-out, one `cell` line per work item (sorted by `(grid, index)`),
//!   and a final `total` rollup. Byte-identical across `--threads`
//!   counts (asserted by the contract test in the workspace's
//!   `tests/golden_digests.rs`).
//! * **`metrics.csv`** — the same data flattened long-form for plotting
//!   next to each figure's CSV.
//! * **`trace.json`** — Chrome trace-event format (load in Perfetto or
//!   `chrome://tracing`): one `X` (complete) event per span, lanes =
//!   `tid` (0 driver, `w+1` worker slot `w`). Wall-clock side channel;
//!   *not* covered by the determinism contract.
//!
//! The [`validate_journal`]/[`validate_trace`]/[`validate_metrics_csv`]
//! checks back the `obs-check` binary and the CI smoke job: every journal
//! line must read into the schema types here and write back to the
//! identical bytes (a [`crate::json`] round-trip).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::decision::DecisionRecord;
use crate::json::{Fields, FromJson, ObjectWriter, ToJson, Value};
use crate::ledger::{conservation_epsilon, Category, LedgerBin};
use crate::metrics::{Histogram, Metrics};
use crate::recorder::Inner;
use crate::scenario::ScenarioRecord;

/// Journal schema version. v2 added the watt-provenance `ledger` and
/// scheduler `decision` line types (between the cells and the total);
/// v3 added the `scenario` perturbation lines (between the decisions
/// and the total); v4 writes numbers through [`crate::json`] (shortest
/// form, so a whole-valued float reads `30`, not `30.0`).
pub const JOURNAL_VERSION: u32 = 4;

/// One line of the JSONL journal: an object tagged by its `type` field.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalLine {
    /// Header: always the first line.
    Meta {
        /// Schema version ([`JOURNAL_VERSION`]).
        version: u32,
    },
    /// One registered fan-out.
    Grid {
        /// Grid id (sequential, driver call order).
        id: u64,
        /// Item kind: `item`, `cell` or `module`.
        kind: String,
        /// Number of items.
        items: u64,
    },
    /// One work item's deterministic metrics.
    Cell {
        /// Owning grid id.
        grid: u64,
        /// Item index within the grid.
        index: u64,
        /// Item kind.
        kind: String,
        /// Label set by the driver (e.g. `dgemm@110W`).
        label: Option<String>,
        /// Counter values by name.
        counters: BTreeMap<String, u64>,
        /// Histograms by name.
        histograms: BTreeMap<String, Histogram>,
    },
    /// One scope's watt-provenance ledger rollup: accumulated energy
    /// bins plus the conservation verdict. Cell scopes carry their
    /// `(grid, index)`; the driver's direct ledger carries `None`s.
    Ledger {
        /// Owning grid, or `None` for the driver's direct ledger.
        grid: Option<u64>,
        /// Item index within the grid, if cell-scoped.
        index: Option<u64>,
        /// Ticks recorded into this scope.
        ticks: u64,
        /// Ticks whose bins failed the conservation invariant.
        violations: u64,
        /// Largest |Σ bins − cap| observed (W).
        worst_residual_w: f64,
        /// Accumulated energy bins, sorted by `(job, module, domain,
        /// category)`.
        bins: Vec<LedgerBin>,
    },
    /// One scheduler decision, with the alternatives it weighed. The
    /// record's fields follow `seq`, its `kind` under the `decision` key.
    Decision {
        /// Owning grid, or `None` for driver-thread decisions.
        grid: Option<u64>,
        /// Item index within the grid, if cell-scoped.
        index: Option<u64>,
        /// Record order within the scope (0-based).
        seq: u64,
        /// The decision as recorded.
        record: DecisionRecord,
    },
    /// One applied scenario perturbation. The record's fields follow
    /// `seq`, its `kind` under the `event` key.
    Scenario {
        /// Owning grid, or `None` for driver-thread perturbations.
        grid: Option<u64>,
        /// Item index within the grid, if cell-scoped.
        index: Option<u64>,
        /// Record order within the scope (0-based).
        seq: u64,
        /// The perturbation as recorded.
        record: ScenarioRecord,
    },
    /// Whole-session rollup: always the last line.
    Total {
        /// Counter values by name.
        counters: BTreeMap<String, u64>,
        /// Histograms by name.
        histograms: BTreeMap<String, Histogram>,
    },
}

impl JournalLine {
    /// Stable lowercase tag (the `type` field).
    pub fn tag(&self) -> &'static str {
        match self {
            JournalLine::Meta { .. } => "meta",
            JournalLine::Grid { .. } => "grid",
            JournalLine::Cell { .. } => "cell",
            JournalLine::Ledger { .. } => "ledger",
            JournalLine::Decision { .. } => "decision",
            JournalLine::Scenario { .. } => "scenario",
            JournalLine::Total { .. } => "total",
        }
    }
}

impl ToJson for JournalLine {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("type", self.tag());
        match self {
            JournalLine::Meta { version } => {
                o.field("version", version);
            }
            JournalLine::Grid { id, kind, items } => {
                o.field("id", id).field("kind", kind).field("items", items);
            }
            JournalLine::Cell { grid, index, kind, label, counters, histograms } => {
                o.field("grid", grid)
                    .field("index", index)
                    .field("kind", kind)
                    .field("label", label)
                    .field("counters", counters)
                    .field("histograms", histograms);
            }
            JournalLine::Ledger { grid, index, ticks, violations, worst_residual_w, bins } => {
                o.field("grid", grid)
                    .field("index", index)
                    .field("ticks", ticks)
                    .field("violations", violations)
                    .field("worst_residual_w", worst_residual_w)
                    .field("bins", bins);
            }
            JournalLine::Decision { grid, index, seq, record: r } => {
                o.field("grid", grid)
                    .field("index", index)
                    .field("seq", seq)
                    .field("t_s", &r.t_s)
                    .field("job", &r.job)
                    .field("cap_w", &r.cap_w)
                    .field("avail_w", &r.avail_w)
                    .field("decision", &r.kind);
            }
            JournalLine::Scenario { grid, index, seq, record: r } => {
                o.field("grid", grid)
                    .field("index", index)
                    .field("seq", seq)
                    .field("t_s", &r.t_s)
                    .field("fleet", &r.fleet)
                    .field("event", &r.kind);
            }
            JournalLine::Total { counters, histograms } => {
                o.field("counters", counters).field("histograms", histograms);
            }
        }
        o.end();
    }
}

impl FromJson for JournalLine {
    /// Unknown `type` tags are rejected; unknown fields are ignored here
    /// (the journal validator's byte round-trip rejects them).
    fn from_value(v: &Value) -> Result<Self, String> {
        let mut f = Fields::of(v)?;
        let tag: String = f.get("type")?;
        Ok(match tag.as_str() {
            "meta" => JournalLine::Meta { version: f.get("version")? },
            "grid" => {
                JournalLine::Grid { id: f.get("id")?, kind: f.get("kind")?, items: f.get("items")? }
            }
            "cell" => JournalLine::Cell {
                grid: f.get("grid")?,
                index: f.get("index")?,
                kind: f.get("kind")?,
                label: f.get("label")?,
                counters: f.get("counters")?,
                histograms: f.get("histograms")?,
            },
            "ledger" => JournalLine::Ledger {
                grid: f.get("grid")?,
                index: f.get("index")?,
                ticks: f.get("ticks")?,
                violations: f.get("violations")?,
                worst_residual_w: f.get("worst_residual_w")?,
                bins: f.get("bins")?,
            },
            "decision" => JournalLine::Decision {
                grid: f.get("grid")?,
                index: f.get("index")?,
                seq: f.get("seq")?,
                record: DecisionRecord {
                    t_s: f.get("t_s")?,
                    job: f.get("job")?,
                    cap_w: f.get("cap_w")?,
                    avail_w: f.get("avail_w")?,
                    kind: f.get("decision")?,
                },
            },
            "scenario" => JournalLine::Scenario {
                grid: f.get("grid")?,
                index: f.get("index")?,
                seq: f.get("seq")?,
                record: ScenarioRecord {
                    t_s: f.get("t_s")?,
                    fleet: f.get("fleet")?,
                    kind: f.get("event")?,
                },
            },
            "total" => JournalLine::Total {
                counters: f.get("counters")?,
                histograms: f.get("histograms")?,
            },
            other => return Err(format!("unknown journal line type {other:?}")),
        })
    }
}

/// One Chrome trace event (the subset of the trace-event format we emit).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name.
    pub name: String,
    /// Category (`phase`, `item`, `cell`, `module`, `__metadata`).
    pub cat: String,
    /// Phase: `X` (complete) or `M` (metadata).
    pub ph: String,
    /// Timestamp in microseconds since session install.
    pub ts: u64,
    /// Duration in microseconds (`X` events only; omitted when `None`).
    pub dur: Option<u64>,
    /// Process id (always 1 — one campaign per trace).
    pub pid: u32,
    /// Timeline lane: 0 = driver, `w + 1` = worker slot `w`.
    pub tid: u32,
    /// Event payload (omitted when `None`).
    pub args: Option<Value>,
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("name", &self.name)
            .field("cat", &self.cat)
            .field("ph", &self.ph)
            .field("ts", &self.ts);
        if let Some(dur) = &self.dur {
            o.field("dur", dur);
        }
        o.field("pid", &self.pid).field("tid", &self.tid);
        if let Some(args) = &self.args {
            o.field("args", args);
        }
        o.end();
    }
}

impl FromJson for TraceEvent {
    /// Unknown fields are ignored: other trace-event producers add their
    /// own.
    fn from_value(v: &Value) -> Result<Self, String> {
        let mut f = Fields::of(v)?;
        Ok(TraceEvent {
            name: f.get("name")?,
            cat: f.get("cat")?,
            ph: f.get("ph")?,
            ts: f.get("ts")?,
            dur: f.get("dur")?,
            pid: f.get("pid")?,
            tid: f.get("tid")?,
            args: f.get("args")?,
        })
    }
}

/// A Chrome trace file: `{"traceEvents": [...]}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    /// All events (the `traceEvents` field).
    pub trace_events: Vec<TraceEvent>,
}

impl ToJson for ChromeTrace {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("traceEvents", &self.trace_events);
        o.end();
    }
}

impl FromJson for ChromeTrace {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(ChromeTrace { trace_events: Fields::of(v)?.get("traceEvents")? })
    }
}

/// Everything a finished session exports.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Deterministic JSONL event journal.
    pub journal_jsonl: String,
    /// Long-form per-cell metrics CSV.
    pub metrics_csv: String,
    /// Watt-provenance ledger CSV (empty when no ledger was recorded).
    pub ledger_csv: String,
    /// Chrome trace-event timeline (wall-clock side channel).
    pub trace_json: String,
    /// Human-readable totals table for stdout.
    pub summary: String,
}

impl ObsReport {
    /// Write the artifacts into `dir` (created if missing), returning
    /// the paths written. `ledger.csv` is written only when the session
    /// recorded ledger ticks.
    pub fn write_to(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut files = vec![
            ("journal.jsonl", &self.journal_jsonl),
            ("metrics.csv", &self.metrics_csv),
            ("trace.json", &self.trace_json),
        ];
        if !self.ledger_csv.is_empty() {
            files.push(("ledger.csv", &self.ledger_csv));
        }
        let mut written = Vec::with_capacity(files.len());
        for (name, content) in files {
            let path = dir.join(name);
            std::fs::write(&path, content)?;
            written.push(path);
        }
        Ok(written)
    }
}

fn snapshot_maps(m: &Metrics) -> (BTreeMap<String, u64>, BTreeMap<String, Histogram>) {
    let counters = m.counters().iter().map(|(&k, &v)| (k.to_string(), v)).collect();
    let histograms = m.histograms().iter().map(|(&k, h)| (k.to_string(), h.clone())).collect();
    (counters, histograms)
}

/// Append one journal line and its newline.
fn line_to(journal: &mut String, line: &JournalLine) {
    line.write_json(journal);
    journal.push('\n');
}

/// Build the full report from a session's recorded state.
pub(crate) fn build_report(inner: &Inner) -> ObsReport {
    // --- deterministic journal ---
    let mut journal = String::new();
    line_to(&mut journal, &JournalLine::Meta { version: JOURNAL_VERSION });
    for (id, g) in inner.grids.iter().enumerate() {
        line_to(
            &mut journal,
            &JournalLine::Grid { id: id as u64, kind: g.kind.to_string(), items: g.items },
        );
    }
    let mut totals = inner.direct.metrics.clone();
    for ((grid, index), cell) in &inner.cells {
        totals.merge(&cell.scope.metrics);
        let (counters, histograms) = snapshot_maps(&cell.scope.metrics);
        line_to(
            &mut journal,
            &JournalLine::Cell {
                grid: *grid,
                index: *index,
                kind: cell.kind.to_string(),
                label: cell.label.clone(),
                counters,
                histograms,
            },
        );
    }
    // ledger rollups, then decisions, then scenario perturbations: each
    // block walks the scopes (cells in (grid, index) order, driver last),
    // each scope's records in record order (seq)
    for (grid, index, scope) in inner.scopes() {
        let t = &scope.ledger;
        if !t.is_empty() {
            line_to(
                &mut journal,
                &JournalLine::Ledger {
                    grid,
                    index,
                    ticks: t.ticks.len() as u64,
                    violations: t.violations,
                    worst_residual_w: t.worst_residual_w,
                    bins: t.bin_records(),
                },
            );
        }
    }
    for (grid, index, scope) in inner.scopes() {
        for (seq, record) in scope.decisions.iter().cloned().enumerate() {
            line_to(&mut journal, &JournalLine::Decision { grid, index, seq: seq as u64, record });
        }
    }
    for (grid, index, scope) in inner.scopes() {
        for (seq, record) in scope.scenarios.iter().cloned().enumerate() {
            line_to(&mut journal, &JournalLine::Scenario { grid, index, seq: seq as u64, record });
        }
    }
    let (counters, histograms) = snapshot_maps(&totals);
    line_to(&mut journal, &JournalLine::Total { counters, histograms });

    ObsReport {
        journal_jsonl: journal,
        metrics_csv: metrics_csv(inner, &totals),
        ledger_csv: ledger_csv(inner),
        trace_json: trace_json(inner),
        summary: summary(&totals, inner),
    }
}

/// CSV header for `metrics.csv`.
pub const METRICS_CSV_HEADER: &str = "scope,grid,index,kind,label,metric,value,count,sum,min,max";

fn csv_label(label: &Option<String>) -> String {
    match label {
        Some(l) => l.replace(',', ";"),
        None => String::new(),
    }
}

fn metrics_csv(inner: &Inner, totals: &Metrics) -> String {
    let mut out = String::from(METRICS_CSV_HEADER);
    out.push('\n');
    let mut emit =
        |scope: &str, grid: String, index: String, kind: &str, label: String, m: &Metrics| {
            for (name, v) in m.counters() {
                out.push_str(&format!("{scope},{grid},{index},{kind},{label},{name},{v},,,,\n"));
            }
            for (name, h) in m.histograms() {
                out.push_str(&format!(
                    "{scope},{grid},{index},{kind},{label},{name},,{},{},{},{}\n",
                    h.count, h.sum, h.min, h.max
                ));
            }
        };
    for ((grid, index), cell) in &inner.cells {
        emit(
            "cell",
            grid.to_string(),
            index.to_string(),
            cell.kind,
            csv_label(&cell.label),
            &cell.scope.metrics,
        );
    }
    emit("total", String::new(), String::new(), "", String::new(), totals);
    out
}

/// CSV header for `ledger.csv`. Two row shapes share it: `tick` rows
/// carry per-tick per-category watts (4 rows per tick — the offline
/// conservation re-check sums them against `cap_w`), `bin` rows carry
/// accumulated watt-seconds per `(job, module, domain, category)` bin.
pub const LEDGER_CSV_HEADER: &str =
    "scope,grid,index,tick,t_s,dt_s,cap_w,job,module,domain,category,value";

fn ledger_csv(inner: &Inner) -> String {
    let mut out = String::new();
    for (grid, index, scope) in inner.scopes() {
        let table = &scope.ledger;
        if table.is_empty() {
            continue;
        }
        if out.is_empty() {
            out.push_str(LEDGER_CSV_HEADER);
            out.push('\n');
        }
        let grid = grid.map(|g| g.to_string()).unwrap_or_default();
        let index = index.map(|i| i.to_string()).unwrap_or_default();
        for (tick, t) in table.ticks.iter().enumerate() {
            for cat in Category::ALL {
                out.push_str(&format!(
                    "tick,{grid},{index},{tick},{},{},{},,,,{},{}\n",
                    t.t_s,
                    t.dt_s,
                    t.cap_w,
                    cat.name(),
                    t.totals_w[cat.index()]
                ));
            }
        }
        for bin in table.bin_records() {
            let job = bin.job.map(|j| j.to_string()).unwrap_or_default();
            let module = bin.module.map(|m| m.to_string()).unwrap_or_default();
            let domain = bin.domain.map(|d| d.name()).unwrap_or_default();
            out.push_str(&format!(
                "bin,{grid},{index},,,,,{job},{module},{domain},{},{}\n",
                bin.category.name(),
                bin.watt_s
            ));
        }
    }
    out
}

/// Row counts from a successful [`validate_ledger_csv`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerCsvStats {
    /// Per-tick category rows (`tick,...`).
    pub tick_rows: usize,
    /// Aggregated watt-second bin rows (`bin,...`).
    pub bin_rows: usize,
}

/// Validate a ledger CSV: header, column counts, row vocabulary, and the
/// offline conservation re-check — every tick's four category rows must
/// sum to the tick's `cap_w` within the 1 ULP-scaled epsilon.
pub fn validate_ledger_csv(csv: &str) -> Result<LedgerCsvStats, String> {
    let mut lines = csv.lines();
    match lines.next() {
        Some(h) if h == LEDGER_CSV_HEADER => {}
        other => return Err(format!("bad ledger CSV header: {other:?}")),
    }
    let want = LEDGER_CSV_HEADER.split(',').count();
    // (scope-grid, scope-index, tick) → (cap_w, Σ category watts, rows)
    let mut ticks: BTreeMap<(String, String, String), (f64, f64, usize)> = BTreeMap::new();
    let mut stats = LedgerCsvStats { tick_rows: 0, bin_rows: 0 };
    for (i, row) in lines.enumerate() {
        let n = i + 2;
        let fields: Vec<&str> = row.split(',').collect();
        if fields.len() != want {
            return Err(format!("row {n}: {} fields, expected {want}", fields.len()));
        }
        match fields[0] {
            "tick" => {
                stats.tick_rows += 1;
                let cap = finite(n, "cap_w", fields[6])?;
                let value = finite(n, "value", fields[11])?;
                let key = (fields[1].to_string(), fields[2].to_string(), fields[3].to_string());
                let entry = ticks.entry(key).or_insert((cap, 0.0, 0));
                if entry.0 != cap {
                    return Err(format!("row {n}: cap_w disagrees within a tick"));
                }
                entry.1 += value;
                entry.2 += 1;
            }
            "bin" => {
                stats.bin_rows += 1;
                finite(n, "value", fields[11])?;
            }
            other => return Err(format!("row {n}: unknown scope {other:?}")),
        }
    }
    if stats.tick_rows + stats.bin_rows == 0 {
        return Err("ledger CSV has no data rows".to_string());
    }
    for ((grid, index, tick), (cap, sum, catrows)) in &ticks {
        if *catrows != Category::ALL.len() {
            return Err(format!(
                "tick ({grid},{index},{tick}): {catrows} category rows, expected {}",
                Category::ALL.len()
            ));
        }
        // 64 summands covers any realistic bin count behind a tick total
        let eps = conservation_epsilon(*cap, 64);
        let residual = (sum - cap).abs();
        let conserved = residual <= eps;
        if !conserved {
            return Err(format!(
                "tick ({grid},{index},{tick}): categories sum to {sum} W, cap is {cap} W (residual {residual}, eps {eps})"
            ));
        }
    }
    Ok(stats)
}

/// Field `name` of CSV row `n` as a finite number.
fn finite(n: usize, name: &str, field: &str) -> Result<f64, String> {
    match field.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(v) => Err(format!("row {n}: non-finite {name} {v}")),
        Err(e) => Err(format!("row {n}: bad {name} {field:?}: {e}")),
    }
}

fn trace_json(inner: &Inner) -> String {
    let max_lane = inner.spans.iter().map(|s| s.lane).max().unwrap_or(0);
    let mut events: Vec<TraceEvent> = (0..=max_lane)
        .map(|lane| TraceEvent {
            name: "thread_name".to_string(),
            cat: "__metadata".to_string(),
            ph: "M".to_string(),
            ts: 0,
            dur: None,
            pid: 1,
            tid: lane,
            args: Some(Value::object([(
                "name",
                Value::from(if lane == 0 {
                    "driver".to_string()
                } else {
                    format!("worker-{}", lane - 1)
                }),
            )])),
        })
        .collect();
    let mut spans: Vec<&crate::recorder::SpanRecord> = inner.spans.iter().collect();
    spans.sort_by(|a, b| (a.ts_us, a.lane, &a.name).cmp(&(b.ts_us, b.lane, &b.name)));
    events.extend(spans.into_iter().map(|s| TraceEvent {
        name: s.name.clone(),
        cat: s.cat.to_string(),
        ph: "X".to_string(),
        ts: s.ts_us,
        dur: Some(s.dur_us),
        pid: 1,
        tid: s.lane,
        args: None,
    }));
    ChromeTrace { trace_events: events }.to_json()
}

fn summary(totals: &Metrics, inner: &Inner) -> String {
    let mut out = String::from("== vap-obs session summary ==\n");
    out.push_str(&format!(
        "grids: {}   cells: {}   spans: {}\n",
        inner.grids.len(),
        inner.cells.len(),
        inner.spans.len()
    ));
    // driver first, then cells: the W·s totals below are float sums
    let mut ledger = inner.direct.ledger.clone();
    for cell in inner.cells.values() {
        ledger.merge(&cell.scope.ledger);
    }
    if !ledger.is_empty() {
        let by_cat = ledger.energy_by_category();
        out.push_str(&format!(
            "ledger: {} ticks, {} violations (worst residual {:.3e} W)\n",
            ledger.ticks.len(),
            ledger.violations,
            ledger.worst_residual_w
        ));
        for cat in Category::ALL {
            out.push_str(&format!("  {:<10} {:>16.3} W·s\n", cat.name(), by_cat[cat.index()]));
        }
    }
    let decisions: usize = inner.scopes().map(|(_, _, s)| s.decisions.len()).sum();
    if decisions > 0 {
        out.push_str(&format!("decisions: {decisions}\n"));
    }
    let scenarios: usize = inner.scopes().map(|(_, _, s)| s.scenarios.len()).sum();
    if scenarios > 0 {
        out.push_str(&format!("scenario events: {scenarios}\n"));
    }
    if !totals.counters().is_empty() {
        out.push_str(&format!("{:<32} {:>14}\n", "counter", "value"));
        for (name, v) in totals.counters() {
            out.push_str(&format!("{name:<32} {v:>14}\n"));
        }
    }
    if !totals.histograms().is_empty() {
        out.push_str(&format!(
            "{:<32} {:>10} {:>14} {:>12} {:>12} {:>6}\n",
            "histogram", "count", "sum", "min", "max", "n/f"
        ));
        for (name, h) in totals.histograms() {
            out.push_str(&format!(
                "{name:<32} {:>10} {:>14.6} {:>12.6} {:>12.6} {:>6}\n",
                h.count, h.sum, h.min, h.max, h.nonfinite
            ));
        }
    }
    out
}

/// Journal statistics reported by [`validate_journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Total journal lines.
    pub lines: usize,
    /// `grid` lines.
    pub grids: usize,
    /// `cell` lines.
    pub cells: usize,
    /// `ledger` lines.
    pub ledgers: usize,
    /// `decision` lines.
    pub decisions: usize,
    /// `scenario` lines.
    pub scenarios: usize,
}

/// A scope sort key with `None` (driver-direct) ordered last.
fn scope_key(grid: Option<u64>, index: Option<u64>) -> (u64, u64) {
    (grid.unwrap_or(u64::MAX), index.unwrap_or(u64::MAX))
}

/// Validate a JSONL journal: schema round-trip per line (read, write
/// back, compare bytes), structural ordering (meta first, then
/// grids, cells, ledgers, decisions, scenarios, total — each block
/// internally sorted), histogram invariants, ledger conservation (any
/// recorded violation fails validation), and scenario invariants
/// (non-decreasing event times per scope, module ids inside the
/// recorded fleet size).
pub fn validate_journal(journal: &str) -> Result<JournalStats, String> {
    let mut stats =
        JournalStats { lines: 0, grids: 0, cells: 0, ledgers: 0, decisions: 0, scenarios: 0 };
    let mut saw_total = false;
    let mut phase = 0u8;
    let mut last_cell: Option<(u64, u64)> = None;
    let mut last_ledger: Option<(u64, u64)> = None;
    let mut last_decision: Option<(u64, u64, u64)> = None;
    let mut last_scenario: Option<(u64, u64, u64)> = None;
    let mut last_scenario_t: Option<f64> = None;
    for (i, raw) in journal.lines().enumerate() {
        let n = i + 1;
        stats.lines += 1;
        let line =
            JournalLine::from_json(raw).map_err(|e| format!("line {n}: schema violation: {e}"))?;
        let back = line.to_json();
        if back != raw {
            return Err(format!("line {n}: round-trip mismatch:\n  in:  {raw}\n  out: {back}"));
        }
        if saw_total {
            return Err(format!("line {n}: content after the total rollup"));
        }
        let this_phase = match &line {
            JournalLine::Meta { .. } => 0,
            JournalLine::Grid { .. } => 1,
            JournalLine::Cell { .. } => 2,
            JournalLine::Ledger { .. } => 3,
            JournalLine::Decision { .. } => 4,
            JournalLine::Scenario { .. } => 5,
            JournalLine::Total { .. } => 6,
        };
        if this_phase < phase {
            return Err(format!(
                "line {n}: journal blocks out of order (meta, grids, cells, ledgers, decisions, scenarios, total)"
            ));
        }
        phase = this_phase;
        match &line {
            JournalLine::Meta { version } => {
                if i != 0 {
                    return Err(format!("line {n}: meta must be the first line"));
                }
                if *version != JOURNAL_VERSION {
                    return Err(format!("line {n}: unknown journal version {version}"));
                }
            }
            JournalLine::Grid { id, .. } => {
                if *id != stats.grids as u64 {
                    return Err(format!("line {n}: grid ids must be sequential, got {id}"));
                }
                stats.grids += 1;
            }
            JournalLine::Cell { grid, index, histograms, .. } => {
                if *grid >= stats.grids as u64 {
                    return Err(format!("line {n}: cell references unregistered grid {grid}"));
                }
                if last_cell.is_some_and(|prev| prev >= (*grid, *index)) {
                    return Err(format!("line {n}: cells must be sorted by (grid, index)"));
                }
                last_cell = Some((*grid, *index));
                stats.cells += 1;
                validate_histograms(histograms).map_err(|e| format!("line {n}: {e}"))?;
            }
            JournalLine::Ledger { grid, index, ticks, violations, bins, .. } => {
                let key = scope_key(*grid, *index);
                if last_ledger.is_some_and(|prev| prev >= key) {
                    return Err(format!(
                        "line {n}: ledgers must be sorted by (grid, index), direct last"
                    ));
                }
                last_ledger = Some(key);
                if *violations > 0 {
                    return Err(format!(
                        "line {n}: ledger recorded {violations} conservation violations over {ticks} ticks"
                    ));
                }
                let sorted = bins.windows(2).all(|w| {
                    (w[0].job, w[0].module, w[0].domain, w[0].category)
                        < (w[1].job, w[1].module, w[1].domain, w[1].category)
                });
                if !sorted {
                    return Err(format!("line {n}: ledger bins must be sorted and unique"));
                }
                stats.ledgers += 1;
            }
            JournalLine::Decision { grid, index, seq, .. } => {
                let key = (scope_key(*grid, *index).0, scope_key(*grid, *index).1, *seq);
                if last_decision.is_some_and(|prev| prev >= key) {
                    return Err(format!(
                        "line {n}: decisions must be sorted by (grid, index, seq)"
                    ));
                }
                let fresh_scope =
                    last_decision.is_none_or(|prev| (prev.0, prev.1) != (key.0, key.1));
                if fresh_scope && *seq != 0 {
                    return Err(format!("line {n}: decision seq must restart at 0 per scope"));
                }
                last_decision = Some(key);
                stats.decisions += 1;
            }
            JournalLine::Scenario { grid, index, seq, record } => {
                let ScenarioRecord { t_s, fleet, kind } = record;
                let key = (scope_key(*grid, *index).0, scope_key(*grid, *index).1, *seq);
                if last_scenario.is_some_and(|prev| prev >= key) {
                    return Err(format!(
                        "line {n}: scenarios must be sorted by (grid, index, seq)"
                    ));
                }
                let fresh_scope =
                    last_scenario.is_none_or(|prev| (prev.0, prev.1) != (key.0, key.1));
                if fresh_scope {
                    if *seq != 0 {
                        return Err(format!("line {n}: scenario seq must restart at 0 per scope"));
                    }
                    last_scenario_t = None;
                }
                if !t_s.is_finite() || *t_s < 0.0 {
                    return Err(format!("line {n}: scenario time {t_s} must be finite and ≥ 0"));
                }
                if last_scenario_t.is_some_and(|prev| *t_s < prev) {
                    return Err(format!(
                        "line {n}: scenario times must be non-decreasing within a scope"
                    ));
                }
                last_scenario_t = Some(*t_s);
                if let Some(m) = kind.module() {
                    if m >= *fleet {
                        return Err(format!(
                            "line {n}: scenario module {m} out of range for fleet {fleet}"
                        ));
                    }
                }
                last_scenario = Some(key);
                stats.scenarios += 1;
            }
            JournalLine::Total { histograms, .. } => {
                saw_total = true;
                validate_histograms(histograms).map_err(|e| format!("line {n}: {e}"))?;
            }
        }
        if i == 0 && !matches!(line, JournalLine::Meta { .. }) {
            return Err("line 1: journal must start with a meta line".to_string());
        }
    }
    if stats.lines == 0 {
        return Err("empty journal".to_string());
    }
    if !saw_total {
        return Err("journal has no total rollup line".to_string());
    }
    Ok(stats)
}

fn validate_histograms(hs: &BTreeMap<String, Histogram>) -> Result<(), String> {
    for (name, h) in hs {
        let bucketed: u64 = h.buckets.values().sum();
        if bucketed != h.count {
            return Err(format!("histogram {name}: bucket sum {bucketed} != count {}", h.count));
        }
        if h.count > 0 && h.min > h.max {
            return Err(format!("histogram {name}: min {} > max {}", h.min, h.max));
        }
    }
    Ok(())
}

/// Validate a Chrome trace file; returns the event count.
pub fn validate_trace(trace: &str) -> Result<usize, String> {
    let parsed =
        ChromeTrace::from_json(trace).map_err(|e| format!("trace schema violation: {e}"))?;
    if parsed.trace_events.is_empty() {
        return Err("trace has no events".to_string());
    }
    for (i, e) in parsed.trace_events.iter().enumerate() {
        match e.ph.as_str() {
            "X" => {
                if e.dur.is_none() {
                    return Err(format!("event {i} ({}): complete event without dur", e.name));
                }
            }
            "M" => {}
            other => return Err(format!("event {i} ({}): unexpected phase {other:?}", e.name)),
        }
    }
    Ok(parsed.trace_events.len())
}

/// Validate a metrics CSV; returns the data-row count.
pub fn validate_metrics_csv(csv: &str) -> Result<usize, String> {
    let mut lines = csv.lines();
    match lines.next() {
        Some(h) if h == METRICS_CSV_HEADER => {}
        other => return Err(format!("bad metrics CSV header: {other:?}")),
    }
    let want = METRICS_CSV_HEADER.split(',').count();
    let mut rows = 0;
    for (i, row) in lines.enumerate() {
        let got = row.split(',').count();
        if got != want {
            return Err(format!("row {}: {got} fields, expected {want}", i + 2));
        }
        rows += 1;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionKind;
    use crate::recorder::Session;

    fn sample_report() -> ObsReport {
        let s = Session::install();
        let r = s.handle().expect("live session");
        crate::incr("direct.counter");
        let grid = r.begin_grid("cell", 3);
        for i in 0..3usize {
            r.run_item(grid, "cell", i, (i % 2 + 1) as u32, || {
                crate::label_item(|| format!("w{i}@100W"));
                crate::recorder::incr_by("scheme.plans", 6);
                crate::observe("mpi.wait_s", i as f64 + 0.5);
                crate::observe("mpi.wait_s", f64::INFINITY);
                let _g = crate::span("inner.phase");
            });
        }
        s.finish()
    }

    #[test]
    fn journal_validates_and_round_trips() {
        let report = sample_report();
        let stats = validate_journal(&report.journal_jsonl).expect("valid journal");
        assert_eq!(stats.grids, 1);
        assert_eq!(stats.cells, 3);
        assert!(report.journal_jsonl.ends_with('\n'));
        // totals aggregate cells + direct metrics
        assert!(report.journal_jsonl.contains("\"scheme.plans\":18"));
        assert!(report.journal_jsonl.contains("\"direct.counter\":1"));
        assert!(report.journal_jsonl.contains("\"nonfinite\":3"));
    }

    #[test]
    fn trace_validates_and_names_lanes() {
        let report = sample_report();
        let events = validate_trace(&report.trace_json).expect("valid trace");
        assert!(events >= 6, "3 items + inner spans + lane metadata, got {events}");
        assert!(report.trace_json.contains("driver"));
        assert!(report.trace_json.contains("worker-0"));
        assert!(report.trace_json.contains("w1@100W"));
    }

    #[test]
    fn metrics_csv_validates() {
        let report = sample_report();
        let rows = validate_metrics_csv(&report.metrics_csv).expect("valid csv");
        // 3 cells × (1 counter + 1 histogram) + total rows
        assert!(rows >= 8, "rows = {rows}");
        assert!(report.metrics_csv.contains("w2@100W"));
    }

    #[test]
    fn summary_mentions_totals() {
        let report = sample_report();
        assert!(report.summary.contains("scheme.plans"));
        assert!(report.summary.contains("cells: 3"));
    }

    fn balanced_tick(t_s: f64, job: u64, cap_w: f64) -> crate::ledger::LedgerTick {
        use crate::ledger::{Category, Domain, LedgerEntry, LedgerTick};
        let useful = 60.0;
        let headroom = 10.0;
        LedgerTick {
            t_s,
            dt_s: 0.5,
            cap_w,
            entries: vec![
                LedgerEntry::module(job, 0, Domain::Cpu, Category::Useful, useful),
                LedgerEntry::module(job, 0, Domain::Cpu, Category::Headroom, headroom),
                LedgerEntry::system_stranded(cap_w - useful - headroom),
            ],
        }
    }

    fn decision_record(t_s: f64, job: u64) -> crate::decision::DecisionRecord {
        crate::decision::DecisionRecord {
            t_s,
            job: Some(job),
            cap_w: 95.0,
            avail_w: 25.0,
            kind: crate::decision::DecisionKind::Defer { reason: "insufficient_power".into() },
        }
    }

    #[test]
    fn ledger_and_decisions_export_and_validate() {
        let s = Session::install_with_ledger();
        let r = s.handle().expect("live session");
        crate::ledger_tick(|| balanced_tick(0.0, 7, 95.0));
        crate::decision(|| decision_record(0.0, 7));
        let grid = r.begin_grid("cell", 1);
        r.run_item(grid, "cell", 0, 1, || {
            crate::ledger_tick(|| balanced_tick(1.0, 3, 80.0));
            crate::decision(|| decision_record(1.0, 3));
            crate::decision(|| decision_record(2.0, 3));
        });
        let report = s.finish();
        let stats = validate_journal(&report.journal_jsonl).expect("valid journal");
        assert_eq!(stats.ledgers, 2, "cell scope + direct scope");
        assert_eq!(stats.decisions, 3);
        assert!(report.journal_jsonl.contains("\"type\":\"ledger\""));
        assert!(report.journal_jsonl.contains("\"kind\":\"defer\""));
        let csv_stats = validate_ledger_csv(&report.ledger_csv).expect("valid ledger csv");
        // 2 ticks × 4 category rows; 3 bins per scope × 2 scopes
        assert_eq!(csv_stats.tick_rows, 8, "ledger csv tick rows");
        assert_eq!(csv_stats.bin_rows, 6, "ledger csv bin rows");
        assert!(report.summary.contains("ledger: 2 ticks, 0 violations"));
        assert!(report.summary.contains("decisions: 3"));
    }

    fn scenario_record(t_s: f64, module: u64) -> crate::scenario::ScenarioRecord {
        crate::scenario::ScenarioRecord {
            t_s,
            fleet: 8,
            kind: crate::scenario::ScenarioKind::Drift {
                module,
                dynamic: 1.03,
                leakage: 1.2,
                dram: 1.0,
            },
        }
    }

    #[test]
    fn scenario_lines_export_and_validate() {
        let s = Session::install();
        let r = s.handle().expect("live session");
        crate::scenario_event(|| scenario_record(5.0, 1));
        crate::scenario_event(|| scenario_record(9.0, 2));
        let grid = r.begin_grid("cell", 1);
        r.run_item(grid, "cell", 0, 1, || {
            crate::scenario_event(|| scenario_record(1.0, 0));
        });
        let report = s.finish();
        let stats = validate_journal(&report.journal_jsonl).expect("valid journal");
        assert_eq!(stats.scenarios, 3, "cell scope + 2 direct");
        assert!(report.journal_jsonl.contains("\"type\":\"scenario\""));
        assert!(report.journal_jsonl.contains("\"kind\":\"drift\""));
        assert!(report.summary.contains("scenario events: 3"));
    }

    #[test]
    fn scenario_validation_rejects_bad_records() {
        let run = |records: Vec<crate::scenario::ScenarioRecord>| {
            let s = Session::install();
            for rec in records {
                crate::scenario_event(|| rec.clone());
            }
            let report = s.finish();
            validate_journal(&report.journal_jsonl)
        };
        // module id outside the recorded fleet size
        let err = run(vec![scenario_record(1.0, 99)]).expect_err("out-of-range module");
        assert!(err.contains("out of range"), "{err}");
        // event times must be non-decreasing within a scope
        let err = run(vec![scenario_record(9.0, 1), scenario_record(5.0, 1)])
            .expect_err("non-monotonic times");
        assert!(err.contains("non-decreasing"), "{err}");
        // well-formed records pass
        assert!(run(vec![scenario_record(5.0, 1), scenario_record(5.0, 2)]).is_ok());
    }

    #[test]
    fn conservation_violations_fail_journal_validation() {
        let s = Session::install_with_ledger();
        crate::ledger_tick(|| crate::ledger::LedgerTick {
            t_s: 0.0,
            dt_s: 1.0,
            cap_w: 100.0,
            entries: vec![crate::ledger::LedgerEntry::system_stranded(50.0)],
        });
        let report = s.finish();
        let err = validate_journal(&report.journal_jsonl).expect_err("violation must fail");
        assert!(err.contains("conservation"), "{err}");
    }

    #[test]
    fn ledger_csv_validator_rejects_broken_conservation() {
        let s = Session::install_with_ledger();
        crate::ledger_tick(|| balanced_tick(0.0, 1, 95.0));
        let report = s.finish();
        // corrupt the useful-watts tick row: conservation re-check fires
        let tampered = report.ledger_csv.replacen(",useful,60", ",useful,59", 1);
        assert_ne!(tampered, report.ledger_csv, "tamper target must exist");
        let err = validate_ledger_csv(&tampered).expect_err("tampered csv must fail");
        assert!(err.contains("categories sum"), "{err}");
        assert!(validate_ledger_csv("nope\n").is_err());
        assert!(validate_ledger_csv(LEDGER_CSV_HEADER).is_err(), "no data rows");
        // one tick's four category rows at `cap_w`, all but `useful` zero
        let tick = |cap_w: &str, useful: &str| {
            let rows: Vec<String> = ["useful", "throttle", "headroom", "stranded"]
                .iter()
                .map(|cat| {
                    let value = if *cat == "useful" { useful } else { "0" };
                    format!("tick,0,0,0,0,1,{cap_w},,,,{cat},{value}\n")
                })
                .collect();
            format!("{LEDGER_CSV_HEADER}\n{}", rows.concat())
        };
        assert!(validate_ledger_csv(&tick("100", "100")).is_ok());
        let err = validate_ledger_csv(&tick("100", "50")).expect_err("half the cap");
        assert!(err.contains("categories sum"), "{err}");
        for (cap_w, useful) in [("100", "NaN"), ("inf", "inf"), ("100", "-inf")] {
            let err = validate_ledger_csv(&tick(cap_w, useful)).expect_err("non-finite");
            assert!(err.contains("non-finite"), "{cap_w} {useful}: {err}");
        }
        let bin = format!("{LEDGER_CSV_HEADER}\nbin,0,0,,,,,0,0,cpu,useful,NaN\n");
        assert!(validate_ledger_csv(&bin).is_err(), "a NaN bin value");
    }

    #[test]
    fn plain_sessions_skip_the_ledger_but_keep_decisions() {
        let s = Session::install();
        crate::ledger_tick(|| panic!("ledger closure must not run without install_with_ledger"));
        crate::decision(|| decision_record(0.0, 1));
        let report = s.finish();
        assert!(report.ledger_csv.is_empty());
        let stats = validate_journal(&report.journal_jsonl).expect("valid journal");
        assert_eq!(stats.ledgers, 0);
        assert_eq!(stats.decisions, 1);
    }

    #[test]
    fn decision_lines_round_trip_with_a_null_job() {
        let line = JournalLine::Decision {
            grid: None,
            index: None,
            seq: 0,
            record: DecisionRecord {
                t_s: 30.0,
                job: None,
                cap_w: 80.0,
                avail_w: 5.0,
                kind: DecisionKind::CapChange { old_w: 95.0, new_w: 80.0 },
            },
        };
        let json = line.to_json();
        assert!(json.starts_with("{\"type\":\"decision\",\"grid\":null"), "{json}");
        assert!(json.contains("\"job\":null"), "{json}");
        assert!(json.contains("\"t_s\":30,"), "whole floats are written without `.0`: {json}");
        assert_eq!(JournalLine::from_json(&json).unwrap(), line);
        assert!(JournalLine::from_json("{\"type\":\"cell\"}").unwrap_err().contains("missing"));
    }

    /// Driver records before and after a 3-cell grid whose items run in
    /// order 2, 0, 1: cell 0 is labelled, cell 2 records only a counter.
    fn pinned_report() -> ObsReport {
        let s = Session::install_with_ledger();
        let r = s.handle().expect("live session");
        crate::incr("driver.before");
        crate::observe("driver.h", 1.5);
        crate::ledger_tick(|| balanced_tick(0.0, 7, 95.1));
        crate::decision(|| decision_record(0.0, 7));
        crate::scenario_event(|| scenario_record(0.5, 1));
        let grid = r.begin_grid("cell", 3);
        for i in [2usize, 0, 1] {
            r.run_item(grid, "cell", i, 1, || {
                if i == 2 {
                    crate::incr("cell.counter");
                    return;
                }
                if i == 0 {
                    crate::label_item(|| "w0@110W".to_string());
                }
                crate::recorder::incr_by("cell.counter", i as u64 + 2);
                crate::observe("cell.h", 0.25 + i as f64);
                crate::ledger_tick(|| balanced_tick(1.0 + i as f64, 3, 80.2 + i as f64));
                crate::decision(|| decision_record(1.0 + i as f64, 3));
                crate::decision(|| decision_record(2.0 + i as f64, 4));
                crate::scenario_event(|| scenario_record(1.5 + i as f64, i as u64));
            });
        }
        crate::recorder::incr_by("driver.after", 3);
        crate::observe("driver.h", 4.0);
        crate::ledger_tick(|| balanced_tick(5.0, 7, 90.3));
        crate::decision(|| decision_record(5.0, 8));
        crate::scenario_event(|| scenario_record(6.0, 2));
        s.finish()
    }

    /// Every deterministic export of [`pinned_report`], byte for byte.
    /// The constants are never edited: a failure means an output byte moved.
    #[test]
    fn pinned_session_exports_exact_bytes() {
        let report = pinned_report();
        assert_eq!(report.journal_jsonl, PINNED_JOURNAL);
        assert_eq!(report.ledger_csv, PINNED_LEDGER_CSV);
        assert_eq!(report.metrics_csv, PINNED_METRICS_CSV);
        assert_eq!(report.summary, PINNED_SUMMARY);
        validate_journal(&report.journal_jsonl).expect("valid journal");
        validate_ledger_csv(&report.ledger_csv).expect("valid ledger csv");
    }

    const PINNED_JOURNAL: &str = r#"{"type":"meta","version":4}
{"type":"grid","id":0,"kind":"cell","items":3}
{"type":"cell","grid":0,"index":0,"kind":"cell","label":"w0@110W","counters":{"cell.counter":2},"histograms":{"cell.h":{"count":1,"sum":0.25,"min":0.25,"max":0.25,"nonfinite":0,"buckets":{"-32":1}}}}
{"type":"cell","grid":0,"index":1,"kind":"cell","label":null,"counters":{"cell.counter":3},"histograms":{"cell.h":{"count":1,"sum":1.25,"min":1.25,"max":1.25,"nonfinite":0,"buckets":{"4":1}}}}
{"type":"cell","grid":0,"index":2,"kind":"cell","label":null,"counters":{"cell.counter":1},"histograms":{}}
{"type":"ledger","grid":0,"index":0,"ticks":1,"violations":0,"worst_residual_w":0,"bins":[{"job":null,"module":null,"domain":null,"category":"stranded","watt_s":5.100000000000001},{"job":3,"module":0,"domain":"cpu","category":"useful","watt_s":30},{"job":3,"module":0,"domain":"cpu","category":"headroom","watt_s":5}]}
{"type":"ledger","grid":0,"index":1,"ticks":1,"violations":0,"worst_residual_w":0,"bins":[{"job":null,"module":null,"domain":null,"category":"stranded","watt_s":5.600000000000001},{"job":3,"module":0,"domain":"cpu","category":"useful","watt_s":30},{"job":3,"module":0,"domain":"cpu","category":"headroom","watt_s":5}]}
{"type":"ledger","grid":null,"index":null,"ticks":2,"violations":0,"worst_residual_w":0,"bins":[{"job":null,"module":null,"domain":null,"category":"stranded","watt_s":22.699999999999996},{"job":7,"module":0,"domain":"cpu","category":"useful","watt_s":60},{"job":7,"module":0,"domain":"cpu","category":"headroom","watt_s":10}]}
{"type":"decision","grid":0,"index":0,"seq":0,"t_s":1,"job":3,"cap_w":95,"avail_w":25,"decision":{"kind":"defer","reason":"insufficient_power"}}
{"type":"decision","grid":0,"index":0,"seq":1,"t_s":2,"job":4,"cap_w":95,"avail_w":25,"decision":{"kind":"defer","reason":"insufficient_power"}}
{"type":"decision","grid":0,"index":1,"seq":0,"t_s":2,"job":3,"cap_w":95,"avail_w":25,"decision":{"kind":"defer","reason":"insufficient_power"}}
{"type":"decision","grid":0,"index":1,"seq":1,"t_s":3,"job":4,"cap_w":95,"avail_w":25,"decision":{"kind":"defer","reason":"insufficient_power"}}
{"type":"decision","grid":null,"index":null,"seq":0,"t_s":0,"job":7,"cap_w":95,"avail_w":25,"decision":{"kind":"defer","reason":"insufficient_power"}}
{"type":"decision","grid":null,"index":null,"seq":1,"t_s":5,"job":8,"cap_w":95,"avail_w":25,"decision":{"kind":"defer","reason":"insufficient_power"}}
{"type":"scenario","grid":0,"index":0,"seq":0,"t_s":1.5,"fleet":8,"event":{"kind":"drift","module":0,"dynamic":1.03,"leakage":1.2,"dram":1}}
{"type":"scenario","grid":0,"index":1,"seq":0,"t_s":2.5,"fleet":8,"event":{"kind":"drift","module":1,"dynamic":1.03,"leakage":1.2,"dram":1}}
{"type":"scenario","grid":null,"index":null,"seq":0,"t_s":0.5,"fleet":8,"event":{"kind":"drift","module":1,"dynamic":1.03,"leakage":1.2,"dram":1}}
{"type":"scenario","grid":null,"index":null,"seq":1,"t_s":6,"fleet":8,"event":{"kind":"drift","module":2,"dynamic":1.03,"leakage":1.2,"dram":1}}
{"type":"total","counters":{"cell.counter":6,"driver.after":3,"driver.before":1,"exec.cells":3},"histograms":{"cell.h":{"count":2,"sum":1.5,"min":0.25,"max":1.25,"nonfinite":0,"buckets":{"-32":1,"4":1}},"driver.h":{"count":2,"sum":5.5,"min":1.5,"max":4,"nonfinite":0,"buckets":{"8":1,"32":1}}}}
"#;

    const PINNED_LEDGER_CSV: &str = r#"scope,grid,index,tick,t_s,dt_s,cap_w,job,module,domain,category,value
tick,0,0,0,1,0.5,80.2,,,,useful,60
tick,0,0,0,1,0.5,80.2,,,,throttle,0
tick,0,0,0,1,0.5,80.2,,,,headroom,10
tick,0,0,0,1,0.5,80.2,,,,stranded,10.200000000000003
bin,0,0,,,,,,,,stranded,5.100000000000001
bin,0,0,,,,,3,0,cpu,useful,30
bin,0,0,,,,,3,0,cpu,headroom,5
tick,0,1,0,2,0.5,81.2,,,,useful,60
tick,0,1,0,2,0.5,81.2,,,,throttle,0
tick,0,1,0,2,0.5,81.2,,,,headroom,10
tick,0,1,0,2,0.5,81.2,,,,stranded,11.200000000000003
bin,0,1,,,,,,,,stranded,5.600000000000001
bin,0,1,,,,,3,0,cpu,useful,30
bin,0,1,,,,,3,0,cpu,headroom,5
tick,,,0,0,0.5,95.1,,,,useful,60
tick,,,0,0,0.5,95.1,,,,throttle,0
tick,,,0,0,0.5,95.1,,,,headroom,10
tick,,,0,0,0.5,95.1,,,,stranded,25.099999999999994
tick,,,1,5,0.5,90.3,,,,useful,60
tick,,,1,5,0.5,90.3,,,,throttle,0
tick,,,1,5,0.5,90.3,,,,headroom,10
tick,,,1,5,0.5,90.3,,,,stranded,20.299999999999997
bin,,,,,,,,,,stranded,22.699999999999996
bin,,,,,,,7,0,cpu,useful,60
bin,,,,,,,7,0,cpu,headroom,10
"#;

    const PINNED_METRICS_CSV: &str = r#"scope,grid,index,kind,label,metric,value,count,sum,min,max
cell,0,0,cell,w0@110W,cell.counter,2,,,,
cell,0,0,cell,w0@110W,cell.h,,1,0.25,0.25,0.25
cell,0,1,cell,,cell.counter,3,,,,
cell,0,1,cell,,cell.h,,1,1.25,1.25,1.25
cell,0,2,cell,,cell.counter,1,,,,
total,,,,,cell.counter,6,,,,
total,,,,,driver.after,3,,,,
total,,,,,driver.before,1,,,,
total,,,,,exec.cells,3,,,,
total,,,,,cell.h,,2,1.5,0.25,1.25
total,,,,,driver.h,,2,5.5,1.5,4
"#;

    const PINNED_SUMMARY: &str = r#"== vap-obs session summary ==
grids: 1   cells: 3   spans: 3
ledger: 4 ticks, 0 violations (worst residual 0.000e0 W)
  useful              120.000 W·s
  throttle              0.000 W·s
  headroom             20.000 W·s
  stranded             33.400 W·s
decisions: 6
scenario events: 4
counter                                   value
cell.counter                                  6
driver.after                                  3
driver.before                                 1
exec.cells                                    3
histogram                             count            sum          min          max    n/f
cell.h                                    2       1.500000     0.250000     1.250000      0
driver.h                                  2       5.500000     1.500000     4.000000      0
"#;

    #[test]
    fn validators_reject_corruption() {
        let report = sample_report();
        let j = &report.journal_jsonl;
        // flip a counter value → round-trip still fine, but reorder breaks
        let mut lines: Vec<&str> = j.lines().collect();
        lines.swap(0, 1);
        let swapped = lines.join("\n");
        assert!(validate_journal(&swapped).is_err(), "meta must be first");
        assert!(validate_journal("").is_err());
        assert!(validate_journal("{\"type\":\"bogus\"}").is_err());
        // a journal written before the in-tree writer fails on its version
        let v3 = j.replacen("\"version\":4", "\"version\":3", 1);
        let err = validate_journal(&v3).expect_err("v3 journal");
        assert!(err.contains("line 1") && err.contains("version 3"), "{err}");
        assert!(validate_trace("{}").is_err());
        assert!(validate_metrics_csv("nope\n").is_err());
    }
}
